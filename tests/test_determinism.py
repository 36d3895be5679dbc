"""Golden digests: a small seeded chain must write the same bytes forever.

A speed change to any stage that reaches these files (ray casting,
placement, simulation, IoU, fusion, AP, the file writers) must leave every
digest below as it is.  Manifests record wall time and are left out.  A
change that means to alter output bytes updates the digests and says why.
"""

from __future__ import annotations

import json

from crossview import file_sha256, save_scene
from crossview.cli import main

from conftest import square_scene

# Recorded before the circle reject in iou_3d and the dedicated frames writer.
GOLDEN = {
    "center.evaluation": "d28fe16a24b7449ab26203f6d5f046909ebcca651075dcfa7789d9c6b0e5927b",
    "fused.frames": "1764b48efa2b8da8b957b380595151e575235f7b9304055cf204950bcfdf7a0a",
    "iou.evaluation": "906dea13d4ed5cd9c1ca56a6e1937f3c5123e4bca2980edd353eac58adf00bf6",
    "lidar.frames": "4b372254e1ea308455943cb2da2c55ab42de918d705b353f555fe63b4fdd1e47",
    "lidar.vismatrix": "6b1c4bd3e5677ff8eb43af8ad1725314ddb30f57ac5ba4e1fd002de0b9e4c9e7",
    "plan.solution": "ebc62ea2d20295c0395303306c617560a980220fc0765190e3db0e9aaf61cede",
    "radar.frames": "423c65e9f99fbde794a666748f2e770b7f0d17b17fe3374ee2002b664ab733ca",
    "radar.vismatrix": "83baaf11e46f7f27b025199d55ad9252437bf0902c8c3ad0de5441d5da0f94d6",
    "truth.frames": "481b0b2169153a38322adc4511a2b38f3758f1965f5b5c856920062e4ea58bf5",
}


def test_seeded_chain_bytes_are_pinned(tmp_path, capsys):
    save_scene(tmp_path / "site.scene", square_scene(
        occluders=[((8.0, 8.0, 0.0), (11.0, 12.0, 4.0))], weights={3: 2.0, 40: 0.5}))
    (tmp_path / "traffic.json").write_text(json.dumps({
        "seed": 7, "duration_frames": 12, "frame_dt_s": 0.5,
        "lidar_noise": {"position_sigma": 0.3, "size_sigma": 0.1, "yaw_sigma": 0.05},
        "radar_noise": {"position_sigma": 0.5, "size_sigma": 0.2, "yaw_sigma": 0.1,
                        "velocity_sigma": 0.2},
    }))
    d = str(tmp_path) + "/"
    commands = [
        ["visibility", "--scene", d + "site.scene", "--samples-per-cell", "4",
         "--out-lidar", d + "lidar.vismatrix", "--out-radar", d + "radar.vismatrix"],
        ["optimize", "--lidar", d + "lidar.vismatrix", "--radar", d + "radar.vismatrix",
         "--budget", "3", "--out", d + "plan.solution"],
        ["simulate", "--scene", d + "site.scene", "--lidar", d + "lidar.vismatrix",
         "--radar", d + "radar.vismatrix", "--solution", d + "plan.solution",
         "--config", d + "traffic.json", "--out-truth", d + "truth.frames",
         "--out-lidar", d + "lidar.frames", "--out-radar", d + "radar.frames"],
        ["fuse", "--lidar", d + "lidar.frames", "--radar", d + "radar.frames",
         "--iou-threshold", "0.2", "--out", d + "fused.frames"],
        ["evaluate", "--truth", d + "truth.frames", "--predictions", d + "fused.frames",
         "--mode", "iou", "--out", d + "iou.evaluation"],
        ["evaluate", "--truth", d + "truth.frames", "--predictions", d + "fused.frames",
         "--mode", "center_distance", "--out", d + "center.evaluation"],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()
    digests = {p.name: file_sha256(p) for p in sorted(tmp_path.iterdir())
               if p.suffix not in (".manifest", ".json", ".scene")}
    assert digests == GOLDEN
