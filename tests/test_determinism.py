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

# Re-recorded for envelope version 2: the header line carries the digest
# of the body bytes, the body loses its "content_hash" field, and matrix
# and solution files carry scene_hash as the scene file's header digest.
# Every payload, and every matrix line but scene_hash, equals the version 1
# chain's, which was recorded before the circle reject in iou_3d and the
# dedicated frames writer.
#
# Re-recorded again for the one detection model: the simulator now rolls
# against 1 - prod(1 - v) instead of min(sum v, 1), and scores each box
# with that probability.  lidar.frames, fused.frames and iou.evaluation
# follow from that alone (the old code with only that swap writes the same
# three digests).  truth, both matrices, plan.solution, radar.frames and
# center.evaluation are unchanged: the plan has one radar mount, whose p is
# its v to the last bit except one ulp above v = 0.25, and no radar box here
# sits in such a cell.  The coverage and compare steps, new then, pin the
# money-based total_cost, sensor_count and cost reduction across a count
# and a cost budget.
GOLDEN = {
    "center.evaluation": "b30c0afc385a944f1ebb1a08d838bcb4d6b5589fcc36076d5bcfa39cbd8b741e",
    "cost.coverage": "bcf84d41347f02789be66c7a4100923af3b4bd5ae444275010d452f279647b05",
    "cost.solution": "97ef1306bbe099f7f0d0fc0a7951cd44f581232beb05b745cde4bec5de37b6d9",
    "fused.frames": "6254396d2ad8e169f4df84c114cdac39b557e69d8bd60a0c40b4052477dc6479",
    "iou.evaluation": "6f2d75a4b080bd079c90b2c94f607cf81f454dd6d2bf75af813bc1565133c019",
    "lidar.frames": "10b74725414e053ffd71f4b1d1ad1f2f5ca44865c3a33cf31c81b023955c8027",
    "lidar.vismatrix": "23359b2b834dcffd435cf9fbc063c578463d18f64eca6cb1e4034fecefb902b7",
    "plan.comparison": "7c18951848e7aad8438d7f7e24cca3ab6dbe427197281f6ee97b22aa029d2fdb",
    "plan.coverage": "85810eed45dfe352b732a10f985e96101ab5f4d78670eff91e65d2b94390b11b",
    "plan.solution": "c4aed640faae2f7d598e87daaa60df74d689acd34cb856dfe03d33ced2328c02",
    "radar.frames": "fa6ef4129dc7db8aec7915f97eec1fd5a5fad0a901465c6bbb2ac1105aa5ab3f",
    "radar.vismatrix": "dc58d81b9e8c4b352b1072aa8cdff97429c2c437c5164b8fadb26dc1ab03a5a3",
    "truth.frames": "0c935b7218bde7ace687911068ddeda34caf97d83d078dc675ca570fb1704ffc",
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
        ["optimize", "--lidar", d + "lidar.vismatrix", "--radar", d + "radar.vismatrix",
         "--budget-mode", "cost", "--budget", "240", "--out", d + "cost.solution"],
        ["coverage", "--lidar", d + "lidar.vismatrix", "--radar", d + "radar.vismatrix",
         "--solution", d + "plan.solution", "--out", d + "plan.coverage"],
        ["coverage", "--lidar", d + "lidar.vismatrix", "--radar", d + "radar.vismatrix",
         "--solution", d + "cost.solution", "--theta", "0.5", "--out", d + "cost.coverage"],
        ["compare", d + "plan.coverage", d + "cost.coverage", "--out", d + "plan.comparison"],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()
    digests = {p.name: file_sha256(p) for p in sorted(tmp_path.iterdir())
               if p.suffix not in (".manifest", ".json", ".scene")}
    assert digests == GOLDEN
