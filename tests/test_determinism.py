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
#
# Re-recorded for the compact JSON layout: every JSON body is now one line
# with no insignificant whitespace, so every JSON file's bytes and digest
# moved, and the scene file's new bytes move the scene_hash line of both
# matrices and the scene_hash of both solutions.  Every payload
# (``json.loads`` of the body) equals the two-space-indented chain's, and
# every matrix line but scene_hash is byte-identical.
#
# The two LP files (count budget 3, cost budget 240) were added later,
# recorded from the chain as it stood, with no other digest re-recorded.
GOLDEN = {
    "center.evaluation": "26c754146bd5ac931a3226d65c26ed7d25a30aa078dcb8afff9a5ce41966f5a4",
    "cost.coverage": "26ace1cb9636752666f9c7afed861e36eca5f6c2de3ecc878f2b7275b983af2b",
    "cost.lp": "798623a018a850b61499866a600e3566a6b96f7649efcd43d5c7e25e729e46f9",
    "cost.solution": "763887ebce93133770b8a969155256890edf5e28c06b4998ea29667a9ac8ac3d",
    "fused.frames": "69a99ffbe44dc84e043ccf91067d6160a475ae7372d237560ff257f66cef7fca",
    "iou.evaluation": "dd37a821449274f803ea5e857de86411912625b0c180dc40e39d26d6d2f4790e",
    "lidar.frames": "760880bde818decab7372c795f7a3c05f0645ab51178fea6ad80b5af93c324dc",
    "lidar.vismatrix": "162f0a507719f40b43390e678f03da5578d69246a2eb803c5fa91f602e032047",
    "plan.comparison": "459902f4c13e9e61ba613440e0a36da592b962d357b4c1112a9765d54cbc326c",
    "plan.coverage": "e851db9568512ac4909d49fc5a071f993bfc32f5317a0c6ad2e8922f2a02ac61",
    "plan.lp": "871a4b26102642a86fa9508246f323efc39a7bb18fa3cfb8f3a1ad3de7dfd2cd",
    "plan.solution": "19a6dab1887c0394be6b97ece334cfb99ac6665b230c3f0a1bd6e2cffc63e214",
    "radar.frames": "40e43c8f75015e482a93c10bebfb3190107ca5ec7ba6b05de21f3b2baf11fec7",
    "radar.vismatrix": "5f0961308bfbbcdd55796f47511a1b8700f504a93cc1a41aa865624f42c1754d",
    "truth.frames": "8cfa369107dcd130797159e65ea3cc4849a5b05019e2f68bc52bfc34a3799cc1",
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
        ["export-milp", "--lidar", d + "lidar.vismatrix", "--radar", d + "radar.vismatrix",
         "--budget", "3", "--out", d + "plan.lp"],
        ["export-milp", "--lidar", d + "lidar.vismatrix", "--radar", d + "radar.vismatrix",
         "--budget-mode", "cost", "--budget", "240", "--out", d + "cost.lp"],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()
    digests = {p.name: file_sha256(p) for p in sorted(tmp_path.iterdir())
               if p.suffix not in (".manifest", ".json", ".scene")}
    assert digests == GOLDEN
