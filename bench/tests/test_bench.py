"""The benchmark's own tests: toy-size runs and checks that catch corruption.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracer
import workloads
from crossview import boxes, cli, fusion, metrics

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def _round(name: str, root: Path, seed: int = 3):
    """Set up a toy workload and run one round of its operations."""
    workload = workloads.WORKLOADS[name](seed, toy=True)
    inputs, out = root / "in", root / "out"
    inputs.mkdir(parents=True)
    out.mkdir()
    workload.setup(inputs)
    for op in workload.ops(inputs, out):
        for argv in op.commands:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(list(argv)) == 0, argv
    return workload, inputs, out


def _rewrite_payload(path: Path, edit) -> None:
    magic, body = path.read_text().split("\n", 1)
    doc = json.loads(body)
    edit(doc["payload"])
    path.write_text(magic + "\n" + json.dumps(doc) + "\n")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_toy_run_is_correct_and_reports_every_metric(name, trace, tmp_path):
    workload = workloads.WORKLOADS[name](5, toy=True)
    result, info = run.measure(workload, tmp_path / "work", 0.0, trace)
    assert result["correct"], info["problems"]
    assert result["failed"] == 0
    assert result["attempted"] == info["rounds"] * info["ops_per_round"]
    assert set(result["metrics"]) == (PER_LAYER if trace else END_TO_END)
    if trace:
        assert abs(info["self_time_share_of_traced_wall"] - 1.0) < 0.05
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_rescore_records_no_visibility_placement_or_scenario_span(tmp_path):
    result, _ = run.measure(workloads.Rescore(2, toy=True), tmp_path / "work", 0.0, True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    for name in ("visibility.build_s", "placement.solve_s", "placement.greedy_s",
                 "placement.evaluate_s", "scenario.generate_s", "formats.load_matrix_s"):
        assert m[name] == 0.0, name
    assert m["fusion.frames"] > 0 and m["metrics.evaluate_s"] > 0


def test_tracer_wraps_every_binding_once_and_restores_them():
    from crossview.placement import PlacementProblem

    problem_factory = vars(PlacementProblem)["from_matrices"]
    originals = (boxes.iou_3d, fusion.iou_3d, metrics.iou_3d, cli.SOLVERS["branch-bound"])
    t = tracer.Tracer()
    t.install()
    try:
        assert fusion.iou_3d is not originals[1] and metrics.iou_3d is not originals[2]
        assert cli.SOLVERS["branch-bound"] is not originals[3]
        wrapped = vars(PlacementProblem)["from_matrices"].__func__
        assert wrapped is not problem_factory.__func__
        assert wrapped.__wrapped__ is problem_factory.__func__
        a = boxes.DetectionBox((0, 0, 1), (4, 2, 2), 0.0, "car", 0.9, "lidar")
        b = boxes.DetectionBox((1, 0, 1), (4, 2, 2), 0.0, "car", 0.8, "radar")
        fusion.fuse_late([a], [b])
        assert t.counts["fusion.iou_calls"] == 1 and t.counts["fusion.merges"] == 1
    finally:
        t.uninstall()
    assert (boxes.iou_3d, fusion.iou_3d, metrics.iou_3d, cli.SOLVERS["branch-bound"]) == originals
    assert vars(PlacementProblem)["from_matrices"] is problem_factory


def test_span_bookkeeping_stays_out_of_the_callers_self_time():
    t = tracer.Tracer()
    inner = t._wrap(lambda: None, "inner")

    def caller():
        for _ in range(20_000):
            inner()

    t._wrap(caller, "outer")()
    assert t.self_time["outer"] < 0.25 * t.self_time[tracer.TRACE]


def test_placement_check_rejects_a_wrong_objective(tmp_path):
    _, _, out = _round("plan", tmp_path)
    lidar = checks.read_matrix(out / "plan0.lidar.vismatrix")
    radar = checks.read_matrix(out / "plan0.radar.vismatrix")
    solution = out / "plan0.count4.solution"
    assert checks.placement(solution, lidar, radar, "count", 4.0) == []
    _rewrite_payload(solution, lambda p: p.update(objective=p["objective"] * 1.001))
    assert checks.placement(solution, lidar, radar, "count", 4.0)


def test_placement_check_rejects_a_suboptimal_pick(tmp_path):
    _, _, out = _round("plan", tmp_path)
    lidar = checks.read_matrix(out / "plan0.lidar.vismatrix")
    radar = checks.read_matrix(out / "plan0.radar.vismatrix")
    solution = out / "plan0.count4.solution"
    worse = {"lidar_ids": [0], "radar_ids": [0]}
    worse["objective"] = checks.scalar_objective(lidar, radar, [0], [0], 1.0)
    _rewrite_payload(solution, lambda p: p.update(worse))
    assert checks.placement(solution, lidar, radar, "count", 4.0)


def test_fusion_check_rejects_a_dropped_fused_box(tmp_path):
    _, inputs, out = _round("rescore", tmp_path)
    fused = out / "d0-t0.1-iou.fused.frames"
    lidar, radar = inputs / "d0.lidar.frames", inputs / "d0.radar.frames"
    assert checks.fused_frames(lidar, radar, fused) == []

    def drop(payload):
        frame = next(f for f in payload["frames"]
                     if any(b["source"] == "fused" for b in f["boxes"]))
        frame["boxes"].remove(next(b for b in frame["boxes"] if b["source"] == "fused"))

    _rewrite_payload(fused, drop)
    assert checks.fused_frames(lidar, radar, fused)


@pytest.mark.parametrize("mode", ["iou", "center_distance"])
def test_evaluation_check_rejects_an_ap_off_by_a_hundredth(mode, tmp_path):
    _, inputs, out = _round("rescore", tmp_path)
    stem = out / f"d0-t0.3-{mode}"
    fused, report = Path(f"{stem}.fused.frames"), Path(f"{stem}.evaluation")
    assert checks.evaluation(inputs / "d0.truth.frames", fused, report, mode, 3) == []

    def shift(payload):
        entry = next(e for e in payload["record"]["per_class"].values() if e["ap"] is not None)
        entry["ap"] += 0.01

    _rewrite_payload(report, shift)
    assert checks.evaluation(inputs / "d0.truth.frames", fused, report, mode, 3)


def test_visibility_check_rejects_a_flipped_sample(tmp_path):
    _, inputs, out = _round("plan", tmp_path)
    scene = inputs / "plan0.scene"
    lidar = checks.read_matrix(out / "plan0.lidar.vismatrix")
    radar = checks.read_matrix(out / "plan0.radar.vismatrix")
    everything = lidar["values"].size + radar["values"].size
    assert checks.visibility_samples(scene, lidar, radar, 9, 0, n_entries=everything) == []
    values = lidar["values"]
    i, j = divmod(int(values.argmax()), values.shape[1])
    values[i, j] = (round(values[i, j] * 9) - 1) / 9  # one lattice sample fewer
    assert checks.visibility_samples(scene, lidar, radar, 9, 0, n_entries=everything)


def test_coverage_check_rejects_a_miscount(tmp_path):
    _, _, out = _round("plan", tmp_path)
    lidar = checks.read_matrix(out / "plan0.lidar.vismatrix")
    radar = checks.read_matrix(out / "plan0.radar.vismatrix")
    report, solution = out / "plan0.cost200.coverage", out / "plan0.cost200.solution"
    assert checks.coverage(report, solution, lidar, radar) == []
    _rewrite_payload(report, lambda p: p["record"].update(covered_cells=p["record"]["covered_cells"] - 1))
    assert checks.coverage(report, solution, lidar, radar)


def test_plan_check_rejects_clip_truth_that_depends_on_the_layout(tmp_path):
    workload, inputs, out = _round("plan", tmp_path)
    assert workload.check(inputs, out) == []
    _rewrite_payload(out / "plan0.count4.clip.truth.frames",
                     lambda p: p["frames"][0]["boxes"].pop())
    assert any("clip ground truth" in problem for problem in workload.check(inputs, out))


def test_monte_carlo_iou_agrees_with_iou_3d():
    import numpy as np

    a = boxes.DetectionBox((0.0, 0.0, 1.0), (4.0, 2.0, 2.0), 0.3, "car", 0.9, "lidar")
    b = boxes.DetectionBox((1.0, 0.5, 1.2), (4.2, 1.8, 2.0), -0.2, "car", 0.8, "radar")
    assert abs(checks.mc_iou(a, b, np.random.default_rng(0)) - boxes.iou_3d(a, b)) < 0.01


def test_run_fails_without_crossview_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "rescore",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
