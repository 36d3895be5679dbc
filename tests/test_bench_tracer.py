"""The benchmark's tracer still finds every function it wraps.

``bench/tracer.py`` wraps crossview functions by name at every module
binding that holds them, and refuses to install when a name in its
``SPANS`` table is missing.  Installing it here makes a rename that would
break traced benchmark runs (``bench/run.py --trace 1``) fail the test
suite instead.  The tracer is imported from its file; ``bench/`` is not
changed.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from crossview import boxes, cli, fusion, metrics  # noqa: F401  (cli holds the traced main)
from crossview.formats import load_frames, save_frames

from conftest import rescore_frames

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_uninstalls():
    iou_3d = boxes.iou_3d
    tracer = _tracer_module().Tracer()
    try:
        tracer.install()  # raises RuntimeError if a SPANS name is missing from crossview
        # The per-pair IoU bindings in fusion and metrics, which the benchmark's
        # own tests wrap, are there and traced.
        for module in (fusion, metrics):
            assert module.iou_3d is not iou_3d and module.iou_3d.__wrapped__ is iou_3d
        lidar = boxes.DetectionBox((0.0, 0.0, 1.0), (4.0, 2.0, 2.0), 0.0, "car", 0.9, "lidar")
        radar = boxes.DetectionBox((0.5, 0.0, 1.0), (4.0, 2.0, 2.0), 0.0, "car", 0.6, "radar")
        assert len(fusion.fuse_late([lidar], [radar])) == 1
    finally:
        tracer.uninstall()
    assert tracer.counts["fusion.iou_calls"] == 1 and tracer.counts["fusion.merges"] == 1
    assert fusion.iou_3d is metrics.iou_3d is boxes.iou_3d is iou_3d


def test_fuse_and_evaluate_commands_land_in_their_spans(tmp_path):
    """``fuse`` and ``evaluate`` load, fuse and score through ``load_frames``,
    ``fuse_late`` and ``evaluate_map``, so their time is not the command
    line's own, and the fuse span counts every merge of the file."""
    frames = rescore_frames(3)
    paths = {}
    for name in ("ground_truth", "lidar", "radar"):
        paths[name] = tmp_path / f"{name}.frames"
        save_frames(paths[name], getattr(frames, name))
    fused = tmp_path / "fused.frames"
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        assert cli.main(["fuse", "--lidar", str(paths["lidar"]), "--radar", str(paths["radar"]),
                         "--out", str(fused)]) == 0
        for mode in ("iou", "center_distance"):
            assert cli.main(["evaluate", "--truth", str(paths["ground_truth"]),
                             "--predictions", str(fused), "--mode", mode]) == 0
    finally:
        tracer.uninstall()
    boxes_in = sum(len(b) for name in ("lidar", "radar") for b in getattr(frames, name).values())
    merges = boxes_in - sum(map(len, load_frames(fused).values()))
    assert merges > 0
    assert tracer.counts["fusion.frames"] == 1 and tracer.counts["fusion.merges"] == merges
    for group in ("formats.load_frames", "fusion.fuse", "metrics.evaluate"):
        assert tracer.self_time[group] > 0.0, group
