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
