"""Outside-in layer tracer: spans around calls into crossview's public API.

The tracer wraps the crossview functions named in ``SPANS`` at every
module binding that holds them, plus values in module-level dicts such as
``crossview.cli.SOLVERS`` and classmethods such as
``PlacementProblem.from_matrices``.  Functions are found by name, not by
defining module, so a span still lands when code moves between modules.
Nothing under ``src/`` is edited; ``uninstall`` puts every binding back.

Each span adds its self time (its duration minus the time of its child
spans) to its group.  Time in code that is not wrapped lands in the
nearest wrapped caller, which for the command line is ``cli``.  Counter
hooks record work done at the same boundaries.

A span's own bookkeeping runs partly outside its clock.  The part after
the clock stops (popping the stack, counter hooks) is timed; the part
before it starts and around the clock calls is calibrated once, by
timing a wrapped no-op.  Both go to the ``trace`` group and are taken
out of the caller's self time, so the layer times hold program time only.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

from crossview.visibility import VisibilityConfig

# function name -> span group; a group's self time is reported as
# "<group>_s" (and "cli" as "cli.self_s").
SPANS = {
    "main": "cli",
    "build_visibility": "visibility.build",
    "solve_branch_bound": "placement.solve",
    "solve_exhaustive": "placement.solve",
    "solve_greedy": "placement.greedy",
    "evaluate_selection": "placement.evaluate",
    "from_matrices": "placement.problem",
    "coverage_report": "coverage.report",
    "compare_configs": "coverage.report",
    "generate_scenario": "scenario.generate",
    "iou_3d": "boxes.iou",
    "fuse_late": "fusion.fuse",
    "evaluate_map": "metrics.evaluate",
    "evaluate_ap": "metrics.evaluate",
    "pair_frames": "metrics.evaluate",
    "save_frames": "formats.save_frames",
    "load_frames": "formats.load_frames",
    "load_frame_pairs": "formats.load_frames",
    "save_matrix": "formats.save_matrix",
    "load_matrix": "formats.load_matrix",
    "save_scene": "formats.other_io",
    "load_scene": "formats.other_io",
    "save_solution": "formats.other_io",
    "load_solution": "formats.other_io",
    "save_report": "formats.other_io",
    "load_report": "formats.other_io",
    "save_manifest": "formats.other_io",
    "load_manifest": "formats.other_io",
    "file_sha256": "formats.sha256",
    "scene_hash": "formats.sha256",
}

TRACE = "trace"
GROUPS = sorted({*SPANS.values(), TRACE})
CALIBRATION_CALLS = 20_000
CALIBRATION_REPEATS = 7


def _count_rays(tracer, args, kwargs, result):
    scene = args[0]
    cfg = (args[1] if len(args) > 1 else kwargs.get("cfg")) or VisibilityConfig()
    samples = cfg.samples_per_cell
    mounts = len(scene.lidar_candidates) + len(scene.radar_candidates)
    tracer.counts["visibility.rays"] += mounts * len(scene.roi.cells) * samples


def _count_evaluate(tracer, args, kwargs, result):
    tracer.counts["placement.evaluate_calls"] += 1


def _count_scenario(tracer, args, kwargs, result):
    for stream in (result.ground_truth, result.lidar, result.radar):
        tracer.counts["scenario.boxes"] += sum(len(b) for b in stream.values())


def _count_iou(tracer, args, kwargs, result):
    counts = tracer.counts
    counts["boxes.iou_calls"] += 1
    if result > 0.0:
        counts["boxes.iou_nonzero"] += 1
    if tracer.stack:
        parent = tracer.stack[-1][0]
        if parent == "fusion.fuse":
            counts["fusion.iou_calls"] += 1
        elif parent == "metrics.evaluate":
            counts["metrics.iou_calls"] += 1


def _count_fuse(tracer, args, kwargs, result):
    lidar = args[0] if args else kwargs["lidar_detections"]
    radar = args[1] if len(args) > 1 else kwargs["radar_detections"]
    tracer.counts["fusion.frames"] += 1
    tracer.counts["fusion.merges"] += len(lidar) + len(radar) - len(result)


def _count_save_frames(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.counts["formats.frames_bytes"] += Path(path).stat().st_size


HOOKS = {
    "build_visibility": _count_rays,
    "evaluate_selection": _count_evaluate,
    "generate_scenario": _count_scenario,
    "iou_3d": _count_iou,
    "fuse_late": _count_fuse,
    "save_frames": _count_save_frames,
}


class Tracer:
    """Collects span self times and counters while installed."""

    def __init__(self):
        self.stack: list[list] = []  # [group, child seconds]
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._restore: list[tuple] = []
        self.span_cost = 0.0  # the calibration's own spans run uncorrected
        self.span_cost = self._calibrate()

    def _wrap(self, fn, group: str, hook=None):
        stack = self.stack
        self_time = self.self_time
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [group, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self_time[group] += end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start
            if hook is not None:
                hook(tracer, args, kwargs, result)
            cost = clock() - end + tracer.span_cost
            self_time[TRACE] += cost
            if stack:
                stack[-1][1] += cost
            return result

        return span

    def _calibrate(self) -> float:
        """Median per-span cost that no clock inside the span sees.

        A loop of calls to a wrapped no-op, minus an empty loop, minus
        what the spans recorded (the no-op's own call and the timed
        bookkeeping) leaves the untimed part of each span.
        """
        clock = time.perf_counter
        span = self._wrap(lambda *args: None, "calibrate")
        samples = []
        for _ in range(CALIBRATION_REPEATS):
            self.stack.append(["calibrate.caller", 0.0])
            start = clock()
            for _ in range(CALIBRATION_CALLS):
                span(1, 2)
            traced = clock() - start
            self.stack.pop()
            start = clock()
            for _ in range(CALIBRATION_CALLS):
                pass
            empty = clock() - start
            recorded = self.self_time.pop("calibrate") + self.self_time.pop(TRACE)
            samples.append((traced - empty - recorded) / CALIBRATION_CALLS)
        return max(0.0, statistics.median(samples))

    def install(self) -> None:
        """Wrap every binding of the traced functions in crossview.*."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "crossview" or name.startswith("crossview."))
                   and isinstance(m, types.ModuleType)]
        wrappers: dict[int, object] = {}
        classes_seen: set[int] = set()
        for mod in modules:
            for attr, value in vars(mod).items():
                if (attr in SPANS and isinstance(value, types.FunctionType)
                        and value.__module__.startswith("crossview")):
                    wrappers.setdefault(id(value), self._wrap(value, SPANS[attr], HOOKS.get(attr)))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._rebind(mod, attr, value, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            value[key] = wrappers[id(item)]
                            self._restore.append((value, key, item, "item"))
                elif (isinstance(value, type) and value.__module__.startswith("crossview")
                      and id(value) not in classes_seen):
                    classes_seen.add(id(value))
                    for cattr, cvalue in list(vars(value).items()):
                        if cattr in SPANS and isinstance(cvalue, classmethod):
                            wrapped = classmethod(self._wrap(cvalue.__func__, SPANS[cattr], HOOKS.get(cattr)))
                            self._rebind(value, cattr, cvalue, wrapped)
        missing = set(SPANS) - {f.__name__ for f in self._wrapped_functions()}
        if missing:
            raise RuntimeError(f"traced functions not found in crossview: {sorted(missing)}")

    def _rebind(self, owner, attr, old, new) -> None:
        setattr(owner, attr, new)
        self._restore.append((owner, attr, old, "attr"))

    def _wrapped_functions(self):
        for _, _, old, _ in self._restore:
            yield old.__func__ if isinstance(old, classmethod) else old

    def uninstall(self) -> None:
        for owner, key, old, kind in reversed(self._restore):
            if kind == "item":
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._restore.clear()


def layer_metrics(tracer: Tracer, rounds: int, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-round layer metrics from ``rounds`` traced rounds."""
    t = {g: tracer.self_time.get(g, 0.0) / rounds for g in GROUPS}
    c = {k: v / rounds for k, v in tracer.counts.items()}
    rays = c.get("visibility.rays", 0)
    iou_calls = c.get("boxes.iou_calls", 0)
    out = {
        "cli.self_s": (t["cli"], "s"),
        "visibility.build_s": (t["visibility.build"], "s"),
        "visibility.rays": (rays, "count"),
        "visibility.rays_per_s": (rays / t["visibility.build"] if rays else 0.0, "1/s"),
        "placement.solve_s": (t["placement.solve"], "s"),
        "placement.greedy_s": (t["placement.greedy"], "s"),
        "placement.evaluate_calls": (c.get("placement.evaluate_calls", 0), "count"),
        "placement.evaluate_s": (t["placement.evaluate"], "s"),
        "placement.problem_s": (t["placement.problem"], "s"),
        "coverage.report_s": (t["coverage.report"], "s"),
        "scenario.generate_s": (t["scenario.generate"], "s"),
        "scenario.boxes": (c.get("scenario.boxes", 0), "count"),
        "boxes.iou_s": (t["boxes.iou"], "s"),
        "boxes.iou_nonzero_ratio": (c.get("boxes.iou_nonzero", 0) / iou_calls if iou_calls else 0.0,
                                    "ratio"),
        "fusion.fuse_s": (t["fusion.fuse"], "s"),
        "fusion.frames": (c.get("fusion.frames", 0), "count"),
        "fusion.merges": (c.get("fusion.merges", 0), "count"),
        "fusion.iou_calls": (c.get("fusion.iou_calls", 0), "count"),
        "metrics.evaluate_s": (t["metrics.evaluate"], "s"),
        "metrics.iou_calls": (c.get("metrics.iou_calls", 0), "count"),
        "formats.save_frames_s": (t["formats.save_frames"], "s"),
        "formats.frames_mb": (c.get("formats.frames_bytes", 0) / 1e6, "MB"),
        "formats.load_frames_s": (t["formats.load_frames"], "s"),
        "formats.save_matrix_s": (t["formats.save_matrix"], "s"),
        "formats.load_matrix_s": (t["formats.load_matrix"], "s"),
        "formats.other_io_s": (t["formats.other_io"], "s"),
        "formats.sha256_s": (t["formats.sha256"], "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.bookkeeping_s": (t[TRACE], "s"),
    }
    return out
