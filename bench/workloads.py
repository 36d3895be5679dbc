"""The benchmark workloads: rescore and plan.

A workload writes its inputs once per set-up, then runs rounds.  A round
is a fixed list of operations, and an operation is one or more in-process
``crossview`` command lines run back to back, the way a user would chain
them.  Every operation writes under ``out/`` and reads only ``in/`` and
what earlier commands of the same operation wrote, so rounds repeat
exactly and their data artifacts must be byte-identical.

Sizes are fixed per workload; ``toy=True`` shrinks them for the
benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import scenes
from crossview import (
    NoiseSpec,
    ScenarioConfig,
    Selection,
    build_visibility,
    generate_scenario,
    save_frames,
    save_scene,
)

# Traffic: frames 60 s apart, so every agent (2 m/s or faster) has left
# the grid by the next frame and is seen in exactly one frame.  The box
# count of a round is then a plain Poisson count of spawns.  With 2 s
# frames, slow agents that lived for many frames made the box count, and
# the same-class pair count even more, swing with the seed (quartile
# distances of 8 % and 10 % of the median over ten seeds, against 3 % and
# 6 % now).
TRAFFIC = {
    "frame_dt_s": 60.0,
    "class_mix": {"car": 10.0, "truck": 2.0, "motorcycle": 2.0, "bus": 1.0,
                  "pedestrian": 1.4, "golf_cart": 1.4},
    "speed_ranges": {"car": [5.0, 15.0], "truck": [4.0, 12.0], "motorcycle": [5.0, 18.0],
                     "bus": [4.0, 10.0], "pedestrian": [2.0, 3.0], "golf_cart": [4.0, 8.0]},
    "lidar_noise": {"position_sigma": 0.15, "size_sigma": 0.05, "yaw_sigma": 0.03},
    "radar_noise": {"position_sigma": 0.4, "size_sigma": 0.15, "yaw_sigma": 0.08,
                    "velocity_sigma": 0.2},
}


@dataclass(frozen=True)
class _Prefix:
    """Flat output names ``<out>/<stem>.<name>``, so no command needs a new directory."""

    out: Path
    stem: str

    def __truediv__(self, name: str) -> str:
        return str(self.out / f"{self.stem}.{name}")


@dataclass(frozen=True)
class Op:
    """One operation: command lines run in order; all must exit 0."""

    label: str
    commands: tuple[tuple[str, ...], ...]


class Workload:
    name = ""
    frames_per_round = 0

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, inputs: Path) -> None:
        raise NotImplementedError

    def ops(self, inputs: Path, out: Path) -> list[Op]:
        raise NotImplementedError

    def check(self, inputs: Path, out: Path) -> list[str]:
        """Independent checks of one round's outputs; returns problems found."""
        raise NotImplementedError


class Rescore(Workload):
    """Swap the fusion setting and score again, over stored detections.

    Set-up simulates three deployments' truth, lidar and radar frames.
    Each operation is ``crossview fuse`` then ``crossview evaluate`` on one
    deployment; the round covers three fusion thresholds in both matching
    modes for each.  Three short deployments rather than one long one
    average out how the seed moves the traffic.
    """

    name = "rescore"
    THRESHOLDS = (0.1, 0.3, 0.5)
    MODES = ("iou", "center_distance")

    def __init__(self, seed: int, toy: bool = False):
        super().__init__(seed)
        self.grid, self.occluders = (10, 2) if toy else (40, 10)
        self.deployments = 2 if toy else 3
        self.frames = 12 if toy else 50
        self.frames_per_round = (self.deployments * self.frames
                                 * len(self.THRESHOLDS) * len(self.MODES))

    def setup(self, inputs: Path) -> None:
        for k in range(self.deployments):
            scene = scenes.make_scene(np.random.default_rng([21, k]),
                                      np.random.default_rng([self.seed, 21, k]),
                                      self.grid, 2.0, self.occluders, 4, True, 8)
            lidar, radar = build_visibility(scene)
            # A fixed layout: every 128-beam lidar and every other radar.
            selection = Selection.of(range(1, scene.n_lidar, 2), range(0, scene.n_radar, 2))
            config = ScenarioConfig(
                seed=self.seed * 16 + k,
                duration_frames=self.frames,
                frame_dt_s=TRAFFIC["frame_dt_s"],
                class_mix=dict(TRAFFIC["class_mix"]),
                speed_ranges={c: tuple(v) for c, v in TRAFFIC["speed_ranges"].items()},
                lidar_noise=NoiseSpec(**TRAFFIC["lidar_noise"]),
                radar_noise=NoiseSpec(**TRAFFIC["radar_noise"]),
            )
            frames = generate_scenario(scene, lidar, radar, selection, config)
            save_frames(inputs / f"d{k}.truth.frames", frames.ground_truth)
            save_frames(inputs / f"d{k}.lidar.frames", frames.lidar)
            save_frames(inputs / f"d{k}.radar.frames", frames.radar)

    def _runs(self):
        for k in range(self.deployments):
            for threshold in self.THRESHOLDS:
                for mode in self.MODES:
                    yield k, f"d{k}-t{threshold:g}-{mode}", threshold, mode

    def ops(self, inputs: Path, out: Path) -> list[Op]:
        ops = []
        for k, stem, threshold, mode in self._runs():
            fuse = ("fuse", "--lidar", str(inputs / f"d{k}.lidar.frames"),
                    "--radar", str(inputs / f"d{k}.radar.frames"),
                    "--iou-threshold", f"{threshold:g}", "--out", str(out / f"{stem}.fused.frames"))
            evaluate = ("evaluate", "--truth", str(inputs / f"d{k}.truth.frames"),
                        "--predictions", str(out / f"{stem}.fused.frames"), "--mode", mode,
                        "--out", str(out / f"{stem}.evaluation"))
            ops.append(Op(stem, (fuse, evaluate)))
        return ops

    def check(self, inputs: Path, out: Path) -> list[str]:
        problems = []
        for k, stem, _, mode in self._runs():
            fused = out / f"{stem}.fused.frames"
            problems += checks.fused_frames(inputs / f"d{k}.lidar.frames",
                                            inputs / f"d{k}.radar.frames", fused)
            problems += checks.evaluation(inputs / f"d{k}.truth.frames", fused,
                                          out / f"{stem}.evaluation", mode, self.seed + k)
        return problems


class Plan(Workload):
    """The placement tool: visibility, then budgets, coverage and compare.

    Each operation plans one 50x50-cell scene with 20 occluders, 11 lidar
    poles (alternating 32 and 128 beams) and 11 radars: ray-cast, optimize
    and report coverage at two count budgets and two cost budgets,
    compare reports of the same budget mode (mixed modes give a meaningless
    cost reduction), and score each count-budget layout on the same short
    traffic clip, whose ground truth must not depend on the layout; the
    clips give ``frames_per_s`` a value here too.  A round plans three
    scenes.  Branch-and-bound search size moved with seeded scene
    geometry: at count budgets 3 and 4 by about 10 % from scene to scene,
    at cost budgets of 300 and more by 30-40 %.  So the count budgets
    carry the search, and the cost budgets (140 and 200) stay small.
    """

    name = "plan"
    COUNT_BUDGETS = (3, 4)
    COST_BUDGETS = (140.0, 200.0)

    def __init__(self, seed: int, toy: bool = False):
        super().__init__(seed)
        self.grid, self.occluders = (12, 3) if toy else (50, 20)
        self.poles = 4 if toy else 11
        self.scenes = 2 if toy else 3
        self.clip_frames = 4 if toy else 8
        self.frames_per_round = self.clip_frames * self.scenes * len(self.COUNT_BUDGETS)

    def _clip_layouts(self):
        return [f"count{b}" for b in self.COUNT_BUDGETS]

    def _budgets(self):
        for b in self.COUNT_BUDGETS:
            yield f"count{b}", "count", float(b)
        for b in self.COST_BUDGETS:
            yield f"cost{b:g}", "cost", b

    def setup(self, inputs: Path) -> None:
        for k in range(self.scenes):
            scene = scenes.make_scene(np.random.default_rng([31, k]),
                                      np.random.default_rng([self.seed, 31, k]),
                                      self.grid, 2.0, self.occluders, self.poles, False,
                                      self.poles)
            save_scene(inputs / f"plan{k}.scene", scene)
            clip = {"seed": self.seed * 16 + k, "duration_frames": self.clip_frames, **TRAFFIC}
            scenes.write_json(inputs / f"clip{k}.json", clip)

    def ops(self, inputs: Path, out: Path) -> list[Op]:
        ops = []
        for k in range(self.scenes):
            d = _Prefix(out, f"plan{k}")
            lidar, radar = d / "lidar.vismatrix", d / "radar.vismatrix"
            cmds = [("visibility", "--scene", str(inputs / f"plan{k}.scene"),
                     "--out-lidar", lidar, "--out-radar", radar, "--workers", "1")]
            for name, mode, budget in self._budgets():
                cmds.append(("optimize", "--lidar", lidar, "--radar", radar,
                             "--budget", f"{budget:g}", "--budget-mode", mode,
                             "--out", d / f"{name}.solution"))
                cmds.append(("coverage", "--lidar", lidar, "--radar", radar,
                             "--solution", d / f"{name}.solution", "--name", name,
                             "--out", d / f"{name}.coverage"))
            for mode in ("count", "cost"):
                reports = [d / f"{name}.coverage" for name, m, _ in self._budgets() if m == mode]
                cmds.append(("compare", *reports, "--out", d / f"{mode}.comparison"))
            for name in self._clip_layouts():
                clip = _Prefix(out, f"plan{k}.{name}.clip")
                cmds.append(("simulate", "--scene", str(inputs / f"plan{k}.scene"),
                             "--lidar", lidar, "--radar", radar,
                             "--solution", d / f"{name}.solution",
                             "--config", str(inputs / f"clip{k}.json"),
                             "--out-truth", clip / "truth.frames",
                             "--out-lidar", clip / "lidar.frames",
                             "--out-radar", clip / "radar.frames"))
                cmds.append(("fuse", "--lidar", clip / "lidar.frames",
                             "--radar", clip / "radar.frames",
                             "--out", clip / "fused.frames"))
                cmds.append(("evaluate", "--truth", clip / "truth.frames",
                             "--predictions", clip / "fused.frames",
                             "--out", clip / "evaluation"))
            ops.append(Op(f"plan{k}", tuple(cmds)))
        return ops

    def check(self, inputs: Path, out: Path) -> list[str]:
        problems = []
        for k in range(self.scenes):
            d = _Prefix(out, f"plan{k}")
            lidar = checks.read_matrix(d / "lidar.vismatrix")
            radar = checks.read_matrix(d / "radar.vismatrix")
            problems += checks.visibility_samples(inputs / f"plan{k}.scene", lidar, radar,
                                                  samples_per_cell=9, seed=self.seed + k)
            for name, mode, budget in self._budgets():
                problems += checks.placement(d / f"{name}.solution", lidar, radar, mode, budget)
                problems += checks.coverage(d / f"{name}.coverage", d / f"{name}.solution",
                                            lidar, radar)
            for mode in ("count", "cost"):
                names = [name for name, m, _ in self._budgets() if m == mode]
                problems += checks.comparison(d / f"{mode}.comparison",
                                              [d / f"{name}.coverage" for name in names])
            truths = []  # the frames, not the bytes: each file names its own manifest
            for name in self._clip_layouts():
                clip = _Prefix(out, f"plan{k}.{name}.clip")
                truths.append(checks.read_frames(clip / "truth.frames"))
                problems += checks.fused_frames(clip / "lidar.frames", clip / "radar.frames",
                                                clip / "fused.frames")
                problems += checks.evaluation(clip / "truth.frames", clip / "fused.frames",
                                              clip / "evaluation", "iou", self.seed + k)
            if any(truth != truths[0] for truth in truths):
                problems.append(f"plan{k}: clip ground truth differs between layouts")
        return problems


WORKLOADS = {w.name: w for w in (Rescore, Plan)}
