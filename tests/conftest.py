"""Shared builders for scenes, problems, and detection boxes."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from crossview import (
    CLASSES,
    CandidateMount,
    DetectionBox,
    GridSpec,
    Occluder,
    PlacementProblem,
    RegionOfInterest,
    Scene,
    SensorSpec,
    VisibilityMatrix,
)

WIDE_LIDAR = SensorSpec("lidar", hfov_deg=360.0, vfov_deg=170.0, max_range_m=90.0,
                        rate_hz=20.0, unit_cost=100.0, beams=256)
WIDE_RADAR = SensorSpec("radar", hfov_deg=360.0, vfov_deg=120.0, max_range_m=90.0,
                        rate_hz=20.0, unit_cost=20.0)


def make_document(magic: str, payload: dict, version: int = 2) -> str:
    """Hand-rolled writer so tests can craft arbitrary documents."""
    body = json.dumps({"payload": payload}, sort_keys=True, indent=2) + "\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
    return f"{magic} {version} {digest}\n{body}"


def rehash(text: str) -> str:
    """``text`` with its header digest recomputed over its edited body."""
    head, body = text.split("\n", 1)
    magic, version = head.split()[:2]
    return f"{magic} {version} {hashlib.sha256(body.encode()).hexdigest()}\n{body}"


def square_scene(
    nx: int = 10,
    ny: int = 10,
    cell_size: float = 2.0,
    lidar_mounts=(((1.0, 1.0, 6.0), 0.0, 0.0), ((19.0, 19.0, 6.0), 0.0, 0.0)),
    radar_mounts=(((1.0, 19.0, 4.0), 0.0, 30.0), ((19.0, 1.0, 4.0), 0.0, 30.0)),
    occluders=(),
    lidar_spec: SensorSpec = WIDE_LIDAR,
    radar_spec: SensorSpec = WIDE_RADAR,
    weights: dict[int, float] | None = None,
) -> Scene:
    """A fully observable square scene; wide sensors see every cell."""
    grid = GridSpec(origin_xy=(0.0, 0.0), cell_size=cell_size, nx=nx, ny=ny)
    roi = RegionOfInterest(cells=frozenset(range(nx * ny)), weights=weights or {})
    lidar = tuple(
        CandidateMount(f"L{k}", pos, lidar_spec, yaw_deg=yaw, pitch_deg=pitch)
        for k, (pos, yaw, pitch) in enumerate(lidar_mounts)
    )
    radar = tuple(
        CandidateMount(f"R{k}", pos, radar_spec, yaw_deg=yaw, pitch_deg=pitch)
        for k, (pos, yaw, pitch) in enumerate(radar_mounts)
    )
    return Scene(
        grid=grid,
        roi=roi,
        occluders=tuple(Occluder(lo, hi) for lo, hi in occluders),
        lidar_candidates=lidar,
        radar_candidates=radar,
    )


def random_problem(
    rng: np.random.Generator,
    max_lidar: int = 6,
    max_radar: int = 6,
    max_cells: int = 40,
    max_budget: int = 5,
    budget_mode: str = "count",
) -> PlacementProblem:
    """A random dense instance for solver agreement checks."""
    n_l = int(rng.integers(1, max_lidar + 1))
    n_r = int(rng.integers(1, max_radar + 1))
    n_c = int(rng.integers(3, max_cells + 1))
    sparsity = rng.random(2) * 0.5 + 0.4
    lidar = rng.uniform(0.0, 0.95, (n_l, n_c)) * (rng.random((n_l, n_c)) < sparsity[0])
    radar = rng.uniform(0.0, 0.95, (n_r, n_c)) * (rng.random((n_r, n_c)) < sparsity[1])
    weights = rng.uniform(0.5, 2.0, n_c)
    budget = int(rng.integers(1, max_budget + 1))
    kwargs = {}
    if budget_mode == "cost":
        kwargs["lidar_costs"] = rng.uniform(0.5, 3.0, n_l)
        kwargs["radar_costs"] = rng.uniform(0.5, 3.0, n_r)
        budget = float(rng.uniform(1.0, 6.0))
    return PlacementProblem.from_matrices(
        VisibilityMatrix("lidar", lidar),
        VisibilityMatrix("radar", radar),
        weights,
        budget=budget,
        seen_threshold=1.0,
        budget_mode=budget_mode,
        **kwargs,
    )


def random_box(
    rng: np.random.Generator,
    class_label: str | None = None,
    source: str = "lidar",
    center=None,
    spread: float = 20.0,
) -> DetectionBox:
    if class_label is None:
        class_label = CLASSES[int(rng.integers(len(CLASSES)))]
    if center is None:
        center = (
            float(rng.uniform(-spread, spread)),
            float(rng.uniform(-spread, spread)),
            float(rng.uniform(0.5, 2.0)),
        )
    return DetectionBox(
        center=center,
        size=(
            float(rng.uniform(0.5, 6.0)),
            float(rng.uniform(0.5, 3.0)),
            float(rng.uniform(0.5, 3.0)),
        ),
        yaw=float(rng.uniform(-math.pi, math.pi)),
        class_label=class_label,
        score=float(rng.uniform(0.05, 1.0)),
        source=source,
        velocity=(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
        if source == "radar"
        else None,
    )


def shifted_copy(box: DetectionBox, dx: float = 0.0, dy: float = 0.0,
                 source: str | None = None, score: float | None = None) -> DetectionBox:
    return DetectionBox(
        center=(box.center[0] + dx, box.center[1] + dy, box.center[2]),
        size=box.size,
        yaw=box.yaw,
        class_label=box.class_label,
        score=box.score if score is None else score,
        source=box.source if source is None else source,
        velocity=box.velocity,
    )
