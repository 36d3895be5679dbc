"""Seeded inputs for the benchmark workloads.

Every input comes from ``numpy.random.default_rng`` streams keyed by the
seed and a per-input salt, so one seed fixes the inputs byte for byte.
A scene's geometry (occluders, mount positions and heights) comes from
``[salt, k]`` alone and is the same for every seed; the seed moves the
cell weights and, through the scenario seed, the traffic.  Seeded
geometry made the work swing with the seed: branch-and-bound searched
10-40 % more or fewer nodes from scene to scene, and occlusion moved the
detection rates and so the box pairs that fusion and matching compare.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from crossview import (
    CandidateMount,
    GridSpec,
    Occluder,
    RegionOfInterest,
    Scene,
    SensorSpec,
)

# Two lidar resolutions at different prices, and a cheaper radar.
LIDAR_32 = SensorSpec("lidar", hfov_deg=360.0, vfov_deg=30.0, max_range_m=70.0,
                      rate_hz=10.0, unit_cost=100.0, beams=32)
LIDAR_128 = SensorSpec("lidar", hfov_deg=360.0, vfov_deg=30.0, max_range_m=110.0,
                       rate_hz=10.0, unit_cost=300.0, beams=128)
RADAR_4D = SensorSpec("radar", hfov_deg=120.0, vfov_deg=30.0, max_range_m=100.0,
                      rate_hz=20.0, unit_cost=40.0)


def _perimeter_point(t: float, side: float, inset: float) -> tuple[float, float]:
    """Point at fraction t in [0, 1) along a square ring inset from the edge."""
    length = side - 2.0 * inset
    d = (t % 1.0) * 4.0 * length
    edge, along = int(d // length), d % length
    if edge == 0:
        return inset + along, inset
    if edge == 1:
        return side - inset, inset + along
    if edge == 2:
        return side - inset - along, side - inset
    return inset, side - inset - along


def make_scene(rng: np.random.Generator, weights_rng: np.random.Generator, n: int,
               cell: float, n_occluders: int, n_poles: int, both_resolutions: bool,
               n_radar: int) -> Scene:
    """An n x n grid with occluders and mounts on a ring around the ROI.

    ``rng`` places the occluders and mounts; ``weights_rng`` draws the
    cell weights.

    Lidar poles are spread evenly around the ring.  With
    ``both_resolutions`` every pole offers a 32-beam and a 128-beam
    candidate at the same spot; otherwise poles alternate between them.
    Radars sit between the lidar poles and point at the middle of the grid.
    """
    side = n * cell
    grid = GridSpec(origin_xy=(0.0, 0.0), cell_size=cell, nx=n, ny=n)
    weights = {j: round(float(w), 4) for j, w in enumerate(weights_rng.uniform(0.5, 2.0, n * n))}
    roi = RegionOfInterest(cells=frozenset(range(n * n)), weights=weights)

    occluders = []
    for _ in range(n_occluders):
        cx, cy = rng.uniform(0.2 * side, 0.8 * side, 2)
        hx, hy = rng.uniform(1.5, 4.0, 2)
        height = float(rng.uniform(2.5, 6.0))
        occluders.append(Occluder((float(cx - hx), float(cy - hy), 0.0),
                                  (float(cx + hx), float(cy + hy), height)))

    offset = float(rng.uniform(0.0, 1.0))
    lidar = []
    for p in range(n_poles):
        t = offset + (p + float(rng.uniform(-0.15, 0.15))) / n_poles
        x, y = _perimeter_point(t, side, 2.0)
        z = float(rng.uniform(5.0, 7.0))
        if both_resolutions:
            specs = (("a", LIDAR_32), ("b", LIDAR_128))
        else:
            specs = (("", (LIDAR_32, LIDAR_128)[p % 2]),)
        for suffix, spec in specs:
            lidar.append(CandidateMount(f"L{p:02d}{suffix}", (x, y, z), spec,
                                        yaw_deg=0.0, pitch_deg=8.0))

    radar = []
    for r in range(n_radar):
        t = offset + (r + 0.5 + float(rng.uniform(-0.15, 0.15))) / n_radar
        x, y = _perimeter_point(t, side, 2.0)
        yaw = float(np.degrees(np.arctan2(side / 2.0 - y, side / 2.0 - x)))
        yaw += float(rng.uniform(-15.0, 15.0))
        radar.append(CandidateMount(f"R{r:02d}", (x, y, float(rng.uniform(4.0, 6.0))),
                                    RADAR_4D, yaw_deg=yaw, pitch_deg=8.0))

    return Scene(grid=grid, roi=roi, occluders=tuple(occluders),
                 lidar_candidates=tuple(lidar), radar_candidates=tuple(radar))


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
