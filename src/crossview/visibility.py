"""Ray-cast visibility matrices for candidate mounts over ROI cells.

Each matrix entry is the fraction of a cell's sample lattice that a mount
can detect, so entries live in [0, 1 - epsilon] and behave like detection
probabilities.  A sample point counts as covered only when it passes the
range gate, the horizontal FOV gate, the modality-specific vertical gate,
and an exact segment-vs-box occlusion test.  The occlusion test is culled:
it runs only on samples that passed the gates and no earlier occluder
blocked, and for each occluder only on samples whose mount-to-sample
segment has a bounding box meeting the box.  What it does run is the
exact slab test (Williams et al., JGT 2005), so the culling changes no
result.

``detection_probability`` is the one detection model: the chance that at
least one of a set of mounts detects in a cell, 1 - prod(1 - v), which the
optimizer thresholds and the simulator rolls against.

All functions here are pure over immutable scenes: results are bitwise
identical regardless of evaluation order or worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .scene import LIDAR, RADAR, CandidateMount, Occluder, Scene, SensorSpec

DEFAULT_EPSILON = 1e-6


@dataclass(frozen=True)
class VisibilityConfig:
    """Probe geometry for the per-cell coverage estimate.

    samples_per_cell points are placed on a centered square lattice in the
    cell footprint (9 = a 3x3 lattice; 1 degenerates to the cell center and
    yields binary visibility).  The line-of-sight probe sits at
    ``sample_height_m`` (defaults to half the target height), while the
    lidar beam gate spans the target's full vertical extent.
    """

    samples_per_cell: int = 9
    object_height_m: float = 1.7
    sample_height_m: float | None = None
    epsilon: float = DEFAULT_EPSILON

    def probe_height(self) -> float:
        if self.sample_height_m is not None:
            return self.sample_height_m
        return self.object_height_m / 2.0


@dataclass(frozen=True)
class VisibilityMatrix:
    """Dense candidates x ROI-cells matrix of detection probabilities.

    Rows follow scene candidate order, columns follow ROI cells in index
    order, and every entry is clamped to at most 1 - epsilon so the log
    transform stays finite.
    """

    modality: str
    values: np.ndarray
    epsilon: float = DEFAULT_EPSILON

    @property
    def n_candidates(self) -> int:
        return self.values.shape[0]

    @property
    def n_cells(self) -> int:
        return self.values.shape[1]


def beam_elevations(spec: SensorSpec) -> np.ndarray:
    """Vertical beam angles (deg) relative to the mount's pitched horizontal.

    Beams are spaced uniformly over [-vfov/2, +vfov/2] including both
    endpoints, so the adjacent gap is vfov / (beams - 1).
    """
    if spec.modality != LIDAR:
        raise ValueError("beam elevations are defined for lidar specs only")
    if spec.beams is None or spec.beams < 2:
        raise ValueError("lidar spec requires beams >= 2")
    half = spec.vfov_deg / 2.0
    return np.linspace(-half, half, spec.beams)


def _lattice_fractions(k: int) -> tuple[np.ndarray, np.ndarray]:
    """First k points of the smallest centered m x m lattice, row-major."""
    if k < 1:
        raise ValueError("samples_per_cell must be >= 1")
    m = math.isqrt(k)
    if m * m < k:
        m += 1
    idx = np.arange(k)
    fx = ((idx % m) + 0.5) / m
    fy = ((idx // m) + 0.5) / m
    return fx, fy


def _wrap_deg(angles: np.ndarray) -> np.ndarray:
    return (angles + 180.0) % 360.0 - 180.0


def _segment_hits_box(
    origin: tuple[float, float, float],
    px: np.ndarray,
    py: np.ndarray,
    pz: np.ndarray,
    box: Occluder,
) -> np.ndarray:
    """Exact slab test: does the segment origin->p cross the box?"""
    tmin = np.zeros(px.shape)
    tmax = np.ones(px.shape)
    for o, p, lo, hi in (
        (origin[0], px, box.min_corner[0], box.max_corner[0]),
        (origin[1], py, box.min_corner[1], box.max_corner[1]),
        (origin[2], pz, box.min_corner[2], box.max_corner[2]),
    ):
        d = p - o
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (lo - o) / d
            t2 = (hi - o) / d
        near = np.minimum(t1, t2)
        far = np.maximum(t1, t2)
        parallel = d == 0.0
        inside = (o >= lo) & (o <= hi)
        near = np.where(parallel, np.where(inside, -np.inf, np.inf), near)
        far = np.where(parallel, np.where(inside, np.inf, -np.inf), far)
        tmin = np.maximum(tmin, near)
        tmax = np.minimum(tmax, far)
    return tmin <= tmax


def _unoccluded(
    origin: tuple[float, float, float],
    sx: np.ndarray,
    sy: np.ndarray,
    pz: float,
    covered: np.ndarray,
    occluders: Sequence[Occluder],
) -> np.ndarray:
    """``covered`` minus the samples whose line of sight an occluder cuts.

    Only samples still covered and still clear are slab-tested, and each
    occluder only on the samples whose segment's bounding box meets it.
    That reject grows the box by a relative 1e-9 of the coordinates
    involved, far above the slab test's rounding, so it only ever skips
    segments the exact test would also clear.
    """
    mx, my, mz = origin
    live = np.flatnonzero(covered)
    px, py = sx.ravel()[live], sy.ravel()[live]
    x_lo, x_hi = np.minimum(px, mx), np.maximum(px, mx)
    y_lo, y_hi = np.minimum(py, my), np.maximum(py, my)
    z_lo, z_hi = min(pz, mz), max(pz, mz)
    x_far = abs(mx) + float(np.abs(px).max(initial=0.0))
    y_far = abs(my) + float(np.abs(py).max(initial=0.0))
    z_far = abs(mz) + abs(pz)
    clear = np.ones(live.size, dtype=bool)
    near = np.empty(live.size, dtype=bool)
    for box in occluders:
        (x0, y0, z0), (x1, y1, z1) = box.min_corner, box.max_corner
        z_tol = 1e-9 * (abs(z0) + abs(z1) + z_far)
        if z_lo > z1 + z_tol or z_hi < z0 - z_tol:
            continue
        x_tol = 1e-9 * (abs(x0) + abs(x1) + x_far)
        y_tol = 1e-9 * (abs(y0) + abs(y1) + y_far)
        np.less_equal(x_lo, x1 + x_tol, out=near)
        near &= x_hi >= x0 - x_tol
        near &= y_lo <= y1 + y_tol
        near &= y_hi >= y0 - y_tol
        near &= clear
        idx = np.flatnonzero(near)
        if idx.size:
            hit = _segment_hits_box(origin, px[idx], py[idx], np.full(idx.size, pz), box)
            clear[idx[hit]] = False
    out = np.zeros(covered.size, dtype=bool)
    out[live[clear]] = True
    return out.reshape(covered.shape)


def _mount_row(
    scene: Scene,
    mount: CandidateMount,
    cells: Sequence[int],
    cfg: VisibilityConfig,
) -> np.ndarray:
    """Visibility of one mount over the given grid cells (vectorized)."""
    spec = mount.spec
    grid = scene.grid
    cell_idx = np.asarray(cells, dtype=np.int64)
    rows = cell_idx // grid.nx
    cols = cell_idx % grid.nx

    fx, fy = _lattice_fractions(cfg.samples_per_cell)
    k = fx.shape[0]
    sx = grid.origin_xy[0] + (cols[:, None] + fx[None, :]) * grid.cell_size
    sy = grid.origin_xy[1] + (rows[:, None] + fy[None, :]) * grid.cell_size

    mx, my, mz = mount.position
    dx = sx - mx
    dy = sy - my
    horiz = np.hypot(dx, dy)

    covered = horiz <= spec.max_range_m

    azimuth = np.degrees(np.arctan2(dy, dx))
    covered &= np.abs(_wrap_deg(azimuth - mount.yaw_deg)) <= spec.hfov_deg / 2.0

    if spec.modality == RADAR:
        elev = np.degrees(np.arctan2(cfg.probe_height() - mz, horiz))
        covered &= np.abs(elev + mount.pitch_deg) <= spec.vfov_deg / 2.0
    else:
        # A cell sample passes the lidar gate when some beam elevation falls
        # inside the angular span its vertical extent subtends at the mount.
        beams = beam_elevations(spec)
        e_ground = np.degrees(np.arctan2(-mz, horiz))
        e_top = np.degrees(np.arctan2(cfg.object_height_m - mz, horiz))
        lo = np.minimum(e_ground, e_top) + mount.pitch_deg
        hi = np.maximum(e_ground, e_top) + mount.pitch_deg
        first = np.searchsorted(beams, lo)
        beam_at = beams[np.minimum(first, beams.shape[0] - 1)]
        covered &= (first < beams.shape[0]) & (beam_at <= hi)

    if scene.occluders and covered.any():
        covered = _unoccluded(mount.position, sx, sy, cfg.probe_height(), covered,
                              scene.occluders)

    fraction = covered.sum(axis=1) / float(k)
    return np.minimum(fraction, 1.0 - cfg.epsilon)


def cell_visibility(
    scene: Scene,
    mount: CandidateMount,
    j: int,
    cfg: VisibilityConfig | None = None,
) -> float:
    """Fraction of cell j's sample lattice detectable from the mount."""
    cfg = cfg or VisibilityConfig()
    if not 0 <= j < scene.grid.n_cells:
        raise IndexError(f"cell index {j} outside grid with {scene.grid.n_cells} cells")
    return float(_mount_row(scene, mount, [j], cfg)[0])


def _stack_rows(
    scene: Scene,
    mounts: Sequence[CandidateMount],
    cells: Sequence[int],
    cfg: VisibilityConfig,
    workers: int,
) -> np.ndarray:
    out = np.zeros((len(mounts), len(cells)))
    if workers > 1 and len(mounts) > 1:
        # Rows are independent; map preserves order, so any worker count
        # produces identical bits.
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = pool.map(lambda m: _mount_row(scene, m, cells, cfg), mounts)
            for i, row in enumerate(rows):
                out[i] = row
    else:
        for i, mount in enumerate(mounts):
            out[i] = _mount_row(scene, mount, cells, cfg)
    return out


def build_visibility(
    scene: Scene,
    cfg: VisibilityConfig | None = None,
    workers: int = 1,
) -> tuple[VisibilityMatrix, VisibilityMatrix]:
    """Compute the lidar and radar visibility matrices for a scene."""
    cfg = cfg or VisibilityConfig()
    cells = scene.roi.sorted_cells()
    lidar = _stack_rows(scene, scene.lidar_candidates, cells, cfg, workers)
    radar = _stack_rows(scene, scene.radar_candidates, cells, cfg, workers)
    return (
        VisibilityMatrix(LIDAR, lidar, cfg.epsilon),
        VisibilityMatrix(RADAR, radar, cfg.epsilon),
    )


def log_visibility(matrix: VisibilityMatrix) -> np.ndarray:
    """Entrywise -ln(1 - v); finite because entries are clamped below 1.

    An exact 1 signals a corrupted matrix (the clamp was bypassed) and is
    rejected rather than silently producing infinities.
    """
    values = matrix.values
    if values.size and values.max() >= 1.0:
        raise ValueError("visibility entry >= 1 encountered; matrix is corrupted")
    if values.size and values.min() < 0.0:
        raise ValueError("negative visibility entry encountered")
    return -np.log1p(-values)


def detection_probability(matrix: VisibilityMatrix, ids: Iterable[int]) -> np.ndarray:
    """Per-cell probability that at least one of the rows ``ids`` detects.

    This is the one detection model.  Mounts miss independently, so
    p = 1 - prod(1 - v_i), computed as -expm1(-S) over the log sum
    S = sum_i -ln(1 - v_i) of ``log_visibility``: the sum the optimizer
    thresholds at tau, so S >= tau when p >= 1 - e^-tau, up to rounding at
    the boundary.
    """
    rows = sorted(ids)
    for i in rows:
        if not 0 <= i < matrix.n_candidates:
            raise IndexError(f"candidate index {i} out of range for {matrix.modality}")
    return -np.expm1(-log_visibility(matrix)[rows].sum(axis=0))
