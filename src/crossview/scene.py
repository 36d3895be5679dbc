"""World model for placement planning.

A scene is a flat ground-plane grid, a weighted region of interest over
that grid, a set of axis-aligned occluder boxes, and candidate sensor
mounts for two modalities (lidar and radar).  Scenes are frozen after
construction and safe to share across workers; all consistency checking
lives in :func:`validate_scene`, which reports violations as data instead
of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, is_dataclass
from numbers import Real

LIDAR = "lidar"
RADAR = "radar"
MODALITIES = (LIDAR, RADAR)

# The largest counts a scene file (grid side, lidar channels) or a --config
# (probe points per cell, frames) may declare: they size arrays or a loop, so
# a value past them is refused before any work starts.
MAX_GRID_SIDE = 100_000
MAX_BEAMS = 4_096
MAX_SAMPLES_PER_CELL = 10_000
MAX_DURATION_FRAMES = 1_000_000
# The smallest visibility epsilon: entries are clamped to 1 - epsilon, and
# matrix rows print 9 significant digits, where 1 - 4e-10 prints as 1 (which
# the loader refuses) while 1 - 5e-10 still prints below 1.
MIN_EPSILON = 5e-10


@dataclass(frozen=True)
class GridSpec:
    """Uniform ground grid; cell j maps to (row, col) = (j // nx, j % nx)."""

    origin_xy: tuple[float, float]
    cell_size: float
    nx: int
    ny: int

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny


@dataclass(frozen=True)
class RegionOfInterest:
    """Monitored grid cells with nonnegative importance weights.

    Cells without an explicit weight default to 1.0.
    """

    cells: frozenset[int]
    weights: dict[int, float] = field(default_factory=dict)

    def weight_of(self, cell: int) -> float:
        return self.weights.get(cell, 1.0)

    def sorted_cells(self) -> list[int]:
        """ROI cells in index order; defines visibility-matrix column order."""
        return sorted(self.cells)


@dataclass(frozen=True)
class Occluder:
    """Axis-aligned box that blocks line of sight."""

    min_corner: tuple[float, float, float]
    max_corner: tuple[float, float, float]


@dataclass(frozen=True)
class SensorSpec:
    """Per-modality beam/FOV/range description plus unit cost.

    ``beams`` is the vertical channel count and applies to lidar only;
    radar specs leave it as None.
    """

    modality: str
    hfov_deg: float
    vfov_deg: float
    max_range_m: float
    rate_hz: float
    unit_cost: float = 0.0
    beams: int | None = None


@dataclass(frozen=True)
class CandidateMount:
    """A possible sensor pose: position, azimuth, downward tilt, spec."""

    id: str
    position: tuple[float, float, float]
    spec: SensorSpec
    yaw_deg: float = 0.0
    pitch_deg: float = 0.0  # positive tilts the boresight toward the ground


@dataclass(frozen=True)
class Scene:
    grid: GridSpec
    roi: RegionOfInterest
    occluders: tuple[Occluder, ...] = ()
    lidar_candidates: tuple[CandidateMount, ...] = ()
    radar_candidates: tuple[CandidateMount, ...] = ()

    @property
    def n_lidar(self) -> int:
        return len(self.lidar_candidates)

    @property
    def n_radar(self) -> int:
        return len(self.radar_candidates)


# A scene part's fields that hold a fixed number of numbers, and those that hold
# collections of numbers or parts; every other field holds one value.
_VECTORS = {"origin_xy": 2, "position": 3, "min_corner": 3, "max_corner": 3}
_COLLECTIONS = ("occluders", "lidar_candidates", "radar_candidates", "cells", "weights")


def _check_values(value, where: str, out: list[str]) -> bool:
    """Report by its key path every NaN or inf in ``value`` (comparisons let NaN by),
    every non-number where a number belongs, every vector with the wrong number of
    components, and every non-string id or modality; True if it found one of the
    latter, on which the comparisons would raise or index past the end."""
    part = is_dataclass(value)
    if part:
        value = vars(value)
    elif isinstance(value, (tuple, list)):
        value = dict(enumerate(value))
    elif isinstance(value, frozenset):  # ROI cells, keyed by themselves; an int is fine
        value = {j: j for j in value if type(j) is not int}
    wrong = False
    for key, item in value.items():
        if key in ("id", "modality"):
            kind, expected = str, "a string"
        elif part and key in _VECTORS:
            if isinstance(item, (tuple, list)) and len(item) == _VECTORS[key]:
                wrong |= _check_values(item, f"{where}{key}.", out)
            else:
                out.append(f"{where}{key}: expected {_VECTORS[key]} numbers, got {item!r}")
                wrong = True
            continue
        elif isinstance(item, (int, float)):
            if isinstance(item, float) and not math.isfinite(item):
                out.append(f"{where}{key}: expected a finite number, got {item!r}")
            continue
        elif is_dataclass(item) or (key in _COLLECTIONS and part
                                    and isinstance(item, (tuple, list, dict, frozenset))):
            wrong |= _check_values(item, f"{where}{key}.", out)
            continue
        else:  # a lidar's beams may be None
            kind, expected = (Real, type(None)) if key == "beams" else Real, "a number"
        if not isinstance(item, kind):
            out.append(f"{where}{key}: expected {expected}, got {item!r}")
            wrong = True
    return wrong


def _check_spec(spec: SensorSpec, owner: str, out: list[str]) -> None:
    if spec.modality not in MODALITIES:
        out.append(f"{owner}: unknown modality '{spec.modality}'")
        return
    if spec.modality == LIDAR:
        if spec.beams is None or spec.beams < 2:
            out.append(f"{owner}: lidar spec requires beams >= 2")
    elif spec.beams is not None:
        out.append(f"{owner}: radar spec must not set beams")
    if not 0.0 < spec.hfov_deg <= 360.0:
        out.append(f"{owner}: hfov_deg {spec.hfov_deg} outside (0, 360]")
    if not 0.0 < spec.vfov_deg < 180.0:
        out.append(f"{owner}: vfov_deg {spec.vfov_deg} outside (0, 180)")
    if spec.max_range_m <= 0.0:
        out.append(f"{owner}: max_range_m must be > 0")
    if spec.rate_hz <= 0.0:
        out.append(f"{owner}: rate_hz must be > 0")
    if spec.unit_cost < 0.0:
        out.append(f"{owner}: unit_cost must be >= 0")


def validate_scene(scene: Scene) -> list[str]:
    """Collect every invariant violation; an empty list means the scene is valid.

    Violations are data, not failures: the function never raises on bad
    scenes and is side-effect free, so repeated calls return identical
    reports.
    """
    out: list[str] = []
    if _check_values(scene, "", out):
        return out
    grid = scene.grid
    if grid.cell_size <= 0.0:
        out.append("grid: cell_size must be > 0")
    if grid.nx < 1 or grid.ny < 1:
        out.append("grid: nx and ny must be >= 1")

    if not scene.roi.cells:
        out.append("roi: must contain at least one cell")
    n_cells = grid.n_cells
    for j in sorted(scene.roi.cells):
        if not 0 <= j < n_cells:
            out.append(f"roi: cell {j} out of grid bounds (0..{n_cells - 1})")
    for j, w in sorted(scene.roi.weights.items()):
        if j not in scene.roi.cells:
            out.append(f"roi: weighted cell {j} is not an ROI member")
        if w < 0.0:
            out.append(f"roi: cell {j} has negative weight {w}")

    for k, occ in enumerate(scene.occluders):
        for axis in range(3):
            if occ.min_corner[axis] > occ.max_corner[axis]:
                out.append(f"occluder {k}: min_corner exceeds max_corner on axis {axis}")

    seen_ids: set[str] = set()
    for mounts, modality in (
        (scene.lidar_candidates, LIDAR),
        (scene.radar_candidates, RADAR),
    ):
        for mount in mounts:
            if mount.id.split() != [mount.id]:  # matrix files list ids space-separated
                out.append(f"candidate '{mount.id}': id must be one token, without whitespace")
            if mount.id in seen_ids:
                out.append(f"candidate '{mount.id}': duplicate id")
            seen_ids.add(mount.id)
            if mount.position[2] <= 0.0:
                out.append(f"candidate '{mount.id}': position.z must be > 0")
            if mount.spec.modality != modality:
                out.append(
                    f"candidate '{mount.id}': spec modality '{mount.spec.modality}' "
                    f"does not match the {modality} candidate set"
                )
            _check_spec(mount.spec, f"candidate '{mount.id}'", out)
    return out
