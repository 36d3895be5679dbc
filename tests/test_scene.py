"""Scene model and validation checks."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from crossview import (
    CandidateMount,
    GridSpec,
    Occluder,
    RegionOfInterest,
    Scene,
    SensorSpec,
    validate_scene,
)

from conftest import WIDE_LIDAR, WIDE_RADAR, square_scene


def test_grid_n_cells():
    assert GridSpec(origin_xy=(0.0, 0.0), cell_size=1.0, nx=7, ny=5).n_cells == 35


def test_valid_scene_has_no_violations():
    assert validate_scene(square_scene()) == []


def test_roi_weight_defaults_to_one():
    roi = RegionOfInterest(cells=frozenset({1, 2}), weights={2: 3.0})
    assert roi.weight_of(1) == 1.0
    assert roi.weight_of(2) == 3.0


def test_roi_cell_outside_grid_reported():
    scene = square_scene()
    bad = Scene(
        grid=scene.grid,
        roi=RegionOfInterest(cells=frozenset({0, scene.grid.n_cells}), weights={}),
        occluders=(),
        lidar_candidates=scene.lidar_candidates,
        radar_candidates=scene.radar_candidates,
    )
    violations = validate_scene(bad)
    assert any("out of grid bounds" in v for v in violations)


def test_duplicate_candidate_ids_reported():
    scene = square_scene()
    dup = scene.lidar_candidates[0]
    clone = CandidateMount(dup.id, (3.0, 3.0, 5.0), dup.spec)
    bad = Scene(
        grid=scene.grid,
        roi=scene.roi,
        occluders=(),
        lidar_candidates=scene.lidar_candidates + (clone,),
        radar_candidates=scene.radar_candidates,
    )
    assert any("duplicate id" in v for v in validate_scene(bad))


def test_candidate_on_ground_reported():
    scene = square_scene()
    grounded = CandidateMount("L9", (5.0, 5.0, 0.0), WIDE_LIDAR)
    bad = Scene(
        grid=scene.grid,
        roi=scene.roi,
        occluders=(),
        lidar_candidates=scene.lidar_candidates + (grounded,),
        radar_candidates=scene.radar_candidates,
    )
    assert any("position.z must be > 0" in v for v in validate_scene(bad))


def test_spec_violations_reported():
    scene = square_scene()
    checks = [
        (SensorSpec("lidar", 360.0, 45.0, 90.0, 20.0, beams=1), "beams"),
        (SensorSpec("lidar", 400.0, 45.0, 90.0, 20.0, beams=16), "hfov"),
        (SensorSpec("lidar", 360.0, 185.0, 90.0, 20.0, beams=16), "vfov"),
        (SensorSpec("lidar", 360.0, 45.0, -1.0, 20.0, beams=16), "max_range"),
        (SensorSpec("lidar", 360.0, 45.0, 90.0, 0.0, beams=16), "rate"),
        (SensorSpec("lidar", 360.0, 45.0, 90.0, 20.0, unit_cost=-5.0, beams=16), "cost"),
    ]
    for spec, needle in checks:
        bad = Scene(
            grid=scene.grid,
            roi=scene.roi,
            occluders=(),
            lidar_candidates=(CandidateMount("LX", (5.0, 5.0, 5.0), spec),),
            radar_candidates=scene.radar_candidates,
        )
        violations = validate_scene(bad)
        assert any(needle in v for v in violations), (needle, violations)


def test_radar_with_beams_reported():
    scene = square_scene()
    spec = SensorSpec("radar", 120.0, 28.0, 90.0, 20.0, beams=16)
    bad = Scene(
        grid=scene.grid,
        roi=scene.roi,
        occluders=(),
        lidar_candidates=scene.lidar_candidates,
        radar_candidates=(CandidateMount("RX", (5.0, 5.0, 3.0), spec),),
    )
    assert any("beams" in v for v in validate_scene(bad))


def test_modality_mismatch_reported():
    scene = square_scene()
    bad = Scene(
        grid=scene.grid,
        roi=scene.roi,
        occluders=(),
        lidar_candidates=(CandidateMount("LX", (5.0, 5.0, 5.0), WIDE_RADAR),),
        radar_candidates=scene.radar_candidates,
    )
    assert any("modality" in v for v in validate_scene(bad))


def test_occluder_corner_order_reported():
    scene = square_scene()
    bad = Scene(
        grid=scene.grid,
        roi=scene.roi,
        occluders=(Occluder((5.0, 5.0, 2.0), (4.0, 6.0, 3.0)),),
        lidar_candidates=scene.lidar_candidates,
        radar_candidates=scene.radar_candidates,
    )
    assert any("corner" in v for v in validate_scene(bad))


def _with(value, path: list[str], number: float):
    """``value`` with ``number`` at the key path ``path`` (fields, tuple indices, dict keys)."""
    if not path:
        return number
    key, rest = path[0], path[1:]
    if isinstance(value, tuple):
        k = int(key)
        return (*value[:k], _with(value[k], rest, number), *value[k + 1:])
    if isinstance(value, dict):
        return {**value, int(key): _with(value.get(int(key)), rest, number)}
    return replace(value, **{key: _with(getattr(value, key), rest, number)})


NON_FINITE = [
    ("grid.origin_xy.0", math.nan),
    ("grid.origin_xy.1", -math.inf),
    ("grid.cell_size", math.inf),
    ("roi.weights.3", math.nan),
    ("occluders.0.min_corner.2", math.nan),
    ("occluders.0.max_corner.0", math.inf),
    ("lidar_candidates.0.position.0", -math.inf),
    ("lidar_candidates.1.position.1", math.nan),
    ("radar_candidates.0.position.2", math.inf),
    ("lidar_candidates.0.yaw_deg", math.nan),
    ("radar_candidates.1.pitch_deg", -math.inf),
    ("lidar_candidates.0.spec.max_range_m", math.inf),
    ("radar_candidates.0.spec.rate_hz", math.nan),
    ("radar_candidates.1.spec.unit_cost", math.inf),
    ("lidar_candidates.1.spec.vfov_deg", math.nan),
]


@pytest.mark.parametrize("path, number", NON_FINITE, ids=[f"{p}={n}" for p, n in NON_FINITE])
def test_non_finite_number_is_reported_by_its_path(path, number):
    """A scene built through the API may hold NaN or inf anywhere (a scene file
    may not); every such number is a violation, though a comparison lets NaN by."""
    scene = square_scene(occluders=[((2.0, 2.0, 0.0), (4.0, 4.0, 3.0))])
    assert validate_scene(scene) == []
    violations = validate_scene(_with(scene, path.split("."), number))
    assert f"{path}: expected a finite number, got {number!r}" in violations, violations


WRONG_KINDS = [
    ("grid.cell_size", "2", "a number"),
    ("grid.cell_size", None, "a number"),
    ("grid.nx", "3", "a number"),
    ("roi.weights.3", [1.0], "a number"),
    ("occluders.0.min_corner.2", None, "a number"),
    ("lidar_candidates.0.position.2", "5", "a number"),
    ("lidar_candidates.1.spec.beams", "16", "a number"),
    ("radar_candidates.0.spec.hfov_deg", None, "a number"),
    ("radar_candidates.1.yaw_deg", "north", "a number"),
    ("lidar_candidates.0.id", 7, "a string"),
    ("radar_candidates.1.spec.modality", None, "a string"),
    # The wrong shape: a tuple where a number belongs, or the wrong component count.
    ("grid.cell_size", (2.0,), "a number"),
    ("grid.nx", [3], "a number"),
    ("lidar_candidates.1.spec.max_range_m", (90.0,), "a number"),
    ("grid.origin_xy", (0.0,), "2 numbers"),
    ("grid.origin_xy", (0.0, 0.0, 0.0), "2 numbers"),
    ("occluders.0.min_corner", (2.0, 2.0), "3 numbers"),
    ("occluders.0.max_corner", 4.0, "3 numbers"),
    ("lidar_candidates.0.position", (1.0, 2.0), "3 numbers"),
    ("radar_candidates.1.position", (1.0, 2.0, 3.0, 4.0), "3 numbers"),
]


@pytest.mark.parametrize("path, value, expected", WRONG_KINDS,
                         ids=[f"{p}={v!r}" for p, v, _ in WRONG_KINDS])
def test_value_of_the_wrong_kind_is_reported_by_its_path(path, value, expected):
    """A non-number where a number belongs, a position, corner or origin with the
    wrong number of components, or a non-string id or modality, is a violation, not
    a TypeError or IndexError from the range checks, which then do not run."""
    scene = square_scene(occluders=[((2.0, 2.0, 0.0), (4.0, 4.0, 3.0))])
    violations = validate_scene(_with(scene, path.split("."), value))
    assert violations == [f"{path}: expected {expected}, got {value!r}"]


def test_non_number_roi_cell_is_reported():
    scene = square_scene()
    bad = replace(scene, roi=RegionOfInterest(cells=frozenset({0, 1, "2"})))
    assert validate_scene(bad) == ["roi.cells.2: expected a number, got '2'"]


@pytest.mark.parametrize("bad", ["L 0", "", "L\t0", "L0 "])
def test_candidate_id_that_is_not_one_token_is_reported(bad):
    """Matrix files list ids separated by whitespace, so an id must be one token."""
    scene = square_scene()
    spaced = replace(scene.lidar_candidates[0], id=bad)
    violations = validate_scene(replace(scene, lidar_candidates=(spaced,
                                                                 *scene.lidar_candidates[1:])))
    assert violations == [f"candidate '{bad}': id must be one token, without whitespace"]
