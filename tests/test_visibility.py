"""Ray-cast visibility: gates, occlusion, clamping, determinism."""

from __future__ import annotations

import math

import numpy as np
import pytest

from crossview import (
    CandidateMount,
    GridSpec,
    Occluder,
    RegionOfInterest,
    Scene,
    SensorSpec,
    VisibilityConfig,
    VisibilityMatrix,
    beam_elevations,
    build_visibility,
    detection_probability,
    log_visibility,
)
from crossview import visibility

from conftest import WIDE_LIDAR, WIDE_RADAR, square_scene
from oracles import (
    detection_probability_reference,
    segment_hits_box_reference,
    visibility_reference,
)


def lidar_spec(beams: int, vfov: float = 45.0, hfov: float = 360.0,
               max_range: float = 90.0) -> SensorSpec:
    return SensorSpec("lidar", hfov, vfov, max_range, 20.0, beams=beams)


def radar_spec(vfov: float = 28.0, hfov: float = 120.0,
               max_range: float = 90.0) -> SensorSpec:
    return SensorSpec("radar", hfov, vfov, max_range, 20.0)


def one_cell_scene(mount: CandidateMount, cell_size: float = 2.0,
                   occluders=()) -> Scene:
    """A 1x1 grid whose single cell starts at the origin."""
    grid = GridSpec(origin_xy=(0.0, 0.0), cell_size=cell_size, nx=1, ny=1)
    lidar = (mount,) if mount.spec.modality == "lidar" else ()
    radar = (mount,) if mount.spec.modality == "radar" else ()
    return Scene(
        grid=grid,
        roi=RegionOfInterest(cells=frozenset({0}), weights={}),
        occluders=tuple(occluders),
        lidar_candidates=lidar,
        radar_candidates=radar,
    )


def entry(scene: Scene, mount: CandidateMount, j: int,
          cfg: VisibilityConfig | None = None) -> float:
    """``build_visibility``'s entry for ``mount``, a candidate of ``scene``, at ROI cell ``j``."""
    lidar, radar = build_visibility(scene, cfg)
    matrix, mounts = ((lidar, scene.lidar_candidates) if mount.spec.modality == "lidar"
                      else (radar, scene.radar_candidates))
    return float(matrix.values[mounts.index(mount), scene.roi.sorted_cells().index(j)])


def test_beam_elevations_span_and_spacing():
    beams = beam_elevations(lidar_spec(16, vfov=30.0))
    assert beams[0] == -15.0
    assert beams[-1] == 15.0
    assert np.allclose(np.diff(beams), 2.0)
    beams64 = beam_elevations(lidar_spec(64, vfov=45.0))
    assert beams64.shape == (64,)
    assert np.allclose(np.diff(beams64), 45.0 / 63.0)


def test_beam_elevations_rejects_radar():
    with pytest.raises(ValueError):
        beam_elevations(radar_spec())


def test_range_gate():
    near = CandidateMount("L", (80.0, 1.0, 5.0), lidar_spec(64, max_range=90.0))
    assert entry(one_cell_scene(near), near, 0) > 0.0
    far = CandidateMount("L", (200.0, 1.0, 5.0), lidar_spec(64, max_range=90.0))
    assert entry(one_cell_scene(far), far, 0) == 0.0


def test_azimuth_gate_wraps_at_180():
    # Mount east of the cell, looking west across the +-180 degree seam.
    spec = lidar_spec(64, hfov=20.0, vfov=170.0)
    mount = CandidateMount("L", (30.0, 1.0, 5.0), spec, yaw_deg=180.0)
    scene = one_cell_scene(mount)
    assert entry(scene, mount, 0) > 0.0
    # Same geometry but aimed north: nothing falls inside 20 degrees.
    aimed_away = CandidateMount("L", (30.0, 1.0, 5.0), spec, yaw_deg=90.0)
    assert entry(one_cell_scene(aimed_away), aimed_away, 0) == 0.0


def test_radar_vertical_gate_and_pitch():
    # From 5 m up at ~9 m out the probe sits ~25 degrees below horizon,
    # outside a 28 degree fan; pitching down 20 degrees recovers it.
    flat = CandidateMount("R", (10.0, 1.0, 5.0), radar_spec(vfov=28.0),
                          yaw_deg=180.0)
    assert entry(one_cell_scene(flat), flat, 0) == 0.0
    pitched = CandidateMount("R", (10.0, 1.0, 5.0), radar_spec(vfov=28.0),
                             yaw_deg=180.0, pitch_deg=20.0)
    assert entry(one_cell_scene(pitched), pitched, 0) == 1.0 - 1e-6


def test_sparse_beams_miss_distant_target():
    # At 80 m from a 5 m mount the object subtends about 1.2 degrees
    # (-3.58 to -2.36 deg).  A 2-beam unit only fires at -7.5 and +7.5
    # and misses; 64 beams spaced 0.71 deg cannot miss.
    coarse = CandidateMount("L", (81.0, 1.0, 5.0), lidar_spec(2, vfov=15.0))
    assert entry(one_cell_scene(coarse), coarse, 0) == 0.0
    fine = CandidateMount("L", (81.0, 1.0, 5.0), lidar_spec(64, vfov=45.0))
    assert entry(one_cell_scene(fine), fine, 0) > 0.0


def test_beam_gate_uses_object_height_span():
    # 16 beams over 30 deg: steepest beam is -15 deg.  From 6 m up, the
    # top of a 1.7 m object leaves the -15 deg beam beyond
    # 4.3/tan(15) = 16.05 m, and the ground leaves it at 22.4 m.
    spec = lidar_spec(16, vfov=30.0)
    inner = 4.3 / math.tan(math.radians(15.0))
    mount = CandidateMount("L", (0.0, 0.0, 6.0), spec)
    grid = GridSpec(origin_xy=(0.0, 0.0), cell_size=1.0, nx=40, ny=1)
    scene = Scene(
        grid=grid,
        roi=RegionOfInterest(cells=frozenset(range(40)), weights={}),
        occluders=(),
        lidar_candidates=(mount,),
        radar_candidates=(),
    )
    cfg = VisibilityConfig(samples_per_cell=1)
    blind = entry(scene, mount, int(inner) - 2, cfg)
    lit = entry(scene, mount, int(inner) + 2, cfg)
    assert blind == 0.0
    assert lit > 0.0


def test_occluder_blocks_line_of_sight():
    spec = lidar_spec(64, vfov=170.0)
    mount = CandidateMount("L", (20.0, 1.0, 2.0), spec)
    wall = Occluder((10.0, -5.0, 0.0), (11.0, 5.0, 30.0))
    blocked = one_cell_scene(mount, occluders=[wall])
    assert entry(blocked, mount, 0) == 0.0
    # A short wall lets the elevated sightline pass over it.
    short_wall = Occluder((10.0, -5.0, 0.0), (11.0, 5.0, 0.2))
    open_scene = one_cell_scene(mount, occluders=[short_wall])
    assert entry(open_scene, mount, 0) > 0.0


def test_fraction_counts_occluded_samples():
    # Wall covering roughly half the cell's lattice columns.
    spec = lidar_spec(64, vfov=170.0)
    mount = CandidateMount("L", (20.0, 1.0, 2.0), spec)
    half_wall = Occluder((10.0, -5.0, 0.0), (11.0, 1.0, 30.0))
    scene = one_cell_scene(mount, occluders=[half_wall])
    v = entry(scene, mount, 0)
    assert 0.0 < v < 1.0
    assert v * 9 == round(v * 9)  # a whole number of lattice hits


def test_full_visibility_clamped_below_one():
    scene = square_scene()
    lvis, rvis = build_visibility(scene)
    assert lvis.values.max() == 1.0 - 1e-6
    assert rvis.values.max() == 1.0 - 1e-6
    custom = VisibilityConfig(epsilon=1e-3)
    lvis2, _ = build_visibility(scene, custom)
    assert lvis2.values.max() == 1.0 - 1e-3


def test_single_sample_gives_binary_visibility():
    scene = square_scene()
    lvis, _ = build_visibility(scene, VisibilityConfig(samples_per_cell=1))
    assert set(np.round(lvis.values, 6).flatten()) <= {0.0, 1.0 - 1e-6, 1.0}


def test_matches_scalar_reference():
    rng = np.random.default_rng(42)
    grid = GridSpec(origin_xy=(-10.0, -10.0), cell_size=3.0, nx=8, ny=8)
    roi_cells = sorted(rng.choice(64, size=20, replace=False).tolist())
    occluders = (
        Occluder((-2.0, -2.0, 0.0), (2.0, 2.0, 4.0)),
        Occluder((5.0, -8.0, 0.0), (7.0, 0.0, 2.5)),
    )
    for trial in range(20):
        modality = "lidar" if trial % 2 == 0 else "radar"
        if modality == "lidar":
            spec = lidar_spec(int(rng.integers(2, 64)),
                              vfov=float(rng.uniform(20.0, 120.0)),
                              hfov=float(rng.uniform(60.0, 360.0)),
                              max_range=float(rng.uniform(10.0, 60.0)))
        else:
            spec = radar_spec(vfov=float(rng.uniform(10.0, 120.0)),
                              hfov=float(rng.uniform(60.0, 360.0)),
                              max_range=float(rng.uniform(10.0, 60.0)))
        mount = CandidateMount(
            "M",
            (float(rng.uniform(-9.0, 13.0)), float(rng.uniform(-9.0, 13.0)),
             float(rng.uniform(2.0, 12.0))),
            spec,
            yaw_deg=float(rng.uniform(-180.0, 180.0)),
            pitch_deg=float(rng.uniform(-5.0, 25.0)),
        )
        scene = Scene(
            grid=grid,
            roi=RegionOfInterest(cells=frozenset(roi_cells), weights={}),
            occluders=occluders,
            lidar_candidates=(mount,) if modality == "lidar" else (),
            radar_candidates=(mount,) if modality == "radar" else (),
        )
        for j in roi_cells[:8]:
            got = entry(scene, mount, j)
            row, col = divmod(j, grid.nx)
            expected = visibility_reference(
                mount.position,
                mount.yaw_deg,
                mount.pitch_deg,
                spec.modality,
                spec.hfov_deg,
                spec.vfov_deg,
                spec.max_range_m,
                spec.beams,
                (grid.origin_xy[0] + col * grid.cell_size,
                 grid.origin_xy[1] + row * grid.cell_size),
                grid.cell_size,
                [(o.min_corner, o.max_corner) for o in occluders],
            )
            assert got == expected, (trial, j)


def test_workers_do_not_change_bits():
    scene = square_scene(occluders=(((8.0, 8.0, 0.0), (12.0, 12.0, 5.0)),))
    base_l, base_r = build_visibility(scene, workers=1)
    for workers in (2, 8):
        lvis, rvis = build_visibility(scene, workers=workers)
        assert np.array_equal(lvis.values, base_l.values)
        assert np.array_equal(rvis.values, base_r.values)


@pytest.mark.parametrize("workers", [0, -3])
def test_fewer_than_one_worker_is_refused(workers):
    """The library refuses what the CLI refuses, in the CLI's words."""
    with pytest.raises(ValueError, match="^workers must be at least 1$"):
        build_visibility(square_scene(), workers=workers)


def test_log_visibility_values():
    values = np.array([[0.0, 0.5, 1.0 - 1e-6]])
    logs = log_visibility(VisibilityMatrix("lidar", values))
    assert logs[0, 0] == 0.0
    assert logs[0, 1] == pytest.approx(math.log(2.0), abs=0.0)
    assert logs[0, 2] == pytest.approx(-math.log1p(-(1.0 - 1e-6)), abs=0.0)


def test_log_visibility_rejects_saturated_entries():
    with pytest.raises(ValueError):
        log_visibility(VisibilityMatrix("lidar", np.array([[0.2, 1.0]])))
    with pytest.raises(ValueError):
        log_visibility(VisibilityMatrix("lidar", np.array([[-0.1]])))


def test_detection_probability_is_noisy_or():
    # Two mounts at 0.6 miss together with probability 0.4 * 0.4.
    two = VisibilityMatrix("lidar", np.array([[0.6, 0.0], [0.6, 0.3]]))
    p = detection_probability(two, [0, 1])
    assert p[0] == pytest.approx(0.84, abs=1e-12)
    assert p[1] == pytest.approx(0.3, abs=1e-12)
    assert detection_probability(two, []).tolist() == [0.0, 0.0]
    rng = np.random.default_rng(17)
    for _ in range(50):
        n_rows, n_cells = (int(k) for k in rng.integers(1, 8, size=2))
        values = rng.uniform(0.0, 1.0 - 1e-6, (n_rows, n_cells))
        values *= rng.random((n_rows, n_cells)) < 0.7
        matrix = VisibilityMatrix("radar", values)
        ids = [i for i in range(n_rows) if rng.random() < 0.6]
        p = detection_probability(matrix, ids)
        for j in range(n_cells):
            assert abs(p[j] - detection_probability_reference(values, ids, j)) <= 1e-12


def test_detection_probability_index_errors():
    matrix = VisibilityMatrix("radar", np.array([[0.5], [0.5]]))
    for bad in ([2], [-1], [0, 5]):
        with pytest.raises(IndexError, match="out of range for radar"):
            detection_probability(matrix, bad)


def test_matrix_shape_follows_scene():
    scene = square_scene()
    lvis, rvis = build_visibility(scene)
    assert lvis.values.shape == (2, 100)
    assert rvis.values.shape == (2, 100)
    assert lvis.modality == "lidar"
    assert rvis.modality == "radar"


def full_loop(origin, sx, sy, pz, covered, occluders):
    """Every occluder slab-tested on every sample by the frozen array kernel:
    the ray cast before culling and before its z slab became a scalar."""
    pz = np.full(sx.shape, pz)
    clear = covered.copy()
    for box in occluders:
        clear &= ~segment_hits_box_reference(origin, sx, sy, pz, box)
    return clear


# Samples every 0.5 m, so many sit exactly on the faces, edges and corners
# of the boxes below, whose corners are whole metres.
LATTICE = np.meshgrid(np.arange(-4.0, 12.5, 0.5), np.arange(-4.0, 12.5, 0.5))
BOX = Occluder((2.0, 2.0, 0.0), (6.0, 6.0, 5.0))

OCCLUSION_EDGES = {
    "mount-inside-footprint-below-top": ((4.0, 4.0, 2.0), [BOX], 1.0),
    "mount-inside-footprint-above-top": ((4.0, 4.0, 8.0), [BOX], 1.0),
    "mount-on-side-face-plane": ((2.0, -3.0, 6.0), [BOX], 1.0),
    "mount-on-side-face": ((2.0, 4.0, 3.0), [BOX], 1.0),
    "mount-on-top-face-plane": ((0.0, 0.0, 5.0), [BOX], 5.0),
    "samples-on-top-face": ((-1.0, 7.0, 8.0), [BOX], 5.0),
    "samples-on-bottom-face": ((-1.0, 7.0, 8.0), [BOX], 0.0),
    "grazing-corner": ((0.0, 0.0, 3.0), [BOX], 1.0),
    "grazing-edge": ((-2.0, 2.0, 3.0), [BOX], 1.0),
    "grazing-top-edge": ((-3.0, 4.0, 9.0), [BOX], 1.0),
    "zero-height-on-ground": ((0.0, 0.0, 6.0), [Occluder((2.0, 2.0, 0.0), (6.0, 6.0, 0.0))], 0.0),
    "zero-height-at-probe": ((0.0, 0.0, 6.0), [Occluder((2.0, 2.0, 1.0), (6.0, 6.0, 1.0))], 1.0),
    "zero-footprint-post": ((0.0, 0.0, 6.0), [Occluder((3.0, 3.0, 0.0), (3.0, 3.0, 4.0))], 1.0),
    "taller-than-mount": ((0.0, 0.0, 6.0), [Occluder((2.0, 2.0, 0.0), (6.0, 6.0, 10.0))], 0.85),
    "shorter-than-mount": ((0.0, 0.0, 6.0), [Occluder((2.0, 2.0, 0.0), (6.0, 6.0, 2.0))], 0.85),
    "several-boxes": ((4.0, -2.0, 6.0), [BOX, Occluder((7.0, 0.0, 0.0), (8.0, 10.0, 3.0)),
                                         Occluder((-3.0, 8.0, 0.0), (1.0, 9.0, 7.0))], 1.0),
    # Level segments (d_z == 0): the z slab holds every t or none.
    "mount-at-probe-height-inside-z": ((-1.0, 7.0, 1.0), [BOX], 1.0),
    "mount-at-probe-height-on-top-face": ((-1.0, 7.0, 5.0), [BOX], 5.0),
    "mount-at-probe-height-above-box": ((-1.0, 7.0, 6.0), [BOX], 6.0),
    # -3.3 and 9.7 are off the lattice, so samples share only the other
    # coordinate with the mount: the parallel-ray rule on one axis alone.
    "level-in-x-through-box": ((4.0, -3.3, 3.0), [BOX], 1.0),
    "level-in-x-on-face": ((6.0, 9.7, 3.0), [BOX], 1.0),
    "level-in-x-beside-box": ((8.0, -3.3, 3.0), [BOX], 1.0),
    "level-in-y-through-box": ((9.7, 4.0, 3.0), [BOX], 1.0),
    "level-in-y-on-face": ((-3.3, 2.0, 3.0), [BOX], 1.0),
    # What the Python API lets through: NaN never hits, nor does a segment
    # from infinitely far, whose slab quotients are NaN.
    "nan-mount-x": ((math.nan, 4.0, 3.0), [BOX], 1.0),
    "nan-mount-y": ((4.0, math.nan, 3.0), [BOX], 1.0),
    "nan-mount-z": ((4.0, -2.0, math.nan), [BOX], 1.0),
    "inf-mount-x": ((math.inf, 4.0, 3.0), [BOX], 1.0),
    "minus-inf-mount-y": ((4.0, -math.inf, 3.0), [BOX], 1.0),
    "inf-mount-z": ((4.0, -2.0, math.inf), [BOX], 1.0),
    "minus-inf-mount-z": ((4.0, -2.0, -math.inf), [BOX], 1.0),
}


@pytest.mark.parametrize("origin, occluders, pz", OCCLUSION_EDGES.values(),
                         ids=OCCLUSION_EDGES.keys())
def test_culled_occlusion_equals_full_loop_at_edges(origin, occluders, pz):
    sx, sy = LATTICE
    rng = np.random.default_rng(5)
    for covered in (np.ones(sx.shape, dtype=bool), rng.random(sx.shape) < 0.5):
        expected = full_loop(origin, sx, sy, pz, covered, occluders)
        assert np.array_equal(
            visibility._unoccluded(origin, sx, sy, pz, covered, occluders), expected)


def random_occluded_scene(rng, ring: bool = False) -> Scene:
    """Snapped boxes and mounts: zero-height, flat, tall, and mounts inside boxes.

    With ``ring``, the benchmark's geometry on 12 x 12 cells instead: boxes
    2.5-6 m tall in the middle of the grid, and mounts 4-7 m up on a ring
    2 m inside its edge, outside every box, with the radars facing the
    middle.  There the cull's shortcuts fire: a mount clears most boxes'
    bounding-box sides by itself, and the lidars see a full circle.
    """
    def snap(lo, hi, size=None):
        return rng.integers(int(lo * 2), int(hi * 2) + 1, size) * 0.5

    boxes = []
    for _ in range(int(rng.integers(3, 8))):
        if ring:
            (cx, cy), (hx, hy) = snap(7.0, 17.0, 2), snap(1.5, 4.0, 2)
            boxes.append(Occluder((cx - hx, cy - hy, 0.0), (cx + hx, cy + hy, snap(2.5, 6.0))))
            continue
        x0, y0 = snap(-2.0, 20.0, 2)
        w, d = snap(0.0, 6.0, 2)
        z0 = snap(0.0, 1.0) if rng.random() < 0.2 else 0.0
        top = z0 + snap(0.0, 10.0)
        boxes.append(Occluder((x0, y0, z0), (x0 + w, y0 + d, top)))

    def mount(k, spec, modality):
        if not ring:
            position = (*snap(-2.0, 22.0, 2), snap(0.5, 8.0))
            yaw = snap(-180.0, 180.0)
        else:
            along = snap(0.0, 79.5)
            edge, d = int(along // 20.0), along % 20.0
            x, y = [(2.0 + d, 2.0), (22.0, 2.0 + d), (22.0 - d, 22.0), (2.0, 22.0 - d)][edge]
            position = (x, y, snap(4.0, 7.0))
            yaw = math.degrees(math.atan2(12.0 - y, 12.0 - x)) + snap(-15.0, 15.0)
        return CandidateMount(f"{modality}{k}", tuple(float(c) for c in position), spec,
                              yaw_deg=float(yaw), pitch_deg=float(snap(-10.0, 10.0)))

    if ring:
        lidar_specs = (lidar_spec(32, vfov=30.0, max_range=70.0), lidar_spec(128, vfov=30.0))
        radar_specs = (radar_spec(vfov=30.0), radar_spec(vfov=30.0, max_range=20.0))
    else:
        lidar_specs = (WIDE_LIDAR, lidar_spec(32), lidar_spec(64, hfov=120.0))
        radar_specs = (WIDE_RADAR, radar_spec(), radar_spec(vfov=60.0))
    n = 12 if ring else 10
    return Scene(
        grid=GridSpec(origin_xy=(0.0, 0.0), cell_size=2.0, nx=n, ny=n),
        roi=RegionOfInterest(cells=frozenset(range(n * n)), weights={}),
        occluders=tuple(boxes),
        lidar_candidates=tuple(mount(k, spec, "L") for k, spec in enumerate(lidar_specs)),
        radar_candidates=tuple(mount(k, spec, "R") for k, spec in enumerate(radar_specs)),
    )


def assert_culled_equals_full_loop(scene, cfg, monkeypatch):
    culled = build_visibility(scene, cfg)
    with monkeypatch.context() as patched:
        patched.setattr(visibility, "_unoccluded", full_loop)
        full = build_visibility(scene, cfg)
    for got, expected in zip(culled, full):
        assert np.array_equal(got.values, expected.values)


@pytest.mark.parametrize("seed", range(8))
def test_culled_ray_cast_equals_full_loop_on_random_scenes(seed, monkeypatch):
    rng = np.random.default_rng([41, seed])
    scene = random_occluded_scene(rng)
    cfg = VisibilityConfig(samples_per_cell=int(rng.choice([1, 4, 9])),
                           sample_height_m=float(rng.choice([0.5, 0.85, 1.0])))
    assert_culled_equals_full_loop(scene, cfg, monkeypatch)


@pytest.mark.parametrize("seed", range(6))
def test_culled_ray_cast_equals_full_loop_on_ring_scenes(seed, monkeypatch):
    rng = np.random.default_rng([43, seed])
    scene = random_occluded_scene(rng, ring=True)
    cfg = VisibilityConfig(samples_per_cell=int(rng.choice([4, 9])),
                           sample_height_m=float(rng.choice([0.85, 1.0])))
    assert_culled_equals_full_loop(scene, cfg, monkeypatch)


def mount_scene(mount: CandidateMount, occluders=()) -> Scene:
    """A 4 x 4 grid of 2 m cells, all in the ROI, with one candidate."""
    lidar = (mount,) if mount.spec.modality == "lidar" else ()
    radar = (mount,) if mount.spec.modality == "radar" else ()
    return Scene(grid=GridSpec(origin_xy=(0.0, 0.0), cell_size=2.0, nx=4, ny=4),
                 roi=RegionOfInterest(cells=frozenset(range(16)), weights={}),
                 occluders=tuple(occluders), lidar_candidates=lidar, radar_candidates=radar)


# A post away from the mount, and a low table under it.
POST_AND_TABLE = (Occluder((1.0, 5.0, 0.0), (2.0, 7.0, 3.0)),
                  Occluder((4.5, 2.5, 0.0), (5.5, 3.5, 2.0)))


@pytest.mark.parametrize("yaw", [0.0, 180.0, -180.0, 1e-14, -1e-14, 540.0, -1e300])
@pytest.mark.parametrize("modality", ["lidar", "radar"])
def test_full_circle_sees_the_seam_and_the_foot_of_the_mount(modality, yaw, monkeypatch):
    # The mount stands on the middle sample of cell 6's 3 x 3 lattice, so
    # one sample lies at its foot (azimuth atan2(0, 0) = 0) and the samples
    # due west lie on the 180-degree seam.  A full circle passes all of them
    # whatever the finite yaw; the table under the mount blocks its foot.
    spec = (lidar_spec(64, vfov=170.0) if modality == "lidar"
            else radar_spec(vfov=170.0, hfov=360.0))
    mount = CandidateMount("M", (5.0, 3.0, 4.0), spec, yaw_deg=yaw, pitch_deg=10.0)
    scene = mount_scene(mount, POST_AND_TABLE)
    cfg = VisibilityConfig()
    for j in range(16):
        row, col = divmod(j, 4)
        assert entry(scene, mount, j, cfg) == visibility_reference(
            mount.position, yaw, 10.0, modality, 360.0, 170.0, 90.0, spec.beams,
            (col * 2.0, row * 2.0), 2.0,
            [(o.min_corner, o.max_corner) for o in POST_AND_TABLE]), j
    assert_culled_equals_full_loop(scene, cfg, monkeypatch)


# An infinite yaw's azimuth wrap is inf % 360, which numpy warns about.
@pytest.mark.filterwarnings("ignore:invalid value encountered in remainder")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["yaw", "x", "y", "z"])
@pytest.mark.parametrize("modality", ["lidar", "radar"])
def test_non_finite_mount_geometry_keeps_its_entries(modality, field, bad, monkeypatch):
    # The Python API does not check a mount's numbers.  A NaN or infinite
    # yaw makes every azimuth NaN, even under a full circle, and a NaN or
    # infinite x or y puts every sample out of range, so those rows are 0.
    # A mount infinitely high or low sees the probe at -90 or +90 degrees,
    # which a radar pitched 30 degrees toward it passes; no occluder blocks
    # such a segment, as with the frozen kernel.
    spec = (lidar_spec(64, vfov=170.0) if modality == "lidar"
            else radar_spec(vfov=120.0, hfov=360.0))
    x, y, z, yaw = 5.0, 3.0, 4.0, 0.0
    x, y, z, yaw = [bad if name == field else value
                    for name, value in (("x", x), ("y", y), ("z", z), ("yaw", yaw))]
    mount = CandidateMount("M", (x, y, z), spec, yaw_deg=yaw, pitch_deg=math.copysign(30.0, bad))
    scene = mount_scene(mount, POST_AND_TABLE)
    lidar, radar = build_visibility(scene)
    values = (lidar if modality == "lidar" else radar).values
    if field != "z" or math.isnan(bad):
        assert not values.any()
    elif modality == "radar":
        assert values.min() == 1.0 - 1e-6
    assert_culled_equals_full_loop(scene, VisibilityConfig(), monkeypatch)
