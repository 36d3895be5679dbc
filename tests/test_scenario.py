"""Seeded traffic generation and detector simulation."""

from __future__ import annotations

import math
import re

import pytest

from crossview import (
    CLASS_SIZES,
    NoiseSpec,
    ScenarioConfig,
    Selection,
    build_visibility,
    detection_probability,
    generate_scenario,
)
from crossview.scenario import DEFAULT_SPEED_RANGES
from crossview.scene import MAX_SPAWN_RATE

from conftest import square_scene


@pytest.fixture(scope="module")
def observed_scene():
    scene = square_scene()
    lidar_vis, radar_vis = build_visibility(scene)
    # Both mounts of each modality see every cell, so a full selection
    # detects with probability within 1e-6 of 1 everywhere.
    assert detection_probability(lidar_vis, [0, 1]).min() > 1.0 - 1e-6
    assert detection_probability(radar_vis, [0, 1]).min() > 1.0 - 1e-6
    return scene, lidar_vis, radar_vis


FULL = Selection.of([0, 1], [0, 1])
EMPTY = Selection.of([], [])


def run(observed_scene, selection, **cfg_kwargs):
    scene, lidar_vis, radar_vis = observed_scene
    cfg_kwargs.setdefault("duration_frames", 25)
    config = ScenarioConfig(**cfg_kwargs)
    return generate_scenario(scene, lidar_vis, radar_vis, selection, config)


def test_same_seed_reproduces_everything(observed_scene):
    a = run(observed_scene, FULL, seed=7)
    b = run(observed_scene, FULL, seed=7)
    assert a.ground_truth == b.ground_truth
    assert a.lidar == b.lidar
    assert a.radar == b.radar
    c = run(observed_scene, FULL, seed=8)
    assert a.ground_truth != c.ground_truth


def test_ground_truth_ignores_selection(observed_scene):
    full = run(observed_scene, FULL, seed=3)
    empty = run(observed_scene, EMPTY, seed=3)
    half = run(observed_scene, Selection.of([0], [1]), seed=3)
    assert full.ground_truth == empty.ground_truth == half.ground_truth


def test_empty_selection_detects_nothing(observed_scene):
    frames = run(observed_scene, EMPTY, seed=3)
    assert all(not boxes for boxes in frames.lidar.values())
    assert all(not boxes for boxes in frames.radar.values())
    assert any(boxes for boxes in frames.ground_truth.values())


def test_saturated_selection_detects_everything(observed_scene):
    scene, lidar_vis, radar_vis = observed_scene
    frames = run(observed_scene, FULL, seed=5)
    grid = scene.grid
    p_lidar = detection_probability(lidar_vis, FULL.lidar_ids)
    p_radar = detection_probability(radar_vis, FULL.radar_ids)
    for fid, gt in frames.ground_truth.items():
        assert len(frames.lidar[fid]) == len(gt)
        assert len(frames.radar[fid]) == len(gt)
        # Every agent is detected, so box k of each stream is agent k, and
        # its score is the model's p at the agent's cell (ROI = every cell).
        for truth, lidar, radar in zip(gt, frames.lidar[fid], frames.radar[fid]):
            col = min(int(truth.center[0] // grid.cell_size), grid.nx - 1)
            row = min(int(truth.center[1] // grid.cell_size), grid.ny - 1)
            assert lidar.score == p_lidar[row * grid.nx + col]
            assert radar.score == p_radar[row * grid.nx + col]


def test_zero_noise_reproduces_truth_geometry(observed_scene):
    frames = run(observed_scene, FULL, seed=11)
    for fid, gt in frames.ground_truth.items():
        for dets in (frames.lidar[fid], frames.radar[fid]):
            got = sorted((b.center, b.size, b.yaw) for b in dets)
            want = sorted((b.center, b.size, b.yaw) for b in gt)
            assert got == want
        # Lidar boxes carry no velocity; radar copies the agent's.
        assert all(b.velocity is None for b in frames.lidar[fid])
        truth_velocities = sorted(b.velocity for b in gt)
        assert sorted(b.velocity for b in frames.radar[fid]) == truth_velocities


def test_position_noise_perturbs_detections(observed_scene):
    noisy = run(observed_scene, FULL, seed=11,
                lidar_noise=NoiseSpec(position_sigma=0.4))
    clean = run(observed_scene, FULL, seed=11)
    assert noisy.ground_truth == clean.ground_truth
    moved = mismatched = 0
    for fid, gt in noisy.ground_truth.items():
        centers = {b.center for b in gt}
        for det in noisy.lidar[fid]:
            moved += 1
            if det.center not in centers:
                mismatched += 1
    assert moved > 0 and mismatched == moved


def test_size_noise_never_collapses_boxes(observed_scene):
    frames = run(observed_scene, FULL, seed=2,
                 lidar_noise=NoiseSpec(size_sigma=5.0))
    sizes = [b.size for boxes in frames.lidar.values() for b in boxes]
    assert sizes
    assert min(min(s) for s in sizes) >= 0.05


def test_dropout_none_reports_misses_with_low_scores(observed_scene):
    frames = run(observed_scene, EMPTY, seed=4, dropout_rule="none")
    for fid, gt in frames.ground_truth.items():
        assert len(frames.lidar[fid]) == len(gt)
        assert all(b.score == 0.0 for b in frames.lidar[fid])


def test_class_sizes_and_speed_ranges(observed_scene):
    frames = run(observed_scene, FULL, seed=6, duration_frames=40)
    seen_classes = set()
    for gt in frames.ground_truth.values():
        for box in gt:
            seen_classes.add(box.class_label)
            assert box.size == CLASS_SIZES[box.class_label]
            lo, hi = DEFAULT_SPEED_RANGES[box.class_label]
            speed = math.hypot(*box.velocity)
            assert lo - 1e-9 <= speed <= hi + 1e-9
    assert {"car", "pedestrian"} <= seen_classes


def test_agents_stay_inside_grid(observed_scene):
    scene, _, _ = observed_scene
    frames = run(observed_scene, FULL, seed=9, duration_frames=60)
    x0, y0 = scene.grid.origin_xy
    x1 = x0 + scene.grid.nx * scene.grid.cell_size
    y1 = y0 + scene.grid.ny * scene.grid.cell_size
    for gt in frames.ground_truth.values():
        for box in gt:
            assert x0 <= box.center[0] <= x1
            assert y0 <= box.center[1] <= y1


def test_frame_ids_are_zero_padded(observed_scene):
    frames = run(observed_scene, EMPTY, seed=1, duration_frames=12)
    assert sorted(frames.ground_truth) == [f"{k:06d}" for k in range(12)]


def test_matrix_roi_mismatch_rejected(observed_scene):
    scene, lidar_vis, radar_vis = observed_scene
    small = square_scene(nx=4, ny=4)
    with pytest.raises(ValueError, match="ROI"):
        generate_scenario(small, lidar_vis, radar_vis, FULL)


def test_bad_candidate_index(observed_scene):
    with pytest.raises(IndexError):
        run(observed_scene, Selection.of([5], [0]))


def test_class_mix_rate_stops_at_its_maximum():
    """A spawn rate sizes the simulation's loop, so past ``MAX_SPAWN_RATE`` it
    is refused when the config is built; the cap itself is taken.  No
    simulation runs here."""
    assert ScenarioConfig(class_mix={"car": MAX_SPAWN_RATE}).class_mix == {"car": 1000.0}
    above = math.nextafter(MAX_SPAWN_RATE, math.inf)
    with pytest.raises(ValueError, match=re.escape(
            f"class_mix rate for 'bus' must be at most 1000, got {above!r}")):
        ScenarioConfig(class_mix={"car": 1.0, "bus": above})


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(seed=-1)
    with pytest.raises(ValueError):
        ScenarioConfig(frame_dt_s=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(duration_frames=-1)
    with pytest.raises(ValueError):
        ScenarioConfig(dropout_rule="sometimes")
    with pytest.raises(ValueError):
        ScenarioConfig(class_mix={"boat": 1.0})
    with pytest.raises(ValueError):
        ScenarioConfig(class_mix={"car": -0.5})
    with pytest.raises(ValueError):
        ScenarioConfig(speed_ranges={"car": (5.0, 2.0)})
    with pytest.raises(ValueError):
        NoiseSpec(position_sigma=-1.0)
