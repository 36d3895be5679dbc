"""Oriented-box geometry: construction rules and exact IoU."""

from __future__ import annotations

import math

import numpy as np
import pytest

from crossview import DetectionBox, center_distance_bev, iou_3d
from crossview import boxes as boxes_module
from crossview.boxes import _clip_polygon, _polygon_area, footprint

from conftest import random_box, shifted_copy
from oracles import clip_polygon_reference, mc_iou_3d


def box(center=(0.0, 0.0, 1.0), size=(4.0, 2.0, 2.0), yaw=0.0,
        class_label="car", score=0.9, source="lidar", velocity=None):
    return DetectionBox(center=center, size=size, yaw=yaw,
                        class_label=class_label, score=score,
                        source=source, velocity=velocity)


def test_identical_boxes_have_iou_exactly_one():
    a = box(yaw=0.7)
    assert iou_3d(a, a) == 1.0
    b = box(yaw=0.7)
    assert iou_3d(a, b) == 1.0


def test_disjoint_boxes_have_iou_zero():
    assert iou_3d(box(), box(center=(100.0, 0.0, 1.0))) == 0.0


def test_vertical_separation_kills_overlap():
    a = box(center=(0.0, 0.0, 1.0), size=(4.0, 2.0, 2.0))
    b = box(center=(0.0, 0.0, 5.0), size=(4.0, 2.0, 2.0))
    assert iou_3d(a, b) == 0.0
    # Touching faces share zero volume.
    c = box(center=(0.0, 0.0, 3.0), size=(4.0, 2.0, 2.0))
    assert iou_3d(a, c) == 0.0


def test_axis_aligned_partial_overlap():
    # 2x2x2 cubes offset by 1 m in x: intersection 1*2*2 = 4,
    # union 8 + 8 - 4 = 12, IoU = 1/3.
    a = box(size=(2.0, 2.0, 2.0))
    b = box(center=(1.0, 0.0, 1.0), size=(2.0, 2.0, 2.0))
    assert iou_3d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_quarter_turn_of_square_is_identity():
    a = box(size=(2.0, 2.0, 2.0))
    b = box(size=(2.0, 2.0, 2.0), yaw=math.pi / 2.0)
    assert iou_3d(a, b) == pytest.approx(1.0, abs=1e-12)


def test_square_rotated_45_degrees():
    # A square rotated 45 degrees about its center overlaps the original
    # in a regular octagon of area 2*(sqrt(2)-1)*s^2.
    s = 2.0
    a = box(size=(s, s, 2.0))
    b = box(size=(s, s, 2.0), yaw=math.pi / 4.0)
    octagon = 2.0 * (math.sqrt(2.0) - 1.0) * s * s
    expected = octagon / (2.0 * s * s - octagon)
    assert iou_3d(a, b) == pytest.approx(expected, abs=1e-12)


def test_contained_box():
    outer = box(size=(4.0, 4.0, 4.0), center=(0.0, 0.0, 2.0))
    inner = box(size=(2.0, 2.0, 2.0), center=(0.0, 0.0, 2.0), yaw=0.3)
    assert iou_3d(outer, inner) == pytest.approx(8.0 / 64.0, abs=1e-12)


def test_iou_symmetry_is_bitwise():
    rng = np.random.default_rng(9)
    for _ in range(200):
        a = random_box(rng, spread=3.0)
        b = random_box(rng, spread=3.0)
        assert iou_3d(a, b) == iou_3d(b, a)


def test_iou_stays_in_unit_interval():
    rng = np.random.default_rng(10)
    for _ in range(300):
        a = random_box(rng, spread=4.0)
        b = random_box(rng, spread=4.0)
        v = iou_3d(a, b)
        assert 0.0 <= v <= 1.0


def test_iou_matches_monte_carlo():
    rng = np.random.default_rng(123)
    checked = 0
    while checked < 8:
        a = random_box(rng, spread=2.0)
        b = random_box(rng, spread=2.0)
        exact = iou_3d(a, b)
        if exact < 0.05:
            continue
        approx = mc_iou_3d(a, b, n_samples=200_000, seed=checked)
        assert exact == pytest.approx(approx, abs=0.02)
        checked += 1


def test_center_distance_is_planar():
    a = box(center=(0.0, 0.0, 0.0))
    b = box(center=(3.0, 4.0, 50.0))
    assert center_distance_bev(a, b) == 5.0


def _unfiltered_iou(a, b):
    """iou_3d as it reads without the circle reject: always clip the footprints."""
    if b.sort_key() < a.sort_key():
        a, b = b, a
    lo = max(a.center[2] - a.size[2] / 2.0, b.center[2] - b.size[2] / 2.0)
    hi = min(a.center[2] + a.size[2] / 2.0, b.center[2] + b.size[2] / 2.0)
    if hi - lo <= 0.0:
        return 0.0
    fa, fb = footprint(a), footprint(b)
    inter = _polygon_area(_clip_polygon(fa, fb)) * (hi - lo)
    if inter <= 0.0:
        return 0.0
    union = _polygon_area(fa) * a.size[2] + _polygon_area(fb) * b.size[2] - inter
    if union <= 0.0:
        return 0.0
    return min(1.0, max(0.0, inter / union))


def test_circle_reject_matches_unfiltered_iou(monkeypatch):
    """The BEV circle reject never changes a value, even near tangency."""
    rng = np.random.default_rng(31)
    calls = []

    def counted_footprint(box):
        calls.append(box)
        return footprint(box)

    monkeypatch.setattr(boxes_module, "footprint", counted_footprint)
    rejected = clipped = 0
    for _ in range(12_000):
        a = random_box(rng, spread=5.0)
        b = random_box(rng, center=(0.0, 0.0, a.center[2]))
        # Put b's center near the distance at which the two circumscribed
        # circles touch, in a random direction.
        reach = 0.5 * (math.hypot(*a.size[:2]) + math.hypot(*b.size[:2]))
        angle = float(rng.uniform(-math.pi, math.pi))
        dist = reach * float(rng.choice([rng.uniform(0.97, 1.03), rng.uniform(0.0, 1.0),
                                         1.0 + float(rng.normal(0.0, 1e-6))]))
        b = shifted_copy(b, a.center[0] + dist * math.cos(angle),
                         a.center[1] + dist * math.sin(angle))
        calls.clear()
        assert iou_3d(a, b) == _unfiltered_iou(a, b)
        if calls:
            clipped += 1
        else:
            rejected += 1
    assert rejected > 2000 and clipped > 2000


def _seeded_pair(rng, kind: int):
    """Two boxes from one of four families that stress the clip differently."""
    if kind == 0:  # anywhere near each other
        return random_box(rng, spread=3.0), random_box(rng, spread=3.0)
    if kind == 1:  # parallel on a half-meter lattice: shared edges, touching corners
        yaw = float(rng.integers(-4, 5)) * math.pi / 4.0
        return tuple(box(center=(float(rng.integers(-4, 5)) / 2.0,
                                 float(rng.integers(-4, 5)) / 2.0, 1.0),
                         size=(float(rng.choice([1.0, 2.0, 4.0])), float(rng.choice([1.0, 2.0])),
                               2.0),
                         yaw=yaw) for _ in range(2))
    if kind == 2:  # nearly the same box: vertices within rounding of the clip edges
        a = random_box(rng, spread=3.0)
        nudge = float(rng.choice([-1.0, 1.0])) * 10.0 ** float(rng.uniform(-15, -6))
        return a, box(center=a.center, size=a.size, yaw=a.yaw + nudge)
    a = random_box(rng, spread=3.0)  # one inside the other
    inner = box(center=a.center, size=tuple(v * float(rng.uniform(0.05, 0.4)) for v in a.size),
                yaw=float(rng.uniform(-math.pi, math.pi)))
    return a, inner


def test_clip_is_bit_identical_to_the_reference_loop():
    rng = np.random.default_rng(2024)
    nonempty = 0
    for n in range(20_000):
        a, b = _seeded_pair(rng, n % 4)
        fa, fb = footprint(a), footprint(b)
        for subject, clip in ((fa, fb), (fb, fa)):
            got = _clip_polygon(subject, clip)
            assert got == clip_polygon_reference(subject, clip)
            nonempty += bool(got)
    assert nonempty > 25_000


TINY = (1e-7, 1e-7, 1e-7)
CLIP_EDGE_CASES = {
    "identical": (box(yaw=0.7), box(yaw=0.7)),
    "containment": (box(size=(4.0, 4.0, 4.0)), box(size=(2.0, 2.0, 2.0), yaw=0.3)),
    "shared-edge": (box(size=(2.0, 2.0, 2.0)), box(center=(2.0, 0.0, 1.0), size=(2.0, 2.0, 2.0))),
    "touching-corner": (box(size=(2.0, 2.0, 2.0)),
                        box(center=(2.0, 2.0, 1.0), size=(2.0, 2.0, 2.0))),
    "yaw-plus-minus-pi": (box(yaw=math.pi), box(yaw=-math.pi)),
    "yaw-across-pi": (box(yaw=math.pi), box(yaw=-math.pi + 1e-12)),
    "tiny-overlapping": (box(size=TINY), box(center=(5e-8, 0.0, 1.0), size=TINY, yaw=0.4)),
    "tiny-in-large": (box(), box(center=(1.0, 0.5, 1.0), size=TINY, yaw=-2.0)),
    "tiny-on-corner": (box(size=(2.0, 2.0, 2.0)), box(center=(1.0, 1.0, 1.0), size=TINY)),
}


@pytest.mark.parametrize("name", sorted(CLIP_EDGE_CASES))
def test_clip_edge_cases_are_bit_identical(name):
    a, b = CLIP_EDGE_CASES[name]
    fa, fb = footprint(a), footprint(b)
    for subject, clip in ((fa, fb), (fb, fa), (fa, fa)):
        assert _clip_polygon(subject, clip) == clip_polygon_reference(subject, clip)


def test_yaw_normalization():
    assert box(yaw=3.0 * math.pi).yaw == pytest.approx(math.pi, abs=0.0)
    assert box(yaw=-math.pi).yaw == pytest.approx(math.pi, abs=0.0)
    assert box(yaw=2.0 * math.pi).yaw == pytest.approx(0.0, abs=1e-15)
    assert -math.pi < box(yaw=-0.5).yaw <= math.pi


@pytest.mark.parametrize("kind, value", [(np.float64, 0.3), (np.float32, 0.3), (int, 1)],
                         ids=["float64", "float32", "int"])
def test_box_fields_are_stored_as_plain_floats(kind, value):
    b = DetectionBox(center=(kind(value), kind(2), kind(1)), size=(kind(4), kind(2), kind(2)),
                     yaw=kind(value), class_label="car", score=kind(value), source="radar",
                     velocity=(kind(value), kind(0)))
    for v in (*b.center, *b.size, b.yaw, b.score, *b.velocity):
        assert type(v) is float
    assert b.score == float(kind(value)) and b.yaw == float(kind(value))
    assert float.__repr__(b.score) == repr(float(kind(value)))


def test_rotation_preserves_iou_structure():
    # Rotating both boxes and their offset by the same angle must not
    # change the overlap (the clip is purely relative geometry).
    rng = np.random.default_rng(77)
    for _ in range(50):
        a = random_box(rng, spread=2.0)
        b = random_box(rng, spread=2.0)
        base = iou_3d(a, b)
        theta = float(rng.uniform(0, 2 * math.pi))
        c, s = math.cos(theta), math.sin(theta)

        def rotated(x):
            px, py, pz = x.center
            return DetectionBox(
                center=(px * c - py * s, px * s + py * c, pz),
                size=x.size,
                yaw=x.yaw + theta,
                class_label=x.class_label,
                score=x.score,
                source=x.source,
                velocity=x.velocity,
            )

        assert iou_3d(rotated(a), rotated(b)) == pytest.approx(base, abs=1e-9)
