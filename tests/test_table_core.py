"""The box-table core of fusion, evaluation and the frames writer equals the
per-box loops it replaced.

Each example writes three frames files (truth, lidar, radar) as JSON text,
so integers stay JSON integers, and loads them twice: through the table
loader, and through the frozen record loop (``oracles.load_frames_reference``)
for the reference loops.  Fused frames are compared by ``repr``, fused files
by their bytes, and evaluations by ``==``, in both matching modes.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossview import (
    DEFAULT_CENTER_THRESHOLD,
    DetectionBox,
    DEFAULT_IOU_THRESHOLDS,
    FusionConfig,
    evaluate_map,
    fuse_frames,
    fuse_late,
    iou_3d,
    pair_frames,
)
from crossview.formats import FRAMES_MAGIC, load_frames, save_frames
from crossview import fusion
from crossview.boxes import BoxTable, value_fault
from crossview.cli import main

from conftest import make_document
from oracles import evaluate_map_reference, fuse_late_reference, load_frames_reference

CLASSES = ("car", "truck")
FRAME_IDS = ("f0", "f1", "f2")

# Few distinct values, so equal coordinates, sort-key ties and merges are common.
coordinate = st.sampled_from([0.0, -0.0, 0.5, 1, -1, 2.0]) | st.floats(-3.0, 3.0)
length = st.sampled_from([1, 2.0, 4.0, 0.5]) | st.floats(0.25, 5.0)
yaw = (st.sampled_from([math.pi, -math.pi, -0.1, -3.0, 3, 0.0, -0.0, 2 * math.pi])
       | st.floats(-7.0, 7.0))
score = st.sampled_from([0.0, -0.0, 0, 1, 0.5, 0.9]) | st.floats(0.0, 1.0)
finite_or_not = st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 2.0, math.inf, -math.inf, math.nan])


def _record(source):
    velocity = (st.lists(coordinate, min_size=2, max_size=2) if source == "radar"
                else st.none())
    return st.fixed_dictionaries({
        "center": st.lists(coordinate, min_size=3, max_size=3),
        "size": st.lists(length, min_size=3, max_size=3),
        "yaw": yaw, "class_label": st.sampled_from(CLASSES), "score": score,
        "source": st.just(source), "velocity": velocity})


@st.composite
def frames_payload(draw, source):
    """A frames payload: some of FRAME_IDS, each with up to five boxes, and
    boxes repeated with only their velocity changed."""
    frames = []
    for fid in FRAME_IDS:
        if draw(st.booleans()):
            boxes = draw(st.lists(_record(source), max_size=5))
            for box in draw(st.lists(st.sampled_from(boxes), max_size=2)) if boxes else []:
                boxes.append({**box, "velocity": [9.0, -9.0] if source == "radar" else None})
            frames.append({"frame_id": fid, "boxes": boxes})
    return {"frames": frames}


def _write(path, payload):
    path.write_text(make_document(FRAMES_MAGIC, payload, indent=None))
    return path


def _fused_document(frames: dict) -> str:
    """The frames file of ``{frame_id: boxes}`` as first written: each box's
    fields as its record, frames by id, boxes by descending score then sort_key."""
    return make_document(FRAMES_MAGIC, {"frames": [
        {"frame_id": fid, "boxes": [vars(b) for b in sorted(
            frames[fid], key=lambda b: (-b.score, b.sort_key()))]}
        for fid in sorted(frames)]}, indent=None)


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=150)
@given(truth=frames_payload("ground_truth"), lidar=frames_payload("lidar"),
       radar=frames_payload("radar"), data=st.data())
@example(  # identical boxes on both sides with zero scores: a 0.5/0.5 merge at IoU 1
    truth={"frames": [{"frame_id": "f0", "boxes": []}]},
    lidar={"frames": [{"frame_id": "f0", "boxes": [
        {"center": [0, 0, 1], "size": [4, 2, 2], "yaw": -math.pi, "class_label": "car",
         "score": 0, "source": "lidar", "velocity": None}]}]},
    radar={"frames": [{"frame_id": "f0", "boxes": [
        {"center": [0.0, -0.0, 1.0], "size": [4, 2, 2], "yaw": math.pi, "class_label": "car",
         "score": -0.0, "source": "radar", "velocity": [1, 2]}]}]},
    data=None)
def test_table_core_is_the_reference_loops(tmp_path_factory, truth, lidar, radar, data):
    root = tmp_path_factory.mktemp("core")
    paths = {name: _write(root / f"{name}.frames", payload)
             for name, payload in (("truth", truth), ("lidar", lidar), ("radar", radar))}
    boxes = {name: load_frames_reference(path) for name, path in paths.items()}
    tables = {name: load_frames(path, as_table=True) for name, path in paths.items()}

    # A threshold exactly at one same-class pair's IoU, when there is one in (0, 1].
    ious = sorted({iou_3d(a, b) for fid in boxes["lidar"] for a in boxes["lidar"][fid]
                   for b in boxes["radar"].get(fid, []) if a.class_label == b.class_label}
                  - {0.0})
    threshold = 0.3 if not ious or data is None else data.draw(st.sampled_from(ious))
    config = FusionConfig(iou_threshold=threshold)

    ids = sorted(set(boxes["lidar"]) | set(boxes["radar"]))
    want = {fid: fuse_late_reference(boxes["lidar"].get(fid, []), boxes["radar"].get(fid, []),
                                     config) for fid in ids}
    fused = fuse_late(tables["lidar"], tables["radar"], config)
    assert repr(fused.frames()) == repr(want)
    assert repr(fuse_frames(boxes["lidar"], boxes["radar"], config)) == repr(want)
    save_frames(root / "fused.frames", fused)
    assert (root / "fused.frames").read_text() == _fused_document(want)

    reference_pairs = pair_frames(boxes["truth"], want)
    for mode, default in (("iou", DEFAULT_IOU_THRESHOLDS), ("center_distance", None)):
        thresholds = default or dict.fromkeys(CLASSES, DEFAULT_CENTER_THRESHOLD)
        if mode == "iou" and ious and data is not None:
            thresholds = {**thresholds, "car": data.draw(st.sampled_from(ious))}
        expected = _outcome(lambda: evaluate_map_reference(reference_pairs, CLASSES, mode,
                                                           thresholds))
        assert _outcome(lambda: evaluate_map((tables["truth"], fused), CLASSES, mode,
                                                thresholds)) == expected
        assert _outcome(lambda: evaluate_map(reference_pairs, CLASSES, mode,
                                             thresholds)) == expected


def test_zero_score_merge_across_the_yaw_seam():
    """The explicit example above, through ``fuse_late``: weights 0.5/0.5, and a
    ``-0.0`` score that loses the tie to the lidar box's ``0.0``."""
    lidar = DetectionBox((0, 0, 1), (4, 2, 2), -math.pi, "car", 0, "lidar")
    radar = DetectionBox((0.0, -0.0, 1.0), (4, 2, 2), math.pi, "car", -0.0, "radar", (1, 2))
    (merged,) = fuse_late([lidar], [radar])
    assert repr(merged) == repr(fuse_late_reference([lidar], [radar])[0])
    assert merged.center == (0.0, 0.0, 1.0) and math.copysign(1.0, merged.score) == 1.0


def _box(source, **fields):
    """A 4 x 2 x 2 car box whose height is the smallest float: two of them have
    IoU 0, but an even merge, forced below, has height 0, which DetectionBox refuses."""
    return DetectionBox(**{"center": (0.0, 0.0, 1.0), "size": (4.0, 2.0, 5e-324), "yaw": 0.0,
                           "class_label": "car", "score": 0.5, "source": source, **fields})


# (lidar, radar) frames holding boxes of the wrong source: the first in frame
# id order is the one reported, lidar before radar within a frame.
SOURCE_FAULTS = {
    "lidar": ({"f0": [_box("lidar"), _box("radar")]}, {"f0": []}),
    "radar": ({}, {"f0": [_box("radar"), _box("fused"), _box("lidar")]}),
    "radar-frame-first": ({"f1": [_box("radar")]}, {"f0": [_box("lidar")]}),
    "lidar-in-the-same-frame": ({"f0": [_box("ground_truth")]}, {"f0": [_box("lidar")]}),
}


@pytest.mark.parametrize("case", sorted(SOURCE_FAULTS))
def test_wrong_sources_are_refused_in_frame_order(tmp_path, capsys, case):
    lidar, radar = SOURCE_FAULTS[case]
    want = _outcome(lambda: {fid: fuse_late_reference(lidar.get(fid, []), radar.get(fid, []))
                             for fid in sorted(set(lidar) | set(radar))})
    assert want.startswith("ValueError: ") and _outcome(lambda: fuse_frames(lidar, radar)) == want
    save_frames(tmp_path / "lidar.frames", lidar)
    save_frames(tmp_path / "radar.frames", radar)
    rc = main(["fuse", "--lidar", str(tmp_path / "lidar.frames"),
               "--radar", str(tmp_path / "radar.frames"), "--out", str(tmp_path / "fused.frames")])
    assert (rc, capsys.readouterr().err) == (4, f"error: {want.split(': ', 1)[1]}\n")
    assert not (tmp_path / "fused.frames").exists()


# With every IoU forced to 1, a merge whose box DetectionBox would refuse is
# refused with its text, unless a wrong source comes first: frames go in id
# order, and a frame's sources are checked before its boxes merge.
MERGE_FAULTS = {
    "merge": ({"f0": [_box("lidar", score=0.2)], "f1": [_box("lidar")]},
              {"f1": [_box("radar")], "f2": [_box("radar")]}, "size components must be positive"),
    "merge-frame-first": ({"f0": [_box("lidar")], "f1": [_box("radar")]}, {"f0": [_box("radar")]},
                          "size components must be positive"),
    "source-in-the-merge-frame": ({"f0": [_box("lidar")]}, {"f0": [_box("radar"), _box("lidar")]},
                                  "radar_detections contains a 'lidar' box"),
}


@pytest.mark.parametrize("case", sorted(MERGE_FAULTS))
def test_unstorable_merges_are_refused_in_frame_order(case):
    lidar, radar, text = MERGE_FAULTS[case]
    with pytest.raises(ValueError) as refused:
        fusion._fuse(BoxTable.from_frames(lidar), BoxTable.from_frames(radar), None,
                     lambda both, ia, ib: np.ones(len(ia)))
    assert str(refused.value) == text


ROWS = st.tuples(st.tuples(*[finite_or_not] * 3), st.tuples(*[finite_or_not] * 3),
                 finite_or_not, finite_or_not, st.tuples(finite_or_not, finite_or_not))


@given(rows=st.lists(ROWS, min_size=1, max_size=4))
def test_value_fault_is_the_constructors_first_refusal(rows):
    """``value_fault`` names the first row DetectionBox refuses, in its words."""
    want = None
    for k, (center, size, yaw, score, velocity) in enumerate(rows):
        try:
            DetectionBox(center, size, yaw, "car", score, "radar", velocity)
        except ValueError as exc:
            want = (k, str(exc))
            break
    columns = [np.array(column, dtype=float) for column in zip(*rows)]
    assert value_fault(*columns) == want


def _car(x, source, score=0.9, y=0.0):
    return DetectionBox((x, y, 1.0), (4.0, 2.0, 2.0), 0.0, "car", score, source)


def test_equal_ious_go_to_the_lower_sort_key():
    """Two lidar boxes, or two radar boxes, at x = +1 and -1 around one box at 0
    have the same IoU, 0.6 exactly; the one at -1, listed second, merges."""
    right, left, middle = _car(1.0, "lidar"), _car(-1.0, "lidar"), _car(0.0, "radar", 0.5)
    assert iou_3d(right, middle) == iou_3d(left, middle) == 0.6
    for lidar, radar in (([right, left], [middle]),
                         ([_car(0.0, "lidar", 0.5)], [_car(1.0, "radar"), _car(-1.0, "radar")])):
        want = fuse_late_reference(lidar, radar)
        assert repr(fuse_frames({"a": lidar}, {"a": radar})["a"]) == repr(want)
        assert [b.center[0] for b in want if b.source != "fused"] == [1.0]


@pytest.mark.parametrize("mode", ["iou", "center_distance"])
def test_equal_matches_claim_the_truth_first_in_sort_key_order(mode):
    """A prediction at 0 is as close to truth at +1 as at -1 and claims the one
    at -1, listed second; a weaker prediction at -1.5 reaches only that one, so
    it is a false positive, and AP is not 1."""
    truth = {"a": [_car(1.0, "ground_truth"), _car(-1.0, "ground_truth")]}
    predictions = {"a": [_car(-1.5, "fused", 0.4), _car(0.0, "fused", 0.8)]}
    pairs = pair_frames(truth, predictions)
    thresholds = {"car": 0.5 if mode == "iou" else 2.0}
    want = evaluate_map_reference(pairs, ("car",), mode, thresholds)
    assert want.per_class["car"].ap < 1.0
    assert evaluate_map(pairs, ("car",), mode, thresholds) == want


def test_center_distance_is_math_hypot():
    """numpy's hypot gives 8.259805074553157 here and math.hypot ...158: at a
    threshold of the former, the prediction misses."""
    dx, dy = -1.0725628041289215, -8.189871116251659
    assert math.hypot(dx, dy) == 8.259805074553158
    pairs = pair_frames({"a": [_car(0.0, "ground_truth")]}, {"a": [_car(dx, "fused", y=dy)]})
    thresholds = {"car": 8.259805074553157}
    want = evaluate_map_reference(pairs, ("car",), "center_distance", thresholds)
    assert want.per_class["car"].ap == 0.0
    assert evaluate_map(pairs, ("car",), "center_distance", thresholds) == want


# Floats a box column may hold that a careless conversion loses: both zeros,
# subnormals, the largest double, and values with a full mantissa.
EDGE_FLOATS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                        1.7976931348623157e308, -1.5, math.pi])


def _seeded_table(seed: int, counts=None) -> BoxTable:
    """A table of ``counts`` boxes a frame (random counts, empty frames among
    them, if None), half its floats drawn from every finite bit pattern and
    half from EDGE_FLOATS, every code, and about half its rows without velocity."""
    rng = np.random.default_rng(seed)
    if counts is None:
        counts = rng.integers(0, 5, size=int(rng.integers(1, 7))).tolist()
    n = sum(counts)

    def floats(*shape):
        drawn = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)
        drawn = np.where(np.isfinite(drawn), drawn, -0.0)
        return np.where(rng.random(shape) < 0.5, rng.choice(EDGE_FLOATS, size=shape), drawn)

    has_velocity = rng.random(n) < 0.5
    return BoxTable(tuple(f"{seed}-{k}" for k in range(len(counts))),
                    np.array([0, *np.cumsum(counts, dtype=np.int64)]), floats(n, 3), floats(n, 3),
                    floats(n), floats(n), rng.integers(0, 6, n).astype(np.int8),
                    rng.integers(0, 4, n).astype(np.int8),
                    np.where(has_velocity[:, None], floats(n, 2), 0.0), has_velocity)


def _bits(table: BoxTable) -> list:
    """Every value of ``table``, each float column as its uint64 bit patterns."""
    return [table.frame_ids, table.offsets.tolist(),
            *(c.view(np.uint64).tolist() if c.dtype == np.float64 else c.tolist()
              for c in table.columns)]


@pytest.mark.parametrize("seed, counts", [*((seed, None) for seed in range(16)),
                                          (16, []), (17, [0, 0]), (18, [0, 3, 0, 1])],
                         ids=[*map(str, range(16)), "no-frames", "empty-frames", "some-empty"])
def test_of_and_values_give_back_every_bit(seed, counts):
    """``BoxTable.values`` gives back what ``BoxTable.of`` takes: a table read
    out and built again, directly or through ``DetectionBox`` mappings, holds
    the same bits in every column, -0.0 and subnormals included."""
    table = _seeded_table(seed, counts)
    rows = np.arange(len(table))
    again = BoxTable.of(table.frame_ids, np.diff(table.offsets), *table.values(rows))
    assert _bits(again) == _bits(table)
    assert _bits(BoxTable.from_frames(table.frames())) == _bits(table)


def test_seeded_tables_hold_every_edge():
    """The round trip above meets every edge value and both velocity cases."""
    tables = [_seeded_table(seed) for seed in range(16)]
    floats = np.concatenate([np.hstack((t.center, t.size, t.yaw[:, None], t.score[:, None],
                                        t.velocity)).ravel() for t in tables])
    assert set(EDGE_FLOATS.view(np.uint64).tolist()) <= set(floats.view(np.uint64).tolist())
    assert all(any(v in t.has_velocity.tolist() for t in tables) for v in (True, False))
    assert any(0 in np.diff(t.offsets).tolist() for t in tables)
