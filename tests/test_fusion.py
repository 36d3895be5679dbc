"""Late-fusion matching and box merging."""

from __future__ import annotations

import math

import numpy as np
import pytest

from crossview import DetectionBox, FusionConfig, fuse_late, iou_3d
from crossview.boxes import BoxTable
from crossview.fusion import fuse_frames

from conftest import random_box, rescore_frames, shifted_copy


def make_box(center=(0.0, 0.0, 1.0), size=(4.0, 2.0, 2.0), yaw=0.0,
             class_label="car", score=0.9, source="lidar", velocity=None):
    return DetectionBox(center=center, size=size, yaw=yaw,
                        class_label=class_label, score=score,
                        source=source, velocity=velocity)


def test_identical_pair_fuses_to_one_box():
    l = make_box(score=0.8)
    r = make_box(score=0.6, source="radar", velocity=(3.0, -1.0))
    out = fuse_late([l], [r])
    assert len(out) == 1
    fused = out[0]
    assert fused.source == "fused"
    assert fused.score == 0.8
    assert fused.center == l.center
    assert fused.size == l.size
    assert fused.velocity == (3.0, -1.0)


def test_count_conservation():
    rng = np.random.default_rng(4)
    for _ in range(100):
        lidar = [random_box(rng, source="lidar", spread=8.0)
                 for _ in range(rng.integers(0, 6))]
        radar = [random_box(rng, source="radar", spread=8.0)
                 for _ in range(rng.integers(0, 6))]
        out = fuse_late(lidar, radar)
        matches = sum(1 for b in out if b.source == "fused")
        assert len(out) == len(lidar) + len(radar) - matches
        # Unmatched boxes come through untouched.
        passthrough = {b for b in out if b.source != "fused"}
        assert passthrough <= set(lidar) | set(radar)


def test_class_labels_never_mix():
    l = make_box(class_label="car")
    r = make_box(class_label="truck", size=(4.0, 2.0, 2.0), source="radar")
    out = fuse_late([l], [r])
    assert len(out) == 2
    assert all(b.source != "fused" for b in out)


def test_iou_threshold_gates_matching():
    l = make_box(size=(2.0, 2.0, 2.0))
    r = shifted_copy(l, dx=1.0, source="radar")  # IoU = 1/3
    near = fuse_late([l], [r], FusionConfig(iou_threshold=0.3))
    far = fuse_late([l], [r], FusionConfig(iou_threshold=0.4))
    assert len(near) == 1 and near[0].source == "fused"
    assert len(far) == 2


def test_merge_weights_follow_scores():
    l = make_box(center=(0.0, 0.0, 1.0), score=0.8)
    r = make_box(center=(1.0, 0.0, 1.0), score=0.2, source="radar")
    out = fuse_late([l], [r], FusionConfig(iou_threshold=0.1))
    assert len(out) == 1
    # Weighted center: 0.8*0 + 0.2*1 = 0.2.
    assert out[0].center[0] == pytest.approx(0.2, abs=1e-12)
    assert out[0].score == 0.8


def test_zero_scores_average_evenly():
    l = make_box(center=(0.0, 0.0, 1.0), score=0.0)
    r = make_box(center=(1.0, 0.0, 1.0), score=0.0, source="radar")
    out = fuse_late([l], [r], FusionConfig(iou_threshold=0.1))
    assert len(out) == 1
    assert out[0].center[0] == pytest.approx(0.5, abs=1e-12)


def test_yaw_merge_is_circular():
    # Yaws just either side of the pi seam must average to pi,
    # not to zero as a naive arithmetic mean would.
    l = make_box(yaw=math.pi - 0.1, score=0.5)
    r = make_box(yaw=-math.pi + 0.1, score=0.5, source="radar")
    out = fuse_late([l], [r], FusionConfig(iou_threshold=0.1))
    assert len(out) == 1
    assert abs(out[0].yaw) == pytest.approx(math.pi, abs=1e-9)


def test_greedy_prefers_highest_overlap():
    # One radar box overlaps two lidar boxes; the tighter pair wins and
    # the looser lidar box is passed through unmatched.
    tight = make_box(center=(0.0, 0.0, 1.0), size=(2.0, 2.0, 2.0), score=0.9)
    loose = make_box(center=(1.2, 0.0, 1.0), size=(2.0, 2.0, 2.0), score=0.9)
    r = make_box(center=(0.1, 0.0, 1.0), size=(2.0, 2.0, 2.0),
                 score=0.5, source="radar")
    assert iou_3d(tight, r) > iou_3d(loose, r) > 0.0
    out = fuse_late([tight, loose], [r], FusionConfig(iou_threshold=0.05))
    fused = [b for b in out if b.source == "fused"]
    assert len(out) == 2
    assert len(fused) == 1
    assert loose in out


def test_one_to_one_matching():
    # Two radar boxes both overlap one lidar box; only one may claim it.
    l = make_box(size=(3.0, 3.0, 2.0))
    r1 = shifted_copy(l, dx=0.2, source="radar")
    r2 = shifted_copy(l, dx=0.4, source="radar")
    out = fuse_late([l], [r1, r2], FusionConfig(iou_threshold=0.1))
    assert len(out) == 2
    assert sum(1 for b in out if b.source == "fused") == 1


def test_source_validation():
    l = make_box(source="lidar")
    r = make_box(source="radar")
    with pytest.raises(ValueError):
        fuse_late([r], [r])
    with pytest.raises(ValueError):
        fuse_late([l], [l])
    with pytest.raises(ValueError):
        fuse_late([make_box(source="fused")], [r])


def test_output_sorted_by_score():
    rng = np.random.default_rng(21)
    lidar = [random_box(rng, source="lidar", spread=10.0) for _ in range(5)]
    radar = [random_box(rng, source="radar", spread=10.0) for _ in range(5)]
    out = fuse_late(lidar, radar)
    scores = [b.score for b in out]
    assert scores == sorted(scores, reverse=True)


def test_empty_inputs():
    l = make_box()
    assert fuse_late([], []) == []
    assert fuse_late([l], []) == [l]
    r = make_box(source="radar")
    assert fuse_late([], [r]) == [r]


def test_mixed_input_forms_rejected():
    table = BoxTable.from_frames({"000000": [make_box()]})
    boxes = [make_box(source="radar")]
    for lidar, radar in ((table, boxes), (boxes, table)):
        with pytest.raises(TypeError, match="two BoxTables or two lists of DetectionBox"):
            fuse_late(lidar, radar)


def test_config_validation():
    with pytest.raises(ValueError):
        FusionConfig(iou_threshold=0.0)
    with pytest.raises(ValueError):
        FusionConfig(iou_threshold=1.5)


@pytest.mark.parametrize("threshold", [0.1, 0.3, 0.5])
def test_fuse_frames_is_fuse_late_frame_by_frame(threshold):
    """The kernel's pairs give each frame what its own scalar loop gives."""
    frames = rescore_frames(12)
    lidar = {fid: boxes for fid, boxes in frames.lidar.items() if fid[-1] != "3"}
    radar = {fid: boxes for fid, boxes in frames.radar.items() if fid[-1] != "7"}
    config = FusionConfig(iou_threshold=threshold)
    fused = fuse_frames(lidar, radar, config)
    assert list(fused) == sorted(set(lidar) | set(radar))
    merges = 0
    for fid, boxes in fused.items():
        want = fuse_late(lidar.get(fid, []), radar.get(fid, []), config)
        assert repr(boxes) == repr(want), fid
        merges += sum(b.source == "fused" for b in boxes)
    assert merges > 100


def test_fuse_frames_of_nothing():
    assert fuse_frames({}, {}) == {}
    box = make_box()
    assert fuse_frames({"a": [box]}, {"b": []}) == {"a": [box], "b": []}


def test_fuse_frames_merges_at_exactly_the_threshold():
    l = make_box(size=(2.0, 2.0, 2.0))
    r = shifted_copy(l, dx=1.0, source="radar")
    config = FusionConfig(iou_threshold=iou_3d(l, r))
    assert [b.source for b in fuse_frames({"a": [l]}, {"a": [r]}, config)["a"]] == ["fused"]
