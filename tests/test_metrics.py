"""Average-precision evaluation against a plain-loop reference."""

from __future__ import annotations

import numpy as np
import pytest

from crossview import (
    DEFAULT_CENTER_THRESHOLD,
    DEFAULT_IOU_THRESHOLDS,
    DetectionBox,
    FramePair,
    evaluate_ap,
    evaluate_map,
    pair_frames,
)
from crossview.boxes import BoxTable

from conftest import random_box, rescore_frames, shifted_copy
from oracles import ap_frames_reference


def gt_box(center, size=(4.0, 2.0, 2.0), class_label="car", yaw=0.0):
    return DetectionBox(center=center, size=size, yaw=yaw,
                        class_label=class_label, score=1.0,
                        source="ground_truth")


def pred_box(center, score, size=(4.0, 2.0, 2.0), class_label="car",
             yaw=0.0, source="fused"):
    return DetectionBox(center=center, size=size, yaw=yaw,
                        class_label=class_label, score=score, source=source)


def test_perfect_predictions_score_one():
    frames = [
        FramePair.of("000000",
                     [pred_box((0.0, 0.0, 1.0), 0.9),
                      pred_box((20.0, 0.0, 1.0), 0.8)],
                     [gt_box((0.0, 0.0, 1.0)), gt_box((20.0, 0.0, 1.0))]),
    ]
    result = evaluate_ap(frames, "car")
    assert result.ap == 1.0
    assert result.num_gt == 2
    assert result.num_predictions == 2


def test_all_misses_score_zero():
    frames = [
        FramePair.of("000000",
                     [pred_box((50.0, 50.0, 1.0), 0.9)],
                     [gt_box((0.0, 0.0, 1.0))]),
    ]
    assert evaluate_ap(frames, "car").ap == 0.0


def test_no_ground_truth_gives_none():
    frames = [FramePair.of("000000", [pred_box((0.0, 0.0, 1.0), 0.9)], [])]
    result = evaluate_ap(frames, "car")
    assert result.ap is None
    assert result.num_gt == 0


def test_no_predictions_gives_zero():
    frames = [FramePair.of("000000", [], [gt_box((0.0, 0.0, 1.0))])]
    assert evaluate_ap(frames, "car").ap == 0.0


def test_tail_false_positives_dilute_ap():
    # 100 ground-truth cars over 100 frames.  Config A matches every one.
    # Config B matches 85, then emits 14 false positives at scores above
    # its final true positive.  The precision envelope then samples as
    # 1.0 for the 86 recall points up to 0.85 and 86/100 afterwards:
    # AP = (86 * 1.0 + 15 * 0.86) / 101 = 86.9 / 101, and with the
    # interpolation arithmetic used here that lands exactly on 0.86.
    frames_a = []
    frames_b = []
    for k in range(100):
        fid = f"{k:06d}"
        gt = gt_box((0.0, 0.0, 1.0))
        frames_a.append(FramePair.of(fid, [pred_box((0.0, 0.0, 1.0), 0.9)], [gt]))
        if k < 85:
            preds = [pred_box((0.0, 0.0, 1.0), 0.9)]
        elif k < 99:
            preds = [pred_box((60.0, 60.0, 1.0), 0.5)]
        else:
            preds = [pred_box((0.0, 0.0, 1.0), 0.3)]
        frames_b.append(FramePair.of(fid, preds, [gt]))

    ap_a = evaluate_ap(frames_a, "car").ap
    ap_b = evaluate_ap(frames_b, "car").ap
    assert ap_a == 1.0
    assert ap_b == 0.86
    assert ap_a - ap_b == pytest.approx(0.14, abs=1e-12)


def test_matches_reference_implementation():
    rng = np.random.default_rng(2024)
    for trial in range(300):
        frames = []
        for k in range(int(rng.integers(1, 4))):
            gts, preds = [], []
            for _ in range(int(rng.integers(0, 5))):
                gts.append(random_box(rng, source="ground_truth",
                                      class_label="car", spread=12.0))
            for g in gts:
                if rng.random() < 0.7:
                    preds.append(shifted_copy(
                        g, dx=float(rng.uniform(-1.0, 1.0)),
                        score=float(rng.random()), source="fused"))
            for _ in range(int(rng.integers(0, 3))):
                preds.append(random_box(rng, source="fused",
                                        class_label="car", spread=12.0))
            frames.append(FramePair.of(f"{k:06d}", preds, gts))
        got = evaluate_ap(frames, "car", matching_mode="center_distance",
                          threshold=2.0)
        want = ap_frames_reference(frames, "car", mode="center_distance",
                                   threshold=2.0)
        if want is None:
            assert got.ap is None
        else:
            assert got.ap == want, f"trial {trial}"


def test_iou_mode_matches_reference():
    rng = np.random.default_rng(555)
    for trial in range(100):
        gts = [random_box(rng, source="ground_truth", class_label="truck",
                          spread=10.0) for _ in range(int(rng.integers(1, 4)))]
        preds = [shifted_copy(g, dx=float(rng.uniform(-0.5, 0.5)),
                              score=float(rng.random()), source="lidar")
                 for g in gts if rng.random() < 0.8]
        frames = [FramePair.of("000000", preds, gts)]
        got = evaluate_ap(frames, "truck", matching_mode="iou", threshold=0.5)
        want = ap_frames_reference(frames, "truck", mode="iou", threshold=0.5)
        assert got.ap == want, f"trial {trial}"


def test_matching_consumes_by_score_order():
    # Two predictions overlap one ground-truth box; the higher-scoring
    # one takes it and the other becomes a false positive, even though
    # the lower-scoring one is geometrically closer.
    gt = gt_box((0.0, 0.0, 1.0))
    close = pred_box((0.1, 0.0, 1.0), score=0.4)
    far = pred_box((1.0, 0.0, 1.0), score=0.9)
    frames = [FramePair.of("000000", [close, far], [gt])]
    result = evaluate_ap(frames, "car", matching_mode="center_distance")
    # Pooled order: far (TP), close (FP): precision 1, 1/2; recall 1, 1.
    assert result.ap == 1.0
    assert result.precision_curve == (1.0, 0.5)
    assert result.recall_curve == (1.0, 1.0)


def test_default_thresholds_per_class():
    assert DEFAULT_IOU_THRESHOLDS["car"] == 0.5
    assert DEFAULT_IOU_THRESHOLDS["truck"] == 0.5
    assert DEFAULT_IOU_THRESHOLDS["bus"] == 0.5
    assert DEFAULT_IOU_THRESHOLDS["golf_cart"] == 0.5
    assert DEFAULT_IOU_THRESHOLDS["pedestrian"] == 0.25
    assert DEFAULT_IOU_THRESHOLDS["motorcycle"] == 0.25
    assert DEFAULT_CENTER_THRESHOLD == 2.0

    # evaluate_ap picks the class default when no threshold is given.
    gt = gt_box((0.0, 0.0, 0.85), size=(0.6, 0.6, 1.7),
                class_label="pedestrian")
    shifted = pred_box((0.25, 0.0, 0.85), score=0.9, size=(0.6, 0.6, 1.7),
                       class_label="pedestrian")
    frames = [FramePair.of("000000", [shifted], [gt])]
    loose = evaluate_ap(frames, "pedestrian")
    assert loose.threshold == 0.25
    assert loose.ap == 1.0
    strict = evaluate_ap(frames, "pedestrian", threshold=0.5)
    assert strict.ap == 0.0


def test_cross_class_boxes_are_ignored():
    frames = [
        FramePair.of("000000",
                     [pred_box((0.0, 0.0, 1.0), 0.9, class_label="truck",
                               size=(8.0, 2.5, 3.2))],
                     [gt_box((0.0, 0.0, 1.0))]),
    ]
    result = evaluate_ap(frames, "car")
    assert result.ap == 0.0
    assert result.num_predictions == 0


def test_map_means_defined_classes_only():
    frames = [
        FramePair.of("000000",
                     [pred_box((0.0, 0.0, 1.0), 0.9)],
                     [gt_box((0.0, 0.0, 1.0))]),
    ]
    result = evaluate_map(frames, classes=("car", "bus"))
    assert result.per_class["car"].ap == 1.0
    assert result.per_class["bus"].ap is None
    assert result.mean_ap == 1.0


def test_map_with_no_evaluable_class_raises():
    frames = [FramePair.of("000000", [pred_box((0.0, 0.0, 1.0), 0.9)], [])]
    with pytest.raises(ValueError, match="no evaluable classes"):
        evaluate_map(frames, classes=("car",))


def test_duplicate_frame_ids_rejected():
    f = FramePair.of("000000", [], [gt_box((0.0, 0.0, 1.0))])
    with pytest.raises(ValueError, match="unique"):
        evaluate_ap([f, f], "car")
    truth = BoxTable.from_frames({f.frame_id: f.ground_truth})
    with pytest.raises(ValueError, match="unique"):
        evaluate_ap((BoxTable((f.frame_id, f.frame_id), np.array([0, 1, 2]),
                              *(np.concatenate((c, c)) for c in truth.columns)),
                     BoxTable.from_frames({})), "car")


def test_mixed_input_forms_rejected():
    f = FramePair.of("000000", [pred_box((0.0, 0.0, 1.0), 0.9)], [gt_box((0.0, 0.0, 1.0))])
    table = BoxTable.from_frames({f.frame_id: f.ground_truth})
    for frames in ((table, [f]), ([f], table), [f, table], (table,), (table, table, table)):
        with pytest.raises(TypeError, match="list of FramePair or a .* pair of BoxTables"):
            evaluate_map(frames, classes=("car",))
        with pytest.raises(TypeError, match="list of FramePair or a .* pair of BoxTables"):
            evaluate_ap(frames, "car")


def test_frame_permutation_invariance():
    rng = np.random.default_rng(31)
    frames = []
    for k in range(6):
        gts = [random_box(rng, source="ground_truth", class_label="car",
                          spread=10.0) for _ in range(2)]
        preds = [shifted_copy(g, dx=0.3, score=float(rng.random()),
                              source="fused") for g in gts]
        frames.append(FramePair.of(f"{k:06d}", preds, gts))
    forward = evaluate_ap(frames, "car", matching_mode="center_distance")
    backward = evaluate_ap(list(reversed(frames)), "car",
                           matching_mode="center_distance")
    assert forward.ap == backward.ap
    assert forward.precision_curve == backward.precision_curve


def test_argument_validation():
    frames = [FramePair.of("000000", [], [gt_box((0.0, 0.0, 1.0))])]
    with pytest.raises(ValueError):
        evaluate_ap(frames, "boat")
    with pytest.raises(ValueError):
        evaluate_ap(frames, "car", matching_mode="hungarian")
    with pytest.raises(ValueError):
        evaluate_ap(frames, "car", threshold=0.0)


def test_pair_frames_takes_union_of_ids():
    gt = {"000000": [gt_box((0.0, 0.0, 1.0))], "000002": []}
    pred = {"000001": [pred_box((0.0, 0.0, 1.0), 0.5)]}
    pairs = pair_frames(gt, pred)
    assert [p.frame_id for p in pairs] == ["000000", "000001", "000002"]
    assert pairs[0].ground_truth and not pairs[0].predictions
    assert pairs[1].predictions and not pairs[1].ground_truth
    assert not pairs[2].predictions and not pairs[2].ground_truth


@pytest.mark.parametrize("predictions", ["lidar", "radar"])
def test_iou_mode_map_matches_reference_on_a_scenario(predictions):
    """One IoU table for the whole file scores every class as the plain loop does."""
    frames = rescore_frames(13)
    pairs = pair_frames(frames.ground_truth, getattr(frames, predictions))
    thresholds = {"car": 0.3, "bus": 0.7}
    result = evaluate_map(pairs, matching_mode="iou", thresholds=thresholds)
    for label, got in result.per_class.items():
        threshold = thresholds.get(label, DEFAULT_IOU_THRESHOLDS[label])
        assert got.threshold == threshold
        assert got.ap == ap_frames_reference(pairs, label, "iou", threshold), label
        assert got == evaluate_ap(pairs, label, "iou", threshold)
    assert all(r.ap is not None and 0.0 < r.ap < 1.0 for r in result.per_class.values())
