"""Average precision and mean AP over framed detection sets.

Predictions are matched to ground truth per frame, greedily in descending
score order, each ground-truth box usable once.  Matches can be judged by
3D IoU (per-class thresholds) or by BEV center distance.  AP is the
101-point interpolated area under the precision-recall curve; classes with
no ground truth anywhere have undefined AP and are skipped by the mean.

In IoU mode an evaluation takes every nonzero IoU it may need, of every
same-class prediction and truth pair of every frame, from one
``boxes.class_pairs`` call, which gives ``iou_3d``'s values bit for bit,
and scores each class from that table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# iou_3d is the per-pair definition that class_pairs reproduces; the benchmark's
# tracer counts calls through this module's binding.
from .boxes import CLASSES, DetectionBox, center_distance_bev, iou_3d  # noqa: F401
from .boxes import class_pairs, score_order

DEFAULT_IOU_THRESHOLDS = {
    "car": 0.5,
    "truck": 0.5,
    "bus": 0.5,
    "golf_cart": 0.5,
    "motorcycle": 0.25,
    "pedestrian": 0.25,
}

DEFAULT_CENTER_THRESHOLD = 2.0

MATCHING_MODES = ("iou", "center_distance")


@dataclass(frozen=True)
class FramePair:
    """Predictions and ground truth sharing one frame id."""

    frame_id: str
    predictions: tuple[DetectionBox, ...]
    ground_truth: tuple[DetectionBox, ...]

    @staticmethod
    def of(frame_id, predictions, ground_truth) -> "FramePair":
        return FramePair(str(frame_id), tuple(predictions), tuple(ground_truth))


@dataclass(frozen=True)
class APResult:
    class_label: str
    ap: float | None
    precision_curve: tuple[float, ...]
    recall_curve: tuple[float, ...]
    matching_mode: str
    threshold: float
    num_gt: int
    num_predictions: int


@dataclass(frozen=True)
class MapResult:
    per_class: dict[str, APResult]
    mean_ap: float
    matching_mode: str


def pair_frames(
    ground_truth: dict[str, list[DetectionBox]],
    predictions: dict[str, list[DetectionBox]],
) -> list[FramePair]:
    """Join per-frame box maps on frame id; a missing side is empty."""
    ids = sorted(set(ground_truth) | set(predictions))
    return [
        FramePair.of(fid, predictions.get(fid, ()), ground_truth.get(fid, ()))
        for fid in ids
    ]


def _check_frames(frames: list[FramePair]) -> None:
    ids = [f.frame_id for f in frames]
    if len(set(ids)) != len(ids):
        raise ValueError("frame ids must be unique across the evaluation set")


def _groups(frames: list[FramePair], classes) -> list[tuple[str, str, list, list]]:
    """Class by class and frame by frame: the class, the frame id, the frame's
    predictions of the class in descending score order and its truth of the
    class in ``sort_key`` order."""
    out = []
    for label in classes:
        for frame in frames:
            preds = [b for b in frame.predictions if b.class_label == label]
            gts = [b for b in frame.ground_truth if b.class_label == label]
            preds.sort(key=score_order)
            gts.sort(key=lambda b: b.sort_key())
            out.append((label, frame.frame_id, preds, gts))
    return out


def _iou_tables(groups: list[tuple]) -> list[dict[tuple[int, int], float]]:
    """Per group, (prediction rank, truth rank) -> IoU for each pair whose IoU
    is nonzero."""
    pairs = class_pairs([p for _, _, p, _ in groups], [g for _, _, _, g in groups],
                        lambda iou: iou > 0.0)
    return [{(p, g): m for m, p, g in group} for group in pairs]


def _match_frame(
    predictions: list[DetectionBox],
    ground_truth: list[DetectionBox],
    mode: str,
    threshold: float,
    ious: dict[tuple[int, int], float],
) -> list[bool]:
    """True/false-positive flags for predictions in score order.

    IoU mode reads each pair's IoU from ``ious``, the frame's nonzero IoUs by
    (prediction rank, truth rank); a missing pair has IoU 0, which no
    positive threshold accepts.
    """
    taken = [False] * len(ground_truth)
    flags = []
    for p, pred in enumerate(predictions):
        best = -1
        best_metric = None
        for g, gt in enumerate(ground_truth):
            if taken[g]:
                continue
            if mode == "iou":
                m = ious.get((p, g), 0.0)
                if m < threshold:
                    continue
                if best_metric is None or m > best_metric:
                    best, best_metric = g, m
            else:
                m = center_distance_bev(pred, gt)
                if m > threshold:
                    continue
                if best_metric is None or m < best_metric:
                    best, best_metric = g, m
        if best >= 0:
            taken[best] = True
            flags.append(True)
        else:
            flags.append(False)
    return flags


def _interpolated_ap(recall: np.ndarray, precision: np.ndarray) -> float:
    # Precision envelope from the right, sampled at recall = 0.00 .. 1.00.
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, np.arange(101) / 100.0, side="left")
    points = np.where(idx < recall.shape[0], envelope[np.minimum(idx, recall.shape[0] - 1)], 0.0)
    return float(np.sum(points) / 101.0)


def check_threshold(threshold: float, where: str = "threshold") -> float:
    """A matching threshold if positive; the CLI reads its settings through this too."""
    if not threshold > 0:
        raise ValueError(f"{where} must be positive, got {threshold!r}")
    return threshold


def _threshold(class_label: str, matching_mode: str, threshold: float | None) -> float:
    if class_label not in CLASSES:
        raise ValueError(f"unknown class_label {class_label!r}")
    if matching_mode not in MATCHING_MODES:
        raise ValueError(f"unknown matching_mode {matching_mode!r}")
    if threshold is None:
        if matching_mode == "iou":
            threshold = DEFAULT_IOU_THRESHOLDS[class_label]
        else:
            threshold = DEFAULT_CENTER_THRESHOLD
    return check_threshold(threshold)


def _evaluate(frames: list[FramePair], thresholds: dict[str, float],
              matching_mode: str) -> dict[str, APResult]:
    """AP per class of ``thresholds``; IoU mode measures every pair of every
    class and frame in one kernel call."""
    _check_frames(frames)
    groups = _groups(frames, thresholds)
    tables = _iou_tables(groups) if matching_mode == "iou" else [{} for _ in groups]
    per_class: dict[str, list] = {label: [] for label in thresholds}
    for (label, *group), ious in zip(groups, tables):
        per_class[label].append((*group, ious))
    return {label: _ap(label, per_class[label], matching_mode, threshold)
            for label, threshold in thresholds.items()}


def _ap(class_label, groups, matching_mode, threshold) -> APResult:
    outcomes = []  # (score, frame_id, rank) -> tp flag
    num_gt = 0
    num_pred = 0
    for frame_id, preds, gts, ious in groups:
        num_gt += len(gts)
        num_pred += len(preds)
        for rank, flag in enumerate(_match_frame(preds, gts, matching_mode, threshold, ious)):
            outcomes.append((preds[rank].score, frame_id, rank, flag))

    if num_gt == 0:
        return APResult(class_label, None, (), (), matching_mode, threshold, 0, num_pred)
    if not outcomes:
        return APResult(class_label, 0.0, (), (), matching_mode, threshold, num_gt, 0)

    outcomes.sort(key=lambda o: (-o[0], o[1], o[2]))
    tp = np.cumsum([1.0 if o[3] else 0.0 for o in outcomes])
    fp = np.cumsum([0.0 if o[3] else 1.0 for o in outcomes])
    precision = tp / (tp + fp)
    recall = tp / num_gt
    ap = _interpolated_ap(recall, precision)
    return APResult(
        class_label=class_label,
        ap=ap,
        precision_curve=tuple(float(p) for p in precision),
        recall_curve=tuple(float(r) for r in recall),
        matching_mode=matching_mode,
        threshold=threshold,
        num_gt=num_gt,
        num_predictions=num_pred,
    )


def evaluate_ap(
    frames: list[FramePair],
    class_label: str,
    matching_mode: str = "iou",
    threshold: float | None = None,
) -> APResult:
    """AP for one class over all frames; None if the class has no truth."""
    threshold = _threshold(class_label, matching_mode, threshold)
    return _evaluate(frames, {class_label: threshold}, matching_mode)[class_label]


def evaluate_map(
    frames: list[FramePair],
    classes: tuple[str, ...] = CLASSES,
    matching_mode: str = "iou",
    thresholds: dict[str, float] | None = None,
) -> MapResult:
    """Per-class AP plus the mean over classes that have ground truth."""
    used = {label: _threshold(label, matching_mode,
                              None if thresholds is None else thresholds.get(label))
            for label in classes}
    per_class = _evaluate(frames, used, matching_mode) if used else {}
    defined = [r.ap for r in per_class.values() if r.ap is not None]
    if not defined:
        raise ValueError("no evaluable classes: every class lacks ground truth")
    mean_ap = float(np.sum(np.asarray(defined)) / len(defined))
    return MapResult(per_class=per_class, mean_ap=mean_ap, matching_mode=matching_mode)
