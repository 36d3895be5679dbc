"""Average precision and mean AP over framed detection sets.

Predictions are matched to ground truth per frame, greedily in descending
score order, each ground-truth box usable once.  Matches can be judged by
3D IoU (per-class thresholds) or by BEV center distance.  AP is the
101-point interpolated area under the precision-recall curve; classes with
no ground truth anywhere have undefined AP and are skipped by the mean.

``evaluate_map`` and ``evaluate_ap`` take frame pairs, or a
``(ground_truth, predictions)`` pair of ``BoxTable``s, frames joined on id,
and score both through one matcher on tables.  Groups (a class in a frame)
are orders of one ``np.lexsort`` over class, frame, score and
``sort_rank``; ``boxes.pair_tables`` joins the tables and lists the
candidate pairs, with IoUs from one ``iou_3d_pairs`` call (bit for bit
``iou_3d``) or center distances from ``math.hypot`` per pair, which numpy's
hypot does not reproduce, and ``boxes.claim``, fusion's matcher too, lets
each prediction claim its truth box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# iou_3d is the per-pair definition that iou_3d_pairs reproduces; the benchmark's
# tracer looks for this module's binding.
from .boxes import CLASSES, BoxTable, DetectionBox, iou_3d  # noqa: F401
from .boxes import claim, iou_3d_pairs, pair_tables

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


def _tables(frames) -> tuple[BoxTable, BoxTable]:
    """The truth and predictions tables of ``frames``: a pair of tables as it
    is, frame pairs made tables, their frame ids checked."""
    tables = [isinstance(side, BoxTable) for side in frames]
    if tables == [True, True]:
        return frames
    if any(tables):
        raise TypeError("frames must be a list of FramePair or a (ground_truth, "
                        "predictions) pair of BoxTables")
    _check_frames(frames)
    return (BoxTable.from_frames({f.frame_id: f.ground_truth for f in frames}),
            BoxTable.from_frames({f.frame_id: f.predictions for f in frames}))


def _evaluate(truth: BoxTable, predictions: BoxTable, thresholds: dict[str, float],
              matching_mode: str) -> dict[str, APResult]:
    """AP per class of ``thresholds``, frames joined on id.

    In each class and frame, predictions claim truth in descending score
    order (ties by ``sort_key``), each taking the free truth box of the
    class with the highest IoU, or the smallest center distance, within the
    threshold; ties go to the truth box first in ``sort_key`` order.  The
    candidate pairs of every class and frame are taken at once, sorted by
    (prediction, metric, truth ``sort_rank``, row) with one ``np.lexsort``,
    and each prediction claims the first free truth box of its pairs.
    """
    both, _, frame, pi, ti = pair_tables(predictions, truth)
    n = len(predictions)
    rank = both.sort_rank
    # Per class, outcomes by descending score, then frame id and rank in the
    # frame.  In one class and frame that is the claim order, and claims in
    # others take other truth boxes, so the matcher takes this order too.
    order = np.lexsort((rank[:n], frame[:n], -predictions.score, predictions.label))
    pred_at = np.argsort(order)  # each prediction's place in order
    limit = np.full(len(CLASSES), np.nan)  # nan: a class not evaluated, whose pairs no test keeps
    limit[[CLASSES.index(label) for label in thresholds]] = list(thresholds.values())
    limit = limit[predictions.label[pi]]
    if matching_mode == "iou":
        metric = iou_3d_pairs(both, pi, ti)
        keep = metric >= limit
        metric = -metric  # the highest IoU first
    else:
        dx = both.center[pi, 0] - both.center[ti, 0]
        dy = both.center[pi, 1] - both.center[ti, 1]
        metric = np.array(list(map(math.hypot, dx.tolist(), dy.tolist())))
        keep = metric <= limit
    pi, ti, metric = pi[keep], ti[keep], metric[keep]
    hit = np.zeros(n, dtype=bool)
    hit[claim(pi, ti, np.lexsort((rank[ti], metric, pred_at[pi])))[0]] = True

    cuts = np.searchsorted(predictions.label[order], np.arange(len(CLASSES) + 1)).tolist()
    num_gt = np.bincount(truth.label, minlength=len(CLASSES)).tolist()
    hit = hit[order]
    out = {}
    for label, threshold in thresholds.items():
        c = CLASSES.index(label)
        out[label] = _ap(label, hit[cuts[c]:cuts[c + 1]], num_gt[c], matching_mode, threshold)
    return out


def _ap(class_label, hits: np.ndarray, num_gt: int, matching_mode, threshold) -> APResult:
    """The class's AP from its predictions' true-positive flags in outcome order."""
    num_pred = hits.shape[0]
    if num_gt == 0:
        return APResult(class_label, None, (), (), matching_mode, threshold, 0, num_pred)
    if not num_pred:
        return APResult(class_label, 0.0, (), (), matching_mode, threshold, num_gt, 0)
    tp = np.cumsum(hits.astype(float))
    fp = np.cumsum((~hits).astype(float))
    precision = tp / (tp + fp)
    recall = tp / num_gt
    return APResult(
        class_label=class_label,
        ap=_interpolated_ap(recall, precision),
        precision_curve=tuple(precision.tolist()),
        recall_curve=tuple(recall.tolist()),
        matching_mode=matching_mode,
        threshold=threshold,
        num_gt=num_gt,
        num_predictions=num_pred,
    )


def evaluate_ap(
    frames: list[FramePair] | tuple[BoxTable, BoxTable],
    class_label: str,
    matching_mode: str = "iou",
    threshold: float | None = None,
) -> APResult:
    """AP for one class over all frames; None if the class has no truth."""
    threshold = _threshold(class_label, matching_mode, threshold)
    return _evaluate(*_tables(frames), {class_label: threshold}, matching_mode)[class_label]


def evaluate_map(
    frames: list[FramePair] | tuple[BoxTable, BoxTable],
    classes: tuple[str, ...] = CLASSES,
    matching_mode: str = "iou",
    thresholds: dict[str, float] | None = None,
) -> MapResult:
    """Per-class AP plus the mean over classes that have ground truth."""
    used = {label: _threshold(label, matching_mode,
                              None if thresholds is None else thresholds.get(label))
            for label in classes}
    per_class = _evaluate(*_tables(frames), used, matching_mode) if used else {}
    defined = [r.ap for r in per_class.values() if r.ap is not None]
    if not defined:
        raise ValueError("no evaluable classes: every class lacks ground truth")
    mean_ap = float(np.sum(np.asarray(defined)) / len(defined))
    return MapResult(per_class=per_class, mean_ap=mean_ap, matching_mode=matching_mode)
