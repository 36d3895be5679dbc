"""Late fusion of lidar and radar detections within one frame.

Matching is greedy on descending IoU over same-class cross-modality pairs.
Matched pairs merge into a single box with score-weighted geometry; radar
contributes the velocity estimate.  Unmatched detections from either side
pass through untouched, so every input box is accounted for exactly once:
len(output) == len(lidar) + len(radar) - matches.

``fuse_late`` fuses either one frame's box lists or every frame of two
``BoxTable``s at once.  ``boxes.pair_tables`` joins the tables and lists
their same-class pairs, whose IoUs come from one ``iou_3d_pairs`` call; one
``np.lexsort`` puts them in greedy order, ``boxes.claim`` matches them, and
the matches merge in one batch with ``math``'s sin, cos and atan2 per
element.  Box lists go through the same code as one-frame tables, but take
each pair's IoU from ``iou_3d``, which gives the kernel's bits and is the
call the benchmark's tracer counts; ``fuse_frames`` fuses a
``{frame_id: boxes}`` mapping as a table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import (
    SOURCES,
    BoxTable,
    DetectionBox,
    claim,
    iou_3d,
    iou_3d_pairs,
    normalize_yaw,
    pair_tables,
    value_fault,
)
from .scene import LIDAR, RADAR

_FUSED = SOURCES.index("fused")


@dataclass(frozen=True)
class FusionConfig:
    """Minimum IoU for a lidar/radar pair to merge."""

    iou_threshold: float = 0.3

    def __post_init__(self) -> None:
        if not 0.0 < self.iou_threshold <= 1.0:
            raise ValueError("iou_threshold must lie in (0, 1]")


def _source_fault(lidar: BoxTable, radar: BoxTable, lu, ru) -> tuple[int, str] | None:
    """The first frame, in id order, holding a box of the wrong source, and
    the error for its first such box, lidar checked first; None if there is none."""
    faults = []
    for name, table, frame, source in (("lidar", lidar, lu, LIDAR), ("radar", radar, ru, RADAR)):
        bad = np.flatnonzero(table.source != SOURCES.index(source))
        if bad.size:
            row = bad[np.argmin(frame[bad])]
            faults.append((int(frame[row]),
                           f"{name}_detections contains a {SOURCES[table.source[row]]!r} box"))
    return min(faults, key=lambda fault: fault[0]) if faults else None


def _merge(both: BoxTable, l: np.ndarray, r: np.ndarray) -> list[np.ndarray]:
    """The ``BoxTable.columns`` of the boxes that lidar rows ``l`` and radar rows
    ``r`` merge into, each value computed as one pair's merge computes it."""
    ls, rs = both.score[l], both.score[r]
    total = ls + rs
    with np.errstate(all="ignore"):  # a zero total, and overflow, which the caller refuses
        wl = np.where(total == 0.0, 0.5, ls / total)
        wr = np.where(total == 0.0, 0.5, rs / total)
        center = wl[:, None] * both.center[l] + wr[:, None] * both.center[r]
        size = wl[:, None] * both.size[l] + wr[:, None] * both.size[r]
        # Circular mean keeps the merged heading sane across the +-pi seam.
        ly, ry = both.yaw[l].tolist(), both.yaw[r].tolist()
        sin_sum = wl * np.array(list(map(math.sin, ly))) + wr * np.array(list(map(math.sin, ry)))
        cos_sum = wl * np.array(list(map(math.cos, ly))) + wr * np.array(list(map(math.cos, ry)))
    # Normalized twice: once as merged, once as DetectionBox stores a yaw.
    yaw = [normalize_yaw(normalize_yaw(math.atan2(s, c)))
           for s, c in zip(sin_sum.tolist(), cos_sum.tolist())]
    return [center, size, np.array(yaw, dtype=float), np.where(rs > ls, rs, ls),  # max(l, r)
            both.label[l], np.full(l.shape[0], _FUSED, dtype=both.source.dtype),
            both.velocity[r], both.has_velocity[r]]


def _fuse(lidar: BoxTable, radar: BoxTable, config: FusionConfig | None, measure) -> BoxTable:
    """Fuse every frame id of either table; ``measure(both, ia, ib)`` gives the
    IoU of rows ``ia`` and ``ib`` of the two tables' rows, lidar first."""
    config = config or FusionConfig()
    both, ids, frame, li, ri = pair_tables(lidar, radar)
    iou = np.asarray(measure(both, li, ri), dtype=float)
    hit = np.flatnonzero(iou >= config.iou_threshold)
    li, ri, iou = li[hit], ri[hit], iou[hit]
    # Frame by frame, pairs by descending IoU, then by sort_key, and then by
    # index, the order pair_tables lists them in, which the stable sort keeps.
    rank = both.sort_rank
    ml, mr = claim(li, ri, np.lexsort((rank[ri], rank[li], -iou, frame[li])))
    merged = _merge(both, ml, mr)
    center, size, yaw, score, _, _, velocity, _ = merged

    source_fault = _source_fault(lidar, radar, frame[:len(lidar)], frame[len(lidar):])
    merge_fault = value_fault(center, size, yaw, score, velocity)
    if merge_fault is not None:
        row, text = merge_fault
        # Frames are fused in id order, each after its sources are checked.
        if source_fault is None or frame[ml[row]] < source_fault[0]:
            raise ValueError(text)
    if source_fault is not None:
        raise ValueError(source_fault[1])

    rest = np.ones(len(both), dtype=bool)
    rest[ml] = rest[mr] = False
    rest = np.flatnonzero(rest)
    frame = np.concatenate((frame[ml], frame[rest]))
    out = BoxTable(("",), np.array([0, frame.shape[0]]),  # every output box, as one frame
                   *(np.concatenate((m, column[rest])) for m, column in zip(merged, both.columns)))
    # Each frame in score order; boxes tied on it keep this order: merged
    # boxes in match order, then unmatched lidar, then unmatched radar.
    order = np.lexsort((out.sort_rank, -out.score, frame))
    return BoxTable(tuple(ids), np.searchsorted(frame[order], np.arange(len(ids) + 1)),
                    *(column[order] for column in out.columns))


def fuse_late(
    lidar_detections: list[DetectionBox] | BoxTable,
    radar_detections: list[DetectionBox] | BoxTable,
    config: FusionConfig | None = None,
) -> list[DetectionBox] | BoxTable:
    """Fuse one frame of detections, returned sorted by score; or, given two
    tables, every frame id present in either, in id order, each frame's boxes
    in score order, as a table."""
    if isinstance(lidar_detections, BoxTable) != isinstance(radar_detections, BoxTable):
        raise TypeError("fuse_late takes two BoxTables or two lists of DetectionBox, "
                        "not one of each")
    if isinstance(lidar_detections, BoxTable):
        return _fuse(lidar_detections, radar_detections, config, iou_3d_pairs)
    boxes = [*lidar_detections, *radar_detections]

    def measure(_, ia, ib):
        return [iou_3d(boxes[i], boxes[j]) for i, j in zip(ia.tolist(), ib.tolist())]

    sides = [BoxTable.from_frames({"": side}) for side in (lidar_detections, radar_detections)]
    return _fuse(*sides, config, measure).frames()[""]


def fuse_frames(
    lidar: dict[str, list[DetectionBox]],
    radar: dict[str, list[DetectionBox]],
    config: FusionConfig | None = None,
) -> dict[str, list[DetectionBox]]:
    """``fuse_late`` for every frame id in either map, in id order, with one
    IoU kernel call over every same-class pair of every frame."""
    return fuse_late(BoxTable.from_frames(lidar), BoxTable.from_frames(radar), config).frames()
