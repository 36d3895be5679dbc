"""Late fusion of lidar and radar detections within one frame.

Matching is greedy on descending IoU over same-class cross-modality pairs.
Matched pairs merge into a single box with score-weighted geometry; radar
contributes the velocity estimate.  Unmatched detections from either side
pass through untouched, so every input box is accounted for exactly once:
len(output) == len(lidar) + len(radar) - matches.

``fuse_frames`` fuses a whole file's frames, taking every frame's
same-class pairs and their IoUs from one ``boxes.class_pairs`` call, which
gives ``iou_3d``'s values bit for bit, and hands each frame its pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .boxes import DetectionBox, class_pairs, iou_3d, normalize_yaw, score_order
from .scene import LIDAR, RADAR


@dataclass(frozen=True)
class FusionConfig:
    """Minimum IoU for a lidar/radar pair to merge."""

    iou_threshold: float = 0.3

    def __post_init__(self) -> None:
        if not 0.0 < self.iou_threshold <= 1.0:
            raise ValueError("iou_threshold must lie in (0, 1]")


def _weights(a: DetectionBox, b: DetectionBox) -> tuple[float, float]:
    total = a.score + b.score
    if total == 0.0:
        return 0.5, 0.5
    return a.score / total, b.score / total


def _merge(lidar_box: DetectionBox, radar_box: DetectionBox) -> DetectionBox:
    wl, wr = _weights(lidar_box, radar_box)
    center = tuple(
        wl * lc + wr * rc for lc, rc in zip(lidar_box.center, radar_box.center)
    )
    size = tuple(wl * ls + wr * rs for ls, rs in zip(lidar_box.size, radar_box.size))
    # Circular mean keeps the merged heading sane across the +-pi seam.
    sin_sum = wl * math.sin(lidar_box.yaw) + wr * math.sin(radar_box.yaw)
    cos_sum = wl * math.cos(lidar_box.yaw) + wr * math.cos(radar_box.yaw)
    yaw = normalize_yaw(math.atan2(sin_sum, cos_sum))
    return DetectionBox(
        center=center,
        size=size,
        yaw=yaw,
        class_label=lidar_box.class_label,
        score=max(lidar_box.score, radar_box.score),
        source="fused",
        velocity=radar_box.velocity,
    )


def fuse_late(
    lidar_detections: list[DetectionBox],
    radar_detections: list[DetectionBox],
    config: FusionConfig | None = None,
    pairs: list[tuple[float, int, int]] | None = None,
) -> list[DetectionBox]:
    """Fuse one frame of detections; returns boxes sorted by score.

    ``pairs``, if given, are the ``(iou, lidar index, radar index)`` of every
    same-class pair whose IoU reaches the threshold, as ``fuse_frames``
    computes them; otherwise each pair's ``iou_3d`` is taken here.
    """
    config = config or FusionConfig()
    for box in lidar_detections:
        if box.source != LIDAR:
            raise ValueError(f"lidar_detections contains a {box.source!r} box")
    for box in radar_detections:
        if box.source != RADAR:
            raise ValueError(f"radar_detections contains a {box.source!r} box")

    if pairs is None:
        pairs = []
        for li, lbox in enumerate(lidar_detections):
            for ri, rbox in enumerate(radar_detections):
                if lbox.class_label != rbox.class_label:
                    continue
                iou = iou_3d(lbox, rbox)
                if iou >= config.iou_threshold:
                    pairs.append((iou, li, ri))
    pairs = sorted(
        pairs,
        key=lambda p: (
            -p[0],
            lidar_detections[p[1]].sort_key(),
            radar_detections[p[2]].sort_key(),
            p[1],
            p[2],
        )
    )

    used_l: set[int] = set()
    used_r: set[int] = set()
    fused: list[DetectionBox] = []
    for _, li, ri in pairs:
        if li in used_l or ri in used_r:
            continue
        used_l.add(li)
        used_r.add(ri)
        fused.append(_merge(lidar_detections[li], radar_detections[ri]))

    out = fused
    out += [b for i, b in enumerate(lidar_detections) if i not in used_l]
    out += [b for i, b in enumerate(radar_detections) if i not in used_r]
    out.sort(key=score_order)
    return out


def fuse_frames(
    lidar: dict[str, list[DetectionBox]],
    radar: dict[str, list[DetectionBox]],
    config: FusionConfig | None = None,
) -> dict[str, list[DetectionBox]]:
    """``fuse_late`` for every frame id in either map, in id order, with one
    IoU kernel call over every same-class pair of every frame."""
    config = config or FusionConfig()
    ids = sorted(set(lidar) | set(radar))
    sides = [[side.get(fid, []) for fid in ids] for side in (lidar, radar)]
    pairs = class_pairs(*sides, lambda iou: iou >= config.iou_threshold)
    return {fid: fuse_late(l, r, config, pairs=p) for fid, l, r, p in zip(ids, *sides, pairs)}
