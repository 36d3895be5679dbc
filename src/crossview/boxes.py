"""Oriented 3D detection boxes and exact rotated-box IoU.

Boxes are axis-up cuboids: a BEV rectangle (length along the heading,
width across it, yaw about +z) extruded vertically around the center.
Intersection volume is therefore the clipped-footprint area times the
vertical overlap, which Sutherland-Hodgman clipping computes exactly for
convex rectangles.

IoU arithmetic is pinned bit for bit: every expression and its order of
evaluation are fixed, and a test compares the clip's vertex lists with a
reference copy of its first loop using ``==``.  A faster rewrite must keep
every IoU value, and hence every fused and evaluated byte, unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

CLASSES = ("car", "truck", "motorcycle", "bus", "pedestrian", "golf_cart")
SOURCES = ("lidar", "radar", "fused", "ground_truth")

_TWO_PI = 2.0 * math.pi


def normalize_yaw(yaw: float) -> float:
    """Map any angle to (-pi, pi]."""
    y = yaw % _TWO_PI
    if y > math.pi:
        y -= _TWO_PI
    return y


@dataclass(frozen=True, init=False)
class DetectionBox:
    """One detection or ground-truth object.

    center: (x, y, z) of the box centroid in meters.
    size: (length, width, height), all positive; length runs along yaw.
    yaw: heading in radians, stored normalized to (-pi, pi].
    velocity: optional planar (vx, vy); radar keeps it, lidar has none.
    """

    center: tuple[float, float, float]
    size: tuple[float, float, float]
    yaw: float
    class_label: str
    score: float
    source: str
    velocity: tuple[float, float] | None = None

    def __init__(self, center, size, yaw, class_label, score, source, velocity=None) -> None:
        # Checks run in a fixed order, so the first fault found is the one
        # reported; a non-number raises TypeError from math.isfinite.
        if len(center) != 3:
            raise ValueError("center must have exactly three components")
        if len(size) != 3:
            raise ValueError("size must have exactly three components")
        x, y, z = center
        length, width, height = size
        isfinite = math.isfinite
        if not (isfinite(x) and isfinite(y) and isfinite(z) and isfinite(length)
                and isfinite(width) and isfinite(height) and isfinite(yaw)
                and isfinite(score)):
            raise ValueError("box fields must be finite numbers")
        if min(length, width, height) <= 0:
            raise ValueError("size components must be positive")
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"score must lie in [0, 1], got {score}")
        if class_label not in CLASSES:
            raise ValueError(f"unknown class_label {class_label!r}")
        if source not in SOURCES:
            raise ValueError(f"unknown source {source!r}")
        if velocity is not None:
            if len(velocity) != 2:
                raise ValueError("velocity must be planar (vx, vy)")
            vx, vy = velocity
            if not (isfinite(vx) and isfinite(vy)):
                raise ValueError("velocity components must be finite")
            velocity = (float(vx), float(vy))
        # One store per field, in field order: the instance keeps CPython's
        # key-sharing dict, which __dict__.update would give up.
        store = object.__setattr__
        store(self, "center", (float(x), float(y), float(z)))
        store(self, "size", (float(length), float(width), float(height)))
        store(self, "yaw", normalize_yaw(float(yaw)))
        store(self, "class_label", class_label)
        store(self, "score", float(score))
        store(self, "source", source)
        store(self, "velocity", velocity)

    def sort_key(self) -> tuple:
        """Total deterministic order used for canonical tie-breaking."""
        return (self.center, self.size, self.yaw, self.class_label,
                self.score, self.source)


def footprint(box: DetectionBox) -> list[tuple[float, float]]:
    """BEV corner loop, counterclockwise."""
    cx, cy, _ = box.center
    hl = box.size[0] / 2.0
    hw = box.size[1] / 2.0
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    corners = []
    for lx, ly in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw)):
        corners.append((cx + lx * c - ly * s, cy + lx * s + ly * c))
    return corners


def _polygon_area(poly: list[tuple[float, float]]) -> float:
    if len(poly) < 3:
        return 0.0
    total = 0.0
    for i in range(len(poly)):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % len(poly)]
        total += x1 * y2 - x2 * y1
    return abs(total) / 2.0


def _clip_polygon(
    subject: list[tuple[float, float]],
    clip: list[tuple[float, float]],
) -> list[tuple[float, float]]:
    """Sutherland-Hodgman clip of subject by a convex CCW polygon.

    Points exactly on an edge count as inside, so clipping a polygon by
    itself returns it unchanged.
    """
    output = subject
    for (ax, ay), (bx, by) in zip(clip, clip[1:] + clip[:1]):
        if not output:
            return []
        ex, ey = bx - ax, by - ay
        clipped: list[tuple[float, float]] = []
        # A vertex's side of the edge is carried to the next step as
        # (p1, d1); only the first vertex's is computed again, to close the loop.
        p1 = output[0]
        d1 = ex * (p1[1] - ay) - ey * (p1[0] - ax)
        for p2 in output[1:] + output[:1]:
            d2 = ex * (p2[1] - ay) - ey * (p2[0] - ax)
            if d1 >= 0.0:
                clipped.append(p1)
                if d2 < 0.0:
                    t = d1 / (d1 - d2)
                    clipped.append((p1[0] + t * (p2[0] - p1[0]),
                                    p1[1] + t * (p2[1] - p1[1])))
            elif d2 >= 0.0:
                t = d1 / (d1 - d2)
                clipped.append((p1[0] + t * (p2[0] - p1[0]),
                                p1[1] + t * (p2[1] - p1[1])))
            p1, d1 = p2, d2
        output = clipped
    return output


def iou_3d(a: DetectionBox, b: DetectionBox) -> float:
    """Exact intersection-over-union of two oriented boxes; symmetric."""
    lo = max(a.center[2] - a.size[2] / 2.0, b.center[2] - b.size[2] / 2.0)
    hi = min(a.center[2] + a.size[2] / 2.0, b.center[2] + b.size[2] / 2.0)
    dz = hi - lo
    if dz <= 0.0:
        return 0.0
    # Each footprint lies inside its circumscribed circle, so disjoint
    # circles mean disjoint footprints.  The 1e-9 slack keeps the reject
    # clear of rounding in the corner coordinates near tangency.
    dx = a.center[0] - b.center[0]
    dy = a.center[1] - b.center[1]
    reach = 0.5 * (math.hypot(a.size[0], a.size[1]) + math.hypot(b.size[0], b.size[1]))
    if dx * dx + dy * dy > reach * reach * (1.0 + 1e-9):
        return 0.0
    if b.sort_key() < a.sort_key():
        a, b = b, a
    fa, fb = footprint(a), footprint(b)
    inter_bev = _polygon_area(_clip_polygon(fa, fb))
    if inter_bev <= 0.0:
        return 0.0
    inter = inter_bev * dz
    # Volumes take the same shoelace path as the intersection, so
    # identical boxes produce an IoU of exactly 1.
    union = _polygon_area(fa) * a.size[2] + _polygon_area(fb) * b.size[2] - inter
    if union <= 0.0:
        return 0.0
    return min(1.0, max(0.0, inter / union))


def center_distance_bev(a: DetectionBox, b: DetectionBox) -> float:
    """Planar distance between box centers, ignoring height."""
    return math.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1])
