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

``iou_3d`` is the per-pair definition.  ``iou_3d_pairs`` computes it for
many pairs at once in one numpy pass that takes the same steps in the same
order; tests hold it to ``iou_3d`` bit for bit.  The box rules the other
modules share live here too: ``class_pairs`` pairs boxes for fusion and
evaluation, ``DetectionBox.from_columns`` builds a frames file's boxes with
the constructor's checks and stores, and ``score_order`` sorts by score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

CLASSES = ("car", "truck", "motorcycle", "bus", "pedestrian", "golf_cart")
SOURCES = ("lidar", "radar", "fused", "ground_truth")

_TWO_PI = 2.0 * math.pi
# Pairs per pass of iou_3d_pairs at most: bounds its per-pair arrays to a few hundred kB.
_CHUNK = 4096


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
            velocity = (vx, vy)
        _store(self, (x, y, z), (length, width, height), yaw, class_label, score, source, velocity)

    @classmethod
    def from_columns(cls, center, size, yaw, class_label, score, source, velocity):
        """``[DetectionBox(*row) for row in zip(center, ..., velocity)]``, each check a
        whole column at once, or None if the constructor would refuse any row (build
        the rows one by one to learn which, and why)."""
        n = len(center)
        planar = [v for v in velocity if v is not None]
        numbers = [*chain.from_iterable(center), *chain.from_iterable(size), *yaw, *score,
                   *chain.from_iterable(planar)]
        try:
            if not ({3}.issuperset(map(len, chain(center, size)))
                    and {2}.issuperset(map(len, planar))
                    and all(map(math.isfinite, numbers))
                    and min(numbers[3 * n:6 * n], default=1) > 0  # the sizes, 3 a row
                    and 0 <= min(score, default=0) and max(score, default=0) <= 1
                    and {*CLASSES}.issuperset(class_label) and {*SOURCES}.issuperset(source)):
                return None
        except (TypeError, OverflowError):  # a non-number, or an integer past the float range
            return None
        new = object.__new__
        return [_store(new(cls), c, s, y, lab, sc, src, v)
                for c, s, y, lab, sc, src, v in zip(center, size, yaw, class_label, score,
                                                     source, velocity)]

    def sort_key(self) -> tuple:
        """Total deterministic order used for canonical tie-breaking."""
        return (self.center, self.size, self.yaw, self.class_label,
                self.score, self.source)


def _store(box, center, size, yaw, class_label, score, source, velocity) -> DetectionBox:
    """``box`` with the constructor's conversions to float and its stores made: one
    per field, in field order, so it keeps CPython's key-sharing dict, which
    ``__dict__.update`` would give up."""
    store = object.__setattr__
    store(box, "center", (float(center[0]), float(center[1]), float(center[2])))
    store(box, "size", (float(size[0]), float(size[1]), float(size[2])))
    store(box, "yaw", normalize_yaw(float(yaw)))
    store(box, "class_label", class_label)
    store(box, "score", float(score))
    store(box, "source", source)
    store(box, "velocity", None if velocity is None else (float(velocity[0]), float(velocity[1])))
    return box


def score_order(box: DetectionBox) -> tuple:
    """Sort key for boxes in descending score order, ties broken by ``sort_key``."""
    return (-box.score, box.sort_key())


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


def _areas(x: np.ndarray, y: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``_polygon_area`` of each row's first ``count`` vertices, term by term."""
    row = np.arange(x.shape[0]) * x.shape[1]
    flat_x, flat_y = x.ravel(), y.ravel()
    total = np.zeros(x.shape[0])
    for i in range(x.shape[1]):
        j = row + np.where(i + 1 < count, i + 1, 0)
        total = np.where(i < count, total + (x[:, i] * flat_y[j] - flat_x[j] * y[:, i]), total)
    return np.where(count < 3, 0.0, np.abs(total) / 2.0)


def _clip_pairs(x, y, clip_x, clip_y):
    """``_clip_polygon`` for each row's subject by its clip quadrilateral.

    Vertices sit in fixed-width rows with a count per row.  Each clip edge
    is one step over every row and vertex slot: a vertex inside the edge is
    kept, and a crossing adds the interpolated point right after it, at the
    position a running count of earlier outputs gives, so each row's output
    is the scalar loop's list.  A row's output can at most double in length.
    """
    m = x.shape[0]
    count = np.full(m, x.shape[1])
    for e in range(4):
        ax, ay = clip_x[:, e, None], clip_y[:, e, None]
        ex = clip_x[:, (e + 1) % 4, None] - ax
        ey = clip_y[:, (e + 1) % 4, None] - ay
        width = x.shape[1]
        slot = np.arange(width)
        active = slot < count[:, None]
        after = (np.where(slot + 1 < count[:, None], slot + 1, 0)
                 + np.arange(m)[:, None] * width).ravel()
        d1 = (ex * (y - ay) - ey * (x - ax)).ravel()
        x, y = x.ravel(), y.ravel()
        d2 = d1[after]
        inside = d1 >= 0.0
        keep = np.flatnonzero(active.ravel() & inside)
        cross = np.flatnonzero(active.ravel() & np.where(inside, d2 < 0.0, d2 >= 0.0))
        emitted = np.zeros(m * width, dtype=np.intp)
        emitted[keep] = 1
        emitted[cross] += 1
        emitted = emitted.reshape(m, width)
        count = emitted.sum(axis=1)
        out = int(count.max(initial=0))
        at = (np.cumsum(emitted, axis=1) - emitted + np.arange(m)[:, None] * out).ravel()
        out_x, out_y = np.empty(m * out), np.empty(m * out)
        out_x[at[keep]], out_y[at[keep]] = x[keep], y[keep]
        d1, d2, p2 = d1[cross], d2[cross], after[cross]
        t = d1 / (d1 - d2)
        px, py = x[cross], y[cross]
        to = at[cross] + inside[cross]
        out_x[to] = px + t * (x[p2] - px)
        out_y[to] = py + t * (y[p2] - py)
        x, y = out_x.reshape(m, out), out_y.reshape(m, out)
    return x, y, count


def iou_3d_pairs(boxes, ia, ib) -> np.ndarray:
    """``iou_3d(boxes[i], boxes[j])`` for every ``(i, j)`` of ``zip(ia, ib)``, bit for bit.

    The pairs are taken in chunks of ``_CHUNK``, each in one pass that runs
    iou_3d's steps in its order over every pair at once: the z overlap and
    circle reject, then, on the pairs left, the canonical ``sort_key`` swap,
    the clip of the footprints, the shoelace areas and the union.  Numpy's
    per-element + - * / round as Python floats do and are not fused, and
    cos, sin and hypot come from ``math`` once per box, so every value is
    the scalar function's.
    """
    ia = np.asarray(ia, dtype=np.intp)
    ib = np.asarray(ib, dtype=np.intp)
    iou = np.zeros(ia.shape[0])
    if not ia.shape[0]:
        return iou
    with np.errstate(all="ignore"):  # iou_3d's float arithmetic overflows without a word
        n = len(boxes)
        center = np.fromiter(chain.from_iterable(b.center for b in boxes), float, 3 * n)
        size = np.fromiter(chain.from_iterable(b.size for b in boxes), float, 3 * n)
        center, size = center.reshape(n, 3), size.reshape(n, 3)
        yaw = [b.yaw for b in boxes]
        cx, cy, cz = center.T
        length, width, height = size.T
        bottom, top = cz - height / 2.0, cz + height / 2.0
        diagonal = np.array(list(map(math.hypot, length.tolist(), width.tolist())))
        # footprint(): corners (hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw).
        c = np.array(list(map(math.cos, yaw)))[:, None]
        s = np.array(list(map(math.sin, yaw)))[:, None]
        hl, hw = length / 2.0, width / 2.0
        lx = np.column_stack((hl, -hl, -hl, hl))
        ly = np.column_stack((hw, hw, -hw, -hw))
        fx = cx[:, None] + lx * c - ly * s
        fy = cy[:, None] + lx * s + ly * c
        volume = _areas(fx, fy, np.full(n, 4)) * height

        step = math.ceil(ia.shape[0] / math.ceil(ia.shape[0] / _CHUNK))  # equal chunks
        for first in range(0, ia.shape[0], step):
            a, b = ia[first:first + step], ib[first:first + step]
            # max() and min() as iou_3d takes them: the second only if strictly beyond.
            lo = np.where(bottom[b] > bottom[a], bottom[b], bottom[a])
            dz = np.where(top[b] < top[a], top[b], top[a]) - lo
            dx, dy = cx[a] - cx[b], cy[a] - cy[b]
            reach = 0.5 * (diagonal[a] + diagonal[b])
            far = dx * dx + dy * dy > reach * reach * (1.0 + 1e-9)
            near = np.flatnonzero(~(dz <= 0.0) & ~far)
            a, b, dz = a[near], b[near], dz[near]
            # The canonical swap: the box with the smaller sort key is the subject.
            swap = np.array([boxes[j].sort_key() < boxes[i].sort_key()
                             for i, j in zip(a.tolist(), b.tolist())], dtype=bool)
            a, b = np.where(swap, b, a), np.where(swap, a, b)
            inter_bev = _areas(*_clip_pairs(fx[a], fy[a], fx[b], fy[b]))
            inter = inter_bev * dz
            union = volume[a] + volume[b] - inter
            value = inter / union
            value = np.where(value > 0.0, value, 0.0)
            value = np.where(value < 1.0, value, 1.0)
            iou[first + near] = np.where(~(inter_bev <= 0.0) & ~(union <= 0.0), value, 0.0)
    return iou


def _concat_groups(groups) -> tuple[list[DetectionBox], np.ndarray, np.ndarray]:
    """The groups' boxes in one list, each box's group number, and each group's
    first position in the list."""
    starts = np.cumsum([0, *map(len, groups)])
    return ([b for group in groups for b in group],
            np.repeat(np.arange(len(groups)), np.diff(starts)), starts)


def _same_key_pairs(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ``(i, j)`` with ``left[i] == right[j]`` (integer keys), by i and then j."""
    order = np.argsort(right, kind="stable")
    start = np.searchsorted(right[order], left, "left")
    counts = np.searchsorted(right[order], left, "right") - start
    first = np.cumsum(counts) - counts
    i = np.repeat(np.arange(left.shape[0]), counts)
    return i, order[start[i] + np.arange(i.shape[0]) - first[i]]


def class_pairs(left_groups, right_groups, keep) -> list[list[tuple[float, int, int]]]:
    """Per group k, the ``(iou_3d(left_groups[k][i], right_groups[k][j]), i, j)`` of
    every same-class pair whose IoU ``keep`` accepts, by i and then j.

    ``keep`` maps an array of IoUs to a boolean array.  Every pair of every
    group goes through one ``iou_3d_pairs`` call, so each IoU is ``iou_3d``'s.
    """
    (left, lgroup, lstarts), (right, rgroup, rstarts) = map(_concat_groups,
                                                            (left_groups, right_groups))

    def keys(group, flat):  # equal for boxes of one group and class, which pair up
        return group * len(CLASSES) + [CLASSES.index(b.class_label) for b in flat]

    li, ri = _same_key_pairs(keys(lgroup, left), keys(rgroup, right))
    iou = iou_3d_pairs(left + right, li, ri + len(left))
    hit = np.flatnonzero(keep(iou))
    li, ri, group = li[hit], ri[hit], lgroup[li[hit]]
    pairs = list(zip(iou[hit].tolist(), (li - lstarts[group]).tolist(),
                     (ri - rstarts[group]).tolist()))
    cuts = np.searchsorted(group, np.arange(len(left_groups) + 1)).tolist()
    return [pairs[cuts[k]:cuts[k + 1]] for k in range(len(left_groups))]


def center_distance_bev(a: DetectionBox, b: DetectionBox) -> float:
    """Planar distance between box centers, ignoring height."""
    return math.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1])

