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
order; tests hold it to ``iou_3d`` bit for bit.

``BoxTable`` holds the boxes of many frames as columns.  It is the one form
in which frames are loaded, paired, fused, scored and written.  Per-box values
go in through ``BoxTable.of`` and come out through ``BoxTable.values``, so this
module alone decides how a table stores a box; a ``{frame_id: [DetectionBox]}``
mapping, the public API's form, goes in through ``BoxTable.from_frames`` and
comes out through ``BoxTable.frames``, both over those two.
A table's ``sort_rank`` stands for ``sort_key`` (equal keys, equal ranks),
so orders and the kernel's canonical swap compare integers, not tuples.
A table's frame ids are distinct; its constructor refuses one that repeats.
``value_fault`` states the constructor's value rules over whole columns.
Fusion and evaluation share two steps: ``pair_tables`` joins two tables and
lists their same-frame, same-class pairs, and ``claim`` matches pairs
greedily, one to one, in the order the caller ranks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import accumulate, chain
from operator import attrgetter

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
            velocity = (float(vx), float(vy))
        _store(self, (float(x), float(y), float(z)), (float(length), float(width), float(height)),
               normalize_yaw(float(yaw)), class_label, float(score), source, velocity)

    def sort_key(self) -> tuple:
        """Total deterministic order used for canonical tie-breaking."""
        return (self.center, self.size, self.yaw, self.class_label,
                self.score, self.source)


def _store(box, center, size, yaw, class_label, score, source, velocity) -> DetectionBox:
    """``box`` with its fields stored as given (tuples of floats, a normalized yaw):
    one store per field, in field order, so it keeps CPython's key-sharing dict,
    which ``__dict__.update`` would give up."""
    store = object.__setattr__
    store(box, "center", center)
    store(box, "size", size)
    store(box, "yaw", yaw)
    store(box, "class_label", class_label)
    store(box, "score", score)
    store(box, "source", source)
    store(box, "velocity", velocity)
    return box


# Codes of the table's class and source columns, the name of each code, and each
# code's place in name order, which is how sort_key compares them.
_CLASS_CODE = {label: k for k, label in enumerate(CLASSES)}
_SOURCE_CODE = {source: k for k, source in enumerate(SOURCES)}
_CLASS_NAMES = np.array(CLASSES, dtype=object)
_SOURCE_NAMES = np.array(SOURCES, dtype=object)
_CLASS_RANK = np.argsort(np.argsort(CLASSES)).astype(np.int8)
_SOURCE_RANK = np.argsort(np.argsort(SOURCES)).astype(np.int8)


@dataclass(frozen=True, eq=False)
class BoxTable:
    """The boxes of many frames as columns, one row a box.

    Frame ``k`` is ``frame_ids[k]``, an id no other frame of the table has; its
    rows are ``offsets[k]:offsets[k + 1]``.
    ``center`` and ``size`` are (n, 3) and ``velocity`` (n, 2) float arrays;
    ``yaw`` (normalized, as ``DetectionBox`` stores it) and ``score`` are (n,)
    floats; ``label`` and ``source`` are codes into ``CLASSES`` and
    ``SOURCES``; ``has_velocity`` says which rows carry a velocity (the others
    hold 0).  Every value is a ``DetectionBox`` field's, bit for bit, so a row
    and the box it stands for write, pair, fuse and score alike.
    """

    frame_ids: tuple
    offsets: np.ndarray
    center: np.ndarray
    size: np.ndarray
    yaw: np.ndarray
    score: np.ndarray
    label: np.ndarray
    source: np.ndarray
    velocity: np.ndarray
    has_velocity: np.ndarray

    def __post_init__(self) -> None:
        ids = self.frame_ids
        if len(set(ids)) != len(ids):
            twice = next(fid for k, fid in enumerate(ids) if fid in ids[:k])
            raise ValueError(f"frame ids must be unique: {twice!r} appears twice")

    def __len__(self) -> int:
        return self.yaw.shape[0]

    @cached_property
    def frame(self) -> np.ndarray:
        """Each row's frame index."""
        return np.repeat(np.arange(len(self.frame_ids), dtype=np.int32), np.diff(self.offsets))

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        """The per-row arrays, in field order after ``offsets``."""
        return (self.center, self.size, self.yaw, self.score, self.label, self.source,
                self.velocity, self.has_velocity)

    @cached_property
    def sort_rank(self) -> np.ndarray:
        """Each row's place in ``DetectionBox.sort_key`` order; rows with equal sort
        keys share one.

        Rows are sorted by center x; only runs of equal x go on to a
        ``np.lexsort`` over the other keys, so distinct boxes take one argsort.
        Keys compare as Python compares them: ``-0.0 == 0.0``, and class and
        source names in string order.  A code outside ``CLASSES`` or ``SOURCES``
        is a ValueError naming its box.
        """
        self._check_codes()
        keys = [*self.center.T, *self.size.T, self.yaw, _CLASS_RANK[self.label], self.score,
                _SOURCE_RANK[self.source]]
        n = len(self)
        order = np.argsort(keys[0], kind="stable")
        first = keys[0][order]
        tie = first[1:] == first[:-1]
        if tie.any():
            run = np.cumsum(np.concatenate(([True], ~tie)))
            tied = np.concatenate(([False], tie)) | np.concatenate((tie, [False]))
            rows = order[tied]
            order[tied] = rows[np.lexsort([*(k[rows] for k in reversed(keys[1:])), run[tied]])]
        same = np.ones(max(n - 1, 0), dtype=bool)  # each sorted row's key equals the one before
        for key in keys:
            ordered = key[order]
            same &= ordered[1:] == ordered[:-1]
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.concatenate(([0], np.cumsum(~same)))[:n]
        return rank

    @classmethod
    def of(cls, frame_ids, counts, center, size, yaw, class_label, score, source,
           velocity) -> BoxTable:
        """The table of per-box values, lists in ``DetectionBox`` field order,
        ``counts[k]`` boxes to frame ``frame_ids[k]``; yaws come normalized and
        velocities as None or a pair.  An unknown name raises KeyError, an
        unhashable one TypeError, an integer past the float range OverflowError."""
        n = len(yaw)
        planar = [v for v in velocity if v is not None]
        has_velocity = np.array([v is not None for v in velocity], dtype=bool)
        moving = np.zeros((n, 2))
        moving[has_velocity] = np.fromiter(chain.from_iterable(planar), float,
                                           2 * len(planar)).reshape(-1, 2)
        return cls(tuple(frame_ids), np.array([0, *accumulate(counts)]),
                   np.fromiter(chain.from_iterable(center), float, 3 * n).reshape(n, 3),
                   np.fromiter(chain.from_iterable(size), float, 3 * n).reshape(n, 3),
                   np.fromiter(yaw, float, n), np.fromiter(score, float, n),
                   np.fromiter(map(_CLASS_CODE.__getitem__, class_label), np.int8, n),
                   np.fromiter(map(_SOURCE_CODE.__getitem__, source), np.int8, n),
                   moving, has_velocity)

    @classmethod
    def from_frames(cls, frames) -> BoxTable:
        """The table of a ``{frame_id: boxes}`` mapping, frames in its order."""
        boxes = list(chain.from_iterable(frames.values()))
        return cls.of(frames, map(len, frames.values()),
                      *(list(map(attrgetter(f.name), boxes)) for f in fields(DetectionBox)))

    def _check_codes(self) -> None:
        """Refuse a class or source code outside ``CLASSES`` or ``SOURCES``, which
        names no class or source: a ValueError naming the first such box."""
        for codes, names, what in ((self.label, CLASSES, "class"),
                                   (self.source, SOURCES, "source")):
            bad = (codes < 0) | (codes >= len(names))
            if bad.any():
                row = int(np.argmax(bad))
                raise ValueError(f"{self.box_name(row)}: unknown {what} code {codes[row]}")

    def box_name(self, row: int) -> str:
        """Row ``row`` named as its frame id and its place in that frame."""
        frame = int(self.frame[row])
        return f"frame {self.frame_ids[frame]!r} box {row - int(self.offsets[frame])}"

    def values(self, order) -> tuple[list, ...]:
        """Rows ``order`` (an index array) as ``of`` takes them: lists in
        ``DetectionBox`` field order, centers and sizes as lists, class and source
        names, and each velocity a list or None.  A class or source code outside
        ``CLASSES`` or ``SOURCES``, in any row, is a ValueError naming its box."""
        self._check_codes()
        label, source = self.label[order], self.source[order]
        velocity = [None] * len(label)
        moving = np.flatnonzero(self.has_velocity[order])
        for k, v in zip(moving.tolist(), self.velocity[order[moving]].tolist()):
            velocity[k] = v
        return (self.center[order].tolist(), self.size[order].tolist(), self.yaw[order].tolist(),
                _CLASS_NAMES[label].tolist(), self.score[order].tolist(),
                _SOURCE_NAMES[source].tolist(), velocity)

    def frames(self) -> dict:
        """The table as ``{frame_id: boxes}``, each box built as the constructor would."""
        new = object.__new__
        boxes = [_store(new(DetectionBox), tuple(c), tuple(s), y, lab, sc, src,
                        None if v is None else tuple(v))
                 for c, s, y, lab, sc, src, v in zip(*self.values(np.arange(len(self))))]
        cuts = self.offsets.tolist()
        return {fid: boxes[cuts[k]:cuts[k + 1]] for k, fid in enumerate(self.frame_ids)}


def value_fault(center, size, yaw, score, velocity) -> tuple[int, str] | None:
    """The first row of box columns that breaks one of ``DetectionBox``'s value
    rules, with the ``ValueError`` text the constructor gives for it, or None."""
    rules = [
        (~(np.isfinite(center).all(axis=1) & np.isfinite(size).all(axis=1)
           & np.isfinite(yaw) & np.isfinite(score)), "box fields must be finite numbers"),
        (~(size > 0.0).all(axis=1), "size components must be positive"),
        (~((score >= 0.0) & (score <= 1.0)), "score must lie in [0, 1], got {}"),
        (~np.isfinite(velocity).all(axis=1), "velocity components must be finite"),
    ]
    bad = np.logical_or.reduce([broken for broken, _ in rules])
    if not bad.any():
        return None
    row = int(np.argmax(bad))
    return row, next(text.format(float(score[row])) for broken, text in rules if broken[row])


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

    ``boxes`` is a ``BoxTable``, whose rows ``ia`` and ``ib`` index, or a
    sequence of boxes, which is made one.  The pairs are taken in chunks of
    ``_CHUNK``, each in one pass that runs iou_3d's steps in its order over
    every pair at once: the z overlap and circle reject, then, on the pairs
    left, the canonical swap (the row of lower ``sort_rank`` is the subject,
    as the box of lower ``sort_key`` is in iou_3d), the clip of the
    footprints, the shoelace areas and the union.  Numpy's per-element
    + - * / round as Python floats do and are not fused, and cos, sin and
    hypot come from ``math`` once per box, so every value is the scalar
    function's.
    """
    table = boxes if isinstance(boxes, BoxTable) else BoxTable.from_frames({"": list(boxes)})
    ia = np.asarray(ia, dtype=np.intp)
    ib = np.asarray(ib, dtype=np.intp)
    iou = np.zeros(ia.shape[0])
    if not ia.shape[0]:
        return iou
    with np.errstate(all="ignore"):  # iou_3d's float arithmetic overflows without a word
        cx, cy, cz = table.center.T
        length, width, height = table.size.T
        bottom, top = cz - height / 2.0, cz + height / 2.0
        diagonal = np.array(list(map(math.hypot, length.tolist(), width.tolist())))
        # footprint(): corners (hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw).
        yaw = table.yaw.tolist()
        c = np.array(list(map(math.cos, yaw)))[:, None]
        s = np.array(list(map(math.sin, yaw)))[:, None]
        hl, hw = length / 2.0, width / 2.0
        lx = np.column_stack((hl, -hl, -hl, hl))
        ly = np.column_stack((hw, hw, -hw, -hw))
        fx = cx[:, None] + lx * c - ly * s
        fy = cy[:, None] + lx * s + ly * c
        volume = _areas(fx, fy, np.full(len(table), 4)) * height
        rank = table.sort_rank

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
            swap = rank[b] < rank[a]
            a, b = np.where(swap, b, a), np.where(swap, a, b)
            inter_bev = _areas(*_clip_pairs(fx[a], fy[a], fx[b], fy[b]))
            inter = inter_bev * dz
            union = volume[a] + volume[b] - inter
            value = inter / union
            value = np.where(value > 0.0, value, 0.0)
            value = np.where(value < 1.0, value, 1.0)
            iou[first + near] = np.where(~(inter_bev <= 0.0) & ~(union <= 0.0), value, 0.0)
    return iou


def pair_tables(left: BoxTable, right: BoxTable):
    """``(both, ids, frame, i, j)``: ``left``'s rows then ``right``'s as one
    one-frame table, the frame ids of either table sorted, each row's place in
    ``ids``, and every ``(i, j)`` of a ``left`` row and a ``right`` row, as rows
    of ``both``, in frames of one id and of one class, by i and then j: the
    pairs that fusion and evaluation match from."""
    ids = sorted({*left.frame_ids, *right.frame_ids})
    at = {fid: k for k, fid in enumerate(ids)}
    places = np.array([at[fid] for fid in (*left.frame_ids, *right.frame_ids)], dtype=np.intp)
    frame = places[np.concatenate((left.frame, right.frame + len(left.frame_ids)))]
    n = len(left)
    both = BoxTable(("",), np.array([0, frame.shape[0]]),
                    *map(np.concatenate, zip(left.columns, right.columns)))
    key = frame * len(CLASSES) + both.label
    order = np.argsort(key[n:], kind="stable") + n  # right's rows by key
    start = np.searchsorted(key[order], key[:n], "left")
    counts = np.searchsorted(key[order], key[:n], "right") - start
    first = np.cumsum(counts) - counts
    i = np.repeat(np.arange(n), counts)
    return both, ids, frame, i, order[start[i] + np.arange(i.shape[0]) - first[i]]


def claim(i: np.ndarray, j: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs a greedy one-to-one match takes, in match order: pair
    ``(i[k], j[k])``, for each k of ``order``, is taken if neither of its
    rows is taken yet.  No row may be both an i and a j, as in ``pair_tables``."""
    used: set[int] = set()
    add = used.add
    taken_i, taken_j = [], []
    for a, b in zip(i[order].tolist(), j[order].tolist()):
        if a not in used and b not in used:
            add(a)
            add(b)
            taken_i.append(a)
            taken_j.append(b)
    return np.array(taken_i, dtype=np.intp), np.array(taken_j, dtype=np.intp)


def center_distance_bev(a: DetectionBox, b: DetectionBox) -> float:
    """Planar distance between box centers, ignoring height."""
    return math.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1])

