"""Independent reference implementations used to check the library.

Everything here is written the slow, obvious way (scalar math, plain
loops) and deliberately avoids the library's own code paths, so agreement
is meaningful.
"""

from __future__ import annotations

import math

import numpy as np


def mc_iou_3d(box_a, box_b, n_samples: int = 1_000_000, seed: int = 0) -> float:
    """Monte-Carlo IoU of two oriented boxes by rejection sampling.

    Samples uniformly over the union's bounding volume and counts points
    inside each box; IoU is then inter / union in sample counts.
    """

    def corners(box):
        cx, cy, cz = box.center
        hl, hw, hh = box.size[0] / 2, box.size[1] / 2, box.size[2] / 2
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        pts = []
        for sx in (-hl, hl):
            for sy in (-hw, hw):
                pts.append((cx + sx * c - sy * s, cy + sx * s + sy * c))
        return pts, cz - hh, cz + hh

    pa, za0, za1 = corners(box_a)
    pb, zb0, zb1 = corners(box_b)
    xs = [p[0] for p in pa + pb]
    ys = [p[1] for p in pa + pb]
    lo = (min(xs), min(ys), min(za0, zb0))
    hi = (max(xs), max(ys), max(za1, zb1))

    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(n_samples, 3))

    def inside(box):
        cx, cy, cz = box.center
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        dx = pts[:, 0] - cx
        dy = pts[:, 1] - cy
        # Rotate into the box frame.
        u = dx * c + dy * s
        v = -dx * s + dy * c
        return (
            (np.abs(u) <= box.size[0] / 2)
            & (np.abs(v) <= box.size[1] / 2)
            & (np.abs(pts[:, 2] - cz) <= box.size[2] / 2)
        )

    in_a = inside(box_a)
    in_b = inside(box_b)
    union = int(np.count_nonzero(in_a | in_b))
    if union == 0:
        return 0.0
    return int(np.count_nonzero(in_a & in_b)) / union


def ap_reference(outcomes: list[tuple[float, str, int, bool]], num_gt: int) -> float:
    """101-point interpolated AP from pooled (score, frame, rank, tp) rows.

    Plain-loop rendition of the metric definition: sort by descending
    score, accumulate precision/recall, take the running max of precision
    from the right, and sample it at recall = 0.00, 0.01, ..., 1.00.
    """
    if num_gt <= 0:
        raise ValueError("ap_reference needs at least one ground-truth box")
    rows = sorted(outcomes, key=lambda o: (-o[0], o[1], o[2]))
    precision = []
    recall = []
    tp = 0
    for k, row in enumerate(rows):
        if row[3]:
            tp += 1
        precision.append(tp / (k + 1))
        recall.append(tp / num_gt)

    envelope = list(precision)
    for i in range(len(envelope) - 2, -1, -1):
        envelope[i] = max(envelope[i], envelope[i + 1])

    points = []
    for k in range(101):
        r = k / 100.0
        idx = None
        for i, rec in enumerate(recall):
            if rec >= r:
                idx = i
                break
        points.append(0.0 if idx is None else envelope[idx])
    return float(np.sum(np.asarray(points)) / 101.0)


def ap_frames_reference(frames, class_label, mode, threshold):
    """Frame-level AP reference: plain-loop matching feeding ap_reference.

    Per frame, predictions in descending score order each claim the best
    still-free ground-truth box of the class (highest IoU, or smallest
    planar center distance, within the threshold).  Center distance is
    recomputed here with bare trigonometry; IoU mode leans on the
    library's iou_3d, which the Monte-Carlo check validates separately.
    Returns None when the class never appears in the ground truth.
    """
    from crossview import iou_3d

    outcomes = []
    num_gt = 0
    for frame in frames:
        preds = [b for b in frame.predictions if b.class_label == class_label]
        gts = [b for b in frame.ground_truth if b.class_label == class_label]
        preds.sort(key=lambda b: (-b.score, b.sort_key()))
        gts.sort(key=lambda b: b.sort_key())
        num_gt += len(gts)
        free = [True] * len(gts)
        for rank, pred in enumerate(preds):
            best = -1
            best_metric = None
            for g, gt in enumerate(gts):
                if not free[g]:
                    continue
                if mode == "iou":
                    m = iou_3d(pred, gt)
                    if m < threshold:
                        continue
                    if best_metric is None or m > best_metric:
                        best, best_metric = g, m
                else:
                    m = math.hypot(pred.center[0] - gt.center[0],
                                   pred.center[1] - gt.center[1])
                    if m > threshold:
                        continue
                    if best_metric is None or m < best_metric:
                        best, best_metric = g, m
            if best >= 0:
                free[best] = False
            outcomes.append((pred.score, frame.frame_id, rank, best >= 0))

    if num_gt == 0:
        return None
    if not outcomes:
        return 0.0
    return ap_reference(outcomes, num_gt)


def visibility_reference(
    mount_position,
    mount_yaw_deg,
    mount_pitch_deg,
    spec_modality,
    spec_hfov_deg,
    spec_vfov_deg,
    spec_max_range_m,
    spec_beams,
    cell_origin_xy,
    cell_size,
    occluders,
    samples_per_cell=9,
    object_height=1.7,
    sample_height=None,
    epsilon=1e-6,
) -> float:
    """Scalar re-derivation of one visibility entry.

    Walks the cell's sample lattice point by point and applies the range,
    azimuth, vertical, and occlusion gates with plain trigonometry.
    """
    if sample_height is None:
        sample_height = object_height / 2.0
    mx, my, mz = mount_position
    m = math.isqrt(samples_per_cell)
    if m * m < samples_per_cell:
        m += 1

    hits = 0
    for k in range(samples_per_cell):
        fx = ((k % m) + 0.5) / m
        fy = ((k // m) + 0.5) / m
        px = cell_origin_xy[0] + fx * cell_size
        py = cell_origin_xy[1] + fy * cell_size
        dx, dy = px - mx, py - my
        horiz = math.hypot(dx, dy)
        if horiz > spec_max_range_m:
            continue
        azimuth = math.degrees(math.atan2(dy, dx))
        delta = (azimuth - mount_yaw_deg + 180.0) % 360.0 - 180.0
        if abs(delta) > spec_hfov_deg / 2.0:
            continue
        if spec_modality == "radar":
            elev = math.degrees(math.atan2(sample_height - mz, horiz))
            if abs(elev + mount_pitch_deg) > spec_vfov_deg / 2.0:
                continue
        else:
            e_lo = math.degrees(math.atan2(-mz, horiz)) + mount_pitch_deg
            e_hi = math.degrees(math.atan2(object_height - mz, horiz)) + mount_pitch_deg
            lo, hi = min(e_lo, e_hi), max(e_lo, e_hi)
            half = spec_vfov_deg / 2.0
            step = spec_vfov_deg / (spec_beams - 1)
            found = False
            for b in range(spec_beams):
                beam = -half + b * step if b < spec_beams - 1 else half
                if lo <= beam <= hi:
                    found = True
                    break
            if not found:
                continue
        blocked = False
        for box in occluders:
            if _segment_hits_box_scalar((mx, my, mz), (px, py, sample_height), box):
                blocked = True
                break
        if not blocked:
            hits += 1
    return min(hits / samples_per_cell, 1.0 - epsilon)


def _segment_hits_box_scalar(origin, target, box) -> bool:
    tmin, tmax = 0.0, 1.0
    for axis in range(3):
        o = origin[axis]
        d = target[axis] - o
        lo = box[0][axis]
        hi = box[1][axis]
        if d == 0.0:
            if not lo <= o <= hi:
                return False
            continue
        t1 = (lo - o) / d
        t2 = (hi - o) / d
        tmin = max(tmin, min(t1, t2))
        tmax = min(tmax, max(t1, t2))
    return tmin <= tmax


def segment_hits_box_reference(origin, px, py, pz, box) -> np.ndarray:
    """Exact slab test: does the segment origin->p cross the box?  The ray
    cast's kernel as it stood before its z slab became one scalar window."""
    tmin = np.zeros(px.shape)
    tmax = np.ones(px.shape)
    for o, p, lo, hi in (
        (origin[0], px, box.min_corner[0], box.max_corner[0]),
        (origin[1], py, box.min_corner[1], box.max_corner[1]),
        (origin[2], pz, box.min_corner[2], box.max_corner[2]),
    ):
        d = p - o
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (lo - o) / d
            t2 = (hi - o) / d
        near = np.minimum(t1, t2)
        far = np.maximum(t1, t2)
        parallel = d == 0.0
        inside = (o >= lo) & (o <= hi)
        near = np.where(parallel, np.where(inside, -np.inf, np.inf), near)
        far = np.where(parallel, np.where(inside, np.inf, -np.inf), far)
        tmin = np.maximum(tmin, near)
        tmax = np.minimum(tmax, far)
    return tmin <= tmax


def coverage_objective_reference(
    lidar_vis, radar_vis, weights, lidar_ids, radar_ids, threshold, tol=1e-9
) -> float:
    """Scalar restatement of the coverage objective for a fixed pick."""
    n_cells = len(weights)
    total = 0.0
    for j in range(n_cells):
        lidar_sum = sum(-math.log1p(-lidar_vis[i][j]) for i in lidar_ids)
        radar_sum = sum(-math.log1p(-radar_vis[i][j]) for i in radar_ids)
        if lidar_sum < threshold - tol or radar_sum < threshold - tol:
            continue
        mass = sum(lidar_vis[i][j] for i in lidar_ids)
        mass += sum(radar_vis[i][j] for i in radar_ids)
        total += mass * weights[j]
    return total


def greedy_reference(problem):
    """The greedy solver as it was written before its trial loops were merged.

    A frozen copy, kept so the one-loop ``solve_greedy`` can be held to the
    same trials in the same order: it scores selections with the library's
    ``evaluate_selection``, so only the search is independent.
    """
    from crossview.placement import SEEN_TOL, Selection, evaluate_selection

    def within_budget(selection):
        return problem.selection_cost(selection) <= problem.budget + SEEN_TOL

    current = Selection.of()
    value = evaluate_selection(problem, current).objective
    while True:
        best_gain = 0.0
        best_next = None
        for modality, count in (("lidar", problem.n_lidar), ("radar", problem.n_radar)):
            for i in range(count):
                if modality == "lidar":
                    if i in current.lidar_ids:
                        continue
                    trial = Selection(current.lidar_ids | {i}, current.radar_ids)
                else:
                    if i in current.radar_ids:
                        continue
                    trial = Selection(current.lidar_ids, current.radar_ids | {i})
                if not within_budget(trial):
                    continue
                gain = evaluate_selection(problem, trial).objective - value
                if gain > best_gain:
                    best_gain, best_next = gain, trial
        if best_next is None:
            for li in range(problem.n_lidar):
                if li in current.lidar_ids:
                    continue
                for ri in range(problem.n_radar):
                    if ri in current.radar_ids:
                        continue
                    trial = Selection(current.lidar_ids | {li}, current.radar_ids | {ri})
                    if not within_budget(trial):
                        continue
                    gain = evaluate_selection(problem, trial).objective - value
                    if gain > best_gain:
                        best_gain, best_next = gain, trial
        if best_next is None:
            break
        current = best_next
        value += best_gain
    return evaluate_selection(problem, current)


def detection_probability_reference(values, ids, j: int) -> float:
    """Noisy-OR at cell j: one minus the product of the rows' misses."""
    miss = 1.0
    for i in ids:
        miss *= 1.0 - values[i][j]
    return 1.0 - miss


def clip_polygon_reference(subject, clip):
    """Sutherland-Hodgman clip of ``subject`` by the convex CCW ``clip``.

    The loop as first written: indices taken modulo the length and a list
    of every vertex's side of each clip edge.  ``boxes._clip_polygon``
    must return the same vertex list, float for float.
    """
    output = subject
    for i in range(len(clip)):
        if not output:
            return []
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % len(clip)]
        ex, ey = bx - ax, by - ay
        dots = [ex * (py - ay) - ey * (px - ax) for px, py in output]
        clipped = []
        for k in range(len(output)):
            k2 = (k + 1) % len(output)
            d1, d2 = dots[k], dots[k2]
            if d1 >= 0.0:
                clipped.append(output[k])
                if d2 < 0.0:
                    t = d1 / (d1 - d2)
                    p1, p2 = output[k], output[k2]
                    clipped.append((p1[0] + t * (p2[0] - p1[0]),
                                    p1[1] + t * (p2[1] - p1[1])))
            elif d2 >= 0.0:
                t = d1 / (d1 - d2)
                p1, p2 = output[k], output[k2]
                clipped.append((p1[0] + t * (p2[0] - p1[0]),
                                p1[1] + t * (p2[1] - p1[1])))
        output = clipped
    return output


def matrix_body_reference(mf) -> str:
    """A matrix file's body as first written: one ``format(float(v), ".9g")``
    per entry.  ``formats.save_matrix`` must write the same bytes."""
    def fmt(value):
        return format(float(value), ".9g")

    rows, cols = mf.matrix.values.shape
    lines = [f"modality {mf.matrix.modality}", f"rows {rows}", f"cols {cols}",
             f"epsilon {fmt(mf.matrix.epsilon)}",
             f"scene_hash {mf.scene_hash}",
             "cells " + " ".join(str(c) for c in mf.cells),
             "weights " + " ".join(fmt(w) for w in mf.weights),
             "costs " + " ".join(fmt(c) for c in mf.costs),
             "ids " + " ".join(mf.ids)]
    if mf.manifest is not None:
        lines.append(f"manifest {mf.manifest}")
    for i in range(rows):
        lines.append(" ".join(fmt(v) for v in mf.matrix.values[i]))
    return "\n".join(lines) + "\n"


def load_frames_reference(path):
    """``formats.load_frames`` as it was before it checked a file's box records
    in bulk: stdlib json parses the body, then one record at a time is
    type-checked and built by the ``DetectionBox`` constructor, which checks
    the ranges.  The loader must raise the same ParseError text or return
    equal boxes."""
    from crossview import DetectionBox
    from crossview.formats import FRAMES_MAGIC, ParseError, _load_document, _require_keys

    required = frozenset({"center", "size", "yaw", "class_label", "score", "source"})
    keys = required | {"velocity"}

    def is_numbers(value, n):
        return type(value) is list and len(value) == n and {int, float}.issuperset(map(type, value))

    def box_from_record(rec):
        if not isinstance(rec, dict):
            raise ParseError(": expected an object")
        if rec.keys() != keys:
            _require_keys(rec, required, {"velocity"}, "")
        center, size, velocity = rec["center"], rec["size"], rec.get("velocity")
        if not is_numbers(center, 3):
            raise ParseError(f".center: expected a list of 3 numbers, got {center!r}")
        if not is_numbers(size, 3):
            raise ParseError(f".size: expected a list of 3 numbers, got {size!r}")
        if velocity is not None and not is_numbers(velocity, 2):
            raise ParseError(f".velocity: expected a list of 2 numbers, got {velocity!r}")
        for key in ("yaw", "score"):
            if type(rec[key]) not in (int, float):
                raise ParseError(f".{key}: expected a number, got {rec[key]!r}")
        try:
            return DetectionBox(center, size, rec["yaw"], rec["class_label"], rec["score"],
                                rec["source"], velocity)
        except (ValueError, OverflowError) as exc:
            raise ParseError(f": {exc}") from exc

    payload = _load_document(path, FRAMES_MAGIC)[0]
    where = str(path)
    _require_keys(payload, {"frames"}, {"manifest"}, where)
    if not isinstance(payload["frames"], list):
        raise ParseError(f"{where}: frames must be a list")
    if not isinstance(payload.get("manifest", ""), str):
        raise ParseError(f"{where}.manifest: expected a string, got {payload['manifest']!r}")
    out = {}
    for k, rec in enumerate(payload["frames"]):
        boxes = None
        try:
            if not isinstance(rec, dict):
                raise ParseError(": expected an object")
            _require_keys(rec, {"frame_id", "boxes"}, set(), "")
            frame_id = rec["frame_id"]
            if not isinstance(frame_id, str):
                raise ParseError(f".frame_id: expected a string, got {frame_id!r}")
            if frame_id in out:
                raise ParseError(f": duplicate frame_id {frame_id!r}")
            if not isinstance(rec["boxes"], list):
                raise ParseError(".boxes: expected a list")
            boxes = []
            for b in rec["boxes"]:
                boxes.append(box_from_record(b))
        except ParseError as exc:
            at = "" if boxes is None else f".boxes[{len(boxes)}]"
            raise ParseError(f"{where}.frames[{k}]{at}{exc}") from exc
        out[frame_id] = boxes
    return out


def fuse_late_reference(lidar_detections, radar_detections, config=None):
    """``fusion.fuse_late`` as it was before fusion ran on box tables: a per-pair
    ``iou_3d`` loop, the pairs sorted by (-IoU, lidar ``sort_key``, radar
    ``sort_key``, indices), greedy one-to-one matching, and one ``DetectionBox``
    per merge.  ``fusion.fuse_late`` of tables must give the same boxes, repr for repr."""
    from crossview import DetectionBox, FusionConfig, iou_3d
    from crossview.boxes import normalize_yaw

    def weights(a, b):
        total = a.score + b.score
        if total == 0.0:
            return 0.5, 0.5
        return a.score / total, b.score / total

    def merge(lidar_box, radar_box):
        wl, wr = weights(lidar_box, radar_box)
        center = tuple(wl * lc + wr * rc for lc, rc in zip(lidar_box.center, radar_box.center))
        size = tuple(wl * ls + wr * rs for ls, rs in zip(lidar_box.size, radar_box.size))
        sin_sum = wl * math.sin(lidar_box.yaw) + wr * math.sin(radar_box.yaw)
        cos_sum = wl * math.cos(lidar_box.yaw) + wr * math.cos(radar_box.yaw)
        yaw = normalize_yaw(math.atan2(sin_sum, cos_sum))
        return DetectionBox(center=center, size=size, yaw=yaw,
                            class_label=lidar_box.class_label,
                            score=max(lidar_box.score, radar_box.score), source="fused",
                            velocity=radar_box.velocity)

    config = config or FusionConfig()
    for box in lidar_detections:
        if box.source != "lidar":
            raise ValueError(f"lidar_detections contains a {box.source!r} box")
    for box in radar_detections:
        if box.source != "radar":
            raise ValueError(f"radar_detections contains a {box.source!r} box")
    pairs = []
    for li, lbox in enumerate(lidar_detections):
        for ri, rbox in enumerate(radar_detections):
            if lbox.class_label != rbox.class_label:
                continue
            iou = iou_3d(lbox, rbox)
            if iou >= config.iou_threshold:
                pairs.append((iou, li, ri))
    pairs.sort(key=lambda p: (-p[0], lidar_detections[p[1]].sort_key(),
                              radar_detections[p[2]].sort_key(), p[1], p[2]))
    used_l, used_r, out = set(), set(), []
    for _, li, ri in pairs:
        if li in used_l or ri in used_r:
            continue
        used_l.add(li)
        used_r.add(ri)
        out.append(merge(lidar_detections[li], radar_detections[ri]))
    out += [b for i, b in enumerate(lidar_detections) if i not in used_l]
    out += [b for i, b in enumerate(radar_detections) if i not in used_r]
    out.sort(key=lambda b: (-b.score, b.sort_key()))
    return out


def evaluate_map_reference(frames, classes, matching_mode, thresholds):
    """``metrics.evaluate_map`` as it was before matching ran on box tables: per
    class and frame, predictions in score order each scan the truth in
    ``sort_key`` order for the best free box (``iou_3d`` or ``math.hypot``
    center distance), and AP comes from the pooled outcomes.  ``thresholds``
    maps every class to its threshold.  ``metrics.evaluate_map`` of tables
    must return an equal ``MapResult``."""
    from crossview import APResult, MapResult, iou_3d

    per_class = {}
    for label in classes:
        threshold = thresholds[label]
        outcomes, num_gt, num_pred = [], 0, 0
        for frame in frames:
            preds = sorted((b for b in frame.predictions if b.class_label == label),
                           key=lambda b: (-b.score, b.sort_key()))
            gts = sorted((b for b in frame.ground_truth if b.class_label == label),
                         key=lambda b: b.sort_key())
            num_gt += len(gts)
            num_pred += len(preds)
            taken = [False] * len(gts)
            for rank, pred in enumerate(preds):
                best, best_metric = -1, None
                for g, gt in enumerate(gts):
                    if taken[g]:
                        continue
                    if matching_mode == "iou":
                        m = iou_3d(pred, gt)
                        if m < threshold:
                            continue
                        if best_metric is None or m > best_metric:
                            best, best_metric = g, m
                    else:
                        m = math.hypot(pred.center[0] - gt.center[0],
                                       pred.center[1] - gt.center[1])
                        if m > threshold:
                            continue
                        if best_metric is None or m < best_metric:
                            best, best_metric = g, m
                if best >= 0:
                    taken[best] = True
                outcomes.append((pred.score, frame.frame_id, rank, best >= 0))
        if num_gt == 0:
            per_class[label] = APResult(label, None, (), (), matching_mode, threshold, 0,
                                        num_pred)
            continue
        if not outcomes:
            per_class[label] = APResult(label, 0.0, (), (), matching_mode, threshold, num_gt, 0)
            continue
        outcomes.sort(key=lambda o: (-o[0], o[1], o[2]))
        tp = np.cumsum([1.0 if o[3] else 0.0 for o in outcomes])
        fp = np.cumsum([0.0 if o[3] else 1.0 for o in outcomes])
        precision = tp / (tp + fp)
        recall = tp / num_gt
        envelope = np.maximum.accumulate(precision[::-1])[::-1]
        idx = np.searchsorted(recall, np.arange(101) / 100.0, side="left")
        points = np.where(idx < recall.shape[0],
                          envelope[np.minimum(idx, recall.shape[0] - 1)], 0.0)
        per_class[label] = APResult(label, float(np.sum(points) / 101.0),
                                    tuple(float(p) for p in precision),
                                    tuple(float(r) for r in recall), matching_mode, threshold,
                                    num_gt, num_pred)
    defined = [r.ap for r in per_class.values() if r.ap is not None]
    if not defined:
        raise ValueError("no evaluable classes: every class lacks ground truth")
    return MapResult(per_class, float(np.sum(np.asarray(defined)) / len(defined)), matching_mode)
