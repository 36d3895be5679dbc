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
