"""Output checks computed apart from the program.

Every check reads the files an operation wrote with this module's own
parsers and recomputes the answer the slow, obvious way: scalar ray
casts, plain loops and subset enumeration.  Only ``iou_3d`` is borrowed
from crossview, for the IoU-mode AP, and it is spot-checked against a
Monte Carlo IoU here.  Each check returns a list of problems; an empty
list means the output is correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from crossview.boxes import DetectionBox, iou_3d

SEEN_TOL = 1e-9  # the optimizer's tolerance on the seen threshold
REL_TOL = 1e-9
ENUM_LIMIT = 10_000  # feasible subsets beyond which placement gets a local check
MC_PAIRS = 8  # iou_3d values spot-checked per evaluation
MC_SAMPLES = 200_000  # points per Monte Carlo IoU
CLASSES = ("car", "truck", "motorcycle", "bus", "pedestrian", "golf_cart")
IOU_THRESHOLDS = {"car": 0.5, "truck": 0.5, "bus": 0.5, "golf_cart": 0.5,
                  "motorcycle": 0.25, "pedestrian": 0.25}
CENTER_THRESHOLD = 2.0
OBJECT_HEIGHT = 1.7  # VisibilityConfig defaults: probe at half the target height
EPSILON = 1e-6


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


# -- parsers -----------------------------------------------------------------

def read_payload(path: Path) -> dict:
    """Payload of a JSON-bodied artifact: a magic line, then the JSON body."""
    _, body = Path(path).read_text().split("\n", 1)
    return json.loads(body)["payload"]


def read_matrix(path: Path) -> dict:
    """A ``.vismatrix`` file: header lines, then one row per candidate."""
    lines = Path(path).read_text().splitlines()[1:]
    header = {}
    rows = []
    for line in lines:
        key, _, rest = line.partition(" ")
        if key in ("modality", "rows", "cols", "epsilon", "scene_hash", "cells",
                   "weights", "costs", "ids", "manifest"):
            header[key] = rest
        elif line.strip():
            rows.append([float(v) for v in line.split()])
    n_cols = int(header["cols"])
    values = np.array(rows, dtype=float).reshape(int(header["rows"]), n_cols)
    return {
        "modality": header["modality"],
        "cells": [int(c) for c in header["cells"].split()],
        "weights": np.array([float(w) for w in header["weights"].split()]),
        "costs": np.array([float(c) for c in header["costs"].split()]),
        "ids": header["ids"].split(),
        "values": values,
    }


# -- visibility --------------------------------------------------------------

def _sample_visible(mount: dict, sx: float, sy: float, occluders: list) -> bool:
    spec = mount["spec"]
    mx, my, mz = mount["position"]
    dx, dy = sx - mx, sy - my
    horiz = math.sqrt(dx * dx + dy * dy)
    if horiz > spec["max_range_m"]:
        return False
    azimuth = math.degrees(math.atan2(dy, dx))
    off = (azimuth - mount.get("yaw_deg", 0.0) + 180.0) % 360.0 - 180.0
    if abs(off) > spec["hfov_deg"] / 2.0:
        return False
    pitch = mount.get("pitch_deg", 0.0)
    probe = OBJECT_HEIGHT / 2.0
    if spec["modality"] == "radar":
        elev = math.degrees(math.atan2(probe - mz, horiz))
        if abs(elev + pitch) > spec["vfov_deg"] / 2.0:
            return False
    else:
        lo_e = math.degrees(math.atan2(-mz, horiz))
        hi_e = math.degrees(math.atan2(OBJECT_HEIGHT - mz, horiz))
        lo, hi = min(lo_e, hi_e) + pitch, max(lo_e, hi_e) + pitch
        half = spec["vfov_deg"] / 2.0
        n = spec["beams"]
        step = (half - -half) / (n - 1)
        beams = [i * step - half for i in range(n - 1)] + [half]
        if not any(lo <= b <= hi for b in beams):
            return False
    for lo_c, hi_c in occluders:
        t_enter, t_exit = 0.0, 1.0
        for o, p, lo_b, hi_b in zip((mx, my, mz), (sx, sy, probe), lo_c, hi_c):
            d = p - o
            if d == 0.0:
                if not lo_b <= o <= hi_b:
                    t_enter, t_exit = 1.0, 0.0
                continue
            t1, t2 = (lo_b - o) / d, (hi_b - o) / d
            t_enter = max(t_enter, min(t1, t2))
            t_exit = min(t_exit, max(t1, t2))
        if t_enter <= t_exit:
            return False
    return True


def scalar_visibility(scene: dict, mount: dict, cell: int, samples_per_cell: int) -> float:
    grid = scene["grid"]
    row, col = divmod(cell, grid["nx"])
    m = math.isqrt(samples_per_cell)
    if m * m < samples_per_cell:
        m += 1
    occluders = [(o["min_corner"], o["max_corner"]) for o in scene["occluders"]]
    seen = 0
    for k in range(samples_per_cell):
        sx = grid["origin_xy"][0] + (col + ((k % m) + 0.5) / m) * grid["cell_size"]
        sy = grid["origin_xy"][1] + (row + ((k // m) + 0.5) / m) * grid["cell_size"]
        seen += _sample_visible(mount, sx, sy, occluders)
    return min(seen / samples_per_cell, 1.0 - EPSILON)


def visibility_samples(scene_path: Path, lidar: dict, radar: dict, samples_per_cell: int,
                       seed: int, n_entries: int = 120) -> list[str]:
    """Sampled matrix entries equal a scalar ray cast of the scene file."""
    scene = read_payload(scene_path)
    rng = np.random.default_rng([seed, 41])
    problems = []
    for matrix, mounts in ((lidar, scene["lidar_candidates"]), (radar, scene["radar_candidates"])):
        values = matrix["values"]
        if values.shape != (len(mounts), len(scene["roi"]["cells"])):
            problems.append(f"{matrix['modality']} matrix has shape {values.shape}")
            continue
        if values.size <= n_entries:
            picks = range(values.size)
        else:
            picks = rng.choice(values.size, size=n_entries, replace=False)
        for flat in picks:
            i, col = divmod(int(flat), values.shape[1])
            expect = scalar_visibility(scene, mounts[i], matrix["cells"][col], samples_per_cell)
            if format(expect, ".9g") != format(values[i, col], ".9g"):
                problems.append(f"{matrix['modality']} visibility [{i}, {col}] is "
                                f"{values[i, col]!r}, ray cast gives {expect!r}")
    return problems


# -- placement and coverage --------------------------------------------------

def scalar_objective(lidar: dict, radar: dict, picks_l, picks_r, tau: float) -> float:
    total = 0.0
    for j, w in enumerate(lidar["weights"]):
        l_log = sum(-math.log1p(-lidar["values"][i, j]) for i in picks_l)
        r_log = sum(-math.log1p(-radar["values"][i, j]) for i in picks_r)
        if l_log >= tau - SEEN_TOL and r_log >= tau - SEEN_TOL:
            mass = sum(lidar["values"][i, j] for i in picks_l)
            mass += sum(radar["values"][i, j] for i in picks_r)
            total += mass * w
    return total


class _TooMany(Exception):
    pass


def _feasible_subsets(costs: list[float], budget: float, limit: int):
    """All index subsets with total cost within budget, or None past ``limit``."""
    found: list[tuple[int, ...]] = []

    def grow(start: int, combo: list[int], spent: float) -> None:
        found.append(tuple(combo))
        if len(found) > limit:
            raise _TooMany
        for i in range(start, len(costs)):
            if spent + costs[i] <= budget + SEEN_TOL:
                combo.append(i)
                grow(i + 1, combo, spent + costs[i])
                combo.pop()

    try:
        grow(0, [], 0.0)
    except _TooMany:
        return None
    return found


def _batch_objectives(lidar, radar, subsets, n_lidar, tau):
    llog = -np.log1p(-lidar["values"])
    rlog = -np.log1p(-radar["values"])
    out = np.empty(len(subsets))
    for start in range(0, len(subsets), 512):
        chunk = subsets[start:start + 512]
        sel = np.zeros((len(chunk), n_lidar + radar["values"].shape[0]))
        for r, combo in enumerate(chunk):
            sel[r, list(combo)] = 1.0
        sl, sr = sel[:, :n_lidar], sel[:, n_lidar:]
        seen = (sl @ llog >= tau - SEEN_TOL) & (sr @ rlog >= tau - SEEN_TOL)
        mass = (sl @ lidar["values"] + sr @ radar["values"]) * lidar["weights"]
        out[start:start + len(chunk)] = np.where(seen, mass, 0.0).sum(axis=1)
    return out


def placement(solution_path: Path, lidar: dict, radar: dict, mode: str, budget: float) -> list[str]:
    """Picks within budget, objective recomputed, and optimal.

    Optimality is proven by enumerating every feasible subset (value and
    lexicographically smallest pick) when there are at most ENUM_LIMIT of
    them; otherwise no single add, drop or swap within budget may improve.
    """
    sol = read_payload(solution_path)
    where = Path(solution_path).name
    tau = sol["seen_threshold"]
    n_lidar = lidar["values"].shape[0]
    picks_l, picks_r = list(sol["lidar_ids"]), list(sol["radar_ids"])
    if sol["budget_mode"] != mode or sol["budget"] != budget:
        return [f"{where}: budget {sol['budget_mode']} {sol['budget']}, expected {mode} {budget}"]
    if mode == "count":
        costs = [1.0] * (n_lidar + radar["values"].shape[0])
    else:
        costs = [float(c) for c in lidar["costs"]] + [float(c) for c in radar["costs"]]
    chosen = tuple(picks_l) + tuple(n_lidar + i for i in picks_r)
    problems = []
    if sum(costs[i] for i in chosen) > budget + SEEN_TOL:
        problems.append(f"{where}: picks cost {sum(costs[i] for i in chosen)} over budget {budget}")
    objective = scalar_objective(lidar, radar, picks_l, picks_r, tau)
    if not _close(objective, sol["objective"]):
        problems.append(f"{where}: objective {sol['objective']!r}, recomputed {objective!r}")

    subsets = _feasible_subsets(costs, budget, ENUM_LIMIT)
    if subsets is not None:
        values = _batch_objectives(lidar, radar, subsets, n_lidar, tau)
        best = float(values.max())
        tied = [subsets[k] for k in np.flatnonzero(values >= best - REL_TOL * max(1.0, best))]

        def key(combo):
            return (tuple(i for i in combo if i < n_lidar),
                    tuple(i - n_lidar for i in combo if i >= n_lidar))

        want = min(tied, key=key)
        if not _close(best, sol["objective"]) or key(want) != (tuple(sorted(picks_l)),
                                                              tuple(sorted(picks_r))):
            problems.append(f"{where}: picks {picks_l} {picks_r} ({sol['objective']!r}); "
                            f"enumeration of {len(subsets)} gives {key(want)} ({best!r})")
        return problems

    current = set(chosen)
    spent = sum(costs[i] for i in current)
    moves = [current | {i} for i in range(len(costs))
             if i not in current and spent + costs[i] <= budget + SEEN_TOL]
    moves += [current - {i} for i in current]
    moves += [(current - {o}) | {i} for o in current for i in range(len(costs))
              if i not in current and spent - costs[o] + costs[i] <= budget + SEEN_TOL]
    values = _batch_objectives(lidar, radar, [tuple(sorted(m)) for m in moves], n_lidar, tau)
    if moves and values.max() > objective + REL_TOL * max(1.0, objective):
        k = int(values.argmax())
        problems.append(f"{where}: move to {sorted(moves[k])} improves {objective!r} "
                        f"to {float(values[k])!r}")
    return problems


def coverage(coverage_path: Path, solution_path: Path, lidar: dict, radar: dict) -> list[str]:
    """Covered-cell counts match a recount from the matrices."""
    record = read_payload(coverage_path)["record"]
    sol = read_payload(solution_path)
    theta = record["theta"]
    n_cells = lidar["values"].shape[1]
    lidar_cov = [any(lidar["values"][i, j] > theta for i in sol["lidar_ids"]) for j in range(n_cells)]
    radar_cov = [any(radar["values"][i, j] > theta for i in sol["radar_ids"]) for j in range(n_cells)]
    either = sum(a or b for a, b in zip(lidar_cov, radar_cov))
    expect = {
        "covered_cells": either,
        "total_roi_cells": n_cells,
        "per_modality_covered": {"lidar": sum(lidar_cov), "radar": sum(radar_cov)},
    }
    problems = [f"{Path(coverage_path).name}: {k} is {record[k]!r}, recount gives {v!r}"
                for k, v in expect.items() if record[k] != v]
    if not _close(record["central_coverage"], either / n_cells):
        problems.append(f"{Path(coverage_path).name}: central_coverage {record['central_coverage']!r}")
    if sol["budget_mode"] == "cost":
        cost = sum(float(lidar["costs"][i]) for i in sol["lidar_ids"])
        cost += sum(float(radar["costs"][i]) for i in sol["radar_ids"])
        if not _close(record["total_cost"], cost):
            problems.append(f"{Path(coverage_path).name}: total_cost {record['total_cost']!r}, "
                            f"picks cost {cost!r}")
    return problems


def comparison(comparison_path: Path, coverage_paths: list[Path]) -> list[str]:
    """Pairwise deltas recomputed from the coverage reports."""
    reports = [read_payload(p)["record"] for p in coverage_paths]
    pairs = read_payload(comparison_path)["record"]["pairs"]
    problems = []
    expected = [(a, b) for a in range(len(reports)) for b in range(a + 1, len(reports))]
    if len(pairs) != len(expected):
        return [f"{Path(comparison_path).name}: {len(pairs)} pairs, expected {len(expected)}"]
    for pair, (a, b) in zip(pairs, expected):
        base, other = reports[a], reports[b]
        delta = other["central_coverage"] - base["central_coverage"]
        reduction = ((base["total_cost"] - other["total_cost"]) / base["total_cost"] * 100.0
                     if base["total_cost"] > 0 else None)
        ok = (pair["base"] == base["config_name"] and pair["other"] == other["config_name"]
              and _close(pair["coverage_delta"], delta)
              and (reduction is None) == (pair["cost_reduction_pct"] is None)
              and (reduction is None or _close(pair["cost_reduction_pct"], reduction)))
        if not ok:
            problems.append(f"{Path(comparison_path).name}: pair {pair} disagrees with reports")
    return problems


# -- fusion and metrics ------------------------------------------------------

def read_frames(path: Path) -> dict[str, list[dict]]:
    return {f["frame_id"]: f["boxes"] for f in read_payload(path)["frames"]}


def _record_key(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


def fused_frames(lidar_path: Path, radar_path: Path, fused_path: Path) -> list[str]:
    """Every fused frame holds lidar + radar - merges boxes.

    A merge is a box with source "fused"; every other output box is an
    unchanged input box of its own modality, each used at most once.
    """
    lidar, radar, fused = read_frames(lidar_path), read_frames(radar_path), read_frames(fused_path)
    problems = []
    ids = sorted(set(lidar) | set(radar))
    if sorted(fused) != ids:
        problems.append(f"{Path(fused_path).name}: {len(fused)} frames, inputs have {len(ids)}")
    for fid in ids:
        out = fused.get(fid, [])
        ins = {"lidar": lidar.get(fid, []), "radar": radar.get(fid, [])}
        merges = sum(b["source"] == "fused" for b in out)
        if len(out) != len(ins["lidar"]) + len(ins["radar"]) - merges:
            problems.append(f"{Path(fused_path).name} frame {fid}: {len(out)} boxes from "
                            f"{len(ins['lidar'])} lidar + {len(ins['radar'])} radar - {merges} merges")
            continue
        for source, boxes in ins.items():
            pool = [_record_key(b) for b in boxes]
            passed = [_record_key(b) for b in out if b["source"] == source]
            for key in passed:
                if key in pool:
                    pool.remove(key)
                else:
                    problems.append(f"{Path(fused_path).name} frame {fid}: a {source} box "
                                    "is not an input box")
            if len(passed) != len(boxes) - merges:
                problems.append(f"{Path(fused_path).name} frame {fid}: {len(passed)} {source} "
                                f"boxes pass through, expected {len(boxes) - merges}")
    return problems


def _box(record: dict) -> DetectionBox:
    return DetectionBox(
        center=tuple(record["center"]), size=tuple(record["size"]), yaw=record["yaw"],
        class_label=record["class_label"], score=record["score"], source=record["source"],
        velocity=None if record["velocity"] is None else tuple(record["velocity"]),
    )


def _sort_key(record: dict) -> tuple:
    return (tuple(record["center"]), tuple(record["size"]), record["yaw"],
            record["class_label"], record["score"], record["source"])


def _bev_apart(a: dict, b: dict) -> bool:
    """Footprints cannot touch: centers further apart than their radii."""
    dx = a["center"][0] - b["center"][0]
    dy = a["center"][1] - b["center"][1]
    ra = 0.5 * math.sqrt(a["size"][0] ** 2 + a["size"][1] ** 2)
    rb = 0.5 * math.sqrt(b["size"][0] ** 2 + b["size"][1] ** 2)
    return dx * dx + dy * dy > (ra + rb) ** 2 * (1.0 + 1e-9)


def mc_iou(a: DetectionBox, b: DetectionBox, rng: np.random.Generator) -> float:
    """Monte Carlo IoU: uniform points in the union's bounding volume."""
    def corners(box):
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        hl, hw = box.size[0] / 2.0, box.size[1] / 2.0
        return [(box.center[0] + u * c - v * s, box.center[1] + u * s + v * c)
                for u in (-hl, hl) for v in (-hw, hw)]

    pts = corners(a) + corners(b)
    lo = (min(p[0] for p in pts), min(p[1] for p in pts),
          min(a.center[2] - a.size[2] / 2, b.center[2] - b.size[2] / 2))
    hi = (max(p[0] for p in pts), max(p[1] for p in pts),
          max(a.center[2] + a.size[2] / 2, b.center[2] + b.size[2] / 2))
    xyz = rng.uniform(lo, hi, size=(MC_SAMPLES, 3))

    def inside(box):
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        dx, dy = xyz[:, 0] - box.center[0], xyz[:, 1] - box.center[1]
        return ((np.abs(dx * c + dy * s) <= box.size[0] / 2)
                & (np.abs(-dx * s + dy * c) <= box.size[1] / 2)
                & (np.abs(xyz[:, 2] - box.center[2]) <= box.size[2] / 2))

    in_a, in_b = inside(a), inside(b)
    union = int(np.count_nonzero(in_a | in_b))
    return int(np.count_nonzero(in_a & in_b)) / union if union else 0.0


def plain_ap(truth: dict, preds: dict, label: str, mode: str, iou_pairs: list) -> tuple:
    """(AP or None, num_gt, num_predictions) by plain loops, 101-point interpolation.

    Per frame, predictions in descending score order each take the best
    free ground-truth box of the class within the threshold.  Pairs
    whose IoU was computed and is nonzero are appended to ``iou_pairs``.
    """
    threshold = IOU_THRESHOLDS[label] if mode == "iou" else CENTER_THRESHOLD
    rows = []
    num_gt = num_pred = 0
    for fid in sorted(set(truth) | set(preds)):
        p = sorted((b for b in preds.get(fid, []) if b["class_label"] == label),
                   key=lambda b: (-b["score"], _sort_key(b)))
        g = sorted((b for b in truth.get(fid, []) if b["class_label"] == label), key=_sort_key)
        num_gt += len(g)
        num_pred += len(p)
        free = [True] * len(g)
        gboxes = [None] * len(g)
        for rank, pred in enumerate(p):
            best, best_m = -1, None
            pbox = None
            for k, gt in enumerate(g):
                if not free[k]:
                    continue
                if mode == "iou":
                    if _bev_apart(pred, gt):
                        continue
                    pbox = pbox or _box(pred)
                    gboxes[k] = gboxes[k] or _box(gt)
                    m = iou_3d(pbox, gboxes[k])
                    if m > 0.0:
                        iou_pairs.append((pbox, gboxes[k], m))
                    if m >= threshold and (best_m is None or m > best_m):
                        best, best_m = k, m
                else:
                    dx = pred["center"][0] - gt["center"][0]
                    dy = pred["center"][1] - gt["center"][1]
                    m = math.sqrt(dx * dx + dy * dy)
                    if m <= threshold and (best_m is None or m < best_m):
                        best, best_m = k, m
            if best >= 0:
                free[best] = False
            rows.append((pred["score"], fid, rank, best >= 0))
    if num_gt == 0:
        return None, num_gt, num_pred
    rows.sort(key=lambda r: (-r[0], r[1], r[2]))
    precision, recall = [], []
    tp = 0
    for k, row in enumerate(rows):
        tp += row[3]
        precision.append(tp / (k + 1))
        recall.append(tp / num_gt)
    envelope = precision[:]
    for i in range(len(envelope) - 2, -1, -1):
        envelope[i] = max(envelope[i], envelope[i + 1])
    total = 0.0
    i = 0
    for step in range(101):
        while i < len(rows) and recall[i] < step / 100.0:
            i += 1
        total += envelope[i] if i < len(rows) else 0.0
    return total / 101.0, num_gt, num_pred


def evaluation(truth_path: Path, fused_path: Path, evaluation_path: Path, mode: str,
               seed: int) -> list[str]:
    """Per-class AP and mAP equal the plain-loop AP of the frames files."""
    truth, preds = read_frames(truth_path), read_frames(fused_path)
    record = read_payload(evaluation_path)["record"]
    where = Path(evaluation_path).name
    problems = []
    if record["matching_mode"] != mode:
        problems.append(f"{where}: matching_mode {record['matching_mode']!r}, expected {mode!r}")
    iou_pairs: list = []
    defined = []
    for label in CLASSES:
        ap, num_gt, num_pred = plain_ap(truth, preds, label, mode, iou_pairs)
        got = record["per_class"][label]
        if ap is not None:
            defined.append(ap)
        same_ap = (got["ap"] is None) if ap is None else (got["ap"] is not None
                                                         and abs(got["ap"] - ap) <= 1e-9)
        if not same_ap or got["num_gt"] != num_gt or got["num_predictions"] != num_pred:
            problems.append(f"{where}: {label} AP {got['ap']!r} gt {got['num_gt']} preds "
                            f"{got['num_predictions']}; plain loop gives {ap!r} {num_gt} {num_pred}")
    mean_ap = sum(defined) / len(defined) if defined else None
    if mean_ap is None or abs(record["mean_ap"] - mean_ap) > 1e-9:
        problems.append(f"{where}: mAP {record['mean_ap']!r}, plain loop gives {mean_ap!r}")
    if mode == "iou" and iou_pairs:
        rng = np.random.default_rng([seed, 51])
        step = max(1, len(iou_pairs) // MC_PAIRS)
        for a, b, value in iou_pairs[::step][:MC_PAIRS]:
            estimate = mc_iou(a, b, rng)
            if abs(estimate - value) > 0.02:
                problems.append(f"{where}: iou_3d gives {value:.4f}, Monte Carlo {estimate:.4f}")
    return problems
