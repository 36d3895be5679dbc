"""Command line front end.

Subcommands mirror the library stages: visibility, optimize, export-milp,
coverage, compare, simulate, fuse, evaluate, and an end-to-end pipeline.
Options come from flags first, then an optional --config JSON file, then
built-in defaults; a --config key the command does not read is an error.
Each stage has one settings reader and one stage function: a subcommand
passes them its --config dict and flags, and ``pipeline`` passes the
matching section of its own config, so both paths write the same data
files.

A command that writes files also writes a ``<first-output>.manifest``
sidecar recording the command, input digests, effective config and wall
time (``compare`` and ``evaluate`` write files only with --out); data files
reference the manifest by name.  Exit codes: 0 success, 2 usage, 3
unreadable or malformed input file, 4 invalid values or scene, 5 instance
too large for the requested solver, 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .boxes import CLASSES
from .coverage import compare_configs, coverage_report
from .formats import (
    MatrixFile,
    ParseError,
    SolutionFile,
    baseline_from_record,
    coverage_from_record,
    file_sha256,
    load_frame_pairs,
    load_frames,
    load_matrix,
    load_report,
    load_scene,
    load_solution,
    save_frames,
    save_manifest,
    save_matrix,
    save_report,
    save_solution,
    scene_hash,
)
from .fusion import FusionConfig, fuse_late
from .lp_export import export_milp
from .metrics import MATCHING_MODES, evaluate_map, pair_frames
from .placement import (
    InstanceTooLargeError,
    PlacementProblem,
    Selection,
    solve_branch_bound,
    solve_exhaustive,
    solve_greedy,
)
from .scenario import NoiseSpec, ScenarioConfig, generate_scenario
from .scene import LIDAR, RADAR, validate_scene
from .visibility import VisibilityConfig, build_visibility

SOLVERS = {
    "branch-bound": solve_branch_bound,
    "exhaustive": solve_exhaustive,
    "greedy": solve_greedy,
}


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _load_config_file(path, allowed: frozenset) -> dict:
    """A --config file's object; a key outside ``allowed`` is a typo, not a no-op."""
    if path is None:
        return {}
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON config: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: config must be a JSON object")
    _check_keys(obj, allowed, str(path))
    return obj


def _pick(args, flag: str, config: dict, key: str, default):
    """Flag beats config value beats default; ``args`` is None in pipeline mode."""
    value = getattr(args, flag, None)
    if value is not None:
        return value
    return config.get(key, default)


def _check_keys(config: dict, allowed: frozenset, where: str) -> None:
    unknown = sorted(config.keys() - allowed)
    if unknown:
        raise ValueError(f"{where}: unknown key {unknown[0]!r}")


def _config_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be an object")
    return value


def _config_number(value, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = float("inf")
    if not np.isfinite(number):
        raise ValueError(f"{where} must be a finite number, got {value!r}")
    return number


def _config_integer(value, where: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    number = _config_number(value, where)
    if not number.is_integer():
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return int(number)


def _section(config: dict, key: str, allowed: frozenset, where: str) -> dict:
    """The object under ``key`` (empty if absent), with its keys checked."""
    value = _config_object(config.get(key, {}), f"{where} {key!r}")
    _check_keys(value, allowed, f"{where} {key!r}")
    return value


def _save_manifest(path, command: str, inputs, outputs, config: dict, started: float) -> None:
    save_manifest(path, {
        "command": command,
        "tool_version": __version__,
        "inputs": {str(p): file_sha256(p) for p in inputs},
        "outputs": [Path(o).name for o in outputs],
        "config": config,
        "wall_time_s": time.perf_counter() - started,
    })


def _checked_scene(path):
    scene = load_scene(path)
    violations = validate_scene(scene)
    if violations:
        raise ValueError("; ".join(f"scene: {v}" for v in violations))
    return scene


_VISIBILITY_KEYS = frozenset(
    {"samples_per_cell", "object_height_m", "sample_height_m", "epsilon"})


def _visibility_config(config: dict, args=None) -> VisibilityConfig:
    sample_height = _pick(args, "sample_height", config, "sample_height_m", None)
    return VisibilityConfig(
        samples_per_cell=_config_integer(
            _pick(args, "samples_per_cell", config, "samples_per_cell", 9), "samples_per_cell"),
        object_height_m=_config_number(
            _pick(args, "object_height", config, "object_height_m", 1.7), "object_height_m"),
        sample_height_m=(None if sample_height is None
                         else _config_number(sample_height, "sample_height_m")),
        epsilon=_config_number(_pick(args, "epsilon", config, "epsilon", 1e-6), "epsilon"),
    )


def _visibility_stage(scene, vis_cfg: VisibilityConfig, workers: int, paths,
                      manifest: str) -> list[MatrixFile]:
    """Ray-cast both modalities and save the lidar and radar matrix files."""
    if workers < 1:
        raise ValueError("workers must be at least 1")
    cells = tuple(scene.roi.sorted_cells())
    weights = np.array([scene.roi.weight_of(j) for j in cells])
    digest = scene_hash(scene)
    files = []
    for matrix, mounts, path in zip(build_visibility(scene, vis_cfg, workers),
                                    (scene.lidar_candidates, scene.radar_candidates), paths):
        mf = MatrixFile(
            matrix=matrix,
            scene_hash=digest,
            cells=cells,
            weights=weights,
            costs=np.array([m.spec.unit_cost for m in mounts]),
            ids=tuple(m.id for m in mounts),
            manifest=manifest,
        )
        save_matrix(path, mf)
        files.append(mf)
    return files


def cmd_visibility(args) -> int:
    started = time.perf_counter()
    config = _load_config_file(args.config, _VISIBILITY_KEYS | {"workers"})
    scene = _checked_scene(args.scene)
    vis_cfg = _visibility_config(config, args)
    workers = _config_integer(_pick(args, "workers", config, "workers", 1), "workers")
    outputs = [args.out_lidar, args.out_radar]
    manifest_path = f"{args.out_lidar}.manifest"
    files = _visibility_stage(scene, vis_cfg, workers, outputs, Path(manifest_path).name)
    _save_manifest(manifest_path, "visibility", [args.scene], outputs,
                   {**asdict(vis_cfg), "workers": workers}, started)
    for path, mf in zip(outputs, files):
        print(f"wrote {path} ({mf.matrix.n_candidates}x{mf.matrix.n_cells})")
    return 0


def _load_matrix_pair(lidar_path, radar_path):
    lf = load_matrix(lidar_path)
    rf = load_matrix(radar_path)
    if lf.matrix.modality != LIDAR:
        raise ValueError(f"{lidar_path} holds a {lf.matrix.modality!r} matrix, expected lidar")
    if rf.matrix.modality != RADAR:
        raise ValueError(f"{radar_path} holds a {rf.matrix.modality!r} matrix, expected radar")
    if lf.scene_hash != rf.scene_hash:
        _warn("matrix scene hashes differ; they may come from different scenes")
    if lf.cells != rf.cells:
        raise ValueError("matrices disagree on ROI cells")
    if not np.array_equal(lf.weights, rf.weights):
        raise ValueError("matrices disagree on cell weights")
    return lf, rf


def _problem_from_files(lf: MatrixFile, rf: MatrixFile, settings: dict) -> PlacementProblem:
    """The placement problem for ``settings``' budget, budget_mode and seen_threshold."""
    return PlacementProblem.from_matrices(
        lf.matrix,
        rf.matrix,
        lf.weights,
        budget=settings["budget"],
        seen_threshold=settings["seen_threshold"],
        budget_mode=settings["budget_mode"],
        lidar_costs=lf.costs,
        radar_costs=rf.costs,
    )


_OPTIMIZE_KEYS = frozenset({"budget", "budget_mode", "seen_threshold", "solver"})


def _optimize_settings(config: dict, args=None) -> dict:
    budget = _pick(args, "budget", config, "budget", None)
    if budget is None:
        raise ValueError("budget is required (flag --budget or config key 'budget')")
    budget_mode = _pick(args, "budget_mode", config, "budget_mode", "count")
    threshold = _config_number(_pick(args, "threshold", config, "seen_threshold", 1.0),
                               "seen_threshold")
    solver = _pick(args, "solver", config, "solver", "branch-bound")
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; choose from {sorted(SOLVERS)}")
    return {"budget": _config_number(budget, "budget"), "budget_mode": budget_mode,
            "seen_threshold": threshold, "solver": solver}


def _optimize_stage(lf: MatrixFile, rf: MatrixFile, settings: dict, path, manifest: str):
    """Solve the placement problem and save its solution file."""
    problem = _problem_from_files(lf, rf, settings)
    solution = SOLVERS[settings["solver"]](problem)
    lidar_ids, radar_ids = solution.selection.canonical_key()
    sol_file = SolutionFile(
        lidar_ids=lidar_ids,
        radar_ids=radar_ids,
        lidar_candidate_ids=tuple(lf.ids[i] for i in lidar_ids),
        radar_candidate_ids=tuple(rf.ids[i] for i in radar_ids),
        objective=solution.objective,
        optimal=solution.optimal,
        budget=settings["budget"],
        budget_mode=settings["budget_mode"],
        seen_threshold=settings["seen_threshold"],
        scene_hash=lf.scene_hash,
        manifest=manifest,
    )
    save_solution(path, sol_file)
    return problem, solution, sol_file


def cmd_optimize(args) -> int:
    started = time.perf_counter()
    config = _load_config_file(args.config, _OPTIMIZE_KEYS)
    lf, rf = _load_matrix_pair(args.lidar, args.radar)
    settings = _optimize_settings(config, args)
    manifest_path = f"{args.out}.manifest"
    _, solution, sol_file = _optimize_stage(lf, rf, settings, args.out, Path(manifest_path).name)
    _save_manifest(manifest_path, "optimize", [args.lidar, args.radar], [args.out],
                   settings, started)
    lidar_names = ", ".join(sol_file.lidar_candidate_ids) or "-"
    radar_names = ", ".join(sol_file.radar_candidate_ids) or "-"
    print(f"objective {solution.objective:.9g} ({'optimal' if solution.optimal else 'heuristic'})")
    print(f"lidar: {lidar_names}")
    print(f"radar: {radar_names}")
    print(f"wrote {args.out}")
    return 0


def cmd_export_milp(args) -> int:
    started = time.perf_counter()
    config = _load_config_file(args.config, _OPTIMIZE_KEYS)
    lf, rf = _load_matrix_pair(args.lidar, args.radar)
    settings = _optimize_settings(config, args)
    text = export_milp(_problem_from_files(lf, rf, settings))
    Path(args.out).write_text(text)
    effective = {k: settings[k] for k in ("budget", "budget_mode", "seen_threshold")}
    _save_manifest(f"{args.out}.manifest", "export-milp", [args.lidar, args.radar],
                   [args.out], effective, started)
    print(f"wrote {args.out} ({len(text.splitlines())} lines)")
    return 0


def _selection_from_solution(sol: SolutionFile, lf: MatrixFile, rf: MatrixFile) -> Selection:
    for i in sol.lidar_ids:
        if not 0 <= i < lf.matrix.n_candidates:
            raise ValueError(f"solution lidar index {i} out of range for the matrix")
    for i in sol.radar_ids:
        if not 0 <= i < rf.matrix.n_candidates:
            raise ValueError(f"solution radar index {i} out of range for the matrix")
    return Selection.of(sol.lidar_ids, sol.radar_ids)


_COVERAGE_KEYS = frozenset({"theta", "name"})


def cmd_coverage(args) -> int:
    started = time.perf_counter()
    config = _load_config_file(args.config, _COVERAGE_KEYS)
    lf, rf = _load_matrix_pair(args.lidar, args.radar)
    sol = load_solution(args.solution)
    if sol.scene_hash != lf.scene_hash:
        _warn("solution scene hash differs from the matrices")
    selection = _selection_from_solution(sol, lf, rf)
    theta = _config_number(_pick(args, "theta", config, "theta", 0.0), "theta")
    name = _pick(args, "name", config, "name", Path(args.solution).stem)
    problem = _problem_from_files(lf, rf, asdict(sol))
    report = coverage_report(problem, selection, config_name=name, theta=theta)
    manifest_path = f"{args.out}.manifest"
    save_report(args.out, "coverage", report.to_record(), Path(manifest_path).name)
    _save_manifest(manifest_path, "coverage", [args.lidar, args.radar, args.solution],
                   [args.out], {"theta": theta, "name": name}, started)
    print(
        f"{name}: coverage {report.central_coverage:.1%}"
        f" ({report.covered_cells}/{report.total_roi_cells}),"
        f" {report.sensor_count} sensors, cost {report.total_cost:.2f}"
    )
    print(f"wrote {args.out}")
    return 0


def cmd_compare(args) -> int:
    started = time.perf_counter()
    reports = []
    for path in args.reports:
        kind, record = load_report(path)
        if kind != "coverage":
            raise ValueError(f"{path} is a {kind!r} report, expected coverage")
        reports.append(coverage_from_record(record, f"{path} record"))
    comparison = compare_configs(reports)
    print(comparison.to_text(), end="")
    if args.out:
        manifest_path = f"{args.out}.manifest"
        save_report(args.out, "coverage_comparison", comparison.to_record(),
                    Path(manifest_path).name)
        _save_manifest(manifest_path, "compare", list(args.reports), [args.out], {}, started)
        print(f"wrote {args.out}")
    return 0


def _noise_spec(record, where: str) -> NoiseSpec:
    if not isinstance(record, dict):
        raise ValueError(f"{where} must be an object of sigma fields")
    allowed = {"position_sigma", "size_sigma", "yaw_sigma", "velocity_sigma"}
    for key in record:
        if key not in allowed:
            raise ValueError(f"{where}: unknown noise field {key!r}")
    return NoiseSpec(**{k: _config_number(v, f"{where}.{k}") for k, v in record.items()})


def _speed_range(value, where: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"{where} must be a [low, high] pair of numbers, got {value!r}")
    return _config_number(value[0], where), _config_number(value[1], where)


_SCENARIO_KEYS = frozenset(
    {"seed", "duration_frames", "frame_dt_s", "class_mix", "speed_ranges", "lidar_noise",
     "radar_noise", "dropout_rule"})


def _scenario_config(config: dict, args=None) -> ScenarioConfig:
    class_mix = config.get("class_mix", None)
    speed_ranges = config.get("speed_ranges", None)
    kwargs = {}
    if class_mix is not None:
        kwargs["class_mix"] = {str(k): _config_number(v, f"class_mix.{k}")
                               for k, v in _config_object(class_mix, "class_mix").items()}
    if speed_ranges is not None:
        kwargs["speed_ranges"] = {str(k): _speed_range(v, f"speed_ranges.{k}")
                                  for k, v in _config_object(speed_ranges, "speed_ranges").items()}
    return ScenarioConfig(
        seed=_config_integer(_pick(args, "seed", config, "seed", 0), "seed"),
        duration_frames=_config_integer(
            _pick(args, "frames", config, "duration_frames", 100), "duration_frames"),
        frame_dt_s=_config_number(_pick(args, "dt", config, "frame_dt_s", 0.1), "frame_dt_s"),
        lidar_noise=_noise_spec(config.get("lidar_noise", {}), "lidar_noise"),
        radar_noise=_noise_spec(config.get("radar_noise", {}), "radar_noise"),
        dropout_rule=_pick(args, "dropout", config, "dropout_rule", "visibility"),
        **kwargs,
    )


def _simulate_stage(scene, lf: MatrixFile, rf: MatrixFile, selection: Selection,
                    scenario_cfg: ScenarioConfig, paths, manifest: str):
    """Simulate traffic and detections; save the truth, lidar and radar frames."""
    result = generate_scenario(scene, lf.matrix, rf.matrix, selection, scenario_cfg)
    for path, frames in zip(paths, (result.ground_truth, result.lidar, result.radar)):
        save_frames(path, frames, manifest)
    return result


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    config = _load_config_file(args.config, _SCENARIO_KEYS)
    scene = _checked_scene(args.scene)
    lf, rf = _load_matrix_pair(args.lidar, args.radar)
    if lf.scene_hash != scene_hash(scene):
        _warn("matrices were not built from this scene file")
    sol = load_solution(args.solution)
    if sol.scene_hash != lf.scene_hash:
        _warn("solution scene hash differs from the matrices")
    selection = _selection_from_solution(sol, lf, rf)
    scenario_cfg = _scenario_config(config, args)
    outputs = [args.out_truth, args.out_lidar, args.out_radar]
    manifest_path = f"{args.out_truth}.manifest"
    result = _simulate_stage(scene, lf, rf, selection, scenario_cfg, outputs,
                             Path(manifest_path).name)
    effective = {
        "seed": scenario_cfg.seed,
        "duration_frames": scenario_cfg.duration_frames,
        "frame_dt_s": scenario_cfg.frame_dt_s,
        "dropout_rule": scenario_cfg.dropout_rule,
    }
    _save_manifest(manifest_path, "simulate", [args.scene, args.lidar, args.radar, args.solution],
                   outputs, effective, started)
    n_truth = sum(len(b) for b in result.ground_truth.values())
    n_lidar = sum(len(b) for b in result.lidar.values())
    n_radar = sum(len(b) for b in result.radar.values())
    print(
        f"simulated {scenario_cfg.duration_frames} frames:"
        f" {n_truth} truth, {n_lidar} lidar, {n_radar} radar boxes"
    )
    return 0


_FUSION_KEYS = frozenset({"iou_threshold"})


def _fusion_config(config: dict, args=None) -> FusionConfig:
    return FusionConfig(
        iou_threshold=_config_number(
            _pick(args, "iou_threshold", config, "iou_threshold", 0.3), "iou_threshold")
    )


def _fuse_frames(lidar: dict, radar: dict, fusion_cfg: FusionConfig) -> dict:
    """Late-fuse every frame id present in either stream."""
    return {
        fid: fuse_late(lidar.get(fid, []), radar.get(fid, []), fusion_cfg)
        for fid in sorted(set(lidar) | set(radar))
    }


def cmd_fuse(args) -> int:
    started = time.perf_counter()
    config = _load_config_file(args.config, _FUSION_KEYS)
    lidar = load_frames(args.lidar)
    radar = load_frames(args.radar)
    fusion_cfg = _fusion_config(config, args)
    fused = _fuse_frames(lidar, radar, fusion_cfg)
    manifest_path = f"{args.out}.manifest"
    save_frames(args.out, fused, Path(manifest_path).name)
    _save_manifest(manifest_path, "fuse", [args.lidar, args.radar], [args.out],
                   asdict(fusion_cfg), started)
    n_in = sum(len(b) for b in lidar.values()) + sum(len(b) for b in radar.values())
    n_out = sum(len(b) for b in fused.values())
    print(f"fused {n_in} detections into {n_out} boxes ({n_in - n_out} merges)")
    return 0


def _ap_text(ap: float | None) -> str:
    return "undefined" if ap is None else f"{ap:.3f}"


_EVALUATION_KEYS = frozenset({"matching_mode", "classes", "thresholds"})


def _evaluation_settings(config: dict, args=None) -> tuple[str, tuple[str, ...], dict | None]:
    """Matching mode, evaluated classes and per-class thresholds (None: defaults)."""
    mode = _pick(args, "mode", config, "matching_mode", "iou")
    if mode not in MATCHING_MODES:
        raise ValueError(f"unknown matching mode {mode!r}")
    classes_value = _pick(args, "classes", config, "classes", None)
    if classes_value is None:
        classes = CLASSES
    elif isinstance(classes_value, str):
        classes = tuple(c.strip() for c in classes_value.split(",") if c.strip())
    elif isinstance(classes_value, list) and all(isinstance(c, str) for c in classes_value):
        classes = tuple(classes_value)
    else:
        raise ValueError(f"classes must be a list of class names, got {classes_value!r}")
    thresholds = config.get("thresholds")
    if thresholds is not None:
        thresholds = {str(k): _config_number(v, f"thresholds.{k}")
                      for k, v in _config_object(thresholds, "thresholds").items()}
    threshold = getattr(args, "threshold", None)
    if threshold is not None:
        thresholds = {label: threshold for label in classes}
    return mode, classes, thresholds


def _evaluate_stage(pairs, mode: str, classes, thresholds):
    """mAP over ``classes`` plus its evaluation report record."""
    result = evaluate_map(pairs, classes, mode, thresholds)
    record = {
        "matching_mode": result.matching_mode,
        "mean_ap": result.mean_ap,
        "per_class": {
            label: {
                "ap": result.per_class[label].ap,
                "threshold": result.per_class[label].threshold,
                "num_gt": result.per_class[label].num_gt,
                "num_predictions": result.per_class[label].num_predictions,
            }
            for label in classes
        },
    }
    return result, record


def cmd_evaluate(args) -> int:
    started = time.perf_counter()
    config = _load_config_file(args.config, _EVALUATION_KEYS)
    mode, classes, thresholds = _evaluation_settings(config, args)
    if args.baseline:
        # Checked before the evaluation, so a bad baseline prints nothing.
        kind, base = load_report(args.baseline)
        if kind != "evaluation":
            raise ValueError(f"{args.baseline} is a {kind!r} report, expected evaluation")
        base_map, base_aps = baseline_from_record(base, f"{args.baseline} record")
    pairs = load_frame_pairs(args.truth, args.predictions)
    result, record = _evaluate_stage(pairs, mode, classes, thresholds)

    print(f"{'class':<12} {'AP':>9} {'gt':>6} {'preds':>6}")
    for label in classes:
        r = result.per_class[label]
        print(f"{label:<12} {_ap_text(r.ap):>9} {r.num_gt:>6} {r.num_predictions:>6}")
    print(f"mAP {result.mean_ap:.3f} ({mode})")

    if args.baseline:
        print()
        print(f"delta vs {Path(args.baseline).name}:")
        deltas = {}
        for label in classes:
            base_ap = base_aps.get(label)
            ap = result.per_class[label].ap
            if base_ap is None or ap is None:
                continue
            delta = ap - base_ap
            deltas[label] = delta
            print(f"{label:<12} {base_ap:.3f} -> {ap:.3f}  ({delta * 100.0:+.1f}%)")
        map_delta = result.mean_ap - base_map
        print(f"{'mAP':<12} {base_map:.3f} -> {result.mean_ap:.3f}"
              f"  ({map_delta * 100.0:+.1f}%)")
        record["baseline"] = {
            "report": Path(args.baseline).name,
            "mean_ap": base_map,
            "mean_ap_delta": map_delta,
            "per_class_delta": deltas,
        }
    if args.out:
        manifest_path = f"{args.out}.manifest"
        inputs = [args.truth, args.predictions]
        if args.baseline:
            inputs.append(args.baseline)
        save_report(args.out, "evaluation", record, Path(manifest_path).name)
        _save_manifest(manifest_path, "evaluate", inputs, [args.out],
                       {"matching_mode": mode, "classes": list(classes)}, started)
        print(f"wrote {args.out}")
    return 0


# Each section takes the keys of the matching subcommand's --config; a
# configs[] entry takes optimize's and coverage's keys plus scenario
# overrides.
_PIPELINE_KEYS = frozenset(
    {"scene", "workers", "configs", "visibility", "scenario", "fusion", "evaluation"})
_VARIANT_KEYS = _OPTIMIZE_KEYS | _COVERAGE_KEYS | {"scenario"}


def _pipeline_entry(entry: dict, index: int) -> dict:
    if not isinstance(entry, dict):
        raise ValueError(f"pipeline configs[{index}] must be an object")
    _check_keys(entry, _VARIANT_KEYS, f"pipeline configs[{index}]")
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError(f"pipeline configs[{index}] needs a nonempty 'name'")
    safe = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")
    if not set(name) <= safe:
        raise ValueError(f"pipeline config name {name!r} has unsafe characters")
    if "budget" not in entry:
        raise ValueError(f"pipeline config {name!r} needs a 'budget'")
    _section(entry, "scenario", _SCENARIO_KEYS, f"pipeline configs[{index}]")
    return {**entry, "theta": _config_number(entry.get("theta", 0.0), "theta")}


def cmd_pipeline(args) -> int:
    started = time.perf_counter()
    config = _load_config_file(args.config, _PIPELINE_KEYS)
    if not isinstance(config.get("scene"), str):
        raise ValueError("pipeline config requires a 'scene' path")
    scene_file = Path(args.config).parent / config["scene"]
    scene = _checked_scene(scene_file)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    workers = _config_integer(_pick(args, "workers", config, "workers", 1), "workers")

    entries = config.get("configs")
    if not isinstance(entries, list) or not entries:
        raise ValueError("pipeline config requires a nonempty 'configs' list")
    entries = [_pipeline_entry(e, i) for i, e in enumerate(entries)]
    names = [e["name"] for e in entries]
    if len(set(names)) != len(names):
        raise ValueError("pipeline config names must be unique")
    settings = [_optimize_settings(e) for e in entries]
    vis_cfg = _visibility_config(_section(config, "visibility", _VISIBILITY_KEYS, "pipeline"))
    scenario = _section(config, "scenario", _SCENARIO_KEYS, "pipeline")
    scenario_cfgs = [_scenario_config({**scenario, **e.get("scenario", {})}) for e in entries]
    fusion_cfg = _fusion_config(_section(config, "fusion", _FUSION_KEYS, "pipeline"))
    evaluation = _evaluation_settings(_section(config, "evaluation", _EVALUATION_KEYS, "pipeline"))

    manifest_path = out_dir / "pipeline.manifest"
    manifest = manifest_path.name
    outputs = [out_dir / "lidar.vismatrix", out_dir / "radar.vismatrix"]
    lf, rf = _visibility_stage(scene, vis_cfg, workers, outputs, manifest)
    coverage_reports = []
    summary_rows = []
    for entry, optimize, scenario_cfg in zip(entries, settings, scenario_cfgs):
        name = entry["name"]
        paths = [out_dir / f"{name}.{suffix}" for suffix in (
            "solution", "coverage", "truth.frames", "lidar.frames", "radar.frames",
            "fused.frames", "evaluation")]
        sol_path, cov_path, *frames_paths, fused_path, eval_path = paths

        problem, solution, _ = _optimize_stage(lf, rf, optimize, sol_path, manifest)
        report = coverage_report(problem, solution.selection, config_name=name,
                                 theta=entry["theta"])
        coverage_reports.append(report)
        save_report(cov_path, "coverage", report.to_record(), manifest)
        result = _simulate_stage(scene, lf, rf, solution.selection, scenario_cfg,
                                 frames_paths, manifest)
        fused = _fuse_frames(result.lidar, result.radar, fusion_cfg)
        save_frames(fused_path, fused, manifest)
        eval_result, eval_record = _evaluate_stage(
            pair_frames(result.ground_truth, fused), *evaluation)
        save_report(eval_path, "evaluation", eval_record, manifest)
        outputs += paths

        summary_rows.append(
            {
                "name": name,
                "objective": solution.objective,
                "optimal": solution.optimal,
                "central_coverage": report.central_coverage,
                "total_cost": report.total_cost,
                "sensor_count": report.sensor_count,
                "mean_ap": eval_result.mean_ap,
            }
        )
        print(
            f"{name}: objective {solution.objective:.9g},"
            f" coverage {report.central_coverage:.1%},"
            f" mAP {eval_result.mean_ap:.3f}"
        )

    summary: dict = {"configs": summary_rows}
    if len(coverage_reports) >= 2:
        comparison = compare_configs(coverage_reports)
        summary["comparison"] = comparison.to_record()
        print()
        print(comparison.to_text(), end="")
    summary_path = out_dir / "summary.report"
    save_report(summary_path, "pipeline_summary", summary, manifest)
    outputs.append(summary_path)
    _save_manifest(manifest_path, "pipeline", [scene_file, args.config], outputs,
                   {"workers": workers}, started)
    print(f"wrote {summary_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossview",
        description="Plan and evaluate budget-constrained lidar/radar deployments.",
    )
    parser.add_argument("--version", action="version", version=f"crossview {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("visibility", help="ray-cast visibility matrices for a scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--out-lidar", required=True)
    p.add_argument("--out-radar", required=True)
    p.add_argument("--samples-per-cell", type=int)
    p.add_argument("--object-height", type=float)
    p.add_argument("--sample-height", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--workers", type=int)
    p.add_argument("--config")
    p.set_defaults(func=cmd_visibility)

    p = sub.add_parser("optimize", help="pick mounts under a budget")
    p.add_argument("--lidar", required=True)
    p.add_argument("--radar", required=True)
    p.add_argument("--budget", type=float)
    p.add_argument("--budget-mode", choices=["count", "cost"])
    p.add_argument("--threshold", type=float)
    p.add_argument("--solver", choices=sorted(SOLVERS))
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("export-milp", help="write the selection model as LP text")
    p.add_argument("--lidar", required=True)
    p.add_argument("--radar", required=True)
    p.add_argument("--budget", type=float)
    p.add_argument("--budget-mode", choices=["count", "cost"])
    p.add_argument("--threshold", type=float)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_export_milp)

    p = sub.add_parser("coverage", help="coverage report for a solution")
    p.add_argument("--lidar", required=True)
    p.add_argument("--radar", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--name")
    p.add_argument("--theta", type=float)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("compare", help="compare coverage reports")
    p.add_argument("reports", nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("simulate", help="synthesize traffic and detections")
    p.add_argument("--scene", required=True)
    p.add_argument("--lidar", required=True)
    p.add_argument("--radar", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--frames", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--dropout", choices=["visibility", "none"])
    p.add_argument("--out-truth", required=True)
    p.add_argument("--out-lidar", required=True)
    p.add_argument("--out-radar", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fuse", help="late-fuse lidar and radar frames")
    p.add_argument("--lidar", required=True)
    p.add_argument("--radar", required=True)
    p.add_argument("--iou-threshold", type=float)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("evaluate", help="AP and mAP against ground truth")
    p.add_argument("--truth", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--mode", choices=list(MATCHING_MODES))
    p.add_argument("--threshold", type=float)
    p.add_argument("--classes")
    p.add_argument("--baseline")
    p.add_argument("--out")
    p.add_argument("--config")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pipeline", help="visibility through evaluation in one go")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--workers", type=int)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        _fail(str(exc))
        return 3
    except FileNotFoundError as exc:
        _fail(f"cannot read {exc.filename}")
        return 3
    except InstanceTooLargeError as exc:
        _fail(str(exc))
        return 5
    except (ValueError, IndexError, KeyError) as exc:
        _fail(str(exc))
        return 4
    except SystemExit as exc:
        return int(exc.code or 0)
    except Exception:
        traceback.print_exc()
        return 1
