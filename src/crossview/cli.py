"""Command line front end.

Subcommands mirror the library stages: visibility, optimize, export-milp,
coverage, compare, simulate, fuse, evaluate, and an end-to-end pipeline.
Options come from flags first, then an optional --config JSON file, then
the library defaults; a --config key the command does not read is an error.
Each stage has one table of settings, {config key: check}, read by one loop
(``_settings``), and one stage function: a subcommand passes them its
--config dict and flags (each flag's dest is its config key), and
``pipeline`` passes the matching section of its own config.  Every stage
after visibility takes its inputs as paths and reads them through the
loaders, so ``pipeline``, which passes the paths its earlier stages wrote,
writes the same data as the subcommand chain.  The checks are the file
reader's (``formats``), with its rules and wording: an integer is a JSON
integer, a number is finite, and an error names the key path, as in
``budget: expected a finite number, got inf``; but a bad config value or
key exits 4, a malformed file 3.

A command that writes files also writes a ``<first-output>.manifest``
sidecar recording the command, input digests, effective config and wall
time (``compare`` and ``evaluate`` write files only with --out); data files
reference the manifest by name.  Exit codes: 0 success, 2 usage, 3
unreadable or malformed input file or unwritable output path, 4 invalid
values or scene, 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from dataclasses import asdict
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import __version__
from .boxes import CLASSES
from .coverage import check_theta, compare_configs, coverage_report
from .formats import (
    CANNOT_WRITE,
    MatrixFile,
    ParseError,
    SolutionFile,
    WriteError,
    _build,
    _choice,
    _dict_of,
    _integer,
    _list_of,
    _mapping,
    _nonempty_string,
    _number,
    _numbers,
    _optional,
    _require_keys,
    baseline_from_record,
    coverage_from_record,
    file_sha256,
    load_frame_pairs,
    load_frames,
    load_matrix,
    load_report,
    load_scene_with_digest,
    load_solution,
    read_input,
    save_frames,
    save_manifest,
    save_matrix,
    save_report,
    save_solution,
    write_atomic,
)
from .fusion import FusionConfig, fuse_frames
from .lp_export import export_milp
from .metrics import MATCHING_MODES, check_threshold, evaluate_map
from .placement import (
    BUDGET_MODES,
    PlacementProblem,
    Selection,
    check_budget,
    evaluate_selection,
    solve_branch_bound,
    solve_greedy,
    within_budget,
)
from .scenario import DROPOUT_RULES, NoiseSpec, ScenarioConfig, generate_scenario
from .scene import LIDAR, MAX_DURATION_FRAMES, MAX_SAMPLES_PER_CELL, RADAR, validate_scene
from .visibility import VisibilityConfig, build_visibility

SOLVERS = {"branch-bound": solve_branch_bound, "greedy": solve_greedy}


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _load_config_file(path, allowed, required=frozenset()) -> dict:
    """A --config file's object; a key outside ``allowed`` is a typo, not a no-op."""
    if path is None:
        return {}
    data = read_input(path)
    try:
        obj = json.loads(data)
    except ValueError as exc:  # JSONDecodeError, or an integer past int()'s digit limit
        raise ParseError(f"{path}: invalid JSON config: {exc}") from exc
    return _config_keys(_mapping(obj, str(path)), allowed, str(path), required)


# Config values and keys are read by the file reader's checks.  A bad one is a
# bad setting (exit 4), not a malformed input file (exit 3), so the two
# functions below re-raise those checks' ParseError as a plain ValueError.

def _settings(checks: dict, config: dict, args=None) -> dict:
    """The keys of ``checks`` that a flag or ``config`` sets, each through its check.

    A flag (the ``args`` attribute named like the key; ``args`` is None in
    pipeline mode) wins.  A key left unset, or null where its check allows
    that, is left out, so the library default applies.
    """
    out = {}
    try:
        for key, check in checks.items():
            value = getattr(args, key, None)
            if value is None:
                if key not in config:
                    continue
                value = config[key]
            value = check(value, key)
            if value is not None:
                out[key] = value
    except ParseError as exc:
        raise ValueError(str(exc)) from exc
    return out


def _config_keys(value, allowed, where: str, required=frozenset()) -> dict:
    """``value`` if it is an object with the ``required`` keys and no key outside ``allowed``."""
    try:
        _require_keys(_mapping(value, where), frozenset(required), frozenset(allowed), where)
    except ParseError as exc:
        raise ValueError(str(exc)) from exc
    return value


def _section(config: dict, key: str, allowed, where: str) -> dict:
    """The object under ``key`` (empty if absent), with its keys checked."""
    return _config_keys(config.get(key, {}), allowed, f"{where} {key!r}")


def _ranged(check):
    """A number that also passes the library's range ``check``."""
    return lambda value, where: check(_number(value, where), where)


_class = _choice(CLASSES)


def _class_key(key, where: str) -> str:
    """A class name used as an object key, named as ``<where> key``."""
    return _class(key, f"{where} key")


def _sidecar(out) -> tuple[str, str]:
    """The manifest path beside the output ``out``, and the name its data files record."""
    path = f"{out}.manifest"
    return path, Path(path).name


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
    """A valid scene and its file's header digest, which matrices record as its identity."""
    scene, digest = load_scene_with_digest(path)
    violations = validate_scene(scene)
    if violations:
        raise ValueError("; ".join(f"scene: {v}" for v in violations))
    return scene, digest


# Each stage's settings: {config key: check}.  The keys are the keys its
# --config file and its pipeline section accept, and each flag's dest.
_VISIBILITY_CHECKS = {"samples_per_cell": partial(_integer, maximum=MAX_SAMPLES_PER_CELL),
                      "object_height_m": _number,
                      "sample_height_m": _optional(_number), "epsilon": _number}


def _workers(config: dict, args) -> int:
    return _settings({"workers": _integer}, config, args).get("workers", 1)


def _visibility_stage(scene, digest: str, vis_cfg: VisibilityConfig, workers: int, paths,
                      manifest: str) -> list[MatrixFile]:
    """Ray-cast both modalities and save the lidar and radar matrix files."""
    if workers < 1:
        raise ValueError("workers must be at least 1")
    cells = tuple(scene.roi.sorted_cells())
    weights = np.array([scene.roi.weight_of(j) for j in cells])
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
    config = _load_config_file(args.config, _VISIBILITY_CHECKS.keys() | {"workers"})
    vis_cfg = VisibilityConfig(**_settings(_VISIBILITY_CHECKS, config, args))
    workers = _workers(config, args)
    scene, digest = _checked_scene(args.scene)
    outputs = [args.out_lidar, args.out_radar]
    manifest_path, manifest = _sidecar(args.out_lidar)
    files = _visibility_stage(scene, digest, vis_cfg, workers, outputs, manifest)
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


_OPTIMIZE_CHECKS = {"budget": _optional(_number), "budget_mode": _choice(BUDGET_MODES),
                    "seen_threshold": _number, "solver": _choice(sorted(SOLVERS))}


def _optimize_settings(config: dict, args=None) -> dict:
    """Every optimize setting, defaults filled in: the solution file records them."""
    settings = {"budget_mode": "count", "seen_threshold": 1.0, "solver": "branch-bound",
                **_settings(_OPTIMIZE_CHECKS, config, args)}
    if "budget" not in settings:
        raise ValueError("budget is required (flag --budget or config key 'budget')")
    check_budget(settings["budget"], settings["seen_threshold"])
    return settings


def _optimize_stage(lidar_path, radar_path, settings: dict, path, manifest: str) -> SolutionFile:
    """Solve the placement problem over the two matrix files and save its solution file."""
    lf, rf = _load_matrix_pair(lidar_path, radar_path)
    solution = SOLVERS[settings["solver"]](_problem_from_files(lf, rf, settings))
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
    return sol_file


def cmd_optimize(args) -> int:
    started = time.perf_counter()
    config = _load_config_file(args.config, _OPTIMIZE_CHECKS)
    settings = _optimize_settings(config, args)
    manifest_path, manifest = _sidecar(args.out)
    sol_file = _optimize_stage(args.lidar, args.radar, settings, args.out, manifest)
    _save_manifest(manifest_path, "optimize", [args.lidar, args.radar], [args.out],
                   settings, started)
    lidar_names = ", ".join(sol_file.lidar_candidate_ids) or "-"
    radar_names = ", ".join(sol_file.radar_candidate_ids) or "-"
    print(f"objective {sol_file.objective:.9g} ({'optimal' if sol_file.optimal else 'heuristic'})")
    print(f"lidar: {lidar_names}")
    print(f"radar: {radar_names}")
    print(f"wrote {args.out}")
    return 0


def cmd_export_milp(args) -> int:
    started = time.perf_counter()
    config = _load_config_file(args.config, _OPTIMIZE_CHECKS)
    settings = _optimize_settings(config, args)
    lf, rf = _load_matrix_pair(args.lidar, args.radar)
    text = export_milp(_problem_from_files(lf, rf, settings))
    write_atomic(args.out, text.encode("utf-8"))
    effective = {k: settings[k] for k in ("budget", "budget_mode", "seen_threshold")}
    _save_manifest(_sidecar(args.out)[0], "export-milp", [args.lidar, args.radar],
                   [args.out], effective, started)
    print(f"wrote {args.out} ({len(text.splitlines())} lines)")
    return 0


_COVERAGE_CHECKS = {"theta": _ranged(check_theta), "name": _nonempty_string}


def _load_selection(path, lf: MatrixFile, rf: MatrixFile):
    """The problem a solution file poses over the matrices, and its selection;
    warns if the file names another scene than ``lf``, or records another
    objective than its selection scores over these matrices (as when it was
    scored on others).

    The candidate ids it records must be the matrices' ids at its row
    indices, and the selection must fit the budget it records; a row outside
    its matrix is an IndexError.
    """
    sol = load_solution(path)
    if sol.scene_hash != lf.scene_hash:
        _warn("solution scene hash differs from the matrices")
    for modality, rows, names, mf in ((LIDAR, sol.lidar_ids, sol.lidar_candidate_ids, lf),
                                      (RADAR, sol.radar_ids, sol.radar_candidate_ids, rf)):
        if (all(0 <= i < len(mf.ids) for i in rows)
                and names != tuple(mf.ids[i] for i in rows)):
            raise ValueError(f"{path}: {modality}_candidate_ids {list(names)} are not the"
                             f" matrix ids at {modality}_ids {list(rows)}")
    problem = _problem_from_files(lf, rf, asdict(sol))
    selection = Selection.of(sol.lidar_ids, sol.radar_ids)
    problem.check_selection(selection)
    if not within_budget(problem, selection):
        raise ValueError(f"{path}: the selection costs {problem.selection_cost(selection)!r},"
                         f" over its {sol.budget_mode} budget {sol.budget!r}")
    if evaluate_selection(problem, selection).objective != sol.objective:
        _warn("solution objective differs from its selection's over these matrices")
    return problem, selection


def _coverage_stage(lidar_path, radar_path, solution_path, name: str, settings: dict, path,
                    manifest: str):
    """Score the solution file's coverage over the two matrix files and save its report."""
    lf, rf = _load_matrix_pair(lidar_path, radar_path)
    problem, selection = _load_selection(solution_path, lf, rf)
    report = coverage_report(problem, selection, config_name=name, **settings)
    save_report(path, "coverage", report.to_record(), manifest)
    return report


def cmd_coverage(args) -> int:
    started = time.perf_counter()
    config = _load_config_file(args.config, _COVERAGE_CHECKS)
    settings = _settings(_COVERAGE_CHECKS, config, args)
    name = settings.pop("name", Path(args.solution).stem)
    manifest_path, manifest = _sidecar(args.out)
    report = _coverage_stage(args.lidar, args.radar, args.solution, name, settings, args.out,
                             manifest)
    _save_manifest(manifest_path, "coverage", [args.lidar, args.radar, args.solution],
                   [args.out], {"theta": report.theta, "name": name}, started)
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
        manifest_path, manifest = _sidecar(args.out)
        save_report(args.out, "coverage_comparison", comparison.to_record(), manifest)
        _save_manifest(manifest_path, "compare", list(args.reports), [args.out], {}, started)
        print(f"wrote {args.out}")
    return 0


_NOISE_CHECKS = dict.fromkeys(("position_sigma", "size_sigma", "yaw_sigma", "velocity_sigma"),
                              _number)
_NOISE = _build(NoiseSpec, _NOISE_CHECKS, _NOISE_CHECKS.keys())
_SCENARIO_CHECKS = {
    "seed": _integer,
    "duration_frames": partial(_integer, maximum=MAX_DURATION_FRAMES),
    "frame_dt_s": _number,
    "class_mix": _optional(_dict_of(_number, key=_class_key)),
    "speed_ranges": _optional(_dict_of(_numbers(2), key=_class_key)),
    "lidar_noise": _NOISE,
    "radar_noise": _NOISE,
    "dropout_rule": _choice(DROPOUT_RULES),
}


def _simulate_stage(scene, digest: str, lidar_path, radar_path, solution_path,
                    scenario_cfg: ScenarioConfig, paths, manifest: str):
    """Simulate traffic and detections for the solution file over the two matrix
    files; save the truth, lidar and radar frames."""
    lf, rf = _load_matrix_pair(lidar_path, radar_path)
    if lf.scene_hash != digest:
        _warn("matrices were not built from this scene file")
    if lf.cells != tuple(scene.roi.sorted_cells()):
        raise ValueError("the matrices' cells are not the scene's ROI cells")
    _, selection = _load_selection(solution_path, lf, rf)
    result = generate_scenario(scene, lf.matrix, rf.matrix, selection, scenario_cfg)
    for path, frames in zip(paths, (result.ground_truth, result.lidar, result.radar)):
        save_frames(path, frames, manifest)
    return result


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    config = _load_config_file(args.config, _SCENARIO_CHECKS)
    scenario_cfg = ScenarioConfig(**_settings(_SCENARIO_CHECKS, config, args))
    scene, digest = _checked_scene(args.scene)
    outputs = [args.out_truth, args.out_lidar, args.out_radar]
    manifest_path, manifest = _sidecar(args.out_truth)
    result = _simulate_stage(scene, digest, args.lidar, args.radar, args.solution, scenario_cfg,
                             outputs, manifest)
    _save_manifest(manifest_path, "simulate", [args.scene, args.lidar, args.radar, args.solution],
                   outputs, asdict(scenario_cfg), started)
    n_truth = sum(len(b) for b in result.ground_truth.values())
    n_lidar = sum(len(b) for b in result.lidar.values())
    n_radar = sum(len(b) for b in result.radar.values())
    print(
        f"simulated {scenario_cfg.duration_frames} frames:"
        f" {n_truth} truth, {n_lidar} lidar, {n_radar} radar boxes"
    )
    return 0


_FUSION_CHECKS = {"iou_threshold": _number}


def _fuse_stage(lidar_path, radar_path, fusion_cfg: FusionConfig, path,
                manifest: str) -> tuple[int, int]:
    """Late-fuse every frame id present in either frames file; save the fused
    frames.  Returns the number of boxes read and written."""
    lidar = load_frames(lidar_path)
    radar = load_frames(radar_path)
    fused = fuse_frames(lidar, radar, fusion_cfg)
    save_frames(path, fused, manifest)
    return (sum(map(len, lidar.values())) + sum(map(len, radar.values())),
            sum(map(len, fused.values())))


def cmd_fuse(args) -> int:
    started = time.perf_counter()
    config = _load_config_file(args.config, _FUSION_CHECKS)
    fusion_cfg = FusionConfig(**_settings(_FUSION_CHECKS, config, args))
    manifest_path, manifest = _sidecar(args.out)
    n_in, n_out = _fuse_stage(args.lidar, args.radar, fusion_cfg, args.out, manifest)
    _save_manifest(manifest_path, "fuse", [args.lidar, args.radar], [args.out],
                   asdict(fusion_cfg), started)
    print(f"fused {n_in} detections into {n_out} boxes ({n_in - n_out} merges)")
    return 0


def _ap_text(ap: float | None) -> str:
    return "undefined" if ap is None else f"{ap:.3f}"


def _class_names(value, where: str) -> tuple[str, ...]:
    """A nonempty list of class names, or the comma-separated string --classes takes."""
    if isinstance(value, str):
        value = [c.strip() for c in value.split(",") if c.strip()]
    if value == []:
        raise ValueError(f"{where}: expected a nonempty list of class names")
    return _list_of(_class)(value, where)


_EVALUATION_CHECKS = {
    "matching_mode": _choice(MATCHING_MODES), "classes": _optional(_class_names),
    "thresholds": _optional(_dict_of(_ranged(check_threshold), key=_class_key)),
}


def _evaluate_stage(truth_path, predictions_path, settings: dict, baseline, path, manifest):
    """mAP of the predictions file against the truth file over the evaluated
    classes, and its evaluation report record, saved to ``path`` if that is
    set.  ``baseline`` (a report's name, mAP and per-class APs), if set, adds
    the deltas against that report."""
    result = evaluate_map(load_frame_pairs(truth_path, predictions_path), **settings)
    record = {"matching_mode": result.matching_mode, "mean_ap": result.mean_ap, "per_class": {
        label: {"ap": r.ap, "threshold": r.threshold, "num_gt": r.num_gt,
                "num_predictions": r.num_predictions}
        for label, r in result.per_class.items()}}
    if baseline is not None:
        name, base_map, base_aps = baseline
        record["baseline"] = {
            "report": name,
            "mean_ap": base_map,
            "mean_ap_delta": result.mean_ap - base_map,
            "per_class_delta": {label: r.ap - base_aps[label]
                                for label, r in result.per_class.items()
                                if r.ap is not None and base_aps.get(label) is not None},
        }
    if path:
        save_report(path, "evaluation", record, manifest)
    return result, record


def _evaluation_used(result) -> dict:
    """The evaluation settings ``result`` was computed with, defaults filled in."""
    return {"matching_mode": result.matching_mode, "classes": list(result.per_class),
            "thresholds": {label: r.threshold for label, r in result.per_class.items()}}


def cmd_evaluate(args) -> int:
    started = time.perf_counter()
    config = _load_config_file(args.config, _EVALUATION_CHECKS)
    settings = _settings(_EVALUATION_CHECKS, config, args)
    if args.threshold is not None:
        settings["thresholds"] = dict.fromkeys(CLASSES, check_threshold(args.threshold))
    baseline = None
    if args.baseline:
        # Checked before the evaluation, so a bad baseline prints nothing.
        kind, base = load_report(args.baseline)
        if kind != "evaluation":
            raise ValueError(f"{args.baseline} is a {kind!r} report, expected evaluation")
        baseline = (Path(args.baseline).name,
                    *baseline_from_record(base, f"{args.baseline} record"))
    manifest_path, manifest = _sidecar(args.out) if args.out else (None, None)
    result, record = _evaluate_stage(args.truth, args.predictions, settings, baseline, args.out,
                                     manifest)

    print(f"{'class':<12} {'AP':>9} {'gt':>6} {'preds':>6}")
    for label, r in result.per_class.items():
        print(f"{label:<12} {_ap_text(r.ap):>9} {r.num_gt:>6} {r.num_predictions:>6}")
    print(f"mAP {result.mean_ap:.3f} ({result.matching_mode})")

    if baseline is not None:
        name, base_map, base_aps = baseline
        print()
        print(f"delta vs {name}:")
        for label, delta in record["baseline"]["per_class_delta"].items():
            print(f"{label:<12} {base_aps[label]:.3f} -> {result.per_class[label].ap:.3f}"
                  f"  ({delta * 100.0:+.1f}%)")
        map_delta = record["baseline"]["mean_ap_delta"]
        print(f"{'mAP':<12} {base_map:.3f} -> {result.mean_ap:.3f}"
              f"  ({map_delta * 100.0:+.1f}%)")
    if args.out:
        inputs = [args.truth, args.predictions]
        if args.baseline:
            inputs.append(args.baseline)
        _save_manifest(manifest_path, "evaluate", inputs, [args.out], _evaluation_used(result),
                       started)
        print(f"wrote {args.out}")
    return 0


# Each section takes the keys of the matching subcommand's --config; a
# configs[] entry takes optimize's and coverage's keys plus scenario
# overrides.
_PIPELINE_CHECKS = {"scene": _nonempty_string, "configs": _list_of(_mapping, list)}
_PIPELINE_KEYS = _PIPELINE_CHECKS.keys() | {"workers", "visibility", "scenario", "fusion",
                                            "evaluation"}
_VARIANT_KEYS = _OPTIMIZE_CHECKS.keys() | _COVERAGE_CHECKS.keys() | {"scenario"}
_SAFE_NAME = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")


def cmd_pipeline(args) -> int:
    started = time.perf_counter()
    config = _load_config_file(args.config, _PIPELINE_KEYS, required=_PIPELINE_CHECKS.keys())
    top = _settings(_PIPELINE_CHECKS, config)
    scene_file = Path(args.config).parent / top["scene"]
    scene, digest = _checked_scene(scene_file)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except CANNOT_WRITE as exc:
        raise WriteError(out_dir, exc) from exc
    workers = _workers(config, args)

    if not top["configs"]:
        raise ValueError("configs: expected a nonempty list")
    entries = [_config_keys(e, _VARIANT_KEYS, f"pipeline configs[{i}]", {"name", "budget"})
               for i, e in enumerate(top["configs"])]
    settings = [_optimize_settings(e) for e in entries]
    coverages = [_settings(_COVERAGE_CHECKS, e) for e in entries]
    names = [c["name"] for c in coverages]
    for name in names:
        if not set(name) <= _SAFE_NAME:
            raise ValueError(f"pipeline config name {name!r} has unsafe characters")
    if len(set(names)) != len(names):
        raise ValueError("pipeline config names must be unique")
    vis_cfg = VisibilityConfig(**_settings(
        _VISIBILITY_CHECKS, _section(config, "visibility", _VISIBILITY_CHECKS, "pipeline")))
    scenario = _section(config, "scenario", _SCENARIO_CHECKS, "pipeline")
    scenario_cfgs = [
        ScenarioConfig(**_settings(_SCENARIO_CHECKS, {**scenario, **_section(
            e, "scenario", _SCENARIO_CHECKS, f"pipeline configs[{i}]")}))
        for i, e in enumerate(entries)]
    fusion_cfg = FusionConfig(**_settings(
        _FUSION_CHECKS, _section(config, "fusion", _FUSION_CHECKS, "pipeline")))
    evaluation = _settings(
        _EVALUATION_CHECKS, _section(config, "evaluation", _EVALUATION_CHECKS, "pipeline"))

    manifest_path = out_dir / "pipeline.manifest"
    manifest = manifest_path.name
    lidar_matrix, radar_matrix = outputs = [out_dir / "lidar.vismatrix",
                                            out_dir / "radar.vismatrix"]
    _visibility_stage(scene, digest, vis_cfg, workers, outputs, manifest)
    coverage_reports = []
    summary_rows = []
    used = []
    for coverage, optimize, scenario_cfg in zip(coverages, settings, scenario_cfgs):
        name = coverage.pop("name")
        paths = [out_dir / f"{name}.{suffix}" for suffix in (
            "solution", "coverage", "truth.frames", "lidar.frames", "radar.frames",
            "fused.frames", "evaluation")]
        sol_path, cov_path, truth, lidar, radar, fused_path, eval_path = paths

        solution = _optimize_stage(lidar_matrix, radar_matrix, optimize, sol_path, manifest)
        report = _coverage_stage(lidar_matrix, radar_matrix, sol_path, name, coverage, cov_path,
                                 manifest)
        coverage_reports.append(report)
        _simulate_stage(scene, digest, lidar_matrix, radar_matrix, sol_path, scenario_cfg,
                        (truth, lidar, radar), manifest)
        _fuse_stage(lidar, radar, fusion_cfg, fused_path, manifest)
        eval_result, _ = _evaluate_stage(truth, fused_path, evaluation, None, eval_path, manifest)
        outputs += paths
        used.append({"name": name, **optimize, "theta": report.theta,
                     "scenario": asdict(scenario_cfg)})

        summary_rows.append({
            "name": name, "objective": solution.objective, "optimal": solution.optimal,
            "central_coverage": report.central_coverage, "total_cost": report.total_cost,
            "sensor_count": report.sensor_count, "mean_ap": eval_result.mean_ap})
        print(f"{name}: objective {solution.objective:.9g},"
              f" coverage {report.central_coverage:.1%}, mAP {eval_result.mean_ap:.3f}")

    summary: dict = {"configs": summary_rows}
    if len(coverage_reports) >= 2:
        comparison = compare_configs(coverage_reports)
        summary["comparison"] = comparison.to_record()
        print()
        print(comparison.to_text(), end="")
    summary_path = out_dir / "summary.report"
    save_report(summary_path, "pipeline_summary", summary, manifest)
    outputs.append(summary_path)
    # Every configs[] entry is evaluated with the same settings.
    _save_manifest(manifest_path, "pipeline", [scene_file, args.config], outputs, {
        "workers": workers, "visibility": asdict(vis_cfg), "fusion": asdict(fusion_cfg),
        "evaluation": _evaluation_used(eval_result), "configs": used}, started)
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
    p.add_argument("--object-height", type=float, dest="object_height_m")
    p.add_argument("--sample-height", type=float, dest="sample_height_m")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--workers", type=int)
    p.add_argument("--config")
    p.set_defaults(func=cmd_visibility)

    p = sub.add_parser("optimize", help="pick mounts under a budget")
    p.add_argument("--lidar", required=True)
    p.add_argument("--radar", required=True)
    p.add_argument("--budget", type=float)
    p.add_argument("--budget-mode", choices=BUDGET_MODES)
    p.add_argument("--threshold", type=float, dest="seen_threshold")
    p.add_argument("--solver", choices=sorted(SOLVERS))
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("export-milp", help="write the selection model as LP text")
    p.add_argument("--lidar", required=True)
    p.add_argument("--radar", required=True)
    p.add_argument("--budget", type=float)
    p.add_argument("--budget-mode", choices=BUDGET_MODES)
    p.add_argument("--threshold", type=float, dest="seen_threshold")
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
    p.add_argument("--frames", type=int, dest="duration_frames")
    p.add_argument("--dt", type=float, dest="frame_dt_s")
    p.add_argument("--dropout", choices=DROPOUT_RULES, dest="dropout_rule")
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
    p.add_argument("--mode", choices=MATCHING_MODES, dest="matching_mode")
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


_parser = cache(build_parser)  # one per process: main may run many times in one


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, WriteError) as exc:
        _fail(str(exc))
        return 3
    except FileNotFoundError as exc:
        _fail(f"cannot read {exc.filename}")
        return 3
    except (ValueError, IndexError, KeyError) as exc:
        _fail(str(exc))
        return 4
    except SystemExit as exc:
        return int(exc.code or 0)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
