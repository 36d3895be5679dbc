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

A subcommand reads its settings, runs its stage through one runner
(``_Run``) and prints its summary.  The runner starts the clock, reads
--config, runs the stage, which writes data files that record the
manifest's name and hands back the settings it used, and then writes the
manifest (command, input digests, output names, those settings, wall time)
to ``<first-output>.manifest``, or ``pipeline.manifest`` in pipeline's
--out-dir; ``compare`` and ``evaluate`` without --out write none.  Exit
codes: 0 success, 2 usage, 3 unreadable or malformed input file or
unwritable output path, 4 invalid values or scene, 1 unexpected failure.
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


class _Run:
    """A command's clock, its --config, whose keys lie in ``allowed`` (another is a typo,
    not a no-op) and include ``required``, and its manifest, as the module docstring says."""

    def __init__(self, args, allowed=(), required=frozenset()):
        self.started = time.perf_counter()  # so wall_time_s covers reading --config
        self.command = args.command
        self.config = {}
        if (path := getattr(args, "config", None)) is not None:
            data = read_input(path)
            try:
                obj = json.loads(data)
            except ValueError as exc:  # JSONDecodeError, or an integer past int()'s digit limit
                raise ParseError(f"{path}: invalid JSON config: {exc}") from exc
            self.config = _config_keys(_mapping(obj, path), allowed, path, required)

    def stage(self, stage, inputs, outputs, manifest=None):
        """The result of ``stage(<manifest name>)``, which returns it and the settings used."""
        if manifest is None and outputs:
            manifest = f"{outputs[0]}.manifest"
        result, used = stage(manifest and Path(manifest).name)
        if manifest is not None:
            save_manifest(manifest, {
                "command": self.command,
                "tool_version": __version__,
                "inputs": {str(p): file_sha256(p) for p in inputs},
                "outputs": [Path(o).name for o in outputs],
                "config": used,
                "wall_time_s": time.perf_counter() - self.started,
            })
        return result


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
                      manifest: str):
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
    return files, {**asdict(vis_cfg), "workers": workers}


def cmd_visibility(args) -> int:
    run = _Run(args, _VISIBILITY_CHECKS.keys() | {"workers"})
    vis_cfg = VisibilityConfig(**_settings(_VISIBILITY_CHECKS, run.config, args))
    workers = _workers(run.config, args)
    scene, digest = _checked_scene(args.scene)
    outputs = [args.out_lidar, args.out_radar]
    files = run.stage(partial(_visibility_stage, scene, digest, vis_cfg, workers, outputs),
                      [args.scene], outputs)
    for path, mf in zip(outputs, files):
        print(f"wrote {path} ({mf.matrix.n_candidates}x{mf.matrix.n_cells})")
    return 0


def _load_matrix_pair(lidar_path, radar_path):
    lf, rf = load_matrix(lidar_path), load_matrix(radar_path)
    for path, mf, modality in ((lidar_path, lf, LIDAR), (radar_path, rf, RADAR)):
        if mf.matrix.modality != modality:
            raise ValueError(f"{path} holds a {mf.matrix.modality!r} matrix, expected {modality}")
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


def _optimize_stage(lidar_path, radar_path, settings: dict, path, manifest: str):
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
    return sol_file, settings


def cmd_optimize(args) -> int:
    run = _Run(args, _OPTIMIZE_CHECKS)
    settings = _optimize_settings(run.config, args)
    sol_file = run.stage(partial(_optimize_stage, args.lidar, args.radar, settings, args.out),
                         [args.lidar, args.radar], [args.out])
    print(f"objective {sol_file.objective:.9g} ({'optimal' if sol_file.optimal else 'heuristic'})")
    for modality, names in ((LIDAR, sol_file.lidar_candidate_ids),
                            (RADAR, sol_file.radar_candidate_ids)):
        print(f"{modality}: {', '.join(names) or '-'}")
    print(f"wrote {args.out}")
    return 0


def _export_milp_stage(lidar_path, radar_path, settings: dict, path, manifest: str):
    """Save the placement problem over the two matrix files as LP text (no manifest field)."""
    lf, rf = _load_matrix_pair(lidar_path, radar_path)
    text = export_milp(_problem_from_files(lf, rf, settings))
    write_atomic(path, text.encode("utf-8"))
    return text, {k: settings[k] for k in ("budget", "budget_mode", "seen_threshold")}


def cmd_export_milp(args) -> int:
    run = _Run(args, _OPTIMIZE_CHECKS.keys() - {"solver"})  # the model is the same for every solver
    settings = _optimize_settings(run.config, args)
    text = run.stage(partial(_export_milp_stage, args.lidar, args.radar, settings, args.out),
                     [args.lidar, args.radar], [args.out])
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
    return report, {"theta": report.theta, "name": name}


def cmd_coverage(args) -> int:
    run = _Run(args, _COVERAGE_CHECKS)
    settings = _settings(_COVERAGE_CHECKS, run.config, args)
    name = settings.pop("name", Path(args.solution).stem)
    report = run.stage(partial(_coverage_stage, args.lidar, args.radar, args.solution, name,
                               settings, args.out),
                       [args.lidar, args.radar, args.solution], [args.out])
    print(f"{name}: coverage {report.central_coverage:.1%}"
          f" ({report.covered_cells}/{report.total_roi_cells}),"
          f" {report.sensor_count} sensors, cost {report.total_cost:.2f}")
    print(f"wrote {args.out}")
    return 0


def _report_record(path, expected: str) -> dict:
    """The record of the report file ``path``, which must be of kind ``expected``."""
    kind, record = load_report(path)
    if kind != expected:
        raise ValueError(f"{path} is a {kind!r} report, expected {expected}")
    return record


def _compare_stage(report_paths, path, manifest: str | None):
    """Compare the coverage report files; save the comparison to ``path`` if that is set."""
    comparison = compare_configs([
        coverage_from_record(_report_record(p, "coverage"), f"{p} record") for p in report_paths])
    if path:
        save_report(path, "coverage_comparison", comparison.to_record(), manifest)
    return comparison, {}


def cmd_compare(args) -> int:
    comparison = _Run(args).stage(partial(_compare_stage, args.reports, args.out), args.reports,
                                  [args.out] if args.out else [])
    print(comparison.to_text(), end="")
    if args.out:
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


def _boxes(frames: dict) -> int:
    return sum(map(len, frames.values()))


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
    return result, asdict(scenario_cfg)


def cmd_simulate(args) -> int:
    run = _Run(args, _SCENARIO_CHECKS)
    scenario_cfg = ScenarioConfig(**_settings(_SCENARIO_CHECKS, run.config, args))
    scene, digest = _checked_scene(args.scene)
    outputs = [args.out_truth, args.out_lidar, args.out_radar]
    result = run.stage(partial(_simulate_stage, scene, digest, args.lidar, args.radar,
                               args.solution, scenario_cfg, outputs),
                       [args.scene, args.lidar, args.radar, args.solution], outputs)
    print(f"simulated {scenario_cfg.duration_frames} frames: {_boxes(result.ground_truth)} truth,"
          f" {_boxes(result.lidar)} lidar, {_boxes(result.radar)} radar boxes")
    return 0


_FUSION_CHECKS = {"iou_threshold": _number}


def _fuse_stage(lidar_path, radar_path, fusion_cfg: FusionConfig, path, manifest: str):
    """Late-fuse every frame id present in either frames file; save the fused
    frames.  Its result is the number of boxes read and written."""
    lidar = load_frames(lidar_path)
    radar = load_frames(radar_path)
    fused = fuse_frames(lidar, radar, fusion_cfg)
    save_frames(path, fused, manifest)
    return (_boxes(lidar) + _boxes(radar), _boxes(fused)), asdict(fusion_cfg)


def cmd_fuse(args) -> int:
    run = _Run(args, _FUSION_CHECKS)
    fusion_cfg = FusionConfig(**_settings(_FUSION_CHECKS, run.config, args))
    n_in, n_out = run.stage(partial(_fuse_stage, args.lidar, args.radar, fusion_cfg, args.out),
                            [args.lidar, args.radar], [args.out])
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
    the deltas against that report.  The settings used have defaults filled in."""
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
    return (result, record), {
        "matching_mode": result.matching_mode, "classes": list(result.per_class),
        "thresholds": {label: r.threshold for label, r in result.per_class.items()}}


def cmd_evaluate(args) -> int:
    run = _Run(args, _EVALUATION_CHECKS)
    settings = _settings(_EVALUATION_CHECKS, run.config, args)
    if args.threshold is not None:
        settings["thresholds"] = dict.fromkeys(CLASSES, check_threshold(args.threshold))
    baseline = None
    if args.baseline:
        # Checked before the stage, so a bad baseline writes and prints nothing.
        base = _report_record(args.baseline, "evaluation")
        baseline = (Path(args.baseline).name,
                    *baseline_from_record(base, f"{args.baseline} record"))
    inputs = [p for p in (args.truth, args.predictions, args.baseline) if p]
    result, record = run.stage(partial(_evaluate_stage, args.truth, args.predictions, settings,
                                       baseline, args.out),
                               inputs, [args.out] if args.out else [])
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
    run = _Run(args, _PIPELINE_KEYS, required=_PIPELINE_CHECKS.keys())
    top = _settings(_PIPELINE_CHECKS, run.config)
    scene_file = Path(args.config).parent / top["scene"]
    scene, digest = _checked_scene(scene_file)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except CANNOT_WRITE as exc:
        raise WriteError(out_dir, exc) from exc
    workers = _workers(run.config, args)

    if not top["configs"]:
        raise ValueError("configs: expected a nonempty list")
    entries = [_config_keys(e, _VARIANT_KEYS, f"pipeline configs[{i}]", {"name", "budget"})
               for i, e in enumerate(top["configs"])]
    settings = [_optimize_settings(e) for e in entries]
    coverages = [_settings(_COVERAGE_CHECKS, e) for e in entries]
    names = [c.pop("name") for c in coverages]
    for name in names:
        if not set(name) <= _SAFE_NAME:
            raise ValueError(f"pipeline config name {name!r} has unsafe characters")
    if len(set(names)) != len(names):
        raise ValueError("pipeline config names must be unique")
    vis_cfg = VisibilityConfig(**_settings(
        _VISIBILITY_CHECKS, _section(run.config, "visibility", _VISIBILITY_CHECKS, "pipeline")))
    scenario = _section(run.config, "scenario", _SCENARIO_CHECKS, "pipeline")
    scenario_cfgs = [
        ScenarioConfig(**_settings(_SCENARIO_CHECKS, {**scenario, **_section(
            e, "scenario", _SCENARIO_CHECKS, f"pipeline configs[{i}]")}))
        for i, e in enumerate(entries)]
    fusion_cfg = FusionConfig(**_settings(
        _FUSION_CHECKS, _section(run.config, "fusion", _FUSION_CHECKS, "pipeline")))
    evaluation = _settings(
        _EVALUATION_CHECKS, _section(run.config, "evaluation", _EVALUATION_CHECKS, "pipeline"))

    matrices = [out_dir / "lidar.vismatrix", out_dir / "radar.vismatrix"]
    files = [[out_dir / f"{name}.{suffix}" for suffix in (
        "solution", "coverage", "truth.frames", "lidar.frames", "radar.frames", "fused.frames",
        "evaluation")] for name in names]
    summary_path = out_dir / "summary.report"

    def stage(manifest: str):
        """The subcommand chain for each configs[] entry, then the summary report."""
        _visibility_stage(scene, digest, vis_cfg, workers, matrices, manifest)
        reports, rows, used = [], [], []
        for name, optimize, coverage, scenario_cfg, paths in zip(
                names, settings, coverages, scenario_cfgs, files):
            sol_path, cov_path, truth, lidar, radar, fused_path, eval_path = paths
            solution, optimize_used = _optimize_stage(*matrices, optimize, sol_path, manifest)
            report, coverage_used = _coverage_stage(*matrices, sol_path, name, coverage,
                                                    cov_path, manifest)
            _, scenario_used = _simulate_stage(scene, digest, *matrices, sol_path, scenario_cfg,
                                               (truth, lidar, radar), manifest)
            _fuse_stage(lidar, radar, fusion_cfg, fused_path, manifest)
            (result, _), evaluation_used = _evaluate_stage(truth, fused_path, evaluation, None,
                                                           eval_path, manifest)
            reports.append(report)
            used.append({**optimize_used, **coverage_used, "scenario": scenario_used})
            rows.append({
                "name": name, "objective": solution.objective, "optimal": solution.optimal,
                "central_coverage": report.central_coverage, "total_cost": report.total_cost,
                "sensor_count": report.sensor_count, "mean_ap": result.mean_ap})
        summary: dict = {"configs": rows}
        comparison = compare_configs(reports) if len(reports) >= 2 else None
        if comparison is not None:
            summary["comparison"] = comparison.to_record()
        save_report(summary_path, "pipeline_summary", summary, manifest)
        # Every configs[] entry is evaluated with the same settings.
        return (rows, comparison), {
            "workers": workers, "visibility": asdict(vis_cfg), "fusion": asdict(fusion_cfg),
            "evaluation": evaluation_used, "configs": used}

    outputs = [*matrices, *(path for paths in files for path in paths), summary_path]
    rows, comparison = run.stage(stage, [scene_file, args.config], outputs,
                                 out_dir / "pipeline.manifest")
    for row in rows:
        print(f"{row['name']}: objective {row['objective']:.9g},"
              f" coverage {row['central_coverage']:.1%}, mAP {row['mean_ap']:.3f}")
    if comparison is not None:
        print()
        print(comparison.to_text(), end="")
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
