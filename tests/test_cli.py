"""Command line behavior: exit codes, full tool chain, manifests."""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import crossview
from crossview import (
    CLASSES,
    DEFAULT_IOU_THRESHOLDS,
    FusionConfig,
    ParseError,
    ScenarioConfig,
    Scene,
    VisibilityConfig,
    file_sha256,
    load_manifest,
    load_matrix,
    load_report,
    load_scene,
    load_solution,
    save_frames,
    save_report,
    save_scene,
)
from crossview import cli
from crossview.cli import build_parser, main
from crossview.scene import MAX_BEAMS, MAX_GRID_SIDE, MAX_SPAWN_RATE

from conftest import make_document, random_box, rehash, square_scene
from oracles import load_frames_reference


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A scene plus its visibility matrices, built once through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    save_scene(root / "scene.scene", square_scene())
    rc = main([
        "visibility",
        "--scene", str(root / "scene.scene"),
        "--out-lidar", str(root / "lidar.vismatrix"),
        "--out-radar", str(root / "radar.vismatrix"),
    ])
    assert rc == 0
    return root


def test_version(capsys):
    assert main(["--version"]) == 0
    assert "crossview" in capsys.readouterr().out


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["optimize"]) == 2
    assert main(["frobnicate"]) == 2


def test_missing_input_exits_3(tmp_path, capsys):
    rc = main([
        "visibility",
        "--scene", str(tmp_path / "nope.scene"),
        "--out-lidar", str(tmp_path / "l.vismatrix"),
        "--out-radar", str(tmp_path / "r.vismatrix"),
    ])
    assert rc == 3
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["pipeline-scene-directory", "pipeline-scene-under-a-file",
                                  "pipeline-scene-nul", "config-directory", "scene-directory",
                                  "scene-name-too-long", "scene-symlink-loop"])
def test_input_path_that_is_no_file_exits_3(tmp_path, capsys, case):
    """An input path naming a directory, a path below a file, a name too long
    for the file system, a symlink loop or a name holding a NUL is unreadable input."""
    save_scene(tmp_path / "scene.scene", square_scene())
    outputs = ["--out-lidar", str(tmp_path / "l.vismatrix"),
               "--out-radar", str(tmp_path / "r.vismatrix")]
    if case == "scene-directory":
        argv = ["visibility", "--scene", str(tmp_path), *outputs]
    elif case == "scene-name-too-long":
        argv = ["visibility", "--scene", str(tmp_path / ("s" * 300 + ".scene")), *outputs]
    elif case == "scene-symlink-loop":
        (tmp_path / "loop.scene").symlink_to(tmp_path / "loop.scene")
        argv = ["visibility", "--scene", str(tmp_path / "loop.scene"), *outputs]
    elif case == "config-directory":
        argv = ["visibility", "--scene", str(tmp_path / "scene.scene"),
                "--config", str(tmp_path), *outputs]
    else:
        scene = {"pipeline-scene-directory": ".", "pipeline-scene-under-a-file": "scene.scene/x",
                 "pipeline-scene-nul": "scene\u0000.scene"}[case]
        cfg_path = tmp_path / "pipeline.json"
        cfg_path.write_text(json.dumps({"scene": scene, "configs": [{"name": "a", "budget": 1}]}))
        argv = ["pipeline", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 3, err
    assert err.startswith("error: ") and "cannot read" in err and "Traceback" not in err, err
    if case == "pipeline-scene-nul":
        assert err == f"error: {tmp_path}/scene\0.scene: cannot read: embedded null byte\n", err


def test_malformed_input_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.scene"
    bad.write_text("crossview.scene 1\n{not json")
    rc = main([
        "visibility",
        "--scene", str(bad),
        "--out-lidar", str(tmp_path / "l.vismatrix"),
        "--out-radar", str(tmp_path / "r.vismatrix"),
    ])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("site", ["scene", "config", "frames"])
def test_json_nested_past_the_recursion_limit_exits_3(tmp_path, capsys, site):
    """A scene or frames file (digest recomputed) or a --config whose JSON nests
    100,000 lists deep is malformed input, not a traceback."""
    deep = "[" * 100_000 + "]" * 100_000
    scene, config = tmp_path / "site.scene", tmp_path / "config.json"
    save_scene(scene, square_scene())
    argv = ["visibility", "--scene", str(scene), "--out-lidar", str(tmp_path / "l.vismatrix"),
            "--out-radar", str(tmp_path / "r.vismatrix")]
    if site == "scene":
        text = make_document("crossview.scene", {**_payload(scene), "grid": "@deep@"})
        scene.write_text(rehash(text.replace('"@deep@"', deep)))
        expected = f"error: {scene}: invalid or truncated JSON body: maximum recursion depth"
    elif site == "frames":
        frames = tmp_path / "lidar.frames"
        payload = _frames_file(frames)
        payload["frames"][0]["boxes"][0]["center"] = "@deep@"
        text = make_document("crossview.frames", payload)
        frames.write_text(rehash(text.replace('"@deep@"', deep)))
        save_frames(tmp_path / "radar.frames", {})
        argv = ["fuse", "--lidar", str(frames), "--radar", str(tmp_path / "radar.frames"),
                "--out", str(tmp_path / "fused.frames")]
        expected = f"error: {frames}: invalid or truncated JSON body: maximum recursion depth"
    else:
        config.write_text(json.dumps({"epsilon": "@deep@"}).replace('"@deep@"', deep))
        argv += ["--config", str(config)]
        expected = f"error: {config}: invalid JSON config: maximum recursion depth"
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 3, err
    assert err.startswith(expected) and "Traceback" not in err, err
    assert not list(tmp_path.glob("*.vismatrix")) and not (tmp_path / "fused.frames").exists()


def test_invalid_scene_exits_4(tmp_path, capsys):
    scene = square_scene()
    twin = scene.lidar_candidates[0]
    broken = Scene(
        grid=scene.grid,
        roi=scene.roi,
        occluders=scene.occluders,
        lidar_candidates=(twin, twin),
        radar_candidates=scene.radar_candidates,
    )
    path = tmp_path / "dup.scene"
    save_scene(path, broken)
    rc = main([
        "visibility",
        "--scene", str(path),
        "--out-lidar", str(tmp_path / "l.vismatrix"),
        "--out-radar", str(tmp_path / "r.vismatrix"),
    ])
    assert rc == 4
    assert "scene:" in capsys.readouterr().err


def test_candidate_id_with_whitespace_exits_4_before_the_ray_cast(tmp_path, capsys):
    """Matrix files list ids space-separated, so ``optimize`` could not read
    back a matrix holding such an id."""
    scene = square_scene()
    spaced = replace(scene.lidar_candidates[0], id="L 0")
    path = tmp_path / "spaced.scene"
    save_scene(path, replace(scene, lidar_candidates=(spaced, *scene.lidar_candidates[1:])))
    rc = main(["visibility", "--scene", str(path), "--out-lidar", str(tmp_path / "l.vismatrix"),
               "--out-radar", str(tmp_path / "r.vismatrix")])
    err = capsys.readouterr().err
    assert rc == 4, err
    assert err == "error: scene: candidate 'L 0': id must be one token, without whitespace\n", err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spaced.scene"]


def test_missing_budget_exits_4(workspace, tmp_path, capsys):
    rc = main([
        "optimize",
        "--lidar", str(workspace / "lidar.vismatrix"),
        "--radar", str(workspace / "radar.vismatrix"),
        "--out", str(tmp_path / "x.solution"),
    ])
    assert rc == 4
    assert "budget is required" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["flag", "config", "pipeline"])
def test_exhaustive_is_no_solver_choice(workspace, tmp_path, capsys, where):
    """Enumeration is the tests' reference for branch-and-bound, not a CLI solver."""
    argv = ["optimize", "--lidar", str(workspace / "lidar.vismatrix"),
            "--radar", str(workspace / "radar.vismatrix"), "--budget", "2",
            "--out", str(tmp_path / "x.solution")]
    cfg = tmp_path / "cfg.json"
    if where == "flag":
        argv += ["--solver", "exhaustive"]
    elif where == "config":
        cfg.write_text(json.dumps({"solver": "exhaustive"}))
        argv += ["--config", str(cfg)]
    else:
        save_scene(tmp_path / "scene.scene", square_scene())
        cfg.write_text(json.dumps({"scene": "scene.scene", "configs": [
            {"name": "a", "budget": 2, "solver": "exhaustive"}]}))
        argv = ["pipeline", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == (2 if where == "flag" else 4), err
    assert "exhaustive" in err and "Traceback" not in err, err
    if where != "flag":
        assert err.startswith("error: solver: "), err
    assert not (tmp_path / "x.solution").exists()


@pytest.mark.parametrize("case", ["out-directory", "out-under-a-file", "out-in-a-missing-folder",
                                  "pipeline-out-dir-is-a-file", "out-lidar-name-too-long",
                                  "out-under-a-symlink-loop", "pipeline-out-dir-name-too-long"])
def test_output_path_that_cannot_hold_a_file_exits_3(workspace, tmp_path, capsys, case):
    """An output path that cannot be written as a file is a file error, like a bad input path."""
    (tmp_path / "a-file").write_text("")
    (tmp_path / "a-folder").mkdir()
    (tmp_path / "loop").symlink_to(tmp_path / "loop")
    long_name = "o" * 300
    target, reason = {
        "out-directory": (tmp_path / "a-folder", "Is a directory"),
        "out-under-a-file": (tmp_path / "a-file" / "x.solution", "Not a directory"),
        "out-in-a-missing-folder": (tmp_path / "missing" / "m.lp", "No such file or directory"),
        "pipeline-out-dir-is-a-file": (tmp_path / "a-file", "File exists"),
        "out-lidar-name-too-long": (tmp_path / long_name, "File name too long"),
        "out-under-a-symlink-loop": (tmp_path / "loop" / "x.solution",
                                     "Too many levels of symbolic links"),
        "pipeline-out-dir-name-too-long": (tmp_path / long_name, "File name too long"),
    }[case]
    matrices = ["--lidar", str(workspace / "lidar.vismatrix"),
                "--radar", str(workspace / "radar.vismatrix"), "--budget", "2"]
    if case.startswith("pipeline-out-dir"):
        save_scene(tmp_path / "scene.scene", square_scene())
        cfg = tmp_path / "pipeline.json"
        cfg.write_text(json.dumps({"scene": "scene.scene",
                                   "configs": [{"name": "a", "budget": 2}]}))
        argv = ["pipeline", "--config", str(cfg), "--out-dir", str(target)]
    elif case == "out-lidar-name-too-long":
        argv = ["visibility", "--scene", str(workspace / "scene.scene"),
                "--out-lidar", str(target), "--out-radar", str(tmp_path / "r.vismatrix")]
    elif case == "out-in-a-missing-folder":
        argv = ["export-milp", *matrices, "--out", str(target)]
    else:
        argv = ["optimize", *matrices, "--out", str(target)]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 3, err
    assert err == f"error: cannot write {target}: {reason}\n", err
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("separator", ["\u2028", "\x0c", "\r", "\n"],
                         ids=["line-separator", "form-feed", "carriage-return", "newline"])
def test_matrix_output_name_holding_a_line_separator(tmp_path, capsys, separator):
    """A matrix file names its manifest in a header line.  A name holding a
    line separator other than a newline reads back whole, so the next stage
    takes the file; a newline would end the header line, so it is refused
    before any file is written."""
    save_scene(tmp_path / "scene.scene", square_scene())
    lidar, radar = tmp_path / f"a{separator}b.vismatrix", tmp_path / "r.vismatrix"
    rc = main(["visibility", "--scene", str(tmp_path / "scene.scene"),
               "--out-lidar", str(lidar), "--out-radar", str(radar)])
    err = capsys.readouterr().err
    if separator == "\n":
        assert rc == 4, err
        assert err == f"error: manifest {lidar.name + '.manifest'!r} holds a line break\n", err
        assert [p.name for p in tmp_path.iterdir()] == ["scene.scene"]
        return
    assert rc == 0, err
    assert load_matrix(lidar).manifest == f"a{separator}b.vismatrix.manifest"
    rc = main(["optimize", "--lidar", str(lidar), "--radar", str(radar), "--budget", "2",
               "--out", str(tmp_path / "x.solution")])
    assert rc == 0, capsys.readouterr().err


@pytest.mark.parametrize("case", ["read", "write", "pipeline-out-dir"])
def test_denied_permission_exits_3(workspace, tmp_path, capsys, monkeypatch, case):
    """A path the process may not read or write is a file error, not a traceback.

    The tests run as root, whom no permission bit stops, so the denial is
    raised by the one ``Path`` method that reads, writes or makes the path.
    """
    lidar, out = workspace / "lidar.vismatrix", tmp_path / "x.solution"
    method, denied, expected = {
        "read": ("read_bytes", lidar, f"{lidar}: cannot read: Permission denied"),
        "write": ("write_bytes", tmp_path / ".x.solution.tmp",
                  f"cannot write {out}: Permission denied"),
        "pipeline-out-dir": ("mkdir", tmp_path / "out",
                             f"cannot write {tmp_path / 'out'}: Permission denied"),
    }[case]
    if case == "pipeline-out-dir":
        save_scene(tmp_path / "scene.scene", square_scene())
        (tmp_path / "pipeline.json").write_text(json.dumps(
            {"scene": "scene.scene", "configs": [{"name": "a", "budget": 2}]}))
        argv = ["pipeline", "--config", str(tmp_path / "pipeline.json"),
                "--out-dir", str(denied)]
    else:
        argv = ["optimize", "--lidar", str(lidar), "--radar", str(workspace / "radar.vismatrix"),
                "--budget", "2", "--out", str(out)]
    real = getattr(Path, method)

    def deny(self, *args, **kwargs):
        if self == denied:
            raise PermissionError(13, "Permission denied", str(self))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Path, method, deny)
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 3, err
    assert err == f"error: {expected}\n", err
    assert sorted(p.name for p in tmp_path.iterdir()) in ([], ["pipeline.json", "scene.scene"])


def test_full_chain(workspace, capsys):
    root = workspace

    rc = main([
        "optimize",
        "--lidar", str(root / "lidar.vismatrix"),
        "--radar", str(root / "radar.vismatrix"),
        "--budget", "4",
        "--out", str(root / "best.solution"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "objective" in out and "optimal" in out
    solution = load_solution(root / "best.solution")
    assert solution.optimal
    assert solution.lidar_ids and solution.radar_ids

    rc = main([
        "export-milp",
        "--lidar", str(root / "lidar.vismatrix"),
        "--radar", str(root / "radar.vismatrix"),
        "--budget", "4",
        "--out", str(root / "model.lp"),
    ])
    assert rc == 0
    lp_text = (root / "model.lp").read_text()
    assert lp_text.startswith("\\ crossview placement model")
    assert "Binaries" in lp_text

    rc = main([
        "coverage",
        "--lidar", str(root / "lidar.vismatrix"),
        "--radar", str(root / "radar.vismatrix"),
        "--solution", str(root / "best.solution"),
        "--out", str(root / "best.coverage"),
    ])
    assert rc == 0
    captured = capsys.readouterr()
    assert "coverage 100.0%" in captured.out
    # The optimizer's objective recomputes bit for bit from the matrices.
    assert "warning" not in captured.err
    kind, record = load_report(root / "best.coverage")
    assert kind == "coverage"
    assert record["config_name"] == "best"
    assert record["central_coverage"] == 1.0

    rc = main([
        "simulate",
        "--scene", str(root / "scene.scene"),
        "--lidar", str(root / "lidar.vismatrix"),
        "--radar", str(root / "radar.vismatrix"),
        "--solution", str(root / "best.solution"),
        "--seed", "5",
        "--frames", "20",
        "--out-truth", str(root / "truth.frames"),
        "--out-lidar", str(root / "dets.lidar.frames"),
        "--out-radar", str(root / "dets.radar.frames"),
    ])
    assert rc == 0
    captured = capsys.readouterr()
    assert "simulated 20 frames" in captured.out
    assert "warning" not in captured.err

    rc = main([
        "fuse",
        "--lidar", str(root / "dets.lidar.frames"),
        "--radar", str(root / "dets.radar.frames"),
        "--out", str(root / "fused.frames"),
    ])
    assert rc == 0
    assert "merges" in capsys.readouterr().out

    rc = main([
        "evaluate",
        "--truth", str(root / "truth.frames"),
        "--predictions", str(root / "fused.frames"),
        "--out", str(root / "best.evaluation"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mAP 1.000" in out
    kind, record = load_report(root / "best.evaluation")
    assert kind == "evaluation"
    assert record["mean_ap"] == 1.0


def test_failed_export_leaves_the_old_model_whole(workspace, tmp_path, monkeypatch):
    """export-milp writes its LP text through a temp file renamed over the target."""
    lp = tmp_path / "model.lp"
    argv = ["export-milp", "--lidar", str(workspace / "lidar.vismatrix"),
            "--radar", str(workspace / "radar.vismatrix"), "--out", str(lp)]
    assert main([*argv, "--budget", "2"]) == 0
    before = lp.read_bytes()

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    assert main([*argv, "--budget", "3"]) == 1
    assert lp.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.lp", "model.lp.manifest"]


def _payload(path) -> dict:
    return json.loads(path.read_text().split("\n", 1)[1])["payload"]


def _json(value):
    """``value`` as a manifest reads it back: tuples become lists."""
    return json.loads(json.dumps(value))


class ManifestCase(NamedTuple):
    """One command line, its paths relative to the folder it runs in, and the
    manifest it must write there (None: it writes no file at all)."""

    argv: list
    manifest: str | None = None
    inputs: list = []
    outputs: list = []
    config: dict = {}


_BEST = {"budget": 4.0, "budget_mode": "count", "seen_threshold": 1.0}
_PIPELINE_RUN = {"scene": "scene.scene", "scenario": {"seed": 3, "duration_frames": 6},
                 "configs": [{"name": "dense", "budget": 4}, {"name": "lean", "budget": 2}]}
_EVALUATED = {"matching_mode": "iou", "classes": list(CLASSES),
              "thresholds": DEFAULT_IOU_THRESHOLDS}
_PIPELINE_FILES = ("solution", "coverage", "truth.frames", "lidar.frames", "radar.frames",
                   "fused.frames", "evaluation")

# Every subcommand's runs, in the order they run in one folder; the keys are
# the subcommands the parser registers.
MANIFEST_CASES = {
    "visibility": [ManifestCase(
        ["--scene", "scene.scene", "--out-lidar", "lidar.vismatrix",
         "--out-radar", "radar.vismatrix"],
        "lidar.vismatrix.manifest", ["scene.scene"], ["lidar.vismatrix", "radar.vismatrix"],
        {**asdict(VisibilityConfig()), "workers": 1})],
    "optimize": [ManifestCase(
        ["--lidar", "lidar.vismatrix", "--radar", "radar.vismatrix", "--budget", "4",
         "--out", "best.solution"],
        "best.solution.manifest", ["lidar.vismatrix", "radar.vismatrix"], ["best.solution"],
        {**_BEST, "solver": "branch-bound"})],
    "export-milp": [ManifestCase(
        ["--lidar", "lidar.vismatrix", "--radar", "radar.vismatrix", "--budget", "4",
         "--out", "model.lp"],
        "model.lp.manifest", ["lidar.vismatrix", "radar.vismatrix"], ["model.lp"], _BEST)],
    "coverage": [ManifestCase(
        ["--lidar", "lidar.vismatrix", "--radar", "radar.vismatrix",
         "--solution", "best.solution", "--out", "best.coverage"],
        "best.coverage.manifest", ["lidar.vismatrix", "radar.vismatrix", "best.solution"],
        ["best.coverage"], {"theta": 0.0, "name": "best"})],
    "compare": [
        ManifestCase(["best.coverage", "best.coverage", "--out", "cmp.report"],
                     "cmp.report.manifest", ["best.coverage", "best.coverage"],
                     ["cmp.report"]),
        ManifestCase(["best.coverage", "best.coverage"])],
    "simulate": [ManifestCase(
        ["--scene", "scene.scene", "--lidar", "lidar.vismatrix", "--radar", "radar.vismatrix",
         "--solution", "best.solution", "--seed", "5", "--frames", "8",
         "--out-truth", "truth.frames", "--out-lidar", "lidar.frames",
         "--out-radar", "radar.frames"],
        "truth.frames.manifest",
        ["scene.scene", "lidar.vismatrix", "radar.vismatrix", "best.solution"],
        ["truth.frames", "lidar.frames", "radar.frames"],
        asdict(ScenarioConfig(seed=5, duration_frames=8)))],
    "fuse": [ManifestCase(
        ["--lidar", "lidar.frames", "--radar", "radar.frames", "--out", "fused.frames"],
        "fused.frames.manifest", ["lidar.frames", "radar.frames"], ["fused.frames"],
        asdict(FusionConfig()))],
    "evaluate": [
        ManifestCase(["--truth", "truth.frames", "--predictions", "fused.frames",
                      "--baseline", "best.evaluation0", "--out", "best.evaluation"],
                     "best.evaluation.manifest",
                     ["truth.frames", "fused.frames", "best.evaluation0"], ["best.evaluation"],
                     _EVALUATED),
        ManifestCase(["--truth", "truth.frames", "--predictions", "fused.frames"])],
    "pipeline": [ManifestCase(
        ["--config", "pipeline.json", "--out-dir", "out"],
        "out/pipeline.manifest", ["scene.scene", "pipeline.json"],
        ["lidar.vismatrix", "radar.vismatrix",
         *(f"{name}.{suffix}" for name in ("dense", "lean") for suffix in _PIPELINE_FILES),
         "summary.report"],
        {"workers": 1, "visibility": asdict(VisibilityConfig()),
         "fusion": asdict(FusionConfig()), "evaluation": _EVALUATED,
         "configs": [{"name": name, "budget": budget, "budget_mode": "count",
                      "seen_threshold": 1.0, "solver": "branch-bound", "theta": 0.0,
                      "scenario": asdict(ScenarioConfig(seed=3, duration_frames=6))}
                     for name, budget in (("dense", 4), ("lean", 2))]})],
}


@pytest.fixture(scope="module")
def manifest_runs(tmp_path_factory):
    """Runs every MANIFEST_CASES command line in one folder; returns the folder
    and, for each run, the files it added there."""
    root = tmp_path_factory.mktemp("manifests")
    save_scene(root / "scene.scene", square_scene())
    (root / "pipeline.json").write_text(json.dumps(_PIPELINE_RUN))
    save_report(root / "best.evaluation0", "evaluation",
                {"matching_mode": "iou", "mean_ap": 0.5, "per_class": {}})
    added = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for command, cases in MANIFEST_CASES.items():
            for k, case in enumerate(cases):
                before = set(root.rglob("*"))
                assert main([command, *case.argv]) == 0, (command, k)
                added[command, k] = {str(p.relative_to(root))
                                     for p in set(root.rglob("*")) - before if p.is_file()}
    return root, added


def _recorded_manifest(path) -> str:
    """The manifest name a matrix or JSON-bodied data file records."""
    if path.suffix == ".vismatrix":
        return load_matrix(path).manifest
    return _payload(path)["manifest"]


def test_manifest_cases_cover_every_subcommand():
    subcommands = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    assert list(MANIFEST_CASES) == list(subcommands)


@pytest.mark.parametrize("command, k", [
    pytest.param(c, k, id=f"{c}-{'out' if case.manifest else 'no-out'}")
    for c, cases in MANIFEST_CASES.items() for k, case in enumerate(cases)])
def test_every_subcommand_writes_its_manifest(manifest_runs, command, k):
    """A command writes its data files and one manifest beside its first output
    (pipeline: in its --out-dir), or, without an output, no file at all."""
    root, added = manifest_runs
    case = MANIFEST_CASES[command][k]
    if case.manifest is None:
        assert added[command, k] == set()
        return
    folder = (root / case.manifest).parent
    assert added[command, k] == {str((folder / name).relative_to(root))
                                 for name in [*case.outputs, Path(case.manifest).name]}
    manifest = load_manifest(root / case.manifest)
    assert manifest["command"] == command
    assert manifest["tool_version"] == crossview.__version__
    assert manifest["inputs"] == {p: file_sha256(root / p) for p in case.inputs}
    assert manifest["outputs"] == case.outputs
    assert manifest["config"] == _json(case.config)
    assert manifest["wall_time_s"] > 0
    for name in case.outputs:
        if not name.endswith(".lp"):  # LP text has no field for it
            assert _recorded_manifest(folder / name) == Path(case.manifest).name, name


def test_evaluate_against_baseline(workspace, tmp_path, capsys):
    baseline_record = {
        "matching_mode": "iou",
        "mean_ap": 0.5,
        "per_class": {"car": {"ap": 0.4, "threshold": 0.5,
                              "num_gt": 10, "num_predictions": 12}},
    }
    baseline = tmp_path / "baseline.evaluation"
    save_report(baseline, "evaluation", baseline_record)
    rc = main([
        "evaluate",
        "--truth", str(workspace / "truth.frames"),
        "--predictions", str(workspace / "fused.frames"),
        "--baseline", str(baseline),
        "--out", str(tmp_path / "delta.evaluation"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "delta vs baseline.evaluation" in out
    assert "0.400 -> 1.000  (+60.0%)" in out
    assert "0.500 -> 1.000  (+50.0%)" in out
    _, record = load_report(tmp_path / "delta.evaluation")
    assert record["baseline"]["mean_ap_delta"] == pytest.approx(0.5)
    assert record["baseline"]["per_class_delta"]["car"] == pytest.approx(0.6)


def test_wrong_report_kind_for_baseline(workspace, tmp_path, capsys):
    not_eval = tmp_path / "cov.report"
    save_report(not_eval, "coverage", {"central_coverage": 1.0})
    rc = main([
        "evaluate",
        "--truth", str(workspace / "truth.frames"),
        "--predictions", str(workspace / "fused.frames"),
        "--baseline", str(not_eval),
    ])
    assert rc == 4
    assert "expected evaluation" in capsys.readouterr().err


def test_compare_command(workspace, tmp_path, capsys):
    dense = tmp_path / "dense.coverage"
    lean = tmp_path / "lean.coverage"
    save_report(dense, "coverage", {
        "config_name": "dense", "central_coverage": 0.9, "covered_cells": 90,
        "total_roi_cells": 100, "total_cost": 100.0, "sensor_count": 3, "per_modality_cost": {},
        "per_modality_covered": {}, "theta": 0.0,
    })
    save_report(lean, "coverage", {
        "config_name": "lean", "central_coverage": 0.88, "covered_cells": 88,
        "total_roi_cells": 100, "total_cost": 44.0, "sensor_count": 2, "per_modality_cost": {},
        "per_modality_covered": {}, "theta": 0.0,
    })
    rc = main(["compare", str(dense), str(lean),
               "--out", str(tmp_path / "cmp.report")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "dense -> lean" in out
    assert "cost reduction 56.0%" in out
    kind, record = load_report(tmp_path / "cmp.report")
    assert kind == "coverage_comparison"
    assert record["pairs"][0]["cost_reduction_pct"] == pytest.approx(56.0)


_COVERAGE_RECORD = {
    "config_name": "dense", "central_coverage": 0.9, "covered_cells": 90,
    "total_roi_cells": 100, "total_cost": 100.0, "sensor_count": 3,
    "per_modality_cost": {"lidar": 80.0, "radar": 20.0},
    "per_modality_covered": {"lidar": 85, "radar": 40}, "theta": 0.0,
}
_BASELINE_RECORD = {
    "matching_mode": "iou", "mean_ap": 0.5,
    "per_class": {"car": {"ap": 0.4, "threshold": 0.5, "num_gt": 10, "num_predictions": 12}},
}


@pytest.mark.parametrize("kind, record, field", [
    ("evaluation", [0.5], "record"),
    ("evaluation", {**_BASELINE_RECORD, "per_class": {"car": 3}}, "per_class.car"),
    ("evaluation", {k: v for k, v in _BASELINE_RECORD.items() if k != "mean_ap"}, "mean_ap"),
    ("evaluation", {**_BASELINE_RECORD, "per_class": {"car": {"ap": "x"}}}, "car.ap"),
    ("coverage", {**_COVERAGE_RECORD, "central_coverage": "hi"}, "central_coverage"),
    ("coverage", {k: v for k, v in _COVERAGE_RECORD.items() if k != "sensor_count"},
     "sensor_count"),
    ("coverage", {**_COVERAGE_RECORD, "per_modality_covered": {"lidar": 1.5}},
     "per_modality_covered.lidar"),
    ("coverage", [], "record"),
])
def test_malformed_report_records_exit_3(tmp_path, capsys, kind, record, field):
    bad = tmp_path / "bad.report"
    save_report(bad, kind, record)
    if kind == "evaluation":
        car = random_box(np.random.default_rng(0), "car")
        save_frames(tmp_path / "t.frames", {"000000": [car]})
        argv = ["evaluate", "--truth", str(tmp_path / "t.frames"),
                "--predictions", str(tmp_path / "t.frames"), "--baseline", str(bad)]
    else:
        good = tmp_path / "good.coverage"
        save_report(good, "coverage", _COVERAGE_RECORD)
        argv = ["compare", str(good), str(bad)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind, record, code", [
    ("evaluation", [0.5], 3),
    ("evaluation", {k: v for k, v in _BASELINE_RECORD.items() if k != "mean_ap"}, 3),
    ("coverage", _COVERAGE_RECORD, 4),
], ids=["list-record", "no-mean_ap", "coverage-kind"])
def test_bad_baseline_fails_before_the_evaluation_prints(tmp_path, capsys, kind, record, code):
    bad = tmp_path / "bad.report"
    save_report(bad, kind, record)
    frames = tmp_path / "t.frames"
    save_frames(frames, {"000000": [random_box(np.random.default_rng(0), "car")]})
    out = tmp_path / "delta.evaluation"
    assert main(["evaluate", "--truth", str(frames), "--predictions", str(frames),
                 "--baseline", str(bad), "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad.report" in captured.err and "Traceback" not in captured.err
    assert not out.exists()


def test_report_kind_must_be_a_string(tmp_path, capsys):
    bad = tmp_path / "bad.coverage"
    bad.write_text(make_document("crossview.report", {"kind": 5, "record": {}}))
    assert main(["compare", str(bad), str(bad)]) == 3
    assert "kind: expected a string" in capsys.readouterr().err


def test_config_file_precedence(workspace, tmp_path):
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"budget": 2}))
    rc = main([
        "optimize",
        "--lidar", str(workspace / "lidar.vismatrix"),
        "--radar", str(workspace / "radar.vismatrix"),
        "--config", str(cfg),
        "--out", str(tmp_path / "from-config.solution"),
    ])
    assert rc == 0
    assert load_solution(tmp_path / "from-config.solution").budget == 2.0

    rc = main([
        "optimize",
        "--lidar", str(workspace / "lidar.vismatrix"),
        "--radar", str(workspace / "radar.vismatrix"),
        "--config", str(cfg),
        "--budget", "3",
        "--out", str(tmp_path / "from-flag.solution"),
    ])
    assert rc == 0
    assert load_solution(tmp_path / "from-flag.solution").budget == 3.0


def test_pipeline(tmp_path, capsys):
    save_scene(tmp_path / "scene.scene", square_scene())
    cfg = {
        "scene": "scene.scene",
        "configs": [
            {"name": "dense", "budget": 4},
            {"name": "lean", "budget": 2},
        ],
        "scenario": {"duration_frames": 12, "seed": 3},
    }
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    rc = main(["pipeline", "--config", str(cfg_path), "--out-dir", str(out_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "dense:" in out and "lean:" in out

    for name in ("lidar.vismatrix", "radar.vismatrix", "pipeline.manifest",
                 "summary.report"):
        assert (out_dir / name).exists()
    for config_name in ("dense", "lean"):
        for suffix in ("solution", "coverage", "truth.frames", "lidar.frames",
                       "radar.frames", "fused.frames", "evaluation"):
            assert (out_dir / f"{config_name}.{suffix}").exists()

    kind, summary = load_report(out_dir / "summary.report")
    assert kind == "pipeline_summary"
    assert [row["name"] for row in summary["configs"]] == ["dense", "lean"]
    assert summary["comparison"]["pairs"][0]["base"] == "dense"
    manifest = load_manifest(out_dir / "pipeline.manifest")
    assert manifest["command"] == "pipeline"
    assert "summary.report" in manifest["outputs"]
    # The manifest records every checked setting, library defaults filled in.
    scenario = json.loads(json.dumps(asdict(ScenarioConfig(seed=3, duration_frames=12))))
    assert manifest["config"] == {
        "workers": 1, "visibility": asdict(VisibilityConfig()), "fusion": asdict(FusionConfig()),
        "evaluation": {"matching_mode": "iou", "classes": list(CLASSES),
                       "thresholds": DEFAULT_IOU_THRESHOLDS},
        "configs": [{"name": name, "budget": budget, "budget_mode": "count",
                     "seen_threshold": 1.0, "solver": "branch-bound", "theta": 0.0,
                     "scenario": scenario} for name, budget in (("dense", 4), ("lean", 2))],
    }


def test_pipeline_compares_count_and_cost_budgets_in_money(tmp_path, capsys):
    save_scene(tmp_path / "scene.scene", square_scene())
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps({
        "scene": "scene.scene",
        "configs": [{"name": "count2", "budget": 2},
                    {"name": "cost300", "budget": 300, "budget_mode": "cost"}],
        "scenario": {"duration_frames": 4, "seed": 3},
    }))
    out_dir = tmp_path / "out"
    assert main(["pipeline", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
    out = capsys.readouterr().out
    _, summary = load_report(out_dir / "summary.report")
    rows = {row["name"]: row for row in summary["configs"]}
    # Unit costs are 100 a lidar and 20 a radar mount.  Set against the
    # count 2, the cost-300 pick's 240 read as a reduction of -11900%.
    assert (rows["count2"]["sensor_count"], rows["count2"]["total_cost"]) == (2, 120.0)
    assert (rows["cost300"]["sensor_count"], rows["cost300"]["total_cost"]) == (4, 240.0)
    assert summary["comparison"]["pairs"][0]["cost_reduction_pct"] == -100.0
    assert "count2 -> cost300: coverage +0.0%, cost reduction -100.0%" in out


def test_pipeline_rejects_duplicate_names(tmp_path, capsys):
    save_scene(tmp_path / "scene.scene", square_scene())
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps({
        "scene": "scene.scene",
        "configs": [{"name": "a", "budget": 1}, {"name": "a", "budget": 2}],
    }))
    rc = main(["pipeline", "--config", str(cfg_path),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 4
    assert "unique" in capsys.readouterr().err


def test_workers_must_be_positive(workspace, tmp_path, capsys):
    rc = main([
        "visibility",
        "--scene", str(workspace / "scene.scene"),
        "--out-lidar", str(tmp_path / "l.vismatrix"),
        "--out-radar", str(tmp_path / "r.vismatrix"),
        "--workers", "0",
    ])
    assert rc == 4
    assert "workers" in capsys.readouterr().err


BAD_SCENE_FIELDS = [
    (("grid",), None, "grid: expected an object"),
    (("roi",), [1, 2], "roi: expected an object"),
    (("roi", "weights"), [1.0], "roi.weights: expected an object"),
    (("roi", "weights", "3"), "heavy", "roi.weights.3: expected a number, got 'heavy'"),
    (("occluders",), {}, "occluders: expected a list"),
    (("occluders", 0), "wall", "occluders[0]: expected an object"),
    (("lidar_candidates",), "L0", "lidar_candidates: expected a list"),
    (("radar_candidates", 1), 7, "radar_candidates[1]: expected an object"),
    (("lidar_candidates", 0, "spec"), None, "lidar_candidates[0].spec: expected an object"),
    (("lidar_candidates", 0, "spec", "hfov_deg"), "wide",
     "lidar_candidates[0].spec.hfov_deg: expected a number, got 'wide'"),
    (("radar_candidates", 0, "spec", "unit_cost"), "cheap",
     "radar_candidates[0].spec.unit_cost: expected a number, got 'cheap'"),
    (("radar_candidates", 0, "yaw_deg"), "north",
     "radar_candidates[0].yaw_deg: expected a number, got 'north'"),
    (("grid", "cell_size"), "2", "grid.cell_size: expected a number, got '2'"),
    (("grid", "nx"), True, "grid.nx: expected an integer, got True"),
    (("grid", "ny"), 10.0, "grid.ny: expected an integer, got 10.0"),
    # A weight's key is its cell as save_scene writes it, so no two keys name one
    # cell (the file already weights cell 3) and "3_0" is not cell 30.
    *((("roi", "weights", key), 3.0, f"roi.weights: bad cell key {key!r}")
      for key in ("03", "3_0", " 3", "+3", "\u0663", "-0")),
]


@pytest.mark.parametrize("where, value, message", BAD_SCENE_FIELDS, ids=[
    ".".join(map(str, where)) + f"={value!r}" for where, value, _ in BAD_SCENE_FIELDS])
def test_malformed_scene_payload_exits_3(tmp_path, capsys, where, value, message):
    """A hashed but malformed scene is a ParseError naming its place, never a traceback."""
    path = tmp_path / "site.scene"
    save_scene(path, square_scene(occluders=[((4.0, 4.0, 0.0), (6.0, 6.0, 3.0))],
                                  weights={3: 2.0}))
    payload = _payload(path)
    parent = payload
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    path.write_text(make_document("crossview.scene", payload))
    rc = main([
        "visibility",
        "--scene", str(path),
        "--out-lidar", str(tmp_path / "l.vismatrix"),
        "--out-radar", str(tmp_path / "r.vismatrix"),
    ])
    err = capsys.readouterr().err
    assert rc == 3, err
    assert err == f"error: {path}.{message}\n"


@pytest.mark.parametrize("change, message", [
    ({"samples_per_cell": 1}, "pipeline.json: unknown field 'samples_per_cell'"),
    ({"configs": [{"name": "lean", "budget": 150, "budget_mod": "cost"}]},
     "configs[0]: unknown field 'budget_mod'"),
    ({"fusion": 0.3}, "'fusion': expected an object"),
    ({"configs": [{"name": "lean", "budget": 2, "scenario": 5}]},
     "configs[0] 'scenario': expected an object"),
    ({"visibility": {"workers": 2}}, "'visibility': unknown field 'workers'"),
], ids=["top-level", "configs-entry", "fusion-not-object", "entry-scenario-not-object",
        "section-key"])
def test_pipeline_rejects_unknown_keys(tmp_path, capsys, change, message):
    save_scene(tmp_path / "scene.scene", square_scene())
    cfg = {"scene": "scene.scene", "configs": [{"name": "dense", "budget": 4}], **change}
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["pipeline", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 4, err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("command, config, key", [
    ("optimize", {"budget": 150, "budget_mod": "cost"}, "budget_mod"),
    ("visibility", {"visibility": {"samples_per_cell": 1}}, "visibility"),
    ("fuse", {"iou_threshold": 0.2, "iou": 0.5}, "iou"),
    ("export-milp", {"budget": 2, "solver": "greedy"}, "solver"),
], ids=["optimize-typo", "visibility-nested", "fuse-extra", "export-milp-solver"])
def test_subcommand_config_rejects_unknown_keys(workspace, tmp_path, capsys, command, config,
                                                key):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    argv = {
        "optimize": ["--lidar", str(workspace / "lidar.vismatrix"),
                     "--radar", str(workspace / "radar.vismatrix"),
                     "--out", str(tmp_path / "x.solution")],
        "visibility": ["--scene", str(workspace / "scene.scene"),
                       "--out-lidar", str(tmp_path / "l.vismatrix"),
                       "--out-radar", str(tmp_path / "r.vismatrix")],
        "fuse": ["--lidar", str(tmp_path / "none.frames"), "--radar", str(tmp_path / "none.frames"),
                 "--out", str(tmp_path / "fused.frames")],
        "export-milp": ["--lidar", str(workspace / "lidar.vismatrix"),
                        "--radar", str(workspace / "radar.vismatrix"),
                        "--out", str(tmp_path / "x.lp")],
    }[command]
    rc = main([command, *argv, "--config", str(cfg)])
    assert rc == 4
    assert f"config.json: unknown field {key!r}" in capsys.readouterr().err
    assert not any(p.suffix != ".json" for p in tmp_path.iterdir())


def test_simulate_config_takes_every_scenario_key(workspace, tmp_path, capsys):
    assert main(["optimize", "--lidar", str(workspace / "lidar.vismatrix"),
                 "--radar", str(workspace / "radar.vismatrix"), "--budget", "2",
                 "--out", str(tmp_path / "x.solution")]) == 0
    cfg = tmp_path / "clip.json"
    cfg.write_text(json.dumps({
        "seed": 3, "duration_frames": 4, "frame_dt_s": 60.0, "dropout_rule": "none",
        "class_mix": {"car": 3.0, "bus": 1.0}, "speed_ranges": {"car": [5.0, 15.0]},
        "lidar_noise": {"position_sigma": 0.15}, "radar_noise": {"velocity_sigma": 0.2},
    }))
    rc = main(["simulate", "--scene", str(workspace / "scene.scene"),
               "--lidar", str(workspace / "lidar.vismatrix"),
               "--radar", str(workspace / "radar.vismatrix"),
               "--solution", str(tmp_path / "x.solution"), "--config", str(cfg),
               "--out-truth", str(tmp_path / "t.frames"), "--out-lidar", str(tmp_path / "l.frames"),
               "--out-radar", str(tmp_path / "r.frames")])
    assert rc == 0, capsys.readouterr().err
    sigmas = dict.fromkeys(("position_sigma", "size_sigma", "yaw_sigma", "velocity_sigma"), 0.0)
    assert load_manifest(tmp_path / "t.frames.manifest")["config"] == {
        **json.loads(cfg.read_text()), "lidar_noise": {**sigmas, "position_sigma": 0.15},
        "radar_noise": {**sigmas, "velocity_sigma": 0.2}}


def test_evaluate_manifest_records_the_thresholds_used(tmp_path):
    save_frames(tmp_path / "t.frames", {"000000": [random_box(np.random.default_rng(0), "car")]})
    cfg = tmp_path / "evaluation.json"
    cfg.write_text(json.dumps({"classes": ["car", "bus"], "thresholds": {"car": 0.3}}))
    assert main(["evaluate", "--truth", str(tmp_path / "t.frames"),
                 "--predictions", str(tmp_path / "t.frames"), "--config", str(cfg),
                 "--out", str(tmp_path / "e.report")]) == 0
    assert load_manifest(tmp_path / "e.report.manifest")["config"] == {
        "matching_mode": "iou", "classes": ["car", "bus"], "thresholds": {"car": 0.3, "bus": 0.5}}


@pytest.mark.parametrize("command", ["coverage", "simulate"])
def test_solution_index_outside_the_matrix_exits_4(workspace, tmp_path, capsys, command):
    """A solution row past its matrix is refused by the library's one index check."""
    path = tmp_path / "plan.solution"
    matrices = ["--lidar", str(workspace / "lidar.vismatrix"),
                "--radar", str(workspace / "radar.vismatrix")]
    assert main(["optimize", *matrices, "--budget", "2", "--out", str(path)]) == 0
    payload = _payload(path)
    payload["lidar_ids"] = [-1]
    path.write_text(make_document("crossview.solution", payload))
    if command == "coverage":
        outputs = ["--out", str(tmp_path / "plan.coverage")]
    else:
        outputs = ["--scene", str(workspace / "scene.scene")] + [
            arg for side in ("truth", "lidar", "radar")
            for arg in (f"--out-{side}", str(tmp_path / f"{side}.frames"))]
    rc = main([command, *matrices, "--solution", str(path), *outputs])
    err = capsys.readouterr().err
    assert rc == 4, err
    assert "index -1 out of range" in err and "Traceback" not in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plan.solution", "plan.solution.manifest"]


def _edited_matrices(workspace, folder, old: str, new: str) -> list[str]:
    """Copies of the workspace's two matrix files in ``folder``, ``old`` replaced by
    ``new`` in each and the digests recomputed, as the --lidar and --radar arguments."""
    argv = []
    for side in ("lidar", "radar"):
        path = folder / f"{side}.vismatrix"
        path.write_text(rehash((workspace / f"{side}.vismatrix").read_text().replace(old, new)))
        argv += [f"--{side}", str(path)]
    return argv


def _simulate_args(workspace, solution, folder) -> list[str]:
    """simulate's arguments bar the matrices: the workspace scene, ``solution``,
    and frames outputs in ``folder``."""
    return ["--scene", str(workspace / "scene.scene"), "--solution", str(solution)] + [
        arg for side in ("truth", "lidar", "radar")
        for arg in (f"--out-{side}", str(folder / f"{side}.frames"))]


def _solution(workspace, path) -> str:
    """``path``, holding the workspace's solution at a count budget of 2."""
    assert main(["optimize", "--lidar", str(workspace / "lidar.vismatrix"),
                 "--radar", str(workspace / "radar.vismatrix"), "--budget", "2",
                 "--out", str(path)]) == 0
    return str(path)


ROI_CELLS = " ".join(map(str, range(100)))  # square_scene's ROI: every cell of 10 x 10


@pytest.mark.parametrize("command", ["optimize", "simulate"])
@pytest.mark.parametrize("old, new, message", [
    (f"cells {ROI_CELLS}\n", "cells" + " 0" * 100 + "\n",
     "cells must be strictly increasing nonnegative integers"),
    ("cells 0 ", "cells -5 ", "cells must be strictly increasing nonnegative integers"),
    ("ids L0 L1\n", "ids L0 L0\n", "ids must be unique"),
], ids=["repeated-cells", "negative-cell", "repeated-id"])
def test_matrix_header_cells_and_ids_exit_3(workspace, tmp_path, capsys, command, old, new,
                                            message):
    """A matrix whose columns or rows do not name distinct cells or mounts is malformed."""
    solution = _solution(workspace, tmp_path / "plan.solution")
    matrices = _edited_matrices(workspace, tmp_path, old, new)
    if command == "optimize":
        argv = ["optimize", *matrices, "--budget", "2", "--out", str(tmp_path / "x.solution")]
    else:
        argv = ["simulate", *matrices, *_simulate_args(workspace, solution, tmp_path)]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 3, err
    assert err == f"error: {tmp_path / 'lidar.vismatrix'}: {message}\n", err
    assert not list(tmp_path.glob("*.frames")) and not (tmp_path / "x.solution").exists()


@pytest.mark.parametrize("command, side", [("coverage", "lidar"), ("simulate", "radar")])
def test_solution_naming_other_mounts_exits_4(workspace, tmp_path, capsys, command, side):
    """A solution's candidate ids must be the matrices' ids at its row indices."""
    path = tmp_path / "plan.solution"
    _solution(workspace, path)
    payload = _payload(path)
    assert payload[f"{side}_ids"] == [0]
    payload[f"{side}_candidate_ids"] = ["NOPE"]
    path.write_text(make_document("crossview.solution", payload))
    matrices = ["--lidar", str(workspace / "lidar.vismatrix"),
                "--radar", str(workspace / "radar.vismatrix")]
    if command == "coverage":
        argv = ["coverage", *matrices, "--solution", str(path),
                "--out", str(tmp_path / "plan.coverage")]
    else:
        argv = ["simulate", *matrices, *_simulate_args(workspace, path, tmp_path)]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 4, err
    assert err == (f"error: {path}: {side}_candidate_ids ['NOPE'] are not the matrix ids"
                   f" at {side}_ids [0]\n"), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plan.solution", "plan.solution.manifest"]


# The workspace's budget-2 solution takes lidar L0 (unit cost 100) and radar R0 (20).
CONTRADICTING_SOLUTIONS = {
    "repeated-lidar-row": ({"lidar_ids": [0, 0], "lidar_candidate_ids": ["L0", "L0"]},
                           3, "{path}.lidar_ids: 0 appears twice"),
    "repeated-radar-row": ({"radar_ids": [0, 1, 0], "radar_candidate_ids": ["R0", "R1", "R0"]},
                           3, "{path}.radar_ids: 0 appears twice"),
    "over-count-budget": ({"budget": 1.5}, 4,
                          "{path}: the selection costs 2.0, over its count budget 1.5"),
    "over-cost-budget": ({"budget_mode": "cost", "budget": 120.0 - 2e-9}, 4,
                         "{path}: the selection costs 120.0, over its cost budget 119.999999998"),
    "within-tolerance": ({"budget_mode": "cost", "budget": 120.0 - 5e-10}, 0, ""),
    "negative-objective": ({"objective": -5.0}, 3,
                           "{path}.objective: expected a nonnegative number, got -5.0"),
    # A solution scored on other matrices is a legitimate input, so this only warns.
    "other-objective": ({"objective": 0.0}, 0,
                        "solution objective differs from its selection's over these matrices"),
}


@pytest.mark.parametrize("command", ["coverage", "simulate"])
@pytest.mark.parametrize("case", sorted(CONTRADICTING_SOLUTIONS))
def test_solution_that_contradicts_itself_fails(workspace, tmp_path, capsys, command, case):
    """A solution may not repeat a row or record a negative objective (exit 3), nor
    spend more than the budget it records, beyond SEEN_TOL (exit 4); all used to run
    to exit 0.  An objective its selection does not score over these matrices warns."""
    edit, code, message = CONTRADICTING_SOLUTIONS[case]
    path = tmp_path / "plan.solution"
    _solution(workspace, path)
    payload = _payload(path)
    assert (payload["lidar_ids"], payload["radar_ids"], payload["budget"]) == ([0], [0], 2.0)
    assert payload["objective"] > 0.0
    path.write_text(make_document("crossview.solution", {**payload, **edit}))
    matrices = ["--lidar", str(workspace / "lidar.vismatrix"),
                "--radar", str(workspace / "radar.vismatrix")]
    if command == "coverage":
        argv = ["coverage", *matrices, "--solution", str(path),
                "--out", str(tmp_path / "plan.coverage")]
    else:
        argv = ["simulate", *matrices, *_simulate_args(workspace, path, tmp_path)]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == code, err
    if code:
        assert err == f"error: {message.format(path=path)}\n", err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "plan.solution", "plan.solution.manifest"]
    else:
        assert err == (f"warning: {message}\n" if message else ""), err


def test_matrix_for_another_roi_does_not_simulate(workspace, tmp_path, capsys):
    """simulate maps matrix columns to the scene's ROI cells, so they must be those cells."""
    matrices = _edited_matrices(workspace, tmp_path, f"cells {ROI_CELLS}\n",
                                f"cells {' '.join(map(str, range(1, 101)))}\n")
    solution = tmp_path / "plan.solution"
    assert main(["optimize", *matrices, "--budget", "2", "--out", str(solution)]) == 0
    capsys.readouterr()
    rc = main(["simulate", *matrices, *_simulate_args(workspace, solution, tmp_path)])
    err = capsys.readouterr().err
    assert rc == 4, err
    assert err == "error: the matrices' cells are not the scene's ROI cells\n", err
    assert not list(tmp_path.glob("*.frames"))


BAD_SOLUTION_FIELDS = [
    ("lidar_ids", 5),
    ("radar_ids", [0.5]),
    ("lidar_candidate_ids", [1]),
    ("radar_candidate_ids", "R0"),
    ("objective", "high"),
    ("optimal", 1),
    ("budget", None),
    ("budget_mode", 3),
    ("budget_mode", "cot"),
    ("seen_threshold", True),
    ("scene_hash", 0),
    ("manifest", 7),
]


@pytest.mark.parametrize("key, value", BAD_SOLUTION_FIELDS, ids=[
    f"{key}={value!r}" for key, value in BAD_SOLUTION_FIELDS])
def test_malformed_solution_payload_exits_3(workspace, tmp_path, capsys, key, value):
    """A hashed but malformed solution is a ParseError naming the field."""
    path = tmp_path / "plan.solution"
    assert main(["optimize", "--lidar", str(workspace / "lidar.vismatrix"),
                 "--radar", str(workspace / "radar.vismatrix"), "--budget", "2",
                 "--out", str(path)]) == 0
    payload = _payload(path)
    payload[key] = value
    path.write_text(make_document("crossview.solution", payload))
    rc = main(["coverage", "--lidar", str(workspace / "lidar.vismatrix"),
               "--radar", str(workspace / "radar.vismatrix"), "--solution", str(path),
               "--out", str(tmp_path / "plan.coverage")])
    err = capsys.readouterr().err
    assert rc == 3, err
    assert err.startswith("error: ") and f"plan.solution.{key}" in err, err


V1_SCENE = ('crossview.scene 1\n{\n  "content_hash": "' + "0" * 64 + '",\n'
            '  "payload": {}\n}\n')


@pytest.mark.parametrize("text, found", [
    (V1_SCENE, "'1'"),
    ("crossview.scene 2\n{}\n", "'2'"),
], ids=["version-1", "no-digest"])
def test_old_or_undigested_header_exits_3(tmp_path, capsys, text, found):
    path = tmp_path / "old.scene"
    path.write_text(text)
    rc = main(["visibility", "--scene", str(path), "--out-lidar", str(tmp_path / "l.vismatrix"),
               "--out-radar", str(tmp_path / "r.vismatrix")])
    err = capsys.readouterr().err
    assert rc == 3, err
    assert f"unsupported crossview.scene version {found}" in err, err


BAD_CONFIG_VALUES = [
    ({"scenario": {"class_mix": 5}}, "class_mix"),
    ({"scenario": {"speed_ranges": {"car": 3}}}, "speed_ranges.car"),
    ({"scenario": {"lidar_noise": {"position_sigma": "x"}}}, "lidar_noise.position_sigma"),
    ({"evaluation": {"thresholds": 5}}, "thresholds"),
    ({"evaluation": {"classes": 5}}, "classes"),
    ({"configs": [{"name": "dense", "budget": 4, "scenario": {"class_mix": {"car": [1]}}}]},
     "class_mix.car"),
]


# Scalar settings: each goes through one number reader, so a list, a
# string, a boolean or a fraction where an integer belongs exits 4 naming
# the key instead of ending in a TypeError traceback (exit 1).
BAD_CONFIG_VALUES += [
    ({"workers": "2"}, "workers"),
    ({"visibility": {"samples_per_cell": 4.5}}, "samples_per_cell"),
    ({"visibility": {"object_height_m": True}}, "object_height_m"),
    ({"visibility": {"sample_height_m": [0.8]}}, "sample_height_m"),
    ({"visibility": {"epsilon": "tiny"}}, "epsilon"),
    ({"scenario": {"seed": [1]}}, "seed"),
    ({"scenario": {"duration_frames": 2.5}}, "duration_frames"),
    ({"scenario": {"frame_dt_s": "0.1"}}, "frame_dt_s"),
    ({"configs": [{"name": "dense", "budget": [2]}]}, "budget"),
    ({"configs": [{"name": "dense", "budget": 4, "seen_threshold": None}]}, "seen_threshold"),
    ({"configs": [{"name": "dense", "budget": 4, "theta": "x"}]}, "theta"),
    ({"fusion": {"iou_threshold": [0.3]}}, "iou_threshold"),
]


# Choices and class names: each used to pass the checks and fail only after
# stages had written files, or (a threshold for a misspelled class) never.
BAD_CONFIG_VALUES += [
    ({"configs": [{"name": "dense", "budget": 4, "budget_mode": "cot"}]}, "budget_mode"),
    ({"evaluation": {"classes": ["cars"]}}, "classes[0]"),
    ({"evaluation": {"thresholds": {"pedestrain": 0.9}}}, "thresholds key"),
]


# Ranges that a library function enforces: the CLI reads each value through
# that same check, so it fails before the ray cast rather than inside its
# stage.  Each key reaches into the message, so that no test id repeats.
BAD_CONFIG_VALUES += [
    ({"configs": [{"name": "dense", "budget": -1}]}, "budget must be finite and nonnegative"),
    ({"configs": [{"name": "dense", "budget": 4, "seen_threshold": -1}]},
     "seen_threshold must be finite and positive"),
    ({"configs": [{"name": "dense", "budget": 4, "theta": -1}]}, "theta must be nonnegative"),
    ({"evaluation": {"thresholds": {"car": -1}}}, "thresholds.car must be positive, got -1.0"),
    ({"evaluation": {"thresholds": {"car": 0}}}, "thresholds.car must be positive, got 0.0"),
    ({"visibility": {"epsilon": 1e-10}}, "epsilon must lie in [5e-10, 1)"),
]


# Config values are read by the file reader's checks, so they follow its
# rules: an integer is a JSON integer, and a list entry is named by index.
BAD_CONFIG_VALUES += [
    ({"scenario": {"duration_frames": 2.0}}, "duration_frames: expected an integer, got 2.0"),
    ({"scenario": {"speed_ranges": {"car": [5, "x"]}}}, "speed_ranges.car[1]"),
]


# Counts that size an array or a loop stop at a maximum, as a scene's grid
# sides do: past it, samples_per_cell ran out of memory inside the ray cast
# (exit 1) and duration_frames ran the simulation without end.
BAD_CONFIG_VALUES += [
    ({"visibility": {"samples_per_cell": 10 ** 12}},
     "samples_per_cell: expected an integer of at most 10000"),
    ({"scenario": {"duration_frames": 10 ** 12}},
     "duration_frames: expected an integer of at most 1000000"),
]


@pytest.mark.parametrize("change, key", BAD_CONFIG_VALUES, ids=[
    key for _, key in BAD_CONFIG_VALUES])
def test_pipeline_checks_config_values_before_ray_casting(tmp_path, capsys, change, key):
    save_scene(tmp_path / "scene.scene", square_scene())
    cfg = {"scene": "scene.scene", "configs": [{"name": "dense", "budget": 4}], **change}
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["pipeline", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 4, err
    assert err.startswith(f"error: {key}") and "Traceback" not in err, err
    assert not list(tmp_path.glob("out/*.vismatrix"))


def _frames_file(path) -> dict:
    """A small valid lidar frames file; returns its payload for editing."""
    rng = np.random.default_rng(6)
    save_frames(path, {"000000": [random_box(rng, source="lidar") for _ in range(2)],
                       "000001": []})
    return _payload(path)


BAD_FRAMES_FIELDS = [
    (("frames", 0), "000000"),
    (("frames", 0, "frame_id"), 0),
    (("frames", 0, "boxes"), {"0": []}),
    (("frames", 0, "boxes", 1), 7),
    (("frames", 0, "boxes", 0, "yaw"), [1]),
    (("frames", 0, "boxes", 0, "yaw"), True),
    (("frames", 0, "boxes", 0, "score"), "0.5"),
    (("frames", 0, "boxes", 1, "center", 2), False),
    (("frames", 0, "boxes", 0, "size"), [1.0, 2.0]),
    (("frames", 0, "boxes", 0, "velocity"), "fast"),
    (("frames", 0, "boxes", 0, "class_label"), ["car"]),
    (("frames", 0, "boxes", 0, "score"), 2),
]


@pytest.mark.parametrize("where, value", BAD_FRAMES_FIELDS, ids=[
    ".".join(map(str, where)) + f"={value!r}" for where, value in BAD_FRAMES_FIELDS])
def test_malformed_frames_payload_exits_3(tmp_path, capsys, where, value):
    """A hashed but malformed frames file is a ParseError naming the spot."""
    path = tmp_path / "lidar.frames"
    payload = _frames_file(path)
    save_frames(tmp_path / "radar.frames", {})
    parent = payload
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    path.write_text(make_document("crossview.frames", payload))
    rc = main(["fuse", "--lidar", str(path), "--radar", str(tmp_path / "radar.frames"),
               "--out", str(tmp_path / "fused.frames")])
    err = capsys.readouterr().err
    assert rc == 3, err
    assert err.startswith("error: ") and "Traceback" not in err
    location = "".join(f"[{w}]" if isinstance(w, int) else f".{w}" for w in where[:4])
    assert f"lidar.frames{location}" in err, err
    assert len(where) < 5 or where[4] in err, err


@pytest.mark.parametrize("manifest", [5, {"a": [1]}], ids=["number", "object"])
def test_frames_manifest_must_be_a_string(tmp_path, capsys, manifest):
    """A frames file's manifest is read as a report's or a solution's is."""
    path = tmp_path / "lidar.frames"
    payload = _frames_file(path)
    save_frames(tmp_path / "radar.frames", {})
    path.write_text(make_document("crossview.frames", {**payload, "manifest": manifest}))
    rc = main(["fuse", "--lidar", str(path), "--radar", str(tmp_path / "radar.frames"),
               "--out", str(tmp_path / "fused.frames")])
    err = capsys.readouterr().err
    assert (rc, err) == (3, f"error: {path}.manifest: expected a string, got {manifest!r}\n")
    assert not (tmp_path / "fused.frames").exists()


# Faults that the loader's column checks must hand to the record loop, which
# names them; with the cases above, each exits 3 with the record loop's text,
# from the frames file read by fuse (--lidar) and by evaluate (--truth).
COLUMN_FAULTS = BAD_FRAMES_FIELDS + [
    (("frames", 0, "boxes", 0, "center", 1), 10 ** 400),
    (("frames", 0, "boxes", 0, "size", 2), 10 ** 400),
    (("frames", 0, "boxes", 1, "score"), True),
    (("frames", 0, "boxes", 1, "size", 0), False),
    (("frames", 0, "boxes", 0, "velocity"), []),
    (("frames", 0, "boxes", 0, "velocity"), [1.0, True]),
    (("frames", 0, "boxes", 0, "center"), 5),
    (("frames", 0, "boxes", 1, "center"), {"x": 1}),
    (("frames", 0, "boxes", 0, "size", 1), 0),
    (("frames", 0, "boxes", 1, "size", 2), -0.0),
    (("frames", 0, "boxes", 0, "score"), -1e-300),
    (("frames", 0, "boxes", 1, "source"), "radar "),
]


@pytest.mark.parametrize("where, value", COLUMN_FAULTS, ids=[
    ".".join(map(str, where)) + f"={str(value)[:12]!r}" for where, value in COLUMN_FAULTS])
def test_malformed_frames_exit_3_with_the_record_loops_text(tmp_path, capsys, where, value):
    path = tmp_path / "lidar.frames"
    payload = _frames_file(path)
    save_frames(tmp_path / "radar.frames", {})
    parent = payload
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    path.write_text(make_document("crossview.frames", payload))
    with pytest.raises(ParseError) as refused:
        load_frames_reference(path)
    for argv in (["fuse", "--lidar", str(path), "--radar", str(tmp_path / "radar.frames"),
                  "--out", str(tmp_path / "fused.frames")],
                 ["evaluate", "--truth", str(path), "--predictions",
                  str(tmp_path / "radar.frames")]):
        rc = main(argv)
        assert (rc, capsys.readouterr().err) == (3, f"error: {refused.value}\n"), argv


# JSON number literals past the float range, spliced into a hashed file as
# text: ``1e400`` loads as inf, a long integer overflows float().  Integers
# that size arrays (grid sides, lidar beams) stop at a documented maximum.
OUT_OF_RANGE_NUMBERS = [
    ("scene", ("grid", "cell_size"), "1" + "0" * 400, "site.scene.grid.cell_size"),
    ("scene", ("lidar_candidates", 0, "position", 2), "1e400",
     "site.scene.lidar_candidates[0].position"),
    ("scene", ("grid", "cell_size"), "-1e400", "site.scene.grid.cell_size"),
    ("scene", ("grid", "nx"), "1" * 5000, "site.scene"),
    ("frames", ("frames", 0, "boxes", 0, "center", 0), "1" + "0" * 400,
     "lidar.frames.frames[0].boxes[0]"),
    ("scene", ("grid", "nx"), "4" + "0" * 400, "site.scene.grid.nx"),
    ("scene", ("grid", "ny"), str(MAX_GRID_SIDE + 1), "site.scene.grid.ny"),
    ("scene", ("lidar_candidates", 0, "spec", "beams"), "4" + "0" * 400,
     "site.scene.lidar_candidates[0].spec.beams"),
    ("scene", ("lidar_candidates", 1, "spec", "beams"), str(MAX_BEAMS + 1),
     "site.scene.lidar_candidates[1].spec.beams"),
]


@pytest.mark.parametrize("kind, where, literal, field", OUT_OF_RANGE_NUMBERS, ids=[
    f"{kind}-{where[-1]}={literal[:6]}" for kind, where, literal, _ in OUT_OF_RANGE_NUMBERS])
def test_out_of_range_number_exits_3(tmp_path, capsys, kind, where, literal, field):
    """A number no float holds is a ParseError naming the field, never a traceback."""
    if kind == "scene":
        path = tmp_path / "site.scene"
        save_scene(path, square_scene())
        payload = _payload(path)
        argv = ["visibility", "--scene", str(path), "--out-lidar", str(tmp_path / "l.vismatrix"),
                "--out-radar", str(tmp_path / "r.vismatrix")]
    else:
        path = tmp_path / "lidar.frames"
        payload = _frames_file(path)
        save_frames(tmp_path / "radar.frames", {})
        argv = ["fuse", "--lidar", str(path), "--radar", str(tmp_path / "radar.frames"),
                "--out", str(tmp_path / "fused.frames")]
    parent = payload
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = "@number@"
    text = make_document(f"crossview.{path.suffix[1:]}", payload)
    path.write_text(rehash(text.replace('"@number@"', literal)))
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 3, err
    assert err.startswith("error: ") and field in err and "Traceback" not in err, err
    assert not list(tmp_path.glob("*.vismatrix")) and not (tmp_path / "fused.frames").exists()


def test_pipeline_loads_the_matrix_pair_once(tmp_path, capsys, monkeypatch):
    """Three configs[] entries share one load of each matrix file."""
    save_scene(tmp_path / "scene.scene", square_scene())
    (tmp_path / "pipeline.json").write_text(json.dumps({
        "scene": "scene.scene", "visibility": {"samples_per_cell": 1},
        "configs": [{"name": "a", "budget": 1}, {"name": "b", "budget": 2},
                    {"name": "c", "budget": 3}],
        "scenario": {"duration_frames": 2}}))
    loaded = []

    def counted(path):
        loaded.append(Path(path).name)
        return load_matrix(path)

    monkeypatch.setattr(cli, "load_matrix", counted)
    assert main(["pipeline", "--config", str(tmp_path / "pipeline.json"),
                 "--out-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert loaded == ["lidar.vismatrix", "radar.vismatrix"]


def test_pipeline_matches_subcommand_chain(tmp_path, capsys):
    """pipeline and the subcommands fed its config sections write the same data."""
    save_scene(tmp_path / "scene.scene", square_scene())
    # Nine samples make entries k/9, which a matrix file prints to 9 digits, so
    # only stages that read the written files agree with the chain.
    cfg = {
        "scene": "scene.scene",
        "visibility": {"samples_per_cell": 9, "object_height_m": 1.2, "sample_height_m": 0.5},
        "configs": [
            {"name": "lean", "budget": 150, "budget_mode": "cost", "solver": "greedy",
             "theta": 0.05},
            {"name": "dense", "budget": 3, "seen_threshold": 0.8},
        ],
        "scenario": {"seed": 4, "duration_frames": 10,
                     "lidar_noise": {"position_sigma": 0.4}},
        "fusion": {"iou_threshold": 0.2},
        "evaluation": {"matching_mode": "center_distance", "thresholds": {"car": 1.5}},
    }
    for section in ("visibility", "scenario", "fusion", "evaluation"):
        (tmp_path / f"{section}.json").write_text(json.dumps(cfg[section]))
    (tmp_path / "pipeline.json").write_text(json.dumps(cfg))
    pipe, chain = tmp_path / "pipe", tmp_path / "chain"
    assert main(["pipeline", "--config", str(tmp_path / "pipeline.json"),
                 "--out-dir", str(pipe)]) == 0

    chain.mkdir()
    lidar, radar = str(chain / "lidar.vismatrix"), str(chain / "radar.vismatrix")
    assert main(["visibility", "--scene", str(tmp_path / "scene.scene"),
                 "--out-lidar", lidar, "--out-radar", radar,
                 "--config", str(tmp_path / "visibility.json")]) == 0
    for entry in cfg["configs"]:
        name = entry["name"]
        # A configs[] entry holds optimize's keys plus coverage's name and theta.
        coverage_keys = ("name", "theta")
        optimize_path, coverage_path = tmp_path / f"{name}.json", tmp_path / f"{name}.cov.json"
        optimize_path.write_text(json.dumps(
            {k: v for k, v in entry.items() if k not in coverage_keys}))
        coverage_path.write_text(json.dumps(
            {k: v for k, v in entry.items() if k in coverage_keys}))
        out = {s: str(chain / f"{name}.{s}") for s in (
            "solution", "coverage", "truth.frames", "lidar.frames", "radar.frames",
            "fused.frames", "evaluation")}
        commands = [
            ["optimize", "--lidar", lidar, "--radar", radar, "--config", str(optimize_path),
             "--out", out["solution"]],
            ["coverage", "--lidar", lidar, "--radar", radar, "--solution", out["solution"],
             "--config", str(coverage_path), "--out", out["coverage"]],
            ["simulate", "--scene", str(tmp_path / "scene.scene"), "--lidar", lidar,
             "--radar", radar, "--solution", out["solution"],
             "--config", str(tmp_path / "scenario.json"), "--out-truth", out["truth.frames"],
             "--out-lidar", out["lidar.frames"], "--out-radar", out["radar.frames"]],
            ["fuse", "--lidar", out["lidar.frames"], "--radar", out["radar.frames"],
             "--config", str(tmp_path / "fusion.json"), "--out", out["fused.frames"]],
            ["evaluate", "--truth", out["truth.frames"], "--predictions", out["fused.frames"],
             "--config", str(tmp_path / "evaluation.json"), "--out", out["evaluation"]],
        ]
        for argv in commands:
            assert main(argv) == 0, argv
    capsys.readouterr()

    compared = 0
    for path in sorted(chain.iterdir()):
        if path.suffix == ".manifest":
            continue
        ours = pipe / path.name
        if path.suffix == ".vismatrix":
            # Line 1 holds the digest, which covers the manifest line too.
            strip = [ln for ln in path.read_text().splitlines()[1:]
                     if not ln.startswith("manifest ")]
            theirs = [ln for ln in ours.read_text().splitlines()[1:]
                      if not ln.startswith("manifest ")]
            assert strip == theirs, path.name
        else:
            a, b = _payload(path), _payload(ours)
            del a["manifest"], b["manifest"]
            assert a == b, path.name
        compared += 1
    assert compared == 2 + 7 * len(cfg["configs"])


def test_pipeline_scene_must_be_a_path(tmp_path, capsys):
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps({"scene": 5, "configs": [{"name": "a", "budget": 1}]}))
    rc = main(["pipeline", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 4, err
    assert err.startswith("error: scene: expected a string, got 5"), err


@pytest.mark.parametrize("command, config, key", [
    ("visibility", {"samples_per_cell": "9"}, "samples_per_cell"),
    ("visibility", {"workers": 1.5}, "workers"),
    ("optimize", {"budget": [2]}, "budget"),
    ("coverage", {"theta": "x"}, "theta"),
    ("simulate", {"seed": 1.5}, "seed"),
    ("optimize", {"budget": float("nan")}, "budget"),
    ("simulate", {"frame_dt_s": float("inf")}, "frame_dt_s"),
    ("coverage", {"name": 5}, "name"),
    ("coverage", {"name": ""}, "name"),
    ("simulate", {"seed": 3.0}, "seed"),
    ("visibility", {"workers": 2.0}, "workers"),
])
def test_subcommand_config_checks_scalar_values(workspace, tmp_path, capsys, command, config,
                                                key):
    lidar, radar = str(workspace / "lidar.vismatrix"), str(workspace / "radar.vismatrix")
    solution = str(tmp_path / "x.solution")
    assert main(["optimize", "--lidar", lidar, "--radar", radar, "--budget", "2",
                 "--out", solution]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = {
        "visibility": ["--scene", str(workspace / "scene.scene"),
                       "--out-lidar", str(tmp_path / "l.vismatrix"),
                       "--out-radar", str(tmp_path / "r.vismatrix")],
        "optimize": ["--lidar", lidar, "--radar", radar, "--out", str(tmp_path / "y.solution")],
        "coverage": ["--lidar", lidar, "--radar", radar, "--solution", solution,
                     "--out", str(tmp_path / "x.coverage")],
        "simulate": ["--scene", str(workspace / "scene.scene"), "--lidar", lidar,
                     "--radar", radar, "--solution", solution,
                     "--out-truth", str(tmp_path / "t.frames"),
                     "--out-lidar", str(tmp_path / "l.frames"),
                     "--out-radar", str(tmp_path / "r.frames")],
    }[command]
    capsys.readouterr()
    rc = main([command, *argv, "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 4, err
    assert err.startswith(f"error: {key}: expected ") and "Traceback" not in err, err


def test_infinite_budget_flag_exits_4(workspace, tmp_path, capsys):
    # It used to reach int(inf) in the exhaustive solver: a traceback, exit 1.
    rc = main(["optimize", "--lidar", str(workspace / "lidar.vismatrix"),
               "--radar", str(workspace / "radar.vismatrix"), "--budget", "inf",
               "--out", str(tmp_path / "x.solution")])
    err = capsys.readouterr().err
    assert rc == 4, err
    assert err.startswith("error: budget: expected a finite number, got inf"), err


@pytest.mark.parametrize("value", ["inf", "1e309", "-inf", "nan"])
def test_non_finite_evaluate_threshold_flag_exits_4_before_any_read(tmp_path, capsys, value):
    # --threshold inf used to run the whole evaluation and then fail writing
    # the report, naming no setting; without --out it exited 0.
    missing = str(tmp_path / "missing.frames")
    rc = main(["evaluate", "--truth", missing, "--predictions", missing,
               f"--threshold={value}", "--out", str(tmp_path / "e.report")])
    err = capsys.readouterr().err
    assert rc == 4, err
    assert err == f"error: threshold: expected a finite number, got {float(value)!r}\n", err
    assert not list(tmp_path.iterdir())


def test_simulate_refuses_a_spawn_rate_past_its_maximum(workspace, tmp_path, capsys):
    """A rate just above ``MAX_SPAWN_RATE`` is refused before the scene is read;
    a rate of 1e9 once ran for more than ten minutes."""
    cfg = tmp_path / "busy.json"
    cfg.write_text(json.dumps({"class_mix": {"car": math.nextafter(MAX_SPAWN_RATE, math.inf)}}))
    rc = main(["simulate", "--lidar", str(workspace / "lidar.vismatrix"),
               "--radar", str(workspace / "radar.vismatrix"), "--config", str(cfg),
               *_simulate_args(workspace, tmp_path / "missing.solution", tmp_path)])
    err = capsys.readouterr().err
    assert rc == 4, err
    assert err.startswith("error: class_mix rate for 'car' must be at most 1000, got "), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["busy.json"]


# The line that starts each field's numbers in a matrix file (data rows
# start with a digit), and how the error names the field.
MATRIX_NUMBERS = {
    "values": (None, "matrix row 0"),
    "weights": ("weights ", "weights"),
    "costs": ("costs ", "costs"),
    "epsilon": ("epsilon ", "epsilon"),
}


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", MATRIX_NUMBERS)
def test_non_finite_matrix_number_exits_3(workspace, tmp_path, capsys, field, token):
    """A re-hashed matrix file with a NaN or infinity in any number field."""
    lines = (workspace / "lidar.vismatrix").read_text().split("\n")
    prefix, where = MATRIX_NUMBERS[field]
    pos = next(i for i, ln in enumerate(lines)
               if (ln[:1].isdigit() if prefix is None else ln.startswith(prefix)))
    parts = lines[pos].split(" ")
    first = 0 if prefix is None else 1
    parts[first] = token
    lines[pos] = " ".join(parts)
    edited = tmp_path / "lidar.vismatrix"
    edited.write_text(rehash("\n".join(lines)))
    rc = main(["optimize", "--lidar", str(edited), "--radar", str(workspace / "radar.vismatrix"),
               "--budget", "2", "--out", str(tmp_path / "x.solution")])
    err = capsys.readouterr().err
    assert rc == 3, err
    assert f"lidar.vismatrix: {where}: non-finite number {token!r}" in err, err
    assert not (tmp_path / "x.solution").exists()


@pytest.mark.parametrize("flag, value, key", [
    ("--epsilon", "2", "epsilon"),
    ("--epsilon", "-1", "epsilon"),
    ("--epsilon", "0", "epsilon"),
    ("--epsilon", "1e-20", "epsilon"),
    ("--epsilon", "1e-10", "epsilon"),
    ("--object-height", "-1", "object_height_m"),
    ("--object-height", "0", "object_height_m"),
    ("--sample-height", "-5", "sample_height_m"),
    ("--samples-per-cell", "0", "samples_per_cell"),
])
def test_visibility_ranges_exit_4_before_ray_casting(workspace, tmp_path, capsys, flag, value,
                                                      key):
    # All but samples_per_cell used to exit 0 and write matrices; an epsilon
    # out of range wrote ones that optimize then refuses.
    rc = main(["visibility", "--scene", str(workspace / "scene.scene"),
               "--out-lidar", str(tmp_path / "l.vismatrix"),
               "--out-radar", str(tmp_path / "r.vismatrix"), flag, value])
    err = capsys.readouterr().err
    assert rc == 4, err
    assert err.startswith(f"error: {key} must") and "Traceback" not in err, err
    assert not list(tmp_path.glob("*.vismatrix"))


def test_scene_identity_is_its_file_header_digest(tmp_path, capsys):
    """A scene file in another valid layout keeps its own digest through the chain."""
    path = tmp_path / "site.scene"
    save_scene(path, square_scene())
    text = make_document("crossview.scene", _payload(path), indent=3)
    path.write_text(text)
    digest = text.split("\n", 1)[0].split()[2]
    d = str(tmp_path) + "/"
    assert main(["visibility", "--scene", d + "site.scene", "--samples-per-cell", "1",
                 "--out-lidar", d + "l.vismatrix", "--out-radar", d + "r.vismatrix"]) == 0
    assert load_matrix(tmp_path / "l.vismatrix").scene_hash == digest
    assert main(["optimize", "--lidar", d + "l.vismatrix", "--radar", d + "r.vismatrix",
                 "--budget", "2", "--out", d + "x.solution"]) == 0
    capsys.readouterr()
    assert main(["simulate", "--scene", d + "site.scene", "--lidar", d + "l.vismatrix",
                 "--radar", d + "r.vismatrix", "--solution", d + "x.solution",
                 "--frames", "2", "--out-truth", d + "t.frames",
                 "--out-lidar", d + "dl.frames", "--out-radar", d + "dr.frames"]) == 0
    assert "warning" not in capsys.readouterr().err


@pytest.fixture(scope="module")
def twin_scenes(tmp_path_factory):
    """One scene saved in two layouts, a.scene and b.scene, so under two header
    digests, with matrices and a count-2 solution built from each."""
    root = tmp_path_factory.mktemp("twins")
    save_scene(root / "a.scene", square_scene())
    (root / "b.scene").write_text(
        make_document("crossview.scene", _payload(root / "a.scene"), indent=3))
    d = str(root) + "/"
    for name in "ab":
        assert main(["visibility", "--scene", f"{d}{name}.scene", "--samples-per-cell", "1",
                     "--out-lidar", f"{d}{name}l.vismatrix",
                     "--out-radar", f"{d}{name}r.vismatrix"]) == 0
        assert main(["optimize", "--lidar", f"{d}{name}l.vismatrix",
                     "--radar", f"{d}{name}r.vismatrix", "--budget", "2",
                     "--out", f"{d}{name}.solution"]) == 0
    return d


@pytest.mark.parametrize("warning, argv", [
    ("matrix scene hashes differ",
     ["optimize", "--lidar", "{in}al.vismatrix", "--radar", "{in}br.vismatrix",
      "--budget", "2", "--out", "{out}x.solution"]),
    ("solution scene hash differs from the matrices",
     ["coverage", "--lidar", "{in}bl.vismatrix", "--radar", "{in}br.vismatrix",
      "--solution", "{in}a.solution", "--out", "{out}x.report"]),
    ("matrices were not built from this scene file",
     ["simulate", "--scene", "{in}b.scene", "--lidar", "{in}al.vismatrix",
      "--radar", "{in}ar.vismatrix", "--solution", "{in}a.solution", "--frames", "2",
      "--out-truth", "{out}t.frames", "--out-lidar", "{out}dl.frames",
      "--out-radar", "{out}dr.frames"]),
])
def test_inputs_from_another_scene_file_warn(twin_scenes, tmp_path, capsys, warning, argv):
    """Inputs whose scene digests disagree still run, and say so on stderr."""
    capsys.readouterr()
    out = str(tmp_path) + "/"
    assert main([a.replace("{in}", twin_scenes).replace("{out}", out) for a in argv]) == 0
    err = capsys.readouterr().err
    assert f"warning: {warning}" in err
    assert err.count("warning") == 1


def test_module_runs_main():
    env = {**os.environ, "PYTHONPATH": str(Path(crossview.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "crossview.cli", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: crossview")
