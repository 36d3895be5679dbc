"""Command line behavior: exit codes, full tool chain, manifests."""

from __future__ import annotations

import json

import numpy as np
import pytest

from crossview import (
    MatrixFile,
    Scene,
    VisibilityMatrix,
    file_sha256,
    load_manifest,
    load_matrix,
    load_report,
    load_scene,
    load_solution,
    save_matrix,
    save_frames,
    save_report,
    save_scene,
)
from crossview.cli import main

from conftest import make_document, random_box, rehash, square_scene


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


def test_missing_budget_exits_4(workspace, tmp_path, capsys):
    rc = main([
        "optimize",
        "--lidar", str(workspace / "lidar.vismatrix"),
        "--radar", str(workspace / "radar.vismatrix"),
        "--out", str(tmp_path / "x.solution"),
    ])
    assert rc == 4
    assert "budget is required" in capsys.readouterr().err


def test_oversized_exhaustive_exits_5(tmp_path, capsys):
    rng = np.random.default_rng(0)

    def write(modality, rows, path):
        mf = MatrixFile(
            matrix=VisibilityMatrix(modality, rng.uniform(0.0, 0.9, (rows, 5))),
            scene_hash="0" * 64,
            cells=tuple(range(5)),
            weights=np.ones(5),
            costs=np.ones(rows),
            ids=tuple(f"{modality[0].upper()}{i}" for i in range(rows)),
        )
        save_matrix(path, mf)

    write("lidar", 12, tmp_path / "l.vismatrix")
    write("radar", 12, tmp_path / "r.vismatrix")
    rc = main([
        "optimize",
        "--lidar", str(tmp_path / "l.vismatrix"),
        "--radar", str(tmp_path / "r.vismatrix"),
        "--budget", "3",
        "--solver", "exhaustive",
        "--out", str(tmp_path / "x.solution"),
    ])
    assert rc == 5
    assert "error:" in capsys.readouterr().err


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
    assert "coverage 100.0%" in capsys.readouterr().out
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
    assert "simulated 20 frames" in capsys.readouterr().out

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


def test_manifest_sidecars(workspace):
    manifest = load_manifest(workspace / "lidar.vismatrix.manifest")
    assert manifest["command"] == "visibility"
    assert manifest["outputs"] == ["lidar.vismatrix", "radar.vismatrix"]
    scene_key = str(workspace / "scene.scene")
    assert manifest["inputs"][scene_key] == file_sha256(workspace / "scene.scene")
    assert manifest["config"]["samples_per_cell"] == 9
    assert manifest["wall_time_s"] > 0
    # The data file points back at its manifest.
    assert load_matrix(workspace / "lidar.vismatrix").manifest == "lidar.vismatrix.manifest"


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


def _payload(path) -> dict:
    return json.loads(path.read_text().split("\n", 1)[1])["payload"]


BAD_SCENE_FIELDS = [
    (("grid",), None),
    (("roi",), [1, 2]),
    (("roi", "weights"), [1.0]),
    (("roi", "weights", "3"), "heavy"),
    (("occluders",), {}),
    (("occluders", 0), "wall"),
    (("lidar_candidates",), "L0"),
    (("radar_candidates", 1), 7),
    (("lidar_candidates", 0, "spec"), None),
    (("lidar_candidates", 0, "spec", "hfov_deg"), "wide"),
    (("radar_candidates", 0, "spec", "unit_cost"), "cheap"),
    (("radar_candidates", 0, "yaw_deg"), "north"),
    (("grid", "cell_size"), "2"),
    (("grid", "nx"), True),
    (("grid", "ny"), 10.0),
]


@pytest.mark.parametrize("where, value", BAD_SCENE_FIELDS, ids=[
    ".".join(map(str, where)) + f"={value!r}" for where, value in BAD_SCENE_FIELDS])
def test_malformed_scene_payload_exits_3(tmp_path, capsys, where, value):
    """A hashed but malformed scene is a ParseError, never a traceback."""
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
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("change, message", [
    ({"samples_per_cell": 1}, "unknown key 'samples_per_cell'"),
    ({"configs": [{"name": "lean", "budget": 150, "budget_mod": "cost"}]},
     "unknown key 'budget_mod'"),
    ({"fusion": 0.3}, "'fusion' must be an object"),
    ({"configs": [{"name": "lean", "budget": 2, "scenario": 5}]},
     "configs[0] 'scenario' must be an object"),
    ({"visibility": {"workers": 2}}, "unknown key 'workers'"),
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
], ids=["optimize-typo", "visibility-nested", "fuse-extra"])
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
    }[command]
    rc = main([command, *argv, "--config", str(cfg)])
    assert rc == 4
    assert f"unknown key {key!r}" in capsys.readouterr().err
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


BAD_SOLUTION_FIELDS = [
    ("lidar_ids", 5),
    ("radar_ids", [0.5]),
    ("lidar_candidate_ids", [1]),
    ("radar_candidate_ids", "R0"),
    ("objective", "high"),
    ("optimal", 1),
    ("budget", None),
    ("budget_mode", 3),
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


def test_pipeline_matches_subcommand_chain(tmp_path, capsys):
    """pipeline and the subcommands fed its config sections write the same data."""
    save_scene(tmp_path / "scene.scene", square_scene())
    cfg = {
        "scene": "scene.scene",
        "visibility": {"samples_per_cell": 4, "object_height_m": 1.2, "sample_height_m": 0.5},
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
    assert "requires a 'scene' path" in err


@pytest.mark.parametrize("command, config, key", [
    ("visibility", {"samples_per_cell": "9"}, "samples_per_cell"),
    ("visibility", {"workers": 1.5}, "workers"),
    ("optimize", {"budget": [2]}, "budget"),
    ("coverage", {"theta": "x"}, "theta"),
    ("simulate", {"seed": 1.5}, "seed"),
    ("optimize", {"budget": float("nan")}, "budget"),
    ("simulate", {"frame_dt_s": float("inf")}, "frame_dt_s"),
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
    assert err.startswith(f"error: {key} must be") and "Traceback" not in err, err


def test_infinite_budget_flag_exits_4(workspace, tmp_path, capsys):
    # It used to reach int(inf) in the exhaustive solver: a traceback, exit 1.
    rc = main(["optimize", "--lidar", str(workspace / "lidar.vismatrix"),
               "--radar", str(workspace / "radar.vismatrix"), "--budget", "inf",
               "--solver", "exhaustive", "--out", str(tmp_path / "x.solution")])
    err = capsys.readouterr().err
    assert rc == 4, err
    assert err.startswith("error: budget must be a finite number"), err


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
