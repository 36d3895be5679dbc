"""Property tests: config readers and file loaders are total.

Every stage's config reader, fed arbitrary JSON values for its keys, returns
settings or raises ValueError (exit 4 in the CLI), and every loader, fed a
valid file with one node of its payload replaced and the header digest
recomputed, returns or raises ParseError (exit 3).  Neither ever ends in a
TypeError, AttributeError or OverflowError traceback.  The profile in
``conftest.py`` derandomizes Hypothesis, so every run tries the same inputs.
"""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crossview import (
    CLASSES,
    FusionConfig,
    ScenarioConfig,
    SolutionFile,
    VisibilityConfig,
    load_frames,
    load_manifest,
    load_report,
    load_scene,
    load_solution,
    save_frames,
    save_manifest,
    save_report,
    save_scene,
    save_solution,
)
from crossview import cli
from crossview.formats import ParseError, baseline_from_record, coverage_from_record

from conftest import make_document, random_box, rehash, square_scene

# Keys and words the readers look for, so generated objects reach past the
# first type check.
WORDS = (*CLASSES, "count", "cost", "greedy", "iou", "none", "visibility", "position_sigma",
         "yaw_sigma", "car,bus", "")
# JSON number literals a float cannot hold: ``json.loads`` reads the first
# two as infinities and the last two as integers that overflow ``float()``.
RAW_NUMBERS = ("1e400", "-1e400", "1" + "0" * 400, "-1" + "0" * 400)

scalars = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.integers(min_value=-(10 ** 401), max_value=10 ** 401)
           | st.text(max_size=6) | st.sampled_from(WORDS))
json_values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(WORDS) | st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=8,
)

READERS = {
    "visibility": (cli._VISIBILITY_CHECKS,
                   lambda c: VisibilityConfig(**cli._settings(cli._VISIBILITY_CHECKS, c))),
    "workers": (("workers",), lambda c: cli._workers(c, None)),
    "optimize": (cli._OPTIMIZE_CHECKS, cli._optimize_settings),
    "coverage": (cli._COVERAGE_CHECKS, lambda c: cli._settings(cli._COVERAGE_CHECKS, c)),
    "scenario": (cli._SCENARIO_CHECKS,
                 lambda c: ScenarioConfig(**cli._settings(cli._SCENARIO_CHECKS, c))),
    "fusion": (cli._FUSION_CHECKS, lambda c: FusionConfig(**cli._settings(cli._FUSION_CHECKS, c))),
    "evaluation": (cli._EVALUATION_CHECKS, lambda c: cli._settings(cli._EVALUATION_CHECKS, c)),
}


@pytest.mark.parametrize("stage", READERS)
@given(data=st.data())
def test_config_reader_returns_or_raises_value_error(stage, data):
    keys, read = READERS[stage]
    config = data.draw(st.fixed_dictionaries({}, optional=dict.fromkeys(keys, json_values)))
    try:
        read(config)
    except ValueError:
        pass


@pytest.mark.parametrize("table, config_class", [
    (cli._VISIBILITY_CHECKS, VisibilityConfig),
    (cli._SCENARIO_CHECKS, ScenarioConfig),
    (cli._FUSION_CHECKS, FusionConfig),
], ids=["visibility", "scenario", "fusion"])
def test_table_keys_are_the_config_fields(table, config_class):
    """A new config field cannot be left out of the command line."""
    assert list(table) == [f.name for f in fields(config_class)]


def _nodes(value, path=()):
    """The path to every node below ``value``'s root, containers included."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    return [p for key, child in items for p in [(*path, key), *_nodes(child, (*path, key))]]


def _coverage_report(path):
    _, record = load_report(path)
    return coverage_from_record(record, f"{path} record")


def _evaluation_report(path):
    _, record = load_report(path)
    return baseline_from_record(record, f"{path} record")


def _valid_payloads(root) -> dict:
    """One small valid file of each loaded kind: (magic, payload, loader)."""
    save_scene(root / "a.scene", square_scene(
        nx=3, ny=2, occluders=[((1.0, 1.0, 0.0), (2.0, 2.0, 3.0))], weights={1: 2.0}))
    save_solution(root / "a.solution", SolutionFile(
        lidar_ids=(0,), radar_ids=(1,), lidar_candidate_ids=("L0",), radar_candidate_ids=("R1",),
        objective=1.5, optimal=True, budget=2.0, budget_mode="count", seen_threshold=1.0,
        scene_hash="0" * 64, manifest="a.manifest"))
    save_report(root / "a.report", "coverage", {
        "config_name": "dense", "central_coverage": 0.9, "covered_cells": 9,
        "total_roi_cells": 10, "total_cost": 120.0, "sensor_count": 2,
        "per_modality_cost": {"lidar": 100.0, "radar": 20.0},
        "per_modality_covered": {"lidar": 8, "radar": 5}, "theta": 0.0,
    }, "a.manifest")
    save_report(root / "a.evaluation", "evaluation", {
        "matching_mode": "iou", "mean_ap": 0.5,
        "per_class": {"car": {"ap": 0.5, "threshold": 0.5, "num_gt": 4, "num_predictions": 6},
                      "bus": {"ap": None, "threshold": 0.5, "num_gt": 0, "num_predictions": 1}},
        "baseline": {"report": "b.evaluation", "mean_ap": 0.25, "mean_ap_delta": 0.25,
                     "per_class_delta": {"car": 0.25}},
    }, "a.manifest")
    rng = np.random.default_rng(3)
    save_frames(root / "a.frames", {"000000": [random_box(rng), random_box(rng, source="radar")],
                                    "000001": []}, "a.manifest")
    save_manifest(root / "a.manifest", {
        "command": "pipeline", "tool_version": "0.1.0", "inputs": {"a.scene": "0" * 64},
        "outputs": ["a.solution", "a.report"], "config": {"workers": 1, "fusion": {"iou": 0.3}},
        "wall_time_s": 0.5})
    loaders = {"scene": load_scene, "solution": load_solution, "report": _coverage_report,
               "evaluation": _evaluation_report, "frames": load_frames, "manifest": load_manifest}
    files = {kind: (root / f"a.{kind}").read_text().split("\n", 1) for kind in loaders}
    return {kind: (files[kind][0].split()[0], json.loads(files[kind][1])["payload"], load)
            for kind, load in loaders.items()}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    return root, _valid_payloads(root)


def _set(payload, path, value):
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value


@pytest.mark.parametrize("kind", ["scene", "solution", "report", "evaluation", "frames",
                                  "manifest"])
@given(data=st.data())
def test_loader_returns_or_raises_parse_error(valid_files, kind, data):
    root, payloads = valid_files
    magic, payload, load = payloads[kind]
    payload = json.loads(json.dumps(payload))
    where = data.draw(st.sampled_from(_nodes(payload)))
    raw = data.draw(st.none() | st.sampled_from(RAW_NUMBERS))
    _set(payload, where, "@raw@" if raw else data.draw(json_values))
    # A raw literal is spliced into the text, then the digest is recomputed.
    text = make_document(magic, payload)
    path = root / f"mutated.{kind}"
    path.write_text(rehash(text.replace('"@raw@"', raw)) if raw else text)
    try:
        load(path)
    except ParseError:
        pass
