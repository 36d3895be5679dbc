"""Property tests: config readers, file loaders, ``validate_scene`` and ``main``
are total.

Every stage's config reader, fed arbitrary JSON values for its keys, returns
settings or raises ValueError (exit 4 in the CLI), and every loader, fed a
valid file with one node of its payload (or, for a matrix, one token or line
of its text) replaced and the header digest recomputed, returns or raises
ParseError (exit 3).  Neither ever ends in a TypeError, AttributeError or
OverflowError traceback, and ``main``, run on a mutated valid --config or
matrix file, exits 0, 3 or 4, never 1.  ``load_frames``, which checks box
records in bulk, raises the message or returns the boxes of the record loop
it replaced (``oracles.load_frames_reference``) on frames files with one or
two edits, so that two faults compete to be named first, and a mutated
matrix file that loads also saves.  ``save_matrix``, fed matrix
files that may break any rule of the format, refuses them before writing or
writes a file that loads back as written and saves again to the same bytes.
``validate_scene``, fed a valid scene with one value put in at any key path,
returns a list of messages, and a scene that reads back as itself saves and
loads back equal, with the same report from the range rules alone.  The
profile in ``conftest.py`` derandomizes Hypothesis, so every run tries the
same inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import event, given, reject, settings
from hypothesis import strategies as st

from crossview import (
    CLASSES,
    CandidateMount,
    FusionConfig,
    GridSpec,
    MatrixFile,
    NoiseSpec,
    Occluder,
    RegionOfInterest,
    ScenarioConfig,
    Scene,
    SensorSpec,
    SolutionFile,
    VisibilityConfig,
    VisibilityMatrix,
    load_frames,
    load_manifest,
    load_matrix,
    load_report,
    load_scene,
    load_solution,
    save_frames,
    save_manifest,
    save_matrix,
    save_report,
    save_scene,
    save_solution,
    validate_scene,
)
from crossview import DetectionBox, cli
from crossview.formats import (
    FRAMES_MAGIC,
    ParseError,
    _frames_table,
    baseline_from_record,
    coverage_from_record,
)
from crossview.scene import range_violations

from conftest import make_document, random_box, rehash, rescore_frames, square_scene
from oracles import load_frames_reference
from test_cli import BAD_CONFIG_VALUES
from test_formats import AWKWARD_VALUES
from test_scene import _with
from test_detection_box import generated_init_dict_size

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
    except ValueError as exc:  # a bad setting exits 4; a ParseError would exit 3
        assert not isinstance(exc, ParseError), exc


@pytest.mark.parametrize("table, config_class", [
    (cli._VISIBILITY_CHECKS, VisibilityConfig),
    (cli._SCENARIO_CHECKS, ScenarioConfig),
    (cli._NOISE_CHECKS, NoiseSpec),
    (cli._FUSION_CHECKS, FusionConfig),
], ids=["visibility", "scenario", "noise", "fusion"])
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
    save_matrix(root / "a.vismatrix", MatrixFile(
        matrix=VisibilityMatrix("lidar", np.array([[0.25, 0.0, 0.999999], [1 / 3, 0.5, 0.0]])),
        scene_hash="0" * 64, cells=(0, 2, 5), weights=np.array([1.0, 2.0, 0.5]),
        costs=np.array([100.0, 80.0]), ids=("L0", "L1"), manifest="a.manifest"))
    return root, _valid_payloads(root)


def _set(payload, path, value):
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value


# Tokens a mutated matrix line may take: numbers in and out of [0, 1), cell
# indices, words the header reads, and numbers no float holds.
MATRIX_TOKENS = ("0", "1", "-1", "-5", "2", "0.5", "0.999999999", "1e400", "nan", "inf", "1_0",
                 "lidar", "radar", "L0", "L1", "R0", "rows", "cells", "ids", "manifest", "")


def _mutated_matrix(data, path) -> bytes:
    """The matrix file at ``path`` with one token of one body line replaced,
    dropped or repeated, or one body line dropped or repeated; digest recomputed."""
    head, body = path.read_text().split("\n", 1)
    lines = body.splitlines()
    k = data.draw(st.integers(0, len(lines) - 1))
    action = data.draw(st.sampled_from(["replace", "drop", "repeat", "drop line", "repeat line"]))
    if action == "drop line":
        del lines[k]
    elif action == "repeat line":
        lines.insert(k, lines[k])
    else:
        tokens = lines[k].split(" ")
        i = data.draw(st.integers(0, len(tokens) - 1))
        if action == "replace":
            tokens[i] = data.draw(st.sampled_from(MATRIX_TOKENS) | st.text(max_size=4))
        elif action == "drop":
            del tokens[i]
        else:
            tokens.insert(i, tokens[i])
        lines[k] = " ".join(tokens)
    return rehash(f"{head}\n" + "\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("kind", ["scene", "solution", "report", "evaluation", "frames",
                                  "manifest", "matrix"])
@given(data=st.data())
def test_loader_returns_or_raises_parse_error(valid_files, kind, data):
    root, payloads = valid_files
    path = root / f"mutated.{kind}"
    if kind == "matrix":
        path.write_bytes(_mutated_matrix(data, root / "a.vismatrix"))
        load = load_matrix
    else:
        magic, payload, load = payloads[kind]
        payload = json.loads(json.dumps(payload))
        where = data.draw(st.sampled_from(_nodes(payload)))
        raw = data.draw(st.none() | st.sampled_from(RAW_NUMBERS))
        _set(payload, where, "@raw@" if raw else data.draw(json_values))
        # A raw literal is spliced into the text, then the digest is recomputed.
        text = make_document(magic, payload)
        path.write_text(rehash(text.replace('"@raw@"', raw)) if raw else text)
    try:
        loaded = load(path)
    except ParseError:
        return
    if kind == "matrix":  # a file the reader takes, the writer writes
        save_matrix(root / "resaved.vismatrix", loaded)


# -- matrix files: the writer refuses what the reader would ------------------------

# Each part of a drawn matrix file comes from a pool of values a matrix file
# holds or, for the parts a draw picks as faulty, and for one matrix entry, from
# a pool that adds values it may not hold.  Texts that hold line separators other than a newline are
# fine; a lone "\u00a0" or "\u2028" id is whitespace to ``str.split``.
FINE_ENTRIES = [v for v in AWKWARD_VALUES if 0.0 <= v < 1.0] + [0.25, 0.999999999]
ANY_ENTRIES = [*AWKWARD_VALUES, -0.5, -5e-324, 1.0, 1.0 - 1e-10, 2.0]
FINE_NUMBERS = [1.0, 0.5, 100.0, -2.0, -0.0, 5e-324, 1.0 / 3.0, 1.7976931348623157e308]
ANY_NUMBERS = [*FINE_NUMBERS, np.nan, -np.inf, np.inf]
FINE_TEXTS = ["lidar", "radar", "", " lead", "trail ", "a\u2028b", "x\ry", "\x0c", "0" * 64]
ANY_TEXTS = [*FINE_TEXTS, "a\nb", "\n", "\r\n"]
ANY_IDS = ["L0", "L1", "R0", "L 2", "L\t3", "", "\u00a0", "L\u20284", "\u2028"]
MATRIX_PARTS = ("cells", "ids", "numbers", "texts", "shapes")


@st.composite
def matrix_files(draw):
    """A MatrixFile whose parts named in a drawn set of faults, and one entry,
    may break the format's rules: an entry outside [0, 1) or nan, cells that
    repeat, fall or go negative, ids that repeat or hold whitespace, non-finite
    numbers, texts that hold a newline, or lengths that do not match the matrix."""
    faults = draw(st.sets(st.sampled_from(MATRIX_PARTS), max_size=2))
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 4))

    def pool(part, fine, anything):
        return st.sampled_from(anything if part in faults else fine)

    def length(n):
        return n + (draw(st.sampled_from([-1, 1])) if "shapes" in faults and n else 0)

    def some(strategy, n):
        return draw(st.lists(strategy, min_size=n, max_size=n))

    entries = some(st.sampled_from(FINE_ENTRIES), rows * cols)
    if entries:  # one entry from the pool that adds values no entry may take
        entries[draw(st.integers(0, len(entries) - 1))] = draw(st.sampled_from(ANY_ENTRIES))
    if "cells" in faults:
        cells = some(st.integers(-2, 6), length(cols))
    else:
        cells = sorted(draw(st.sets(st.integers(0, 40), min_size=(n := length(cols)), max_size=n)))
    ids = (some(st.sampled_from(ANY_IDS), length(rows)) if "ids" in faults
           else [f"L{i}" for i in range(length(rows))])
    numbers = pool("numbers", FINE_NUMBERS, ANY_NUMBERS)
    texts = pool("texts", FINE_TEXTS, ANY_TEXTS)
    return MatrixFile(
        matrix=VisibilityMatrix(draw(texts), np.array(entries, dtype=float).reshape(rows, cols),
                                draw(pool("numbers", [1e-6, 0.001], ANY_NUMBERS))),
        scene_hash=draw(texts), cells=tuple(cells),
        weights=np.array(some(numbers, length(cols))), costs=np.array(some(numbers, length(rows))),
        ids=tuple(ids), manifest=draw(st.none() | texts))


def _printed(values) -> np.ndarray:
    """``values`` as a matrix file holds them: 9 significant digits."""
    return np.array([float(format(float(v), ".9g")) for v in np.ravel(values)]).reshape(
        np.shape(values))


@settings(max_examples=400)
@given(mf=matrix_files())
def test_save_matrix_refuses_or_writes_a_file_that_loads_back(tmp_path_factory, mf):
    """``save_matrix`` either refuses a matrix file before writing anything, or
    writes one that ``load_matrix`` reads back as written, to 9 significant
    digits, and that saves again to the same bytes."""
    root = tmp_path_factory.mktemp("matrix")
    try:
        save_matrix(root / "a.vismatrix", mf)
    except ValueError:
        event("refused")
        assert not list(root.iterdir())
        return
    event("written")
    loaded = load_matrix(root / "a.vismatrix")
    assert ((loaded.matrix.modality, loaded.scene_hash, loaded.manifest, loaded.cells, loaded.ids)
            == (mf.matrix.modality, mf.scene_hash, mf.manifest, mf.cells, mf.ids))
    for read, written in [(loaded.matrix.values, mf.matrix.values), (loaded.weights, mf.weights),
                          (loaded.costs, mf.costs), (loaded.matrix.epsilon, mf.matrix.epsilon)]:
        np.testing.assert_array_equal(read, _printed(written))
    save_matrix(root / "b.vismatrix", loaded)
    assert (root / "b.vismatrix").read_bytes() == (root / "a.vismatrix").read_bytes()


# -- validate_scene: the file reader's verdict on a scene built in Python ------

SCENE = square_scene(nx=3, ny=2, occluders=[((1.0, 1.0, 0.0), (2.0, 2.0, 3.0))],
                     weights={1: 2.0})
PART_CLASSES = (Scene, GridSpec, RegionOfInterest, Occluder, SensorSpec, CandidateMount)
# A value put into a scene: JSON data, numpy scalars, tuples and frozensets (the
# containers a scene holds), its own parts and part classes.
scene_values = (
    json_values
    | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64) | st.floats().map(np.float64)
    | st.floats(width=32).map(np.float32)
    | st.lists(st.floats() | st.integers(-1, 8), max_size=4).map(tuple)
    | st.lists(json_values, max_size=2).map(tuple)
    | st.frozensets(st.integers(-1, 8) | st.text(max_size=2) | st.booleans(), max_size=4)
    | st.sampled_from([SCENE.grid, SCENE.roi, *SCENE.occluders, *SCENE.lidar_candidates,
                       SCENE.radar_candidates[0].spec])
    | st.sampled_from(PART_CLASSES)
)


def _scene_paths(value, path=()):
    """The key path of every node below a scene part: fields, tuple entries, dict keys."""
    if isinstance(value, PART_CLASSES):
        items = [(f.name, getattr(value, f.name)) for f in fields(value)]
    elif isinstance(value, dict):
        items = value.items()
    elif isinstance(value, tuple):
        items = enumerate(value)
    else:
        return []
    return [p for key, child in items
            for p in [(*path, str(key)), *_scene_paths(child, (*path, str(key)))]]


@settings(max_examples=400)
@given(data=st.data())
def test_validate_scene_is_total_and_a_valid_scene_survives_its_file(tmp_path_factory, data):
    """``validate_scene`` returns a list of messages for any value at any place in
    a scene.  A scene that passes the table read and the read-back, range faults
    allowed, saves and loads back equal, and the range rules alone, which are
    all the CLI applies to a loaded scene, report on it what ``validate_scene``
    does."""
    assert validate_scene(SCENE) == []
    path = data.draw(st.sampled_from(_scene_paths(SCENE)))
    scene = _with(SCENE, list(path), data.draw(scene_values))
    violations = validate_scene(scene)
    assert isinstance(violations, list) and all(isinstance(v, str) for v in violations)
    # The table read's and the read-back's messages name the scene; range faults its parts.
    read_back = not any(v.startswith("scene") for v in violations)
    event("valid" if not violations else "range faults" if read_back else "refused")
    if read_back:
        file = tmp_path_factory.getbasetemp() / "validated.scene"
        save_scene(file, scene)
        loaded = load_scene(file)
        assert loaded == scene
        assert validate_scene(loaded) == range_violations(loaded) == violations


# -- the frames loader: checked in bulk, held to the record loop ----------------

@pytest.fixture(scope="module")
def frames_payload(tmp_path_factory):
    """A valid frames payload of four frames: lidar boxes without velocity,
    radar boxes with it, and one frame without boxes."""
    frames = rescore_frames(14)
    ids = sorted(frames.lidar)[:3]
    path = tmp_path_factory.mktemp("frames") / "a.frames"
    save_frames(path, {**{fid: frames.lidar[fid] + frames.radar[fid] for fid in ids}, "empty": []},
                "a.manifest")
    return json.loads(path.read_text().split("\n", 1)[1])["payload"]


def _outcome(load, path):
    try:
        return load(path)
    except ParseError as exc:
        return str(exc)


def _mutate(data, payload) -> str | None:
    """One or two edits of a frames payload in place, so that faults in two
    places, frames or boxes, compete to be named first; returns a raw literal
    that replaces each node set to "@raw@" in the file's text, if one was
    drawn.  A second edit whose target the first removed or replaced is not
    made, and the draw is rejected."""
    raw = _edit(data, payload)
    if data.draw(st.booleans()):
        try:
            raw = _edit(data, payload) or raw
        except (KeyError, IndexError, TypeError):
            reject()
    return raw


def _edit(data, payload) -> str | None:
    """One edit of a frames payload in place, and its raw literal, if any."""
    frames = payload["frames"]
    boxes = [b for f in frames for b in f["boxes"]]
    box = data.draw(st.sampled_from(boxes))
    kind = data.draw(st.sampled_from(["node", "raw", "missing", "extra", "duplicate", "length",
                                      "class", "source", "size", "score", "integers"]))
    if kind in ("node", "raw"):
        where = data.draw(st.sampled_from(_nodes(payload)))
        raw = data.draw(st.sampled_from(RAW_NUMBERS)) if kind == "raw" else None
        _set(payload, where, "@raw@" if raw else data.draw(json_values | st.just(True)))
        return raw
    if kind in ("missing", "extra"):
        record = data.draw(st.sampled_from([payload, *frames, box]))
        if kind == "missing":
            del record[data.draw(st.sampled_from(sorted(record)))]
        else:
            key = data.draw(st.sampled_from(["extra", "frame_id", "boxes", "velocity", "yaw"]))
            record[key] = 1
    elif kind == "duplicate":
        data.draw(st.sampled_from(frames[1:]))["frame_id"] = frames[0]["frame_id"]
    elif kind == "length":
        key = data.draw(st.sampled_from(["center", "size", "velocity"]))
        box[key] = [1.0] * data.draw(st.sampled_from([0, 1, 2, 3, 4]))
    elif kind in ("class", "source"):
        box["class_label" if kind == "class" else "source"] = data.draw(
            st.sampled_from(["cars", "", "Car", "lidar", "car", "fused", "radar ", "ground_truth"]))
    elif kind == "size":
        box["size"][data.draw(st.integers(0, 2))] = data.draw(st.sampled_from([0, 0.0, -0.0, -1.5]))
    elif kind == "score":
        box["score"] = data.draw(st.sampled_from([-1e-300, -0.0, 0, 1, 1.0000000000000002, 2]))
    else:  # JSON integers where floats were: a valid file that stores them as floats
        box["center"] = [1, -2, 0]
        box["size"] = [4, 2, 1]
    return None


@settings(max_examples=200)
@given(data=st.data())
def test_frames_loader_is_the_record_loop_on_mutated_files(tmp_path_factory, frames_payload, data):
    payload = json.loads(json.dumps(frames_payload))
    raw = _mutate(data, payload)
    text = make_document(FRAMES_MAGIC, payload, indent=None)
    path = tmp_path_factory.mktemp("mutated") / "m.frames"
    path.write_text(rehash(text.replace('"@raw@"', raw)) if raw else text)
    got, want = _outcome(load_frames, path), _outcome(load_frames_reference, path)
    assert got == want
    event("refused" if isinstance(got, str) else "loaded")
    if not isinstance(got, str):
        assert [[tuple(map(type, vars(b).values())) for b in boxes] for boxes in got.values()] \
            == [[tuple(map(type, vars(b).values())) for b in boxes] for boxes in want.values()]


def test_bulk_loaded_boxes_are_constructor_boxes(tmp_path, frames_payload):
    """A valid file takes the bulk path, and its boxes are the constructor's."""
    payload = json.loads(json.dumps(frames_payload))
    payload["frames"][0]["boxes"][0].update(center=[1, -2, 0], size=[4, 2, 1], yaw=3, score=1)
    path = tmp_path / "a.frames"
    path.write_text(make_document(FRAMES_MAGIC, payload, indent=None))
    assert _frames_table(json.loads(json.dumps(payload["frames"])), "a.frames") is not None
    loaded = load_frames(path)
    built = {f["frame_id"]: [DetectionBox(**b) for b in f["boxes"]] for f in payload["frames"]}
    assert loaded == built and list(loaded) == list(built)
    for got, want in zip(sum(loaded.values(), []), sum(built.values(), [])):
        assert hash(got) == hash(want) and repr(got) == repr(want)
        assert list(map(type, vars(got).values())) == list(map(type, vars(want).values()))
    # Each keeps the key-sharing instance dict the constructor's one-by-one stores give.
    sizes = [sys.getsizeof(vars(b)) for b in sum(loaded.values(), [])]
    assert max(sizes) <= generated_init_dict_size()


def test_valid_files_never_reach_the_constructor(tmp_path, frames_payload, monkeypatch):
    """A valid file loads as a table without one ``DetectionBox`` built, also
    when box records in several frames leave out their optional velocity,
    beside records that carry it, and the table holds the record loop's boxes."""
    payload = json.loads(json.dumps(frames_payload))
    for frame in payload["frames"]:
        for box in frame["boxes"][::2]:
            del box["velocity"]
    path = tmp_path / "a.frames"
    path.write_text(make_document(FRAMES_MAGIC, payload, indent=None))
    calls = []
    init = DetectionBox.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DetectionBox, "__init__", counted)
    table = load_frames(path, as_table=True)
    monkeypatch.undo()
    assert calls == []
    assert repr(table.frames()) == repr(load_frames_reference(path))
    assert {len(box) for frame in payload["frames"][:3] for box in frame["boxes"]} == {6, 7}
    assert {box.get("velocity") is None for box in payload["frames"][0]["boxes"]} == {True, False}


# A valid --config for every command, on ``square_scene`` with one sample
# per cell and two frames, so that a run takes milliseconds.
VALID_CONFIGS = {
    "visibility": {"samples_per_cell": 1, "object_height_m": 1.7, "sample_height_m": 0.8,
                   "epsilon": 1e-6, "workers": 1},
    "optimize": {"budget": 2, "budget_mode": "count", "seen_threshold": 1.0,
                 "solver": "branch-bound"},
    "export-milp": {"budget": 150.0, "budget_mode": "cost", "seen_threshold": 0.5},
    "coverage": {"theta": 0.1, "name": "dense"},
    "simulate": {"seed": 1, "duration_frames": 2, "frame_dt_s": 0.5,
                 "class_mix": {"truck": 1.0, "car": 0.5}, "speed_ranges": {"car": [5.0, 10.0]},
                 "lidar_noise": {"position_sigma": 0.1}, "radar_noise": {"velocity_sigma": 0.2},
                 "dropout_rule": "visibility"},
    "fuse": {"iou_threshold": 0.3},
    "evaluate": {"matching_mode": "iou", "classes": ["truck", "car"],
                 "thresholds": {"truck": 0.5}},
}
VALID_CONFIGS["pipeline"] = {
    "scene": "scene.scene", "workers": 1,
    "visibility": {k: v for k, v in VALID_CONFIGS["visibility"].items() if k != "workers"},
    "configs": [{**VALID_CONFIGS["optimize"], **VALID_CONFIGS["coverage"],
                 "scenario": {"dropout_rule": "none"}}],
    "scenario": VALID_CONFIGS["simulate"], "fusion": VALID_CONFIGS["fuse"],
    "evaluation": VALID_CONFIGS["evaluate"],
}


def _from_pipeline(command: str, change: dict) -> dict:
    """The keys of a pipeline config ``change`` that ``command``'s --config takes."""
    if command == "pipeline":
        return change
    entry = change.get("configs", [{}])[0]
    return {
        "visibility": {**change.get("visibility", {}),
                       **{k: v for k, v in change.items() if k == "workers"}},
        "optimize": {k: v for k, v in entry.items() if k in cli._OPTIMIZE_CHECKS},
        "export-milp": {k: v for k, v in entry.items() if k in cli._OPTIMIZE_CHECKS},
        "coverage": {k: v for k, v in entry.items() if k in cli._COVERAGE_CHECKS},
        "simulate": {**change.get("scenario", {}), **entry.get("scenario", {})},
        "fuse": change.get("fusion", {}),
        "evaluate": change.get("evaluation", {}),
    }[command]


def _frames_outputs(directory) -> list[str]:
    return [arg for side in ("truth", "lidar", "radar")
            for arg in (f"--out-{side}", str(directory / f"{side}.frames"))]


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """Every input file a command reads, and each command's argv bar --config."""
    root = tmp_path_factory.mktemp("main")
    out = root / "out"
    out.mkdir()
    save_scene(root / "scene.scene", square_scene())
    scene = ["--scene", str(root / "scene.scene")]
    matrices = ["--lidar", str(root / "lidar.vismatrix"), "--radar", str(root / "radar.vismatrix")]
    solution = ["--solution", str(root / "plan.solution")]
    argv = {
        "visibility": [*scene, "--out-lidar", str(out / "l.vismatrix"),
                       "--out-radar", str(out / "r.vismatrix")],
        "optimize": [*matrices, "--out", str(out / "x.solution")],
        "export-milp": [*matrices, "--out", str(out / "x.lp")],
        "coverage": [*matrices, *solution, "--out", str(out / "x.coverage")],
        "simulate": [*scene, *matrices, *solution, *_frames_outputs(out)],
        "fuse": ["--lidar", str(root / "lidar.frames"), "--radar", str(root / "radar.frames"),
                 "--out", str(out / "f.frames")],
        "evaluate": ["--truth", str(root / "truth.frames"),
                     "--predictions", str(root / "lidar.frames"), "--out", str(out / "e.report")],
        "pipeline": ["--out-dir", str(out / "pipe")],
    }
    for command, args in [
        ("visibility", [*scene, "--out-lidar", matrices[1], "--out-radar", matrices[3],
                        "--samples-per-cell", "1"]),
        ("optimize", [*matrices, "--budget", "2", "--out", solution[1]]),
        ("simulate", [*scene, *matrices, *solution, "--frames", "2", "--seed", "1",
                      *_frames_outputs(root)]),
    ]:
        assert cli.main([command, *args]) == 0
    return root, argv


# Integers are small or past every count's maximum, so no run sizes a large
# array or loop.
config_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers(min_value=10 ** 7)
    | st.integers(max_value=-(10 ** 7)) | st.floats() | st.text(max_size=6)
    | st.sampled_from(WORDS),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(WORDS) | st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=4,
)


def _run(root, argv, config) -> tuple[int, str]:
    """``main`` on ``argv`` plus a --config file holding ``config``; its exit code and stderr."""
    (root / "config.json").write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main([*argv, "--config", str(root / "config.json")])
    return rc, err.getvalue()


@pytest.mark.parametrize("command", VALID_CONFIGS)
def test_valid_config_runs(cli_inputs, command):
    """The property below starts from configs that run, evaluation included."""
    root, argv = cli_inputs
    assert _run(root, [command, *argv[command]], VALID_CONFIGS[command]) == (0, "")


@pytest.mark.parametrize("command", VALID_CONFIGS)
@given(data=st.data())
def test_main_never_exits_1_on_a_bad_config(cli_inputs, command, data):
    """A valid config, seeded with a known bad value or not, with one node replaced or not."""
    root, argv = cli_inputs
    change = data.draw(st.just({}) | st.sampled_from([c for c, _ in BAD_CONFIG_VALUES]))
    config = json.loads(json.dumps({**VALID_CONFIGS[command], **_from_pipeline(command, change)}))
    where = data.draw(st.none() | st.sampled_from([(), *_nodes(config)]))
    if where == ():
        config = data.draw(config_values)
    elif where is not None:
        _set(config, where, data.draw(config_values))
    rc, err = _run(root, [command, *argv[command]], config)
    assert rc in (0, 3, 4), err


@pytest.mark.parametrize("command", ["optimize", "export-milp", "coverage", "simulate"])
@given(data=st.data())
def test_main_never_exits_1_on_a_mutated_matrix(cli_inputs, command, data):
    """A valid config, run with one of its two matrix files mutated."""
    root, argv = cli_inputs
    side = data.draw(st.sampled_from(["lidar", "radar"]))
    original = root / f"{side}.vismatrix"
    mutated = root / f"mutated-{side}.vismatrix"
    mutated.write_bytes(_mutated_matrix(data, original))
    argv = [str(mutated) if arg == str(original) else arg for arg in argv[command]]
    rc, err = _run(root, [command, *argv], VALID_CONFIGS[command])
    assert rc in (0, 3, 4), err
