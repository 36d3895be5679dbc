"""File formats: round trips, byte stability, and strict parsing."""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from crossview import (
    DetectionBox,
    MatrixFile,
    ParseError,
    VisibilityMatrix,
    file_sha256,
    load_frame_pairs,
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
    scene_hash,
    ScenarioConfig,
    Selection,
    SolutionFile,
    generate_scenario,
)

from crossview.formats import FRAMES_MAGIC

from conftest import make_document, random_box, rehash, square_scene


def sample_matrix_file(scene=None) -> MatrixFile:
    values = np.array([[1.0 - 1.0 / np.e, 0.25, 0.0],
                       [0.1234567891234, 0.0, 0.97]])
    return MatrixFile(
        matrix=VisibilityMatrix("lidar", values),
        scene_hash=scene_hash(scene) if scene else "0" * 64,
        cells=(3, 7, 11),
        weights=np.array([1.0, 2.0, 0.5]),
        costs=np.array([100.0, 80.0]),
        ids=("L0", "L1"),
    )


# -- scenes -------------------------------------------------------------------

def test_scene_round_trip(tmp_path):
    scene = square_scene(occluders=(((5.0, 5.0, 0.0), (7.0, 6.0, 2.5)),),
                         weights={0: 2.0, 5: 0.25})
    path = tmp_path / "scene.scene"
    save_scene(path, scene)
    assert load_scene(path) == scene


def test_scene_save_is_byte_stable(tmp_path):
    scene = square_scene()
    first = tmp_path / "a.scene"
    second = tmp_path / "b.scene"
    save_scene(first, scene)
    save_scene(second, load_scene(first))
    assert first.read_bytes() == second.read_bytes()


def test_scene_hash_tracks_content(tmp_path):
    base = square_scene()
    same = square_scene()
    moved = square_scene(lidar_mounts=(((2.0, 1.0, 6.0), 0.0, 0.0),))
    assert scene_hash(base) == scene_hash(same)
    assert scene_hash(base) != scene_hash(moved)


def test_wrong_magic_is_rejected(tmp_path):
    scene = square_scene()
    path = tmp_path / "scene.scene"
    save_scene(path, scene)
    with pytest.raises(ParseError, match="expected crossview.vismatrix"):
        load_matrix(path)


def test_unsupported_version(tmp_path):
    path = tmp_path / "future.scene"
    path.write_text(make_document("crossview.scene", {}, version=9))
    with pytest.raises(ParseError, match="version"):
        load_scene(path)


def test_missing_or_malformed_magic(tmp_path):
    empty = tmp_path / "empty.scene"
    empty.write_text("")
    with pytest.raises(ParseError, match="magic"):
        load_scene(empty)
    bad = tmp_path / "bad.scene"
    bad.write_text("crossview.scene\n{}\n")
    with pytest.raises(ParseError, match="malformed magic"):
        load_scene(bad)


def test_truncated_body(tmp_path):
    scene = square_scene()
    path = tmp_path / "scene.scene"
    save_scene(path, scene)
    clipped = tmp_path / "clipped.scene"
    clipped.write_text(path.read_text()[:-40])
    with pytest.raises(ParseError, match="truncated"):
        load_scene(clipped)


def test_edited_payload_fails_hash_check(tmp_path):
    scene = square_scene()
    path = tmp_path / "scene.scene"
    save_scene(path, scene)
    tampered = tmp_path / "tampered.scene"
    tampered.write_text(path.read_text().replace('"cell_size": 2.0',
                                                 '"cell_size": 3.0'))
    with pytest.raises(ParseError, match="hash mismatch"):
        load_scene(tampered)


def test_unknown_scene_field(tmp_path):
    path = tmp_path / "extra.scene"
    payload = {"grid": {}, "roi": {}, "occluders": [],
               "lidar_candidates": [], "radar_candidates": [],
               "comment": "hello"}
    path.write_text(make_document("crossview.scene", payload))
    with pytest.raises(ParseError, match="unknown field 'comment'"):
        load_scene(path)


def test_missing_scene_field(tmp_path):
    path = tmp_path / "missing.scene"
    payload = {"grid": {}, "roi": {}, "occluders": [], "lidar_candidates": []}
    path.write_text(make_document("crossview.scene", payload))
    with pytest.raises(ParseError, match="missing field 'radar_candidates'"):
        load_scene(path)


# -- matrices -----------------------------------------------------------------

def test_matrix_round_trip(tmp_path):
    mf = sample_matrix_file()
    path = tmp_path / "lidar.vismatrix"
    save_matrix(path, mf)
    loaded = load_matrix(path)
    assert loaded.matrix.modality == "lidar"
    assert loaded.cells == (3, 7, 11)
    assert loaded.ids == ("L0", "L1")
    assert loaded.scene_hash == mf.scene_hash
    assert loaded.manifest is None
    np.testing.assert_array_equal(loaded.weights, mf.weights)
    np.testing.assert_array_equal(loaded.costs, mf.costs)
    # 9 significant digits end to end.
    np.testing.assert_allclose(loaded.matrix.values, mf.matrix.values,
                               rtol=1e-8, atol=0.0)


def test_matrix_save_is_byte_stable(tmp_path):
    mf = sample_matrix_file()
    first = tmp_path / "a.vismatrix"
    second = tmp_path / "b.vismatrix"
    save_matrix(first, mf)
    save_matrix(second, load_matrix(first))
    assert first.read_bytes() == second.read_bytes()


def test_matrix_manifest_field(tmp_path):
    mf = sample_matrix_file()
    mf = MatrixFile(matrix=mf.matrix, scene_hash=mf.scene_hash, cells=mf.cells,
                    weights=mf.weights, costs=mf.costs, ids=mf.ids,
                    manifest="run.manifest")
    path = tmp_path / "lidar.vismatrix"
    save_matrix(path, mf)
    assert load_matrix(path).manifest == "run.manifest"


def test_matrix_value_range_is_enforced(tmp_path):
    mf = sample_matrix_file()
    path = tmp_path / "lidar.vismatrix"
    save_matrix(path, mf)
    bad = tmp_path / "bad.vismatrix"
    bad.write_text(rehash(path.read_text().replace("0.97", "1")))
    with pytest.raises(ParseError, match=r"\[0, 1\)"):
        load_matrix(bad)
    neg = tmp_path / "neg.vismatrix"
    neg.write_text(rehash(path.read_text().replace("0.97", "-0.5")))
    with pytest.raises(ParseError, match=r"\[0, 1\)"):
        load_matrix(neg)


def test_matrix_count_mismatches(tmp_path):
    mf = sample_matrix_file()
    path = tmp_path / "lidar.vismatrix"
    save_matrix(path, mf)
    text = path.read_text()

    short_cells = tmp_path / "cells.vismatrix"
    short_cells.write_text(rehash(text.replace("cells 3 7 11", "cells 3 7")))
    with pytest.raises(ParseError, match="cells"):
        load_matrix(short_cells)

    short_rows = tmp_path / "rows.vismatrix"
    short_rows.write_text(rehash("\n".join(text.splitlines()[:-1]) + "\n"))
    with pytest.raises(ParseError, match="matrix rows"):
        load_matrix(short_rows)

    bad_number = tmp_path / "number.vismatrix"
    bad_number.write_text(rehash(text.replace("0.25", "0.2x5")))
    with pytest.raises(ParseError, match="malformed number"):
        load_matrix(bad_number)

    missing = tmp_path / "missing.vismatrix"
    missing.write_text(rehash(text.replace("epsilon 1e-06\n", "")))
    with pytest.raises(ParseError, match="missing field 'epsilon'"):
        load_matrix(missing)

    doubled = tmp_path / "doubled.vismatrix"
    doubled.write_text(rehash(text.replace("rows 2\n", "rows 2\nrows 2\n")))
    with pytest.raises(ParseError, match="duplicate header"):
        load_matrix(doubled)


def test_save_matrix_validates_lengths(tmp_path):
    mf = sample_matrix_file()
    broken = MatrixFile(matrix=mf.matrix, scene_hash=mf.scene_hash,
                        cells=(1, 2), weights=mf.weights, costs=mf.costs,
                        ids=mf.ids)
    with pytest.raises(ValueError, match="cells"):
        save_matrix(tmp_path / "x.vismatrix", broken)


# -- frames -------------------------------------------------------------------

def test_frames_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    frames = {
        "000000": [random_box(rng, source="lidar") for _ in range(3)],
        "000001": [random_box(rng, source="radar") for _ in range(2)],
        "000002": [],
    }
    path = tmp_path / "dets.frames"
    save_frames(path, frames)
    loaded = load_frames(path)
    assert set(loaded) == set(frames)
    for fid in frames:
        assert sorted(loaded[fid], key=lambda b: b.sort_key()) == sorted(
            frames[fid], key=lambda b: b.sort_key())
        scores = [b.score for b in loaded[fid]]
        assert scores == sorted(scores, reverse=True)


def test_frames_save_is_byte_stable(tmp_path):
    rng = np.random.default_rng(4)
    frames = {"000000": [random_box(rng, source="radar") for _ in range(4)]}
    first = tmp_path / "a.frames"
    second = tmp_path / "b.frames"
    save_frames(first, frames)
    save_frames(second, load_frames(first))
    assert first.read_bytes() == second.read_bytes()


def test_duplicate_frame_id_rejected(tmp_path):
    box = {
        "center": [0.0, 0.0, 1.0], "size": [4.0, 2.0, 2.0], "yaw": 0.0,
        "class_label": "car", "score": 0.5, "source": "lidar",
        "velocity": None,
    }
    payload = {"frames": [
        {"frame_id": "000000", "boxes": [box]},
        {"frame_id": "000000", "boxes": []},
    ]}
    path = tmp_path / "dup.frames"
    path.write_text(make_document("crossview.frames", payload))
    with pytest.raises(ParseError, match="duplicate frame_id"):
        load_frames(path)


def test_bad_box_field_named_in_error(tmp_path):
    box = {
        "center": [0.0, 0.0, 1.0], "size": [4.0, 2.0, 2.0], "yaw": 0.0,
        "class_label": "car", "score": 1.5, "source": "lidar",
    }
    path = tmp_path / "score.frames"
    path.write_text(make_document(
        "crossview.frames", {"frames": [{"frame_id": "000000", "boxes": [box]}]}))
    with pytest.raises(ParseError, match=r"frames\[0\].boxes\[0\]"):
        load_frames(path)


def _frames_payload(frames: dict, manifest=None) -> dict:
    """The payload a generic JSON writer would be given for ``frames``."""
    records = []
    for frame_id in sorted(frames):
        boxes = sorted(frames[frame_id], key=lambda b: (-b.score, b.sort_key()))
        records.append({"frame_id": frame_id, "boxes": [{
            "center": b.center, "size": b.size, "yaw": b.yaw, "class_label": b.class_label,
            "score": b.score, "source": b.source, "velocity": b.velocity} for b in boxes]})
    payload = {"frames": records}
    if manifest is not None:
        payload["manifest"] = manifest
    return payload


def _odd_floats_box() -> DetectionBox:
    return DetectionBox(center=(-0.0, 1e-07, 1e16), size=(5.0, 1e-07, 2.5), yaw=-0.0,
                        class_label="bus", score=5e-324, source="radar",
                        velocity=(1e16, -0.0))


def _scenario_frames() -> dict:
    scene = square_scene()
    full = VisibilityMatrix("lidar", np.full((2, 100), 0.9))
    result = generate_scenario(scene, full, VisibilityMatrix("radar", full.values),
                               Selection.of([0, 1], [0]), ScenarioConfig(seed=2, duration_frames=6))
    return {**result.ground_truth, **{f"l{k}": v for k, v in result.lidar.items()},
            **{f"r{k}": v for k, v in result.radar.items()}}


FRAMES_CASES = {
    "empty": ({}, None),
    "frame-without-boxes": ({"000000": []}, "x.manifest"),
    "velocity-none-and-set": ({"a": [random_box(np.random.default_rng(1), source="lidar"),
                                     random_box(np.random.default_rng(2), source="radar")]},
                              None),
    "manifest-set": ({"a": [random_box(np.random.default_rng(3))], "b": []}, "run.manifest"),
    "quote-and-non-ascii-id": ({'cam "north" \u00e9\u6771': [_odd_floats_box()]}, 'm "q" \u00fc'),
    "odd-floats": ({"z": [_odd_floats_box(), _odd_floats_box()]}, None),
    "generate-scenario": (_scenario_frames(), "sim.manifest"),
}


@pytest.mark.parametrize("case", sorted(FRAMES_CASES))
def test_save_frames_matches_generic_envelope(tmp_path, case):
    """The dedicated frames writer emits exactly the reference writer's bytes."""
    frames, manifest = FRAMES_CASES[case]
    save_frames(tmp_path / "x.frames", frames, manifest)
    expected = make_document(FRAMES_MAGIC, _frames_payload(frames, manifest))
    assert (tmp_path / "x.frames").read_text() == expected
    assert load_frames(tmp_path / "x.frames").keys() == frames.keys()


def test_load_frame_pairs_unions_ids(tmp_path):
    rng = np.random.default_rng(5)
    gt = {"000000": [random_box(rng, source="ground_truth", class_label="car")]}
    pred = {"000001": [random_box(rng, source="fused", class_label="car")]}
    gt_path = tmp_path / "gt.frames"
    pred_path = tmp_path / "pred.frames"
    save_frames(gt_path, gt)
    save_frames(pred_path, pred)
    pairs = load_frame_pairs(gt_path, pred_path)
    assert [p.frame_id for p in pairs] == ["000000", "000001"]
    assert pairs[0].ground_truth and not pairs[0].predictions
    assert pairs[1].predictions and not pairs[1].ground_truth


# -- reports, solutions, manifests --------------------------------------------

def test_report_round_trip(tmp_path):
    record = {"config_name": "dense", "central_coverage": 0.9,
              "covered_cells": 90, "total_roi_cells": 100,
              "total_cost": 100.0, "per_modality_cost": {},
              "per_modality_covered": {}, "theta": 0.0}
    path = tmp_path / "cov.report"
    save_report(path, "coverage", record, manifest="run.manifest")
    kind, loaded = load_report(path)
    assert kind == "coverage"
    assert loaded == record


def test_solution_round_trip(tmp_path):
    sol = SolutionFile(
        lidar_ids=(0, 2), radar_ids=(1,),
        lidar_candidate_ids=("L0", "L2"), radar_candidate_ids=("R1",),
        objective=123.456, optimal=True, budget=3.0, budget_mode="count",
        seen_threshold=1.0, scene_hash="ab" * 32,
    )
    path = tmp_path / "best.solution"
    save_solution(path, sol)
    assert load_solution(path) == sol


def test_solution_id_type_check(tmp_path):
    sol = SolutionFile(
        lidar_ids=(0,), radar_ids=(), lidar_candidate_ids=("L0",),
        radar_candidate_ids=(), objective=1.0, optimal=False, budget=1.0,
        budget_mode="count", seen_threshold=1.0, scene_hash="0" * 64,
    )
    path = tmp_path / "best.solution"
    save_solution(path, sol)
    bad = tmp_path / "bad.solution"
    text = path.read_text()
    payload = json.loads(text.split("\n", 1)[1])["payload"]
    payload["lidar_ids"] = ["L0"]
    bad.write_text(make_document("crossview.solution", payload))
    with pytest.raises(ParseError, match=r"lidar_ids: expected an integer, got 'L0'"):
        load_solution(bad)


def test_manifest_round_trip(tmp_path):
    record = {
        "command": "visibility",
        "tool_version": "0.1.0",
        "inputs": {"scene.scene": "ab" * 32},
        "outputs": ["lidar.vismatrix"],
        "config": {"samples_per_cell": 9},
        "wall_time_s": 0.25,
    }
    path = tmp_path / "run.manifest"
    save_manifest(path, record)
    assert load_manifest(path) == record
    with pytest.raises(ValueError, match="missing 'command'"):
        save_manifest(tmp_path / "bad.manifest", {"tool_version": "0.1.0"})


_MANIFEST = {"command": "visibility", "tool_version": "0.1.0",
             "inputs": {"scene.scene": "ab" * 32}, "outputs": ["lidar.vismatrix"],
             "config": {"samples_per_cell": 9}, "wall_time_s": 0.25}


@pytest.mark.parametrize("edit, message", [
    ({"command": 7}, r"\.command: expected a string, got 7"),
    ({"tool_version": None}, r"\.tool_version: expected a string, got None"),
    ({"inputs": ["scene.scene"]}, r"\.inputs: expected an object"),
    ({"inputs": {"scene.scene": 5}}, r"\.inputs.scene.scene: expected a string, got 5"),
    ({"outputs": "lidar.vismatrix"}, r"\.outputs: expected a list"),
    ({"outputs": ["lidar.vismatrix", 3]}, r"\.outputs\[1\]: expected a string, got 3"),
    ({"config": [9]}, r"\.config: expected an object"),
    ({"wall_time_s": "0.25"}, r"\.wall_time_s: expected a number, got '0.25'"),
    ({"wall_time_s": True}, r"\.wall_time_s: expected a number, got True"),
    ({"wall_time_s": None}, r"\.wall_time_s: expected a number, got None"),
    ({"stages": {}}, r": unknown field 'stages'"),
], ids=["command", "tool_version", "inputs", "inputs-value", "outputs", "outputs-item", "config",
        "wall_time_s-string", "wall_time_s-bool", "wall_time_s-null", "unknown-field"])
def test_malformed_manifest_names_the_field(tmp_path, edit, message):
    path = tmp_path / "run.manifest"
    save_manifest(path, _MANIFEST)
    head, body = path.read_text().split("\n", 1)
    payload = json.loads(body)["payload"]
    payload.update(edit)
    body = json.dumps({"payload": payload}, sort_keys=True, indent=2) + "\n"
    path.write_text(rehash(f"{head}\n{body}"))
    with pytest.raises(ParseError, match=r"run\.manifest" + message):
        load_manifest(path)


def test_file_sha256_matches_hashlib(tmp_path):
    path = tmp_path / "blob.txt"
    path.write_text("forty-two\n")
    assert file_sha256(path) == hashlib.sha256(b"forty-two\n").hexdigest()


# -- the envelope ---------------------------------------------------------------

def _one_of_each_kind(tmp_path) -> dict:
    """A small valid file of every kind, keyed by kind, with its loader."""
    scene = square_scene(weights={3: 2.0})
    save_scene(tmp_path / "a.scene", scene)
    save_matrix(tmp_path / "a.vismatrix", sample_matrix_file(scene))
    save_frames(tmp_path / "a.frames",
                {"000000": [random_box(np.random.default_rng(7), source="radar")]}, "m")
    save_report(tmp_path / "a.report", "coverage", {"covered_cells": 3}, "m")
    save_solution(tmp_path / "a.solution", SolutionFile(
        lidar_ids=(0,), radar_ids=(), lidar_candidate_ids=("L0",), radar_candidate_ids=(),
        objective=1.5, optimal=True, budget=1.0, budget_mode="count", seen_threshold=1.0,
        scene_hash=scene_hash(scene), manifest="m"))
    save_manifest(tmp_path / "a.manifest", {
        "command": "optimize", "tool_version": "0.1.0", "inputs": {}, "outputs": [],
        "config": {}, "wall_time_s": 0.5})
    return {"scene": load_scene, "vismatrix": load_matrix, "frames": load_frames,
            "report": load_report, "solution": load_solution, "manifest": load_manifest}


def _flip(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


EDITS = {
    "header-digest": lambda data: _flip(data, data.index(b"\n") - 1),
    "first-body-byte": lambda data: _flip(data, data.index(b"\n") + 1),
    "middle-byte": lambda data: _flip(data, (data.index(b"\n") + len(data)) // 2),
    "last-byte": lambda data: _flip(data, len(data) - 1),
    "crlf": lambda data: data.replace(b"\n", b"\r\n").replace(b"\r\n", b"\n", 1),
}
KINDS = ("scene", "vismatrix", "frames", "report", "solution", "manifest")


@pytest.mark.parametrize("edit", sorted(EDITS))
@pytest.mark.parametrize("kind", KINDS)
def test_one_byte_edit_fails_every_kind(tmp_path, kind, edit):
    """The header digest covers every body byte on disk, the matrix's too."""
    loaders = _one_of_each_kind(tmp_path)
    path = tmp_path / f"a.{kind}"
    loaders[kind](path)
    path.write_bytes(EDITS[edit](path.read_bytes()))
    with pytest.raises(ParseError, match="hash mismatch"):
        loaders[kind](path)


def test_scene_hash_is_the_scene_file_digest(tmp_path):
    scene = square_scene(weights={3: 2.0})
    save_scene(tmp_path / "a.scene", scene)
    header = (tmp_path / "a.scene").read_text().split("\n", 1)[0]
    assert header == f"crossview.scene 2 {scene_hash(scene)}"


def test_non_utf8_body_is_a_parse_error(tmp_path):
    body = b"modality lidar\xff\n"
    path = tmp_path / "a.vismatrix"
    path.write_bytes(b"crossview.vismatrix 2 " + hashlib.sha256(body).hexdigest().encode()
                     + b"\n" + body)
    with pytest.raises(ParseError, match="UTF-8"):
        load_matrix(path)


def test_failed_write_leaves_the_target_whole(tmp_path, monkeypatch):
    path = tmp_path / "site.scene"
    save_scene(path, square_scene())
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        save_scene(path, square_scene(weights={3: 2.0}))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["site.scene"]
