"""File formats: round trips, byte stability, and strict parsing."""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import json
import os
import re
from functools import partial

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

from crossview import formats
from crossview.boxes import CLASSES, SOURCES, BoxTable
from crossview.formats import FRAMES_MAGIC

from conftest import make_document, random_box, rehash, square_scene
from oracles import matrix_body_reference


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
    text = path.read_text()
    tampered.write_text(text.replace('"cell_size":2.0', '"cell_size":3.0'))
    assert tampered.read_text() != text
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


# A nan whose payload differs from np.nan's: its own bit pattern, the same text.
OTHER_NAN = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
AWKWARD_VALUES = [1.0 - 1e-6, 5e-324, 2.5e-310, -0.0, 0.0, np.nan, -np.nan, OTHER_NAN,
                  np.inf, 1.0 / 3.0, 0.1234567891234]
# The awkward values a matrix entry may take, and those no matrix file holds.
ENTRY_VALUES = [v for v in AWKWARD_VALUES if 0.0 <= v < 1.0]
REFUSED_ENTRIES = [v for v in AWKWARD_VALUES if v not in ENTRY_VALUES]


def random_matrix_values(rng, rows: int, cols: int) -> np.ndarray:
    """Lattice fractions clamped to 1 - 1e-6, a fifth of them replaced by awkward
    values that a matrix entry may take."""
    k = int(rng.choice([1, 4, 9, 16]))
    values = np.minimum(rng.integers(0, k + 1, (rows, cols)) / k, 1.0 - 1e-6)
    swap = rng.random((rows, cols)) < 0.2
    values[swap] = rng.choice(ENTRY_VALUES, int(swap.sum()))
    return values


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 4), (1, 1), (5, 7), (11, 300)])
def test_matrix_bytes_match_the_per_value_writer(tmp_path, rows, cols):
    """Printing each distinct value once writes the bytes one print per entry did,
    whatever the values' dtype or memory layout.  A nan of any payload, an
    infinity or an integer 1 is no entry the loader takes, so it is refused
    before anything is written."""
    rng = np.random.default_rng([19, rows, cols])
    values = random_matrix_values(rng, rows, cols)
    wide = np.repeat(values, 2, axis=1)
    wide[:, 1::2] = 0.5
    layouts = {
        "c-order": values,
        "fortran-order": np.asfortranarray(values),
        "strided": wide[:, ::2],
        "reversed": np.ascontiguousarray(values[:, ::-1])[:, ::-1],
        "float32": values.astype(np.float32),
        "int64": np.zeros((rows, cols), dtype=np.int64),
    }
    refused = {}
    # 1 - 1e-10 lies below 1 but prints as 1.
    for k, value in enumerate([*REFUSED_ENTRIES, 1.0 - 1e-10]):
        swap = rng.random((rows, cols)) < 0.2
        swap.flat[:1] = True
        refused[f"refused-{k}"] = np.where(swap, value, values)
    refused["int64-ones"] = rng.integers(0, 2, (rows, cols))
    refused["int64-ones"].flat[:1] = 1
    for k, (layout, matrix) in enumerate([*layouts.items(), *refused.items()]):
        mf = MatrixFile(matrix=VisibilityMatrix("radar", matrix), scene_hash="ab" * 32,
                        cells=tuple(range(0, 3 * cols, 3)), weights=rng.uniform(0.5, 2.0, cols),
                        costs=rng.uniform(10.0, 100.0, rows),
                        ids=tuple(f"R{i}" for i in range(rows)),
                        manifest="run.manifest" if k % 2 else None)
        path = tmp_path / f"{layout}.vismatrix"
        if layout in refused and matrix.size:
            with pytest.raises(ValueError, match=re.escape("matrix entries must lie in [0, 1)")):
                save_matrix(path, mf)
            assert not path.exists() and not list(tmp_path.glob("*.tmp")), layout
            continue
        save_matrix(path, mf)
        body = matrix_body_reference(mf).encode()
        digest = hashlib.sha256(body).hexdigest()
        assert path.read_bytes() == f"crossview.vismatrix 2 {digest}\n".encode() + body, layout


@pytest.mark.parametrize("rows, cols", [(3, 0), (0, 4), (0, 0)])
def test_empty_matrix_shapes_round_trip_or_are_refused(tmp_path, rows, cols):
    """A matrix without rows loads back as written; one with rows but no
    columns would be blank lines, so it is refused before anything is written."""
    mf = MatrixFile(matrix=VisibilityMatrix("lidar", np.zeros((rows, cols))), scene_hash="ab" * 32,
                    cells=tuple(range(cols)), weights=np.ones(cols), costs=np.ones(rows),
                    ids=tuple(f"L{i}" for i in range(rows)))
    path = tmp_path / "m.vismatrix"
    if rows and not cols:
        with pytest.raises(ValueError, match=f"a {rows} x {cols} matrix has rows but no columns"):
            save_matrix(path, mf)
        assert not path.exists() and not list(tmp_path.iterdir())
        return
    save_matrix(path, mf)
    loaded = load_matrix(path)
    assert loaded.matrix.values.shape == (rows, cols)
    assert (loaded.cells, loaded.ids) == (mf.cells, mf.ids)
    save_matrix(tmp_path / "again.vismatrix", loaded)
    assert (tmp_path / "again.vismatrix").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("bad", ["L 0", "", "L\t0", " L0", "L0\n"])
def test_an_id_that_is_not_one_token_is_refused(tmp_path, bad):
    """The ids line is split on whitespace, so such an id would load as a
    different number of ids; it is refused before anything is written."""
    mf = MatrixFile(matrix=VisibilityMatrix("lidar", np.zeros((2, 1))), scene_hash="ab" * 32,
                    cells=(0,), weights=np.ones(1), costs=np.ones(2), ids=("L1", bad))
    with pytest.raises(ValueError, match=re.escape(f"candidate id {bad!r} is not one token")):
        save_matrix(tmp_path / "m.vismatrix", mf)
    assert not list(tmp_path.iterdir())


def _with_matrix_fields(mf: MatrixFile, **changes) -> MatrixFile:
    """``mf`` with some fields changed; ``modality``, ``values`` and ``epsilon``
    change its matrix."""
    matrix = {k: changes.pop(k, getattr(mf.matrix, k)) for k in ("modality", "values", "epsilon")}
    return dataclasses.replace(mf, matrix=VisibilityMatrix(**matrix), **changes)


@pytest.mark.parametrize("changes, message", [
    ({"ids": ("L0", "L0")}, "ids must be unique"),
    ({"cells": (7, 3, 11)}, "cells must be strictly increasing nonnegative integers"),
    ({"cells": (-1, 3, 11)}, "cells must be strictly increasing nonnegative integers"),
    ({"cells": (3, 7, 11.0)}, "cells must be strictly increasing nonnegative integers"),
    ({"weights": np.array([1.0, np.nan, 0.5])}, "epsilon, weights and costs must be finite"),
    ({"costs": np.array([100.0, np.inf])}, "epsilon, weights and costs must be finite"),
    ({"epsilon": np.nan}, "epsilon, weights and costs must be finite"),
    ({"values": np.array([[0.0, 1.0, 0.5], [0.0, 0.0, 0.0]])}, "matrix entries must lie in [0, 1)"),
    ({"values": np.array([[0.0, np.nan, 0.5], [0.0, 0.0, 0.0]])},
     "matrix entries must lie in [0, 1)"),
    ({"values": np.array([[0.0, -0.5, 0.5], [0.0, 0.0, 0.0]])},
     "matrix entries must lie in [0, 1)"),
    ({"manifest": "run\n.manifest"}, "manifest 'run\\n.manifest' holds a line break"),
    ({"modality": "lidar\n"}, "modality 'lidar\\n' holds a line break"),
    ({"scene_hash": "\n"}, "scene_hash '\\n' holds a line break"),
], ids=["repeated-ids", "decreasing-cells", "negative-cell", "float-cell", "nan-weight",
        "infinite-cost", "nan-epsilon", "entry-of-1", "nan-entry", "negative-entry",
        "manifest-newline", "modality-newline", "scene-hash-newline"])
def test_save_matrix_refuses_what_load_matrix_refuses(tmp_path, changes, message):
    """Writer and reader check one rule set, so the writer writes no file its
    reader would refuse, and says why in the reader's words."""
    with pytest.raises(ValueError, match=re.escape(message)):
        save_matrix(tmp_path / "m.vismatrix", _with_matrix_fields(sample_matrix_file(), **changes))
    assert not list(tmp_path.iterdir())


def test_save_frames_refuses_a_frame_id_that_is_not_a_string(tmp_path):
    """The loader reads a frame id as a string only; a file keyed otherwise
    would not load, so it is not written."""
    box = random_box(np.random.default_rng(4))
    for frames in ({0: [box]}, {"000000": [], 1.5: [box]}):
        with pytest.raises(TypeError, match=re.escape(f"frame id {list(frames)[-1]!r} is not a "
                                                      "string")):
            save_frames(tmp_path / "a.frames", frames)
    assert not list(tmp_path.iterdir())


def test_save_frames_refuses_a_table_its_loader_would(tmp_path):
    """A table's frame ids pass the mapping's rule too: a non-string id is
    refused before any write, and an id twice cannot make a table at all."""
    box = random_box(np.random.default_rng(4))
    table = BoxTable.from_frames({"a": [box]})
    with pytest.raises(ValueError, match=re.escape("frame ids must be unique: 'a' appears twice")):
        BoxTable(("a", "a"), np.array([0, 1, 2]), *(np.concatenate((c, c)) for c in table.columns))
    with pytest.raises(TypeError, match=re.escape("frames: frame id 1 is not a string")):
        save_frames(tmp_path / "a.frames", BoxTable.from_frames({1: [box]}))
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("column, value, message", [
    ("size", (-1.0, 1.0, 1.0), "size components must be positive"),
    ("score", 2.0, "score must lie in [0, 1], got 2.0"),
    ("center", (float("nan"), 0.0, 1.0), "box fields must be finite numbers"),
    ("velocity", (0.0, float("inf")), "velocity components must be finite"),
])
def test_save_frames_refuses_values_its_loader_would(tmp_path, column, value, message):
    """A table built in Python keeps the constructor's value rules: the writer
    names the frame and box that break one, in the constructor's words, and
    writes no file its loader would refuse, nor a null in a float's place."""
    rng = np.random.default_rng(4)
    table = BoxTable.from_frames({"a": [random_box(rng)],
                                  "b": [random_box(rng), random_box(rng, source="radar")]})
    getattr(table, column)[2] = value
    with pytest.raises(ValueError, match=re.escape(f"frames: frame 'b' box 1: {message}")):
        save_frames(tmp_path / "a.frames", table)
    assert not list(tmp_path.iterdir())
    (tmp_path / "ref.frames").write_text(
        make_document(FRAMES_MAGIC, _frames_payload(table.frames()), indent=None))
    with pytest.raises(ParseError):
        load_frames(tmp_path / "ref.frames")


@pytest.mark.parametrize("column, code, message", [
    ("label", -1, "unknown class code -1"),
    ("label", len(CLASSES), "unknown class code 6"),
    ("source", -1, "unknown source code -1"),
    ("source", len(SOURCES), "unknown source code 4"),
], ids=["class-1", "class-past-the-last", "source-1", "source-past-the-last"])
def test_a_table_never_writes_a_code_it_does_not_hold(tmp_path, column, code, message):
    """A class or source code outside CLASSES or SOURCES names no class or
    source: the writer refuses it, naming the frame and box, writes nothing, and
    ``frames()`` builds no box from it (-1 once read as the last name)."""
    rng = np.random.default_rng(4)
    table = BoxTable.from_frames({"a": [random_box(rng)],
                                  "b": [random_box(rng), random_box(rng, source="radar")]})
    getattr(table, column)[2] = code
    with pytest.raises(ValueError, match=re.escape(f"frames: frame 'b' box 1: {message}")):
        save_frames(tmp_path / "a.frames", table)
    assert not list(tmp_path.iterdir())
    with pytest.raises(ValueError, match=re.escape(f"frame 'b' box 1: {message}")):
        table.frames()


def test_save_frames_refuses_a_manifest_that_is_not_a_string(tmp_path):
    with pytest.raises(TypeError, match=re.escape("frames: manifest 5 is not a string")):
        save_frames(tmp_path / "a.frames", {}, 5)
    assert not list(tmp_path.iterdir())


def _parse_floats_one_by_one(text: str, n: int, where: str) -> np.ndarray:
    """The matrix parse as it was, one Python ``float()`` per value."""
    parts = text.split()
    if len(parts) != n:
        raise ParseError(f"{where}: expected {n} values, found {len(parts)}")
    try:
        values = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ParseError(f"{where}: malformed number: {exc}") from exc
    finite = np.isfinite(values)
    if not finite.all():
        raise ParseError(f"{where}: non-finite number {parts[int(np.argmin(finite))]!r}")
    return values


def _parse_outcome(parse, text: str, n: int):
    try:
        values = parse(text, n, "m: matrix row 0")
    except ParseError as exc:
        return "error", str(exc)
    return values.dtype.str, values.tobytes()


def test_matrix_rows_parse_as_one_float_per_value_did():
    # One C call per row must keep every bit and every error text of the
    # per-value parse: the special spellings, overflow to inf, underscores,
    # non-ASCII digits and junk, then repr'd doubles across 1e-300..1e300.
    odd = ["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400", "1e-400",
           "1_0", "1__0", "_1", "١٢", "１.５", "²", "0x10", "1e",
           "abc", "+1.5", "-0.0", "0.5\x00"]
    texts = odd + [f"0.25 {p}" for p in odd] + [" ".join(odd), "1 2", ""]
    rng = np.random.default_rng(41)
    doubles = 10.0 ** rng.uniform(-300, 300, 20_000) * rng.choice([-1.0, 1.0], 20_000)
    texts += [" ".join(repr(float(v)) for v in chunk) for chunk in doubles.reshape(-1, 100)]
    # The memo path shares one memo across every text, as a file's rows do, so
    # "0.25 abc" and "0.25 inf" meet a bad token after an already parsed one,
    # and a non-finite token parsed once is refused again where it repeats.
    memo = formats._FloatMemo()
    memoized = partial(formats._parse_floats, memo=memo)
    for text in texts:
        n = len(text.split())
        for count in (n, n + 1):
            old = _parse_outcome(_parse_floats_one_by_one, text, count)
            assert _parse_outcome(formats._parse_floats, text, count) == old, text
            assert _parse_outcome(memoized, text, count) == old, text
    assert "0.25" in memo and "inf" in memo and "abc" not in memo


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
    """save_frames writes exactly the compact reference document of its payload."""
    frames, manifest = FRAMES_CASES[case]
    save_frames(tmp_path / "x.frames", frames, manifest)
    expected = make_document(FRAMES_MAGIC, _frames_payload(frames, manifest), indent=None)
    assert (tmp_path / "x.frames").read_text() == expected
    assert load_frames(tmp_path / "x.frames").keys() == frames.keys()


# Each bound of the magnitudes at which orjson's float text is not
# ``float.__repr__``'s, [1e-9, 1e-4) and from 1e16, with its neighbours and
# both signs, and the extremes.
_BOUNDS = [float(np.nextafter(b, toward)) for b in (1e-9, 1e-4, 1e16)
           for toward in (0.0, b, np.inf)]
_EDGES = [*_BOUNDS, *(-b for b in _BOUNDS), 0.0, -0.0, 5e-324, -5e-324,
          float(np.finfo(float).max), -float(np.finfo(float).max)]
_ODD_TEXTS = ['q"uote', "back\\slash", "ctl\x00\x01\x1f\t\n", "del\x7f", "\u00e9\u6771",
              "\U0001f600", "lone\ud800", "\udfff", "f0:1e5,0.00001", "[1e16]", ""]
_WIDTH = {"center": 3, "size": 3, "yaw": 1, "score": 1, "velocity": 2}
_ADMITS = {"center": np.isfinite, "size": lambda v: v > 0.0, "yaw": np.isfinite,
           "score": lambda v: (v >= 0.0) & (v <= 1.0), "velocity": np.isfinite}


def _plain(v: np.ndarray) -> np.ndarray:
    a = np.abs(v)
    return ~(((a >= 1e-9) & (a < 1e-4)) | (a >= 1e16))


def _doubles(rng, n: int, column: str, keep=np.isfinite) -> np.ndarray:
    """``n`` rows of ``column`` values drawn by their 64 bits, every magnitude
    alike, that the column's rule and ``keep`` pass."""
    size = n * _WIDTH[column]
    drawn = rng.integers(0, 2**64, size=8 * size + 64, dtype=np.uint64).view(np.float64)
    drawn = drawn[np.isfinite(drawn)]
    return drawn[_ADMITS[column](drawn) & keep(drawn)][:size].reshape(n, _WIDTH[column])


@pytest.mark.parametrize("seed", range(24))
def test_save_frames_text_is_stdlib_json_on_any_value(tmp_path, seed):
    """orjson encodes box records, so this holds the writer, under whatever
    orjson release is installed, to stdlib's text: frames of random doubles of
    every magnitude, frames of only those orjson writes as repr does, one frame
    per edge value holding it alone, and ids and manifests with characters
    neither encoder writes as they are."""
    rng = np.random.default_rng(seed)
    counts = [*rng.integers(0, 9, size=int(rng.integers(1, 12))).tolist(), *[1] * len(_EDGES)]
    n, edge_rows = sum(counts), range(sum(counts) - len(_EDGES), sum(counts))
    plain = np.repeat(rng.random(len(counts)) < 0.5, counts)
    plain[edge_rows] = True
    columns = {c: np.where(plain[:, None], _doubles(rng, n, c, _plain), _doubles(rng, n, c))
               for c in _WIDTH}
    for row, edge in zip(edge_rows, _EDGES):
        column = str(rng.choice([c for c in _WIDTH if _ADMITS[c](edge)]))
        columns[column][row, rng.integers(_WIDTH[column])] = edge
    has_velocity = rng.random(n) < 0.5
    has_velocity[edge_rows] = True
    odd = [_ODD_TEXTS[k] for k in rng.permutation(len(_ODD_TEXTS))[:3]]
    ids = [*odd, *(f"{k:06d}" for k in range(len(counts) - len(odd)))]
    table = BoxTable(
        tuple(ids), np.array([0, *np.cumsum(counts)]), columns["center"], columns["size"],
        columns["yaw"][:, 0], columns["score"][:, 0],
        rng.integers(0, len(CLASSES), n).astype(np.int8),
        rng.integers(0, len(SOURCES), n).astype(np.int8),
        np.where(has_velocity[:, None], columns["velocity"], 0.0), has_velocity)
    manifest = [None, *_ODD_TEXTS][int(rng.integers(len(_ODD_TEXTS) + 1))]
    save_frames(tmp_path / "x.frames", table, manifest)
    expected = make_document(FRAMES_MAGIC, _frames_payload(table.frames(), manifest), indent=None)
    assert (tmp_path / "x.frames").read_text() == expected
    assert load_frames(tmp_path / "x.frames", as_table=True).frame_ids == tuple(sorted(ids))


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
    with pytest.raises(ParseError, match=r"lidar_ids\[0\]: expected an integer, got 'L0'"):
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


@pytest.mark.parametrize("save, record, message", [
    ("report", {"per_class": {10: 1, 9: 2}}, r"record\.per_class: key 10 is not a string"),
    ("report", {"rows": [{"a": 1, 2: "b"}]}, r"record\.rows\[0\]: key 2 is not a string"),
    ("manifest", {**_MANIFEST, "config": {"thresholds": {0.5: "car"}}},
     r"manifest record\.config\.thresholds: key 0\.5 is not a string"),
    ("manifest", {**_MANIFEST, "config": {"b": 1, 3: 2}},
     r"manifest record\.config: key 3 is not a string"),
], ids=["report-int-keys", "report-mixed-keys-in-list", "manifest-float-key",
        "manifest-mixed-keys"])
def test_non_string_record_key_is_refused_before_writing(tmp_path, save, record, message):
    """A key ``_json_body`` would sort before turning it into a string is an error."""
    path = tmp_path / f"out.{save}"
    with pytest.raises(TypeError, match=message):
        if save == "report":
            save_report(path, "evaluation", record)
        else:
            save_manifest(path, record)
    assert list(tmp_path.iterdir()) == []


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


JSON_KINDS = tuple(kind for kind in KINDS if kind != "vismatrix")


@pytest.mark.parametrize("kind", JSON_KINDS)
def test_every_json_body_is_the_compact_dump_of_its_payload(tmp_path, kind):
    _one_of_each_kind(tmp_path)
    text = (tmp_path / f"a.{kind}").read_text()
    payload = json.loads(text.split("\n", 1)[1])["payload"]
    assert text == make_document(f"crossview.{kind}", payload, indent=None)


@pytest.mark.parametrize("kind", JSON_KINDS)
def test_indented_version_2_file_loads_like_its_compact_rewrite(tmp_path, kind):
    """Files earlier builds wrote, with two-space indents, still load unchanged.

    ``make_document``'s default layout is byte for byte what those builds'
    writer produced: ``json.dumps(..., sort_keys=True, indent=2)`` and a newline.
    """
    loaders = _one_of_each_kind(tmp_path)
    compact = tmp_path / f"a.{kind}"
    indented = tmp_path / f"b.{kind}"
    payload = json.loads(compact.read_text().split("\n", 1)[1])["payload"]
    indented.write_text(make_document(f"crossview.{kind}", payload))
    assert indented.read_bytes() != compact.read_bytes()
    assert loaders[kind](indented) == loaders[kind](compact)


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


@pytest.mark.parametrize("code, is_path_fault", [
    (errno.EACCES, True), (errno.EEXIST, True), (errno.EISDIR, True), (errno.ENOENT, True),
    (errno.ENOTDIR, True), (errno.ENAMETOOLONG, True), (errno.ELOOP, True),
    (errno.ENOSPC, False), (errno.EIO, False)])
def test_only_a_path_that_cannot_hold_a_file_is_a_write_error(tmp_path, monkeypatch, code,
                                                              is_path_fault):
    """A path fault is WriteError (exit 3); a full disk or an I/O fault keeps its OSError."""
    exc = OSError(code, os.strerror(code))
    assert formats.cannot_write(exc) is is_path_fault

    def fail(self, data):
        raise exc

    monkeypatch.setattr(type(tmp_path), "write_bytes", fail)
    with pytest.raises(formats.WriteError if is_path_fault else OSError) as raised:
        save_scene(tmp_path / "site.scene", square_scene())
    assert isinstance(raised.value, formats.WriteError) is is_path_fault
