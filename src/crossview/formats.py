"""Text file formats: scenes, visibility matrices, frames, reports.

Every kind, the matrix included, has one envelope: a header line
``<magic> <version> <sha256>`` (e.g. ``crossview.scene 2 9f86...``), then a
body whose bytes on disk the digest covers, so truncation and edits fail
loudly on load; version 1 files are rejected.  A scene's identity is the
digest its file's header carries.  JSON bodies hold ``{"payload": ...}`` on
one line with sorted keys and no whitespace between tokens; loaders accept
any whitespace, so files written with the two-space indents of earlier
builds still load.  A matrix body is plain header lines plus one row per
candidate, printed to 9 significant digits, which reparse to the same text,
so a load/save cycle is byte stable.  One rule set covers a matrix file:
``_check_matrix`` states every rule its values keep; ``save_matrix`` runs it
before writing and ``load_matrix`` after parsing, so the writer refuses what
the reader would.  A matrix holds few distinct values (a visibility entry is
a lattice fraction), so each distinct value is printed once per save and
each distinct token parsed once per load; both conversions are correctly
rounded, so this gives the bits one conversion per entry would.  Writes go
to a temp file that is then renamed over the target, so no reader sees half
a file.

Loaders are strict: unknown fields, missing fields, version mismatches and
malformed numbers all raise ParseError naming the offending part as
``<file>.<path>``, a list entry by its index.  Every JSON record is a
``{field: check}`` table read by one loop, ``_record``; only a frames file,
the hot path of re-scoring, has a hand-written reader, and matrix bodies are
text rows.  A frames file has one reader, ``_frames_table``, which builds a
``boxes.BoxTable`` and no ``DetectionBox``: it checks the frame records in
order and the box records a column at a time, their JSON shapes here and the
constructor's value rules through ``boxes.value_fault``.  Only a check that
fails sends the box records, one by one, through ``_box_from_record`` to
name the first fault.  ``load_frames`` returns the table itself
(``as_table``) or turns it into boxes.  A frames body is parsed by orjson,
every other kind by stdlib json; text orjson refuses, and a document the
checks refuse, are parsed again by stdlib json and checked again, so every
fault is named in the words of the other kinds.  A document that passes the
checks reads the same under both parsers: each value in it is checked, and
both give a number the same float.  It has one writer: ``save_frames``
turns a ``{frame_id: boxes}`` mapping into a table, whose frame ids are
distinct, refuses a frame id or manifest that is not a string and a value
``boxes.value_fault`` names, as the reader would, and writes the table's rows
as records, the text ``_json_body`` would write, byte for byte.  orjson
encodes each frame's records, whose dicts are built in sorted key order;
stdlib json encodes the frame ids, the manifest, and the records of a frame
holding a float that orjson writes in another form than ``float.__repr__``.

The scene table ``_SCENE`` is the one statement of a scene's fields: a file
is read through it by ``load_scene``, and a scene built in Python, as
``scene_payload`` turns it into file data, by ``validate_scene``, before the
range rules of ``scene.range_violations``.  Weights key cells by ``str(int)``.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import os
from contextlib import suppress
from dataclasses import asdict, dataclass, fields, is_dataclass
from functools import partial
from itertools import accumulate, chain
from operator import itemgetter, lt
from pathlib import Path

import numpy as np
import orjson

from .boxes import (
    _CLASS_CODE,
    _SOURCE_CODE,
    CLASSES,
    SOURCES,
    BoxTable,
    DetectionBox,
    normalize_yaw,
    value_fault,
)
from .coverage import CoverageReport
from .metrics import FramePair, pair_frames
from .placement import BUDGET_MODES
from .scene import (
    LIDAR,
    MAX_BEAMS,
    MAX_GRID_SIDE,
    RADAR,
    CandidateMount,
    GridSpec,
    Occluder,
    RegionOfInterest,
    Scene,
    SensorSpec,
    range_violations,
)
from .visibility import VisibilityMatrix

SCENE_MAGIC = "crossview.scene"
MATRIX_MAGIC = "crossview.vismatrix"
FRAMES_MAGIC = "crossview.frames"
REPORT_MAGIC = "crossview.report"
SOLUTION_MAGIC = "crossview.solution"
MANIFEST_MAGIC = "crossview.manifest"
FORMAT_VERSION = 2


class ParseError(ValueError):
    """A file failed validation against its declared format."""


class WriteError(Exception):
    """An output path that cannot hold a file or may not be written (``cannot_write``);
    a full disk, say, is a failed write instead, and keeps its own OSError."""

    def __init__(self, path, exc: OSError):
        super().__init__(f"cannot write {path}: {exc.strerror}")


# A missing folder, a folder in the file's place, a file in a folder's place, a
# folder or file without write permission, a name too long, a symlink loop.
_CANNOT_WRITE = (FileExistsError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
                 PermissionError)
_CANNOT_WRITE_ERRNOS = frozenset({errno.ENAMETOOLONG, errno.ELOOP})


def cannot_write(exc: BaseException) -> bool:
    """Whether ``exc`` says its path cannot hold a file or may not be written."""
    return isinstance(exc, _CANNOT_WRITE) or (isinstance(exc, OSError)
                                              and exc.errno in _CANNOT_WRITE_ERRNOS)


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _body_digest(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temp file beside ``path``, then rename it over ``path``.

    The target is replaced whole or not at all, and no temp file is left
    behind.  A path that cannot hold a file, or may not be written, raises
    WriteError.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):  # the temp file, or its folder, may not exist
            tmp.unlink()
        if cannot_write(exc):
            raise WriteError(path, exc) from exc
        raise


def _write_artifact(path, magic: str, body: bytes) -> None:
    """Write the header line and ``body`` through ``write_atomic``."""
    write_atomic(path, f"{magic} {FORMAT_VERSION} {_body_digest(body)}\n".encode() + body)


def read_input(path) -> bytes:
    """An input file's bytes; a path that cannot be read (a directory, a path
    below a file, no permission, a name too long, a symlink loop) is a
    ParseError, as is a name holding a NUL.  A missing file raises FileNotFoundError."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror}") from exc
    except ValueError as exc:  # embedded null byte
        raise ParseError(f"{path}: cannot read: {exc}") from exc


def _read_artifact(path, magic: str) -> tuple[str, str]:
    """The body of a ``magic`` file whose header and digest check out, and that digest."""
    head, newline, body = read_input(path).partition(b"\n")
    if not newline:
        raise ParseError(f"{path}: missing magic line")
    first = head.decode("utf-8", "replace")
    parts = first.split()
    if len(parts) not in (2, 3):
        raise ParseError(f"{path}: malformed magic line {first!r}")
    if parts[0] != magic:
        raise ParseError(f"{path}: expected {magic} file, found {parts[0]!r}")
    if parts[1] != str(FORMAT_VERSION) or len(parts) != 3:
        raise ParseError(
            f"{path}: unsupported {magic} version {' '.join(parts[1:])!r}"
            f" (this build reads version {FORMAT_VERSION} followed by a sha256 digest)"
        )
    if _body_digest(body) != parts[2]:
        raise ParseError(f"{path}: content hash mismatch; file is truncated, corrupt or edited")
    try:
        return body.decode("utf-8"), parts[2]
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: body is not UTF-8 text: {exc}") from exc


def _json_body(payload: dict) -> bytes:
    """The body of every JSON kind but frames, whose writer gives the same text.
    With no ``indent``, stdlib's C encoder runs; it writes floats as
    ``float.__repr__`` does, tuples as lists and every character past ASCII as
    an escape, and refuses a numpy int or array with its own TypeError.  No
    payload holds a cycle."""
    return (json.dumps({"payload": payload}, sort_keys=True, separators=(",", ":"),
                       allow_nan=False, check_circular=False) + "\n").encode()


def _string_keys(value, where: str) -> None:
    """Refuse a non-string dict key anywhere in ``value``: ``_json_body`` sorts keys
    before it turns them into strings, so they would not reload to the same bytes."""
    if isinstance(value, dict):
        for key, child in value.items():
            if not isinstance(key, str):
                raise TypeError(f"{where}: key {key!r} is not a string")
            _string_keys(child, f"{where}.{key}")
    elif isinstance(value, (list, tuple)):
        for k, child in enumerate(value):
            _string_keys(child, f"{where}[{k}]")


def _reject_constant(name: str):
    raise ParseError(f"non-finite JSON constant {name!r} is not allowed")


def parse_json(text, what: str, **options):
    """``json.loads(text, **options)``; text that does not parse is a ParseError
    ``<what>: <json's reason>``."""
    try:
        return json.loads(text, **options)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer past int()'s digit limit, or lists or
        # objects nested past the recursion limit
        raise ParseError(f"{what}: {exc}") from exc


def _parse_body(text: str, path):
    """A JSON body parsed by stdlib json, which names every fault of its text."""
    return parse_json(text, f"{path}: invalid or truncated JSON body",
                      parse_constant=_reject_constant)


def _payload(body, where: str) -> dict:
    return _record(body, {"payload": _mapping}, where)["payload"]


def _load_document(path, expected_magic: str) -> tuple[dict, str]:
    """The payload of a JSON-bodied file, and its verified header digest."""
    text, digest = _read_artifact(path, expected_magic)
    return _payload(_parse_body(text, path), str(path)), digest


def _require_keys(d: dict, required, optional, where: str) -> None:
    missing = required - d.keys()
    if missing:
        raise ParseError(f"{where}: missing field {sorted(missing)[0]!r}")
    unknown = d.keys() - required - optional
    if unknown:
        raise ParseError(f"{where}: unknown field {sorted(unknown)[0]!r}")


# -- one record reader: a check is ``check(value, where) -> value read`` --------

def _record(value, checks: dict, where: str, optional=frozenset()) -> dict:
    """The object ``value``'s fields, each read by its check; those outside
    ``optional`` are required, and a field ``checks`` does not name is an error."""
    _require_keys(_mapping(value, where), checks.keys() - optional, optional, where)
    return {key: check(value[key], f"{where}.{key}")
            for key, check in checks.items() if key in value}


def _build(cls, checks: dict, optional=frozenset()):
    """A check for a record over ``checks``, read into ``cls`` (a dataclass, whose
    defaults fill absent fields, or ``dict``)."""
    return lambda value, where: cls(**_record(value, checks, where, optional))


def _list_of(check, into=tuple):
    """A check for a list whose entries each pass ``check``, read into ``into``.

    Entries are checked under the list's location, and again under ``[k]``
    locations only once one has failed (a ParseError, or the ValueError of a
    range check), to name it.
    """
    def read(value, where: str):
        if not isinstance(value, list):
            raise ParseError(f"{where}: expected a list")
        try:
            return into([check(v, where) for v in value])
        except ValueError:
            for k, v in enumerate(value):
                check(v, f"{where}[{k}]")
            raise
    return read


def _distinct(check):
    """``check`` for a list, and then no entry may appear twice."""
    def read(value, where: str):
        entries = check(value, where)
        seen = set()
        for entry in entries:
            if entry in seen:
                raise ParseError(f"{where}: {entry!r} appears twice")
            seen.add(entry)
        return entries
    return read


def _dict_of(check, key=lambda k, where: k):
    """A check for an object whose values each pass ``check``; ``key`` reads each key."""
    def read(value, where: str) -> dict:
        items = _mapping(value, where).items()
        try:
            return {key(k, where): check(v, where) for k, v in items}
        except ValueError:
            for k, v in items:
                key(k, where)
                check(v, f"{where}.{k}")
            raise
    return read


def _numbers(n: int):
    """A check for a list of ``n`` numbers, read as a tuple of floats."""
    numbers = _list_of(_number)

    def read(value, where: str) -> tuple[float, ...]:
        if not isinstance(value, list) or len(value) != n:
            raise ParseError(f"{where}: expected a list of {n} numbers")
        return numbers(value, where)
    return read


def _optional(check):
    """``check``, except that null reads as None."""
    return lambda value, where: None if value is None else check(value, where)


def _mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected an object")
    return value


def _number(value, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):  # 1e400 loads as inf
        raise ParseError(f"{where}: expected a finite number, got {value!r}")
    return number


def _nonnegative(value, where: str) -> float:
    number = _number(value, where)
    if number < 0.0:
        raise ParseError(f"{where}: expected a nonnegative number, got {value!r}")
    return number


def _integer(value, where: str, maximum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    if maximum is not None and value > maximum:
        raise ParseError(f"{where}: expected an integer of at most {maximum}, got {value!r}")
    return value


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{where}: expected a string, got {value!r}")
    return value


def _nonempty_string(value, where: str) -> str:
    if not _string(value, where):
        raise ParseError(f"{where}: expected a nonempty string")
    return value


def _choice(options):
    """A check for a string among ``options``."""
    def read(value, where: str) -> str:
        if not isinstance(value, str) or value not in options:
            raise ParseError(f"{where}: expected one of {', '.join(options)}, got {value!r}")
        return value
    return read


def _boolean(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ParseError(f"{where}: expected true or false, got {value!r}")
    return value


def _cell_key(key: str, where: str) -> int:
    """A cell index in the one form ``save_scene`` writes, ``str(int)``, so no two
    keys (``"3"`` and ``"03"``) name one cell."""
    try:
        if str(cell := int(key)) == key:
            return cell
    except ValueError:
        pass
    raise ParseError(f"{where}: bad cell key {key!r}")


# -- scenes -----------------------------------------------------------------

_CANDIDATES = _list_of(_build(CandidateMount, {
    "id": _nonempty_string,
    "position": _numbers(3),
    "spec": _build(SensorSpec, {
        "modality": _string, "hfov_deg": _number, "vfov_deg": _number,
        "max_range_m": _number, "rate_hz": _number, "unit_cost": _number,
        "beams": _optional(partial(_integer, maximum=MAX_BEAMS)),
    }, {"unit_cost", "beams"}),
    "yaw_deg": _number,
    "pitch_deg": _number,
}, {"yaw_deg", "pitch_deg"}))
_GRID_SIDE = partial(_integer, maximum=MAX_GRID_SIDE)
_SCENE = _build(Scene, {
    "grid": _build(GridSpec, {"origin_xy": _numbers(2), "cell_size": _number,
                              "nx": _GRID_SIDE, "ny": _GRID_SIDE}),
    "roi": _build(RegionOfInterest, {"cells": _list_of(_integer, frozenset),
                                     "weights": _dict_of(_number, _cell_key)}, {"weights"}),
    "occluders": _list_of(_build(Occluder, {"min_corner": _numbers(3),
                                            "max_corner": _numbers(3)})),
    "lidar_candidates": _CANDIDATES,
    "radar_candidates": _CANDIDATES,
})


def scene_payload(value):
    """A scene, or any part of one, as the JSON data its file holds, for ``_SCENE``
    to read: a part becomes a dict of its fields, a tuple or list a list, a
    frozenset a sorted list, a dict one with str keys; anything else stays as it is."""
    if isinstance(value, (int, float, str)):  # the leaves, most of a scene
        return value
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: scene_payload(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, frozenset):
        try:
            value = sorted(value)
        except TypeError:  # mixed kinds, which the reader refuses: order them by kind and text
            value = sorted(value, key=lambda v: (type(v).__name__, repr(v)))
    if isinstance(value, (tuple, list)):
        return [scene_payload(v) for v in value]
    if isinstance(value, dict):
        return {str(k): scene_payload(v) for k, v in value.items()}
    return value


def validate_scene(scene: Scene) -> list[str]:
    """Collect every invariant violation; an empty list means the scene is valid.

    The scene is first read as ``load_scene`` reads its file, under the same
    kinds and limits: the first fault, in the reader's words, a list that holds
    itself, or a scene that would read back as another, is the one violation.
    Only a scene that reads back as itself gets ``range_violations``, which
    reports all it finds.  Never raises on bad scenes; side-effect free.
    """
    try:
        read = _SCENE(scene_payload(scene), "scene")
    except ParseError as exc:
        return [str(exc)]
    except RecursionError:  # a list that holds itself, which no file can
        return ["scene: a list or dict holds itself, or nests too deep for a file"]
    if read != scene:
        return ["scene: its file would read back as another scene: a list where a tuple "
                "belongs, a dict for a part, cells not in a frozenset or a weight key not an int"]
    return range_violations(scene)


def scene_hash(scene: Scene) -> str:
    """The digest in the header of the file ``save_scene`` writes for ``scene``.

    A loaded scene's identity is its own file's digest (``load_scene_with_digest``).
    """
    return _body_digest(_json_body(scene_payload(scene)))


def save_scene(path, scene: Scene) -> None:
    _write_artifact(path, SCENE_MAGIC, _json_body(scene_payload(scene)))


def load_scene(path) -> Scene:
    return load_scene_with_digest(path)[0]


def load_scene_with_digest(path) -> tuple[Scene, str]:
    """A scene and the verified digest in its file's header: the scene's identity."""
    payload, digest = _load_document(path, SCENE_MAGIC)
    return _SCENE(payload, str(path)), digest


# -- visibility matrices ----------------------------------------------------

@dataclass(frozen=True)
class MatrixFile:
    """A visibility matrix plus everything needed to optimize from it."""

    matrix: VisibilityMatrix
    scene_hash: str
    cells: tuple[int, ...]
    weights: np.ndarray
    costs: np.ndarray
    ids: tuple[str, ...]
    manifest: str | None = None


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def _check_matrix(mf: MatrixFile) -> None:
    """Every value rule of a matrix file: ``save_matrix`` checks before it writes,
    ``load_matrix`` after it parses.  Raises ValueError for the first rule broken."""
    values, cells, ids = mf.matrix.values, mf.cells, mf.ids
    rows, cols = values.shape
    if rows and not cols:  # its rows would be blank lines, which the loader skips
        raise ValueError(f"a {rows} x {cols} matrix has rows but no columns; "
                         "its file would not load")
    if len(cells) != cols:
        raise ValueError("cells length must match matrix columns")
    if mf.weights.shape != (cols,):
        raise ValueError("weights length must match matrix columns")
    if mf.costs.shape != (rows,) or len(ids) != rows:
        raise ValueError("costs and ids length must match matrix rows")
    for key, text in (("modality", mf.matrix.modality), ("scene_hash", mf.scene_hash),
                      ("manifest", mf.manifest or "")):
        if "\n" in text:  # a header field is one line
            raise ValueError(f"{key} {text!r} holds a line break")
    if bad := [i for i in ids if i.split() != [i]]:  # the ids line is split on whitespace
        raise ValueError(f"candidate id {bad[0]!r} is not one token; its file would not load")
    if (any(t is bool or not issubclass(t, (int, np.integer)) for t in set(map(type, cells)))
            or not all(map(lt, (-1, *cells), cells))):
        raise ValueError("cells must be strictly increasing nonnegative integers")
    if len(set(ids)) != rows:
        raise ValueError("ids must be unique")
    if not np.isfinite(np.hstack([mf.matrix.epsilon, mf.weights, mf.costs])).all():
        raise ValueError("epsilon, weights and costs must be finite")
    # The largest entry as printed (0.9999999999 prints as 1); nan fails both tests.
    if values.size and not (values.min() >= 0.0 and float(_fmt(values.max())) < 1.0):
        raise ValueError("matrix entries must lie in [0, 1)")


def save_matrix(path, mf: MatrixFile) -> None:
    _check_matrix(mf)
    rows, cols = mf.matrix.values.shape
    lines = [f"modality {mf.matrix.modality}", f"rows {rows}", f"cols {cols}",
             f"epsilon {_fmt(mf.matrix.epsilon)}", f"scene_hash {mf.scene_hash}",
             "cells " + " ".join(map(str, mf.cells)),
             "weights " + " ".join(_fmt(w) for w in mf.weights),
             "costs " + " ".join(_fmt(c) for c in mf.costs), "ids " + " ".join(mf.ids)]
    if mf.manifest is not None:
        lines.append(f"manifest {mf.manifest}")
    # One _fmt call per distinct bit pattern, so -0.0 prints apart from 0.0.
    bits = np.ascontiguousarray(mf.matrix.values, dtype=np.float64).view(np.uint64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array([_fmt(v) for v in distinct.view(np.float64)], dtype=object)
    lines.extend(" ".join(row) for row in texts[inverse.reshape(rows, cols)].tolist())
    _write_artifact(path, MATRIX_MAGIC, ("\n".join(lines) + "\n").encode())


class _FloatMemo(dict):
    """Token text to ``float(token)``, each distinct token parsed once."""

    def __missing__(self, token: str) -> float:
        value = self[token] = float(token)
        return value


def _parse_floats(text: str, n: int, where: str, memo: _FloatMemo | None = None) -> np.ndarray:
    """``n`` finite floats from ``text``; with ``memo``, repeated tokens are parsed once
    (for matrix rows: a header list of mostly distinct values is faster without)."""
    parts = text.split()
    if len(parts) != n:
        raise ParseError(f"{where}: expected {n} values, found {len(parts)}")
    try:
        if memo is None:
            values = np.array(parts, dtype=float)
        else:
            values = np.fromiter(map(memo.__getitem__, parts), float, n)
    except ValueError as exc:
        raise ParseError(f"{where}: malformed number: {exc}") from exc
    finite = np.isfinite(values)
    if not finite.all():
        raise ParseError(f"{where}: non-finite number {parts[int(np.argmin(finite))]!r}")
    return values


def load_matrix(path) -> MatrixFile:
    lines = _read_artifact(path, MATRIX_MAGIC)[0].split("\n")  # the one separator written
    header: dict[str, str] = {}
    required = {"modality", "rows", "cols", "epsilon", "scene_hash",
                "cells", "weights", "costs", "ids"}
    optional = {"manifest"}
    pos = 0
    while pos < len(lines):
        key, _, text = lines[pos].partition(" ")
        if key not in required and key not in optional:
            break
        if key in header:
            raise ParseError(f"{path}: duplicate header field {key!r}")
        header[key] = text
        pos += 1
    _require_keys(header, required, optional, str(path))
    try:
        rows, cols = int(header["rows"]), int(header["cols"])
    except ValueError as exc:
        raise ParseError(f"{path}: rows/cols must be integers") from exc
    if rows < 0 or cols < 0:
        raise ParseError(f"{path}: rows/cols must be nonnegative")
    epsilon = float(_parse_floats(header["epsilon"], 1, f"{path}: epsilon")[0])

    cell_parts = header["cells"].split()
    if len(cell_parts) != cols:
        raise ParseError(f"{path}: cells lists {len(cell_parts)} entries, expected {cols}")
    try:
        cells = tuple(map(int, cell_parts))
    except ValueError as exc:
        raise ParseError(f"{path}: cells must be integers") from exc
    weights = _parse_floats(header["weights"], cols, f"{path}: weights")
    costs = _parse_floats(header["costs"], rows, f"{path}: costs")
    ids = tuple(header["ids"].split())
    if len(ids) != rows:
        raise ParseError(f"{path}: ids lists {len(ids)} entries, expected {rows}")

    data_lines = [ln for ln in lines[pos:] if ln.strip()]
    if len(data_lines) != rows:
        raise ParseError(f"{path}: found {len(data_lines)} matrix rows, expected {rows}")
    values = np.zeros((rows, cols))
    memo = _FloatMemo()
    for i, line in enumerate(data_lines):
        values[i] = _parse_floats(line, cols, f"{path}: matrix row {i}", memo)
    mf = MatrixFile(VisibilityMatrix(header["modality"], values, epsilon), header["scene_hash"],
                    cells, weights, costs, ids, header.get("manifest"))
    try:
        _check_matrix(mf)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return mf


# -- detection frames -------------------------------------------------------

# The types a JSON number loads as; ``true`` loads as a bool, which is neither.
_JSON_NUMBERS = frozenset({int, float})
_BOX_KEYS = frozenset(f.name for f in fields(DetectionBox))
_BOX_REQUIRED = _BOX_KEYS - {"velocity"}
_FRAME_KEYS = frozenset({"frame_id", "boxes"})
_CLASS_NAMES = np.array(CLASSES, dtype=object)
_SOURCE_NAMES = np.array(SOURCES, dtype=object)


def _is_numbers(value, n: int) -> bool:
    return type(value) is list and len(value) == n and _JSON_NUMBERS.issuperset(map(type, value))


def _box_from_record(rec) -> DetectionBox:
    """Check one box record's types; DetectionBox checks the ranges.

    Messages name the field relative to the box, and the caller adds the
    box's location.
    """
    _require_keys(_mapping(rec, ""), _BOX_REQUIRED, {"velocity"}, "")
    center, size, velocity = rec["center"], rec["size"], rec.get("velocity")
    if not _is_numbers(center, 3):
        raise ParseError(f".center: expected a list of 3 numbers, got {center!r}")
    if not _is_numbers(size, 3):
        raise ParseError(f".size: expected a list of 3 numbers, got {size!r}")
    if velocity is not None and not _is_numbers(velocity, 2):
        raise ParseError(f".velocity: expected a list of 2 numbers, got {velocity!r}")
    for key in ("yaw", "score"):
        if type(rec[key]) not in _JSON_NUMBERS:
            raise ParseError(f".{key}: expected a number, got {rec[key]!r}")
    try:
        return DetectionBox(center, size, rec["yaw"], rec["class_label"], rec["score"],
                            rec["source"], velocity)
    except (ValueError, OverflowError) as exc:  # OverflowError: an integer past the float range
        raise ParseError(f": {exc}") from exc


def _frame_records(table: BoxTable) -> list[tuple[int, list[dict]]]:
    """A table's frames as (frame index, box records) pairs: frames by id, each
    frame's boxes by descending score, ties by ``sort_key``, and rows tied on both
    in table order.  Every record's dict is built in sorted key order."""
    frames = sorted(range(len(table.frame_ids)), key=table.frame_ids.__getitem__)
    at = np.empty(len(frames), dtype=np.intp)
    at[frames] = np.arange(len(frames))
    order = np.lexsort((table.sort_rank, -table.score, at[table.frame]))
    velocity = [None] * len(order)
    moving = np.flatnonzero(table.has_velocity[order])
    for k, v in zip(moving.tolist(), table.velocity[order[moving]].tolist()):
        velocity[k] = v
    records = [{"center": c, "class_label": label, "score": score, "size": size,
                "source": source, "velocity": v, "yaw": yaw}
               for c, size, yaw, score, label, source, v in zip(
                   table.center[order].tolist(), table.size[order].tolist(),
                   table.yaw[order].tolist(), table.score[order].tolist(),
                   _CLASS_NAMES[table.label[order]].tolist(),
                   _SOURCE_NAMES[table.source[order]].tolist(), velocity)]
    cuts = [0, *accumulate(np.diff(table.offsets)[frames].tolist())]
    return [(frame, records[cuts[k]:cuts[k + 1]]) for k, frame in enumerate(frames)]


def _repr_form_frames(table: BoxTable) -> np.ndarray:
    """Which frames hold a float that orjson writes in another form than
    ``float.__repr__``: a magnitude in [1e-9, 1e-4) (``0.0000514``, ``2.5e-7``)
    or from 1e16 (``1e16``).  orjson writes every other float as repr does."""
    values = np.abs(np.hstack((table.center, table.size, table.yaw[:, None],
                               table.score[:, None], table.velocity)))
    rows = (((values >= 1e-9) & (values < 1e-4)) | (values >= 1e16)).any(axis=1)
    marked = np.zeros(len(table.frame_ids), dtype=bool)
    marked[table.frame[rows]] = True
    return marked


def save_frames(path, frames, manifest: str | None = None) -> None:
    """Write ``frames``, a ``{frame_id: boxes}`` mapping or a ``BoxTable``; its
    frame ids must be distinct strings, its manifest a string and its values
    ones ``DetectionBox`` takes, as the loader reads them.

    The body is the text ``_json_body`` would write, byte for byte.  orjson
    encodes each frame's box records; stdlib json encodes the frame ids, the
    manifest, and the records of a frame that ``_repr_form_frames`` marks.
    """
    table = frames if isinstance(frames, BoxTable) else BoxTable.from_frames(frames)
    for fid in table.frame_ids:
        if not isinstance(fid, str):
            raise TypeError(f"frames: frame id {fid!r} is not a string")
    if manifest is not None and not isinstance(manifest, str):
        raise TypeError(f"frames: manifest {manifest!r} is not a string")
    fault = value_fault(table.center, table.size, table.yaw, table.score, table.velocity)
    if fault is not None:
        row, text = fault
        frame = int(table.frame[row])
        raise ValueError(f"frames: frame {table.frame_ids[frame]!r} box "
                         f"{row - int(table.offsets[frame])}: {text}")
    marked = _repr_form_frames(table).tolist()
    chunks = [b'{"boxes":%s,"frame_id":%s}' % (
        json.dumps(records, separators=(",", ":")).encode() if marked[frame]
        else orjson.dumps(records), json.dumps(table.frame_ids[frame]).encode())
        for frame, records in _frame_records(table)]
    tail = b"" if manifest is None else b',"manifest":' + json.dumps(manifest).encode()
    _write_artifact(path, FRAMES_MAGIC,
                    b'{"payload":{"frames":[%s]%s}}\n' % (b",".join(chunks), tail))


def _box_table(frames: dict) -> BoxTable | None:
    """The table of ``{frame_id: box records}``, checked a column at a time:
    the JSON shapes, then the constructor's value rules through ``value_fault``.
    None if a record is at fault."""
    records = list(chain.from_iterable(frames.values()))
    if set(map(type, records)) - {dict}:
        return None
    if len(_BOX_REQUIRED) in set(map(len, records)):  # a box that leaves out its velocity
        records = [{"velocity": None, **rec} for rec in records]
    n = len(records)
    try:  # a missing field, an unhashable name, or an integer past the float range
        center, size, yaw, labels, score, sources, velocity = [
            list(map(itemgetter(f.name), records)) for f in fields(DetectionBox)]
        planar = [v for v in velocity if v is not None]
        if not ({len(_BOX_KEYS)}.issuperset(map(len, records))
                and {list}.issuperset(map(type, chain(center, size, planar)))
                and {3}.issuperset(map(len, chain(center, size)))
                and {2}.issuperset(map(len, planar))
                and _JSON_NUMBERS.issuperset(map(type, chain(
                    chain.from_iterable(center), yaw, score, chain.from_iterable(size + planar))))
                and _CLASS_CODE.keys() >= set(labels) and _SOURCE_CODE.keys() >= set(sources)):
            return None
        has_velocity = np.array([v is not None for v in velocity], dtype=bool)
        moving = np.zeros((n, 2))
        moving[has_velocity] = np.fromiter(chain.from_iterable(planar), float,
                                           2 * len(planar)).reshape(-1, 2)
        table = BoxTable(
            tuple(frames), np.array([0, *accumulate(map(len, frames.values()))]),
            np.fromiter(chain.from_iterable(center), float, 3 * n).reshape(n, 3),
            np.fromiter(chain.from_iterable(size), float, 3 * n).reshape(n, 3),
            np.fromiter(map(normalize_yaw, map(float, yaw)), float, n),
            np.fromiter(score, float, n),
            np.fromiter(map(_CLASS_CODE.__getitem__, labels), np.int8, n),
            np.fromiter(map(_SOURCE_CODE.__getitem__, sources), np.int8, n),
            moving, has_velocity)
    except (KeyError, TypeError, OverflowError):
        return None
    # An infinite yaw normalizes to nan, which the finiteness rule refuses too.
    if value_fault(table.center, table.size, table.yaw, table.score, table.velocity) is not None:
        return None
    return table


def _frames_table(frames: list, where: str) -> BoxTable:
    """The table of a frames list, or a ParseError naming its first fault.

    Frame records are checked in order, up to the first faulty one, and the
    box records of the frames before it by ``_box_table``.  Only if that
    refuses them are they read again, one by one in file order, by
    ``_box_from_record``, to name the first faulty box; with none, the
    faulty frame is named.
    """
    out, fault = {}, None
    for k, rec in enumerate(frames):
        try:
            _require_keys(_mapping(rec, ""), _FRAME_KEYS, set(), "")
            frame_id = rec["frame_id"]
            if not isinstance(frame_id, str):
                raise ParseError(f".frame_id: expected a string, got {frame_id!r}")
            if frame_id in out:
                raise ParseError(f": duplicate frame_id {frame_id!r}")
            if not isinstance(rec["boxes"], list):
                raise ParseError(".boxes: expected a list")
        except ParseError as exc:
            fault = ParseError(f"{where}.frames[{k}]{exc}")
            break
        out[frame_id] = rec["boxes"]
    table = _box_table(out)
    if table is None or fault is not None:
        for k, boxes in enumerate(out.values()):
            for j, rec in enumerate(boxes):
                try:
                    _box_from_record(rec)
                except ParseError as exc:
                    raise ParseError(f"{where}.frames[{k}].boxes[{j}]{exc}") from exc
        raise fault  # _box_table refuses only records that _box_from_record refuses
    return table


def _frames_document(body, where: str) -> BoxTable:
    """The table of a parsed frames body, or a ParseError naming its first fault."""
    payload = _payload(body, where)
    _require_keys(payload, {"frames"}, {"manifest"}, where)
    if not isinstance(payload["frames"], list):
        raise ParseError(f"{where}: frames must be a list")
    if "manifest" in payload:
        _string(payload["manifest"], f"{where}.manifest")
    return _frames_table(payload["frames"], where)


def load_frames(path, *, as_table: bool = False) -> dict[str, list[DetectionBox]] | BoxTable:
    """A frames file as ``{frame_id: boxes}``, or with ``as_table`` as a
    ``BoxTable``, which builds no box; a malformed file is a ParseError
    naming its first fault.

    orjson parses the body.  Text it refuses, and a document a check refuses,
    are parsed again by stdlib json and checked again, so every fault is
    named in stdlib's and the checks' words.
    """
    text, where = _read_artifact(path, FRAMES_MAGIC)[0], str(path)
    try:
        table = _frames_document(orjson.loads(text), where)
    except (ValueError, RecursionError):  # ParseError, orjson's JSONDecodeError, a deep repr
        table = _frames_document(_parse_body(text, path), where)
    return table if as_table else table.frames()


def load_frame_pairs(ground_truth_path, predictions_path) -> list[FramePair]:
    """Join two frames files on frame id; missing sides become empty."""
    return pair_frames(load_frames(ground_truth_path), load_frames(predictions_path))


# -- reports, solutions, manifests -------------------------------------------

def save_report(path, kind: str, record: dict, manifest: str | None = None) -> None:
    _string_keys(record, "record")
    payload: dict = {"kind": kind, "record": record}
    if manifest is not None:
        payload["manifest"] = manifest
    _write_artifact(path, REPORT_MAGIC, _json_body(payload))


def load_report(path) -> tuple[str, dict]:
    rec = _record(_load_document(path, REPORT_MAGIC)[0],
                  {"kind": _string, "record": _mapping, "manifest": _string}, str(path),
                  {"manifest"})
    return rec["kind"], rec["record"]


_COVERAGE_REPORT = _build(CoverageReport, {
    "config_name": _string, "central_coverage": _number, "covered_cells": _integer,
    "total_roi_cells": _integer, "total_cost": _number, "sensor_count": _integer,
    "per_modality_cost": _build(dict, {LIDAR: _number, RADAR: _number}, {LIDAR, RADAR}),
    "per_modality_covered": _build(dict, {LIDAR: _integer, RADAR: _integer}, {LIDAR, RADAR}),
    "theta": _number,
})


def coverage_from_record(record: dict, where: str) -> CoverageReport:
    """A coverage report record back as a ``CoverageReport``, every field checked."""
    return _COVERAGE_REPORT(record, where)


_EVALUATION_RECORD = {
    "matching_mode": _string,
    "mean_ap": _number,
    "per_class": _dict_of(_build(dict, {"ap": _optional(_number), "threshold": _number,
                                        "num_gt": _integer, "num_predictions": _integer},
                                 {"threshold", "num_gt", "num_predictions"})),
    "baseline": _mapping,
}


def baseline_from_record(record: dict, where: str) -> tuple[float, dict[str, float | None]]:
    """An evaluation record's mAP and per-class AP (None where undefined)."""
    rec = _record(record, _EVALUATION_RECORD, where, {"matching_mode", "baseline"})
    return rec["mean_ap"], {label: entry["ap"] for label, entry in rec["per_class"].items()}


@dataclass(frozen=True)
class SolutionFile:
    lidar_ids: tuple[int, ...]
    radar_ids: tuple[int, ...]
    lidar_candidate_ids: tuple[str, ...]
    radar_candidate_ids: tuple[str, ...]
    objective: float
    optimal: bool
    budget: float
    budget_mode: str
    seen_threshold: float
    scene_hash: str
    manifest: str | None = None


def save_solution(path, sol: SolutionFile) -> None:
    _write_artifact(path, SOLUTION_MAGIC, _json_body(asdict(sol)))


_SOLUTION = _build(SolutionFile, {
    "lidar_ids": _distinct(_list_of(_integer)), "radar_ids": _distinct(_list_of(_integer)),
    "lidar_candidate_ids": _list_of(_string), "radar_candidate_ids": _list_of(_string),
    "objective": _nonnegative, "optimal": _boolean, "budget": _number,
    "budget_mode": _choice(BUDGET_MODES), "seen_threshold": _number, "scene_hash": _string,
    "manifest": _optional(_string),
}, {"manifest"})


def load_solution(path) -> SolutionFile:
    return _SOLUTION(_load_document(path, SOLUTION_MAGIC)[0], str(path))


_MANIFEST = {"command": _string, "tool_version": _string, "inputs": _dict_of(_string),
             "outputs": _list_of(_string, list), "config": _mapping, "wall_time_s": _number}


def save_manifest(path, record: dict) -> None:
    missing = _MANIFEST.keys() - record.keys()
    if missing:
        raise ValueError(f"manifest record missing {sorted(missing)[0]!r}")
    _string_keys(record, "manifest record")
    _write_artifact(path, MANIFEST_MAGIC, _json_body(record))


def load_manifest(path) -> dict:
    """A manifest record, every field's type checked."""
    return _record(_load_document(path, MANIFEST_MAGIC)[0], _MANIFEST, str(path))
