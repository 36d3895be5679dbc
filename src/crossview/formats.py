"""Text file formats: scenes, visibility matrices, frames, reports.

Every kind, the matrix included, has one envelope: a header line
``<magic> <version> <sha256>`` (e.g. ``crossview.scene 2 9f86...``), then a
body whose bytes on disk the digest covers, so truncation and edits fail
loudly on load; version 1 files are rejected.  ``scene_hash`` is the digest
a scene file's header carries.  JSON bodies hold ``{"payload": ...}`` with
sorted keys and two-space indents.  A matrix body is plain header lines plus
one row per candidate, printed to 9 significant digits, which reparse to the
same text, so a load/save cycle is byte stable.  Writes go to a temp file
that is then renamed over the target, so no reader sees half a file.

Loaders are strict: unknown fields, missing fields, version mismatches and
malformed numbers all raise ParseError naming the offending part.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .boxes import CLASSES, SOURCES, DetectionBox
from .coverage import CoverageReport
from .metrics import FramePair, pair_frames
from .scene import (
    LIDAR,
    RADAR,
    CandidateMount,
    GridSpec,
    Occluder,
    RegionOfInterest,
    Scene,
    SensorSpec,
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


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _body_digest(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()


def _write_artifact(path, magic: str, body: str) -> None:
    """Write the header line and ``body``; the target is replaced whole or not at all."""
    path = Path(path)
    data = body.encode("utf-8")
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_bytes(f"{magic} {FORMAT_VERSION} {_body_digest(data)}\n".encode() + data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_artifact(path, magic: str) -> str:
    """The body of a ``magic`` file whose header and digest check out."""
    head, newline, body = Path(path).read_bytes().partition(b"\n")
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
        return body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: body is not UTF-8 text: {exc}") from exc


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays and tuples to JSON types."""
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return obj


def _json_body(payload: dict) -> str:
    return json.dumps({"payload": _jsonable(payload)}, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def _reject_constant(name: str):
    raise ParseError(f"non-finite JSON constant {name!r} is not allowed")


def _load_document(path, expected_magic: str) -> dict:
    text = _read_artifact(path, expected_magic)
    try:
        body = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid or truncated JSON body: {exc}") from exc
    return _mapping(_object(body, {"payload"}, set(), f"{path} body")["payload"],
                    f"{path} payload")


def _require_keys(d: dict, required: set[str], optional: set[str], where: str) -> None:
    missing = required - d.keys()
    if missing:
        raise ParseError(f"{where}: missing field {sorted(missing)[0]!r}")
    unknown = d.keys() - required - optional
    if unknown:
        raise ParseError(f"{where}: unknown field {sorted(unknown)[0]!r}")


def _as_float_tuple(value, n: int, where: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise ParseError(f"{where}: expected a list of {n} numbers")
    return tuple(_number(v, where) for v in value)


# -- scenes -----------------------------------------------------------------

def _mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected an object")
    return value


def _object(value, required: set[str], optional: set[str], where: str) -> dict:
    _require_keys(_mapping(value, where), required, optional, where)
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list")
    return value


def _number(value, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _integer(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return value


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{where}: expected a string, got {value!r}")
    return value


def _spec_from_record(rec, where: str) -> SensorSpec:
    rec = _object(
        rec,
        {"modality", "hfov_deg", "vfov_deg", "max_range_m", "rate_hz"},
        {"unit_cost", "beams"},
        where,
    )
    beams = rec.get("beams")
    return SensorSpec(
        modality=rec["modality"],
        hfov_deg=_number(rec["hfov_deg"], f"{where}.hfov_deg"),
        vfov_deg=_number(rec["vfov_deg"], f"{where}.vfov_deg"),
        max_range_m=_number(rec["max_range_m"], f"{where}.max_range_m"),
        rate_hz=_number(rec["rate_hz"], f"{where}.rate_hz"),
        unit_cost=_number(rec.get("unit_cost", 0.0), f"{where}.unit_cost"),
        beams=None if beams is None else _integer(beams, f"{where}.beams"),
    )


def _candidate_from_record(rec, where: str) -> CandidateMount:
    rec = _object(rec, {"id", "position", "spec"}, {"yaw_deg", "pitch_deg"}, where)
    if not isinstance(rec["id"], str) or not rec["id"]:
        raise ParseError(f"{where}: id must be a nonempty string")
    return CandidateMount(
        id=rec["id"],
        position=_as_float_tuple(rec["position"], 3, f"{where}.position"),
        spec=_spec_from_record(rec["spec"], f"{where}.spec"),
        yaw_deg=_number(rec.get("yaw_deg", 0.0), f"{where}.yaw_deg"),
        pitch_deg=_number(rec.get("pitch_deg", 0.0), f"{where}.pitch_deg"),
    )


def scene_payload(scene: Scene) -> dict:
    weights = {str(j): w for j, w in sorted(scene.roi.weights.items())}
    return {
        "grid": asdict(scene.grid),
        "roi": {"cells": scene.roi.sorted_cells(), "weights": weights},
        "occluders": [asdict(o) for o in scene.occluders],
        "lidar_candidates": [asdict(m) for m in scene.lidar_candidates],
        "radar_candidates": [asdict(m) for m in scene.radar_candidates],
    }


def scene_hash(scene: Scene) -> str:
    """The digest in the header of the file ``save_scene`` writes for ``scene``."""
    return _body_digest(_json_body(scene_payload(scene)).encode("utf-8"))


def save_scene(path, scene: Scene) -> None:
    _write_artifact(path, SCENE_MAGIC, _json_body(scene_payload(scene)))


def load_scene(path) -> Scene:
    payload = _load_document(path, SCENE_MAGIC)
    where = str(path)
    _require_keys(
        payload,
        {"grid", "roi", "occluders", "lidar_candidates", "radar_candidates"},
        set(),
        where,
    )
    grid_rec = _object(payload["grid"], {"origin_xy", "cell_size", "nx", "ny"}, set(),
                       f"{where}.grid")
    grid = GridSpec(
        origin_xy=_as_float_tuple(grid_rec["origin_xy"], 2, f"{where}.grid.origin_xy"),
        cell_size=_number(grid_rec["cell_size"], f"{where}.grid.cell_size"),
        nx=_integer(grid_rec["nx"], f"{where}.grid.nx"),
        ny=_integer(grid_rec["ny"], f"{where}.grid.ny"),
    )
    roi_rec = _object(payload["roi"], {"cells"}, {"weights"}, f"{where}.roi")
    cells = [_integer(c, f"{where}.roi.cells")
             for c in _list(roi_rec["cells"], f"{where}.roi.cells")]
    weights_rec = roi_rec.get("weights", {})
    if not isinstance(weights_rec, dict):
        raise ParseError(f"{where}.roi.weights: expected an object")
    weights = {}
    for key, value in weights_rec.items():
        try:
            j = int(key)
        except ValueError as exc:
            raise ParseError(f"{where}.roi.weights: bad cell key {key!r}") from exc
        weights[j] = _number(value, f"{where}.roi.weights[{key}]")
    occluders = []
    for k, rec in enumerate(_list(payload["occluders"], f"{where}.occluders")):
        o_where = f"{where}.occluders[{k}]"
        rec = _object(rec, {"min_corner", "max_corner"}, set(), o_where)
        occluders.append(
            Occluder(
                min_corner=_as_float_tuple(rec["min_corner"], 3, o_where),
                max_corner=_as_float_tuple(rec["max_corner"], 3, o_where),
            )
        )
    lidar = [
        _candidate_from_record(rec, f"{where}.lidar_candidates[{k}]")
        for k, rec in enumerate(_list(payload["lidar_candidates"], f"{where}.lidar_candidates"))
    ]
    radar = [
        _candidate_from_record(rec, f"{where}.radar_candidates[{k}]")
        for k, rec in enumerate(_list(payload["radar_candidates"], f"{where}.radar_candidates"))
    ]
    return Scene(
        grid=grid,
        roi=RegionOfInterest(cells=frozenset(cells), weights=weights),
        occluders=tuple(occluders),
        lidar_candidates=tuple(lidar),
        radar_candidates=tuple(radar),
    )


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


def save_matrix(path, mf: MatrixFile) -> None:
    rows, cols = mf.matrix.values.shape
    if len(mf.cells) != cols:
        raise ValueError("cells length must match matrix columns")
    if mf.weights.shape != (cols,):
        raise ValueError("weights length must match matrix columns")
    if mf.costs.shape != (rows,) or len(mf.ids) != rows:
        raise ValueError("costs and ids length must match matrix rows")
    lines = [f"modality {mf.matrix.modality}"]
    lines.append(f"rows {rows}")
    lines.append(f"cols {cols}")
    lines.append(f"epsilon {_fmt(mf.matrix.epsilon)}")
    lines.append(f"scene_hash {mf.scene_hash}")
    lines.append("cells " + " ".join(str(c) for c in mf.cells))
    lines.append("weights " + " ".join(_fmt(w) for w in mf.weights))
    lines.append("costs " + " ".join(_fmt(c) for c in mf.costs))
    lines.append("ids " + " ".join(mf.ids))
    if mf.manifest is not None:
        lines.append(f"manifest {mf.manifest}")
    for i in range(rows):
        lines.append(" ".join(_fmt(v) for v in mf.matrix.values[i]))
    _write_artifact(path, MATRIX_MAGIC, "\n".join(lines) + "\n")


def _parse_floats(text: str, n: int, where: str) -> np.ndarray:
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


def load_matrix(path) -> MatrixFile:
    lines = _read_artifact(path, MATRIX_MAGIC).splitlines()
    header: dict[str, str] = {}
    required = {"modality", "rows", "cols", "epsilon", "scene_hash",
                "cells", "weights", "costs", "ids"}
    optional = {"manifest"}
    pos = 0
    while pos < len(lines):
        key = lines[pos].split(" ", 1)[0]
        if key not in required and key not in optional:
            break
        if key in header:
            raise ParseError(f"{path}: duplicate header field {key!r}")
        parts = lines[pos].split(" ", 1)
        header[key] = parts[1] if len(parts) == 2 else ""
        pos += 1
    _require_keys(header, required, optional, str(path))
    try:
        rows = int(header["rows"])
        cols = int(header["cols"])
    except ValueError as exc:
        raise ParseError(f"{path}: rows/cols must be integers") from exc
    if rows < 0 or cols < 0:
        raise ParseError(f"{path}: rows/cols must be nonnegative")
    modality = header["modality"]
    epsilon = float(_parse_floats(header["epsilon"], 1, f"{path}: epsilon")[0])

    cell_parts = header["cells"].split()
    if len(cell_parts) != cols:
        raise ParseError(f"{path}: cells lists {len(cell_parts)} entries, expected {cols}")
    try:
        cells = tuple(int(c) for c in cell_parts)
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
    for i, line in enumerate(data_lines):
        values[i] = _parse_floats(line, cols, f"{path}: matrix row {i}")
    if values.size and (values.min() < 0.0 or values.max() >= 1.0):
        raise ParseError(f"{path}: matrix entries must lie in [0, 1)")
    return MatrixFile(
        matrix=VisibilityMatrix(modality, values, epsilon),
        scene_hash=header["scene_hash"],
        cells=cells,
        weights=weights,
        costs=costs,
        ids=ids,
        manifest=header.get("manifest"),
    )


# -- detection frames -------------------------------------------------------

# The types a JSON number loads as; ``true`` loads as a bool, which is neither.
_JSON_NUMBERS = frozenset({int, float})
_BOX_REQUIRED = frozenset({"center", "size", "yaw", "class_label", "score", "source"})
_BOX_KEYS = _BOX_REQUIRED | {"velocity"}


def _is_numbers(value, n: int) -> bool:
    return type(value) is list and len(value) == n and _JSON_NUMBERS.issuperset(map(type, value))


def _box_from_record(rec) -> DetectionBox:
    """Check one box record's types; DetectionBox checks the ranges.

    Messages name the field relative to the box, and the caller adds the
    box's location, so a well-formed box costs no message strings.
    """
    if not isinstance(rec, dict):
        raise ParseError(": expected an object")
    if rec.keys() != _BOX_KEYS:
        _require_keys(rec, _BOX_REQUIRED, {"velocity"}, "")
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
    except ValueError as exc:
        raise ParseError(f": {exc}") from exc


def _numbers_text(values) -> str:
    """A list of floats laid out as a box field by ``json.dumps(indent=2)``."""
    items = ",\n              ".join(map(float.__repr__, values))
    return f"[\n              {items}\n            ]"


# Box labels come from fixed vocabularies, so their JSON text is looked up.
_QUOTED = {name: json.dumps(name) for name in (*CLASSES, *SOURCES)}


def _box_text(box: DetectionBox) -> str:
    velocity = "null" if box.velocity is None else _numbers_text(box.velocity)
    return (f'          {{\n            "center": {_numbers_text(box.center)},\n'
            f'            "class_label": {_QUOTED[box.class_label]},\n'
            f'            "score": {float.__repr__(box.score)},\n'
            f'            "size": {_numbers_text(box.size)},\n'
            f'            "source": {_QUOTED[box.source]},\n'
            f'            "velocity": {velocity},\n'
            f'            "yaw": {float.__repr__(box.yaw)}\n          }}')


def _frames_body(ordered, manifest: str | None) -> str:
    """The body ``_json_body`` makes of a frames payload, laid out directly.

    With ``indent`` set, stdlib's JSON writer falls back to its pure-Python
    encoder, a generator step per token; a test pins this writer to it
    byte for byte.
    """
    frames = []
    for frame_id, boxes in ordered:
        box_list = "[\n" + ",\n".join(map(_box_text, boxes)) + "\n        ]" if boxes else "[]"
        frames.append(f'      {{\n        "boxes": {box_list},\n'
                      f'        "frame_id": {json.dumps(frame_id)}\n      }}')
    frame_list = "[\n" + ",\n".join(frames) + "\n    ]" if frames else "[]"
    tail = "" if manifest is None else f',\n    "manifest": {json.dumps(manifest)}'
    return f'{{\n  "payload": {{\n    "frames": {frame_list}{tail}\n  }}\n}}\n'


def save_frames(path, frames: dict[str, list[DetectionBox]], manifest: str | None = None) -> None:
    ordered = [(frame_id, sorted(frames[frame_id], key=lambda b: (-b.score, b.sort_key())))
               for frame_id in sorted(frames)]
    _write_artifact(path, FRAMES_MAGIC, _frames_body(ordered, manifest))


def load_frames(path) -> dict[str, list[DetectionBox]]:
    payload = _load_document(path, FRAMES_MAGIC)
    where = str(path)
    _require_keys(payload, {"frames"}, {"manifest"}, where)
    if not isinstance(payload["frames"], list):
        raise ParseError(f"{where}: frames must be a list")
    out: dict[str, list[DetectionBox]] = {}
    for k, rec in enumerate(payload["frames"]):
        boxes = None
        try:
            if not isinstance(rec, dict):
                raise ParseError(": expected an object")
            _require_keys(rec, {"frame_id", "boxes"}, set(), "")
            frame_id = rec["frame_id"]
            if not isinstance(frame_id, str):
                raise ParseError(f".frame_id: expected a string, got {frame_id!r}")
            if frame_id in out:
                raise ParseError(f": duplicate frame_id {frame_id!r}")
            if not isinstance(rec["boxes"], list):
                raise ParseError(".boxes: expected a list")
            boxes = []
            for b in rec["boxes"]:
                boxes.append(_box_from_record(b))
        except ParseError as exc:
            at = "" if boxes is None else f".boxes[{len(boxes)}]"
            raise ParseError(f"{where}.frames[{k}]{at}{exc}") from exc
        out[frame_id] = boxes
    return out


def load_frame_pairs(ground_truth_path, predictions_path) -> list[FramePair]:
    """Join two frames files on frame id; missing sides become empty."""
    return pair_frames(load_frames(ground_truth_path), load_frames(predictions_path))


# -- reports, solutions, manifests -------------------------------------------

def save_report(path, kind: str, record: dict, manifest: str | None = None) -> None:
    payload: dict = {"kind": kind, "record": record}
    if manifest is not None:
        payload["manifest"] = manifest
    _write_artifact(path, REPORT_MAGIC, _json_body(payload))


def load_report(path) -> tuple[str, dict]:
    payload = _load_document(path, REPORT_MAGIC)
    _require_keys(payload, {"kind", "record"}, {"manifest"}, str(path))
    return (_string(payload["kind"], f"{path} kind"),
            _mapping(payload["record"], f"{path} record"))


def coverage_from_record(record: dict, where: str) -> CoverageReport:
    """A coverage report record back as a ``CoverageReport``, every field checked."""
    rec = _object(record, {f.name for f in fields(CoverageReport)}, set(), where)

    def per_modality(key: str, check) -> dict:
        value = _object(rec[key], set(), {LIDAR, RADAR}, f"{where}.{key}")
        return {m: check(v, f"{where}.{key}.{m}") for m, v in value.items()}

    return CoverageReport(
        config_name=_string(rec["config_name"], f"{where}.config_name"),
        central_coverage=_number(rec["central_coverage"], f"{where}.central_coverage"),
        covered_cells=_integer(rec["covered_cells"], f"{where}.covered_cells"),
        total_roi_cells=_integer(rec["total_roi_cells"], f"{where}.total_roi_cells"),
        total_cost=_number(rec["total_cost"], f"{where}.total_cost"),
        sensor_count=_integer(rec["sensor_count"], f"{where}.sensor_count"),
        per_modality_cost=per_modality("per_modality_cost", _number),
        per_modality_covered=per_modality("per_modality_covered", _integer),
        theta=_number(rec["theta"], f"{where}.theta"),
    )


def baseline_from_record(record: dict, where: str) -> tuple[float, dict[str, float | None]]:
    """An evaluation record's mAP and per-class AP (None where undefined)."""
    rec = _object(record, {"mean_ap", "per_class"}, {"matching_mode", "baseline"}, where)
    aps = {}
    for label, entry in _mapping(rec["per_class"], f"{where}.per_class").items():
        at = f"{where}.per_class.{label}"
        ap = _object(entry, {"ap"}, {"threshold", "num_gt", "num_predictions"}, at)["ap"]
        aps[label] = None if ap is None else _number(ap, f"{at}.ap")
    return _number(rec["mean_ap"], f"{where}.mean_ap"), aps


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


def load_solution(path) -> SolutionFile:
    where = str(path)
    payload = _object(
        _load_document(path, SOLUTION_MAGIC),
        {"lidar_ids", "radar_ids", "lidar_candidate_ids", "radar_candidate_ids",
         "objective", "optimal", "budget", "budget_mode", "seen_threshold",
         "scene_hash"},
        {"manifest"},
        where,
    )

    def items(key: str, check) -> tuple:
        return tuple(check(v, f"{where}.{key}") for v in _list(payload[key], f"{where}.{key}"))

    if not isinstance(payload["optimal"], bool):
        raise ParseError(f"{where}.optimal: expected true or false, got {payload['optimal']!r}")
    manifest = payload.get("manifest")
    return SolutionFile(
        lidar_ids=items("lidar_ids", _integer),
        radar_ids=items("radar_ids", _integer),
        lidar_candidate_ids=items("lidar_candidate_ids", _string),
        radar_candidate_ids=items("radar_candidate_ids", _string),
        objective=_number(payload["objective"], f"{where}.objective"),
        optimal=payload["optimal"],
        budget=_number(payload["budget"], f"{where}.budget"),
        budget_mode=_string(payload["budget_mode"], f"{where}.budget_mode"),
        seen_threshold=_number(payload["seen_threshold"], f"{where}.seen_threshold"),
        scene_hash=_string(payload["scene_hash"], f"{where}.scene_hash"),
        manifest=None if manifest is None else _string(manifest, f"{where}.manifest"),
    )


def save_manifest(path, record: dict) -> None:
    required = {"command", "tool_version", "inputs", "outputs", "config", "wall_time_s"}
    missing = required - record.keys()
    if missing:
        raise ValueError(f"manifest record missing {sorted(missing)[0]!r}")
    _write_artifact(path, MANIFEST_MAGIC, _json_body(record))


def load_manifest(path) -> dict:
    """A manifest record, every field's type checked."""
    where = str(path)
    payload = _object(_load_document(path, MANIFEST_MAGIC),
                      {"command", "tool_version", "inputs", "outputs", "config", "wall_time_s"},
                      set(), where)
    _string(payload["command"], f"{where}.command")
    _string(payload["tool_version"], f"{where}.tool_version")
    for name, digest in _mapping(payload["inputs"], f"{where}.inputs").items():
        _string(digest, f"{where}.inputs.{name}")
    for k, name in enumerate(_list(payload["outputs"], f"{where}.outputs")):
        _string(name, f"{where}.outputs[{k}]")
    _mapping(payload["config"], f"{where}.config")
    _number(payload["wall_time_s"], f"{where}.wall_time_s")
    return payload
