"""Properties of ``load_sequences`` over generated files, with the per-line
loader it replaced as the reference, and of the canon blocks that
canonicalization writes for it to read.

``reference_load`` below is that loader, kept as it was: every record line
is converted to arrays and checked on its own, as it is read. The block
loader must return the same arrays, tags and keys on generated files, and
raise the same error class, line number and message on mutated ones,
wherever the mutated line falls in its block of ``_LOAD_ROWS`` lines.
Block sizes of a few lines are tried too, so that short files cross block
edges and one block holds the lines of several sequences.
"""

import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from sequence_arrays import rows_of

from canonpose import dataset
from canonpose.camera import EPS_ROTATION, CameraIntrinsics, Frame, batch_project
from canonpose.canonical import _check_rotations, _root_depth
from canonpose.dataset import (
    CANONICALIZE_MODES,
    DEFAULT_FPS,
    PAD_POLICIES,
    PoseSequence,
    WindowSpec,
    _Columns,
    _read_meta,
    canonicalize_dataset,
    load_sequences,
    save_sequences,
    serialize_sequences,
    window,
)
from canonpose.errors import DataError, ParseError, SchemaError
from canonpose.jsonfmt import json_float, json_numbers
from canonpose.skeleton import Skeleton

# One fixed profile: CI runs the same examples on every run, and the file
# stays within a few seconds.
PROFILE = settings(
    max_examples=40, derandomize=True, database=None, deadline=None, suppress_health_check=list(HealthCheck)
)

TINY = Skeleton("tiny4", ("root", "lhip", "rhip", "torso"), 0, 1, 2, 3, ((0, 1), (0, 2), (0, 3)))


# ---------------------------------------------------------------------------
# The reference: the per-line loader, as it was before blocks.
# ---------------------------------------------------------------------------


def _dense(rows, n_joints, width, scale=1.0):
    present = np.array([row is not None for row in rows], dtype=bool)
    if not present.any():
        return present, None
    blank = np.zeros((n_joints, width))
    stack = np.stack([blank if row is None else row for row in rows])
    stack *= scale
    return present, stack


def _depths(values):
    return {"depths": np.array([v or 0.0 for v in values]), "has_depth": np.array([v is not None for v in values])}


def _parse_joints(value, width, expected, lineno, key):
    if value is None:
        return None
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"line {lineno}: {key} is not numeric: {exc}", lineno) from exc
    if arr.ndim != 2 or arr.shape[1] != width:
        raise SchemaError(f"line {lineno}: {key} must be a list of {width}-vectors, got shape {arr.shape}", lineno)
    if arr.shape[0] != expected:
        raise SchemaError(f"line {lineno}: {key} has {arr.shape[0]} joints, expected {expected}", lineno)
    if not json_numbers(value, arr):
        raise SchemaError(f"line {lineno}: {key} holds a value that is not a JSON number", lineno)
    if not np.isfinite(arr).all():
        raise SchemaError(f"line {lineno}: {key} contains non-finite values", lineno)
    return arr


def _parse_canon(value, lineno, unit_scale):
    if value is None:
        return None
    if not isinstance(value, dict):
        raise SchemaError(f"line {lineno}: canon must be an object", lineno)
    try:
        parts = []
        for key, shape in (("rotation", (3, 3)), ("source", (3,))):
            arr = np.asarray(value[key], dtype=np.float64)
            parts.append(arr.reshape(shape))
            if not json_numbers(value[key], arr):
                raise TypeError(f"{key} holds a value that is not a JSON number")
        depth = value.get("root_depth")
        if depth is not None:
            depth = json_float(depth, "root_depth", "a number or null") * unit_scale
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"line {lineno}: invalid canon block: {exc}", lineno) from exc
    try:
        return (*parts, depth if depth is None else _root_depth(depth))
    except ValueError as exc:
        raise SchemaError(f"line {lineno}: {exc}", lineno) from exc


def _frame_3d(key, linenos, rotations, joints_3d, has_3d, root, depths, has_depth):
    """Canonical-frame when every frame with 3D has its root at exactly (0,
    0, depth), else camera-frame; but a mix is refused at the first line
    whose root is not, if a frame whose root is there was not rotated by the
    identity."""
    if joints_3d is None:
        return Frame.CANONICAL_CAMERA
    frames = np.flatnonzero(has_3d)
    on_axis = [
        bool(has_depth[t]) and joints_3d[t, root, 0] == 0 and joints_3d[t, root, 1] == 0
        and joints_3d[t, root, 2] == depths[t]
        for t in frames
    ]
    if all(on_axis):
        return Frame.CANONICAL_CAMERA
    if not any(keeps and not np.array_equal(rotations[t], np.eye(3)) for t, keeps in zip(frames, on_axis)):
        return Frame.CAMERA
    bad = linenos[frames[on_axis.index(False)]]
    raise SchemaError(
        f"line {bad}: sequence ({', '.join(key)}) mixes canonical-frame and camera-frame 3D: "
        "this root is not at (0, 0, root_depth)", bad,
    )


def _loaded(key, rows, skeleton, unit_scale):
    linenos, frame_nos, rows_2d, rows_3d, canons = zip(*rows)
    has_2d, joints_2d = _dense(rows_2d, skeleton.n_joints, 2)
    has_3d, joints_3d = _dense(rows_3d, skeleton.n_joints, 3, unit_scale)
    columns = _Columns(np.array(frame_nos, dtype=object), joints_2d, has_2d, joints_3d, has_3d)
    if all(canon is None for canon in canons):
        return columns
    if None in canons:
        bad = linenos[canons.index(None)]
        raise SchemaError(f"line {bad}: sequence ({', '.join(key)}) mixes canonicalized and raw frames", bad)
    if not has_2d.all():
        bad = linenos[int(np.argmin(has_2d))]
        raise SchemaError(f"line {bad}: canonicalized record lacks joints_2d", bad)
    rotations = np.stack([canon[0] for canon in canons])
    sources = np.stack([canon[1] for canon in canons])
    fault = _check_rotations(rotations, sources)
    if fault is not None:
        bad = linenos[fault[0]]
        raise SchemaError(f"line {bad}: invalid canon block: {fault[1]}", bad) from fault[1]
    depths = _depths([depth for _, _, depth in canons])
    frame_3d = _frame_3d(key, linenos, rotations, joints_3d, has_3d, skeleton.root_index, **depths)
    return replace(columns, frame_3d=frame_3d, rotations=rotations, sources=sources, **depths)


def reference_load(path, skeleton):
    unit_scale, fps = 1.0, DEFAULT_FPS
    groups = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: line {lineno}: invalid JSON: {exc.msg}", lineno) from exc
            if not isinstance(obj, dict):
                raise SchemaError(f"line {lineno}: record must be a JSON object", lineno)
            if "meta" in obj:
                if groups:
                    raise SchemaError(f"line {lineno}: header must precede all records", lineno)
                unit_scale, fps = _read_meta(obj, lineno, skeleton)
                continue
            for key in ("subject", "action", "camera"):
                if not isinstance(obj.get(key), str):
                    raise SchemaError(f"line {lineno}: missing or non-string {key!r}", lineno)
            if not isinstance(obj.get("frame"), int) or isinstance(obj.get("frame"), bool):
                raise SchemaError(f"line {lineno}: missing or non-integer 'frame'", lineno)
            expected = skeleton.n_joints
            joints_2d = _parse_joints(obj.get("joints_2d"), 2, expected, lineno, "joints_2d")
            joints_3d = _parse_joints(obj.get("joints_3d"), 3, expected, lineno, "joints_3d")
            if joints_2d is None and joints_3d is None:
                raise SchemaError(f"line {lineno}: record has neither joints_2d nor joints_3d", lineno)
            canon = _parse_canon(obj.get("canon"), lineno, unit_scale)
            key = (obj["subject"], obj["action"], obj["camera"])
            groups.setdefault(key, []).append((lineno, obj["frame"], joints_2d, joints_3d, canon))
    sequences, faults = [], []
    for key in list(groups):
        try:
            columns = _loaded(key, groups.pop(key), skeleton, unit_scale)
        except SchemaError as exc:
            faults.append(exc)
            continue
        sequences.append(PoseSequence._of(*key, fps, skeleton, columns))
    if faults:
        raise min(faults, key=lambda exc: exc.line_number)
    return sequences


# ---------------------------------------------------------------------------
# Comparing the two loaders.
# ---------------------------------------------------------------------------

_ARRAYS = ("index", "joints_2d", "has_2d", "joints_3d", "has_3d", "rotations", "sources", "depths", "has_depth")


def _outcome(load, path, rows=None):
    """``load``'s sequences for ``path``, or the ValueError it raised; the
    block loader with blocks of ``rows`` lines when given."""
    with mock.patch.object(dataset, "_LOAD_ROWS", rows or dataset._LOAD_ROWS):
        try:
            return load(path, TINY)
        except ValueError as exc:
            return exc


def _assert_same_arrays(loaded, reference):
    assert [(seq.key, seq.fps, seq._rows) for seq in loaded] == [(seq.key, seq.fps, seq._rows) for seq in reference]
    for seq, ref in zip(loaded, reference):
        cols, ref_cols = seq._columns, ref._columns
        assert cols.frame_3d == ref_cols.frame_3d
        for name in _ARRAYS:
            value, expected = getattr(cols, name), getattr(ref_cols, name)
            if expected is None:
                assert value is None, name
                continue
            assert (value.dtype, value.shape) == (expected.dtype, expected.shape), name
            if value.dtype == object:
                assert [(type(v), v) for v in value.tolist()] == [(type(v), v) for v in expected.tolist()], name
            else:
                assert value.tobytes() == expected.tobytes(), name
            assert not value.flags.writeable, name


def _assert_agree(path, rows=None):
    """Both loaders give the same sequences or the same error; the block
    loader's outcome is returned."""
    loaded, reference = _outcome(load_sequences, path, rows), _outcome(reference_load, path)
    _assert_same_outcome(loaded, reference)
    return loaded


def _assert_same_outcome(loaded, reference):
    """The block loader's outcome is the reference's: the same sequences or
    the same error."""
    if isinstance(reference, Exception):
        assert isinstance(loaded, Exception), f"accepted what the reference refuses: {reference}"
        assert (type(loaded), str(loaded)) == (type(reference), str(reference))
        assert getattr(loaded, "line_number", None) == getattr(reference, "line_number", None)
    else:
        assert not isinstance(loaded, Exception), f"refused what the reference accepts: {loaded}"
        _assert_same_arrays(loaded, reference)


# ---------------------------------------------------------------------------
# Generated files.
# ---------------------------------------------------------------------------

NAMES = ("S1", 'say "hi"', "line\u2028separator", "Jos\u00e9", "\u6b69\u304f", "back\\slash")
FRAMES = st.one_of(st.integers(-5, 5), st.integers(2**64 - 2, 2**70))
# No -0.0, and no subnormal that ``unit_scale`` could take to -0.0: the
# reference reads the writer's "-0" as the integer 0, the loader as -0.0.
FLOATS = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False).map(lambda v: v + 0.0)
VALUES = st.one_of(FLOATS, st.integers(-1000, 1000))
ROTATIONS = (
    [1, 0, 0, 0, 1, 0, 0, 0, 1],
    [0, -1, 0, 1, 0, 0, 0, 0, 1],
    [0.36, 0.48, -0.8, -0.8, 0.6, 0, 0.48, 0.64, 0.6],
)
SOURCES = ([0, 0, 1], [0.25, -0.5, 4.5], [1, 2, 3])
DEPTHS = st.floats(0.5, 20)
BLOCK_ROWS = st.sampled_from([1, 2, 3, 5, None])  # None: the loader's own size


def _joints(width):
    return st.lists(st.lists(VALUES, min_size=width, max_size=width), min_size=TINY.n_joints, max_size=TINY.n_joints)


@st.composite
def _sequence(draw, number, mixed=False):
    """One sequence's records: raw, or canonical with every root at (0, 0,
    depth), so that its 3D loads as canonical-frame, or with any roots and
    depths, some of them null. When ``mixed``, canonical with each record's
    root drawn at (0, 0, depth) or anywhere: a sequence with both is
    refused unless each root there has the identity rotation."""
    key = {"subject": draw(st.sampled_from(NAMES)), "action": draw(st.sampled_from(NAMES)), "camera": f"cam{number}"}
    canonical = mixed or draw(st.booleans())
    on_axis = canonical and draw(st.booleans())
    records = []
    for _ in range(draw(st.integers(1, 6))):
        has_2d = canonical or draw(st.booleans())
        has_3d = not has_2d or draw(st.booleans())
        record = dict(key, frame=draw(FRAMES))
        record["joints_2d"] = draw(_joints(2)) if has_2d else None
        record["joints_3d"] = draw(_joints(3)) if has_3d else None
        if canonical:
            on_axis = draw(st.booleans()) if mixed else on_axis
            depth = draw(DEPTHS) if on_axis else draw(st.one_of(st.none(), DEPTHS))
            if on_axis and has_3d:
                record["joints_3d"][TINY.root_index] = [0, 0, depth]
            rotation, source = draw(st.sampled_from(ROTATIONS)), draw(st.sampled_from(SOURCES))
            record["canon"] = {"rotation": rotation, "source": source, "root_depth": depth}
        records.append(record)
    return records


@st.composite
def pose_files(draw, mixed=False):
    """(text, records) of a file whose sequences' lines are interleaved;
    ``mixed`` as ``_sequence`` takes it."""
    header = {"skeleton": TINY.name, "unit_scale": draw(st.sampled_from([1, 0.001, 2.5]))}
    header["fps"] = draw(st.sampled_from([50, 29.97, 0.5, 240]))
    sequences = [draw(_sequence(number, mixed)) for number in range(draw(st.integers(1, 3)))]
    order = draw(st.permutations([n for n, seq in enumerate(sequences) for _ in seq]))
    pending = [iter(seq) for seq in sequences]
    records = [next(pending[n]) for n in order]
    ascii_only = draw(st.booleans())
    lines = [json.dumps({"meta": header})] + [json.dumps(r, ensure_ascii=ascii_only) for r in records]
    return "\n".join(lines) + "\n", records


@PROFILE
@given(pose_files(), BLOCK_ROWS)
def test_loader_matches_reference_and_round_trips(tmp_path_factory, generated, rows):
    text, _ = generated
    path = tmp_path_factory.mktemp("generated") / "poses.ndjson"
    path.write_text(text, encoding="utf-8")
    loaded = _assert_agree(path, rows)
    # Each sequence's rows are a slice of one array per field, interleaved or not.
    bases = {}
    for seq in loaded:
        for name, values in vars(seq._columns).items():
            if isinstance(values, np.ndarray):
                assert values.base is not None and bases.setdefault(name, values.base) is values.base
    # save -> load -> save is byte-identical.
    saved = serialize_sequences(loaded)
    path.write_text(saved, encoding="utf-8")
    assert serialize_sequences(_assert_agree(path, rows)) == saved
    for seq in loaded:
        cols = seq._columns
        if cols.frame_3d is Frame.CANONICAL_CAMERA and cols.joints_3d is not None:
            roots = cols.joints_3d[cols.has_3d, TINY.root_index]
            assert not roots[:, :2].any() and np.array_equal(roots[:, 2], cols.depths[cols.has_3d])
        for policy in PAD_POLICIES:
            for win in window(seq, WindowSpec(2, 1), policy):
                start, stop, pad = win._rows
                rows_taken = list(range(start, stop)) + [stop - 1] * pad
                assert np.array_equal(win._channel(2)[1], cols.has_2d[rows_taken])
                if cols.joints_3d is not None:
                    assert np.array_equal(win._channel(3)[0], cols.joints_3d[rows_taken])


@PROFILE
@given(pose_files(mixed=True), BLOCK_ROWS)
def test_loader_refuses_mixed_root_placements_as_the_reference_does(tmp_path_factory, generated, rows):
    text, _ = generated
    path = tmp_path_factory.mktemp("generated") / "poses.ndjson"
    path.write_text(text, encoding="utf-8")
    _assert_agree(path, rows)


def test_negative_zero_survives_a_round_trip(tmp_path):
    record = _base_records(1, canonical=False)[0]
    record["joints_3d"][1][0] = -0.0
    saved = serialize_sequences(load_sequences(_write(tmp_path, [json.dumps(record)]), TINY))
    path = tmp_path / "saved.ndjson"
    path.write_text(saved, encoding="utf-8")
    assert serialize_sequences(load_sequences(path, TINY)) == saved


# ---------------------------------------------------------------------------
# Canonicalization's canon blocks.
# ---------------------------------------------------------------------------

CAMERA = CameraIntrinsics(fx=1150.0, fy=1080.0, cx=512.5, cy=488.0, width=1000.0, height=1000.0)
# Each root: degrees off the optical axis, azimuth in degrees, log10 of its
# depth Z in meters. At 89 degrees the root projects about 66,000 px outside
# the image.
ROOTS = st.lists(st.tuples(st.floats(0.0, 89.0), st.floats(0.0, 360.0), st.floats(-5.0, 5.0)), min_size=1, max_size=6)
# A body about its root in units of the root's depth: every joint stays in
# front of the camera and of each canonical camera, so both paths accept it.
BODY = np.array([[0.0, 0.0, 0.0], [0.1, 0.05, 0.02], [-0.1, 0.05, -0.02], [0.0, -0.3, 0.01]])


@PROFILE
@given(ROOTS)
def test_canonicalization_writes_canon_blocks_the_loader_check_accepts(tmp_path_factory, roots):
    """Canonicalization checks none of its own rotations; the loader checks
    canon blocks as it reads them. So each path's rotations, built from roots
    on the axis out to 89 degrees off it, at depths from 1e-5 m to 1e5 m,
    must pass the loader's check, be proper rotations within EPS_ROTATION,
    and reload."""
    degrees_off, azimuth, log_depth = np.array(roots).T
    off, azimuth = np.tan(np.radians(degrees_off)), np.radians(azimuth)
    ray = np.stack([off * np.cos(azimuth), off * np.sin(azimuth), np.ones_like(off)], axis=-1)
    joints_3d = (ray[:, None] + BODY) * 10.0 ** log_depth[:, None, None]
    every = np.ones(len(roots), dtype=bool)
    columns = _Columns(np.arange(len(roots)).astype(object), batch_project(joints_3d, CAMERA), every, joints_3d, every)
    seq = PoseSequence._of("S1", "walk", "cam0", DEFAULT_FPS, TINY, columns)
    for mode in CANONICALIZE_MODES:
        (canonical,) = canonicalize_dataset([seq], CAMERA, mode)
        rotations, sources, _, _ = canonical.canon()
        assert _check_rotations(rotations, sources) is None, mode
        assert np.abs(rotations.transpose(0, 2, 1) @ rotations - np.eye(3)).max() < EPS_ROTATION, mode
        assert np.abs(np.linalg.det(rotations) - 1.0).max() < EPS_ROTATION, mode
        path = tmp_path_factory.mktemp("canonical") / f"{mode}.ndjson"
        save_sequences([canonical], path)
        (loaded,) = load_sequences(path, TINY)
        assert loaded.canon()[0].tobytes() == rotations.tobytes(), mode


# ---------------------------------------------------------------------------
# Mutated lines.
# ---------------------------------------------------------------------------

# A value put in place of one number of a record.
_VALUES = {"bool": True, "string": "1.5", "nan": math.nan, "infinity": -math.inf, "huge-int": 10**400}
MUTATIONS = (
    *_VALUES, "few-joints", "narrow-joint", "short-rotation", "nested-rotation", "missing-key",
    "canon-flip", "negative-depth", "invalid-json", "not-object", "late-header",
)


def _base_records(count, canonical):
    """``count`` good records of two sequences, the second starting halfway,
    with integer and 17-digit values."""
    records = []
    for n in range(count):
        record = {"subject": "S1" if n < count // 2 else "S2", "action": "walk", "camera": "c", "frame": n}
        record["joints_2d"] = [[n + 0.1 * j, 2.0 / 3 - j] for j in range(TINY.n_joints)]
        record["joints_3d"] = [[0.5 * j, -j, 3 + j / 7] for j in range(TINY.n_joints)]
        if canonical:
            record["joints_3d"][0] = [0, 0, 3]
            record["canon"] = {"rotation": ROTATIONS[n % 3], "source": SOURCES[n % 3], "root_depth": 3}
        records.append(record)
    return records


def _number_places(record):
    places = [("frame",)]
    for key in ("joints_2d", "joints_3d"):
        places += [(key, j, c) for j, row in enumerate(record[key] or ()) for c in range(len(row))]
    if "canon" in record:
        places += [("canon", "rotation", k) for k in range(9)] + [("canon", "source", k) for k in range(3)]
        places.append(("canon", "root_depth"))
    return places


def _put(record, place, value):
    target = record
    for step in place[:-1]:
        target = target[step]
    target[place[-1]] = value


def _mutated(record, kind, data):
    """The text of ``record`` mutated by ``kind``; ``data`` draws the details."""
    record = json.loads(json.dumps(record))
    if kind in _VALUES:
        _put(record, data.draw(st.sampled_from(_number_places(record))), _VALUES[kind])
    elif kind in ("few-joints", "narrow-joint"):
        joints = record[data.draw(st.sampled_from(["joints_2d", "joints_3d"]))]
        if kind == "few-joints":
            joints.pop()
        else:
            joints[data.draw(st.integers(0, len(joints) - 1))].pop()
    elif kind in ("short-rotation", "nested-rotation", "negative-depth") and "canon" in record:
        canon = record["canon"]
        if kind == "short-rotation":
            canon["rotation"].pop()
        elif kind == "nested-rotation":
            canon["rotation"] = [canon["rotation"][k : k + 3] for k in (0, 3, 6)]
        else:
            canon["root_depth"] = -1.5
    elif kind == "missing-key":
        keys = ["subject", "action", "camera", "frame", "joints_2d", "joints_3d"]
        keys += ["canon.rotation", "canon.source", "canon.root_depth"] if "canon" in record else []
        key = data.draw(st.sampled_from(keys))
        del (record["canon"] if key.startswith("canon.") else record)[key.split(".")[-1]]
        if key in ("joints_2d", "joints_3d") and data.draw(st.booleans()):
            del record["joints_3d" if key == "joints_2d" else "joints_2d"]
    elif kind == "canon-flip":
        # A canonical line among raw ones, or a raw line among canonical ones.
        if record.pop("canon", None) is None:
            record["canon"] = {"rotation": ROTATIONS[0], "source": SOURCES[0], "root_depth": None}
    elif kind == "invalid-json":
        return json.dumps(record)[:-1]
    elif kind == "not-object":
        return "[1, 2]"
    elif kind == "late-header":
        return '{"meta": {"fps": 25}}'
    return json.dumps(record)


@pytest.mark.parametrize("where", ["first", "last", "after-good"])
@pytest.mark.parametrize("kind", MUTATIONS)
@settings(PROFILE, max_examples=4)
@given(st.sampled_from([2, 3, None]), st.booleans(), st.one_of(st.none(), st.sampled_from(MUTATIONS)), st.data())
def test_mutated_lines_raise_what_the_reference_raises(tmp_path_factory, kind, where, rows, canonical, then, data):
    """``kind`` at a block's first line, its last line, or after a good line
    in the same block; ``then``, if any, at a later line."""
    size = rows or dataset._LOAD_ROWS
    records = _base_records(size + 3, canonical)
    # Record n sits on line n + 2; a block holds records size*b .. size*(b+1)-1.
    first = {"first": size, "last": size - 1, "after-good": size + 1}[where]
    lines = [json.dumps(record) for record in records]
    lines[first] = _mutated(records[first], kind, data)
    if then is not None:
        later = data.draw(st.integers(first + 1, len(records) - 1))
        lines[later] = _mutated(records[later], then, data)
    path = tmp_path_factory.mktemp("mutated") / "poses.ndjson"
    header = '{"meta": {"skeleton": "tiny4", "unit_scale": 0.5, "fps": 25}}\n'
    path.write_text(header + "\n".join(lines) + "\n", encoding="utf-8")
    _assert_agree(path, rows)


# ---------------------------------------------------------------------------
# Block edges, at the loader's own block size.
# ---------------------------------------------------------------------------


def _write(tmp_path, lines):
    path = tmp_path / "edge.ndjson"
    path.write_text('{"meta": {"skeleton": "tiny4"}}\n' + "\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_a_bad_value_before_invalid_json_in_one_block_is_reported(tmp_path):
    lines = [json.dumps(record) for record in _base_records(20, canonical=False)]
    lines[9] = lines[9].replace("[0.5, -1, ", "[true, -1, ", 1)  # line 11
    lines[10] = lines[10][:-1]  # line 12
    with pytest.raises(SchemaError) as excinfo:
        load_sequences(_write(tmp_path, lines), TINY)
    assert excinfo.value.line_number == 11
    assert str(excinfo.value) == "line 11: joints_3d holds a value that is not a JSON number"


def test_a_bad_value_near_the_end_of_a_long_file_names_its_line(tmp_path):
    lines = [json.dumps(record) for record in _base_records(2999, canonical=False)]
    lines[-2] = lines[-2].replace("[0.5, -1, ", '[0.5, "-1", ', 1)  # line 2,999 of 3,000
    with pytest.raises(SchemaError) as excinfo:
        load_sequences(_write(tmp_path, lines), TINY)
    assert excinfo.value.line_number == 2999
    assert str(excinfo.value) == "line 2999: joints_3d holds a value that is not a JSON number"


def test_a_nested_rotation_loads_as_the_flat_one(tmp_path):
    records = _base_records(2 * dataset._LOAD_ROWS, canonical=True)
    flat = load_sequences(_write(tmp_path, [json.dumps(record) for record in records]), TINY)
    for record in records[::7]:
        rotation = record["canon"]["rotation"]
        record["canon"]["rotation"] = [rotation[k : k + 3] for k in (0, 3, 6)]
    nested = load_sequences(_write(tmp_path, [json.dumps(record) for record in records]), TINY)
    _assert_same_arrays(nested, flat)
    assert rows_of(nested[0], 3)[0] is not None and nested[0].frame_3d is Frame.CANONICAL_CAMERA


def test_an_int_too_large_for_a_float_is_not_numeric(tmp_path):
    lines = [json.dumps(record) for record in _base_records(10, canonical=False)]
    lines[4] = lines[4].replace("[0.5, -1, ", "[1" + "0" * 400 + ", -1, ", 1)  # line 6
    with pytest.raises(SchemaError) as excinfo:
        load_sequences(_write(tmp_path, lines), TINY)
    assert excinfo.value.line_number == 6
    assert str(excinfo.value).startswith("line 6: joints_3d is not numeric: ")


@pytest.mark.parametrize("last_2d", [False, True], ids=["2d-in-the-first-block", "2d-in-the-first-and-last-blocks"])
def test_every_column_grows_when_later_lines_are_shorter(tmp_path, last_2d):
    """The loader makes rows for the rest of a file at the shortest line of
    its first block. Here every later line is shorter than that, so the rows
    run out and every column must grow, the 2D ones too though no later
    block has 2D (or only the last does). Two sequences' lines alternate, so
    the grown columns are put in sequence order."""
    count = 2 * dataset._LOAD_ROWS + 10
    records = []
    for n in range(count):
        record = {"subject": "S1", "action": "walk", "camera": f"cam{n % 2}", "frame": n, "joints_2d": None}
        if n < dataset._LOAD_ROWS or (last_2d and n == count - 1):
            record["joints_2d"] = [[n + j / 3, 2.0 / 3 - j] for j in range(TINY.n_joints)]
            record["joints_3d"] = [[j / 7, -j / 9, 3 + j / 11] for j in range(TINY.n_joints)]
        else:
            record["joints_3d"] = [[j, -j, 3] for j in range(TINY.n_joints)]
        records.append(record)
    lines = [json.dumps(record) for record in records]
    first = lines[: dataset._LOAD_ROWS]
    assert max(map(len, lines[dataset._LOAD_ROWS : -1])) < min(map(len, first))
    path = _write(tmp_path, lines)
    loaded = _assert_agree(path)
    assert [seq.n_frames for seq in loaded] == [count // 2, count // 2]
    saved = serialize_sequences(loaded)
    path.write_text(saved, encoding="utf-8")
    assert serialize_sequences(_assert_agree(path)) == saved


# ---------------------------------------------------------------------------
# Number tokens: the loader decodes lines with orjson, the reference with json.
# ---------------------------------------------------------------------------

TOKENS = (
    str(2**53), str(-(2**53)), str(2**63 - 1), str(-(2**63) - 1), str(2**64 - 1), str(2**64), str(10**308),
    "1e308", "1e309", "1e400", str(10**400),
    "-0", "-0.0", "-0e0",
    "5e-324", "2.2250738585072011e-308",
    "%.17g" % (2 / 3), "%.17g" % -math.pi, "%.17g" % (1 / 3e10), "1E5", "-2.5E-3",
)
# Where a token is written: a path into the first record, or into the header.
# The rotation entry is a 0 of the identity, so the -0 tokens keep it a rotation.
PLACES = (
    ("joints_2d", 1, 0), ("joints_3d", 1, 0), ("canon", "rotation", 1), ("canon", "source", 0),
    ("canon", "root_depth"), ("frame",), ("meta", "fps"), ("meta", "unit_scale"),
)


def _token_file(tmp_path, place, token):
    """A canonical file with ``token`` as the text of the number at ``place``."""
    header = {"meta": {"skeleton": TINY.name, "unit_scale": 1, "fps": 50}}
    records = json.loads(json.dumps(_base_records(4, canonical=True)))  # ROTATIONS and SOURCES stay as they are
    _put(header if place[0] == "meta" else records[0], place, "@token@")
    text = "\n".join(map(json.dumps, [header, *records])).replace('"@token@"', token) + "\n"
    path = tmp_path / f"{'.'.join(map(str, place))}-{len(list(tmp_path.iterdir()))}.ndjson"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("token", TOKENS, ids=lambda token: f"10**{len(token) - 1}" if len(token) > 25 else token)
def test_each_number_token_loads_as_the_stdlib_decoder_reads_it(tmp_path, token):
    """At every number position, the same arrays, bit for bit, or the same
    error class, line and message as the loader gives with every line decoded
    by ``_decode``, and as the reference gives."""
    for place in PLACES:
        path = _token_file(tmp_path, place, token)
        loaded = _outcome(load_sequences, path)
        with mock.patch.object(dataset, "_decode_fast", dataset._decode):
            stdlib = _outcome(load_sequences, path)
        # The reference reads the writer's ``-0`` as the integer 0, the loader
        # as -0.0, or as frame 0: the reference is given that value's text.
        expected = {"-0": "0" if place == ("frame",) else "-0.0"}.get(token, token)
        reference = _outcome(reference_load, _token_file(tmp_path, place, expected))
        try:
            _assert_same_outcome(loaded, stdlib)
            if isinstance(loaded, SchemaError) and "once scaled by unit_scale" in str(loaded):
                # The reference checks 3D values unscaled, so it refuses the
                # same line for the root depth that the scale takes to inf.
                assert (type(reference), reference.line_number) == (type(loaded), loaded.line_number)
                assert "root_depth must be positive and finite, got inf" in str(reference)
            else:
                _assert_same_outcome(loaded, reference)
        except AssertionError as exc:
            raise AssertionError(f"{token} at {place}: {exc}") from exc


def test_a_line_only_the_stdlib_decoder_accepts_loads(tmp_path):
    records = _base_records(4, canonical=False)
    records[1]["subject"] = "S\ud800"
    lines = [json.dumps(record) for record in records]
    with pytest.raises(orjson.JSONDecodeError):
        orjson.loads(lines[1])
    loaded = _assert_agree(_write(tmp_path, lines))
    assert ("S\ud800", "walk", "c") in [seq.key for seq in loaded]


def test_a_line_past_the_orjson_bound_is_decoded_by_the_stdlib(tmp_path):
    lines = [json.dumps(record) for record in _base_records(6, canonical=True)]
    lines[2] = lines[2].replace(", ", "," + " " * dataset._ORJSON_MAX_LINE, 1)
    lengths, loads = [], orjson.loads
    with mock.patch.object(orjson, "loads", lambda text: lengths.append(len(text)) or loads(text)):
        _assert_agree(_write(tmp_path, lines))
    assert len(lengths) == 6 and max(lengths) <= dataset._ORJSON_MAX_LINE < len(lines[2])


@pytest.mark.parametrize("depth", [5000, 20_000], ids=["orjson-reads-it", "past-the-orjson-bound"])
def test_a_line_nested_too_deeply_is_invalid_json_after_a_lower_bad_line(tmp_path, depth):
    records = _base_records(6, canonical=False)
    records[3]["joints_2d"] = "@"
    lines = [json.dumps(record) for record in records]
    lines[3] = lines[3].replace('"@"', "[" * depth + "]" * depth)  # line 5
    path = _write(tmp_path, lines)
    with pytest.raises(ParseError) as excinfo:
        load_sequences(path, TINY)
    assert excinfo.value.line_number == 5
    assert str(excinfo.value).startswith(f"{path}: line 5: invalid JSON: maximum recursion depth exceeded")
    lines[1] = lines[1].replace("[0.5, -1, ", "[true, -1, ", 1)  # line 3
    with pytest.raises(SchemaError) as excinfo:
        load_sequences(_write(tmp_path, lines), TINY)
    assert str(excinfo.value) == "line 3: joints_3d holds a value that is not a JSON number"


def test_a_joints_3d_of_bare_numbers_is_refused_as_the_reference_refuses_it(tmp_path):
    records = _base_records(6, canonical=False)
    records[2]["joints_3d"] = [0.5 * k for k in range(17)]  # line 4: joints without a length
    loaded = _assert_agree(_write(tmp_path, [json.dumps(record) for record in records]))
    assert isinstance(loaded, SchemaError) and loaded.line_number == 4
    assert str(loaded) == "line 4: joints_3d must be a list of 3-vectors, got shape (17,)"


def test_a_line_that_is_not_utf8_is_refused_naming_it_after_a_lower_bad_line(tmp_path):
    lines = [json.dumps(record) for record in _base_records(6, canonical=False)]
    path = _write(tmp_path, lines)
    crlf = tmp_path / "crlf.ndjson"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    _assert_same_arrays(load_sequences(crlf, TINY), load_sequences(path, TINY))

    def refusal(lines):
        text = '{"meta": {"skeleton": "tiny4"}}\n' + "\n".join(lines) + "\n"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(DataError) as excinfo:
            load_sequences(path, TINY)
        return type(excinfo.value), excinfo.value.line_number, str(excinfo.value)

    lines[3] = lines[3][:20] + "\udcff" + lines[3][21:]  # line 5, written as the lone byte 0xff
    not_utf8 = "'utf-8' codec can't decode byte 0xff in position 20: invalid start byte"
    assert refusal(lines) == (ParseError, 5, f"{path}: line 5: invalid UTF-8: {not_utf8}")
    lines[1] = lines[1].replace("[0.5, -1, ", "[true, -1, ", 1)  # line 3
    assert refusal(lines) == (SchemaError, 3, "line 3: joints_3d holds a value that is not a JSON number")
