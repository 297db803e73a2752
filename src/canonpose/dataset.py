"""Pose-sequence ingestion, serialization, windowing, and batch
canonicalization.

File format (NDJSON, one JSON object per line):

    {"subject": str, "action": str, "camera": str, "frame": int,
     "joints_2d": [[u, v], ...] | null, "joints_3d": [[x, y, z], ...] | null}

A file has at most one header, before every record:

    {"meta": {"skeleton": str, "unit_scale": number, "fps": number}}

``unit_scale`` multiplies 3D coordinates on load (declare 0.001 for
millimeter sources; this package works in meters). Canonicalized files carry
an extra ``canon`` key per record holding the rotation, which
back-transforms predictions later, its source vector, and the root depth.

Floats are written with 17 significant digits, so a load/save round trip is
bit-exact and re-saving a loaded file reproduces it byte for byte; -0.0,
written ``-0``, loads as -0.0, though a frame number ``-0`` is 0. Records
are grouped into sequences by (subject, action, camera) in first-appearance
order, frames in file order.

Text is written in blocks of at most ``_BLOCK_ROWS`` (64) lines, never
whole, and a source's rows are rendered 64 at a time. A row's body (from
``"frame"`` to the newline) is formatted once while consecutive sequences
share its arrays, as the windows of one sequence do.
Loading, canonicalization and windowing return complete lists, so every
check on the data has run before an output is opened, and a refused input
leaves an existing file as it was; formatting checked arrays cannot fail.
An I/O error during the write leaves a partial file.

Input checks run once per array, not once per frame. Line-level checks
(JSON, names, frame number, joint shapes, counts and finiteness, canon block
shapes and root depth, and that every joint, rotation and source value is a
JSON number, not a bool or a string, and that 3D values stay finite once
scaled by ``unit_scale``) run once per block of up to ``_LOAD_ROWS`` (64)
record lines, over flat lists of its values; its rows then go into one
zero-filled array per field for the whole file, made for the rest of the
file at the block's shortest line and grown in place if a later line is
shorter. Every sequence is a slice of those arrays: when some sequences'
lines interleave, the rows are put in sequence order once, in place, after
the last block. A block that fails a line check is checked again line by
line, as is a waiting block before a fault found while decoding (bad JSON, a
non-object, a misplaced header), so the first bad line of the file is
reported, with the same text. Lines are decoded by orjson; a
line orjson refuses (``NaN``, a number past the float range, a lone
surrogate, bad JSON), one that holds an integer ``-0`` or one longer than
``_ORJSON_MAX_LINE`` is decoded by the stdlib ``json``, and the line-by-line
re-check always decodes with the stdlib, so every error text is the
stdlib's. A line nested deeper than the stdlib's recursion limit is refused
as invalid JSON, naming its line, and so is one that is not UTF-8: each
line, ended by a newline byte, is decoded when it is reached. The sequence
checks (no mix of canonical and raw records, 2D in every canonical record,
and the rotation checks of the canon blocks: orthogonality, unit
determinant, finite entries, source norm above EPS_VEC, over
``_CHECK_ROWS`` (256) rows at a time) run once per sequence after the whole
file is read, and report the lowest failing line.
A canonical sequence's 3D loads as canonical-frame when every frame with 3D
has its root at exactly (0, 0, root_depth), as the 3D path writes it, and as
camera-frame otherwise, as the 2D path leaves it.

A sequence is stored as per-sequence arrays, each read-only and checked once
where it is built: (T, J, 2) and (T, J, 3) joints with a (T,) presence mask
each (the 2D in pixels), one 3D frame tag, the frame numbers, and for a
canonical sequence (T, 3, 3) rotations, (T, 3) sources and (T,) root depths
with a null mask. Loading, canonicalization, windowing, serialization and
the statistics read and write those arrays alone. A sequence is read
through them too: ``joints_2d()``, ``joints_3d()``, ``frame_numbers()``,
``frame_3d`` and, for a canonical sequence, ``canon()`` give its rows.
"""

from __future__ import annotations

import functools
import json
import os
import re
from dataclasses import dataclass, replace

import numpy as np
import orjson

from .camera import (
    CameraIntrinsics,
    Frame,
    Pose2D,
    Pose3D,
    _check_joints,
    _vector_norms,
    batch_world_to_camera,
)
from .canonical import (
    _check_rotations,
    _root_depth,
    batch_canonicalize_2d,
    batch_canonicalize_3d,
    batch_project_centered,
)
from .errors import GeometryError, ParseError, SchemaError, SequenceCanonicalizationError
from .jsonfmt import FLOAT_FORMAT, format_float, json_float, json_numbers
from .skeleton import Skeleton

DEFAULT_FPS = 50.0


@dataclass(frozen=True, eq=False)
class FramePair:
    """One frame's observations: 2D, 3D, or both, plus its source frame number."""

    pose_2d: Pose2D | None
    pose_3d: Pose3D | None
    index: int

    def __post_init__(self):
        if self.pose_2d is None and self.pose_3d is None:
            raise ValueError("a frame needs at least one of a 2D or a 3D pose")
        if (
            self.pose_2d is not None
            and self.pose_3d is not None
            and self.pose_2d.n_joints != self.pose_3d.n_joints
        ):
            raise ValueError(
                f"2D and 3D joint counts differ ({self.pose_2d.n_joints} vs {self.pose_3d.n_joints})"
            )
        object.__setattr__(self, "index", int(self.index))

    @property
    def n_joints(self) -> int:
        pose = self.pose_2d if self.pose_2d is not None else self.pose_3d
        return pose.n_joints


@dataclass(eq=False)
class _Columns:
    """One sequence's per-row arrays, shared by every sequence cut from it.

    Joints are None when no frame has the channel, else zeros in the rows
    its mask leaves out; the 2D is pixels and one tag covers the 3D.
    ``index`` holds Python ints. A canonical sequence has rotations, sources
    and depths (0 where ``has_depth`` is false), others None.
    """

    index: np.ndarray
    joints_2d: np.ndarray | None
    has_2d: np.ndarray
    joints_3d: np.ndarray | None
    has_3d: np.ndarray
    frame_3d: Frame = Frame.CAMERA
    rotations: np.ndarray | None = None
    sources: np.ndarray | None = None
    depths: np.ndarray | None = None
    has_depth: np.ndarray | None = None

    def __post_init__(self):
        for joints, width in ((self.joints_2d, 2), (self.joints_3d, 3)):
            if joints is not None:
                _check_joints(joints, width, "joints")
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


def _spread(mask: np.ndarray, values: np.ndarray, shape: tuple) -> np.ndarray | None:
    """``values`` as one row of ``shape`` for each entry ``mask`` sets, zeros
    for the rest; None when it sets none."""
    if not mask.any():
        return None
    if mask.all():
        return values.reshape(-1, *shape)
    rows = np.zeros((len(mask), *shape))
    rows[mask] = values.reshape(-1, *shape)
    return rows


def _columns_of(frames: tuple, skeleton: Skeleton) -> _Columns:
    """The arrays of the public ``PoseSequence`` constructor's frames."""
    poses_2d = [frame.pose_2d for frame in frames]
    poses_3d = [frame.pose_3d for frame in frames]
    has_2d, has_3d = (np.array([pose is not None for pose in poses], dtype=bool) for poses in (poses_2d, poses_3d))
    joints_2d = _spread(has_2d, np.array([p.joints for p in poses_2d if p is not None]), (skeleton.n_joints, 2))
    joints_3d = _spread(has_3d, np.array([p.joints for p in poses_3d if p is not None]), (skeleton.n_joints, 3))
    frames_3d = {p.frame for p in poses_3d if p is not None}
    if len(frames_3d) > 1:
        raise ValueError(f"frames mix 3D frames ({', '.join(sorted(f.value for f in frames_3d))}); one per channel")
    frame_3d = frames_3d.pop() if frames_3d else Frame.CAMERA
    index = np.array([frame.index for frame in frames], dtype=object)
    return _Columns(index, joints_2d, has_2d, joints_3d, has_3d, frame_3d)


@dataclass(frozen=True, eq=False, init=False)
class PoseSequence:
    """Consecutive frames sharing a subject, action, camera, and skeleton.

    Stored as per-sequence arrays with one 3D frame tag (see the module
    docstring), read through ``joints_2d()``, ``joints_3d()``,
    ``frame_numbers()``, ``frame_3d`` and ``canon()``. The constructor
    converts its FramePairs once and raises ValueError for what the arrays
    cannot hold: 3D poses that mix frames.
    """

    subject: str
    action: str
    camera_id: str
    fps: float
    skeleton: Skeleton

    def __init__(self, subject, action, camera_id, fps, frames, skeleton):
        frames = tuple(frames)
        if not frames:
            raise ValueError("a sequence needs at least one frame")
        for position, frame in enumerate(frames):
            if frame.n_joints != skeleton.n_joints:
                raise ValueError(
                    f"frame {position} has {frame.n_joints} joints, skeleton "
                    f"{skeleton.name!r} has {skeleton.n_joints}"
                )
        columns = _columns_of(frames, skeleton)
        vars(self).update(vars(PoseSequence._of(subject, action, camera_id, fps, skeleton, columns)))

    @classmethod
    def _of(cls, subject, action, camera_id, fps, skeleton, columns: _Columns, rows=None) -> "PoseSequence":
        """The private constructor: a sequence over rows (start, stop, pad)
        of ``columns``, rows start..stop-1 then the last ``pad`` more times;
        every row once by default."""
        fps = float(fps)
        if not np.isfinite(fps) or fps <= 0:
            raise ValueError(f"fps must be positive and finite, got {fps!r}")
        seq = object.__new__(cls)
        vars(seq).update(subject=subject, action=action, camera_id=camera_id, fps=fps, skeleton=skeleton)
        vars(seq).update(_columns=columns, _rows=rows or (0, len(columns.index), 0))
        return seq

    @property
    def n_frames(self) -> int:
        start, stop, pad = self._rows
        return stop - start + pad

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.subject, self.action, self.camera_id)

    @property
    def frame_3d(self) -> Frame | None:
        """The one frame of every 3D pose, or None when no frame has 3D."""
        start, stop, _ = self._rows
        return self._columns.frame_3d if self._columns.has_3d[start:stop].any() else None

    def __repr__(self) -> str:
        (start, stop, _), frame = self._rows, self.frame_3d
        return (
            f"PoseSequence(key={self.key!r}, fps={self.fps!r}, n_frames={self.n_frames}, "
            f"skeleton={self.skeleton.name!r}, has_2d={bool(self._columns.has_2d[start:stop].any())}, "
            f"frame_3d={None if frame is None else frame.value!r}, canonical={self._columns.rotations is not None})"
        )

    def frame_numbers(self) -> np.ndarray:
        """(T,) read-only source frame numbers, Python ints; a padded
        window repeats its last."""
        return self._take(self._columns.index)

    def joints_2d(self) -> np.ndarray | None:
        """(T, J, 2) read-only array, or None when any frame lacks a 2D pose."""
        joints, present = self._channel(2)
        return joints if present.all() else None

    def joints_3d(self) -> np.ndarray | None:
        """(T, J, 3) read-only array, or None when any frame lacks a 3D pose."""
        joints, present = self._channel(3)
        return joints if present.all() else None

    def canon(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """(rotations (T, 3, 3), sources (T, 3), root depths (T,), depth mask
        (T,)) of a canonical sequence, read-only, or None for a raw one.

        Row t's rotation maps the root's ray onto the principal axis, and its
        depth is 0 where the mask is false (no root depth is known).
        ``canonical.batch_back_transform(predictions, rotations)`` maps
        root-relative canonical predictions back to the camera frame.
        """
        cols = self._columns
        if cols.rotations is None:
            return None
        return tuple(self._take(values) for values in (cols.rotations, cols.sources, cols.depths, cols.has_depth))

    def _take(self, values: np.ndarray | None) -> np.ndarray | None:
        """This sequence's rows of a per-row array: a view unless padded."""
        if values is None:
            return None
        start, stop, pad = self._rows
        rows = values[start:stop]
        if pad:
            rows = np.concatenate([rows, rows[-1:].repeat(pad, axis=0)])
            rows.setflags(write=False)
        return rows

    def _channel(self, width: int):
        """(joints or None, presence mask) of the 2D or 3D channel."""
        cols = self._columns
        if width == 2:
            return self._take(cols.joints_2d), self._take(cols.has_2d)
        return self._take(cols.joints_3d), self._take(cols.has_3d)

    def _cut(self, offset: int, length: int) -> "PoseSequence":
        """Frames offset..offset+length-1 over the same arrays; positions past
        the last frame repeat it."""
        start, stop, _ = self._rows
        first = min(start + offset, stop - 1)
        end = min(first + length, stop)
        return PoseSequence._of(*self.key, self.fps, self.skeleton, self._columns, (first, end, length - end + first))

    def _replaced(self, **changes) -> "PoseSequence":
        """This sequence with ``changes`` to its ``_Columns`` fields, over its
        own rows of every other array."""
        arrays = vars(self._columns).items()
        rows = {name: self._take(v) for name, v in arrays if isinstance(v, np.ndarray) and name not in changes}
        return PoseSequence._of(*self.key, self.fps, self.skeleton, replace(self._columns, **rows, **changes))


@dataclass(frozen=True)
class WindowSpec:
    """Fixed window length and stride, both in frames."""

    length: int
    stride: int

    def __post_init__(self):
        object.__setattr__(self, "length", int(self.length))
        object.__setattr__(self, "stride", int(self.stride))
        if self.length < 1 or self.stride < 1:
            raise ValueError(f"window length and stride must be >= 1, got {self.length}, {self.stride}")


PAD_POLICIES = ("drop", "repeat-last")


def window(seq: PoseSequence, spec: WindowSpec, pad_policy: str = "drop") -> list[PoseSequence]:
    """Cut a sequence into fixed-length windows.

    Full windows start at offsets 0, stride, 2*stride, ... and must fit
    entirely inside the sequence. Under ``repeat-last``, if the full windows
    do not already cover the final frame, one more window is taken at the
    next offset and padded to length by repeating the last frame; under
    ``drop`` the remainder is discarded. Windows share the sequence's
    arrays; nothing is copied.
    """
    if pad_policy not in PAD_POLICIES:
        raise ValueError(f"pad_policy must be one of {PAD_POLICIES}, got {pad_policy!r}")
    n = seq.n_frames
    length, stride = spec.length, spec.stride
    offsets = list(range(0, n - length + 1, stride)) if n >= length else []
    if pad_policy == "repeat-last":
        covered = offsets[-1] + length if offsets else 0
        next_offset = len(offsets) * stride
        if covered < n and next_offset < n:
            offsets.append(next_offset)
    return [seq._cut(offset, length) for offset in offsets]


# ---------------------------------------------------------------------------
# NDJSON serialization.
# ---------------------------------------------------------------------------

# Line shape bits: which parts of a record line are present.
_HAS_2D, _HAS_3D, _HAS_CANON, _HAS_DEPTH = 1, 2, 4, 8


def _joints_template(width: int, n_joints: int) -> str:
    row = "[" + ", ".join([FLOAT_FORMAT] * width) + "]"
    return "[" + ", ".join([row] * n_joints) + "]"


@functools.lru_cache(maxsize=64)
def _body_template(n_joints: int, shape: int) -> str:
    """The part of a record line after the names, up to its newline, for one
    line shape.

    Slots, in order: the frame index, the 2D joints, the 3D joints, the
    rotation, the source vector and the root depth, each that is present.
    """
    parts = [
        '"frame": %d',
        '"joints_2d": ' + (_joints_template(2, n_joints) if shape & _HAS_2D else "null"),
        '"joints_3d": ' + (_joints_template(3, n_joints) if shape & _HAS_3D else "null"),
    ]
    if shape & _HAS_CANON:
        parts.append(
            '"canon": {"rotation": [%s], "source": [%s], "root_depth": %s}'
            % (
                ", ".join([FLOAT_FORMAT] * 9),
                ", ".join([FLOAT_FORMAT] * 3),
                FLOAT_FORMAT if shape & _HAS_DEPTH else "null",
            )
        )
    return ", ".join(parts) + "}\n"


def _bodies(cols: _Columns, n_joints: int, lo: int, hi: int) -> list[str]:
    """The line bodies (from ``"frame"`` to the newline) of rows lo..hi-1 of ``cols``."""
    shapes = cols.has_2d[lo:hi] * _HAS_2D + cols.has_3d[lo:hi] * _HAS_3D
    slots = [(_HAS_2D, cols.joints_2d), (_HAS_3D, cols.joints_3d)]
    if cols.rotations is not None:
        shapes += _HAS_CANON + cols.has_depth[lo:hi] * _HAS_DEPTH
        slots += [(_HAS_CANON, cols.rotations), (_HAS_CANON, cols.sources), (_HAS_DEPTH, cols.depths)]
    # (rows, K) float slots in template order; a line shape skips the slots it lacks.
    slots = [(bit, values[lo:hi].reshape(hi - lo, -1)) for bit, values in slots if values is not None]
    index = cols.index[lo:hi]
    kinds = np.flatnonzero(np.bincount(shapes)).tolist()
    bodies: list = [None] * (hi - lo)
    for shape in kinds:
        at = np.flatnonzero(shapes == shape)
        # Nearly every block has one shape: it is converted whole, with one tolist().
        rows = at if len(kinds) > 1 else slice(None)
        values = np.concatenate([arr[rows] for bit, arr in slots if shape & bit], axis=1).tolist()
        template = _body_template(n_joints, shape)
        for i, frame_no, row in zip(at.tolist(), index[rows].tolist(), values):
            bodies[i] = template % (frame_no, *row)
    return bodies


# Rows of a source rendered at once, and most lines in one block of text.
_BLOCK_ROWS = 64


def _line_runs(seq: PoseSequence, bodies: dict, keep: int):
    """Runs of ``seq``'s lines, each a flat list of (name prefix, body) pieces.

    ``bodies`` maps a block number of ``seq``'s source rows to those rows'
    bodies; a missing block is rendered and added. Blocks that end at or
    before both the current row and ``keep`` are dropped first.
    """
    prefix = '{"subject": %s, "action": %s, "camera": %s, ' % tuple(map(json.dumps, seq.key))
    cols, (start, stop, pad) = seq._columns, seq._rows
    row = start
    while row < stop:
        for done in [block for block in bodies if (block + 1) * _BLOCK_ROWS <= min(row, keep)]:
            del bodies[done]
        block = row // _BLOCK_ROWS
        base = block * _BLOCK_ROWS
        if block not in bodies:
            bodies[block] = _bodies(cols, seq.skeleton.n_joints, base, min(base + _BLOCK_ROWS, len(cols.index)))
        end = min(stop, base + _BLOCK_ROWS)
        run = [prefix] * (2 * (end - row))
        run[1::2] = bodies[block][row - base : end - base]
        yield run
        row = end
    yield [prefix, bodies[(stop - 1) // _BLOCK_ROWS][(stop - 1) % _BLOCK_ROWS]] * pad


def _check_one_kind(sequences: list) -> None:
    """Refuse sequences that differ in fps or skeleton: one header carries both."""
    if len({(seq.fps, seq.skeleton.name) for seq in sequences}) > 1:
        raise ValueError("sequences differ in fps or skeleton; save each kind to its own file")


def _text_blocks(sequences: list):
    """The NDJSON text of ``sequences``: the header, then blocks of at most
    ``_BLOCK_ROWS`` lines. Only the current source's rendered bodies are
    held, and of those only the blocks that the rest of the current
    sequence, or the next one if it shares the source, still needs.
    """
    _check_one_kind(sequences)
    if sequences:
        yield '{"meta": {"skeleton": %s, "unit_scale": 1, "fps": %s}}\n' % (
            json.dumps(sequences[0].skeleton.name), format_float(sequences[0].fps)
        )
    pieces: list[str] = []
    source, bodies = None, {}
    for seq, after in zip(sequences, [*sequences[1:], None]):
        if seq._columns is not source:
            source, bodies = seq._columns, {}
        keep = after._rows[0] if after is not None and after._columns is source else seq._rows[1]
        for run in _line_runs(seq, bodies, keep):
            pieces += run
            while len(pieces) >= 2 * _BLOCK_ROWS:
                yield "".join(pieces[: 2 * _BLOCK_ROWS])
                del pieces[: 2 * _BLOCK_ROWS]
    if pieces:
        yield "".join(pieces)


def serialize_sequences(sequences) -> str:
    """Render sequences as NDJSON text (deterministic, 17-digit floats);
    ValueError, before any text, if they differ in fps or skeleton."""
    return "".join(_text_blocks(list(sequences)))


def write_sequences(sequences, handle) -> None:
    """Write sequences as NDJSON text to the open text ``handle``, one block
    of lines at a time, so the whole text is never held at once. The bytes
    and the refusal are those of ``serialize_sequences``."""
    for block in _text_blocks(list(sequences)):
        handle.write(block)


def save_sequences(sequences, path) -> None:
    """Write sequences to an NDJSON file; see the module docstring for the
    schema. Saving and re-loading is lossless, and re-saving what was loaded
    reproduces the file byte for byte. Sequences that ``serialize_sequences``
    refuses are refused before the file is opened.
    """
    sequences = list(sequences)
    _check_one_kind(sequences)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_sequences(sequences, fh)


def _parse_joints(value, width: int, expected: int, lineno: int, key: str, scale: float = 1.0) -> np.ndarray | None:
    """A record's joints, unscaled; a fault, or a value that ``scale`` takes
    past the float range, raises SchemaError naming the line."""
    if value is None:
        return None
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"line {lineno}: {key} is not numeric: {exc}", lineno) from exc
    if arr.ndim != 2 or arr.shape[1] != width:
        raise SchemaError(f"line {lineno}: {key} must be a list of {width}-vectors, got shape {arr.shape}", lineno)
    if arr.shape[0] != expected:
        raise SchemaError(
            f"line {lineno}: {key} has {arr.shape[0]} joints, expected {expected}", lineno
        )
    if not json_numbers(value, arr):
        raise SchemaError(f"line {lineno}: {key} holds a value that is not a JSON number", lineno)
    if not np.isfinite(arr).all():
        raise SchemaError(f"line {lineno}: {key} contains non-finite values", lineno)
    with np.errstate(over="ignore"):
        if not np.isfinite(arr * scale).all():
            raise SchemaError(f"line {lineno}: {key} is not finite once scaled by unit_scale {scale!r}", lineno)
    return arr


def _parse_canon(value, lineno: int, unit_scale: float):
    """The (3, 3) rotation, (3,) source and scaled root depth of a canon
    block. Only their shapes, types and the depth's sign are checked here;
    the rotation checks run once per sequence (``_loaded``)."""
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


# Record lines checked at once; a block's values wait as Python floats until then.
_LOAD_ROWS = 64

# The writer writes -0.0 as ``-0``, which JSON reads as the integer 0; this
# decoder reads it back as this float, a record's frame then set to 0.
_MINUS_ZERO = -0.0
_DECODER = json.JSONDecoder(parse_int=lambda text: _MINUS_ZERO if text == "-0" else int(text))


def _decode(text: str):
    """A line's JSON value, each ``-0`` number read as -0.0 except a record's
    frame; a line that starts with a UTF-8 BOM is refused as ``json.loads``
    refuses it."""
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    obj = _DECODER.decode(text)
    if type(obj) is dict and obj.get("frame") is _MINUS_ZERO:
        obj["frame"] = 0
    return obj


# An integer ``-0``: not followed by a fraction, an exponent or a digit.
_INTEGER_MINUS_ZERO = re.compile(r"-0(?![.eE\d])")

# orjson 3.8.3 decodes a line nested 130,000 deep but kills the process at
# 160,000 (default 8 MiB stack), so it is given no line long enough to nest
# past 16,384. An h36m17 canonical record line is about 2.2 KB.
_ORJSON_MAX_LINE = 32 * 1024


def _decode_fast(text: str):
    """A line's JSON value, decoded by orjson. A line orjson refuses, one
    that holds an integer ``-0`` (orjson reads it as 0) or one longer than
    ``_ORJSON_MAX_LINE`` is left to ``_decode``, so every error is the
    stdlib's, and a line nested too deeply raises RecursionError."""
    if len(text) <= _ORJSON_MAX_LINE and _INTEGER_MINUS_ZERO.search(text) is None:
        try:
            return orjson.loads(text)
        except orjson.JSONDecodeError:
            pass
    return _decode(text)


def _invalid_json(path, lineno: int, exc: Exception) -> ParseError:
    """The refusal of a line the decoder rejects or nests too deeply to read."""
    reason = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
    return ParseError(f"{path}: line {lineno}: invalid JSON: {reason}", lineno)


class _Block:
    """Record lines of the file at ``path`` read but not yet checked: numbers
    and texts and, for the lines in the usual form (``add``), keys, frames,
    presence flags and values."""

    def __init__(self, path, n_joints: int, unit_scale: float):
        self.path, self.n_joints, self.unit_scale = path, n_joints, unit_scale
        self.lines, self.keys, self.frames, self.has = [], [], [], []
        self.flat = ([], [], [], [], [])  # 2D joints, 3D joints, rotations, sources, root depths

    def add(self, lineno: int, text: str, obj: dict) -> None:
        """Keep a decoded record line, and its values when it has the usual
        form: string names, an int frame, each channel null or ``n_joints``
        joints of width 2 (3D: 3) and not both null, and canon null or an
        object with a 9-entry rotation and a 3-entry source list. Whether the
        values are numbers is left to ``arrays``."""
        self.lines.append((lineno, text))
        key = subject, action, camera = obj.get("subject"), obj.get("action"), obj.get("camera")
        joints_2d, joints_3d, canon = obj.get("joints_2d"), obj.get("joints_3d"), obj.get("canon")
        rotation, source = (canon.get("rotation"), canon.get("source")) if type(canon) is dict else (None, None)
        n = self.n_joints
        try:
            usual = (
                type(subject) is str and type(action) is str and type(camera) is str
                and type(obj.get("frame")) is int and (joints_2d is not None or joints_3d is not None)
                and (joints_2d is None or type(joints_2d) is list and len(joints_2d) == n
                     and set(map(len, joints_2d)) == {2})
                and (joints_3d is None or type(joints_3d) is list and len(joints_3d) == n
                     and set(map(len, joints_3d)) == {3})
                and (canon is None or type(rotation) is list and len(rotation) == 9
                     and type(source) is list and len(source) == 3)
            )
        except TypeError:  # a joint without a length (one with a length that is not a list fails in ``arrays``)
            usual = False
        if not usual:
            return
        depth = None if canon is None else canon.get("root_depth")
        self.keys.append(key)
        self.frames.append(obj["frame"])
        self.has.append((joints_2d is not None, joints_3d is not None, canon is not None, depth is not None))
        values_2d, values_3d, rotations, sources, depths = self.flat
        for values, joints in ((values_2d, joints_2d), (values_3d, joints_3d)):
            for joint in joints or ():
                values += joint
        if canon is not None:
            rotations += rotation
            sources += source
            depths.append(0.0 if depth is None else depth)

    def check(self) -> dict:
        """Run the line checks over the kept lines, raising SchemaError for
        the first that fails; else keep them again in the usual form and
        return their ``arrays``."""
        lines = self.lines
        self.__init__(self.path, self.n_joints, self.unit_scale)
        for lineno, text in lines:
            try:
                obj = _decode(text)
            except RecursionError as exc:  # orjson read a line nested deeper than the stdlib reads
                raise _invalid_json(self.path, lineno, exc) from exc
            for key in ("subject", "action", "camera"):
                if not isinstance(obj.get(key), str):
                    raise SchemaError(f"line {lineno}: missing or non-string {key!r}", lineno)
            if not isinstance(obj.get("frame"), int) or isinstance(obj.get("frame"), bool):
                raise SchemaError(f"line {lineno}: missing or non-integer 'frame'", lineno)
            for key, width, scale in (("joints_2d", 2, 1.0), ("joints_3d", 3, self.unit_scale)):
                joints = _parse_joints(obj.get(key), width, self.n_joints, lineno, key, scale)
                obj[key] = None if joints is None else joints.tolist()
            if obj["joints_2d"] is None and obj["joints_3d"] is None:
                raise SchemaError(f"line {lineno}: record has neither joints_2d nor joints_3d", lineno)
            canon = _parse_canon(obj.get("canon"), lineno, self.unit_scale)
            if canon is not None:
                obj["canon"].update(rotation=canon[0].ravel().tolist(), source=canon[1].tolist())
            self.add(lineno, text, obj)
        return self.arrays()

    def arrays(self) -> dict | None:
        """The block's rows, one per line (see ``_Rows``), or None unless
        each line has the usual form, each value is a finite JSON number, each
        scaled 3D value is finite and each scaled root depth is positive: then
        the line checks pass too."""
        if len(self.keys) < len(self.lines) or not all(set(map(type, flat)) <= {int, float} for flat in self.flat):
            return None
        try:
            joints_2d, joints_3d, rotations, sources, depths = (np.array(flat, np.float64) for flat in self.flat)
        except OverflowError:  # an int too large for a float
            return None
        has_2d, has_3d, has_canon, has_depth = np.array(self.has, dtype=bool).reshape(-1, 4).T
        with np.errstate(over="ignore"):
            joints_3d *= self.unit_scale
            depths *= self.unit_scale
        finite = all(np.isfinite(values).all() for values in (joints_2d, joints_3d, depths))
        if not finite or not (depths[has_depth[has_canon]] > 0).all():
            return None
        return dict(
            lineno=np.array([lineno for lineno, _ in self.lines]), frame=np.array(self.frames, dtype=object),
            has_2d=has_2d, joints_2d=_spread(has_2d, joints_2d, (self.n_joints, 2)),
            has_3d=has_3d, joints_3d=_spread(has_3d, joints_3d, (self.n_joints, 3)),
            has_canon=has_canon, rotation=_spread(has_canon, rotations, (3, 3)),
            source=_spread(has_canon, sources, (3,)), depth=_spread(has_canon, depths, ()), has_depth=has_depth,
        )


class _Rows:
    """The checked record lines of a file of ``size`` bytes: rows 0..n-1 of one
    array per ``_Block.arrays`` column and of ``sequence``, each line's key's index in ``keys``."""

    def __init__(self, size: int):
        self.size, self.n, self.capacity, self.keys, self.columns = size, 0, 0, {}, {}

    def add(self, block: _Block, read: int) -> None:
        """Check ``block`` and write its lines; ``read``: the bytes of the file read so far."""
        arrays = block.arrays() or block.check()
        arrays["sequence"] = np.array([self.keys.setdefault(key, len(self.keys)) for key in block.keys], dtype=np.intp)
        stop = self.n + len(block.keys)
        if stop > self.capacity:  # rows for the rest of the file at this block's shortest line
            self.resize(stop + max(self.size - read, 0) // min(len(text) + 1 for _, text in block.lines))
        for name, values in arrays.items():
            if values is not None:
                if name not in self.columns:
                    self.columns[name] = np.zeros((self.capacity, *values.shape[1:]), values.dtype)
                self.columns[name][self.n : stop] = values
        self.n = stop

    def resize(self, capacity: int) -> None:
        for column in self.columns.values():  # in place: no view of a column exists until the file is read
            column.resize((capacity, *column.shape[1:]), refcheck=False)
        self.capacity = capacity


# Canon blocks whose rotations are checked at once: the check's temporaries
# do not grow with the sequence.
_CHECK_ROWS = 256


def _loaded(key, arrays: dict, at: slice, skeleton: Skeleton) -> _Columns:
    """One sequence's arrays, rows ``at`` of the file's ``arrays``; a fault
    raises SchemaError naming its line."""
    linenos, has_2d, has_3d, has_canon = (arrays[name][at] for name in ("lineno", "has_2d", "has_3d", "has_canon"))
    joints_2d = arrays["joints_2d"][at] if has_2d.any() else None
    joints_3d = arrays["joints_3d"][at] if has_3d.any() else None
    columns = _Columns(arrays["frame"][at], joints_2d, has_2d, joints_3d, has_3d)
    if not has_canon.any():
        return columns
    if not has_canon.all():
        bad = int(linenos[np.argmin(has_canon)])
        raise SchemaError(f"line {bad}: sequence ({', '.join(key)}) mixes canonicalized and raw frames", bad)
    if not has_2d.all():
        bad = int(linenos[np.argmin(has_2d)])
        raise SchemaError(f"line {bad}: canonicalized record lacks joints_2d", bad)
    rotations, sources = arrays["rotation"][at], arrays["source"][at]
    for start in range(0, len(rotations), _CHECK_ROWS):
        fault = _check_rotations(rotations[start : start + _CHECK_ROWS], sources[start : start + _CHECK_ROWS])
        if fault is not None:
            bad = int(linenos[start + fault[0]])
            raise SchemaError(f"line {bad}: invalid canon block: {fault[1]}", bad) from fault[1]
    depths, has_depth = arrays["depth"][at], arrays["has_depth"][at]
    # The 3D path's root rule: every root at exactly (0, 0, depth).
    roots = joints_3d[has_3d, skeleton.root_index] if joints_3d is not None else np.zeros((0, 3))
    canonical = has_depth[has_3d].all() and not roots[:, :2].any() and np.array_equal(roots[:, 2], depths[has_3d])
    frame_3d = Frame.CANONICAL_CAMERA if canonical else Frame.CAMERA
    return replace(columns, frame_3d=frame_3d, rotations=rotations, sources=sources, depths=depths, has_depth=has_depth)


def _read_meta(obj: dict, lineno: int, skeleton: Skeleton) -> tuple[float, float]:
    meta = obj["meta"]
    if not isinstance(meta, dict):
        raise SchemaError(f"line {lineno}: meta must be an object", lineno)
    for key in ("skeleton", "unit_scale", "fps"):
        try:
            repr(meta.get(key))
        except RecursionError:  # too deep to quote in the refusals below
            raise SchemaError(f"line {lineno}: meta {key} is nested too deeply", lineno) from None
    name = meta.get("skeleton", skeleton.name)
    if name != skeleton.name:
        raise SchemaError(
            f"line {lineno}: file declares skeleton {name!r}, expected {skeleton.name!r}", lineno
        )
    try:
        unit_scale = json_float(meta.get("unit_scale", 1.0), "unit_scale")
        fps = json_float(meta.get("fps", DEFAULT_FPS), "fps")
    except (TypeError, OverflowError) as exc:
        raise SchemaError(f"line {lineno}: invalid meta numbers: {exc}", lineno) from exc
    if unit_scale <= 0 or not np.isfinite(unit_scale):
        raise SchemaError(f"line {lineno}: unit_scale must be positive", lineno)
    if fps <= 0 or not np.isfinite(fps):
        raise SchemaError(f"line {lineno}: fps must be positive", lineno)
    return unit_scale, fps


def load_sequences(path, skeleton: Skeleton) -> list[PoseSequence]:
    """Read an NDJSON pose file into sequences.

    See the module docstring for where each input check runs.

    Args:
        path: file to read.
        skeleton: expected joint layout; a header naming a different skeleton
            is rejected, and every record must carry ``skeleton.n_joints``
            joints.

    Returns:
        Sequences grouped by (subject, action, camera) in first-appearance
        order, frames in file order. 3D joints are multiplied by the header's
        ``unit_scale``.
    """
    unit_scale, fps, header = 1.0, DEFAULT_FPS, None
    block = _Block(path, skeleton.n_joints, unit_scale)
    with open(path, "rb") as fh:
        rows = _Rows(os.fstat(fh.fileno()).st_size)
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                # orjson reads an integer outside [-2**63, 2**64) as a float. A
                # value rounds to the same float64 either way; a frame fails
                # ``_Block.add``'s int test, and ``_Block.check``, which decodes
                # with ``_decode`` alone, decodes its block again.
                obj = _decode_fast(line)
                if not isinstance(obj, dict):
                    raise SchemaError(f"line {lineno}: record must be a JSON object", lineno)
                if "meta" in obj:
                    if rows.keys or block.lines:
                        raise SchemaError(f"line {lineno}: header must precede all records", lineno)
                    if header is not None:
                        raise SchemaError(f"line {lineno}: a second header; the first is line {header}", lineno)
                    unit_scale, fps = _read_meta(obj, lineno, skeleton)
                    header, block.unit_scale = lineno, unit_scale
                    continue
            except (ValueError, RecursionError) as exc:
                # A lower bad line still waiting in the block is reported first.
                block.check()
                if isinstance(exc, UnicodeDecodeError):
                    raise ParseError(f"{path}: line {lineno}: invalid UTF-8: {exc}", lineno) from exc
                if isinstance(exc, (json.JSONDecodeError, RecursionError)):
                    raise _invalid_json(path, lineno, exc) from exc
                raise
            block.add(lineno, line, obj)
            if len(block.lines) == _LOAD_ROWS:
                rows.add(block, fh.tell())
                block = _Block(path, skeleton.n_joints, unit_scale)
        rows.add(block, fh.tell())

    # Every sequence is a row slice: if some sequences interleave, the rows
    # are put in sequence order once, in place, from the first row that moves.
    rows.resize(rows.n)
    sequence = rows.columns["sequence"]
    if (sequence[1:] < sequence[:-1]).any():
        order = np.argsort(sequence, kind="stable")
        first = int(np.argmax(order != np.arange(rows.n)))
        for column in rows.columns.values():
            column[first:] = column[order[first:]]
    stops = np.cumsum(np.bincount(sequence)).tolist()
    # The per-sequence checks run once each, and the lowest failing line of
    # the file is the one reported.
    sequences, faults = [], []
    for key, start, stop in zip(rows.keys, [0, *stops], stops):
        try:
            columns = _loaded(key, rows.columns, slice(start, stop), skeleton)
        except SchemaError as exc:
            faults.append(exc)
            continue
        sequences.append(PoseSequence._of(*key, fps, skeleton, columns))
    if faults:
        raise min(faults, key=lambda exc: exc.line_number)
    return sequences


# ---------------------------------------------------------------------------
# Batch canonicalization.
# ---------------------------------------------------------------------------

CANONICALIZE_MODES = ("3d-path", "2d-path")


def apply_extrinsics(sequences, extrinsics) -> list[PoseSequence]:
    """Move world-frame 3D joints into the camera frame, leaving 2D alone."""
    moved = []
    rotation, translation = extrinsics.rotation, extrinsics.translation
    for seq in sequences:
        world, present = seq._channel(3)
        if world is not None:
            # Moved whole: the frames without 3D hold zeros, so they stay finite.
            camera = batch_world_to_camera(world, rotation, translation)
            camera[~present] = 0
            seq = seq._replaced(joints_3d=camera, has_3d=present, frame_3d=Frame.CAMERA)
        moved.append(seq)
    return moved


def _required(seq: PoseSequence, width: int, what: str, frame: Frame | None = None) -> np.ndarray:
    """The (T, J, width) joints of a channel the path needs in every frame,
    its 3D in ``frame`` if given."""
    joints, present = seq._channel(width)
    if frame is not None and seq.frame_3d is not frame:
        present = np.zeros_like(present)
    if not present.all():
        missing = np.flatnonzero(~present).tolist()
        raise SequenceCanonicalizationError(f"sequence {seq.key} lacks {what} required by this path", missing)
    return joints


def _canonical(seq: PoseSequence, pixels, rotations, sources, depths, has_depth, **changes) -> PoseSequence:
    """``seq`` with canonical 2D ``pixels`` and the given canon blocks. Canon
    blocks are checked where they are read (``_loaded``): ``batch_rodrigues_align``
    built these rotations from the finite, in-front-of-camera sources stored
    beside them, so they are proper rotations by construction."""
    every = np.ones(seq.n_frames, dtype=bool)
    return seq._replaced(
        joints_2d=pixels, has_2d=every,
        rotations=rotations, sources=sources, depths=depths, has_depth=has_depth, **changes,
    )


def _canonicalize_sequence_3d(seq: PoseSequence, intrinsics: CameraIntrinsics) -> PoseSequence:
    # A 3D pose in any other frame counts as missing: it cannot be rotated
    # about the camera's principal axis.
    points = _required(seq, 3, "camera-frame 3D poses", Frame.CAMERA)
    root = seq.skeleton.root_index
    canonical, rotations, depths = batch_canonicalize_3d(points, root)
    pixels = batch_project_centered(canonical, intrinsics)
    every = np.ones(seq.n_frames, dtype=bool)
    return _canonical(
        seq, pixels, rotations, points[:, root].copy(), depths, every,
        joints_3d=canonical, has_3d=every, frame_3d=Frame.CANONICAL_CAMERA,
    )


def _canonicalize_sequence_2d(seq: PoseSequence, intrinsics: CameraIntrinsics) -> PoseSequence:
    pixels = _required(seq, 2, "2D poses")
    root = seq.skeleton.root_index
    canonical, rotations, pelvis = batch_canonicalize_2d(pixels, intrinsics, root)

    # The stored 3D pose (if any) is left untouched: this path exists for
    # data whose 3D is absent or untrusted. It only gives the root depth.
    joints_3d, has_3d = seq._channel(3)
    depths = np.zeros(seq.n_frames)
    if joints_3d is not None:
        with np.errstate(over="ignore"):  # a norm that overflows is inf, refused below
            depths[has_3d] = _vector_norms(joints_3d[has_3d, root])
    undefined = has_3d & ~((depths > 0) & np.isfinite(depths))
    if undefined.any():
        at = np.flatnonzero(undefined).tolist()
        raise SequenceCanonicalizationError(
            f"sequence {seq.key}: the 3D root gives no root depth that is positive and finite", at
        )
    return _canonical(seq, canonical, rotations, pelvis, depths, has_3d)


def canonicalize_dataset(
    sequences, intrinsics: CameraIntrinsics, mode: str, threads: int | None = None
) -> list[PoseSequence]:
    """Canonicalize every sequence as whole arrays, in input order.

    Args:
        sequences: input PoseSequences.
        intrinsics: camera used to build canonical 2D poses.
        mode: "3d-path" (requires camera-frame 3D poses; produces canonical
            3D and 2D) or "2d-path" (requires 2D poses; produces canonical 2D
            and the rotation, leaving any stored 3D untouched).
        threads: accepted and ignored; sequences are canonicalized serially,
            and output bytes are identical for any value.

    Returns:
        New sequences, in input order, each carrying a rotation, source
        vector and root depth per frame (``PoseSequence.canon()``).

    Raises:
        SequenceCanonicalizationError: some sequence is already canonical,
            or has frames that cannot be canonicalized; the error lists
            every offending frame position and no partial sequence is
            emitted.
    """
    if mode not in CANONICALIZE_MODES:
        raise ValueError(f"mode must be one of {CANONICALIZE_MODES}, got {mode!r}")
    work = _canonicalize_sequence_3d if mode == "3d-path" else _canonicalize_sequence_2d
    out = []
    for seq in sequences:
        if seq._columns.rotations is not None:
            raise SequenceCanonicalizationError(f"sequence {seq.key} is already canonical")
        try:
            out.append(work(seq, intrinsics))
        except GeometryError as exc:
            # The kernels index frames along their leading axis; the bare
            # message, so the frames are listed once.
            raise SequenceCanonicalizationError(
                f"sequence {seq.key}: {exc.message}", frame_indices=exc.indices or ()
            ) from exc
    return out
