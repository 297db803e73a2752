"""Pose-sequence ingestion, serialization, windowing, and batch
canonicalization.

File format (NDJSON, one JSON object per line):

    {"subject": str, "action": str, "camera": str, "frame": int,
     "joints_2d": [[u, v], ...] | null, "joints_3d": [[x, y, z], ...] | null}

An optional header may appear as the first line:

    {"meta": {"skeleton": str, "unit_scale": number, "fps": number}}

``unit_scale`` multiplies 3D coordinates on load (declare 0.001 for
millimeter sources; this package works in meters). Canonicalized files carry
an extra ``canon`` key per record holding the rotation, its source vector,
and the root depth, so predictions can be back-transformed later.

Floats are written with 17 significant digits, so a load/save round trip is
bit-exact and re-saving a loaded file reproduces it byte for byte. Records
are grouped into sequences by (subject, action, camera) in first-appearance
order, frames in file order.

Input checks run once per array, not once per frame. Line-level checks
(JSON, names, frame number, joint shapes, counts and finiteness, canon block
shapes and root depth type) run as each line is read, in file order, so the
first bad line is the one reported. The rotation checks of the canon blocks
(orthogonality, unit determinant, finite entries, source norm above
EPS_VEC) run once per sequence after the whole file is read, and report the
lowest failing line. A canonical sequence's 3D loads as canonical-frame when
every frame with 3D has its root at exactly (0, 0, root_depth), as the 3D
path writes it, and as camera-frame otherwise, as the 2D path leaves it.

Poses and rotations are read-only views into one checked array per sequence
and channel. The views are built here and only here (``_view``); a channel
is read back as one fresh array by ``PoseSequence._gather``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .camera import (
    CameraIntrinsics,
    Frame,
    Pose2D,
    Pose3D,
    Space,
    _check_joints,
    _vector_norms,
    batch_world_to_camera,
)
from .canonical import (
    CanonicalRecord,
    CanonicalRotation,
    _check_rotations,
    batch_canonicalize_2d,
    batch_canonicalize_3d,
    batch_project_centered,
)
from .errors import GeometryError, ParseError, SchemaError, SequenceCanonicalizationError
from .jsonfmt import FLOAT_FORMAT, format_float, json_float
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


@dataclass(frozen=True, eq=False)
class PoseSequence:
    """Consecutive frames sharing a subject, action, camera, and skeleton.

    ``records`` is populated by canonicalization and holds one
    CanonicalRecord per frame.
    """

    subject: str
    action: str
    camera_id: str
    fps: float
    frames: tuple[FramePair, ...]
    skeleton: Skeleton
    records: tuple[CanonicalRecord, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        if not self.frames:
            raise ValueError("a sequence needs at least one frame")
        fps = float(self.fps)
        if not np.isfinite(fps) or fps <= 0:
            raise ValueError(f"fps must be positive and finite, got {fps!r}")
        object.__setattr__(self, "fps", fps)
        expected = self.skeleton.n_joints
        for position, frame in enumerate(self.frames):
            if frame.n_joints != expected:
                raise ValueError(
                    f"frame {position} has {frame.n_joints} joints, skeleton "
                    f"{self.skeleton.name!r} has {expected}"
                )
        if self.records is not None:
            object.__setattr__(self, "records", tuple(self.records))
            if len(self.records) != len(self.frames):
                raise ValueError("records and frames must have equal length")

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.subject, self.action, self.camera_id)

    def joints_2d(self) -> np.ndarray | None:
        """(T, J, 2) array, or None when any frame lacks a 2D pose."""
        at, joints = self._gather("pose_2d")
        return joints if len(at) == self.n_frames else None

    def joints_3d(self) -> np.ndarray | None:
        """(T, J, 3) array, or None when any frame lacks a 3D pose."""
        at, joints = self._gather("pose_3d")
        return joints if len(at) == self.n_frames else None

    def _gather(self, channel: str, tag=None) -> tuple[list[int], np.ndarray | None]:
        """Positions of the frames carrying a ``channel`` ("pose_2d" or
        "pose_3d") pose, tagged ``tag`` if given, and those joints stacked into
        one fresh (n, J, k) array (None when n is 0)."""
        key = "space" if channel == "pose_2d" else "frame"
        poses = [getattr(frame, channel) for frame in self.frames]
        at = [i for i, pose in enumerate(poses) if pose is not None and tag in (None, getattr(pose, key))]
        return at, (np.stack([poses[i].joints for i in at]) if at else None)


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
    ``drop`` the remainder is discarded.
    """
    if pad_policy not in PAD_POLICIES:
        raise ValueError(f"pad_policy must be one of {PAD_POLICIES}, got {pad_policy!r}")
    n = seq.n_frames
    length, stride = spec.length, spec.stride
    offsets = list(range(0, n - length + 1, stride)) if n >= length else []
    slices = [(off, seq.frames[off : off + length], False) for off in offsets]
    if pad_policy == "repeat-last":
        covered = offsets[-1] + length if offsets else 0
        next_offset = len(offsets) * stride
        if covered < n and next_offset < n:
            tail = seq.frames[next_offset:]
            padded = tail + (tail[-1],) * (length - len(tail))
            slices.append((next_offset, padded, True))
    out = []
    for off, frames, is_padded in slices:
        records = None
        if seq.records is not None:
            records = seq.records[off : off + length]
            if is_padded:
                records = records + (records[-1],) * (length - len(records))
        out.append(replace(seq, frames=frames, records=records))
    return out


# ---------------------------------------------------------------------------
# NDJSON serialization.
# ---------------------------------------------------------------------------


def _joints_template(width: int, n_joints: int) -> str:
    row = "[" + ", ".join([FLOAT_FORMAT] * width) + "]"
    return "[" + ", ".join([row] * n_joints) + "]"


@functools.lru_cache(maxsize=64)
def _body_template(n_joints: int, has_2d: bool, has_3d: bool, canon: str | None) -> str:
    """The part of a record line after the names, for one line shape.

    ``canon`` is None (no canon block), "null" (null root depth) or "depth".
    Slots, in order: the frame index, the 2D joints, the 3D joints, the
    rotation, the source vector and the root depth, each that is present.
    """
    parts = [
        '"frame": %d',
        '"joints_2d": ' + (_joints_template(2, n_joints) if has_2d else "null"),
        '"joints_3d": ' + (_joints_template(3, n_joints) if has_3d else "null"),
    ]
    if canon is not None:
        parts.append(
            '"canon": {"rotation": [%s], "source": [%s], "root_depth": %s}'
            % (
                ", ".join([FLOAT_FORMAT] * 9),
                ", ".join([FLOAT_FORMAT] * 3),
                FLOAT_FORMAT if canon == "depth" else "null",
            )
        )
    return ", ".join(parts) + "}"


def _line_shape(frame: FramePair, record: CanonicalRecord | None) -> tuple:
    canon = None
    if record is not None:
        canon = "null" if record.root_depth is None else "depth"
    return (frame.pose_2d is not None, frame.pose_3d is not None, canon)


def _shape_values(frames, records, shape) -> np.ndarray:
    """(n, K) array of one shape's float slots, in template order."""
    has_2d, has_3d, canon = shape
    n = len(frames)
    columns = []
    if has_2d:
        columns.append(np.stack([f.pose_2d.joints for f in frames]).reshape(n, -1))
    if has_3d:
        columns.append(np.stack([f.pose_3d.joints for f in frames]).reshape(n, -1))
    if canon is not None:
        columns.append(np.stack([r.rotation.matrix for r in records]).reshape(n, 9))
        columns.append(np.stack([r.rotation.source_vector for r in records]))
        if canon == "depth":
            columns.append(np.array([[r.root_depth] for r in records], dtype=np.float64))
    return np.concatenate(columns, axis=1)


def _sequence_lines(seq: PoseSequence) -> list[str]:
    # Names are baked into the line template, so a "%" in one must be doubled.
    prefix = '{"subject": %s, "action": %s, "camera": %s, ' % tuple(
        json.dumps(name).replace("%", "%%") for name in seq.key
    )
    records = seq.records if seq.records is not None else (None,) * seq.n_frames
    shapes = [_line_shape(frame, record) for frame, record in zip(seq.frames, records)]
    lines: list = [None] * seq.n_frames
    # Nearly every sequence has one shape, so this gathers the whole sequence
    # into one array and converts it with one tolist().
    for shape in dict.fromkeys(shapes):
        positions = [i for i, s in enumerate(shapes) if s == shape]
        template = prefix + _body_template(seq.skeleton.n_joints, *shape)
        frames = [seq.frames[i] for i in positions]
        values = _shape_values(frames, [records[i] for i in positions], shape).tolist()
        for i, frame, row in zip(positions, frames, values):
            lines[i] = template % (frame.index, *row)
    return lines


def serialize_sequences(sequences) -> str:
    """Render sequences as NDJSON text (deterministic, 17-digit floats)."""
    sequences = list(sequences)
    lines = []
    if sequences:
        fps_values = {seq.fps for seq in sequences}
        names = {seq.skeleton.name for seq in sequences}
        if len(fps_values) == 1 and len(names) == 1:
            lines.append(
                '{"meta": {"skeleton": %s, "unit_scale": 1, "fps": %s}}'
                % (json.dumps(next(iter(names))), format_float(next(iter(fps_values))))
            )
    for seq in sequences:
        lines.extend(_sequence_lines(seq))
    return "\n".join(lines) + "\n" if lines else ""


def save_sequences(sequences, path) -> None:
    """Write sequences to an NDJSON file; see the module docstring for the
    schema. Saving and re-loading is lossless, and re-saving what was loaded
    reproduces the file byte for byte.

    Raises:
        ValueError: the sequences differ in fps or skeleton, which the one
            header line cannot carry.
    """
    sequences = list(sequences)
    if len({(seq.fps, seq.skeleton.name) for seq in sequences}) > 1:
        raise ValueError("sequences differ in fps or skeleton; save each kind to its own file")
    text = serialize_sequences(sequences)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _parse_joints(value, width: int, expected: int, lineno: int, key: str) -> np.ndarray | None:
    if value is None:
        return None
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"line {lineno}: {key} is not numeric: {exc}", lineno) from exc
    if arr.ndim != 2 or arr.shape[1] != width:
        raise SchemaError(f"line {lineno}: {key} must be a list of {width}-vectors, got shape {arr.shape}", lineno)
    if arr.shape[0] != expected:
        raise SchemaError(
            f"line {lineno}: {key} has {arr.shape[0]} joints, expected {expected}", lineno
        )
    if not np.isfinite(arr).all():
        raise SchemaError(f"line {lineno}: {key} contains non-finite values", lineno)
    return arr


def _parse_canon(value, lineno: int, unit_scale: float):
    """The (3, 3) rotation, (3,) source and scaled root depth of a canon
    block. Only their shapes and types are checked here; the rotation
    checks run once per sequence (``_check_canon_blocks``)."""
    if value is None:
        return None
    if not isinstance(value, dict):
        raise SchemaError(f"line {lineno}: canon must be an object", lineno)
    try:
        matrix = np.asarray(value["rotation"], dtype=np.float64).reshape(3, 3)
        source = np.asarray(value["source"], dtype=np.float64).reshape(3)
        depth = value.get("root_depth")
        if depth is not None:
            depth = json_float(depth, "root_depth", "a number or null") * unit_scale
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"line {lineno}: invalid canon block: {exc}", lineno) from exc
    return matrix, source, depth


def _check_canon_blocks(groups: dict) -> dict:
    """Stack each sequence's canon rotations and sources and check them once.

    Returns {sequence key: (rotations (n, 3, 3), sources (n, 3))}, read-only,
    over the sequence's records that carry a canon block. Raises the
    SchemaError a per-line check would have raised first: the lowest failing
    line of the file.
    """
    stacks, faults = {}, []
    for key, rows in groups.items():
        canon_rows = [row for row in rows if row[4] is not None]
        if not canon_rows:
            continue
        rotations = np.stack([row[4][0] for row in canon_rows])
        sources = np.stack([row[4][1] for row in canon_rows])
        fault = _check_rotations(rotations, sources)
        if fault is not None:
            faults.append((canon_rows[fault[0]][0], fault[1]))
        stacks[key] = (rotations, sources)
    if faults:
        lineno, exc = min(faults, key=lambda fault: fault[0])
        raise SchemaError(f"line {lineno}: invalid canon block: {exc}", lineno) from exc
    return stacks


def _stack_column(rows: list, width: int, scale: float = 1.0) -> tuple[list[int], np.ndarray | None]:
    """Positions of the loader rows (lineno, frame, joints_2d, joints_3d,
    canon) whose joints of ``width`` are present, and those joints stacked
    and multiplied by ``scale``."""
    at = [i for i, row in enumerate(rows) if row[width] is not None]
    if not at:
        return at, None
    stack = np.stack([rows[i][width] for i in at])
    stack *= scale
    return at, stack


def _view(cls, *fields):
    """A Pose2D, Pose3D or CanonicalRotation holding ``fields`` as given (rows
    of checked read-only arrays, and a tag); nothing is copied or checked."""
    view = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, fields):
        object.__setattr__(view, name, value)
    return view


def _poses(joints: np.ndarray | None, tag, n: int | None = None, at=None) -> list:
    """Views of the rows of ``joints`` (len(at), J, k), checked once, at the
    positions ``at`` of n entries (default: every row), None elsewhere."""
    if at is None:
        n = len(joints)
        at = range(n)
    out = [None] * n
    if at:
        cls, width = (Pose2D, 2) if isinstance(tag, Space) else (Pose3D, 3)
        for i, row in zip(at, _check_joints(joints, width, "joints")):
            out[i] = _view(cls, row, tag)
    return out


def _roots_on_axis(joints: np.ndarray | None, root: int, depths: list) -> bool:
    """The root rule of ``CanonicalRecord``: every root at exactly (0, 0, depth)."""
    return not depths or (None not in depths and np.array_equal(joints[:, root], [(0, 0, d) for d in depths]))


def _read_meta(obj: dict, lineno: int, skeleton: Skeleton) -> tuple[float, float]:
    meta = obj["meta"]
    if not isinstance(meta, dict):
        raise SchemaError(f"line {lineno}: meta must be an object", lineno)
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
    unit_scale, fps = 1.0, DEFAULT_FPS
    groups: dict[tuple[str, str, str], list] = {}
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

    canon_stacks = _check_canon_blocks(groups)
    sequences = []
    for key in list(groups):
        subject, action, camera_id = key
        # Popped, so a sequence's per-line arrays are freed once its stacks exist.
        rows = groups.pop(key)
        canon_count = sum(1 for row in rows if row[4] is not None)
        if canon_count not in (0, len(rows)):
            bad = next(lineno for lineno, _, _, _, canon in rows if canon is None)
            raise SchemaError(
                f"line {bad}: sequence ({subject}, {action}, {camera_id}) mixes "
                "canonicalized and raw frames",
                bad,
            )
        canonical = canon_count > 0
        n = len(rows)
        at_2d, joints_2d = _stack_column(rows, 2)
        at_3d, joints_3d = _stack_column(rows, 3, unit_scale)
        depths = [rows[i][4][2] for i in at_3d] if canonical else None
        canonical_3d = canonical and _roots_on_axis(joints_3d, skeleton.root_index, depths)
        poses_2d = _poses(joints_2d, Space.IMAGE, n, at_2d)
        poses_3d = _poses(joints_3d, Frame.CANONICAL_CAMERA if canonical_3d else Frame.CAMERA, n, at_3d)
        if canonical:
            rotations = map(_view, repeat(CanonicalRotation), *canon_stacks[key])
        frames, records = [], []
        for (lineno, frame_no, _, _, canon), pose_2d, pose_3d in zip(rows, poses_2d, poses_3d):
            try:
                frames.append(FramePair(pose_2d, pose_3d, frame_no))
                if canonical:
                    if pose_2d is None:
                        raise SchemaError(f"line {lineno}: canonicalized record lacks joints_2d", lineno)
                    record_3d = pose_3d if canonical_3d else None
                    records.append(CanonicalRecord(record_3d, pose_2d, next(rotations), canon[2], skeleton.name))
            except SchemaError:
                raise
            except ValueError as exc:
                raise SchemaError(f"line {lineno}: {exc}", lineno) from exc
        records = tuple(records) if canonical else None
        sequences.append(PoseSequence(subject, action, camera_id, fps, tuple(frames), skeleton, records))
    return sequences


# ---------------------------------------------------------------------------
# Batch canonicalization.
# ---------------------------------------------------------------------------

CANONICALIZE_MODES = ("3d-path", "2d-path")


def _rebuild(seq: PoseSequence, poses_3d=None, poses_2d=None, canon=None) -> PoseSequence:
    """``seq`` with new poses for each channel given (lists from ``_poses``).

    ``canon`` is (rotations (T, 3, 3), sources (T, 3), root depths) of every
    frame: the rotations are checked once, and each record holds the frame's
    new 2D pose and, when new 3D poses are given, its new 3D pose. Without
    ``canon`` the records are kept.
    """
    new_3d = [frame.pose_3d for frame in seq.frames] if poses_3d is None else poses_3d
    new_2d = [frame.pose_2d for frame in seq.frames] if poses_2d is None else poses_2d
    frames = tuple(map(FramePair, new_2d, new_3d, [frame.index for frame in seq.frames]))
    if canon is None:
        return replace(seq, frames=frames)
    rotations, sources, depths = canon
    fault = _check_rotations(rotations, sources)
    if fault is not None:
        raise fault[1]
    views = map(_view, repeat(CanonicalRotation), rotations, sources)
    records = map(CanonicalRecord, poses_3d or repeat(None), new_2d, views, depths, repeat(seq.skeleton.name))
    return replace(seq, frames=frames, records=tuple(records))


def apply_extrinsics(sequences, extrinsics) -> list[PoseSequence]:
    """Move world-frame 3D joints into the camera frame, leaving 2D alone."""
    moved = []
    for seq in sequences:
        at, world = seq._gather("pose_3d")
        if at:
            camera = batch_world_to_camera(world, extrinsics.rotation, extrinsics.translation)
            seq = _rebuild(seq, poses_3d=_poses(camera, Frame.CAMERA, seq.n_frames, at))
        moved.append(seq)
    return moved


def _gather_every(seq: PoseSequence, channel: str, what: str, tag=None) -> np.ndarray:
    """``seq._gather`` of a channel the path needs in every frame."""
    at, joints = seq._gather(channel, tag)
    if len(at) < seq.n_frames:
        missing = sorted(set(range(seq.n_frames)).difference(at))
        raise SequenceCanonicalizationError(f"sequence {seq.key} lacks {what} required by this path", missing)
    return joints


def _canonicalize_sequence_3d(seq: PoseSequence, intrinsics: CameraIntrinsics) -> PoseSequence:
    # A 3D pose in any other frame counts as missing: it cannot be rotated
    # about the camera's principal axis.
    points = _gather_every(seq, "pose_3d", "camera-frame 3D poses", Frame.CAMERA)
    root = seq.skeleton.root_index
    canonical, rotations, depths = batch_canonicalize_3d(points, root)
    pixels = batch_project_centered(canonical, intrinsics)
    return _rebuild(
        seq,
        poses_3d=_poses(canonical, Frame.CANONICAL_CAMERA),
        poses_2d=_poses(pixels, Space.IMAGE),
        canon=(rotations, points[:, root], depths.tolist()),
    )


def _canonicalize_sequence_2d(seq: PoseSequence, intrinsics: CameraIntrinsics) -> PoseSequence:
    pixels = _gather_every(seq, "pose_2d", "2D poses")
    root = seq.skeleton.root_index
    canonical, rotations, pelvis = batch_canonicalize_2d(pixels, intrinsics, root)

    # The stored 3D pose (if any) is left untouched: this path exists for
    # data whose 3D is absent or untrusted. It only gives the root depth.
    depths = [None] * seq.n_frames
    at_3d, joints_3d = seq._gather("pose_3d")
    if at_3d:
        for i, depth in zip(at_3d, _vector_norms(np.ascontiguousarray(joints_3d[:, root])).tolist()):
            depths[i] = depth
    return _rebuild(seq, poses_2d=_poses(canonical, Space.IMAGE), canon=(rotations, pelvis, depths))


def canonicalize_dataset(
    sequences, intrinsics: CameraIntrinsics, mode: str, threads: int | None = None
) -> list[PoseSequence]:
    """Canonicalize every sequence, frame by frame, in input order.

    Args:
        sequences: input PoseSequences.
        intrinsics: camera used to build canonical 2D poses.
        mode: "3d-path" (requires camera-frame 3D poses; produces canonical
            3D and 2D) or "2d-path" (requires 2D poses; produces canonical 2D
            and the rotation, leaving any stored 3D untouched).
        threads: accepted and ignored; sequences are canonicalized serially,
            and output bytes are identical for any value.

    Returns:
        New sequences, in input order, carrying one CanonicalRecord per
        frame.

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
        if seq.records is not None:
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
