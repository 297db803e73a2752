"""Golden test: ``serialize_sequences`` against a per-value reference emitter.

The reference below is the straightforward form of the NDJSON format: every
float goes through ``format_float`` one at a time and every line is joined
from its parts. The template-based serializer must reproduce it byte for
byte on every line shape.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from canonpose.camera import Frame, Pose2D, Pose3D, Space
from canonpose.dataset import FramePair, PoseSequence, serialize_sequences
from canonpose.jsonfmt import format_float
from canonpose.skeleton import Skeleton

EXTREMES = (-0.0, 5e-324, 1.7976931348623157e308, 0.1)
BIG_INDEX = 2**31 + 7


def _reference_joints(array):
    if array is None:
        return "null"
    rows = ", ".join("[" + ", ".join(format_float(value) for value in row) + "]" for row in array)
    return "[" + rows + "]"


def _reference_line(seq, frame, canon):
    parts = [
        f'"subject": {json.dumps(seq.subject)}',
        f'"action": {json.dumps(seq.action)}',
        f'"camera": {json.dumps(seq.camera_id)}',
        f'"frame": {frame.index}',
        f'"joints_2d": {_reference_joints(frame.pose_2d.joints if frame.pose_2d else None)}',
        f'"joints_3d": {_reference_joints(frame.pose_3d.joints if frame.pose_3d else None)}',
    ]
    if canon is not None:
        matrix, vector, root_depth, has_depth = canon
        rotation = ", ".join(format_float(v) for v in matrix.ravel())
        source = ", ".join(format_float(v) for v in vector)
        depth = format_float(root_depth) if has_depth else "null"
        parts.append(
            f'"canon": {{"rotation": [{rotation}], "source": [{source}], "root_depth": {depth}}}'
        )
    return "{" + ", ".join(parts) + "}"


def reference_serialize(sequences):
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
        canon = seq.canon()
        rows = zip(*canon) if canon is not None else (None,) * seq.n_frames
        for frame, row in zip(seq.frames, rows):
            lines.append(_reference_line(seq, frame, row))
    return "\n".join(lines) + "\n" if lines else ""


def _values(rng, shape):
    """Random floats of mixed magnitude, with the edge values planted."""
    out = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, size=shape)
    flat = out.reshape(-1)
    flat[: len(EXTREMES)] = EXTREMES
    return out


def _pose_2d(rng, n_joints):
    return Pose2D(_values(rng, (n_joints, 2)), Space.IMAGE)


def _pose_3d(rng, n_joints, frame=Frame.CAMERA):
    return Pose3D(_values(rng, (n_joints, 3)), frame)


def _rotation(rng, index):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] *= -1.0
    if index % 2:
        # An exact -0.0 entry in a proper rotation (a quarter turn about z).
        q = np.array([[-0.0, -1.0, 0.0], [1.0, -0.0, 0.0], [0.0, 0.0, 1.0]])
    return q, rng.standard_normal(3) + np.array([0.0, 0.0, 3.0])


def _skeleton(n_joints, name):
    return Skeleton(
        name=name,
        joint_names=tuple(f"j{i}" for i in range(n_joints)),
        root_index=0,
        left_hip_index=1,
        right_hip_index=2,
        torso_index=3,
        edges=tuple((0, i) for i in range(1, n_joints)),
    )


def _sequence(key, skeleton, frames, fps=50.0):
    return PoseSequence(key[0], key[1], key[2], fps, tuple(frames), skeleton)


def _canonical(key, skeleton, frames, rotations, depths):
    """A canonical sequence of ``frames``: one (matrix, source) of
    ``rotations`` and one root depth, None for a null one, per frame."""
    columns = replace(
        _sequence(key, skeleton, frames)._columns,
        rotations=np.stack([matrix for matrix, _ in rotations]),
        sources=np.stack([source for _, source in rotations]),
        depths=np.array([0.0 if depth is None else depth for depth in depths]),
        has_depth=np.array([depth is not None for depth in depths]),
    )
    return PoseSequence._of(*key, 50.0, skeleton, columns)


def _all_shapes(rng, skeleton):
    j = skeleton.n_joints
    depths = (2.5, 5e-324, 1.7976931348623157e308, 0.1)
    only_2d = [FramePair(_pose_2d(rng, j), None, t) for t in range(3)]
    only_3d = [FramePair(None, _pose_3d(rng, j), t) for t in range(3)]
    both = [FramePair(_pose_2d(rng, j), _pose_3d(rng, j), BIG_INDEX + t) for t in range(3)]
    mixed = [
        FramePair(_pose_2d(rng, j), _pose_3d(rng, j) if t % 2 else None, t) for t in range(5)
    ]
    canon_frames, canon_rotations = [], []
    for t in range(4):
        canon_frames.append(FramePair(_pose_2d(rng, j), _pose_3d(rng, j, Frame.CANONICAL_CAMERA), t))
        canon_rotations.append(_rotation(rng, t))
    null_frames, null_rotations = [], []
    for t in range(3):
        null_frames.append(FramePair(_pose_2d(rng, j), None, 2**64 + t))
        null_rotations.append(_rotation(rng, t))
    # A 2D-path sequence whose frames differ in whether they carry a depth.
    part_frames, part_rotations = [], []
    for t in range(4):
        part_frames.append(FramePair(_pose_2d(rng, j), _pose_3d(rng, j) if t % 2 else None, t))
        part_rotations.append(_rotation(rng, t))
    return [
        _sequence(("S1", "2d only", "cam0"), skeleton, only_2d),
        _sequence(("S1", "3d only", "cam0"), skeleton, only_3d),
        _sequence(("S1", "both", "cam0"), skeleton, both),
        _sequence(("S1", "mixed", "cam0"), skeleton, mixed),
        _canonical(("S1", "canon", "cam0"), skeleton, canon_frames, canon_rotations, depths),
        _canonical(("S1", "canon null depth", "cam0"), skeleton, null_frames, null_rotations, [None] * 3),
        _canonical(
            ("S1", "canon some depths", "cam0"), skeleton, part_frames, part_rotations,
            [3.0 + t if t % 2 else None for t in range(4)],
        ),
    ]


def test_every_line_shape_matches_reference():
    rng = np.random.default_rng(5)
    skeleton = _skeleton(5, "golden5")
    seqs = _all_shapes(rng, skeleton)
    text = serialize_sequences(seqs)
    assert text == reference_serialize(seqs)
    # Every value planted in the inputs reaches the text unchanged.
    for value in ("-0", "4.9406564584124654e-324", "1.7976931348623157e+308", "0.10000000000000001"):
        assert value in text
    assert f'"frame": {BIG_INDEX}' in text and f'"frame": {2**64}' in text
    assert '"root_depth": null' in text and '"joints_3d": null' in text and '"joints_2d": null' in text


def test_names_are_escaped_for_json_and_templates():
    rng = np.random.default_rng(6)
    skeleton = _skeleton(4, "golden4")
    names = [
        ("100%", "%d %s %(x)s %%", "cam%"),
        ('say "hi"', "back\\slash", "tab\there"),
        ("Zoë", "走る", "cámara ☃"),
    ]
    seqs = []
    for key in names:
        frames = [FramePair(_pose_2d(rng, 4), _pose_3d(rng, 4), t) for t in range(2)]
        seqs.append(_sequence(key, skeleton, frames))
    text = serialize_sequences(seqs)
    assert text == reference_serialize(seqs)
    loaded = [json.loads(line) for line in text.splitlines()[1:]]
    assert [(r["subject"], r["action"], r["camera"]) for r in loaded[::2]] == names


def test_sequences_with_different_layouts_match_reference():
    rng = np.random.default_rng(7)
    small, large = _skeleton(4, "golden4"), _skeleton(6, "golden6")
    seqs = [
        _sequence(("S1", "a", "c"), small, [FramePair(_pose_2d(rng, 4), _pose_3d(rng, 4), 0)]),
        _sequence(("S1", "b", "c"), large, [FramePair(_pose_2d(rng, 6), _pose_3d(rng, 6), 0)], fps=25.0),
    ]
    for seq in seqs:
        assert serialize_sequences([seq]) == reference_serialize([seq])
    # One header cannot carry two layouts.
    with pytest.raises(ValueError, match="^sequences differ in fps or skeleton; save each kind to its own file$"):
        serialize_sequences(seqs)
    assert serialize_sequences([]) == reference_serialize([]) == ""
