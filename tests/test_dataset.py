import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from sequence_arrays import rebuilt, rows_of, sequence_of

from canonpose.camera import CameraIntrinsics, Frame, Pose2D, Pose3D, Space, batch_project
from canonpose.dataset import (
    FramePair,
    PoseSequence,
    WindowSpec,
    canonicalize_dataset,
    load_sequences,
    save_sequences,
    serialize_sequences,
    window,
)
from canonpose.errors import ParseError, SchemaError, SequenceCanonicalizationError


def make_sequence(pose_batch, intrinsics, skeleton, n=8, seed=20, key=("S1", "walk", "cam0")):
    pts = pose_batch(n, seed=seed)
    return sequence_of(key, skeleton, range(n), batch_project(pts, intrinsics), pts)


def _only_2d(seq):
    return sequence_of(seq.key, seq.skeleton, seq.frame_numbers(), seq.joints_2d(), fps=seq.fps)


def test_round_trip_is_bitwise(tmp_path, pose_batch, intrinsics, skeleton):
    seqs = [
        make_sequence(pose_batch, intrinsics, skeleton, seed=21),
        make_sequence(pose_batch, intrinsics, skeleton, seed=22, key=("S5", "eat", "cam1")),
    ]
    path = tmp_path / "poses.ndjson"
    save_sequences(seqs, path)
    text = path.read_text()
    assert text.splitlines()[0] == '{"meta": {"skeleton": "h36m17", "unit_scale": 1, "fps": 50}}'
    loaded = load_sequences(path, skeleton)
    assert [seq.key for seq in loaded] == [seq.key for seq in seqs]
    for before, after in zip(seqs, loaded):
        assert after.fps == before.fps
        assert np.array_equal(after.joints_2d(), before.joints_2d())
        assert np.array_equal(after.joints_3d(), before.joints_3d())
        assert after.frame_numbers().tolist() == before.frame_numbers().tolist()
        assert after.frame_3d is Frame.CAMERA
    assert serialize_sequences(loaded) == text


def test_canonical_round_trip_is_bitwise(tmp_path, pose_batch, intrinsics, skeleton):
    seqs = [make_sequence(pose_batch, intrinsics, skeleton, seed=23)]
    canonical = canonicalize_dataset(seqs, intrinsics, "3d-path", threads=1)
    path = tmp_path / "canon.ndjson"
    save_sequences(canonical, path)
    loaded = load_sequences(path, skeleton)
    assert loaded[0].canon() is not None
    for before, after in zip(canonical[0].canon(), loaded[0].canon()):
        assert np.array_equal(after, before)
    assert np.array_equal(loaded[0].joints_2d(), canonical[0].joints_2d())
    assert loaded[0].joints_3d() is not None and loaded[0].frame_3d is Frame.CANONICAL_CAMERA
    assert serialize_sequences(loaded) == path.read_text()


def test_unit_scale_applies_to_3d_and_depth(tmp_path, pose_batch, intrinsics, skeleton):
    seqs = canonicalize_dataset(
        [make_sequence(pose_batch, intrinsics, skeleton, seed=24)], intrinsics, "3d-path", threads=1
    )
    text = serialize_sequences(seqs)
    scaled = text.replace('"unit_scale": 1,', '"unit_scale": 0.001,', 1)
    assert scaled != text
    path = tmp_path / "mm.ndjson"
    path.write_text(scaled)
    loaded = load_sequences(path, skeleton)
    assert np.array_equal(loaded[0].joints_3d(), seqs[0].joints_3d() * 0.001)
    assert np.array_equal(loaded[0].joints_2d(), seqs[0].joints_2d())
    assert np.array_equal(loaded[0].canon()[2], seqs[0].canon()[2] * 0.001)


def test_parse_error_reports_line_number(tmp_path, skeleton):
    path = tmp_path / "bad.ndjson"
    path.write_text('{"meta": {"skeleton": "h36m17"}}\n\nnot json at all\n')
    with pytest.raises(ParseError) as excinfo:
        load_sequences(path, skeleton)
    assert excinfo.value.line_number == 3
    assert "line 3" in str(excinfo.value)


def _joints(skeleton, width, fill=1.0):
    row = ", ".join([str(fill)] * width)
    return "[" + ", ".join(f"[{row}]" for _ in range(skeleton.n_joints)) + "]"


def test_schema_error_catalog(tmp_path, skeleton):
    j2 = _joints(skeleton, 2)
    j3 = _joints(skeleton, 3)
    good = (
        '{"subject": "S1", "action": "a", "camera": "c", "frame": 0, '
        f'"joints_2d": {j2}, "joints_3d": {j3}}}'
    )
    cases = {
        "record must be a JSON object": "[1, 2]",
        "missing or non-string 'subject'": good.replace('"subject": "S1"', '"subject": 3'),
        "missing or non-integer 'frame'": good.replace('"frame": 0', '"frame": true'),
        "must be a list of 3-vectors": good.replace(j3, "[[1, 2]]"),
        f"has 1 joints, expected {skeleton.n_joints}": good.replace(j3, "[[1, 2, 3]]"),
        "contains non-finite values": good.replace(j3, _joints(skeleton, 3, fill="1e999")),
        "neither joints_2d nor joints_3d": good.replace(j2, "null").replace(j3, "null"),
        # Joints without a length fail the block's usual form, then this line check.
        f"joints_2d must be a list of 2-vectors, got shape ({skeleton.n_joints},)": good.replace(
            j2, "[" + ", ".join(["1"] * skeleton.n_joints) + "]"
        ),
        "header must precede all records": good + '\n{"meta": {}}',
        "declares skeleton 'other'": '{"meta": {"skeleton": "other"}}',
        "unit_scale must be positive": '{"meta": {"unit_scale": 0}}',
        "invalid canon block": good.replace(
            ', "joints_3d"', ', "canon": {"rotation": [1], "source": [0, 0, 1]}, "joints_3d"'
        ),
        "canonicalized record lacks joints_2d": good.replace(j2, "null").replace(
            ', "joints_3d"',
            ', "canon": {"rotation": [1,0,0,0,1,0,0,0,1], "source": [0,0,1], "root_depth": 2.0}, "joints_3d"',
        ),
    }
    for needle, body in cases.items():
        path = tmp_path / "case.ndjson"
        path.write_text(body + "\n")
        with pytest.raises(SchemaError) as excinfo:
            load_sequences(path, skeleton)
        assert needle in str(excinfo.value), needle


def test_mixed_canonical_and_raw_frames_rejected(tmp_path, skeleton):
    j2 = _joints(skeleton, 2)
    raw = f'{{"subject": "S1", "action": "a", "camera": "c", "frame": 0, "joints_2d": {j2}, "joints_3d": null}}'
    canon = raw.replace('"frame": 0', '"frame": 1').replace(
        ', "joints_3d"',
        ', "canon": {"rotation": [1,0,0,0,1,0,0,0,1], "source": [0,0,1], "root_depth": null}, "joints_3d"',
    )
    path = tmp_path / "mixed.ndjson"
    path.write_text(raw + "\n" + canon + "\n")
    with pytest.raises(SchemaError) as excinfo:
        load_sequences(path, skeleton)
    assert "mixes" in str(excinfo.value)


@pytest.mark.parametrize(
    "depth",
    ['"abc"', "[1.0]", "true", "false", '{"m": 2}', "1" + "0" * 400],
    ids=["string", "list", "true", "false", "object", "int-overflowing-float"],
)
def test_canon_root_depth_must_be_a_number(tmp_path, skeleton, depth):
    j2 = _joints(skeleton, 2)
    record = (
        '{"subject": "S1", "action": "a", "camera": "c", "frame": 0, '
        f'"joints_2d": {j2}, "joints_3d": null, '
        f'"canon": {{"rotation": [1,0,0,0,1,0,0,0,1], "source": [0,0,1], "root_depth": {depth}}}}}'
    )
    path = tmp_path / "depth.ndjson"
    path.write_text('{"meta": {"fps": 50}}\n' + record + "\n")
    with pytest.raises(SchemaError) as excinfo:
        load_sequences(path, skeleton)
    assert excinfo.value.line_number == 2
    assert "line 2: invalid canon block" in str(excinfo.value)


def test_window_exact_cover(pose_batch, intrinsics, skeleton):
    seq = make_sequence(pose_batch, intrinsics, skeleton, n=405, seed=25)
    spec = WindowSpec(243, 81)
    for policy in ("drop", "repeat-last"):
        windows = window(seq, spec, policy)
        assert len(windows) == 3
        for k, win in enumerate(windows):
            assert win.n_frames == 243
            assert win.frame_numbers().tolist() == list(range(81 * k, 81 * k + 243))
            assert np.array_equal(win.joints_3d(), seq.joints_3d()[81 * k : 81 * k + 243])


def test_window_short_sequence_padding(pose_batch, intrinsics, skeleton):
    seq = make_sequence(pose_batch, intrinsics, skeleton, n=100, seed=26)
    spec = WindowSpec(243, 81)
    assert window(seq, spec, "drop") == []
    padded = window(seq, spec, "repeat-last")
    assert len(padded) == 1
    win = padded[0]
    assert win.n_frames == 243
    assert win.frame_numbers()[:100].tolist() == list(range(100))
    assert all(number == 99 for number in win.frame_numbers()[100:])
    assert np.array_equal(win.joints_3d()[100:], np.broadcast_to(seq.joints_3d()[99], (143, skeleton.n_joints, 3)))


def test_window_tail_offset(pose_batch, intrinsics, skeleton):
    seq = make_sequence(pose_batch, intrinsics, skeleton, n=10, seed=27)
    windows = window(seq, WindowSpec(3, 4), "repeat-last")
    assert [w.frame_numbers().tolist() for w in windows] == [[0, 1, 2], [4, 5, 6], [8, 9, 9]]
    assert len(window(seq, WindowSpec(3, 4), "drop")) == 2
    # A sequence of exactly one window length yields that window and nothing else.
    exact = make_sequence(pose_batch, intrinsics, skeleton, n=3, seed=28)
    assert len(window(exact, WindowSpec(3, 4), "repeat-last")) == 1


def test_window_slices_records(pose_batch, intrinsics, skeleton):
    seq = canonicalize_dataset(
        [make_sequence(pose_batch, intrinsics, skeleton, n=10, seed=29)], intrinsics, "3d-path", threads=1
    )[0]
    windows = window(seq, WindowSpec(4, 8), "repeat-last")
    for win, rows in zip(windows, ([0, 1, 2, 3], [8, 9, 9, 9])):
        for mine, theirs in zip(win.canon(), seq.canon()):
            assert np.array_equal(mine, theirs[rows])
    # The full window views the sequence's arrays.
    assert np.shares_memory(windows[0].canon()[0], seq.canon()[0])
    with pytest.raises(ValueError):
        window(seq, WindowSpec(4, 8), "truncate")
    with pytest.raises(ValueError):
        WindowSpec(0, 1)


def test_canonicalize_dataset_3d_path(pose_batch, intrinsics, skeleton):
    seq = make_sequence(pose_batch, intrinsics, skeleton, n=6, seed=30)
    out = canonicalize_dataset([seq], intrinsics, "3d-path", threads=1)[0]
    assert out.key == seq.key
    roots = out.joints_2d()[:, skeleton.root_index]
    assert np.all(roots == np.array([500.0, 500.0]))
    _, sources, depths, has_depth = out.canon()
    original_roots = seq.joints_3d()[:, skeleton.root_index]
    assert has_depth.all()
    assert np.abs(depths - np.linalg.norm(original_roots, axis=-1)).max() <= 1e-12
    assert np.array_equal(sources, original_roots)
    with pytest.raises(ValueError):
        canonicalize_dataset([seq], intrinsics, "sideways", threads=1)
    with pytest.raises(SequenceCanonicalizationError) as excinfo:
        canonicalize_dataset([out], intrinsics, "3d-path", threads=1)
    assert "already canonical" in str(excinfo.value)


def test_canonicalize_dataset_2d_path(pose_batch, intrinsics, skeleton):
    seq = make_sequence(pose_batch, intrinsics, skeleton, n=6, seed=31)
    via_3d = canonicalize_dataset([seq], intrinsics, "3d-path", threads=1)[0]
    via_2d = canonicalize_dataset([seq], intrinsics, "2d-path", threads=1)[0]
    assert np.abs(via_2d.joints_2d() - via_3d.joints_2d()).max() < 1e-9
    rotations_2d, _, depths_2d, has_depth_2d = via_2d.canon()
    rotations_3d, _, depths_3d, _ = via_3d.canon()
    assert via_2d.frame_3d is Frame.CAMERA
    assert np.abs(rotations_2d - rotations_3d).max() < 1e-9
    assert has_depth_2d.all() and np.abs(depths_2d - depths_3d).max() <= 1e-12
    # Original 3D channel is carried through untouched.
    assert np.array_equal(via_2d.joints_3d(), seq.joints_3d())

    only_2d = _only_2d(seq)
    _, _, depths, has_depth = canonicalize_dataset([only_2d], intrinsics, "2d-path", threads=1)[0].canon()
    assert not has_depth.any() and not depths.any()
    with pytest.raises(SequenceCanonicalizationError) as excinfo:
        canonicalize_dataset([only_2d], intrinsics, "3d-path", threads=1)
    assert excinfo.value.frame_indices == tuple(range(6))


def test_canonicalize_dataset_rejects_whole_sequence(pose_batch, intrinsics, skeleton):
    pts = pose_batch(5, seed=32)
    pts = pts.copy()
    pts[1, :, 2] -= 20.0  # root far behind the camera
    pts[3, skeleton.root_index] = [0.0, 0.0, -4.0]  # antiparallel root ray
    frames = tuple(FramePair(None, Pose3D(p, Frame.CAMERA), t) for t, p in enumerate(pts))
    seq = PoseSequence("S1", "walk", "cam0", 50.0, frames, skeleton)
    with pytest.raises(SequenceCanonicalizationError) as excinfo:
        canonicalize_dataset([seq], intrinsics, "3d-path", threads=1)
    assert excinfo.value.frame_indices == (1, 3)


def test_canonicalize_dataset_thread_count_is_invisible(pose_batch, intrinsics, skeleton):
    seqs = [
        make_sequence(pose_batch, intrinsics, skeleton, n=7, seed=33),
        make_sequence(pose_batch, intrinsics, skeleton, n=5, seed=34, key=("S2", "sit", "cam0")),
        make_sequence(pose_batch, intrinsics, skeleton, n=9, seed=35, key=("S3", "run", "cam2")),
    ]
    one = serialize_sequences(canonicalize_dataset(seqs, intrinsics, "3d-path", threads=1))
    many = serialize_sequences(canonicalize_dataset(seqs, intrinsics, "3d-path", threads=4))
    assert one == many


def test_canonicalize_3d_zero_length_root_names_its_frame(pose_batch, skeleton, intrinsics):
    pts = pose_batch(4, seed=36).copy()
    pts[2, skeleton.root_index] = 0.0
    frames = tuple(FramePair(None, Pose3D(p, Frame.CAMERA), t) for t, p in enumerate(pts))
    seq = PoseSequence("S1", "walk", "cam0", 50.0, frames, skeleton)
    with pytest.raises(SequenceCanonicalizationError) as excinfo:
        canonicalize_dataset([seq], intrinsics, "3d-path", threads=1)
    assert excinfo.value.frame_indices == (2,)


def test_canonicalize_3d_limb_crossing_camera_plane_names_its_frame(pose_batch, skeleton, intrinsics):
    pts = pose_batch(4, seed=37).copy()
    # The root is in front of the camera, and so is every joint, but one
    # joint lies behind the plane through the camera normal to the root ray.
    pts[1] = [1.0, 0.0, 1.0]
    pts[1, skeleton.root_index + 1] = [-1.0, 0.0, 0.5]
    frames = tuple(FramePair(None, Pose3D(p, Frame.CAMERA), t) for t, p in enumerate(pts))
    seq = PoseSequence("S1", "walk", "cam0", 50.0, frames, skeleton)
    with pytest.raises(SequenceCanonicalizationError) as excinfo:
        canonicalize_dataset([seq], intrinsics, "3d-path", threads=1)
    assert excinfo.value.frame_indices == (1,)


def test_canonicalize_2d_vanishing_w_names_its_frame(pose_batch, skeleton, intrinsics):
    pix = batch_project(pose_batch(4, seed=38), intrinsics).copy()
    # Root ray (1, 0, 1) and joint ray (-1, 0, 1) are orthogonal, so the
    # rotated joint has w = 0.
    pix[3] = [intrinsics.cx + intrinsics.fx, intrinsics.cy]
    pix[3, skeleton.root_index + 1] = [intrinsics.cx - intrinsics.fx, intrinsics.cy]
    frames = tuple(FramePair(Pose2D(p, Space.IMAGE), None, t) for t, p in enumerate(pix))
    seq = PoseSequence("S1", "walk", "cam0", 50.0, frames, skeleton)
    with pytest.raises(SequenceCanonicalizationError) as excinfo:
        canonicalize_dataset([seq], intrinsics, "2d-path", threads=1)
    assert excinfo.value.frame_indices == (3,)


def test_save_refuses_sequences_the_header_cannot_carry(tmp_path, pose_batch, intrinsics, skeleton):
    seq = make_sequence(pose_batch, intrinsics, skeleton, n=3, seed=39)
    other = rebuilt(seq, key=("S2", *seq.key[1:]), fps=25.0)
    path = tmp_path / "mixed.ndjson"
    with pytest.raises(ValueError, match="fps or skeleton"):
        save_sequences([seq, other], path)
    assert not path.exists()
    renamed = replace(skeleton, name="h36m17b")
    with pytest.raises(ValueError, match="fps or skeleton"):
        save_sequences([seq, rebuilt(other, fps=50.0, skeleton=renamed)], path)
    save_sequences([seq, rebuilt(other, fps=50.0)], path)
    assert [s.fps for s in load_sequences(path, skeleton)] == [50.0, 50.0]


def _canon_record(skeleton, frame, rotation, source, subject="S1"):
    return (
        f'{{"subject": "{subject}", "action": "a", "camera": "c", "frame": {frame}, '
        f'"joints_2d": {_joints(skeleton, 2)}, "joints_3d": null, '
        f'"canon": {{"rotation": {rotation}, "source": {source}, "root_depth": null}}}}'
    )


IDENTITY = "[1,0,0,0,1,0,0,0,1]"


@pytest.mark.parametrize(
    "bad_line, rotation, source, needle",
    [
        (3, "[1,0,0,0,1,0,0,0,-1]", "[0,0,1]", "canonical rotation is not a proper rotation"),
        (3, "[1,0,0,0,1,0,0,0.5,1]", "[0,0,1]", "canonical rotation is not orthogonal"),
        (2, IDENTITY, "[0,0,0]", "source_vector norm"),
    ],
    ids=["improper", "not-orthogonal", "zero-source"],
)
def test_canon_rotation_errors_name_their_line(tmp_path, skeleton, bad_line, rotation, source, needle):
    lines = [
        _canon_record(skeleton, k, rotation if k + 1 == bad_line else IDENTITY,
                      source if k + 1 == bad_line else "[0,0,1]")
        for k in range(3)
    ]
    path = tmp_path / "canon.ndjson"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as excinfo:
        load_sequences(path, skeleton)
    assert excinfo.value.line_number == bad_line
    assert f"line {bad_line}: invalid canon block: {needle}" in str(excinfo.value)


def test_canon_rotation_error_reports_the_lowest_line_of_the_file(tmp_path, skeleton):
    improper = "[1,0,0,0,1,0,0,0,-1]"
    lines = [
        _canon_record(skeleton, 0, IDENTITY, "[0,0,1]", subject="S1"),
        _canon_record(skeleton, 0, IDENTITY, "[0,0,1]", subject="S2"),
        _canon_record(skeleton, 1, IDENTITY, "[0,0,1]", subject="S1"),
        _canon_record(skeleton, 1, improper, "[0,0,1]", subject="S2"),
        _canon_record(skeleton, 2, improper, "[0,0,1]", subject="S1"),
    ]
    path = tmp_path / "canon.ndjson"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as excinfo:
        load_sequences(path, skeleton)
    assert excinfo.value.line_number == 4


@pytest.mark.parametrize("row", [0, 255, 256, 299])
def test_a_canon_rotation_error_past_the_first_check_block_names_its_line(tmp_path, skeleton, row):
    """Rotations are checked 256 rows at a time, after interleaved sequences
    are put in order: the refusal still names the file line of the bad row."""
    improper = "[1,0,0,0,1,0,0,0,-1]"
    lines = [
        _canon_record(skeleton, k // 2, improper if k == 2 * row else IDENTITY, "[0,0,1]", subject=f"S{k % 2}")
        for k in range(600)
    ]
    path = tmp_path / "canon.ndjson"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as excinfo:
        load_sequences(path, skeleton)
    assert excinfo.value.line_number == 2 * row + 1
    assert str(excinfo.value).startswith(f"line {2 * row + 1}: invalid canon block: ")


def test_a_source_whose_norm_overflows_builds_its_record_without_a_warning(tmp_path, skeleton):
    path = tmp_path / "canon.ndjson"
    path.write_text(_canon_record(skeleton, 0, IDENTITY, "[1e308,0,1]") + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (seq,) = load_sequences(path, skeleton)
    assert seq.canon()[1].tolist() == [[1e308, 0.0, 1.0]]


def _assert_read_only(arrays):
    arrays = list(arrays)
    assert arrays
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def _sequence_arrays(seq):
    for width in (2, 3):
        yield from (joints for joints in rows_of(seq, width) if joints is not None)
    yield from (joints for joints in (seq.joints_2d(), seq.joints_3d()) if joints is not None)
    yield seq.frame_numbers()
    yield from seq.canon() or ()


def test_loaded_and_canonicalized_arrays_are_read_only(tmp_path, pose_batch, intrinsics, skeleton):
    seq = make_sequence(pose_batch, intrinsics, skeleton, n=5, seed=45)
    only_2d = _only_2d(seq)
    via_3d = canonicalize_dataset([seq], intrinsics, "3d-path")
    via_2d = canonicalize_dataset([seq], intrinsics, "2d-path")
    produced = via_3d + via_2d + canonicalize_dataset([only_2d], intrinsics, "2d-path")
    raw_path, canon_path = tmp_path / "raw.ndjson", tmp_path / "canon.ndjson"
    save_sequences([seq], raw_path)
    save_sequences(via_3d, canon_path)
    loaded = load_sequences(raw_path, skeleton) + load_sequences(canon_path, skeleton)
    # The second window repeats the last frame: its arrays are copies.
    padded = window(via_3d[0], WindowSpec(4, 3), "repeat-last")
    assert [w.n_frames for w in padded] == [4, 4]
    for out in produced + loaded + padded:
        _assert_read_only(_sequence_arrays(out))


def test_canonicalize_2d_root_depth_is_the_per_frame_norm(pose_batch, intrinsics, skeleton):
    seq = make_sequence(pose_batch, intrinsics, skeleton, n=30, seed=48)
    has_3d = [number % 4 != 0 for number in seq.frame_numbers().tolist()]
    gappy = sequence_of(seq.key, skeleton, seq.frame_numbers(), seq.joints_2d(), seq.joints_3d(), has_3d=has_3d)
    out = canonicalize_dataset([gappy], intrinsics, "2d-path")[0]
    _, _, depths, has_depth = out.canon()
    for joints, depth, known in zip(rows_of(gappy, 3), depths, has_depth):
        if joints is None:
            assert not known and depth == 0.0
        else:
            assert known and depth == float(np.linalg.norm(joints[skeleton.root_index]))


@pytest.mark.parametrize(
    "meta",
    ['{"fps": true}', '{"fps": "25"}', '{"unit_scale": "0.001"}', '{"fps": 1' + "0" * 400 + "}"],
    ids=["fps-bool", "fps-string", "unit-scale-string", "fps-int-overflowing-float"],
)
def test_header_numbers_must_be_json_numbers(tmp_path, skeleton, meta):
    record = (
        '{"subject": "S1", "action": "a", "camera": "c", "frame": 0, '
        f'"joints_2d": {_joints(skeleton, 2)}, "joints_3d": {_joints(skeleton, 3)}}}'
    )
    path = tmp_path / "header.ndjson"
    path.write_text('{"meta": ' + meta + "}\n" + record + "\n")
    with pytest.raises(SchemaError) as excinfo:
        load_sequences(path, skeleton)
    assert excinfo.value.line_number == 1
    assert "line 1: invalid meta numbers" in str(excinfo.value)


def _with_some_3d_dropped(seq):
    has_3d = [number % 3 != 0 for number in seq.frame_numbers().tolist()]
    return sequence_of(
        seq.key, seq.skeleton, seq.frame_numbers(), seq.joints_2d(), seq.joints_3d(), fps=seq.fps, has_3d=has_3d
    )


def test_2d_path_output_reloads_with_camera_frame_3d(tmp_path, pose_batch, intrinsics, skeleton):
    seq = _with_some_3d_dropped(make_sequence(pose_batch, intrinsics, skeleton, n=9, seed=51))
    via_2d = canonicalize_dataset([seq], intrinsics, "2d-path")
    path = tmp_path / "canon2d.ndjson"
    save_sequences(via_2d, path)
    loaded = load_sequences(path, skeleton)[0]
    for before, after in zip(rows_of(seq, 3), rows_of(loaded, 3)):
        if before is None:
            assert after is None
        else:
            assert np.array_equal(after, before)
    assert loaded.frame_3d is Frame.CAMERA
    for mine, theirs in zip(loaded.canon()[2:], via_2d[0].canon()[2:]):
        assert np.array_equal(mine, theirs)
    assert serialize_sequences([loaded]) == path.read_text()


def test_canonical_3d_needs_every_root_on_the_axis(tmp_path, pose_batch, intrinsics, skeleton):
    seq = make_sequence(pose_batch, intrinsics, skeleton, n=4, seed=52)
    via_3d = canonicalize_dataset([seq], intrinsics, "3d-path")
    text = serialize_sequences(via_3d)
    path = tmp_path / "canon.ndjson"
    path.write_text(text)
    loaded = load_sequences(path, skeleton)[0]
    assert loaded.joints_3d() is not None and loaded.frame_3d is Frame.CANONICAL_CAMERA
    # Move one frame's root off the axis: the sequence mixes two frames, and
    # is refused at that line. Move every root: it reads as camera-frame.
    lines = text.splitlines()
    root = skeleton.root_index
    for lineno in range(2, len(lines) + 1):
        record = json.loads(lines[lineno - 1])
        record["joints_3d"][root][0] = 1e-3
        lines[lineno - 1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        if lineno == 2:
            with pytest.raises(SchemaError, match=r"^line 2: .* mixes canonical-frame and camera-frame 3D") as info:
                load_sequences(path, skeleton)
            assert info.value.line_number == 2
    moved = load_sequences(path, skeleton)[0]
    assert moved.joints_3d() is not None and moved.frame_3d is Frame.CAMERA


def test_the_3d_path_output_shares_no_memory_with_its_input(pose_batch, intrinsics, skeleton, rotation_factory):
    """A canonical sequence owns its arrays, so its camera-frame input can be
    freed; a sequence is moved whole, to the bits of moving only the frames
    that have 3D, with zeros where a frame has none."""
    from canonpose.camera import CameraExtrinsics, batch_world_to_camera
    from canonpose.dataset import apply_extrinsics

    seq = make_sequence(pose_batch, intrinsics, skeleton, n=6, seed=62)
    has_3d = [number not in (1, 4) for number in seq.frame_numbers().tolist()]
    gappy = sequence_of(seq.key, skeleton, seq.frame_numbers(), seq.joints_2d(), seq.joints_3d(), has_3d=has_3d)
    extrinsics = CameraExtrinsics(rotation_factory(7), [0.1, 0.2, 4.0])
    moved, moved_gappy = apply_extrinsics([seq, gappy], extrinsics)
    for before, after in ((seq, moved), (gappy, moved_gappy)):
        world, present = before._channel(3)
        masked = np.zeros_like(world)
        masked[present] = batch_world_to_camera(world[present], extrinsics.rotation, extrinsics.translation)
        assert after._channel(3)[0].tobytes() == masked.tobytes()
        assert np.array_equal(after._channel(3)[1], present)
    assert not moved_gappy._channel(3)[1][[1, 4]].any()
    root = skeleton.root_index
    for camera_frame in (seq, moved):
        (out,) = canonicalize_dataset([camera_frame], intrinsics, "3d-path")
        points = camera_frame._columns.joints_3d
        assert np.array_equal(out._columns.sources, points[:, root])
        for name in ("joints_2d", "joints_3d", "rotations", "sources", "depths"):
            assert not np.shares_memory(getattr(out._columns, name), points), name


def _number_record(skeleton, frame, canon):
    record = {
        "subject": "S1", "action": "a", "camera": "c", "frame": frame,
        "joints_2d": [[1.0, 2.0]] * skeleton.n_joints,
        "joints_3d": None if canon else [[0.1, 0.2, 3.0]] * skeleton.n_joints,
    }
    if canon:
        record["canon"] = {"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "source": [0, 0, 1], "root_depth": None}
    return record


@pytest.mark.parametrize(
    "canon, where, value",
    [
        (False, ("joints_2d", 0), [True, "2"]),
        (False, ("joints_3d", 4), [0.1, False, 3.0]),
        (True, ("canon", "rotation"), ["1", 0, 0, 0, 1, 0, 0, 0, 1]),
        (True, ("canon", "source"), [False, 0, True]),
        (False, ("joints_3d", 2), [10**400, 0.0, 3.0]),
    ],
    ids=["joints_2d-bool-and-string", "joints_3d-bool", "rotation-string", "source-bools", "int-overflowing-float"],
)
def test_record_values_must_be_json_numbers(tmp_path, skeleton, canon, where, value):
    from canonpose.cli import run

    records = [_number_record(skeleton, frame, canon) for frame in range(4)]
    records[1][where[0]] = dict(records[1][where[0]]) if canon and where[0] == "canon" else list(records[1][where[0]])
    records[1][where[0]][where[1]] = value
    # A second bad line after the first: the first is the one reported.
    records[2][where[0]] = records[1][where[0]]
    path = tmp_path / "values.ndjson"
    path.write_text('{"meta": {"fps": 50}}\n' + "\n".join(json.dumps(r) for r in records) + "\n")
    with pytest.raises(SchemaError) as excinfo:
        load_sequences(path, skeleton)
    assert excinfo.value.line_number == 3
    assert str(excinfo.value).startswith("line 3: ")
    assert where[1 if canon else 0] in str(excinfo.value)
    assert run(["stats", "--input", str(path)]) == 2


def _per_frame_objects():
    import gc

    kinds = (FramePair, Pose2D, Pose3D)
    gc.collect()
    return [obj for obj in gc.get_objects() if isinstance(obj, kinds)]


def test_cli_data_path_builds_no_per_frame_object(tmp_path, pose_batch, intrinsics, skeleton, rotation_factory):
    from canonpose.camera import CameraExtrinsics
    from canonpose.dataset import apply_extrinsics
    from canonpose.stats import body_orientation_distribution, joint_scatter_extent, pelvis_position_distribution

    path = tmp_path / "raw.ndjson"
    save_sequences([make_sequence(pose_batch, intrinsics, skeleton, n=11, seed=56)], path)
    # Held, so that no object alive before the run can free its id for reuse.
    before = _per_frame_objects()
    known = {id(obj) for obj in before}

    loaded = load_sequences(path, skeleton)
    moved = apply_extrinsics(loaded, CameraExtrinsics(rotation_factory(8), [0.1, 0.2, 0.3]))
    via_3d = canonicalize_dataset(moved, intrinsics, "3d-path")
    via_2d = canonicalize_dataset(loaded, intrinsics, "2d-path")
    windows = [win for seq in via_3d + via_2d for win in window(seq, WindowSpec(4, 3), "repeat-last")]
    text = serialize_sequences(windows + via_3d + via_2d)
    everything = loaded + via_3d + via_2d + windows
    results = (
        pelvis_position_distribution(everything, intrinsics),
        body_orientation_distribution(everything),
        joint_scatter_extent(everything, "2d"),
        joint_scatter_extent(everything, "3d-root-relative"),
    )
    new = [type(obj).__name__ for obj in _per_frame_objects() if id(obj) not in known]
    assert new == []
    assert text and results and len(windows) == 8


def test_constructor_refuses_mixed_3d_frames(pose_batch, intrinsics, skeleton):
    seq = make_sequence(pose_batch, intrinsics, skeleton, n=4, seed=57)
    pixels, points = seq.joints_2d(), seq.joints_3d()
    frames = [
        FramePair(Pose2D(pixels[t], Space.IMAGE), Pose3D(points[t], Frame.GLOBAL if t == 2 else Frame.CAMERA), t)
        for t in range(4)
    ]
    with pytest.raises(ValueError, match=r"mix 3D frames \(camera, global\)"):
        PoseSequence("S1", "walk", "cam0", 50.0, frames, skeleton)


def test_a_2d_pose_in_any_space_but_pixels_is_refused():
    """A sequence's 2D is pixels, the one space a file holds, so a 2D pose
    can be built in no other."""
    with pytest.raises(ValueError, match="'screen-normalized' is not a valid Space"):
        Pose2D(np.zeros((17, 2)), "screen-normalized")
    assert list(Space) == [Space.IMAGE]


def test_canonicalize_2d_refuses_a_3d_root_at_the_camera_center(pose_batch, intrinsics, skeleton):
    seq = make_sequence(pose_batch, intrinsics, skeleton, n=4, seed=60)
    joints = seq.joints_3d().copy()
    joints[1, skeleton.root_index] = 0.0
    at_center = sequence_of(seq.key, skeleton, seq.frame_numbers(), seq.joints_2d(), joints)
    with pytest.raises(SequenceCanonicalizationError) as excinfo:
        canonicalize_dataset([at_center], intrinsics, "2d-path")
    assert excinfo.value.frame_indices == (1,)


def test_both_paths_refuse_a_joint_behind_the_canonical_camera_with_one_text(pose_batch, skeleton):
    # The root sits at (4, 0, 4) m and one joint at (-3, 0, 1) m: in front of
    # the camera, but behind the plane through it normal to the root ray.
    intrinsics = CameraIntrinsics(fx=1100.0, fy=1100.0, cx=500.0, cy=500.0, width=1000.0, height=1000.0)
    root = skeleton.root_index
    pts = pose_batch(3, seed=63).copy()
    pts[1] += np.array([4.0, 0.0, 4.0]) - pts[1, root]
    pts[1, root + 1] = [-3.0, 0.0, 1.0]
    pix = batch_project(pts, intrinsics)
    frames = [FramePair(Pose2D(pix[t], Space.IMAGE), Pose3D(pts[t], Frame.CAMERA), t) for t in range(3)]
    seq = PoseSequence("S1", "walk", "cam0", 50.0, frames, skeleton)
    texts = []
    for mode in ("3d-path", "2d-path"):
        with pytest.raises(SequenceCanonicalizationError) as excinfo:
            canonicalize_dataset([seq], intrinsics, mode)
        texts.append(str(excinfo.value))
    want = "sequence ('S1', 'walk', 'cam0'): 1 canonical joint(s) at or behind the camera plane (Z <= 1e-06) (frames [1])"
    assert texts == [want, want]


def _short_pose(seq):
    """Frame 0's 3D pose without its last joint."""
    return Pose3D(seq.joints_3d()[0, :-1], Frame.CAMERA)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda seq, intr: FramePair(None, None, 0), "a frame needs at least one of a 2D or a 3D pose"),
        (
            lambda seq, intr: FramePair(Pose2D(seq.joints_2d()[0], Space.IMAGE), _short_pose(seq), 0),
            "2D and 3D joint counts differ (17 vs 16)",
        ),
        (lambda seq, intr: PoseSequence(*seq.key, seq.fps, (), seq.skeleton), "a sequence needs at least one frame"),
        (
            lambda seq, intr: PoseSequence(*seq.key, seq.fps, [FramePair(None, _short_pose(seq), 0)], seq.skeleton),
            "frame 0 has 16 joints, skeleton 'h36m17' has 17",
        ),
        (lambda seq, intr: rebuilt(seq, fps=0.0), "fps must be positive and finite, got 0.0"),
        (lambda seq, intr: rebuilt(seq, fps=float("nan")), "fps must be positive and finite, got nan"),
    ],
    ids=["frame-without-poses", "frame-joint-counts-differ", "sequence-without-frames", "frame-joint-count",
         "fps-zero", "fps-nan"],
)
def test_constructors_refuse_what_a_sequence_cannot_hold(pose_batch, intrinsics, skeleton, build, message):
    seq = make_sequence(pose_batch, intrinsics, skeleton, n=3, seed=62)
    with pytest.raises(ValueError) as excinfo:
        build(seq, intrinsics)
    assert str(excinfo.value) == message


def test_padded_windows_canonicalize_like_their_frames(pose_batch, intrinsics, skeleton):
    seq = make_sequence(pose_batch, intrinsics, skeleton, n=10, seed=61)
    windows = window(seq, WindowSpec(4, 4), "repeat-last")
    assert windows[-1].frame_numbers().tolist() == [8, 9, 9, 9]
    for mode in ("3d-path", "2d-path"):
        cuts = window(canonicalize_dataset([seq], intrinsics, mode)[0], WindowSpec(4, 4), "repeat-last")
        for win, cut in zip(canonicalize_dataset(windows, intrinsics, mode), cuts):
            assert win.frame_numbers().tolist() == cut.frame_numbers().tolist()
            assert np.abs(win.joints_2d() - cut.joints_2d()).max() < 1e-9
            (mine, _, my_depths, mine_known), (theirs, _, their_depths, theirs_known) = win.canon(), cut.canon()
            assert np.abs(mine - theirs).max() < 1e-12
            assert np.array_equal(mine_known, theirs_known)
            assert np.abs(my_depths - their_depths).max() <= 1e-12


def _record_line(skeleton, canon=None):
    record = (
        '{"subject": "S1", "action": "a", "camera": "c", "frame": 0, '
        f'"joints_2d": {_joints(skeleton, 2)}, "joints_3d": null'
    )
    return record + (f', "canon": {canon}}}' if canon is not None else "}")


_IDENTITY_CANON = '{"rotation": [1,0,0,0,1,0,0,0,1], "source": [0,0,1], "root_depth": %s}'


@pytest.mark.parametrize(
    "header, canon, message",
    [
        ('{"meta": {}}', "[1, 2]", "line 2: canon must be an object"),
        ('{"meta": {}}', _IDENTITY_CANON % "0", "line 2: root_depth must be positive and finite, got 0.0"),
        ('{"meta": {}}', _IDENTITY_CANON % "-2.5", "line 2: root_depth must be positive and finite, got -2.5"),
        ('{"meta": {"unit_scale": 0.25}}', _IDENTITY_CANON % "-4", "line 2: root_depth must be positive and finite, got -1.0"),
        ('{"meta": {"fps": 0}}', None, "line 1: fps must be positive"),
        ('{"meta": [50]}', None, "line 1: meta must be an object"),
        ('{"meta": {"skeleton": [[["x"]]]}}', None, "line 1: file declares skeleton [[['x']]], expected 'h36m17'"),
        ('{"meta": {"fps": %s}}' % ("[" * 900 + "]" * 900), None,
         "line 1: invalid meta numbers: fps must be a number, got %s" % ("[" * 900 + "]" * 900)),
        ('{"meta": {"skeleton": %s}}' % ("[" * 5000 + "]" * 5000), None, "line 1: meta skeleton is nested too deeply"),
        ('{"meta": {"unit_scale": %s}}' % ("[" * 5000 + "]" * 5000), None,
         "line 1: meta unit_scale is nested too deeply"),
    ],
    ids=["canon-not-object", "root-depth-zero", "root-depth-negative", "root-depth-scaled", "fps-zero",
         "meta-not-object", "skeleton-nested-3-deep", "fps-nested-900-deep", "skeleton-nested-5000-deep",
         "unit-scale-nested-5000-deep"],
)
def test_loader_refusals_name_their_line(tmp_path, skeleton, header, canon, message):
    path = tmp_path / "refused.ndjson"
    path.write_text(header + "\n" + _record_line(skeleton, canon) + "\n")
    with pytest.raises(SchemaError) as excinfo:
        load_sequences(path, skeleton)
    assert str(excinfo.value) == message
    assert excinfo.value.line_number == int(message.split()[1].rstrip(":"))


def test_canonical_file_with_null_root_depths_reloads_as_camera_frame(tmp_path, pose_batch, intrinsics, skeleton):
    seq = make_sequence(pose_batch, intrinsics, skeleton, n=4, seed=53)
    text = serialize_sequences(canonicalize_dataset([seq], intrinsics, "3d-path"))
    records = [json.loads(line) for line in text.splitlines()[1:]]
    for record in records:
        record["canon"]["root_depth"] = None
    path = tmp_path / "null_depth.ndjson"
    path.write_text(text.splitlines()[0] + "\n" + "".join(json.dumps(record) + "\n" for record in records))
    loaded = load_sequences(path, skeleton)[0]
    assert loaded.joints_3d() is not None and loaded.frame_3d is Frame.CAMERA
    assert not loaded.canon()[3].any()
    for joints, record in zip(loaded.joints_3d(), records):
        assert joints.tolist() == record["joints_3d"]


def test_2d_path_output_of_a_2d_only_file_resaves_byte_for_byte(tmp_path, pose_batch, intrinsics, skeleton):
    seq = make_sequence(pose_batch, intrinsics, skeleton, n=5, seed=54)
    only_2d = _only_2d(seq)
    path = tmp_path / "canon2d.ndjson"
    save_sequences(canonicalize_dataset([only_2d], intrinsics, "2d-path"), path)
    text = path.read_text()
    assert '"joints_3d": null' in text and '"root_depth": null' in text
    loaded = load_sequences(path, skeleton)
    assert serialize_sequences(loaded) == text
    resaved = tmp_path / "resaved.ndjson"
    save_sequences(loaded, resaved)
    assert resaved.read_bytes() == path.read_bytes()


def test_a_second_header_is_refused(tmp_path, skeleton):
    from canonpose.cli import run

    # Read in turn, the second header would reset unit_scale to 1 and the
    # millimetre 3D below would load 1000 times too large.
    path = tmp_path / "two_headers.ndjson"
    record = _record_line(skeleton).replace('"joints_3d": null', f'"joints_3d": {_joints(skeleton, 3, 1500)}')
    path.write_text('{"meta": {"unit_scale": 0.001}}\n{"meta": {"fps": 25}}\n' + record + "\n")
    with pytest.raises(SchemaError) as excinfo:
        load_sequences(path, skeleton)
    assert str(excinfo.value) == "line 2: a second header; the first is line 1"
    assert excinfo.value.line_number == 2
    assert run(["stats", "--input", str(path)]) == 2


def test_minus_zero_loads_as_minus_zero_and_a_minus_zero_frame_as_frame_zero(tmp_path, skeleton):
    # The writer's text for -0.0 is "-0": in a value it reads back as -0.0, as
    # a frame number as the integer 0; a "-0.0" frame is still not an integer.
    line = '{"subject": "S1", "action": "a", "camera": "c", "frame": -0, "joints_2d": %s, "joints_3d": %s}'
    path = tmp_path / "zeros.ndjson"
    path.write_text(line % (_joints(skeleton, 2, "-0"), _joints(skeleton, 3, "-0")) + "\n")
    (seq,) = load_sequences(path, skeleton)
    assert [(type(i), i) for i in seq.frame_numbers().tolist()] == [(int, 0)]
    for joints in (seq.joints_2d(), seq.joints_3d()):
        assert not joints.any() and np.signbit(joints).all()
    assert serialize_sequences([seq]).splitlines()[1] == line.replace("-0,", "0,", 1) % (
        _joints(skeleton, 2, "-0"), _joints(skeleton, 3, "-0"))
    path.write_text(line.replace("-0,", "-0.0,", 1) % (_joints(skeleton, 2), _joints(skeleton, 3)) + "\n")
    with pytest.raises(SchemaError, match="line 1: missing or non-integer 'frame'"):
        load_sequences(path, skeleton)


def _refuse_a_frame(*args):
    raise AssertionError("a FramePair was built")


def test_repr_of_a_loaded_sequence_builds_no_frame(tmp_path, pose_batch, intrinsics, skeleton, monkeypatch):
    seq = make_sequence(pose_batch, intrinsics, skeleton, n=1100, seed=24)
    path = tmp_path / "canon.ndjson"
    save_sequences(canonicalize_dataset([seq], intrinsics, "3d-path", threads=1), path)
    (loaded,) = load_sequences(path, skeleton)
    known = {id(obj) for obj in _per_frame_objects()}
    with monkeypatch.context() as patch:
        patch.setattr(FramePair, "__post_init__", _refuse_a_frame)
        text = repr(loaded)
        listed = str([loaded])
    assert len(text) < 300
    assert text == (
        "PoseSequence(key=('S1', 'walk', 'cam0'), fps=50.0, n_frames=1100, skeleton='h36m17', "
        "has_2d=True, frame_3d='canonical-camera', canonical=True)"
    )
    assert listed == f"[{text}]"
    assert [type(obj).__name__ for obj in _per_frame_objects() if id(obj) not in known] == []
    only_2d = _only_2d(seq)
    assert repr(only_2d).endswith("has_2d=True, frame_3d=None, canonical=False)")


def test_frame_numbers_of_a_padded_window_repeat_its_last(pose_batch, intrinsics, skeleton):
    pts = pose_batch(5, seed=64)
    seq = sequence_of(("S1", "walk", "cam0"), skeleton, range(100, 115, 3), batch_project(pts, intrinsics), pts)
    windows = window(seq, WindowSpec(4, 3), "repeat-last")
    assert [w.frame_numbers().tolist() for w in windows] == [[100, 103, 106, 109], [109, 112, 112, 112]]
    assert all(type(number) is int for number in windows[1].frame_numbers())
    _assert_read_only([w.frame_numbers() for w in windows] + [seq.frame_numbers()])


def test_frame_numbers_of_interleaved_sequences_stay_their_own(tmp_path, skeleton):
    lines = [
        f'{{"subject": "S1", "action": "{action}", "camera": "c", "frame": {frame}, '
        f'"joints_2d": {_joints(skeleton, 2)}, "joints_3d": null}}'
        for action, frame in (("a", 7), ("b", 40), ("a", 3), ("b", 41), ("b", 2), ("a", 9))
    ]
    path = tmp_path / "interleaved.ndjson"
    path.write_text("\n".join(lines) + "\n")
    first, second = load_sequences(path, skeleton)
    assert (first.action, first.frame_numbers().tolist()) == ("a", [7, 3, 9])
    assert (second.action, second.frame_numbers().tolist()) == ("b", [40, 41, 2])


def test_frame_3d_is_none_without_3d(tmp_path, pose_batch, intrinsics, skeleton):
    seq = make_sequence(pose_batch, intrinsics, skeleton, n=6, seed=65)
    only_2d = _only_2d(seq)
    assert seq.frame_3d is Frame.CAMERA and only_2d.frame_3d is None
    path = tmp_path / "only2d.ndjson"
    save_sequences([only_2d], path)
    (loaded,) = load_sequences(path, skeleton)
    assert loaded.frame_3d is None
    # A window of a sequence that has 3D only in its first frames, and 2D
    # only in the rest, has no 3D, and its repr says so.
    has_3d = [number < 2 for number in seq.frame_numbers().tolist()]
    split = sequence_of(
        seq.key, skeleton, seq.frame_numbers(), seq.joints_2d(), seq.joints_3d(),
        has_2d=[not h for h in has_3d], has_3d=has_3d,
    )
    first, last = window(split, WindowSpec(2, 4), "drop")
    assert (first.frame_3d, last.frame_3d) == (Frame.CAMERA, None)
    assert repr(first).endswith("has_2d=False, frame_3d='camera', canonical=False)")
    assert repr(last).endswith("has_2d=True, frame_3d=None, canonical=False)")
