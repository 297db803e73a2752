"""The streaming NDJSON writer: windows, block boundaries, stdout against a
file, no output on failure, and one body render per source row."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest
from test_serializer import _skeleton, reference_serialize

from canonpose import dataset
from canonpose.camera import Frame, Pose2D, Pose3D, Space, batch_project
from canonpose.cli import run
from canonpose.dataset import (
    _BLOCK_ROWS,
    FramePair,
    PoseSequence,
    WindowSpec,
    canonicalize_dataset,
    save_sequences,
    serialize_sequences,
    window,
    write_sequences,
)


@pytest.fixture
def camera_file(tmp_path, intrinsics):
    path = tmp_path / "camera.json"
    path.write_text(json.dumps(intrinsics.to_dict()))
    return str(path)


@pytest.fixture
def sources(pose_batch, intrinsics):
    """A canonical source longer than the writer's block, and a short raw
    source whose frames carry 2D only, 3D only or both; five joints each, so
    the reference emitter stays quick."""
    n = _BLOCK_ROWS + 452
    skeleton = _skeleton(5, "writer5")
    points = pose_batch(n, seed=31)[:, :5]
    pixels = batch_project(points, intrinsics)
    frames = [FramePair(Pose2D(pixels[t], Space.IMAGE), Pose3D(points[t], Frame.CAMERA), t) for t in range(n)]
    long = PoseSequence("S1", "walk", "cam0", 50.0, frames, skeleton)
    (long,) = canonicalize_dataset([long], intrinsics, "3d-path")
    short = []
    for t in range(50):
        pose_2d = Pose2D(pixels[t], Space.IMAGE) if t % 3 != 1 else None
        pose_3d = Pose3D(points[t], Frame.CAMERA) if t % 3 != 0 else None
        short.append(FramePair(pose_2d, pose_3d, 1000 + t))
    return long, PoseSequence("S2", "eat", "cam1", 50.0, short, skeleton)


@pytest.mark.parametrize("pad", ["drop", "repeat-last"])
def test_windows_match_the_reference(sources, pad):
    long, short = sources
    spec = WindowSpec(243, 81)
    long_windows, short_windows = window(long, spec, pad), window(short, spec, pad)
    assert len(short_windows) == (pad == "repeat-last")
    # The windows of two sources alternating, so neither source's bodies
    # can be kept from one window to the next; and one source's windows
    # last to first.
    alternating = [w for pair in itertools.zip_longest(long_windows, short_windows) for w in pair if w is not None]
    assert serialize_sequences(alternating) == reference_serialize(alternating)
    backwards = long_windows[::-1]
    assert serialize_sequences(backwards) == reference_serialize(backwards)


def test_sequences_longer_than_a_block_match_the_reference(sources):
    long, short = sources
    # Windows longer than a block, the last one padded by more than a run.
    windows = window(long, WindowSpec(_BLOCK_ROWS + 52, 300), "repeat-last")
    assert windows[-1]._rows[2] > 0
    listed = [long, short, *windows, long]
    assert serialize_sequences(listed) == reference_serialize(listed)


def test_writer_writes_blocks_of_at_most_block_rows_lines(sources):
    long, _ = sources
    listed = [long, *window(long, WindowSpec(243, 81), "repeat-last")]
    writes = []

    class Handle:
        def write(self, text):
            writes.append(text)

    write_sequences(listed, Handle())
    assert "".join(writes) == serialize_sequences(listed)
    assert writes[0].startswith('{"meta"') and writes[0].count("\n") == 1
    assert max(text.count("\n") for text in writes) == _BLOCK_ROWS
    assert all(text.endswith("\n") for text in writes)


def test_every_writer_refuses_two_kinds_before_writing(sources, tmp_path):
    long, short = sources
    # The short source at 25 fps, and under another skeleton: neither can
    # share the one header with a 50 fps writer5 sequence.
    slow = PoseSequence("S2", "eat", "cam1", 25.0, short.frames, short.skeleton)
    other = PoseSequence("S3", "eat", "cam1", 50.0, short.frames, _skeleton(5, "other5"))
    writes = []

    class Handle:
        def write(self, text):
            writes.append(text)

    message = "^sequences differ in fps or skeleton; save each kind to its own file$"
    path = tmp_path / "mixed.ndjson"
    for listed in ([short, slow], [long, short, other]):
        with pytest.raises(ValueError, match=message):
            serialize_sequences(listed)
        with pytest.raises(ValueError, match=message):
            write_sequences(listed, Handle())
        with pytest.raises(ValueError, match=message):
            save_sequences(listed, path)
    assert writes == [] and not path.exists()
    write_sequences([], Handle())
    save_sequences([], path)
    assert writes == [] and path.read_bytes() == b""


@pytest.fixture(scope="module")
def synth_3000(tmp_path_factory):
    """A 3000-frame synth file with 2D, its 3D-path output, and the camera."""
    tmp_path = tmp_path_factory.mktemp("synth_3000")
    camera = tmp_path / "camera.json"
    camera.write_text('{"fx": 1150, "fy": 1080, "cx": 512.5, "cy": 488, "width": 1000, "height": 1000}')
    data, canon = tmp_path / "poses.ndjson", tmp_path / "canon.ndjson"
    argv = ["synth", "--count", "3000", "--seed", "5", "--camera", str(camera), "--output", str(data)]
    assert run(argv) == 0
    assert run(["canonicalize", "--input", str(data), "--camera", str(camera), "--output", str(canon)]) == 0
    return str(data), str(canon), str(camera)


def test_stdout_bytes_equal_file_bytes(tmp_path, synth_3000, capsys):
    data, canon, camera_file = synth_3000
    window_args = ["--window-length", "243", "--window-stride", "81"]
    commands = [
        ["canonicalize", "--input", data, "--camera", camera_file, "--mode", "3d"],
        ["canonicalize", "--input", data, "--camera", camera_file, "--mode", "2d"],
        ["window", "--input", canon, *window_args, "--pad", "drop"],
        ["window", "--input", canon, *window_args, "--pad", "repeat-last"],
    ]
    for argv in commands:
        out = tmp_path / "out.ndjson"
        assert run([*argv, "--output", str(out)]) == 0
        capsys.readouterr()
        assert run(argv) == 0
        written = capsys.readouterr().out.encode("utf-8")
        assert written == out.read_bytes()
        assert len(written) > 1_000_000


def _behind_camera(path, out):
    """``path`` with the 3D of its third record moved behind the camera."""
    lines = path.read_text().splitlines()
    record = json.loads(lines[3])
    record["joints_3d"] = [[x, y, -z] for x, y, z in record["joints_3d"]]
    lines[3] = json.dumps(record)
    out.write_text("\n".join(lines) + "\n")
    return str(out)


def test_failing_commands_leave_the_output_alone(tmp_path, camera_file, capsys):
    data = tmp_path / "poses.ndjson"
    assert run(["synth", "--count", "6", "--camera", camera_file, "--output", str(data)]) == 0
    behind = _behind_camera(data, tmp_path / "behind.ndjson")
    bad_line = tmp_path / "bad.ndjson"
    bad_line.write_text(data.read_text() + "{not json\n")
    failing = [
        ["canonicalize", "--input", behind, "--camera", camera_file, "--mode", "3d"],
        ["window", "--input", str(bad_line), "--window-length", "2", "--window-stride", "1"],
    ]
    for argv in failing:
        existing = tmp_path / "existing.ndjson"
        existing.write_bytes(b"kept\n")
        absent = tmp_path / "absent.ndjson"
        for out in (existing, absent):
            assert run([*argv, "--output", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert existing.read_bytes() == b"kept\n"
        assert not absent.exists()


def _count_body_renders(monkeypatch) -> list:
    """Count every ``%`` on a body template from here on."""
    renders = []
    original = dataset._body_template

    class Counted(str):
        def __mod__(self, values):
            renders.append(1)
            return str.__mod__(self, values)

    monkeypatch.setattr(dataset, "_body_template", lambda n_joints, shape: Counted(original(n_joints, shape)))
    return renders


@pytest.mark.parametrize("pad", ["drop", "repeat-last"])
def test_window_renders_each_source_row_once(tmp_path, synth_3000, monkeypatch, pad):
    _, canon, _ = synth_3000
    out = tmp_path / "windows.ndjson"
    renders = _count_body_renders(monkeypatch)
    argv = ["window", "--input", canon, "--window-length", "243", "--window-stride", "81", "--pad", pad]
    assert run([*argv, "--output", str(out)]) == 0
    # About 7,000 window lines come from 3,000 source rows.
    assert out.read_text().count("\n") - 1 > 2 * 3000
    assert len(renders) == 3000


def test_canonicalize_renders_each_row_once(tmp_path, synth_3000, monkeypatch):
    data, _, camera_file = synth_3000
    renders = _count_body_renders(monkeypatch)
    out = tmp_path / "canon.ndjson"
    assert run(["canonicalize", "--input", data, "--camera", camera_file, "--output", str(out)]) == 0
    assert len(renders) == 3000
    assert out.read_bytes().count(b"\n") == 3001


def test_the_writer_peak_does_not_grow_with_the_rows():
    """A sequence of 16 blocks of rows, and then its windows, are written
    within about the traced peak of one of 4 blocks. (A sequence listed
    before its own windows keeps every body for them, by design.)"""

    class Discard:
        def write(self, text):
            pass

    skeleton = _skeleton(5, "writer5")

    def peak(n):
        rng = np.random.default_rng(n)
        every = np.ones(n, dtype=bool)
        columns = dataset._Columns(
            np.array(range(n), dtype=object), rng.normal(size=(n, 5, 2)), every, rng.normal(size=(n, 5, 3)), every
        )
        seq = PoseSequence._of("S1", "walk", "cam0", 50.0, skeleton, columns)
        windows = window(seq, WindowSpec(300, 200), "repeat-last")
        tracemalloc.start()
        try:
            write_sequences([seq], Discard())
            write_sequences(windows, Discard())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(4 * _BLOCK_ROWS), peak(16 * _BLOCK_ROWS)
    assert large <= 1.5 * small, (small, large)
