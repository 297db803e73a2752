"""The streaming NDJSON writer: windows, block boundaries, stdout against a
file, no output on failure, and one body render per source row."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest
from sequence_arrays import rebuilt, sequence_of
from test_serializer import _skeleton, reference_serialize

from canonpose import dataset
from canonpose.camera import batch_project
from canonpose.cli import run
from canonpose.dataset import (
    _BLOCK_ROWS,
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
    long = sequence_of(("S1", "walk", "cam0"), skeleton, range(n), pixels, points)
    (long,) = canonicalize_dataset([long], intrinsics, "3d-path")
    rows = np.arange(50)
    short = sequence_of(
        ("S2", "eat", "cam1"), skeleton, range(1000, 1050), pixels, points, has_2d=rows % 3 != 1, has_3d=rows % 3 != 0
    )
    return long, short


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
    # Windows longer than a block, each overlapping the next by 20 rows, the
    # last one padded by more lines than a block holds.
    windows = window(long, WindowSpec(_BLOCK_ROWS + 52, _BLOCK_ROWS + 32), "repeat-last")
    assert len(windows) > 2 and windows[-1]._rows[2] > _BLOCK_ROWS
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
    slow = rebuilt(short, fps=25.0)
    other = rebuilt(short, key=("S3", "eat", "cam1"), skeleton=_skeleton(5, "other5"))
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


def test_canonicalize_3d_peak_holds_its_arrays_and_one_block(tmp_path, synth_3000):
    """``canonicalize --mode 3d`` holds its input, its output and one block
    of text. On 3,000 frames with 2D and 3D its traced peak was 4.3 copies
    of the input's 3D joints, against 5.7 while the output's sources viewed
    the input's 3D, the input lived through the write and a block was 256
    lines; the bound leaves 16% headroom."""
    data, _, camera_file = synth_3000
    one_copy = 3000 * 17 * 3 * 8
    argv = ["canonicalize", "--input", data, "--camera", camera_file, "--mode", "3d"]
    tracemalloc.start()
    try:
        assert run([*argv, "--output", str(tmp_path / "canon.ndjson")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * one_copy, peak / one_copy


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
