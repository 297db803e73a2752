import gc
import json
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from sequence_arrays import sequence_of

from canonpose import cli
from canonpose.camera import Frame, Pose3D
from canonpose.cli import run
from canonpose.dataset import FramePair, PoseSequence, load_sequences, save_sequences
from canonpose.skeleton import H36M17


@pytest.fixture
def camera_file(tmp_path, intrinsics):
    path = tmp_path / "camera.json"
    path.write_text(json.dumps(intrinsics.to_dict()))
    return str(path)


def run_python(*args):
    """``python`` with ``args`` in a child process that imports this tree's ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def run_module(*args, warnings=()):
    """``python -m canonpose.cli`` with ``args`` in a child process, its
    ``warnings`` filters given as -W options."""
    return run_python(*(f"-W{spec}" for spec in warnings), "-m", "canonpose.cli", *args)


def synth_file(tmp_path, name="poses.ndjson", count=10, seed=0, camera=None):
    path = tmp_path / name
    argv = ["synth", "--output", str(path), "--count", str(count), "--seed", str(seed)]
    if camera:
        argv += ["--camera", camera]
    assert run(argv) == 0
    return str(path)


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "canonicalize" in capsys.readouterr().out
    for sub in ("canonicalize", "stats", "eval", "synth", "study", "window"):
        assert run([sub, "--help"]) == 0
        assert "--" in capsys.readouterr().out


def test_usage_errors_exit_one(capsys):
    assert run([]) == 1
    assert run(["frobnicate"]) == 1
    assert run(["canonicalize", "--input", "x"]) == 1  # missing --camera
    assert run(["eval", "--pred", "x", "--gt", "y", "--metric", "nope"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_missing_file_exits_two(tmp_path, camera_file, capsys):
    rc = run(["canonicalize", "--input", str(tmp_path / "absent.ndjson"), "--camera", camera_file])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_synth_is_deterministic_and_loadable(tmp_path, skeleton, camera_file):
    a = synth_file(tmp_path, "a.ndjson", camera=camera_file)
    b = synth_file(tmp_path, "b.ndjson", camera=camera_file)
    assert (tmp_path / "a.ndjson").read_text() == (tmp_path / "b.ndjson").read_text()
    seqs = load_sequences(a, skeleton)
    assert len(seqs) == 1
    assert seqs[0].key == ("synth", "seed0", "cam0")
    assert seqs[0].n_frames == 10
    assert seqs[0].joints_2d() is not None
    bare = load_sequences(synth_file(tmp_path, "c.ndjson", seed=5), skeleton)[0]
    assert bare.key[1] == "seed5"
    assert bare.joints_2d() is None


def test_synth_config_overrides(tmp_path, skeleton):
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({"n_poses": 4, "root_region": {"low": [0, 0, 6], "high": [0.1, 0.1, 7]}}))
    path = tmp_path / "synth.ndjson"
    assert run(["synth", "--output", str(path), "--config", str(config)]) == 0
    seq = load_sequences(path, skeleton)[0]
    assert seq.n_frames == 4  # config n_poses beats the --count default
    assert seq.joints_3d()[:, skeleton.root_index, 2].min() >= 6.0
    config.write_text(json.dumps({"bogus": 1}))
    assert run(["synth", "--output", str(path), "--config", str(config)]) == 1
    config.write_text(json.dumps({"root_region": {"low": [0, 0, 6]}}))
    assert run(["synth", "--output", str(path), "--config", str(config)]) == 1


def test_canonicalize_centers_roots(tmp_path, skeleton, intrinsics, camera_file):
    data = synth_file(tmp_path, camera=camera_file)
    out = tmp_path / "canon.ndjson"
    assert run(["canonicalize", "--input", data, "--camera", camera_file, "--output", str(out)]) == 0
    seqs = load_sequences(out, skeleton)
    roots = seqs[0].joints_2d()[:, skeleton.root_index]
    assert np.all(roots == np.array([intrinsics.width / 2.0, intrinsics.height / 2.0]))
    assert seqs[0].canon() is not None
    # Re-canonicalizing canonical data is a data error, not a crash.
    assert run(["canonicalize", "--input", str(out), "--camera", camera_file]) == 2


def test_canonicalize_2d_mode(tmp_path, skeleton, camera_file):
    data = synth_file(tmp_path, camera=camera_file)
    out3 = tmp_path / "c3.ndjson"
    out2 = tmp_path / "c2.ndjson"
    assert run(["canonicalize", "--input", data, "--camera", camera_file, "--output", str(out3)]) == 0
    assert run(["canonicalize", "--input", data, "--camera", camera_file, "--mode", "2d", "--output", str(out2)]) == 0
    canon3 = load_sequences(out3, skeleton)[0]
    canon2 = load_sequences(out2, skeleton)[0]
    assert np.abs(canon2.joints_2d() - canon3.joints_2d()).max() < 1e-9
    # The 2d path leaves the 3D channel as it came in.
    original = load_sequences(data, skeleton)[0]
    assert np.array_equal(canon2.joints_3d(), original.joints_3d())


def test_canonicalize_2d_refuses_canonical_input(tmp_path, camera_file, capsys):
    data = synth_file(tmp_path, camera=camera_file)
    for mode in ("3d", "2d"):
        canon = tmp_path / f"canon_{mode}.ndjson"
        assert run(["canonicalize", "--input", data, "--camera", camera_file, "--mode", mode, "--output", str(canon)]) == 0
        again = tmp_path / f"again_{mode}.ndjson"
        capsys.readouterr()
        rc = run(["canonicalize", "--input", str(canon), "--camera", camera_file, "--mode", "2d", "--output", str(again)])
        assert rc == 2
        assert "already canonical" in capsys.readouterr().err
        assert not again.exists()


def test_canon_root_depth_errors_name_the_line(tmp_path, camera_file, capsys):
    data = synth_file(tmp_path, count=3, camera=camera_file)
    canon = tmp_path / "canon.ndjson"
    assert run(["canonicalize", "--input", data, "--camera", camera_file, "--output", str(canon)]) == 0
    lines = canon.read_text().splitlines()
    head, tail = lines[2].rsplit('"root_depth": ', 1)
    for depth in ('"abc"', "[1.0]", "true"):
        bad = tmp_path / "bad.ndjson"
        bad.write_text("\n".join(lines[:2] + [head + '"root_depth": ' + depth + "}}"] + lines[3:]) + "\n")
        capsys.readouterr()
        assert run(["stats", "--input", str(bad)]) == 2
        assert "line 3: invalid canon block" in capsys.readouterr().err


def test_canonicalize_threads_do_not_change_bytes(tmp_path, camera_file):
    data = synth_file(tmp_path, count=30, camera=camera_file)
    outputs = []
    for threads in ("1", "3"):
        out = tmp_path / f"t{threads}.ndjson"
        rc = run(
            ["canonicalize", "--input", data, "--camera", camera_file, "--threads", threads, "--output", str(out)]
        )
        assert rc == 0
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1]


def test_canonicalize_applies_extrinsics(tmp_path, skeleton, intrinsics, camera_file, rotation_factory):
    data = synth_file(tmp_path, camera=camera_file)
    rotation = rotation_factory(3)
    translation = np.array([0.1, -0.2, 0.3])
    (seq,) = load_sequences(data, skeleton)
    # World joints chosen so that R @ w + t reproduces the camera joints.
    world = (seq.joints_3d() - translation) @ rotation
    world_path = tmp_path / "world.ndjson"
    save_sequences([sequence_of(seq.key, skeleton, seq.frame_numbers(), seq.joints_2d(), world)], world_path)

    extrinsic_camera = tmp_path / "camera_rt.json"
    payload = intrinsics.to_dict()
    payload["R"] = rotation.ravel().tolist()
    payload["t"] = translation.tolist()
    extrinsic_camera.write_text(json.dumps(payload))

    out_cam = tmp_path / "from_camera.ndjson"
    out_world = tmp_path / "from_world.ndjson"
    assert run(["canonicalize", "--input", data, "--camera", camera_file, "--output", str(out_cam)]) == 0
    assert run(["canonicalize", "--input", str(world_path), "--camera", str(extrinsic_camera), "--output", str(out_world)]) == 0
    a = load_sequences(out_cam, skeleton)[0]
    b = load_sequences(out_world, skeleton)[0]
    assert np.abs(a.joints_3d() - b.joints_3d()).max() < 1e-9
    assert np.abs(a.joints_2d() - b.joints_2d()).max() < 1e-6


def test_eval_offset_joint(tmp_path, skeleton, capsys):
    gt_path = synth_file(tmp_path, "gt.ndjson", count=5)
    (seq,) = load_sequences(gt_path, skeleton)
    joints = seq.joints_3d().copy()
    joints[:, skeleton.root_index + 1, 0] += 0.05
    pred_path = tmp_path / "pred.ndjson"
    save_sequences([sequence_of(seq.key, skeleton, seq.frame_numbers(), seq.joints_2d(), joints)], pred_path)

    assert run(["eval", "--pred", str(pred_path), "--gt", gt_path]) == 0
    out = capsys.readouterr().out.strip()
    expected_mm = 0.05 / skeleton.n_joints * 1000.0
    assert out == f"mpjpe {expected_mm:.6f} mm"

    assert run(["eval", "--pred", gt_path, "--gt", gt_path]) == 0
    assert capsys.readouterr().out.strip() == "mpjpe 0.000000 mm"

    assert run(["eval", "--pred", str(pred_path), "--gt", gt_path, "--metric", "pmpjpe"]) == 0
    assert capsys.readouterr().out.startswith("pmpjpe ")


def test_eval_key_mismatch(tmp_path, capsys):
    a = synth_file(tmp_path, "a.ndjson", seed=1)
    b = synth_file(tmp_path, "b.ndjson", seed=2)  # different action name
    assert run(["eval", "--pred", a, "--gt", b]) == 2
    assert "missing from ground truth" in capsys.readouterr().err


def test_stats_json_and_csv(tmp_path, camera_file, capsys):
    data = synth_file(tmp_path, camera=camera_file)
    csv_dir = tmp_path / "csv"
    out = tmp_path / "stats.json"
    rc = run(["stats", "--input", data, "--camera", camera_file, "--output", str(out), "--csv", str(csv_dir)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {
        "pelvis_xy_m",
        "pelvis_image_px",
        "body_orientation",
        "joint_scatter_2d_px",
        "joint_scatter_3d_root_relative_m",
    }
    assert doc["pelvis_xy_m"]["count"] == 10
    assert {p.name for p in csv_dir.iterdir()} == {f"{k}.csv" for k in doc}
    # Without --output the document goes to stdout.
    assert run(["stats", "--input", data]) == 0
    assert json.loads(capsys.readouterr().out)["pelvis_xy_m"]["count"] == 10


def test_stats_camera_rejects_3d_root_behind_camera(tmp_path, skeleton, camera_file, capsys):
    data = synth_file(tmp_path, count=4)
    seq = load_sequences(data, skeleton)[0]
    assert seq.joints_2d() is None
    joints = seq.joints_3d().copy()
    joints[2, skeleton.root_index, 2] = -1.5
    # Frame numbers 100, 103, 106, 109: the refusal names frame 106, not row 2.
    bad = tmp_path / "behind.ndjson"
    save_sequences([sequence_of(seq.key, skeleton, range(100, 112, 3), None, joints)], bad)
    capsys.readouterr()
    assert run(["stats", "--input", str(bad), "--camera", camera_file]) == 2
    err = capsys.readouterr().err
    assert err == "error: sequence ('synth', 'seed0', 'cam0') frame 106: root at or behind the camera plane\n"
    # Without a camera nothing is projected, so the same file is fine.
    assert run(["stats", "--input", str(bad)]) == 0


def test_window_command(tmp_path, skeleton):
    data = synth_file(tmp_path, count=10)
    out = tmp_path / "windows.ndjson"
    rc = run(
        ["window", "--input", data, "--window-length", "3", "--window-stride", "4", "--pad", "repeat-last", "--output", str(out)]
    )
    assert rc == 0
    seqs = load_sequences(out, skeleton)
    assert [seq.action for seq in seqs] == ["seed0#w0000", "seed0#w0001", "seed0#w0002"]
    assert seqs[2].frame_numbers().tolist() == [8, 9, 9]
    assert run(["window", "--input", data, "--window-length", "0", "--window-stride", "4"]) == 1


def test_canonicalize_and_window_leave_numpy_ma_unimported(tmp_path, camera_file):
    """The writer finds a block's line shapes without ``np.unique``, whose
    first call imports ``numpy.ma``: about 4.7 ms and 1.3 MB in each process
    that writes NDJSON."""
    data = synth_file(tmp_path, count=40, seed=4, camera=camera_file)
    canon, windows = tmp_path / "canon.ndjson", tmp_path / "windows.ndjson"
    script = "\n".join([
        "import sys",
        "from canonpose.cli import run",
        f"assert run(['canonicalize', '--input', {data!r}, '--camera', {camera_file!r}, "
        f"'--output', {str(canon)!r}]) == 0",
        f"assert run(['window', '--input', {str(canon)!r}, '--window-length', '16', '--window-stride', '16', "
        f"'--pad', 'repeat-last', '--output', {str(windows)!r}]) == 0",
        "print('numpy.ma' in sys.modules)",
    ])
    proc = run_python("-c", script)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "False\n")
    assert len(load_sequences(windows, H36M17)) == 3


def test_study_command(tmp_path, capsys):
    config = tmp_path / "study.json"
    config.write_text(json.dumps({"n_train": 600, "n_test": 200}))
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert run(["study", "--config", str(config), "--output", str(out_a)]) == 0
    assert run(["study", "--config", str(config), "--output", str(out_b), "--threads", "3"]) == 0
    assert out_a.read_text() == out_b.read_text()
    doc = json.loads(out_a.read_text())
    assert set(doc) == {"config", "conventional", "canonical", "mpjpe_ratio_canonical_over_conventional"}
    assert doc["config"]["n_train"] == 600

    assert run(["study", "--config", str(config), "--seed", "9", "--output", str(out_b)]) == 0
    assert json.loads(out_b.read_text())["config"]["seed"] == 9
    assert out_b.read_text() != out_a.read_text()

    config.write_text(json.dumps({"verbosity": 3}))
    assert run(["study", "--config", str(config)]) == 1
    assert "unknown study fields" in capsys.readouterr().err


def test_canonicalize_error_lists_its_frames_once(tmp_path, skeleton, camera_file, capsys):
    data = synth_file(tmp_path, count=8)
    seq = load_sequences(data, skeleton)[0]
    joints = seq.joints_3d().copy()
    joints[5, skeleton.root_index, 2] = -1.5
    bad = tmp_path / "behind.ndjson"
    save_sequences([sequence_of(seq.key, skeleton, seq.frame_numbers(), seq.joints_2d(), joints)], bad)
    capsys.readouterr()
    assert run(["canonicalize", "--input", str(bad), "--camera", camera_file]) == 2
    err = capsys.readouterr().err
    assert "behind the camera plane" in err
    assert "(frames [5])" in err
    assert err.count("[5]") == 1


def test_eval_refuses_to_score_across_frames(tmp_path, camera_file, capsys):
    data = synth_file(tmp_path, count=6, camera=camera_file)
    canon = tmp_path / "canon.ndjson"
    assert run(["canonicalize", "--input", data, "--camera", camera_file, "--output", str(canon)]) == 0
    capsys.readouterr()
    for pred, gt in ((str(canon), data), (data, str(canon))):
        assert run(["eval", "--pred", pred, "--gt", gt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "('synth', 'seed0', 'cam0')" in captured.err
        assert "'canonical-camera'" in captured.err and "'camera'" in captured.err
    # Same frame on both sides is scored as before.
    assert run(["eval", "--pred", str(canon), "--gt", str(canon)]) == 0
    assert capsys.readouterr().out.strip() == "mpjpe 0.000000 mm"


def test_extrinsics_moved_joints_are_read_only(tmp_path, skeleton, camera_file, rotation_factory):
    from canonpose.camera import CameraExtrinsics, Frame
    from canonpose.dataset import apply_extrinsics

    seqs = load_sequences(synth_file(tmp_path, count=4, camera=camera_file), skeleton)
    moved = apply_extrinsics(seqs, CameraExtrinsics(rotation_factory(5), [0.1, 0.2, 0.3]))
    assert moved[0].frame_3d is Frame.CAMERA
    for pixels, points in zip(moved[0].joints_2d(), moved[0].joints_3d()):
        for joints in (pixels, points):
            assert not joints.flags.writeable
            with pytest.raises(ValueError):
                joints[0] = 0.0


def test_eval_scores_a_reloaded_2d_path_output(tmp_path, camera_file, capsys):
    data = synth_file(tmp_path, count=6, camera=camera_file)
    canon_2d = str(tmp_path / "canon2d.ndjson")
    assert run(["canonicalize", "--input", data, "--camera", camera_file, "--mode", "2d", "--output", canon_2d]) == 0
    capsys.readouterr()
    assert run(["eval", "--pred", canon_2d, "--gt", data]) == 0
    assert capsys.readouterr().out.strip() == "mpjpe 0.000000 mm"


def test_numbers_too_large_for_a_float_exit_two(tmp_path, camera_file, intrinsics, capsys):
    data = synth_file(tmp_path, count=3, camera=camera_file)
    huge = "1" + "0" * 400
    bad_header = tmp_path / "bad_header.ndjson"
    bad_header.write_text(open(data).read().replace('"fps": 50', f'"fps": {huge}', 1))
    bad_camera = tmp_path / "bad_camera.json"
    bad_camera.write_text(json.dumps(intrinsics.to_dict()).replace("1150.0", huge, 1))
    for argv, needle in (
        (["stats", "--input", str(bad_header)], "line 1: invalid meta numbers"),
        (["canonicalize", "--input", data, "--camera", str(bad_camera)], f"{bad_camera}: invalid intrinsics"),
    ):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert needle in captured.err


@pytest.mark.parametrize(
    "command, config, field",
    [
        ("study", {"n_train": 2.5}, "n_train"),
        ("study", {"n_test": True}, "n_test"),
        ("study", {"noise_sigma": "0.001"}, "noise_sigma"),
        ("synth", {"n_poses": 2.7}, "n_poses"),
        ("synth", {"limb_scale": True}, "limb_scale"),
        ("synth", {"root_region": {"low": [True, 0, 3], "high": [1, 1, 5]}}, "root_region"),
    ],
    ids=["study-n_train-float", "study-n_test-bool", "study-noise-string", "synth-n_poses-float",
         "synth-limb_scale-bool", "synth-root_region-bool"],
)
def test_config_numbers_must_be_json_numbers(tmp_path, capsys, command, config, field):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out.txt"
    capsys.readouterr()
    assert run([command, "--config", str(path), "--output", str(out)]) == 1
    assert f"error: {field}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("limb_scale", [-1, 0])
def test_study_config_rejects_a_bad_limb_scale_as_a_usage_error(tmp_path, capsys, limb_scale):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"limb_scale": limb_scale}))
    out = tmp_path / "report.json"
    capsys.readouterr()
    assert run(["study", "--config", str(path), "--output", str(out)]) == 1
    assert "error: train: limb_scale must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_stats_csv_headers_keep_their_width_without_samples(tmp_path, camera_file):
    records = [json.loads(line) for line in open(synth_file(tmp_path, count=3, camera=camera_file))]
    for record in records:
        if "meta" not in record:
            record["joints_3d"] = None
    only_2d = tmp_path / "only_2d.ndjson"
    only_2d.write_text("".join(json.dumps(record) + "\n" for record in records))
    csv_dir = tmp_path / "csv"
    argv = ["stats", "--input", str(only_2d), "--output", str(tmp_path / "stats.json"), "--csv", str(csv_dir)]
    assert run(argv) == 0
    for name, header in (
        ("pelvis_xy_m", "x,y"),
        ("body_orientation", "x,y,z"),
        ("joint_scatter_3d_root_relative_m", "x,y,z"),
    ):
        assert (csv_dir / f"{name}.csv").read_text() == header + "\n"
    assert (csv_dir / "joint_scatter_2d_px.csv").read_text().startswith("x,y\n")


def test_study_report_config_block_is_a_valid_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_train": 600, "n_test": 200}))
    first = tmp_path / "first.json"
    assert run(["study", "--config", str(config), "--output", str(first)]) == 0
    block = json.loads(first.read_text())["config"]
    assert {"camera", "skeleton", "train_root_region"} <= set(block)

    config.write_text(json.dumps(block))
    again = tmp_path / "again.json"
    assert run(["study", "--config", str(config), "--output", str(again)]) == 0
    assert again.read_text() == first.read_text()  # the config block included, byte for byte

    capsys.readouterr()
    for change, needle in (
        ({"camera": dict(block["camera"], fx=True)}, "error: camera: fx must be a number, got True"),
        ({"skeleton": "nope"}, "error: unknown skeleton 'nope'"),
    ):
        config.write_text(json.dumps(dict(block, **change)))
        out = tmp_path / "bad.json"
        assert run(["study", "--config", str(config), "--output", str(out)]) == 1
        assert needle in capsys.readouterr().err
        assert not out.exists()


def test_synth_config_seed_sits_under_the_seed_flag(tmp_path):
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({"seed": 3}))
    from_file = tmp_path / "file.ndjson"
    assert run(["synth", "--count", "5", "--config", str(config), "--output", str(from_file)]) == 0
    assert from_file.read_text() == open(synth_file(tmp_path, count=5, seed=3)).read()
    flagged = tmp_path / "flag.ndjson"
    assert run(["synth", "--count", "5", "--config", str(config), "--seed", "4", "--output", str(flagged)]) == 0
    assert flagged.read_text() == open(synth_file(tmp_path, count=5, seed=4)).read()


@pytest.mark.parametrize("skeleton", [[1], 5, None])
def test_study_config_skeleton_must_be_a_name(tmp_path, capsys, skeleton):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"skeleton": skeleton}))
    out = tmp_path / "report.json"
    capsys.readouterr()
    assert run(["study", "--config", str(path), "--output", str(out)]) == 1
    assert f"error: skeleton must be a str, got {skeleton!r}" in capsys.readouterr().err
    assert not out.exists()


def test_eval_matches_frames_by_number(tmp_path, capsys):
    gt = synth_file(tmp_path, "gt.ndjson", count=3)
    header, *records = Path(gt).read_text().splitlines()
    # Frames 2, 1, 0 in that order, and frames 100-102: both were scored by
    # position before.
    reversed_records = [json.loads(line) for line in records[::-1]]
    shifted_records = [dict(json.loads(line), frame=100 + t) for t, line in enumerate(records)]
    for name, lines, first in (("reversed", reversed_records, (0, 2, 0)), ("shifted", shifted_records, (0, 100, 0))):
        pred = tmp_path / f"{name}.ndjson"
        pred.write_text("\n".join([header, *map(json.dumps, lines)]) + "\n")
        assert run(["eval", "--pred", str(pred), "--gt", gt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sequence ('synth', 'seed0', 'cam0')" in captured.err
        assert "at position %d --pred has frame %d, --gt frame %d" % first in captured.err
    # The same frame numbers in the same order are scored.
    assert run(["eval", "--pred", gt, "--gt", gt]) == 0


def test_stats_refused_for_its_csv_directory_writes_nothing(tmp_path, camera_file, capsys):
    data = synth_file(tmp_path, count=4, camera=camera_file)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, so no directory can be made under it\n")
    report = tmp_path / "stats.json"
    argv = ["stats", "--input", data, "--camera", camera_file, "--output", str(report), "--csv", str(blocker / "csv")]
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert run(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before
    report.write_text("an earlier report\n")
    assert run(argv) == 2
    assert report.read_text() == "an earlier report\n"


def test_stats_refused_for_a_csv_file_leaves_the_report_alone(tmp_path, camera_file, capsys):
    data = synth_file(tmp_path, count=4, camera=camera_file)
    csv_dir = tmp_path / "csv"
    (csv_dir / "pelvis_xy_m.csv").mkdir(parents=True)  # a directory where the first CSV goes
    report = tmp_path / "stats.json"
    report.write_text('{"x":1}')
    argv = ["stats", "--input", data, "--camera", camera_file, "--output", str(report), "--csv", str(csv_dir)]
    capsys.readouterr()
    assert run(argv) == 2
    assert "Is a directory" in capsys.readouterr().err
    assert report.read_text() == '{"x":1}'


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="POSIX signal")
def test_a_closed_pipe_ends_the_command_quietly():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "canonpose.cli", "synth", "--count", "3000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.wait(timeout=60)
    assert proc.returncode == -signal.SIGPIPE
    assert stderr == b""


def test_eval_refusals_exit_two(tmp_path, camera_file, capsys):
    gt = synth_file(tmp_path, "gt.ndjson", count=4, camera=camera_file)
    header, first, *rest = Path(gt).read_text().splitlines()
    no_3d = tmp_path / "no3d.ndjson"
    no_3d.write_text("\n".join([header, json.dumps(dict(json.loads(first), joints_3d=None)), *rest]) + "\n")
    empty = tmp_path / "empty.ndjson"
    empty.write_text(header + "\n")
    short = synth_file(tmp_path, "short.ndjson", count=3, camera=camera_file)
    for pred, needle in (
        (str(no_3d), "error: --pred: sequence ('synth', 'seed0', 'cam0') has frames without 3D joints"),
        (str(empty), "error: --pred holds no sequences"),
        (short, "prediction shape (3, 17, 3) != ground truth (4, 17, 3)"),
    ):
        capsys.readouterr()
        assert run(["eval", "--pred", pred, "--gt", gt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert needle in captured.err


def test_canonicalize_3d_refuses_global_frame_3d_listing_every_frame(
    tmp_path, skeleton, pose_batch, camera_file, monkeypatch, capsys
):
    # The loader reads 3D as camera-frame, so a global-frame sequence is handed in directly.
    points = pose_batch(3, seed=62)
    frames = tuple(FramePair(None, Pose3D(points[t], Frame.GLOBAL), t) for t in range(3))
    sequence = PoseSequence("S1", "walk", "cam0", 50.0, frames, skeleton)
    monkeypatch.setattr("canonpose.cli.load_sequences", lambda path, skel: [sequence])
    out = tmp_path / "canon.ndjson"
    capsys.readouterr()
    assert run(["canonicalize", "--input", "unread.ndjson", "--camera", camera_file, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "lacks camera-frame 3D poses required by this path (frames [0, 1, 2])" in err
    assert not out.exists()


def test_usage_refusals_exit_one(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    out = tmp_path / "out.ndjson"
    for argv, needle in (
        (["synth", "--skeleton", "nope"], "error: unknown skeleton 'nope' (known: h36m17)"),
        (["synth", "--config", str(bad_json)], f"error: {bad_json}: invalid JSON"),
        (["study", "--config", str(not_object)], f"error: {not_object}: config must be a JSON object"),
    ):
        capsys.readouterr()
        assert run(argv + ["--output", str(out)]) == 1
        assert needle in capsys.readouterr().err
        assert not out.exists()


def test_synth_config_takes_an_integral_float_count(tmp_path):
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({"n_poses": 5.0}))
    out = tmp_path / "five.ndjson"
    assert run(["synth", "--config", str(config), "--output", str(out)]) == 0
    assert out.read_text() == open(synth_file(tmp_path, count=5)).read()


def test_a_unit_scale_that_overflows_3d_names_the_line(tmp_path):
    # Under -W error::RuntimeWarning a numpy overflow warning would be a traceback.
    path = tmp_path / "huge.ndjson"
    record = {"subject": "S1", "action": "walk", "camera": "cam0", "frame": 0, "joints_2d": None,
              "joints_3d": [[1e10, 0.5, 3.0]] * 17}
    path.write_text(json.dumps({"meta": {"unit_scale": 1e300}}) + "\n" + json.dumps(record) + "\n")
    proc = run_module("stats", "--input", str(path), warnings=["error::RuntimeWarning"])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: line 2: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["synth", "study"])
@pytest.mark.parametrize(
    "payload, reason",
    [
        (b'{"seed": 1, "\xff": 2}', "invalid JSON: 'utf-8' codec can't decode byte 0xff in position 13"),
        (b"[" * 5000 + b"]" * 5000, "invalid JSON: maximum recursion depth exceeded"),
        (None, "cannot read config: No such file or directory\n"),
        ("directory", "cannot read config: Is a directory\n"),
        (b"", "invalid JSON: Expecting value: line 1 column 1 (char 0)\n"),
        (b'\xef\xbb\xbf{"seed": 1}', "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)\n"),
    ],
    ids=["not-utf-8", "nested-5000-deep", "missing", "directory", "empty", "utf-8-bom"],
)
def test_unreadable_config_files_exit_one_naming_the_file(tmp_path, capsys, command, payload, reason):
    config = tmp_path / "config.json"
    if payload == "directory":
        config.mkdir()
    elif payload is not None:
        config.write_bytes(payload)
    out = tmp_path / "out.txt"
    out.write_text("kept\n")
    capsys.readouterr()
    assert run([command, "--config", str(config), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: {reason}") and err.count("\n") == 1, err
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize(
    "argv, config, needle",
    [
        (["synth", "--count", str(10**14)], None, "n_poses 100000000000000"),
        (["synth"], {"n_poses": 10**14}, "n_poses 100000000000000"),
        (["study"], {"n_train": 10**14}, "n_train 100000000000000"),
        (["study"], {"n_train": 100, "n_test": 10**14}, "n_test 100000000000000"),
    ],
    ids=["synth-count", "synth-n_poses", "study-n_train", "study-n_test"],
)
def test_a_count_that_cannot_be_allocated_exits_one_naming_it(tmp_path, capsys, argv, config, needle):
    # 10**14 poses of 17 joints need about 4e16 bytes, more than a 64-bit
    # address space holds, so the allocation fails at once without touching memory.
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    out = tmp_path / "out.txt"
    out.write_text("kept\n")
    capsys.readouterr()
    assert run(argv + ["--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {needle} needs more memory than can be allocated\n"
    assert out.read_text() == "kept\n"


def test_eval_pmpjpe_refuses_a_frame_whose_fitted_scale_is_zero(tmp_path, capsys):
    # Its squared norm overflows, so the least-squares scale comes out 0.
    gt = synth_file(tmp_path, "gt.ndjson", count=5, seed=1)
    lines = Path(gt).read_text().splitlines()
    record = json.loads(lines[3])
    record["joints_3d"] = [[value * 1e160 for value in joint] for joint in record["joints_3d"]]
    lines[3] = json.dumps(record)
    pred = tmp_path / "pred.ndjson"
    pred.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["eval", "--pred", str(pred), "--gt", gt, "--metric", "pmpjpe"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: sequence ('synth', 'seed1', 'cam0'): the fitted alignment scale is not positive and finite "
        "in 1 frame(s) (frames [2])\n"
    )


def test_main_freezes_the_objects_alive_before_it_runs(monkeypatch):
    calls = []

    def stub(argv):
        calls.append((argv, gc.get_freeze_count()))
        return 2

    before = gc.get_freeze_count()
    monkeypatch.setattr(cli, "run", stub)
    monkeypatch.setattr(cli.signal, "signal", lambda *args: None)  # the test runner keeps its SIGPIPE action
    monkeypatch.setattr(sys, "argv", ["canonpose", "stats", "--input", "poses.ndjson"])
    try:
        with pytest.raises(SystemExit) as excinfo:
            cli.main()
    finally:
        gc.unfreeze()
    assert excinfo.value.code == 2
    [(argv, frozen)] = calls
    assert argv == ["stats", "--input", "poses.ndjson"]
    assert frozen > before


def test_the_module_entry_point_prints_and_exits_as_run_does(tmp_path, capsys):
    pred = synth_file(tmp_path, "pred.ndjson", count=6, seed=2)
    header, *records = Path(pred).read_text().splitlines()
    moved = []
    for line in records:
        record = json.loads(line)
        record["joints_3d"][4][1] += 0.0125
        moved.append(json.dumps(record))
    gt = tmp_path / "gt.ndjson"
    gt.write_text("\n".join([header, *moved]) + "\n")
    capsys.readouterr()
    assert run(["eval", "--pred", pred, "--gt", str(gt)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("mpjpe 0.73") and printed.endswith(" mm\n")
    proc = run_module("eval", "--pred", pred, "--gt", str(gt))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, printed, "")
    for argv, code in (
        (["eval", "--pred", pred], 1),
        (["eval", "--pred", str(tmp_path / "absent.ndjson"), "--gt", str(gt)], 2),
    ):
        proc = run_module(*argv)
        assert (proc.returncode, proc.stdout) == (code, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


_NESTED_5000 = "[" * 5000 + "]" * 5000
_TOO_DEEP = "maximum recursion depth exceeded while decoding a JSON array"


@pytest.mark.parametrize(
    "case",
    ["record-line-nested-200000-deep", "joints_2d-nested-5000-deep", "camera-nested-5000-deep",
     "record-line-invalid-utf8", "camera-invalid-utf8", "header-skeleton-nested-5000-deep",
     "header-fps-nested-5000-deep", "mpjpe-overflow", "eval-mpjpe-root-centering-overflow",
     "eval-pmpjpe-root-centering-overflow", "file-starts-with-utf8-bom", "camera-empty", "camera-utf8-bom",
     "camera-directory", "camera-missing", "input-directory", "input-missing",
     "pmpjpe-cross-covariance-overflow", "pmpjpe-aligned-distance-overflow"],
)
def test_input_that_crashed_or_traced_back_exits_two_in_one_line(tmp_path, camera_file, case):
    # Each case runs in a child process: the 200,000-deep line once killed
    # the process that read it. Under -W error a numpy warning is a traceback.
    # An empty, BOM-led, directory or missing camera file, and a directory
    # or missing --input, always exited in one line; they are pinned here.
    data = synth_file(tmp_path, count=5, seed=1, camera=camera_file)
    lines = Path(data).read_text().splitlines()
    record = json.loads(lines[3])
    bad = tmp_path / "bad.ndjson"
    out = tmp_path / "out.txt"
    out.write_text("kept\n")
    argv, error = ["stats", "--input", str(bad), "--output", str(out)], f"error: {bad}: line 4: invalid JSON: {_TOO_DEEP}"
    not_utf8 = "'utf-8' codec can't decode byte 0xff in position 20: invalid start byte"
    if case == "record-line-nested-200000-deep":
        lines[3] = "[" * 200_000 + "]" * 200_000
    elif case == "joints_2d-nested-5000-deep":
        lines[3] = json.dumps(dict(record, joints_2d="@")).replace('"@"', _NESTED_5000)
    elif case.startswith(("camera-", "input-")):
        path = tmp_path / ("bad-camera.json" if case.startswith("camera-") else "input")
        good = Path(camera_file).read_bytes()
        bom = "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)\n"
        payload, reason = {
            "camera-nested-5000-deep": (_NESTED_5000.encode(), f"invalid camera JSON: {_TOO_DEEP}"),
            "camera-invalid-utf8": (good[:20] + b"\xff" + good[21:], f"invalid camera JSON: {not_utf8}"),
            "camera-empty": (b"", "invalid camera JSON: Expecting value: line 1 column 1 (char 0)\n"),
            "camera-utf8-bom": (b"\xef\xbb\xbf" + good, f"invalid camera JSON: {bom}"),
        }.get(case, (None, None))
        error = f"error: {path}: {reason}"
        if payload is not None:
            path.write_bytes(payload)
        elif case.endswith("-directory"):
            path.mkdir()
            error = f"error: [Errno 21] Is a directory: '{path}'\n"
        else:
            error = f"error: [Errno 2] No such file or directory: '{path}'\n"
        if case.startswith("camera-"):
            argv = ["canonicalize", "--input", data, "--camera", str(path), "--output", str(out)]
        else:
            argv = ["stats", "--input", str(path), "--output", str(out)]
    elif case == "record-line-invalid-utf8":
        lines[3] = lines[3][:20] + "\udcff" + lines[3][21:]  # written back as the lone byte 0xff
        error = f"error: {bad}: line 4: invalid UTF-8: {not_utf8}"
    elif case == "file-starts-with-utf8-bom":
        lines[0] = "\ufeff" + lines[0]
        error = f"error: {bad}: line 1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)\n"
    elif case.startswith("header-"):
        key = case.split("-")[1]
        lines[0] = json.dumps({"meta": dict(json.loads(lines[0])["meta"], **{key: "@"})}).replace('"@"', _NESTED_5000)
        error = f"error: line 1: meta {key} is nested too deeply"
    elif case == "mpjpe-overflow":
        lines[3] = json.dumps(dict(record, joints_3d=[[v * 1e160 for v in joint] for joint in record["joints_3d"]]))
        argv = ["eval", "--pred", data, "--gt", str(bad), "--metric", "mpjpe"]
        error = "error: sequence ('synth', 'seed1', 'cam0'): the joint distance is not finite in 1 frame(s) (frames [2])"
    elif case.startswith("pmpjpe-"):
        # Both sides 1e160 across: their cross-covariance overflows (numpy's
        # SVD failed on it). A gt 1e170 across: the aligned distances
        # overflow (it printed inf mm).
        both = case == "pmpjpe-cross-covariance-overflow"
        scale = 1e160 if both else 1e170
        lines[3] = json.dumps(dict(record, joints_3d=[[v * scale for v in joint] for joint in record["joints_3d"]]))
        argv = ["eval", "--pred", str(bad) if both else data, "--gt", str(bad), "--metric", "pmpjpe"]
        what = "the fitted alignment scale is not positive and finite" if both else "the aligned joint distance is not finite"
        error = f"error: sequence ('synth', 'seed1', 'cam0'): {what} in 1 frame(s) (frames [2])\n"
    else:
        # The root and joint 1 sit 3e308 apart: finite as loaded, not once root-centered.
        joints = record["joints_3d"]
        joints[0][0], joints[1][0] = -1.5e308, 1.5e308
        lines[3] = json.dumps(record)
        argv = ["eval", "--pred", data, "--gt", str(bad), "--metric", case.split("-")[1]]
        error = ("error: --gt: sequence ('synth', 'seed1', 'cam0'): root-centered joints are not finite in 1 frame(s) "
                 "(frames [2])")
    bad.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    proc = run_module(*argv, warnings=["error::RuntimeWarning", "error::DeprecationWarning"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(error) and proc.stderr.count("\n") == 1, proc.stderr
    assert out.read_text() == "kept\n"


_STATS_OF_NOTHING = json.dumps(
    {
        name: {"count": 0, "degenerate_count": 0}
        for name in ("pelvis_xy_m", "pelvis_image_px", "body_orientation", "joint_scatter_2d_px",
                     "joint_scatter_3d_root_relative_m")
    },
    indent=2,
) + "\n"


@pytest.mark.parametrize(
    "text", ["", '{"meta": {"skeleton": "h36m17", "unit_scale": 1, "fps": 50}}\n'], ids=["empty", "header-only"]
)
@pytest.mark.parametrize(
    "command, code, out, err",
    [
        ("stats", 0, _STATS_OF_NOTHING, ""),
        ("canonicalize", 0, "", ""),
        ("window", 0, "", ""),
        ("eval", 2, "", "error: --pred holds no sequences\n"),
    ],
)
def test_a_file_without_records_is_a_dataset_without_sequences(tmp_path, camera_file, capsys, text, command, code, out, err):
    data = tmp_path / "data.ndjson"
    data.write_text(text)
    argv = {
        "stats": ["stats", "--input", str(data)],
        "canonicalize": ["canonicalize", "--input", str(data), "--camera", camera_file],
        "window": ["window", "--input", str(data), "--window-length", "3", "--window-stride", "1"],
        "eval": ["eval", "--pred", str(data), "--gt", str(data)],
    }[command]
    capsys.readouterr()
    assert run(argv) == code
    assert capsys.readouterr() == (out, err)


def test_a_study_whose_weights_overflow_exits_two(tmp_path):
    # Noise of 1e308 px overflows the inputs; at 1e180 px the inputs are
    # finite but the squares of their spread overflow. Neither fit has finite
    # weights, and numpy's overflow warnings neither print nor end the run.
    config = tmp_path / "study.json"
    out = tmp_path / "report.json"
    for noise_sigma in (1e308, 1e180):
        config.write_text(json.dumps({"n_train": 300, "n_test": 50, "noise_sigma": noise_sigma}))
        for warnings in ((), ("error::RuntimeWarning",)):
            proc = run_module("study", "--config", str(config), "--output", str(out), warnings=warnings)
            assert (proc.returncode, proc.stderr) == (2, "error: weights must be finite\n"), (noise_sigma, warnings)
            assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_a_study_names_each_training_root_whose_norm_overflows_by_its_pose(tmp_path, capsys):
    # The training poses are canonicalized 256 at a time, yet the refusal
    # names each pose by its place in the whole set (290, not 290 - 256).
    config = tmp_path / "study.json"
    out = tmp_path / "report.json"
    region = {"low": [0, 0, 3], "high": [1.36e154, 0, 5]}
    config.write_text(json.dumps({"train_root_region": region, "n_train": 2000, "n_test": 10, "seed": 3}))
    assert run(["study", "--config", str(config), "--output", str(out)]) == 2
    assert capsys.readouterr() == (
        "",
        "error: 25 vector(s) with a norm that is not finite cannot be aligned (at positions [290, 294, 571, 601, 637,"
        " 643, 662, 667, 707, 725, 730, 834, 910, 962, 1254, 1323, 1426, 1453, 1592, 1660], ...)\n",
    )
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "case", ["detection-1e200-px", "focal-length-1e-308", "root-1e200-m", "focal-length-1e-308-root-at-cx-cy"]
)
def test_canonicalize_2d_refuses_a_ray_or_root_depth_that_is_not_finite(tmp_path, camera_file, intrinsics, capsys, case):
    # A root detection 1e200 px off, or any detection under focal lengths of
    # 1e-308 px, lifts to a root ray whose norm is not finite; a 3D root
    # 1e200 m off has a depth that is not finite. Under focal lengths of
    # 1e-308 px with every root detection at (cx, cy), the root ray is finite
    # but the other joints' are not, and so are their canonical pixels. Each
    # is refused naming its frames, with no numpy warning, in this process
    # and in a child whose RuntimeWarnings are errors.
    data = synth_file(tmp_path, count=5, seed=1, camera=camera_file)
    lines = Path(data).read_text().splitlines()
    if case == "focal-length-1e-308-root-at-cx-cy":
        records = [json.loads(line) for line in lines[1:]]
        for each in records:
            each["joints_2d"][0] = [intrinsics.cx, intrinsics.cy]
        lines = lines[:1] + [json.dumps(each) for each in records]
    record = json.loads(lines[3])
    camera, frames, reason = camera_file, "[2]", "1 vector(s) with a norm that is not finite cannot be aligned"
    if case == "detection-1e200-px":
        record["joints_2d"][0][0] += 1e200
    elif case == "root-1e200-m":
        record["joints_3d"][0][0] += 1e200
        reason = "the 3D root gives no root depth that is positive and finite"
    else:
        camera = str(tmp_path / "tiny-focal.json")
        Path(camera).write_text(json.dumps(dict(intrinsics.to_dict(), fx=1e-308, fy=1e-308)))
        frames, reason = "[0, 1, 2, 3, 4]", "5 vector(s) with a norm that is not finite cannot be aligned"
        if case == "focal-length-1e-308-root-at-cx-cy":
            reason = "canonical joints are not finite in 5 frame(s)"
    bad = tmp_path / "bad.ndjson"
    bad.write_text("\n".join(lines[:3] + [json.dumps(record)] + lines[4:]) + "\n")
    out = tmp_path / "out.ndjson"
    argv = ["canonicalize", "--mode", "2d", "--input", str(bad), "--camera", camera, "--output", str(out)]
    error = f"error: sequence ('synth', 'seed1', 'cam0'): {reason} (frames {frames})\n"
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr() == ("", error)
    proc = run_module(*argv, warnings=["error::RuntimeWarning"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", error)
    assert not out.exists()


@pytest.mark.parametrize("metric", ["mpjpe", "pmpjpe"])
def test_eval_names_the_sequence_and_frame_numbers_that_root_centering_overflows(tmp_path, capsys, metric):
    # Two sequences; frames are numbered from 10 so that a frame number
    # differs from its position in either sequence and in the concatenation.
    lines = Path(synth_file(tmp_path, count=6, seed=2)).read_text().splitlines()
    records = [json.loads(line) for line in lines[1:]]
    for k, record in enumerate(records):
        record.update(action="first" if k < 3 else "second", frame=10 + k % 3)
    gt = tmp_path / "gt.ndjson"
    gt.write_text("\n".join([lines[0], *map(json.dumps, records)]) + "\n")
    joints = records[4]["joints_3d"]
    joints[0][0], joints[1][0] = -1.5e308, 1.5e308
    pred = tmp_path / "pred.ndjson"
    pred.write_text("\n".join([lines[0], *map(json.dumps, records)]) + "\n")
    error = (
        "error: --pred: sequence ('synth', 'second', 'cam0'): root-centered joints are not finite "
        "in 1 frame(s) (frames [11])\n"
    )
    capsys.readouterr()
    assert run(["eval", "--pred", str(pred), "--gt", str(gt), "--metric", metric]) == 2
    assert capsys.readouterr() == ("", error)
    proc = run_module("eval", "--pred", str(pred), "--gt", str(gt), "--metric", metric, warnings=["error::RuntimeWarning"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", error)


@pytest.mark.parametrize(
    "metric, scale, what",
    [("mpjpe", 1e160, "the joint distance is not finite"), ("pmpjpe", 1e170, "the aligned joint distance is not finite")],
    ids=["mpjpe", "pmpjpe"],
)
def test_eval_names_the_sequence_and_frame_numbers_a_metric_refuses(tmp_path, capsys, metric, scale, what):
    # Three sequences of three frames, numbered from 10. Frame 11 of the
    # second and frames 10 and 12 of the third have a ground truth scaled
    # past what the metric's distances can hold. The refusal names the
    # second sequence, its own count and its frame number, not positions
    # [4, 6, 8] of the concatenation.
    lines = Path(synth_file(tmp_path, count=9, seed=2)).read_text().splitlines()
    records = [json.loads(line) for line in lines[1:]]
    for k, record in enumerate(records):
        record.update(action=("first", "second", "third")[k // 3], frame=10 + k % 3)
    pred = tmp_path / "pred.ndjson"
    pred.write_text("\n".join([lines[0], *map(json.dumps, records)]) + "\n")
    for k in (4, 6, 8):
        records[k]["joints_3d"] = [[v * scale for v in joint] for joint in records[k]["joints_3d"]]
    gt = tmp_path / "gt.ndjson"
    gt.write_text("\n".join([lines[0], *map(json.dumps, records)]) + "\n")
    error = f"error: sequence ('synth', 'second', 'cam0'): {what} in 1 frame(s) (frames [11])\n"
    capsys.readouterr()
    assert run(["eval", "--pred", str(pred), "--gt", str(gt), "--metric", metric]) == 2
    assert capsys.readouterr() == ("", error)
    proc = run_module("eval", "--pred", str(pred), "--gt", str(gt), "--metric", metric, warnings=["error::RuntimeWarning"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", error)


@pytest.mark.parametrize("canonical, bound", [(False, 1.5), (True, 1.5)], ids=["2d-and-3d", "canonical"])
def test_load_peak_is_about_its_loaded_arrays(tmp_path, camera_file, canonical, bound):
    """``load_sequences`` writes each block's rows into one array per column
    for the whole file, and every sequence is a slice of those arrays. On
    3,000 frames of one sequence with 2D and 3D the traced peak was 1.28
    times the loaded arrays' bytes, and on its canonical file 1.28 (the canon
    blocks' rotation check runs on 256 rows of the loaded arrays at a time),
    against 2.18 and 2.39 when each 128-line block kept its own arrays until
    the sequence was concatenated from them, and 1.51 for the canonical file
    when its rotations were checked all at once; each bound leaves about 16%
    headroom."""
    data = synth_file(tmp_path, count=3000, seed=5, camera=camera_file)
    if canonical:
        canon = tmp_path / "canon.ndjson"
        assert run(["canonicalize", "--input", data, "--camera", camera_file, "--output", str(canon)]) == 0
        data = str(canon)
    tracemalloc.start()
    try:
        sequences = load_sequences(data, H36M17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    loaded = sum(v.nbytes for v in vars(sequences[0]._columns).values() if isinstance(v, np.ndarray))
    assert len(sequences) == 1 and loaded >= 3000 * H36M17.n_joints * 5 * 8
    assert peak <= bound * loaded, peak / loaded


def test_a_file_of_contiguous_and_interleaved_sequences_holds_its_rows_once(tmp_path):
    """A file whose first 1,000 records are one sequence and whose other
    2,000 alternate between two is put in sequence order in place, and every
    sequence is a slice of its arrays. On 3,000 h36m17 records of 3D alone
    the live memory after load was 1.10 times the joints' bytes and the
    traced peak 2.41 MB, against 1.78 and 2.49 MB when each interleaved
    sequence was a gathered copy of its rows beside the file's arrays."""
    lines = Path(synth_file(tmp_path, count=3000, seed=5)).read_text().splitlines()
    records = [json.loads(line) for line in lines[1:]]
    for k, record in enumerate(records[1000:]):
        record["action"] = ("even", "odd")[k % 2]
    data = tmp_path / "mixed.ndjson"
    data.write_text("\n".join([lines[0], *map(json.dumps, records)]) + "\n")
    tracemalloc.start()
    try:
        sequences = load_sequences(str(data), H36M17)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    first = records[0]["action"]
    assert [(seq.action, seq.n_frames) for seq in sequences] == [(first, 1000), ("even", 1000), ("odd", 1000)]
    assert all(seq._columns.joints_2d is None for seq in sequences)
    joints = 3000 * H36M17.n_joints * 3 * 8
    assert live <= 1.15 * joints, live / joints
    assert peak <= 2.50e6, peak


@pytest.mark.parametrize("metric", ["mpjpe", "pmpjpe"])
def test_eval_peak_is_about_its_two_sides(tmp_path, capsys, metric):
    """``eval`` root-centers each sequence into one array per side and
    drops each loaded sequence once copied; sequences loaded as slices of
    one file's arrays free them only once the last is dropped. Both metrics
    score 256 frames at a time. On 3,000 frames of 3D alone in eight
    sequences, scored against themselves, the traced peak was 3.30 copies of
    one side's joints with mpjpe and 3.26 with pmpjpe, against 5.1 for
    pmpjpe while the loaded sequences lived through the score and 4.83 for
    mpjpe while it made whole (T, J, 3) temporaries; the bound leaves 21%
    headroom."""
    lines = Path(synth_file(tmp_path, count=3000, seed=5)).read_text().splitlines()
    records = [json.loads(line) for line in lines[1:]]
    for k, record in enumerate(records):
        record["action"] = f"a{k // 375}"
    data = str(tmp_path / "eight.ndjson")
    Path(data).write_text("\n".join([lines[0], *map(json.dumps, records)]) + "\n")
    one_copy = 3000 * 17 * 3 * 8
    tracemalloc.start()
    try:
        assert run(["eval", "--pred", data, "--gt", data, "--metric", metric]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == f"{metric} 0.000000 mm\n"
    assert peak <= 4 * one_copy, peak / one_copy


def test_stats_peak_above_its_loaded_arrays_is_about_one_sequence(tmp_path, camera_file):
    """``stats`` summarizes each distribution one sequence at a time, holds
    no summary's samples and writes each CSV one sequence at a time. On four
    1,000-frame sequences with 2D and 3D, under --camera and --csv, the traced
    peak above the loaded arrays was 2.35 times one sequence's 3D joint pool
    (2.07 without --csv), against 46.2 (9.99) when every summary held its
    pooled samples and each CSV was one string; the bound leaves 19%
    headroom."""
    lines = Path(synth_file(tmp_path, count=4000, seed=3, camera=camera_file)).read_text().splitlines()
    records = [json.loads(line) for line in lines[1:]]
    for k, record in enumerate(records):
        record["action"] = f"a{k // 1000}"
    data = tmp_path / "four.ndjson"
    data.write_text("\n".join([lines[0], *map(json.dumps, records)]) + "\n")
    tracemalloc.start()
    try:
        sequences = load_sequences(str(data), H36M17)
        loaded = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(sequences) == 4
    del sequences
    argv = ["stats", "--input", str(data), "--camera", camera_file, "--output", str(tmp_path / "stats.json"),
            "--csv", str(tmp_path / "csv")]
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one_pool = 1000 * H36M17.n_joints * 3 * 8
    assert peak - loaded <= 2.8 * one_pool, (peak - loaded) / one_pool


def test_a_camera_file_with_an_unknown_key_exits_two_naming_it(tmp_path, intrinsics, capsys):
    data = synth_file(tmp_path, count=4)
    camera = tmp_path / "camera.json"
    # "T" is a typo for "t"; read as extrinsics it would move nothing.
    camera.write_text(json.dumps(dict(intrinsics.to_dict(), R=np.eye(3).ravel().tolist(), T=[0.5, 0, 4], k1=0.1)))
    out = tmp_path / "canon.ndjson"
    capsys.readouterr()
    assert run(["canonicalize", "--input", data, "--camera", str(camera), "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {camera}: unknown camera file keys ['T', 'k1']\n"
    assert not out.exists()
