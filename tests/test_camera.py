import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from canonpose.camera import (
    CameraExtrinsics,
    CameraIntrinsics,
    Frame,
    Pose2D,
    Pose3D,
    Space,
    batch_project,
    batch_screen_normalize,
    batch_to_normalized_plane,
    batch_world_to_camera,
    load_camera_json,
)
from canonpose.canonical import batch_project_centered
from canonpose.dataset import FramePair, PoseSequence, apply_extrinsics, load_sequences
from canonpose.errors import BehindCameraError, ParseError, SchemaError
from canonpose.metrics import SimilarityTransform
from canonpose.skeleton import H36M17

finite_coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_project_frozen_example(intrinsics):
    projected = batch_project(np.array([[0.2, -0.1, 2.0]]), intrinsics)
    # u = 1150 * 0.2 / 2 + 512.5, v = 1080 * (-0.1) / 2 + 488
    assert np.allclose(projected, [[627.5, 434.0]], atol=1e-12)


def test_project_matches_elementwise_formula(intrinsics, pose_batch):
    pts = pose_batch(50, seed=5)
    pix = batch_project(pts, intrinsics)
    for frame in range(0, 50, 7):
        for j in range(pts.shape[1]):
            x, y, z = pts[frame, j]
            assert pix[frame, j, 0] == pytest.approx(intrinsics.fx * x / z + intrinsics.cx, abs=1e-12)
            assert pix[frame, j, 1] == pytest.approx(intrinsics.fy * y / z + intrinsics.cy, abs=1e-12)


def test_project_rejects_joints_behind_camera(intrinsics):
    pts = np.array([[[0.0, 0.0, 2.0]], [[0.0, 0.0, -1.0]], [[0.0, 0.0, 0.0]]])
    with pytest.raises(BehindCameraError) as excinfo:
        batch_project(pts, intrinsics)
    assert excinfo.value.indices == (1, 2)


def test_projections_reject_a_single_point_behind_camera(intrinsics):
    for kernel in (batch_project, batch_project_centered):
        assert kernel(np.array([0.1, 0.2, 1.0]), intrinsics).shape == (2,)
        for z in (-1.0, 0.0):
            with pytest.raises(BehindCameraError) as excinfo:
                kernel(np.array([0.1, 0.2, z]), intrinsics)
            assert excinfo.value.indices == (0,)
            assert str(excinfo.value).endswith("(at positions [0])")


def test_world_to_camera_against_per_point_loop(rotation_factory):
    rng = np.random.default_rng(42)
    rotation = rotation_factory(rng)
    translation = rng.standard_normal(3)
    pts = rng.standard_normal((8, 17, 3))
    out = batch_world_to_camera(pts, rotation, translation)
    for f in range(8):
        for j in range(17):
            assert np.allclose(out[f, j], rotation @ pts[f, j] + translation, atol=1e-12)


def test_world_to_camera_is_rigid(rotation_factory):
    rng = np.random.default_rng(3)
    rotation = rotation_factory(rng)
    translation = rng.standard_normal(3)
    pts = rng.standard_normal((5, 9, 3))
    out = batch_world_to_camera(pts, rotation, translation)
    for f in range(5):
        d_in = np.linalg.norm(pts[f][:, None] - pts[f][None], axis=-1)
        d_out = np.linalg.norm(out[f][:, None] - out[f][None], axis=-1)
        assert np.allclose(d_in, d_out, atol=1e-10)


def test_world_to_camera_tagged_round_trip(rotation_factory):
    # ``apply_extrinsics`` moves a global-frame sequence and retags its 3D.
    rng = np.random.default_rng(7)
    extr = CameraExtrinsics(rotation_factory(rng), rng.standard_normal(3))
    world = rng.standard_normal((3, 17, 3))
    frames = [FramePair(None, Pose3D(world[t], Frame.GLOBAL), t) for t in range(3)]
    (moved,) = apply_extrinsics([PoseSequence("S1", "walk", "cam0", 50.0, frames, H36M17)], extr)
    assert moved.frame_3d is Frame.CAMERA
    back = (moved.joints_3d() - extr.translation) @ extr.rotation
    assert np.allclose(back, world, atol=1e-12)


@given(arrays(np.float64, (6, 3), elements=finite_coords))
def test_normalized_plane_round_trip(joints):
    intr = CameraIntrinsics(fx=900.0, fy=850.0, cx=470.0, cy=505.0, width=960.0, height=1024.0)
    joints = joints + np.array([0.0, 0.0, 60.0])  # keep all depths positive
    pix = batch_project(joints, intr)
    plane = batch_to_normalized_plane(pix, intr)
    assert np.allclose(plane, joints[:, :2] / joints[:, 2:3], atol=1e-9)
    back = np.stack([plane[:, 0] * intr.fx + intr.cx, plane[:, 1] * intr.fy + intr.cy], axis=1)
    assert np.allclose(back, pix, atol=1e-9)


def test_screen_normalize_corners_and_center():
    intr = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640.0, height=480.0)
    corners = np.array([[0.0, 0.0], [640.0, 480.0], [320.0, 240.0]])
    out = batch_screen_normalize(corners, intr)
    # Both axes are divided by the width: y spans [-H/W, H/W].
    assert np.allclose(out[0], [-1.0, -0.75], atol=1e-15)
    assert np.allclose(out[1], [1.0, 0.75], atol=1e-15)
    assert np.allclose(out[2], [0.0, 0.0], atol=1e-15)


def test_screen_normalize_is_affine(intrinsics):
    rng = np.random.default_rng(0)
    a, b = rng.uniform(0, 1000, (2, 4, 2))
    lhs = batch_screen_normalize((a + b) / 2.0, intrinsics)
    rhs = (batch_screen_normalize(a, intrinsics) + batch_screen_normalize(b, intrinsics)) / 2.0
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_pose_arrays_are_validated_and_read_only():
    with pytest.raises(ValueError):
        Pose3D(np.zeros((0, 3)), Frame.CAMERA)
    with pytest.raises(ValueError):
        Pose3D(np.zeros((2, 2)), Frame.CAMERA)
    with pytest.raises(ValueError):
        Pose3D([[0.0, 0.0, np.nan]], Frame.CAMERA)
    with pytest.raises(ValueError):
        Pose2D(np.zeros((3, 3)), Space.IMAGE)
    pose = Pose3D(np.zeros((2, 3)), Frame.CAMERA)
    with pytest.raises(ValueError):
        pose.joints[0, 0] = 1.0
    source = np.zeros((2, 2))
    pose2d = Pose2D(source, Space.IMAGE)
    source[0, 0] = 99.0  # the pose must have copied, not aliased
    assert pose2d.joints[0, 0] == 0.0


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=-1.0, fy=500.0, cx=320.0, cy=240.0, width=640.0, height=480.0)
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=500.0, fy=500.0, cx=700.0, cy=240.0, width=640.0, height=480.0)
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640.0, height=-2.0)
    with pytest.raises(ValueError, match="^intrinsics field fy is not finite$"):
        CameraIntrinsics(fx=500.0, fy=float("inf"), cx=320.0, cy=240.0, width=640.0, height=480.0)
    with pytest.raises(ValueError, match=r"^cy=480.0 must lie strictly inside \(0, 480.0\)$"):
        CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=480.0, width=640.0, height=480.0)
    intr = CameraIntrinsics(fx=500.0, fy=510.0, cx=320.0, cy=240.0, width=640.0, height=480.0)
    assert intr.to_dict()["fy"] == 510.0


def test_extrinsics_validation(rotation_factory):
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError):
        CameraExtrinsics(np.eye(3) * 2.0, np.zeros(3))
    with pytest.raises(ValueError):
        CameraExtrinsics(rotation_factory(rng), [0.0, np.inf, 0.0])
    flipped = np.diag([1.0, 1.0, -1.0])  # orthogonal but det = -1
    with pytest.raises(ValueError):
        CameraExtrinsics(flipped, np.zeros(3))


def test_load_camera_json(tmp_path, rotation_factory):
    rng = np.random.default_rng(2)
    rotation = rotation_factory(rng)
    path = tmp_path / "cam.json"

    base = {"fx": 1100.0, "fy": 1050.0, "cx": 500.0, "cy": 510.0, "width": 1000.0, "height": 1020.0}
    path.write_text(json.dumps(base))
    intr, extr = load_camera_json(path)
    assert intr == CameraIntrinsics(**base)
    assert extr is None

    with_pose = dict(base, R=rotation.ravel().tolist(), t=[0.1, -0.2, 4.0])
    path.write_text(json.dumps(with_pose))
    intr, extr = load_camera_json(path)
    assert np.allclose(extr.rotation, rotation, atol=1e-15)
    assert np.allclose(extr.translation, [0.1, -0.2, 4.0])

    path.write_text(json.dumps(dict(base, R=rotation.ravel().tolist())))
    _, extr = load_camera_json(path)
    assert np.array_equal(extr.translation, np.zeros(3))

    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_camera_json(path)

    path.write_text(json.dumps({k: v for k, v in base.items() if k != "fy"}))
    with pytest.raises(SchemaError):
        load_camera_json(path)

    path.write_text(json.dumps(dict(base, R=[1.0] * 9)))
    with pytest.raises(SchemaError):
        load_camera_json(path)

    path.write_text("[1, 2]")
    with pytest.raises(SchemaError):
        load_camera_json(path)


@pytest.mark.parametrize(
    "override",
    [
        {"fy": True},
        {"fx": "1100"},
        {"width": 10**400},
        {"R": [True, False, False, False, True, False, False, False, True]},
        {"R": [1, 0, 0, 0, 1, 0, 0, 0, "1"]},
        {"t": [0.0, 0.0, 10**400]},
        {"t": [0.0, False, 1.0]},
    ],
    ids=[
        "fy-bool",
        "fx-string",
        "width-int-overflowing-float",
        "R-bools",
        "R-string",
        "t-int-overflowing-float",
        "t-bool",
    ],
)
def test_camera_numbers_must_be_json_numbers(tmp_path, override):
    base = {"fx": 1100.0, "fy": 1050.0, "cx": 500.0, "cy": 510.0, "width": 1000.0, "height": 1020.0}
    path = tmp_path / "cam.json"
    path.write_text(json.dumps(dict(base, **override)))
    with pytest.raises(SchemaError) as excinfo:
        load_camera_json(path)
    assert str(path) in str(excinfo.value)


def test_camera_rotation_may_be_nested_rows(tmp_path, rotation_factory):
    rotation = rotation_factory(np.random.default_rng(3))
    base = {"fx": 1100.0, "fy": 1050.0, "cx": 500.0, "cy": 510.0, "width": 1000.0, "height": 1020.0}
    path = tmp_path / "cam.json"
    path.write_text(json.dumps(dict(base, R=rotation.tolist(), t=[1, 2, 3])))
    _, extr = load_camera_json(path)
    assert np.array_equal(extr.rotation, rotation)
    assert np.array_equal(extr.translation, [1.0, 2.0, 3.0])


_NAN_ROTATION = np.eye(3)
_NAN_ROTATION[1, 1] = np.nan


def _loaded_canon(rotation, vector, tmp_path):
    """The rotation and source of a one-line canonical file, as loaded."""
    record = {
        "subject": "S1", "action": "walk", "camera": "cam0", "frame": 0,
        "joints_2d": [[500.0, 500.0]] * H36M17.n_joints, "joints_3d": None,
        "canon": {"rotation": np.ravel(rotation).tolist(), "source": list(vector), "root_depth": None},
    }
    path = tmp_path / "canon.ndjson"
    path.write_text(json.dumps(record) + "\n")
    rotations, sources, _, _ = load_sequences(path, H36M17)[0].canon()
    return rotations, sources


@pytest.mark.parametrize(
    "build",
    [
        lambda rotation, vector, tmp_path: vars(CameraExtrinsics(rotation, vector)).values(),
        _loaded_canon,
        lambda rotation, vector, tmp_path: vars(SimilarityTransform(1.0, rotation, vector)).values(),
    ],
    ids=["extrinsics", "canonical-rotation", "similarity"],
)
@pytest.mark.parametrize(
    "rotation, vector",
    [
        (np.eye(3)[:, :2], [0.0, 0.0, 1.0]),
        (_NAN_ROTATION, [0.0, 0.0, 1.0]),
        (np.diag([1.0, 1.0, -1.0]), [0.0, 0.0, 1.0]),
        (np.eye(3), [0.0, 1.0]),
    ],
    ids=["wrong-shape", "nan-entry", "reflection", "2-vector"],
)
def test_rotation_carriers_reject_bad_rotations_and_vectors(build, rotation, vector, tmp_path):
    with pytest.raises(ValueError):
        build(rotation, vector, tmp_path)
    good = build(np.eye(3), [0.0, 0.0, 1.0], tmp_path)
    arrays_held = [value for value in good if isinstance(value, np.ndarray)]
    assert len(arrays_held) == 2 and not any(array.flags.writeable for array in arrays_held)


def test_a_reflection_is_refused_with_one_det_text_on_every_numpy(tmp_path):
    # numpy 2 prints a float64 as np.float64(-1.0), numpy 1.24 as -1.0; the
    # refusal quotes the plain float, so the text is the same on both.
    reflection = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(SchemaError) as excinfo:
        _loaded_canon(reflection, [0.0, 0.0, 1.0], tmp_path)
    assert str(excinfo.value) == "line 1: invalid canon block: canonical rotation is not a proper rotation (det = -1.0)"
    path = tmp_path / "cam.json"
    base = {"fx": 1100.0, "fy": 1050.0, "cx": 500.0, "cy": 510.0, "width": 1000.0, "height": 1020.0}
    path.write_text(json.dumps(dict(base, R=reflection.ravel().tolist())))
    with pytest.raises(SchemaError) as excinfo:
        load_camera_json(path)
    assert str(excinfo.value) == f"{path}: invalid extrinsics: extrinsic rotation is not a proper rotation (det = -1.0)"
    with pytest.raises(ValueError, match=r"^similarity rotation is not a proper rotation \(det = -1\.0\)$"):
        SimilarityTransform(1.0, reflection, np.zeros(3))
