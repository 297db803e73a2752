import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from canonpose.camera import CameraIntrinsics, Frame, Pose2D, Pose3D, Space, batch_project
from canonpose.canonical import (
    PRINCIPAL_AXIS,
    CanonicalRecord,
    CanonicalRotation,
    back_transform,
    batch_back_transform,
    batch_canonicalize_2d,
    batch_canonicalize_3d,
    batch_project_centered,
    batch_rodrigues_align,
    canonicalize_2d,
    canonicalize_3d,
    project_canonical_centered,
    residual_offset,
    rodrigues_align,
    root_relative,
)
from canonpose.errors import (
    AntiparallelError,
    BehindCameraError,
    DegenerateVectorError,
    FrameMismatchError,
)

vector_strategy = arrays(
    np.float64, (3,), elements=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
)


def test_rodrigues_frozen_example():
    rotation = rodrigues_align((1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    expected = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    assert np.allclose(rotation.matrix, expected, atol=1e-15)
    assert np.allclose(rotation.apply([1.0, 0.0, 0.0]), [0.0, 0.0, 1.0], atol=1e-15)


@given(vector_strategy, vector_strategy)
def test_rodrigues_aligns_any_directions(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < 1e-6 or nb < 1e-6:
        return
    if np.dot(a, b) / (na * nb) < -1.0 + 1e-6:
        return
    rotation = rodrigues_align(a, b)
    assert np.allclose(rotation.matrix @ (a / na), b / nb, atol=1e-9)
    gram = rotation.matrix.T @ rotation.matrix
    assert np.abs(gram - np.eye(3)).max() < 1e-9
    assert abs(np.linalg.det(rotation.matrix) - 1.0) < 1e-9


def test_rodrigues_parallel_gives_identity():
    rotation = rodrigues_align((0.0, 0.0, 5.0), PRINCIPAL_AXIS)
    assert np.array_equal(rotation.matrix, np.eye(3))


def test_rodrigues_degenerate_and_antiparallel():
    with pytest.raises(DegenerateVectorError):
        rodrigues_align((0.0, 0.0, 0.0), PRINCIPAL_AXIS)
    with pytest.raises(DegenerateVectorError):
        rodrigues_align(PRINCIPAL_AXIS, (0.0, 0.0, 1e-12))
    with pytest.raises(AntiparallelError):
        rodrigues_align((0.0, 0.0, -2.0), PRINCIPAL_AXIS)
    bad = np.array([[0.0, 0.0, 1.0], [1e-12, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(DegenerateVectorError) as excinfo:
        batch_rodrigues_align(bad, PRINCIPAL_AXIS)
    assert excinfo.value.indices == (1,)


def test_canonicalize_3d_single_joint_example():
    pose = Pose3D([[3.0, 0.0, 4.0]], Frame.CAMERA)
    canonical, rotation = canonicalize_3d(pose, 0)
    assert canonical.frame is Frame.CANONICAL_CAMERA
    assert np.array_equal(canonical.joints, [[0.0, 0.0, 5.0]])
    assert np.allclose(rotation.matrix @ np.array([0.6, 0.0, 0.8]), [0.0, 0.0, 1.0], atol=1e-12)
    assert np.array_equal(rotation.source_vector, [3.0, 0.0, 4.0])


def test_canonicalize_3d_batch_contract(pose_batch):
    pts = pose_batch(200, seed=1)
    canonical, rotations, depths = batch_canonicalize_3d(pts, 0)
    roots = pts[:, 0]
    assert np.allclose(depths, np.linalg.norm(roots, axis=-1), atol=1e-12)
    # Roots are written exactly, not just within tolerance.
    assert np.all(canonical[:, 0, 0] == 0.0)
    assert np.all(canonical[:, 0, 1] == 0.0)
    assert np.array_equal(canonical[:, 0, 2], depths)
    # The rotation is rigid: pairwise joint distances are unchanged.
    for frame in range(0, 200, 31):
        d_in = np.linalg.norm(pts[frame][:, None] - pts[frame][None], axis=-1)
        d_out = np.linalg.norm(canonical[frame][:, None] - canonical[frame][None], axis=-1)
        assert np.allclose(d_in, d_out, atol=1e-10)


def test_canonicalize_3d_rejects_root_behind_camera():
    pts = np.array([[[0.0, 0.0, 3.0]], [[0.1, 0.1, -0.5]]])
    with pytest.raises(BehindCameraError) as excinfo:
        batch_canonicalize_3d(pts, 0)
    assert excinfo.value.indices == (1,)


def test_project_canonical_centered_pins_root(intrinsics):
    pose = Pose3D([[0.0, 0.0, 4.0], [0.3, -0.2, 4.4]], Frame.CANONICAL_CAMERA)
    pix = project_canonical_centered(pose, intrinsics)
    assert np.array_equal(pix.joints[0], [500.0, 500.0])
    expected = [
        intrinsics.fx * 0.3 / 4.4 + 500.0,
        intrinsics.fy * -0.2 / 4.4 + 500.0,
    ]
    assert np.allclose(pix.joints[1], expected, atol=1e-12)
    with pytest.raises(FrameMismatchError):
        project_canonical_centered(Pose3D(pose.joints, Frame.CAMERA), intrinsics)


def test_root_relative_is_idempotent(pose_batch, skeleton):
    pose = Pose3D(pose_batch(1, seed=3)[0], Frame.CAMERA)
    relative = root_relative(pose, skeleton)
    assert relative.frame is Frame.CAMERA
    assert np.array_equal(relative.joints[skeleton.root_index], np.zeros(3))
    again = root_relative(relative, skeleton)
    assert np.array_equal(again.joints, relative.joints)


def test_canonicalize_2d_identity_rotation(intrinsics):
    # Root on the principal point: the pelvis ray is already the principal
    # axis, so the whole pose just shifts by the center-vs-principal offset.
    pixels = np.array([[intrinsics.cx, intrinsics.cy], [640.0, 410.0], [388.5, 612.0]])
    pose = Pose2D(pixels, Space.IMAGE)
    canonical, rotation = canonicalize_2d(pose, intrinsics, 0)
    assert np.array_equal(rotation.matrix, np.eye(3))
    shift = np.array([500.0 - intrinsics.cx, 500.0 - intrinsics.cy])
    assert np.array_equal(canonical.joints[0], [500.0, 500.0])
    assert np.allclose(canonical.joints[1:], pixels[1:] + shift, atol=1e-9)
    assert np.allclose(rotation.source_vector, [0.0, 0.0, 1.0], atol=1e-15)


def test_canonicalize_2d_matches_3d_path(intrinsics, pose_batch, skeleton):
    pts = pose_batch(300, seed=2)
    root = skeleton.root_index
    canonical, rotations, depths = batch_canonicalize_3d(pts, root)
    via_3d = batch_project_centered(canonical, intrinsics)
    observed = batch_project(pts, intrinsics)
    via_2d, rotations_2d, pelvis = batch_canonicalize_2d(observed, intrinsics, root)
    assert np.abs(via_3d - via_2d).max() < 1e-9
    assert np.abs(rotations - rotations_2d).max() < 1e-9
    # The homogeneous pelvis vector is the root ray scaled to depth 1.
    assert np.allclose(pelvis, pts[:, root] / pts[:, root, 2:3], atol=1e-12)


def test_canonicalize_2d_refuses_joint_on_canonical_camera_plane(intrinsics):
    # Pick a second joint whose depth-1 plane vector rotates onto the
    # canonical camera plane: for root ray r, R maps (x, 0, 1) to
    # Z = r31 * x + r33 = 0. The 2D path refuses it as the 3D path does.
    root_pixel = np.array([intrinsics.cx + 600.0, intrinsics.cy])
    ray = np.array([600.0 / intrinsics.fx, 0.0, 1.0])
    rotation = batch_rodrigues_align(ray, PRINCIPAL_AXIS)
    x = -rotation[2, 2] / rotation[2, 0]
    joint = np.array([intrinsics.cx + intrinsics.fx * x, intrinsics.cy])
    with pytest.raises(BehindCameraError, match=r"^1 canonical joint\(s\) at or behind the camera plane"):
        batch_canonicalize_2d(np.stack([root_pixel, joint])[None], intrinsics, 0)


@pytest.mark.filterwarnings("error")
def test_canonicalize_2d_refuses_frames_whose_canonical_pixels_are_not_finite(intrinsics):
    # Under focal lengths of 1e-308 px a root detection at exactly (cx, cy)
    # lifts to the finite ray (0, 0, 1), but a joint 10 px off lifts to inf.
    tiny = CameraIntrinsics(**dict(intrinsics.to_dict(), fx=1e-308, fy=1e-308))
    pixels = np.full((5, 3, 2), [tiny.cx, tiny.cy])
    pixels[[1, 3], 2, 0] += 10.0
    pixels[4, 1, 1] -= 10.0
    with pytest.raises(DegenerateVectorError) as excinfo:
        batch_canonicalize_2d(pixels, tiny, 0)
    assert str(excinfo.value) == "canonical joints are not finite in 3 frame(s) (at positions [1, 3, 4])"
    assert excinfo.value.indices == (1, 3, 4)


def test_back_transform_round_trip(pose_batch, skeleton):
    pts = pose_batch(100, seed=4)
    root = skeleton.root_index
    canonical, rotations, depths = batch_canonicalize_3d(pts, root)
    relative = canonical - canonical[:, root : root + 1]
    recovered = batch_back_transform(relative, rotations, depths)
    expected = pts - pts[:, root : root + 1]
    assert np.abs(recovered - expected).max() < 1e-9
    assert np.all(recovered[:, root] == 0.0)


def test_back_transform_is_depth_invariant(pose_batch, skeleton):
    pts = pose_batch(50, seed=6)
    root = skeleton.root_index
    canonical, rotations, depths = batch_canonicalize_3d(pts, root)
    relative = canonical - canonical[:, root : root + 1]
    with_truth = batch_back_transform(relative, rotations, depths)
    with_zero = batch_back_transform(relative, rotations, np.zeros(50))
    with_junk = batch_back_transform(relative, rotations, np.full(50, 7.25))
    assert np.abs(with_truth - with_zero).max() < 1e-9
    assert np.abs(with_truth - with_junk).max() < 1e-9


def test_back_transform_tags(pose_batch, skeleton):
    pose = Pose3D(pose_batch(1, seed=8)[0], Frame.CAMERA)
    canonical, rotation = canonicalize_3d(pose, skeleton)
    relative = root_relative(canonical, skeleton)
    out = back_transform(relative, rotation, 0.0)
    assert out.frame is Frame.CAMERA
    assert np.abs(out.joints - root_relative(pose, skeleton).joints).max() < 1e-9
    with pytest.raises(FrameMismatchError):
        back_transform(root_relative(pose, skeleton), rotation, 0.0)


def test_residual_offset_formula(intrinsics):
    offset = residual_offset((0.5, -0.25, 2.0), intrinsics)
    assert np.allclose(offset, [intrinsics.fx * 0.25, intrinsics.fy * -0.125], atol=1e-12)
    with pytest.raises(BehindCameraError):
        residual_offset((0.1, 0.1, 0.0), intrinsics)


def test_residual_offset_explains_projection_shift(intrinsics, pose_batch, skeleton):
    base = pose_batch(1, seed=9)[0]
    base = base - base[skeleton.root_index]
    offset = np.array([0.7, -0.4, 3.6])
    moved = batch_project(base + offset, intrinsics)
    on_axis = batch_project(base + np.array([0.0, 0.0, offset[2]]), intrinsics)
    for j in range(base.shape[0]):
        depth = base[j, 2] + offset[2]
        expected = residual_offset((offset[0], offset[1], depth), intrinsics)
        assert np.abs(moved[j] - on_axis[j] - expected).max() < 1e-9


def test_canonical_rotation_validation():
    with pytest.raises(ValueError):
        CanonicalRotation(np.eye(3) * 1.1, [0.0, 0.0, 1.0])
    with pytest.raises(DegenerateVectorError):
        CanonicalRotation(np.eye(3), [0.0, 0.0, 0.0])
    rotation = rodrigues_align((1.0, 2.0, 3.0), PRINCIPAL_AXIS)
    pts = np.arange(12, dtype=np.float64).reshape(4, 3)
    assert np.allclose(rotation.inverse_apply(rotation.apply(pts)), pts, atol=1e-12)


def test_a_source_whose_norm_overflows_is_accepted_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rotation = CanonicalRotation(np.eye(3), [1e308, 0.0, 1.0])
    assert rotation.source_vector[0] == 1e308


def test_canonical_record_validation(intrinsics):
    pose3d = Pose3D([[0.0, 0.0, 4.0]], Frame.CANONICAL_CAMERA)
    pose2d = Pose2D([[500.0, 500.0]], Space.IMAGE)
    rotation = rodrigues_align((0.2, 0.1, 3.9), PRINCIPAL_AXIS)
    record = CanonicalRecord(pose3d, pose2d, rotation, 4.0, "h36m17")
    assert record.root_depth == 4.0
    with pytest.raises(ValueError):
        CanonicalRecord(pose3d, pose2d, rotation, None, "h36m17")
    with pytest.raises(ValueError):
        CanonicalRecord(pose3d, pose2d, rotation, -1.0, "h36m17")
    with pytest.raises(ValueError):
        CanonicalRecord(Pose3D([[0.0, 0.0, 4.0]], Frame.CAMERA), pose2d, rotation, 4.0, "h36m17")
    with pytest.raises(ValueError):
        CanonicalRecord(None, Pose2D([[0.0, 0.0]], Space.SCREEN_NORMALIZED), rotation, None, "h36m17")
