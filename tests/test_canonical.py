import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from canonpose.camera import CameraIntrinsics, Frame, Pose3D, batch_project
from canonpose.canonical import (
    PRINCIPAL_AXIS,
    _check_rotations,
    _root_depth,
    batch_back_transform,
    batch_canonicalize_2d,
    batch_canonicalize_3d,
    batch_project_centered,
    batch_rodrigues_align,
    residual_offset,
)
from canonpose.dataset import FramePair, PoseSequence, canonicalize_dataset, load_sequences, save_sequences
from canonpose.errors import AntiparallelError, BehindCameraError, DegenerateVectorError

vector_strategy = arrays(
    np.float64, (3,), elements=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
)


def test_rodrigues_frozen_example():
    rotation = batch_rodrigues_align(np.array([1.0, 0.0, 0.0]), PRINCIPAL_AXIS)
    expected = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    assert np.allclose(rotation, expected, atol=1e-15)
    assert np.allclose(rotation @ [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], atol=1e-15)


@given(vector_strategy, vector_strategy)
def test_rodrigues_aligns_any_directions(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < 1e-6 or nb < 1e-6:
        return
    if np.dot(a, b) / (na * nb) < -1.0 + 1e-6:
        return
    rotation = batch_rodrigues_align(a, b / nb)
    assert np.allclose(rotation @ (a / na), b / nb, atol=1e-9)
    gram = rotation.T @ rotation
    assert np.abs(gram - np.eye(3)).max() < 1e-9
    assert abs(np.linalg.det(rotation) - 1.0) < 1e-9


def test_rodrigues_parallel_gives_identity():
    rotation = batch_rodrigues_align(np.array([0.0, 0.0, 5.0]), PRINCIPAL_AXIS)
    assert np.array_equal(rotation, np.eye(3))


def test_rodrigues_degenerate_and_antiparallel():
    with pytest.raises(DegenerateVectorError):
        batch_rodrigues_align(np.zeros(3), PRINCIPAL_AXIS)
    with pytest.raises(AntiparallelError):
        batch_rodrigues_align(np.array([0.0, 0.0, -2.0]), PRINCIPAL_AXIS)
    bad = np.array([[0.0, 0.0, 1.0], [1e-12, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(DegenerateVectorError) as excinfo:
        batch_rodrigues_align(bad, PRINCIPAL_AXIS)
    assert excinfo.value.indices == (1,)


def test_canonicalize_3d_single_joint_example():
    canonical, (rotation,), depths = batch_canonicalize_3d(np.array([[[3.0, 0.0, 4.0]]]), 0)
    assert np.array_equal(canonical, [[[0.0, 0.0, 5.0]]])
    assert np.array_equal(depths, [5.0])
    assert np.allclose(rotation @ np.array([0.6, 0.0, 0.8]), [0.0, 0.0, 1.0], atol=1e-12)


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
    pix = batch_project_centered(np.array([[0.0, 0.0, 4.0], [0.3, -0.2, 4.4]]), intrinsics)
    assert np.array_equal(pix[0], [500.0, 500.0])
    expected = [
        intrinsics.fx * 0.3 / 4.4 + 500.0,
        intrinsics.fy * -0.2 / 4.4 + 500.0,
    ]
    assert np.allclose(pix[1], expected, atol=1e-12)


def test_canonicalize_2d_identity_rotation(intrinsics):
    # Root on the principal point: the pelvis ray is already the principal
    # axis, so the whole pose just shifts by the center-vs-principal offset.
    pixels = np.array([[intrinsics.cx, intrinsics.cy], [640.0, 410.0], [388.5, 612.0]])
    (canonical,), (rotation,), (pelvis,) = batch_canonicalize_2d(pixels[None], intrinsics, 0)
    assert np.array_equal(rotation, np.eye(3))
    shift = np.array([500.0 - intrinsics.cx, 500.0 - intrinsics.cy])
    assert np.array_equal(canonical[0], [500.0, 500.0])
    assert np.allclose(canonical[1:], pixels[1:] + shift, atol=1e-9)
    assert np.allclose(pelvis, [0.0, 0.0, 1.0], atol=1e-15)


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


def test_back_transform_tags(tmp_path, pose_batch, intrinsics, skeleton):
    # A saved 3D-path file loads with canonical-camera 3D, and its canon rows
    # rotate root-relative predictions back to the camera frame.
    pts = pose_batch(20, seed=8)
    frames = [FramePair(None, Pose3D(pts[t], Frame.CAMERA), t) for t in range(20)]
    raw = PoseSequence("S1", "walk", "cam0", 50.0, frames, skeleton)
    path = tmp_path / "canon.ndjson"
    save_sequences(canonicalize_dataset([raw], intrinsics, "3d-path"), path)
    (loaded,) = load_sequences(path, skeleton)
    assert loaded._columns.frame_3d is Frame.CANONICAL_CAMERA
    assert raw.canon() is None
    rotations, _, depths, _ = loaded.canon()
    root = skeleton.root_index
    canonical = loaded.joints_3d()
    out = batch_back_transform(canonical - canonical[:, root : root + 1], rotations, depths)
    assert np.abs(out - (pts - pts[:, root : root + 1])).max() < 1e-9


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
    # The canon-block checks that the loader and canonicalization run.
    good = batch_rodrigues_align(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 2.0]]), PRINCIPAL_AXIS)
    sources = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 2.0]])
    assert _check_rotations(good, sources) is None
    scaled = np.stack([good[0], np.eye(3) * 1.1])
    position, error = _check_rotations(scaled, sources)
    assert position == 1 and str(error).startswith("canonical rotation is not orthogonal")
    position, error = _check_rotations(good, np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
    assert position == 1 and isinstance(error, DegenerateVectorError)
    assert str(error) == "source_vector norm 0.000e+00 <= 1e-09"


def test_a_source_whose_norm_overflows_is_accepted_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _check_rotations(np.eye(3)[None], np.array([[1e308, 0.0, 1.0]])) is None


def test_canonical_record_validation():
    # A canon block's root depth: positive and finite, as the loader reads it.
    assert _root_depth(4.0) == 4.0
    for bad in (-1.0, 0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="^root_depth must be positive and finite"):
            _root_depth(bad)
