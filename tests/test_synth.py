import numpy as np
import pytest

from canonpose import skeleton as skeleton_module
from canonpose.camera import CameraIntrinsics, batch_project, batch_screen_normalize
from canonpose.canonical import batch_canonicalize_2d, batch_canonicalize_3d, batch_project_centered, residual_offset
from canonpose.errors import BehindCameraError
from canonpose.skeleton import Skeleton, get_skeleton, register_skeleton
from canonpose.synth import DEFAULT_ROOT_REGION, Box3, SynthConfig, generate_pose_array, pose_rng, random_intrinsics


def test_generation_is_bitwise_deterministic(skeleton):
    config = SynthConfig(seed=7, n_poses=20)
    a = generate_pose_array(config, skeleton)
    b = generate_pose_array(config, skeleton)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, generate_pose_array(SynthConfig(seed=8, n_poses=20), skeleton))
    assert not np.array_equal(a, generate_pose_array(config, skeleton, stream=1))


def test_pose_draws_are_independent_of_batch_size(skeleton):
    # Each pose gets its own counter-keyed generator, so the first five poses
    # of a 20-pose batch equal a 5-pose batch bit for bit.
    big = generate_pose_array(SynthConfig(seed=3, n_poses=20), skeleton)
    small = generate_pose_array(SynthConfig(seed=3, n_poses=5), skeleton)
    assert np.array_equal(big[:5], small)


def test_pose_rng_keying():
    assert pose_rng(1, 5).uniform() == pose_rng(1, 5).uniform()
    assert pose_rng(1, 5).uniform() != pose_rng(1, 6).uniform()
    assert pose_rng(1, 5).uniform() != pose_rng(2, 5).uniform()


def _inside(box: Box3, points: np.ndarray) -> bool:
    """Whether every point lies in ``box``, bounds included."""
    return bool(((points >= box.low) & (points <= box.high)).all())


def test_roots_stay_inside_the_region(skeleton):
    region = Box3((2.0, 1.0, 6.0), (2.5, 1.5, 8.0))
    pts = generate_pose_array(SynthConfig(seed=11, n_poses=300, root_region=region), skeleton)
    assert _inside(region, pts[:, skeleton.root_index])
    default = generate_pose_array(SynthConfig(seed=11, n_poses=300), skeleton)
    assert _inside(DEFAULT_ROOT_REGION, default[:, skeleton.root_index])


def test_limb_scale_scales_bones(skeleton):
    one = generate_pose_array(SynthConfig(seed=13, n_poses=10), skeleton)
    two = generate_pose_array(SynthConfig(seed=13, n_poses=10, limb_scale=2.0), skeleton)
    # Same seed, same draws: roots coincide and every bone doubles.
    assert np.array_equal(one[:, skeleton.root_index], two[:, skeleton.root_index])
    for parent, child in skeleton.topological_edges:
        bone_one = one[:, child] - one[:, parent]
        bone_two = two[:, child] - two[:, parent]
        assert np.abs(bone_two - 2.0 * bone_one).max() < 1e-13


def test_bone_length_jitter_stays_within_ten_percent(skeleton):
    pts = generate_pose_array(SynthConfig(seed=17, n_poses=500), skeleton)
    for parent, child in skeleton.topological_edges:
        lengths = np.linalg.norm(pts[:, child] - pts[:, parent], axis=-1)
        assert lengths.min() > 0
        # U(-0.1, 0.1) jitter caps the max/min ratio at 1.1/0.9.
        assert lengths.max() / lengths.min() <= 1.1 / 0.9 + 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(seed=0, n_poses=0)
    with pytest.raises(ValueError):
        SynthConfig(seed=0, n_poses=1, limb_scale=0.0)
    with pytest.raises(ValueError):
        SynthConfig(seed=0, n_poses=1, root_region=Box3((0, 0, 0.2), (1, 1, 1)))
    with pytest.raises(ValueError):
        SynthConfig(seed=-1, n_poses=1)
    with pytest.raises(ValueError):
        Box3((1, 0, 0), (0, 1, 1))
    with pytest.raises(ValueError, match="^box bounds must be finite$"):
        Box3((0, 0, 1), (1, 1, float("inf")))


def test_random_intrinsics_ranges():
    rng = np.random.default_rng(23)
    for _ in range(50):
        intr = random_intrinsics(rng)
        assert 640 <= intr.width <= 1920
        assert 480 <= intr.height <= 1200
        assert 0.8 <= intr.fx / intr.width <= 1.6
        assert 0.4 <= intr.cx / intr.width <= 0.6
    a = random_intrinsics(np.random.default_rng(5))
    b = random_intrinsics(np.random.default_rng(5))
    assert a == b


# The two oracles below run the public batch kernels against each other;
# the only math re-derived from first principles is the projection inside
# the residual check, which is independent on purpose.

CONSISTENCY_THRESHOLD = 1e-9


def consistency_oracle(points, intrinsics, root, intrinsics_2d_path=None):
    """Each pose's worst pixel gap between the canonical 2D built through the
    3D path (canonicalize the 3D pose, project centered) and through the 2D
    path (project, canonicalize the pixels, with ``intrinsics_2d_path`` if
    given)."""
    canon3, _, _ = batch_canonicalize_3d(points, root)
    via_3d = batch_project_centered(canon3, intrinsics)
    observed = batch_project(points, intrinsics)
    via_2d, _, _ = batch_canonicalize_2d(observed, intrinsics_2d_path or intrinsics, root)
    return np.abs(via_3d - via_2d).max(axis=(1, 2))


def many_to_one_demo(base, positions, intrinsics, root):
    """The screen-normalized conventional and canonical 2D of the
    root-relative pose ``base`` placed at each of ``positions``, and the
    largest per-joint error of ``residual_offset`` against a projection
    written out from first principles."""
    offsets = np.asarray(positions, dtype=np.float64)
    placed = base[None] + offsets[:, None, :]
    conventional = batch_screen_normalize(batch_project(placed, intrinsics), intrinsics)
    canon3, _, _ = batch_canonicalize_3d(placed, root)
    canonical = batch_screen_normalize(batch_project_centered(canon3, intrinsics), intrinsics)
    max_error = 0.0
    for offset in offsets:
        on_axis = base + np.array([0.0, 0.0, offset[2]])
        moved = base + offset
        for j in range(base.shape[0]):
            z = moved[j, 2]
            proj_moved = np.array(
                [intrinsics.fx * moved[j, 0] / z + intrinsics.cx, intrinsics.fy * moved[j, 1] / z + intrinsics.cy]
            )
            proj_axis = np.array(
                [intrinsics.fx * on_axis[j, 0] / z + intrinsics.cx, intrinsics.fy * on_axis[j, 1] / z + intrinsics.cy]
            )
            predicted = residual_offset((offset[0], offset[1], z), intrinsics)
            max_error = max(max_error, float(np.abs(proj_moved - proj_axis - predicted).max()))
    return conventional, canonical, max_error


def _spread(arr):
    """The largest coordinate spread (max minus min) across placements."""
    return float((arr.max(axis=0) - arr.min(axis=0)).max())


def test_consistency_oracle_passes_on_generated_poses(skeleton, intrinsics):
    pts = generate_pose_array(SynthConfig(seed=29, n_poses=200), skeleton)
    gaps = consistency_oracle(pts, intrinsics, skeleton.root_index)
    assert gaps.shape == (200,)
    assert gaps.max() < CONSISTENCY_THRESHOLD


def test_consistency_oracle_negative_control(skeleton, intrinsics):
    pts = generate_pose_array(SynthConfig(seed=29, n_poses=50), skeleton)
    wrong = CameraIntrinsics(
        fx=intrinsics.fx * 1.2,
        fy=intrinsics.fy,
        cx=intrinsics.cx,
        cy=intrinsics.cy,
        width=intrinsics.width,
        height=intrinsics.height,
    )
    gaps = consistency_oracle(pts, intrinsics, skeleton.root_index, intrinsics_2d_path=wrong)
    assert (gaps > CONSISTENCY_THRESHOLD).sum() == 50


def test_consistency_oracle_isolates_failing_poses(skeleton, intrinsics):
    pts = generate_pose_array(SynthConfig(seed=31, n_poses=6), skeleton)
    pts[2, :, 2] -= 20.0
    with pytest.raises(BehindCameraError) as excinfo:
        consistency_oracle(pts, intrinsics, skeleton.root_index)
    assert excinfo.value.indices == (2,)
    gaps = consistency_oracle(np.delete(pts, 2, axis=0), intrinsics, skeleton.root_index)
    assert gaps.shape == (5,)
    assert gaps.max() < CONSISTENCY_THRESHOLD  # the healthy poses still agree


def test_many_to_one_demo_contrast(skeleton, intrinsics):
    pts = generate_pose_array(SynthConfig(seed=41, n_poses=1), skeleton)[0]
    base = pts - pts[skeleton.root_index]
    positions = np.array(
        [[0.0, 0.0, 4.0], [0.9, 0.0, 4.0], [-0.9, 0.6, 4.0], [0.4, -0.5, 4.0]]
    )
    root = skeleton.root_index
    conventional, canonical, residual_error = many_to_one_demo(base, positions, intrinsics, root)
    assert conventional.shape == canonical.shape == (4, skeleton.n_joints, 2)
    # The same pose looks very different conventionally, far less so
    # canonically, and the canonical root is pinned at exactly zero.
    assert _spread(conventional) > 5 * _spread(canonical)
    assert _spread(conventional[:, root]) > 0.1
    assert np.abs(canonical[:, root]).max() == 0.0
    assert residual_error < 1e-9


def test_many_to_one_demo_identical_placements(skeleton, intrinsics):
    pts = generate_pose_array(SynthConfig(seed=43, n_poses=1), skeleton)[0]
    base = pts - pts[skeleton.root_index]
    positions = [[0.0, 0.0, 4.0], [0.0, 0.0, 4.0]]
    conventional, canonical, residual_error = many_to_one_demo(base, positions, intrinsics, skeleton.root_index)
    assert _spread(conventional) == 0.0
    assert _spread(canonical) == 0.0
    assert residual_error < 1e-9


def test_other_skeletons_grow_from_the_golden_spiral_template(monkeypatch):
    monkeypatch.setattr(skeleton_module, "_REGISTRY", dict(skeleton_module._REGISTRY))  # undone after the test
    chain = Skeleton(
        name="chain4",
        joint_names=("root", "left_hip", "right_hip", "torso"),
        root_index=0,
        left_hip_index=1,
        right_hip_index=2,
        torso_index=3,
        edges=((0, 1), (1, 2), (2, 3)),
    )
    register_skeleton(chain)
    skeleton = get_skeleton("chain4")
    config = SynthConfig(seed=5, n_poses=200, limb_scale=1.5)
    pts = generate_pose_array(config, skeleton)
    assert pts.shape == (200, 4, 3) and np.isfinite(pts).all()
    np.testing.assert_array_equal(pts, generate_pose_array(config, skeleton))
    bones = np.stack([np.linalg.norm(pts[:, c] - pts[:, p], axis=-1) for p, c in skeleton.edges])
    nominal = 0.3 * config.limb_scale
    assert bones.min() >= nominal * 0.9 - 1e-12 and bones.max() <= nominal * 1.1 + 1e-12


@pytest.mark.parametrize(
    "low",
    [(-1, 0, 3), [np.float32(-1), np.int64(0), 3.0], np.array([-1.0, 0.0, 3.0]), np.array([[-1, 0, 3]])],
    ids=["ints", "numpy-scalars", "array", "nested-array"],
)
def test_box_bounds_take_json_numbers_and_numpy_values(low):
    box = Box3(low, (1, 1, 5))
    assert box.low.tolist() == [-1.0, 0.0, 3.0] and not box.low.flags.writeable
    if isinstance(low, np.ndarray):
        assert low.flags.writeable


@pytest.mark.parametrize(
    "low, error",
    [
        ((True, 0, 3), TypeError),
        (("1", 0, 3), TypeError),
        (("a", 0, 3), TypeError),
        ((None, 0, 3), TypeError),
        ([[0, 0], [3]], TypeError),
        (np.array([True, False, True]), TypeError),
        ((10**400, 0, 3), OverflowError),
    ],
    ids=["bool", "numeric-string", "string", "null", "ragged", "bool-array", "int-overflowing-float"],
)
def test_box_bounds_refuse_what_is_not_a_json_number(low, error):
    with pytest.raises(error, match="^low "):
        Box3(low, (1, 1, 5))
