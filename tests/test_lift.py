import numpy as np
import pytest

from canonpose.camera import CameraIntrinsics, Frame, Pose2D, Pose3D, Space
from canonpose.errors import (
    DimensionMismatchError,
    FrameMismatchError,
    SingularMatrixError,
)
from canonpose.lift import (
    LiftingStudyConfig,
    LinearLifter,
    fit,
    predict,
    run_study,
)
from canonpose.synth import Box3, SynthConfig


def _planted_pairs(rng, n=60, n_joints=4, noise=0.0):
    x = rng.normal(size=(n, 2 * n_joints))
    weights = rng.normal(size=(2 * n_joints + 1, 3 * n_joints))
    y = x @ weights[:-1] + weights[-1] + noise * rng.normal(size=(n, 3 * n_joints))
    pairs = [
        (
            Pose2D(x[i].reshape(n_joints, 2), Space.SCREEN_NORMALIZED),
            Pose3D(y[i].reshape(n_joints, 3), Frame.CAMERA),
        )
        for i in range(n)
    ]
    return pairs, x, y, weights


def test_fit_recovers_planted_linear_map():
    rng = np.random.default_rng(60)
    pairs, x, y, weights = _planted_pairs(rng)
    lifter = fit(pairs, ridge_lambda=0.0)
    assert np.abs(lifter.weights - weights).max() < 1e-6
    pred = predict(lifter, pairs[0][0])
    assert np.abs(pred.joints.ravel() - y[0]).max() < 1e-6
    assert pred.frame is Frame.CAMERA


def test_huge_ridge_shrinks_all_weights():
    rng = np.random.default_rng(61)
    pairs, _, _, _ = _planted_pairs(rng)
    lifter = fit(pairs, ridge_lambda=1e14)
    # The bias is penalized like every other weight, so everything collapses.
    assert np.abs(lifter.weights).max() < 1e-6


def test_ridge_fit_beats_zero_predictor():
    rng = np.random.default_rng(62)
    pairs, x, y, _ = _planted_pairs(rng, noise=0.5)
    lifter = fit(pairs, ridge_lambda=1e-4)
    residual = x @ lifter.weights[:-1] + lifter.weights[-1] - y
    assert np.mean(residual**2) < np.mean(y**2)


def test_singular_design_requires_ridge():
    rng = np.random.default_rng(63)
    pairs, x, y, _ = _planted_pairs(rng, n=40, n_joints=2)
    # Duplicate one input coordinate across all pairs: rank-deficient design.
    degenerate = []
    for pose2d, pose3d in pairs:
        joints = pose2d.joints.copy()
        joints[1] = joints[0]
        degenerate.append((Pose2D(joints, Space.SCREEN_NORMALIZED), pose3d))
    with pytest.raises(SingularMatrixError):
        fit(degenerate, ridge_lambda=0.0)
    lifter = fit(degenerate, ridge_lambda=1e-6)
    assert np.isfinite(lifter.weights).all()


def test_fit_input_validation():
    rng = np.random.default_rng(64)
    pairs, _, _, _ = _planted_pairs(rng, n=20, n_joints=3)
    with pytest.raises(DimensionMismatchError):
        fit([], ridge_lambda=0.0)
    with pytest.raises(DimensionMismatchError):
        fit(pairs[:5], ridge_lambda=0.0)  # fewer pairs than unknowns
    image_pair = (Pose2D(pairs[0][0].joints, Space.IMAGE), pairs[0][1])
    with pytest.raises(FrameMismatchError):
        fit([image_pair] + pairs[1:], ridge_lambda=0.0)
    short = (
        Pose2D(pairs[0][0].joints[:2], Space.SCREEN_NORMALIZED),
        Pose3D(pairs[0][1].joints[:2], Frame.CAMERA),
    )
    with pytest.raises(DimensionMismatchError):
        fit([short] + pairs[1:], ridge_lambda=0.0)
    with pytest.raises(ValueError):
        fit(pairs, ridge_lambda=-1.0)


def test_lifter_validation():
    good = np.zeros((9, 12))
    with pytest.raises(ValueError):
        LinearLifter(np.zeros((8, 12)), 0.0, "conventional")  # even row count
    with pytest.raises(ValueError):
        LinearLifter(np.zeros((9, 11)), 0.0, "conventional")  # cols not 3J
    with pytest.raises(ValueError):
        LinearLifter(good, 0.0, "sideways")
    lifter = LinearLifter(good, 0.0, "canonical")
    assert lifter.n_joints == 4
    pred = predict(lifter, Pose2D(np.zeros((4, 2)), Space.SCREEN_NORMALIZED))
    assert pred.frame is Frame.CANONICAL_CAMERA


def _tiny_config(**overrides):
    kwargs = dict(n_train=600, n_test=200, seed=0)
    kwargs.update(overrides)
    return LiftingStudyConfig(**kwargs)


def test_run_study_report_shape_and_determinism():
    config = _tiny_config()
    report = run_study(config)
    again = run_study(config)
    assert report.to_json() == again.to_json()
    assert report.mpjpe_ratio == pytest.approx(
        report.canonical.test_mpjpe_mm / report.conventional.test_mpjpe_mm
    )
    for arm in (report.conventional, report.canonical):
        assert arm.train_mpjpe_mm > 0
        assert arm.test_mpjpe_mm > 0
        assert arm.test_pmpjpe_mm <= arm.test_mpjpe_mm + 1e-9
    # Skipping the back-transform must hurt: canonical predictions are only
    # comparable to camera-frame ground truth after rotating back.
    assert report.canonical.test_mpjpe_before_back_transform_mm > report.canonical.test_mpjpe_mm
    assert report.conventional.test_mpjpe_before_back_transform_mm is None


def test_run_study_seed_changes_results():
    a = run_study(_tiny_config())
    b = run_study(_tiny_config(seed=1))
    assert a.conventional.test_mpjpe_mm != b.conventional.test_mpjpe_mm


def test_run_study_control_configuration():
    config = _tiny_config(
        n_train=2000,
        n_test=400,
        test_root_region=LiftingStudyConfig().train_root_region,
        noise_sigma=0.0,
    )
    report = run_study(config)
    assert 0.5 <= report.mpjpe_ratio <= 2.0
    for arm in (report.conventional, report.canonical):
        assert arm.test_mpjpe_mm <= arm.train_mpjpe_mm + 3.0 * arm.train_mpjpe_std_mm


def test_study_config_validation():
    with pytest.raises(ValueError):
        _tiny_config(skeleton_name="nope")
    with pytest.raises(ValueError):
        _tiny_config(noise_sigma=-0.1)
    with pytest.raises(ValueError):
        _tiny_config(n_test=0)
    with pytest.raises(ValueError):
        _tiny_config(train_root_region=Box3((0, 0, 0.1), (1, 1, 1)))
    d = _tiny_config().to_dict()
    assert d["n_train"] == 600 and d["skeleton"] == "h36m17"


def test_config_dataclasses_read_numbers_as_the_command_line_does():
    camera = dict(fx=1100.0, fy=1100.0, cx=510.0, cy=505.0, width=1000.0, height=1000.0)
    for build in (
        lambda: LiftingStudyConfig(n_train=600.5),
        lambda: SynthConfig(seed=0, n_poses=2.7),
        lambda: SynthConfig(seed=0, n_poses=1, limb_scale=True),
        lambda: CameraIntrinsics(**dict(camera, fx="1100")),
        lambda: Box3((True, 0, 3), (1, 1, 5)),
    ):
        with pytest.raises(TypeError):
            build()
    config = SynthConfig(seed=np.int64(3), n_poses=np.int64(2))
    assert (config.seed, config.n_poses) == (3, 2) and type(config.n_poses) is int
    intrinsics = CameraIntrinsics(**{key: np.float32(value) for key, value in camera.items()})
    assert intrinsics.to_dict() == camera and type(intrinsics.fx) is float


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: LiftingStudyConfig(n_train=600, n_test=200, camera={"fx": 1}), "camera"),
        (lambda: LiftingStudyConfig(train_root_region="x"), "train_root_region"),
        (lambda: LiftingStudyConfig(test_root_region=((0.8, 0.5, 3), (1.8, 1.1, 5))), "test_root_region"),
        (lambda: LiftingStudyConfig(skeleton_name=["h36m17"]), "skeleton"),
        (lambda: SynthConfig(seed=0, n_poses=1, root_region=((0, 0, 3), (1, 1, 4))), "root_region"),
    ],
    ids=["study-camera", "study-train-region", "study-test-region", "study-skeleton", "synth-root-region"],
)
def test_config_object_fields_are_type_checked_at_construction(build, field):
    with pytest.raises(TypeError, match=f"^{field} must be a "):
        build()
