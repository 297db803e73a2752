import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canonpose import lift
from canonpose.camera import CameraIntrinsics, batch_project, batch_screen_normalize
from canonpose.canonical import batch_back_transform, batch_canonicalize_2d, batch_canonicalize_3d, batch_project_centered
from canonpose.errors import BehindCameraError, SingularMatrixError
from canonpose.lift import ArmResult, LiftingStudyConfig, StudyReport, _fit_arrays, _predict_arrays, run_study
from canonpose.metrics import mpjpe, p_mpjpe
from canonpose.skeleton import get_skeleton
from canonpose.synth import Box3, SynthConfig, generate_pose_array, pose_rng


def _planted_map(rng, n=60, n_joints=4, noise=0.0):
    """(n, 2J) inputs, (n, 3J) targets and the (2J + 1, 3J) affine map between them."""
    x = rng.normal(size=(n, 2 * n_joints))
    weights = rng.normal(size=(2 * n_joints + 1, 3 * n_joints))
    y = x @ weights[:-1] + weights[-1] + noise * rng.normal(size=(n, 3 * n_joints))
    return x, y, weights


def test_fit_recovers_planted_linear_map():
    rng = np.random.default_rng(60)
    x, y, weights = _planted_map(rng)
    fitted = _fit_arrays(x, y, 0.0)
    assert np.abs(fitted - weights).max() < 1e-6
    pred = _predict_arrays(fitted, x[:1])
    assert pred.shape == (1, 4, 3)
    assert np.abs(pred.ravel() - y[0]).max() < 1e-6


def test_huge_ridge_shrinks_all_weights():
    rng = np.random.default_rng(61)
    x, y, _ = _planted_map(rng)
    # The bias is penalized like every other weight, so everything collapses.
    assert np.abs(_fit_arrays(x, y, 1e14)).max() < 1e-6


def test_ridge_fit_beats_zero_predictor():
    rng = np.random.default_rng(62)
    x, y, _ = _planted_map(rng, noise=0.5)
    weights = _fit_arrays(x, y, 1e-4)
    residual = x @ weights[:-1] + weights[-1] - y
    assert np.mean(residual**2) < np.mean(y**2)


def test_singular_design_requires_ridge():
    rng = np.random.default_rng(63)
    x, y, _ = _planted_map(rng, n=40, n_joints=2)
    # Duplicate one input joint across all rows: rank-deficient design.
    x[:, 2:4] = x[:, 0:2]
    with pytest.raises(SingularMatrixError):
        _fit_arrays(x, y, 0.0)
    assert np.isfinite(_fit_arrays(x, y, 1e-6)).all()


@pytest.mark.filterwarnings("error")
def test_weights_that_overflow_are_refused():
    rng = np.random.default_rng(64)
    x = rng.normal(size=(40, 4))
    # Finite inputs with a finite spread, but targets whose sums in the
    # normal equations overflow, so the solved weights are not finite; the
    # one refusal is that check, with no numpy warning.
    y = np.full((40, 6), 1.7e308)
    with pytest.raises(ValueError, match="^weights must be finite$"):
        _fit_arrays(x, y, 0.0)


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
        _tiny_config(skeleton="nope")
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
        (lambda: LiftingStudyConfig(skeleton=["h36m17"]), "skeleton"),
        (lambda: SynthConfig(seed=0, n_poses=1, root_region=((0, 0, 3), (1, 1, 4))), "root_region"),
    ],
    ids=["study-camera", "study-train-region", "study-test-region", "study-skeleton", "synth-root-region"],
)
def test_config_object_fields_are_type_checked_at_construction(build, field):
    with pytest.raises(TypeError, match=f"^{field} must be a "):
        build()


# ---------------------------------------------------------------------------
# The study built in blocks against the whole-batch study.
# ---------------------------------------------------------------------------


def reference_fit_arrays(x, y, ridge_lambda):
    """``lift._fit_arrays`` as a whole-batch design, as it was before the fit
    summed its normal equations in blocks: standardized inputs and a column
    of ones concatenated into a new array."""
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    design = np.concatenate([(x - mean) / std, np.ones((x.shape[0], 1))], axis=1)
    gram = design.T @ design + ridge_lambda * np.eye(design.shape[1])
    chol = np.linalg.cholesky(gram)
    solution = np.linalg.solve(chol.T, np.linalg.solve(chol, design.T @ y))
    weights = np.empty((x.shape[1] + 1, y.shape[1]))
    weights[:-1] = solution[:-1] / std[:, None]
    weights[-1] = solution[-1] - (mean / std) @ solution[:-1]
    return weights


def reference_predict_arrays(weights, x):
    flat = x @ weights[:-1] + weights[-1]
    return flat.reshape(x.shape[0], -1, 3)


def reference_run_study(config, fit):
    """``run_study`` on whole-set arrays, with ``fit(x, y, ridge_lambda)`` for
    the lifter: every training pose, its noise, both arms' pixels and the
    canonical poses at once."""
    skeleton = get_skeleton(config.skeleton)
    intr = config.camera
    root = skeleton.root_index
    n_joints = skeleton.n_joints

    train = generate_pose_array(config._draw("train"), skeleton, stream=lift._STREAM_TRAIN)
    test = generate_pose_array(config._draw("test"), skeleton, stream=lift._STREAM_TEST)
    noise_train = config.noise_sigma * pose_rng(config.seed, lift._NOISE_TRAIN_INDEX).standard_normal(
        (config.n_train, n_joints, 2)
    )
    noise_test = config.noise_sigma * pose_rng(config.seed, lift._NOISE_TEST_INDEX).standard_normal(
        (config.n_test, n_joints, 2)
    )

    def flatten2(pixels):
        return batch_screen_normalize(pixels, intr).reshape(pixels.shape[0], -1)

    x_conv = flatten2(batch_project(train, intr) + noise_train)
    y_conv = (train - train[:, root : root + 1]).reshape(config.n_train, -1)
    canon_train, _, depths = batch_canonicalize_3d(train, root)
    x_canon = flatten2(batch_project_centered(canon_train, intr) + noise_train)
    anchors = np.zeros((config.n_train, 1, 3))
    anchors[:, 0, 2] = depths
    y_canon = (canon_train - anchors).reshape(config.n_train, -1)

    lam = config.ridge_lambda
    weights_conv = fit(x_conv, y_conv, lam)
    weights_canon = fit(x_canon, y_canon, lam)

    def train_stats(weights, x, y):
        errors = np.linalg.norm(reference_predict_arrays(weights, x) - y.reshape(-1, n_joints, 3), axis=-1).mean(axis=-1)
        return float(errors.mean()), float(errors.std())

    conv_train_mean, conv_train_std = train_stats(weights_conv, x_conv, y_conv)
    canon_train_mean, canon_train_std = train_stats(weights_canon, x_canon, y_canon)

    observed = batch_project(test, intr) + noise_test
    gt_rel = test - test[:, root : root + 1]
    pred_conv = reference_predict_arrays(weights_conv, flatten2(observed))
    canon_pix, rotations, _ = batch_canonicalize_2d(observed, intr, root)
    pred_canon = reference_predict_arrays(weights_canon, flatten2(canon_pix))
    pred_back = batch_back_transform(pred_canon, rotations)

    mm = 1000.0
    conventional = ArmResult(
        train_mpjpe_mm=conv_train_mean * mm,
        train_mpjpe_std_mm=conv_train_std * mm,
        test_mpjpe_mm=mpjpe(pred_conv, gt_rel) * mm,
        test_pmpjpe_mm=p_mpjpe(pred_conv, gt_rel) * mm,
    )
    canonical = ArmResult(
        train_mpjpe_mm=canon_train_mean * mm,
        train_mpjpe_std_mm=canon_train_std * mm,
        test_mpjpe_mm=mpjpe(pred_back, gt_rel) * mm,
        test_pmpjpe_mm=p_mpjpe(pred_back, gt_rel) * mm,
        test_mpjpe_before_back_transform_mm=mpjpe(pred_canon, gt_rel) * mm,
    )
    return StudyReport(config=config, conventional=conventional, canonical=canonical)


BLOCK_CASES = {
    "ragged-blocks": dict(
        n_train=3 * 256 + 37, n_test=2 * 256 + 5, seed=4, noise_sigma=3.5, ridge_lambda=0.02, limb_scale=1.15
    ),
    "under-one-block": dict(n_train=100, n_test=1, seed=3),
    "ragged-second-pass-blocks": dict(n_train=2 * 1024 + 37, n_test=300, seed=6, noise_sigma=2.5),
}


@pytest.mark.parametrize("overrides", list(BLOCK_CASES.values()), ids=list(BLOCK_CASES))
def test_study_in_blocks_writes_the_whole_batch_report(overrides):
    config = LiftingStudyConfig(**overrides)
    assert run_study(config).to_json() == reference_run_study(config, lift._fit_arrays).to_json()


def _report_numbers(report):
    numbers = report.to_dict()
    arms = {f"{arm} {key}": value for arm in ("conventional", "canonical") for key, value in numbers[arm].items()}
    return dict(arms, ratio=numbers["mpjpe_ratio_canonical_over_conventional"])


@pytest.mark.parametrize("overrides", [*BLOCK_CASES.values(), {}], ids=[*BLOCK_CASES, "default"])
def test_study_numbers_match_the_whole_design_fit_to_rounding(overrides):
    # The fit sums its normal equations in 1,024-row blocks where the
    # reference multiplies one whole design, so the two agree to rounding,
    # not bit for bit.
    config = LiftingStudyConfig(**overrides)
    got = _report_numbers(run_study(config))
    want = _report_numbers(reference_run_study(config, reference_fit_arrays))
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert abs(got[key] - value) <= 1e-12 * abs(value), (key, got[key], value)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    blocks=st.integers(1, 5),
    short=st.integers(0, lift._TRAIN_ROWS - 100),
    n_joints=st.sampled_from([3, 17]),
    ridge_lambda=st.sampled_from([0.0, 1e-4, 0.02]),
    seed=st.integers(0, 2**32 - 1),
)
@example(blocks=1, short=lift._TRAIN_ROWS - 100, n_joints=17, ridge_lambda=0.0, seed=0)
@example(blocks=5, short=0, n_joints=17, ridge_lambda=1e-4, seed=1)
def test_blocked_fit_matches_the_whole_design_fit(blocks, short, n_joints, ridge_lambda, seed):
    # 1 to 5 Gram blocks, the last one full or ragged: a single block short
    # of 1,024 rows is a set smaller than one block. Inputs sit off zero,
    # each with its own spread, so centering and standardizing both matter.
    rng = np.random.default_rng(seed)
    n = blocks * lift._TRAIN_ROWS - short
    x = rng.uniform(-3, 3, 2 * n_joints) + rng.uniform(0.01, 1, 2 * n_joints) * rng.normal(size=(n, 2 * n_joints))
    weights = rng.normal(size=(2 * n_joints + 1, 3 * n_joints))
    y = x @ weights[:-1] + weights[-1] + 0.1 * rng.normal(size=(n, 3 * n_joints))
    want = reference_fit_arrays(x, y, ridge_lambda)
    assert np.abs(_fit_arrays(x, y, ridge_lambda) - want).max() <= 1e-12 * np.abs(want).max()


def test_study_refuses_training_poses_as_one_batch():
    # Roots 0.51-0.6 m from the camera put hundreds of joints, in poses of
    # most of the 2000-pose set's blocks, behind the camera plane.
    config = LiftingStudyConfig(
        train_root_region=Box3((-0.15, -0.15, 0.51), (0.15, 0.15, 0.6)), n_train=2000, n_test=50
    )
    with pytest.raises(BehindCameraError) as expected:
        reference_run_study(config, reference_fit_arrays)
    with pytest.raises(BehindCameraError) as got:
        run_study(config)
    assert str(got.value) == str(expected.value)
    assert got.value.indices == expected.value.indices
    assert max(got.value.indices) >= 7 * 256


@pytest.mark.parametrize("rows", [None, 8], ids=["256-pose-blocks", "8-pose-blocks"])
@pytest.mark.parametrize("seed", [37, 209])
def test_study_refuses_canonical_joints_behind_the_camera_as_one_batch(monkeypatch, seed, rows):
    # Roots 0.4 m off axis and 0.7 m deep: every joint of pose 26 is in front
    # of the camera, and one of them is behind the canonical camera's plane.
    # One depth check over the kept canonical joints finds it: the study
    # projects none of them before it.
    def projection_not_reached(points, intrinsics):
        raise AssertionError("canonical joints projected before their depth check")

    monkeypatch.setattr(lift, "batch_project_centered", projection_not_reached)
    if rows is not None:
        monkeypatch.setattr(lift, "_CANON_ROWS", rows)
    config = LiftingStudyConfig(
        train_root_region=Box3((0.4, -0.05, 0.7), (0.45, 0.05, 0.75)), n_train=40, n_test=10, seed=seed
    )
    with pytest.raises(BehindCameraError) as expected:
        reference_run_study(config, reference_fit_arrays)
    with pytest.raises(BehindCameraError) as got:
        run_study(config)
    assert str(got.value) == str(expected.value)
    assert str(got.value) == "1 canonical joint(s) at or behind the camera plane (Z <= 1e-06) (at positions [26])"
    assert got.value.indices == expected.value.indices


def test_study_refuses_canonical_joints_behind_the_camera_before_a_conventional_fit():
    # 1e308 px of noise leaves the conventional arm, fit first, without
    # finite weights; its refusal waits, so the canonical depth check still
    # refuses first, as it did when the canonical arm was fit first.
    config = LiftingStudyConfig(
        train_root_region=Box3((0.4, -0.05, 0.7), (0.45, 0.05, 0.75)), n_train=40, n_test=10, seed=37, noise_sigma=1e308
    )
    with pytest.raises(BehindCameraError) as got:
        run_study(config)
    assert str(got.value) == "1 canonical joint(s) at or behind the camera plane (Z <= 1e-06) (at positions [26])"


def test_study_holds_a_refused_conventional_fit_until_the_canonical_fit_returns(monkeypatch):
    # Roots 1e154 m off the axis overflow the conventional inputs' spread;
    # the canonical inputs sit about the image center and fit.
    outcomes = []

    def spy(x, y, ridge_lambda):
        try:
            weights = _fit_arrays(x, y, ridge_lambda)
        except ValueError as exc:
            outcomes.append(str(exc))
            raise
        outcomes.append("returned")
        return weights

    monkeypatch.setattr(lift, "_fit_arrays", spy)
    config = LiftingStudyConfig(train_root_region=Box3((1e154, 0, 3), (1.3e154, 0, 5)), n_train=2000, n_test=10, seed=1)
    with pytest.raises(ValueError, match="^weights must be finite$"):
        run_study(config)
    assert outcomes == ["weights must be finite", "returned"]


def test_study_refuses_a_fit_without_finite_weights():
    # 1e308 px of noise overflows the inputs' spread.
    with pytest.raises(ValueError, match="^weights must be finite$"):
        run_study(LiftingStudyConfig(n_train=300, n_test=50, noise_sigma=1e308))


def test_study_without_noise_or_ridge_is_singular():
    # Noiseless canonical inputs hold the root at the principal point in
    # every pose, a feature no fit without a ridge can separate from the bias.
    with pytest.raises(SingularMatrixError, match="^normal equations are singular; add ridge_lambda > 0"):
        run_study(LiftingStudyConfig(n_train=300, n_test=50, noise_sigma=0, ridge_lambda=0))


def test_study_draws_each_pose_set_with_one_generator_call(monkeypatch):
    calls = []

    def counting(config, skeleton, stream=0):
        calls.append((config.n_poses, stream))
        return generate_pose_array(config, skeleton, stream=stream)

    monkeypatch.setattr(lift, "generate_pose_array", counting)
    run_study(LiftingStudyConfig(n_train=300, n_test=40, seed=2))
    assert calls == [(300, 1), (40, 2)]


def _study_peak(**fields) -> int:
    """The traced peak of ``run_study`` on the config of ``fields``."""
    config = LiftingStudyConfig(**fields)
    tracemalloc.start()
    try:
        run_study(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_study_memory_grows_only_by_its_fit_arrays():
    # The kept poses and one arm's inputs: (3 + 2) * 17 numbers, 680 bytes
    # per h36m17 training pose.
    small, large = (_study_peak(n_train=n, n_test=500, seed=9) for n in (4096, 16384))
    assert (large - small) / (16384 - 4096) <= 720, (small, large)


def test_study_test_phase_grows_only_by_its_test_arrays():
    # Both arms are scored through one path; neither arm's test arrays may
    # outlive its scoring. 2,093 bytes grow per h36m17 test pose.
    small, large = (_study_peak(n_train=500, n_test=n, seed=9) for n in (4096, 16384))
    assert (large - small) / (16384 - 4096) <= 2200, (small, large)
