"""Linear 2D-to-3D lifting and the canonical-vs-conventional study.

The lifter is deliberately the weakest model that can work: one affine map
from flattened screen-normalized 2D joints to flattened root-relative 3D
joints, fit by ridge regression. Its point is not accuracy but sensitivity —
an affine map cannot absorb the placement-dependent distortion left in
conventional 2D inputs, so the gap between training on conventional and on
canonical inputs isolates what canonicalization contributes.

The study trains both variants on identical synthetic poses and identical
noise draws, then evaluates on poses whose roots sit in a region the
training set never covered. The canonical arm is evaluated end to end the
way it would be deployed: canonicalize the observed 2D, predict, rotate the
prediction back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import CameraIntrinsics, _check_depths, batch_project, batch_screen_normalize
from .canonical import _alignable_norms, batch_back_transform, batch_canonicalize_2d, batch_canonicalize_3d
from .canonical import batch_project_centered
from .errors import SingularMatrixError
from .jsonfmt import dumps, json_float, json_int, plain
from .metrics import mpjpe, p_mpjpe
from .skeleton import get_skeleton
from .synth import Box3, SynthConfig, _check_type, _empty, _too_large, generate_pose_array, pose_rng

# Pose streams and noise streams for the study, all derived from one seed.
_STREAM_TRAIN = 1
_STREAM_TEST = 2
_NOISE_TRAIN_INDEX = 3 << 48
_NOISE_TEST_INDEX = 4 << 48

# Training poses canonicalized, or projected with their noise, at once; and
# rows of the fit's normal equations summed, or training predictions scored,
# at once. _TRAIN_ROWS stays 1,024: those sums and predictions are matmuls
# whose bits depend on the rows they are given, so the study's bytes are set
# by this fixed block size.
_CANON_ROWS = 256
_TRAIN_ROWS = 1024


def _fit_arrays(x: np.ndarray, y: np.ndarray, ridge_lambda: float) -> np.ndarray:
    """Ridge-fit (2J + 1, 3J) weights, the last row the bias, from (n, 2J)
    screen-normalized 2D inputs and (n, 3J) root-relative 3D targets in the
    arm's frame (camera or canonical camera), read only as row slices, so a
    ``_RootRelative`` serves; ValueError unless all finite, raised with the
    same text for inputs that are not finite or whose spread overflows,
    since no finite weights fit them.

    The normal equations of the mean-centered inputs and a column of ones
    are summed ``_TRAIN_ROWS`` rows at a time in one reused block, so no
    (n, 2J + 1) design is made; each feature's std comes from their
    diagonal. They are scaled to standardized inputs for conditioning and
    the solution is folded back to raw coordinates. The penalty applies to
    every weight, bias included, so lambda -> inf drives the whole map to
    zero rather than to a constant predictor.
    """
    n, width = x.shape
    block = np.ones((min(n, _TRAIN_ROWS), width + 1))
    gram = np.zeros((width + 1, width + 1))
    rhs = np.zeros((width + 1, y.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        for lo in range(0, n, _TRAIN_ROWS):
            rows = block[: min(n - lo, _TRAIN_ROWS)]
            np.subtract(x[lo : lo + len(rows)], mean, out=rows[:, :-1])
            gram += rows.T @ rows
            rhs += rows.T @ y[lo : lo + len(rows)]
        std = np.sqrt(gram.diagonal()[:-1] / n)
    # An inf std would zero its feature and fit a constant predictor.
    if not np.isfinite(std).all():
        raise ValueError("weights must be finite")
    std = np.where(std > 0, std, 1.0)
    scale = np.append(1.0 / std, 1.0)
    gram *= scale[:, None] * scale
    gram += ridge_lambda * np.eye(width + 1)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            "normal equations are singular; add ridge_lambda > 0 or provide richer training pairs"
        ) from exc
    weights = np.empty((width + 1, y.shape[1]))
    # Targets whose sums overflow give weights that are not finite, refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        rhs *= scale[:, None]
        solution = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
        weights[:-1] = solution[:-1] / std[:, None]
        weights[-1] = solution[-1] - (mean / std) @ solution[:-1]
    if not np.isfinite(weights).all():
        raise ValueError("weights must be finite")
    return weights


def _predict_arrays(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(n, 2J) flattened screen-normalized 2D inputs -> (n, J, 3) root-relative
    3D predictions in the frame ``weights`` were fit in."""
    flat = x @ weights[:-1]
    flat += weights[-1]
    return flat.reshape(x.shape[0], weights.shape[1] // 3, 3)


# ---------------------------------------------------------------------------
# Study.
# ---------------------------------------------------------------------------

DEFAULT_TRAIN_REGION = Box3((-0.15, -0.15, 3.0), (0.15, 0.15, 5.0))
# Test roots sit well off the optical axis, outside anything the training
# distribution covered (>= 0.9 m planar offset at the nearest corner, up to
# ~35 degrees off-axis at the far corner).
DEFAULT_TEST_REGION = Box3((0.8, 0.5, 3.0), (1.8, 1.1, 5.0))
DEFAULT_STUDY_CAMERA = CameraIntrinsics(
    fx=1100.0, fy=1100.0, cx=510.0, cy=505.0, width=1000.0, height=1000.0
)


@dataclass(frozen=True, eq=False)
class LiftingStudyConfig:
    """Study parameters; defaults reproduce the desk-scale comparison.

    The principal point is deliberately off-center so nothing silently
    relies on cx = W/2. Train and test regions are not required to be
    disjoint — the sanity control evaluates on the training region. Counts
    and the seed are read through ``json_int``, other numbers ``json_float``;
    the regions, camera and skeleton name must be a ``Box3``, a
    ``CameraIntrinsics`` and a ``str``. Each pose draw is checked as the
    SynthConfig that generates it.
    """

    train_root_region: Box3 = DEFAULT_TRAIN_REGION
    test_root_region: Box3 = DEFAULT_TEST_REGION
    noise_sigma: float = 2.0
    n_train: int = 20000
    n_test: int = 5000
    seed: int = 0
    ridge_lambda: float = 1e-4
    camera: CameraIntrinsics = DEFAULT_STUDY_CAMERA
    limb_scale: float = 1.0
    skeleton: str = "h36m17"

    def __post_init__(self):
        for name, kind in (
            ("train_root_region", Box3),
            ("test_root_region", Box3),
            ("camera", CameraIntrinsics),
            ("skeleton", str),
        ):
            _check_type(getattr(self, name), kind, name)
        for name in ("n_train", "n_test", "seed"):
            object.__setattr__(self, name, json_int(getattr(self, name), name))
        object.__setattr__(self, "limb_scale", json_float(self.limb_scale, "limb_scale"))
        for name in ("noise_sigma", "ridge_lambda"):
            value = json_float(getattr(self, name), name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be >= 0, got {value!r}")
            object.__setattr__(self, name, value)
        for draw in ("train", "test"):
            self._draw(draw)
        get_skeleton(self.skeleton)

    def _draw(self, draw: str) -> SynthConfig:
        """The generator config of the "train" or "test" pose draw; a
        ValueError it raises names the draw."""
        region, n_poses = (self.train_root_region, self.n_train) if draw == "train" else (self.test_root_region, self.n_test)
        try:
            return SynthConfig(seed=self.seed, n_poses=n_poses, limb_scale=self.limb_scale, root_region=region)
        except ValueError as exc:
            raise ValueError(f"{draw}: {exc}") from exc

    def to_dict(self) -> dict:
        """The config in plain JSON types, keyed as ``study --config`` reads it."""
        return plain(self)


@dataclass(frozen=True, eq=False)
class ArmResult:
    """Metrics for one mapping variant, millimeters throughout."""

    train_mpjpe_mm: float
    train_mpjpe_std_mm: float
    test_mpjpe_mm: float
    test_pmpjpe_mm: float
    test_mpjpe_before_back_transform_mm: float | None = None


@dataclass(frozen=True, eq=False)
class StudyReport:
    config: LiftingStudyConfig
    conventional: ArmResult
    canonical: ArmResult

    @property
    def mpjpe_ratio(self) -> float:
        """Canonical over conventional test MPJPE; < 1 favors canonical."""
        return self.canonical.test_mpjpe_mm / self.conventional.test_mpjpe_mm

    def to_dict(self) -> dict:
        return dict(plain(self), mpjpe_ratio_canonical_over_conventional=self.mpjpe_ratio)

    def to_json(self) -> str:
        return dumps(self.to_dict()) + "\n"


class _RootRelative:
    """(n, J, 3) joints read as (n, 3J) targets relative to their root, a
    block of rows at a time: ``targets[lo:hi]`` makes just those rows."""

    def __init__(self, joints: np.ndarray, root: int):
        self.joints = joints
        self.root = root
        self.shape = (joints.shape[0], 3 * joints.shape[1])

    def __getitem__(self, rows: slice) -> np.ndarray:
        block = self.joints[rows]
        return (block - block[:, self.root : self.root + 1]).reshape(len(block), -1)


def run_study(config: LiftingStudyConfig) -> StudyReport:
    """Run the full comparison; byte-identical reports for identical configs.

    Both arms share the same pose draws and the same 2D noise draws, so the
    only difference between them is the input representation. The canonical
    arm's test path mirrors deployment: canonicalize observed pixels (no 3D
    available), lift, rotate back into the camera frame, then score against
    the root-relative ground truth.

    The arms are trained one after the other from one buffer of training
    poses, drawn and kept with ``generate_pose_array``. Each arm's inputs are
    its projected joints plus the training noise stream read from its start, a
    block of poses at a time. The conventional arm runs first, on the
    camera-frame poses, its targets made root-relative one fit block at a
    time; its inputs are then freed and the poses are canonicalized in place,
    a block at a time, for the canonical arm, whose targets are made
    root-relative in place. Each set of joints gets one depth check, and the
    roots one alignability check: a refusal names every pose at fault as one
    batch. Refusals come in the order camera depth, root alignability,
    canonical depth, canonical fit, conventional fit, so a conventional fit's
    refusal is held until the canonical arm is fit. What grows with
    ``n_train`` is at most the kept poses and one arm's inputs: 5J numbers per
    pose, since the fit sums its normal equations in blocks.
    """
    skeleton = get_skeleton(config.skeleton)
    intr = config.camera
    root = skeleton.root_index
    n_joints = skeleton.n_joints
    n_train = config.n_train
    lam = config.ridge_lambda

    def flatten2(pixels: np.ndarray) -> np.ndarray:
        return batch_screen_normalize(pixels, intr).reshape(pixels.shape[0], -1)

    def fit_and_score(x: np.ndarray, y: np.ndarray | _RootRelative) -> tuple[np.ndarray, float, float]:
        """The weights fit to (x, y) and their mean and spread of training error."""
        weights = _fit_arrays(x, y, lam)
        errors = np.empty(len(x))
        for lo in range(0, len(x), _TRAIN_ROWS):
            rows = slice(lo, lo + _TRAIN_ROWS)
            gaps = _predict_arrays(weights, x[rows]) - y[rows].reshape(-1, n_joints, 3)
            errors[rows] = np.linalg.norm(gaps, axis=-1).mean(axis=-1)
        return weights, float(errors.mean()), float(errors.std())

    def inputs(joints: np.ndarray, project) -> np.ndarray:
        """The (n_train, 2J) noisy screen-normalized inputs of the ``project``ed
        ``joints``, with the training noise stream read from its start."""
        x = _empty((n_train, 2 * n_joints), "n_train")
        noise_rng = pose_rng(config.seed, _NOISE_TRAIN_INDEX)
        for lo in range(0, n_train, _CANON_ROWS):
            block = joints[lo : lo + _CANON_ROWS]
            # Noisy inputs that overflow are inf, and the fit refuses them.
            with np.errstate(over="ignore"):
                noise = config.noise_sigma * noise_rng.standard_normal((len(block), n_joints, 2))
                x[lo : lo + len(block)] = flatten2(project(block, intr) + noise)
        return x

    try:
        poses = generate_pose_array(config._draw("train"), skeleton, stream=_STREAM_TRAIN)
    except MemoryError:
        raise _too_large("n_train", n_train) from None
    _check_depths(poses[..., 2], "point(s)")

    # The conventional arm runs first. A refusal of its fit is held, so the
    # canonical depth check and the canonical fit still refuse before it.
    x = inputs(poses, batch_project)
    try:
        conventional_fit = fit_and_score(x, _RootRelative(poses, root))
    except ValueError as exc:
        conventional_fit = exc
    del x

    # The same buffer, canonicalized in place, trains the canonical arm. Its
    # targets are made root-relative in place, as nothing reads the poses
    # after; the canonical root is exactly (0, 0, depth), so only the depths
    # change. The roots are checked as one batch first, so a refusal names
    # poses by their place in the training set, not in a block.
    _alignable_norms(poses[:, root])
    for lo in range(0, n_train, _CANON_ROWS):
        poses[lo : lo + _CANON_ROWS] = batch_canonicalize_3d(poses[lo : lo + _CANON_ROWS], root)[0]
    _check_depths(poses[..., 2], "canonical joint(s)")
    x = inputs(poses, batch_project_centered)
    poses -= poses[:, root : root + 1].copy()
    weights_canon, canon_train_mean, canon_train_std = fit_and_score(x, poses.reshape(n_train, -1))
    del x, poses
    if isinstance(conventional_fit, ValueError):
        raise conventional_fit
    weights_conv, conv_train_mean, conv_train_std = conventional_fit

    # Each test array is freed once it is scored. The detector sees the same
    # noisy pixels no matter which lifter runs behind it.
    try:
        test = generate_pose_array(config._draw("test"), skeleton, stream=_STREAM_TEST)
    except MemoryError:
        raise _too_large("n_test", config.n_test) from None
    observed = batch_project(test, intr)
    observed += config.noise_sigma * pose_rng(config.seed, _NOISE_TEST_INDEX).standard_normal(
        (config.n_test, n_joints, 2)
    )
    gt_rel = test - test[:, root : root + 1]
    del test

    mm = 1000.0
    pred_conv = _predict_arrays(weights_conv, flatten2(observed))
    conventional = ArmResult(
        train_mpjpe_mm=conv_train_mean * mm,
        train_mpjpe_std_mm=conv_train_std * mm,
        test_mpjpe_mm=mpjpe(pred_conv, gt_rel) * mm,
        test_pmpjpe_mm=p_mpjpe(pred_conv, gt_rel) * mm,
    )
    del pred_conv

    canon_pix, rotations, _ = batch_canonicalize_2d(observed, intr, root)
    del observed
    pred_canon = _predict_arrays(weights_canon, flatten2(canon_pix))
    del canon_pix
    before_back_transform = mpjpe(pred_canon, gt_rel) * mm
    pred_back = batch_back_transform(pred_canon, rotations)
    del pred_canon, rotations
    canonical = ArmResult(
        train_mpjpe_mm=canon_train_mean * mm,
        train_mpjpe_std_mm=canon_train_std * mm,
        test_mpjpe_mm=mpjpe(pred_back, gt_rel) * mm,
        test_pmpjpe_mm=p_mpjpe(pred_back, gt_rel) * mm,
        test_mpjpe_before_back_transform_mm=before_back_transform,
    )
    return StudyReport(config=config, conventional=conventional, canonical=canonical)
