"""Pose-error metrics: MPJPE and Procrustes-aligned MPJPE.

Both metrics expect root-relative poses and are computed in meters; the CLI
converts to millimeters at the user boundary. ``mpjpe`` is the plain mean
Euclidean joint distance with no internal re-centering or alignment;
``p_mpjpe`` first finds, per frame, the similarity transform (scale, proper
rotation, translation) minimizing the summed squared joint distance, then
averages the remaining distances.

A frame whose centered joints are collinear has no unique alignment and is
refused. The rule is the singular values': sigma2 <= J * eps * sigma1, or
sigma1 == 0. A cheap screen runs first. For a frame's 3x3 Gram matrix of
centered joints, with eigenvalues l1 >= l2 >= l3 >= 0, trace t and e2 the sum
of its principal 2x2 minors, e2 <= 3 * l1 * l2 and l1 <= t. So a frame with
e2 > 1e-6 * t**2 has sigma2 / sigma1 >= 5.7e-4, eleven orders of magnitude
above the tolerance, and passes without an SVD. Every other frame, including
zero, overflowing and tiny ones, goes to the SVD, except one whose centered
joints overflow: it is not collinear, and its alignment scale is refused. A
frame with a joint that is not finite is refused before any of this. The
screen, the SVD and the alignment read one centered copy of each block of
frames.

Joint distances, joint means and the alignment's rotations run on the x/y/z
planes, summing in the order of the ``linalg.norm``, ``mean`` and ``einsum``
calls they replaced, whose bits they keep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import _rigid, _xyz_norms
from .canonical import batch_rotate
from .errors import DegenerateShapeError, DimensionMismatchError, GeometryError


@dataclass(frozen=True, eq=False)
class SimilarityTransform:
    """A similarity map p -> scale * rotation @ p + translation."""

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        scale = float(self.scale)
        if not np.isfinite(scale) or scale <= 0:
            raise ValueError(f"scale must be positive and finite, got {scale!r}")
        rot, trans = _rigid(self.rotation, self.translation, "similarity rotation", "translation")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", trans)


def _as_frames(poses, name: str) -> np.ndarray:
    """Coerce a (J, 3) or (T, J, 3) array to (T, J, 3)."""
    arr = np.asarray(poses, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[-1] != 3:
        raise DimensionMismatchError(f"{name} must have shape (T, J, 3), got {arr.shape}")
    return arr


def _as_pair(pred, gt) -> tuple[np.ndarray, np.ndarray]:
    """``pred`` and ``gt`` as (T, J, 3) arrays of one shape, not empty."""
    p = _as_frames(pred, "pred")
    g = _as_frames(gt, "gt")
    if p.shape != g.shape:
        raise DimensionMismatchError(f"pred shape {p.shape} != gt shape {g.shape}")
    if p.size == 0:
        raise DimensionMismatchError(f"pred and gt hold no joints (shape {p.shape})")
    return p, g


def _refuse(flags: np.ndarray, what: str, error=GeometryError) -> None:
    """Raise ``error`` ("``what`` in N frame(s)") naming every frame ``flags`` marks, if any."""
    if flags.any():
        raise error(f"{what} in {int(flags.sum())} frame(s)", indices=np.nonzero(flags)[0])


# Frames ``mpjpe`` scores, or ``p_mpjpe`` aligns, at once, into one (T, J) array.
_ALIGN_ROWS = 256


def mpjpe(pred, gt) -> float:
    """Mean per-joint position error in meters.

    The plain mean over frames and joints of the Euclidean distance between
    corresponding joints. Inputs are expected root-relative; no re-centering
    is applied here.

    Frames are scored in blocks, so no (T, J, 3) temporary is made. A frame
    with a joint distance that is not finite (one whose square overflows,
    say) is refused; one refusal names every such frame.

    Args:
        pred, gt: arrays of shape (J, 3) or (T, J, 3); shapes must match,
            and an empty pair is refused.
    """
    p, g = _as_pair(pred, gt)
    errors = np.empty(p.shape[:2])
    with np.errstate(over="ignore", invalid="ignore"):  # a distance that overflows is inf, refused below
        for rows in (slice(lo, lo + _ALIGN_ROWS) for lo in range(0, len(p), _ALIGN_ROWS)):
            errors[rows] = _xyz_norms(p[rows] - g[rows])
    _refuse(~np.isfinite(errors).all(axis=-1), "the joint distance is not finite")
    return float(np.mean(errors))


# The rank screen in front of the collinearity SVD (module docstring).
_RANK_SCREEN = 1e-6
# Below this trace the screen's products may underflow, so its bound is not
# proven there; such frames go to the SVD.
_SCREEN_MIN_TRACE = 1e-150


def _surely_full_rank(centered: np.ndarray) -> np.ndarray:
    """Mask of the (m, J, 3) centered frames the rank screen passes: those
    whose 3x3 Gram matrix has e2 > _RANK_SCREEN * t**2, for trace t and e2
    the sum of its principal 2x2 minors. Zero, tiny, non-finite and
    overflowing frames fail it."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = centered.transpose(0, 2, 1) @ centered
        xx, yy, zz = gram[:, 0, 0], gram[:, 1, 1], gram[:, 2, 2]
        xy, xz, yz = gram[:, 0, 1], gram[:, 0, 2], gram[:, 1, 2]
        t = xx + yy + zz
        e2 = (xx * yy - xy * xy) + (xx * zz - xz * xz) + (yy * zz - yz * yz)
        return (e2 > _RANK_SCREEN * t * t) & (t > _SCREEN_MIN_TRACE)


def _joint_means(frames: np.ndarray) -> np.ndarray:
    """``frames.mean(axis=1)`` of (m, J, 3) ``frames``, its bits and warnings:
    the joints summed in turn from joint 0, then divided by J."""
    total = frames[:, 0].copy()
    for joint in range(1, frames.shape[1]):
        total += frames[:, joint]
    return total / frames.shape[1]


def _aligned_blocks(pred: np.ndarray, gt: np.ndarray, blocks: list):
    """Per-frame least-squares similarity alignment of (T, J, 3) ``pred``
    onto ``gt``, by the ``blocks`` of rows.

    Yields (rows, aligned pred, scales, rotations (m, 3, 3), translations
    (m, 3)) for each block, while no frame seen has been collinear. Raises
    unless J >= 3; then, before any alignment, one refusal names every frame
    with a joint that is not finite in either array. A frame whose centered
    joints are collinear (rank < 2) has no unique alignment: once one is
    seen, no later block is aligned, and after the last block one refusal
    names every collinear pred frame, or else every collinear gt frame. The
    singular values decide every frame the rank screen does not pass whose
    centered joints are finite. Each block is centered once, for the screen,
    the SVD and the alignment. The alignment itself neither raises nor warns,
    so no block can pre-empt the refusal of a later one's collinear frame.
    """
    j = pred.shape[1]
    if j < 3:
        raise DimensionMismatchError(f"similarity alignment needs at least 3 joints, got {j}")
    nonfinite = np.concatenate(
        [~(np.isfinite(pred[rows]).all(axis=(1, 2)) & np.isfinite(gt[rows]).all(axis=(1, 2))) for rows in blocks]
    )
    _refuse(nonfinite, "joints are not finite")
    collinear = np.zeros((2, len(pred)), dtype=bool)
    seen = False
    for rows in blocks:
        # Means of finite joints may overflow, and so may their centering. A
        # frame whose centered joints are not finite has no singular values
        # to test: it is not collinear, and its alignment scale is refused.
        with np.errstate(over="ignore", invalid="ignore"):
            mu_p = _joint_means(pred[rows])
            mu_g = _joint_means(gt[rows])
            p0 = pred[rows] - mu_p[:, None]
            g0 = gt[rows] - mu_g[:, None]
        for flags, centered in zip(collinear, (p0, g0)):
            suspect = ~_surely_full_rank(centered) & np.isfinite(centered).all(axis=(1, 2))
            if suspect.any():
                sv = np.linalg.svd(centered[suspect], compute_uv=False)
                flags[rows][suspect] = (sv[:, 1] <= j * np.finfo(np.float64).eps * sv[:, 0]) | (sv[:, 0] == 0.0)
        seen = seen or collinear[:, rows].any()
        if seen:
            continue

        # A cross-covariance that overflows has no SVD, so its frame's scale
        # is set to inf; a var_p that overflows or underflows gives a scale
        # of 0 or inf. Callers refuse each; what follows from it is not finite.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            cov = np.einsum("tji,tjk->tik", p0, g0)
            unbounded = ~np.isfinite(cov).all(axis=(1, 2))
            cov[unbounded] = 0.0
            u, s, vt = np.linalg.svd(cov)
            sign = np.sign(np.linalg.det(u @ vt))
            vt[:, 2, :] *= sign[:, None]
            rotations = np.matmul(vt.transpose(0, 2, 1), u.transpose(0, 2, 1))
            scales = (s[:, 0] + s[:, 1] + sign * s[:, 2]) / np.einsum("tji,tji->t", p0, p0)
            scales[unbounded] = np.inf
            translations = mu_g - scales[:, None] * np.einsum("tij,tj->ti", rotations, mu_p)
            aligned = scales[:, None, None] * batch_rotate(rotations, p0) + mu_g[:, None]
        yield rows, aligned, scales, rotations, translations
    for name, flags in zip(("pred", "gt"), collinear):
        _refuse(flags, f"{name} joints are collinear", DegenerateShapeError)


def procrustes_align(pred, gt) -> tuple:
    """Best similarity alignment of one predicted pose onto ground truth.

    Minimizes the summed squared joint distance over scale, proper rotation
    (reflections excluded), and translation, in closed form via the singular
    decomposition of the cross-covariance.

    Args:
        pred, gt: single poses as (J, 3) arrays, J >= 3, not all joints
            collinear.

    Returns:
        (aligned pred as a (J, 3) array, SimilarityTransform).
    """
    p, g = _as_pair(pred, gt)
    if p.shape[0] != 1:
        raise DimensionMismatchError("procrustes_align takes single poses; use p_mpjpe for sequences")
    ((_, aligned, scales, rotations, translations),) = _aligned_blocks(p, g, [slice(None)])
    return aligned[0], SimilarityTransform(scales[0], rotations[0], translations[0])


def p_mpjpe(pred, gt) -> float:
    """MPJPE after per-frame Procrustes alignment, in meters.

    Never exceeds ``mpjpe`` on the same input: the identity transform is
    always an alignment candidate. Frames are aligned ``_ALIGN_ROWS`` at a
    time, each block visited once, so its memory does not grow with
    whole-batch temporaries. An empty pair is refused, as ``mpjpe`` refuses
    it. A frame with a joint that is not finite is refused before any
    alignment, then a collinear frame after the last block, as
    ``procrustes_align`` refuses them. Then a frame whose fitted scale is not positive and finite (a pred frame whose squared norm
    overflows or underflows, or one whose cross-covariance with gt
    overflows, say), and last, as ``mpjpe`` refuses it, a frame whose
    aligned joint distance is not finite. Each refusal names every such
    frame.
    """
    p, g = _as_pair(pred, gt)
    blocks = [slice(lo, lo + _ALIGN_ROWS) for lo in range(0, len(p), _ALIGN_ROWS)]
    errors = np.empty(p.shape[:2])
    unscaled = np.zeros(len(p), dtype=bool)
    for rows, aligned, scales, _, _ in _aligned_blocks(p, g, blocks):
        with np.errstate(over="ignore", invalid="ignore"):  # a distance that overflows is inf, refused below
            errors[rows] = _xyz_norms(aligned - g[rows])
        unscaled[rows] = ~(np.isfinite(scales) & (scales > 0))
    _refuse(unscaled, "the fitted alignment scale is not positive and finite")
    _refuse(~np.isfinite(errors).all(axis=-1), "the aligned joint distance is not finite")
    return float(np.mean(errors))
