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
zero, non-finite, overflowing and tiny ones, goes to the SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import Pose3D, _rigid
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

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return self.scale * (pts @ self.rotation.T) + self.translation


def _as_frames(poses, name: str) -> np.ndarray:
    """Coerce a Pose3D, a sequence of Pose3D, or a (J,3)/(T,J,3) array to (T, J, 3)."""
    if isinstance(poses, Pose3D):
        return poses.joints[None]
    if isinstance(poses, np.ndarray):
        arr = np.asarray(poses, dtype=np.float64)
    elif isinstance(poses, (list, tuple)) and poses and isinstance(poses[0], Pose3D):
        arr = np.stack([pose.joints for pose in poses])
    else:
        arr = np.asarray(poses, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[-1] != 3:
        raise DimensionMismatchError(f"{name} must have shape (T, J, 3), got {arr.shape}")
    return arr


def _as_pair(pred, gt) -> tuple[np.ndarray, np.ndarray]:
    """``pred`` and ``gt`` as (T, J, 3) arrays of one shape."""
    p = _as_frames(pred, "pred")
    g = _as_frames(gt, "gt")
    if p.shape != g.shape:
        raise DimensionMismatchError(f"pred shape {p.shape} != gt shape {g.shape}")
    return p, g


def mpjpe(pred, gt) -> float:
    """Mean per-joint position error in meters.

    The plain mean over frames and joints of the Euclidean distance between
    corresponding joints. Inputs are expected root-relative; no re-centering
    is applied here.

    Args:
        pred, gt: Pose3D, sequence of Pose3D, or array of shape (J, 3) or
            (T, J, 3); shapes must match.
    """
    p, g = _as_pair(pred, gt)
    return float(np.mean(np.linalg.norm(p - g, axis=-1)))


# Frames ``p_mpjpe`` aligns at once; their errors fill one (T, J) array.
_ALIGN_ROWS = 256
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


def _check_alignable(pred: np.ndarray, gt: np.ndarray, blocks: list) -> None:
    """Raise unless (T, J, 3) ``pred`` and ``gt`` have J >= 3 and no frame
    whose centered joints are collinear (rank < 2), which has no unique
    alignment. Frames are checked by the ``blocks`` of rows, every pred frame
    before any gt frame; the singular values decide every frame the rank
    screen does not pass."""
    j = pred.shape[1]
    if j < 3:
        raise DimensionMismatchError(f"similarity alignment needs at least 3 joints, got {j}")
    for name, poses in (("pred", pred), ("gt", gt)):
        degenerate = []
        for rows in blocks:
            centered = poses[rows] - poses[rows].mean(axis=1, keepdims=True)
            suspect = ~_surely_full_rank(centered)
            flags = np.zeros(len(centered), dtype=bool)
            if suspect.any():
                sv = np.linalg.svd(centered[suspect], compute_uv=False)
                tol = max(j, 3) * np.finfo(np.float64).eps * sv[:, 0]
                flags[suspect] = (sv[:, 1] <= tol) | (sv[:, 0] == 0.0)
            degenerate.append(flags)
        degenerate = np.concatenate(degenerate)
        if degenerate.any():
            raise DegenerateShapeError(
                f"{name} joints are collinear in {int(degenerate.sum())} frame(s)",
                indices=np.nonzero(degenerate)[0],
            )


def _batch_similarity_align(pred: np.ndarray, gt: np.ndarray):
    """Per-frame least-squares similarity alignment of pred onto gt.

    Args:
        pred, gt: (T, J, 3), checked by ``_check_alignable``.

    Returns:
        (aligned pred (T, J, 3), scales (T,), rotations (T, 3, 3),
        translations (T, 3)).
    """
    mu_p = pred.mean(axis=1)
    mu_g = gt.mean(axis=1)
    p0 = pred - mu_p[:, None]
    g0 = gt - mu_g[:, None]

    cov = np.einsum("tji,tjk->tik", p0, g0)
    u, s, vt = np.linalg.svd(cov)
    sign = np.sign(np.linalg.det(u @ vt))
    vt_fixed = vt.copy()
    vt_fixed[:, 2, :] *= sign[:, None]
    rotations = np.matmul(vt_fixed.transpose(0, 2, 1), u.transpose(0, 2, 1))

    var_p = np.einsum("tji,tji->t", p0, p0)
    # A var_p that underflows to 0 gives an infinite scale, which callers refuse.
    with np.errstate(divide="ignore"):
        scales = (s[:, 0] + s[:, 1] + sign * s[:, 2]) / var_p
    translations = mu_g - scales[:, None] * np.einsum("tij,tj->ti", rotations, mu_p)
    aligned = scales[:, None, None] * np.einsum("tij,tkj->tki", rotations, p0) + mu_g[:, None]
    return aligned, scales, rotations, translations


def procrustes_align(pred, gt) -> tuple:
    """Best similarity alignment of one predicted pose onto ground truth.

    Minimizes the summed squared joint distance over scale, proper rotation
    (reflections excluded), and translation, in closed form via the singular
    decomposition of the cross-covariance.

    Args:
        pred, gt: single poses as Pose3D or (J, 3) arrays, J >= 3, not all
            joints collinear.

    Returns:
        (aligned pred, SimilarityTransform). The aligned pose is returned as
        a Pose3D when ``pred`` was one (same frame tag), else as an array.
    """
    p, g = _as_pair(pred, gt)
    if p.shape[0] != 1:
        raise DimensionMismatchError("procrustes_align takes single poses; use p_mpjpe for sequences")
    _check_alignable(p, g, [slice(None)])
    aligned, scales, rotations, translations = _batch_similarity_align(p, g)
    transform = SimilarityTransform(scales[0], rotations[0], translations[0])
    if isinstance(pred, Pose3D):
        return Pose3D(aligned[0], pred.frame), transform
    return aligned[0], transform


def p_mpjpe(pred, gt) -> float:
    """MPJPE after per-frame Procrustes alignment, in meters.

    Never exceeds ``mpjpe`` on the same input: the identity transform is
    always an alignment candidate. Frames are aligned ``_ALIGN_ROWS`` at a
    time, so its memory does not grow with whole-batch temporaries. A frame
    whose fitted scale is not positive and finite (a pred frame whose squared
    norm overflows or underflows, say) is refused, as ``procrustes_align``
    refuses it; one refusal names every such frame.
    """
    p, g = _as_pair(pred, gt)
    # At least one block, so an empty input ends as one empty batch does.
    blocks = [slice(lo, lo + _ALIGN_ROWS) for lo in range(0, len(p) or 1, _ALIGN_ROWS)]
    _check_alignable(p, g, blocks)
    errors = np.empty(p.shape[:2])
    unscaled = np.zeros(len(p), dtype=bool)
    for rows in blocks:
        aligned, scales = _batch_similarity_align(p[rows], g[rows])[:2]
        errors[rows] = np.linalg.norm(aligned - g[rows], axis=-1)
        unscaled[rows] = ~(np.isfinite(scales) & (scales > 0))
    if unscaled.any():
        raise GeometryError(
            f"the fitted alignment scale is not positive and finite in {int(unscaled.sum())} frame(s)",
            indices=np.nonzero(unscaled)[0],
        )
    return float(np.mean(errors))
