"""Canonicalizing rotation and the two canonicalization paths.

A pose is canonicalized by rotating the camera so it looks straight at the
subject's root joint: a single rotation maps the root's viewing ray onto the
principal axis (0, 0, 1). Applying that rotation to a camera-frame pose gives
the canonical 3D pose, whose root sits at (0, 0, ||root||) — depth is kept,
only direction is removed.

The same rotation acts on 2D joints through the image-plane homography
K R K^-1 (each pixel is lifted to the depth-1 plane, rotated, and reprojected),
so poses can be canonicalized from 2D observations alone, without depth. Both
paths produce the same canonical 2D pose up to floating-point noise; that
equivalence is the central contract of this module and is what the test suite
leans on hardest. Both reproject through the one pinhole projection
(``camera._pinhole``), so both refuse a joint at or behind the canonical
camera plane (Z <= EPS_DEPTH) with the same BehindCameraError text.

Canonical 2D poses are centered: the root is placed at the image center
(W/2, H/2) rather than at the principal point, so cameras with different
principal-point offsets produce identically-distributed canonical data. The
2D path applies a final translation to satisfy the same convention.
"""

from __future__ import annotations

import numpy as np

from .camera import (
    CameraIntrinsics,
    _check_depths,
    _improper_rotations,
    _pinhole,
    _rigid,
    _vector_norms,
    batch_to_normalized_plane,
)
from .errors import AntiparallelError, DegenerateVectorError

# Direction vectors shorter than this (meters) cannot be aligned.
EPS_VEC = 1e-9
# Alignments with cos(theta) < -1 + EPS_ANTIPARALLEL are rejected: the
# rotation axis is not unique when source and target point opposite ways.
EPS_ANTIPARALLEL = 1e-8

PRINCIPAL_AXIS = np.array([0.0, 0.0, 1.0])
PRINCIPAL_AXIS.setflags(write=False)


def _check_rotations(matrices: np.ndarray, sources: np.ndarray):
    """The canon-block checks, run where canon blocks are read (``_loaded``),
    once over (N, 3, 3) matrices and their (N, 3) sources: each matrix a
    finite proper rotation (``_rigid``), each source finite, norm > EPS_VEC.

    Returns None when every frame passes, else (position, error) for the
    first failing frame, with the error ``_rigid`` or the norm test gives
    for that frame alone.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # an overflowing norm is inf and passes
        norms = _vector_norms(sources)
    bad = _improper_rotations(matrices) | ~np.isfinite(sources).all(axis=-1) | ~(norms > EPS_VEC)
    for position in np.flatnonzero(bad):
        try:
            _rigid(matrices[position], sources[position], "canonical rotation", "source_vector")
        except ValueError as exc:
            return int(position), exc
        if norms[position] <= EPS_VEC:
            return int(position), DegenerateVectorError(f"source_vector norm {norms[position]:.3e} <= {EPS_VEC}")
    return None


def _root_depth(value) -> float:
    """``value`` as a root depth: a positive, finite float, else ValueError."""
    depth = float(value)
    if not np.isfinite(depth) or depth <= 0:
        raise ValueError(f"root_depth must be positive and finite, got {depth!r}")
    return depth


# ---------------------------------------------------------------------------
# Batch kernels.
# ---------------------------------------------------------------------------


def batch_rodrigues_align(vectors: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Rotation matrices aligning each of (N, 3) ``vectors`` with ``target``.

    ``target`` must be a unit 3-vector. Uses the axis-angle form
    R = I + sin(theta) S + (1 - cos(theta)) S^2 with S the skew matrix of the
    unit axis (vectors x target normalized), sin(theta) the cross-product
    norm, and cos(theta) the dot product. Parallel inputs yield the identity.

    Raises:
        DegenerateVectorError: some vector has norm <= EPS_VEC, or a norm
            that is not finite (one whose squares overflow, say).
        AntiparallelError: some vector points opposite the target
            (cos(theta) < -1 + EPS_ANTIPARALLEL).
    """
    vecs = np.asarray(vectors, dtype=np.float64)
    squeeze = vecs.ndim == 1
    vecs = np.atleast_2d(vecs)
    tgt = np.asarray(target, dtype=np.float64)

    with np.errstate(over="ignore", invalid="ignore"):  # a norm that overflows is inf, refused below
        norms = np.linalg.norm(vecs, axis=-1)
    short = norms <= EPS_VEC
    if short.any():
        raise DegenerateVectorError(
            f"{int(short.sum())} vector(s) too short to align (norm <= {EPS_VEC})",
            indices=np.nonzero(short)[0],
        )
    unbounded = ~np.isfinite(norms)
    if unbounded.any():
        raise DegenerateVectorError(
            f"{int(unbounded.sum())} vector(s) with a norm that is not finite cannot be aligned",
            indices=np.nonzero(unbounded)[0],
        )
    unit = vecs / norms[:, None]

    cos_theta = unit @ tgt
    opposite = cos_theta < -1.0 + EPS_ANTIPARALLEL
    if opposite.any():
        raise AntiparallelError(
            "alignment is singular for vector(s) antiparallel to the target axis",
            indices=np.nonzero(opposite)[0],
        )

    cross = np.cross(unit, tgt)
    sin_theta = np.linalg.norm(cross, axis=-1)
    # Parallel vectors have sin(theta) = 0; the axis is arbitrary there and
    # multiplies out to the identity, so any placeholder direction works.
    safe = np.where(sin_theta > 0.0, sin_theta, 1.0)
    axis = cross / safe[:, None]

    n = vecs.shape[0]
    skew = np.zeros((n, 3, 3), dtype=np.float64)
    skew[:, 0, 1] = -axis[:, 2]
    skew[:, 0, 2] = axis[:, 1]
    skew[:, 1, 0] = axis[:, 2]
    skew[:, 1, 2] = -axis[:, 0]
    skew[:, 2, 0] = -axis[:, 1]
    skew[:, 2, 1] = axis[:, 0]

    rot = np.broadcast_to(np.eye(3), (n, 3, 3)).copy()
    rot += sin_theta[:, None, None] * skew
    rot += (1.0 - cos_theta)[:, None, None] * (skew @ skew)
    return rot[0] if squeeze else rot


def batch_rotate(rotations: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Apply per-frame rotations (N, 3, 3) to joints (N, J, 3)."""
    return np.einsum("nij,nkj->nki", rotations, points)


def batch_canonicalize_3d(points: np.ndarray, root_index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonicalize (N, J, 3) camera-frame joints.

    Returns (canonical joints (N, J, 3), rotations (N, 3, 3), root depths
    (N,)). The canonical root is written as exactly (0, 0, depth): the
    rotation maps it there up to rounding, and downstream contracts (the
    centered projection landing on the image center, screen-normalized roots
    at the origin) rely on the exact value.
    """
    pts = np.asarray(points, dtype=np.float64)
    roots = pts[:, root_index]
    _check_depths(roots[:, 2], "root joint(s)")
    rotations = batch_rodrigues_align(roots, PRINCIPAL_AXIS)
    canonical = batch_rotate(rotations, pts)
    depths = np.linalg.norm(roots, axis=-1)
    canonical[:, root_index, 0] = 0.0
    canonical[:, root_index, 1] = 0.0
    canonical[:, root_index, 2] = depths
    return canonical, rotations, depths


def batch_project_centered(points: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Project canonical joints with the principal point replaced by the
    image center: (fx X / Z + W/2, fy Y / Z + H/2).

    Raises BehindCameraError when any Z <= EPS_DEPTH; the error indexes the
    leading axis of ``points``.
    """
    return _pinhole(points, intrinsics, intrinsics.width / 2.0, intrinsics.height / 2.0, "canonical joint(s)")


def batch_canonicalize_2d(
    pixels: np.ndarray, intrinsics: CameraIntrinsics, root_index: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonicalize (N, J, 2) image-space joints without depth.

    Each joint is lifted to the depth-1 plane, rotated by the alignment of
    the root's homogeneous vector (x_root, y_root, 1) with the principal
    axis, reprojected by the pinhole projection the 3D path uses, and
    finally translated so the root lands at exactly (W/2, H/2).

    Returns (canonical pixels (N, J, 2), rotations (N, 3, 3), the homogeneous
    pelvis vectors (N, 3) the rotations were built from).

    Raises BehindCameraError, with the 3D path's text, when a rotated joint
    sits at or behind the canonical camera plane (Z <= EPS_DEPTH), then
    DegenerateVectorError when a frame's canonical pixels are not finite (a
    joint whose lift overflows, say); each error indexes the leading axis of
    ``pixels``.
    """
    pix = np.asarray(pixels, dtype=np.float64)
    n, j = pix.shape[0], pix.shape[1]
    plane = np.empty((n, j, 3), dtype=np.float64)
    with np.errstate(over="ignore"):  # a lift that overflows is inf; the rotation refuses such a root
        plane[..., :2] = batch_to_normalized_plane(pix, intrinsics)
    plane[..., 2] = 1.0

    pelvis = plane[:, root_index].copy()
    rotations = batch_rodrigues_align(pelvis, PRINCIPAL_AXIS)
    rotated = batch_rotate(rotations, plane)

    # A joint whose lift overflows reprojects to inf or NaN, refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        reprojected = _pinhole(rotated, intrinsics, intrinsics.cx, intrinsics.cy, "canonical joint(s)")
    unbounded = ~np.isfinite(reprojected).all(axis=(1, 2))
    if unbounded.any():
        raise DegenerateVectorError(
            f"canonical joints are not finite in {int(unbounded.sum())} frame(s)", indices=np.nonzero(unbounded)[0]
        )

    center = np.array([intrinsics.width / 2.0, intrinsics.height / 2.0])
    shift = center - reprojected[:, root_index]
    out = reprojected + shift[:, None, :]
    # The translation puts the root at the center up to one rounding step;
    # write the exact value the contract promises.
    out[:, root_index] = center
    return out, rotations, pelvis


def batch_back_transform(predictions: np.ndarray, rotations: np.ndarray) -> np.ndarray:
    """Invert canonicalization for root-relative predictions (N, J, 3):
    rotate each back to the camera frame by R^T.

    No root depth is needed: rotating the pose about its root at
    (0, 0, d) and re-centering on the rotated root gives
    R^T (p + d z) - R^T (d z) = R^T p.
    """
    rots = np.asarray(rotations, dtype=np.float64)
    return batch_rotate(rots.transpose(0, 2, 1), np.asarray(predictions, dtype=np.float64))


def residual_offset(root, intrinsics: CameraIntrinsics) -> np.ndarray:
    """The pixel offset a root position adds to every projected joint.

    For a root-relative pose placed at (X, Y, Z), each joint's projection
    equals the projection of the same pose placed on-axis at that joint's
    depth plus (fx X / Z, fy Y / Z) evaluated at the joint's depth. This is
    the offset term the conventional 2D-3D mapping has to learn and the
    canonical mapping removes.

    Args:
        root: camera-frame 3-vector with Z > EPS_DEPTH.
        intrinsics: pinhole parameters.

    Returns:
        The 2-vector (fx X / Z, fy Y / Z).
    """
    return _pinhole(np.asarray(root, dtype=np.float64).reshape(3), intrinsics, 0.0, 0.0, "root")
