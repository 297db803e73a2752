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
leans on hardest.

Canonical 2D poses are centered: the root is placed at the image center
(W/2, H/2) rather than at the principal point, so cameras with different
principal-point offsets produce identically-distributed canonical data. The
2D path applies a final translation to satisfy the same convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import (
    EPS_DEPTH,
    CameraIntrinsics,
    Frame,
    Pose2D,
    Pose3D,
    Space,
    _check_depths,
    _improper_rotations,
    _pinhole,
    _require_frame,
    _require_space,
    _rigid,
    _vector_norms,
    batch_to_normalized_plane,
)
from .errors import (
    AntiparallelError,
    DegenerateHomogeneousError,
    DegenerateVectorError,
)

# Direction vectors shorter than this (meters) cannot be aligned.
EPS_VEC = 1e-9
# Alignments with cos(theta) < -1 + EPS_ANTIPARALLEL are rejected: the
# rotation axis is not unique when source and target point opposite ways.
EPS_ANTIPARALLEL = 1e-8

PRINCIPAL_AXIS = np.array([0.0, 0.0, 1.0])
PRINCIPAL_AXIS.setflags(write=False)


@dataclass(frozen=True, eq=False)
class CanonicalRotation:
    """A proper rotation together with the vector it was built to align.

    ``matrix @ normalize(source_vector)`` equals the alignment target, which
    is the principal axis (0, 0, 1) for every rotation produced by the
    canonicalization operations.
    """

    matrix: np.ndarray
    source_vector: np.ndarray

    def __post_init__(self):
        mat, src = _rigid(self.matrix, self.source_vector, "canonical rotation", "source_vector")
        (norm,) = _vector_norms(src[None])
        if norm <= EPS_VEC:
            raise DegenerateVectorError(f"source_vector norm {norm:.3e} <= {EPS_VEC}")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "source_vector", src)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Rotate a (..., 3) array: R @ p for each point."""
        return np.asarray(points, dtype=np.float64) @ self.matrix.T

    def inverse_apply(self, points: np.ndarray) -> np.ndarray:
        """Rotate a (..., 3) array back: R^T @ p for each point."""
        return np.asarray(points, dtype=np.float64) @ self.matrix


def _check_rotations(matrices: np.ndarray, sources: np.ndarray):
    """The CanonicalRotation checks, run once over (N, 3, 3) matrices and
    their (N, 3) source vectors.

    Returns None when every frame passes, else (position, error) for the
    first failing frame, with the error the constructor raises for it.
    """
    bad = _improper_rotations(matrices)
    bad |= ~np.isfinite(sources).all(axis=-1)
    with np.errstate(invalid="ignore", over="ignore"):
        bad |= ~(_vector_norms(sources) > EPS_VEC)
    for position in np.flatnonzero(bad):
        try:
            CanonicalRotation(matrices[position], sources[position])
        except ValueError as exc:
            return int(position), exc
    return None


def _root_depth(value) -> float:
    """``value`` as a root depth: a positive, finite float, else ValueError."""
    depth = float(value)
    if not np.isfinite(depth) or depth <= 0:
        raise ValueError(f"root_depth must be positive and finite, got {depth!r}")
    return depth


@dataclass(frozen=True, eq=False)
class CanonicalRecord:
    """Everything needed to use and invert one frame's canonicalization.

    ``canonical_3d`` and ``root_depth`` are None for records produced from 2D
    observations alone. The 3D path writes each canonical root at exactly
    (0, 0, root_depth), and the loader reads a canonical sequence's 3D as
    canonical-frame only when every frame with 3D meets that rule (else as
    camera-frame, as the 2D path leaves it); the constructor does not check it.
    """

    canonical_3d: Pose3D | None
    canonical_2d: Pose2D
    rotation: CanonicalRotation
    root_depth: float | None
    skeleton_id: str

    def __post_init__(self):
        if self.canonical_3d is not None:
            if self.canonical_3d.frame is not Frame.CANONICAL_CAMERA:
                raise ValueError("canonical_3d must be in the canonical-camera frame")
            if self.root_depth is None:
                raise ValueError("root_depth is required when canonical_3d is present")
        if self.root_depth is not None:
            object.__setattr__(self, "root_depth", _root_depth(self.root_depth))
        if self.canonical_2d.space is not Space.IMAGE:
            raise ValueError("canonical_2d must be in image space")


def _root_index_of(skeleton) -> int:
    # Accepts either a Skeleton-like object or a bare joint index, so the
    # canonical operations work on poses with no named skeleton (single-joint
    # test poses included).
    return int(getattr(skeleton, "root_index", skeleton))


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
        DegenerateVectorError: some vector has norm <= EPS_VEC.
        AntiparallelError: some vector points opposite the target
            (cos(theta) < -1 + EPS_ANTIPARALLEL).
    """
    vecs = np.asarray(vectors, dtype=np.float64)
    squeeze = vecs.ndim == 1
    vecs = np.atleast_2d(vecs)
    tgt = np.asarray(target, dtype=np.float64)

    norms = np.linalg.norm(vecs, axis=-1)
    short = norms <= EPS_VEC
    if short.any():
        raise DegenerateVectorError(
            f"{int(short.sum())} vector(s) too short to align (norm <= {EPS_VEC})",
            indices=np.nonzero(short)[0],
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
    axis, reprojected, and finally translated so the root lands at exactly
    (W/2, H/2).

    Returns (canonical pixels (N, J, 2), rotations (N, 3, 3), the homogeneous
    pelvis vectors (N, 3) the rotations were built from).
    """
    pix = np.asarray(pixels, dtype=np.float64)
    n, j = pix.shape[0], pix.shape[1]
    plane = np.empty((n, j, 3), dtype=np.float64)
    plane[..., :2] = batch_to_normalized_plane(pix, intrinsics)
    plane[..., 2] = 1.0

    pelvis = plane[:, root_index].copy()
    rotations = batch_rodrigues_align(pelvis, PRINCIPAL_AXIS)
    rotated = batch_rotate(rotations, plane)

    w = rotated[..., 2]
    degenerate = np.abs(w) <= EPS_DEPTH
    if degenerate.any():
        raise DegenerateHomogeneousError(
            f"{int(degenerate.sum())} joint(s) dehomogenize with |w| <= {EPS_DEPTH}",
            indices=np.unique(np.nonzero(degenerate)[0]),
        )

    reprojected = np.empty((n, j, 2), dtype=np.float64)
    reprojected[..., 0] = intrinsics.fx * rotated[..., 0] / w + intrinsics.cx
    reprojected[..., 1] = intrinsics.fy * rotated[..., 1] / w + intrinsics.cy

    center = np.array([intrinsics.width / 2.0, intrinsics.height / 2.0])
    shift = center - reprojected[:, root_index]
    out = reprojected + shift[:, None, :]
    # The translation puts the root at the center up to one rounding step;
    # write the exact value the contract promises.
    out[:, root_index] = center
    return out, rotations, pelvis


def batch_back_transform(predictions: np.ndarray, rotations: np.ndarray, root_depths) -> np.ndarray:
    """Invert canonicalization for root-relative predictions (N, J, 3).

    Rotates each prediction back to the camera frame about the canonical root
    at (0, 0, depth) and re-centers on the root's camera-frame position. The
    output is unchanged by the choice of ``root_depths`` (the depth term
    cancels), so passing zeros is valid when true depths are unknown.
    """
    preds = np.asarray(predictions, dtype=np.float64)
    rots = np.asarray(rotations, dtype=np.float64)
    depths = np.broadcast_to(np.asarray(root_depths, dtype=np.float64), preds.shape[0])
    anchor = np.zeros((preds.shape[0], 3), dtype=np.float64)
    anchor[:, 2] = depths
    absolute = batch_rotate(rots.transpose(0, 2, 1), preds + anchor[:, None, :])
    root_position = np.einsum("nji,nj->ni", rots, anchor)
    return absolute - root_position[:, None, :]


# ---------------------------------------------------------------------------
# Tagged single-pose operations.
# ---------------------------------------------------------------------------


def rodrigues_align(a, b) -> CanonicalRotation:
    """Rotation taking direction ``a`` onto direction ``b``.

    Both vectors are normalized internally. The returned rotation is the
    minimal-angle one about the axis a x b; parallel inputs give the
    identity, antiparallel inputs raise (no unique axis exists there).

    Args:
        a: source 3-vector, norm > EPS_VEC.
        b: target 3-vector, norm > EPS_VEC.

    Returns:
        CanonicalRotation with matrix R satisfying R @ normalize(a) =
        normalize(b) and source_vector = a.
    """
    src = np.asarray(a, dtype=np.float64).reshape(3)
    tgt = np.asarray(b, dtype=np.float64).reshape(3)
    tgt_norm = np.linalg.norm(tgt)
    if tgt_norm <= EPS_VEC:
        raise DegenerateVectorError(f"target vector norm {tgt_norm:.3e} <= {EPS_VEC}")
    matrix = batch_rodrigues_align(src, tgt / tgt_norm)
    return CanonicalRotation(matrix, src)


def canonicalize_3d(pose: Pose3D, skeleton) -> tuple[Pose3D, CanonicalRotation]:
    """Rotate a camera-frame pose so its root lies on the principal axis.

    Args:
        pose: camera-frame pose; the root must be in front of the camera.
        skeleton: Skeleton (or bare root joint index).

    Returns:
        (canonical pose with root at (0, 0, ||root||), the rotation used).
    """
    _require_frame(pose, Frame.CAMERA, "canonicalize_3d")
    root_index = _root_index_of(skeleton)
    canonical, rotations, _ = batch_canonicalize_3d(pose.joints[None], root_index)
    rotation = CanonicalRotation(rotations[0], pose.joints[root_index])
    return Pose3D(canonical[0], Frame.CANONICAL_CAMERA), rotation


def project_canonical_centered(pose: Pose3D, intrinsics: CameraIntrinsics) -> Pose2D:
    """Project a canonical pose with the root pinned to the image center.

    Identical to ``project`` with (cx, cy) replaced by (W/2, H/2); the
    canonical root at (0, 0, depth) therefore lands exactly on (W/2, H/2).
    """
    _require_frame(pose, Frame.CANONICAL_CAMERA, "project_canonical_centered")
    return Pose2D(batch_project_centered(pose.joints, intrinsics), Space.IMAGE)


def root_relative(pose: Pose3D, skeleton) -> Pose3D:
    """Subtract the root joint from every joint; the frame tag is kept."""
    root_index = _root_index_of(skeleton)
    return Pose3D(pose.joints - pose.joints[root_index], pose.frame)


def canonicalize_2d(
    pose: Pose2D, intrinsics: CameraIntrinsics, skeleton
) -> tuple[Pose2D, CanonicalRotation]:
    """Canonicalize an image-space pose without any 3D information.

    The pose is lifted to the depth-1 plane with K^-1, rotated by the
    alignment of the root's homogeneous vector with the principal axis,
    reprojected with K, and translated so the root lands at (W/2, H/2).
    When the input is the projection of a 3D pose, the output equals the
    3D path (canonicalize_3d followed by project_canonical_centered) and the
    returned rotation equals the 3D-path rotation, up to rounding.

    Returns:
        (canonical image-space pose, the rotation used; its source_vector is
        the root's homogeneous plane vector).
    """
    _require_space(pose, Space.IMAGE, "canonicalize_2d")
    root_index = _root_index_of(skeleton)
    canonical, rotations, pelvis = batch_canonicalize_2d(pose.joints[None], intrinsics, root_index)
    rotation = CanonicalRotation(rotations[0], pelvis[0])
    return Pose2D(canonical[0], Space.IMAGE), rotation


def back_transform(pred: Pose3D, rotation: CanonicalRotation, root_depth: float) -> Pose3D:
    """Map a root-relative canonical prediction back to the camera frame.

    Computes root_relative(R^T @ (pred + (0, 0, root_depth))): the prediction
    is re-anchored at the canonical root, rotated back, and re-centered on
    the root's camera-frame position. Because the depth term cancels in the
    result, any ``root_depth`` (including 0 when the true depth is unknown)
    produces the same root-relative output.

    Args:
        pred: root-relative pose in the canonical-camera frame.
        rotation: the rotation that canonicalized the frame.
        root_depth: canonical root depth in meters (0 is acceptable).

    Returns:
        Root-relative pose in the camera frame.
    """
    _require_frame(pred, Frame.CANONICAL_CAMERA, "back_transform")
    out = batch_back_transform(pred.joints[None], rotation.matrix[None], float(root_depth))
    return Pose3D(out[0], Frame.CAMERA)


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
