"""Pinhole camera model and tagged pose containers.

Coordinate conventions
----------------------
3D frames (``Pose3D.frame``):

* ``global``: world coordinates, meters.
* ``camera``: x right, y down, z along the optical axis, meters.
* ``canonical-camera``: camera frame rotated so the subject's root joint lies
  on the optical axis.

2D poses (``Pose2D``, and every sequence's 2D) are ``image`` pixels: origin
at the top-left corner, u right, v down. Two kernels map pixels elsewhere:

* ``batch_to_normalized_plane``: ((u - cx) / fx, (v - cy) / fy), i.e.
  coordinates on the plane at depth 1.
* ``batch_screen_normalize``: ((2u - W) / W, (2v - H) / W); both axes are
  divided by the width, so x spans [-1, 1] and the aspect ratio is preserved.

Projection follows the standard pinhole model

    u = fx * X / Z + cx,    v = fy * Y / Z + cy

and rejects joints with Z <= EPS_DEPTH rather than dividing by a vanishing
depth. All arithmetic is 64-bit; every tolerance in this package assumes it.
The kernels below take bare arrays. A sequence's 3D array carries one frame
tag, checked where it enters a command (canonicalization needs camera-frame
3D, and ``eval`` refuses poses in different frames), because silent mixups
between 3D frames are the dominant bug class in this domain.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, fields

import numpy as np

from .errors import BehindCameraError, ParseError, SchemaError
from .jsonfmt import json_array, json_float, plain

# Joints with Z at or below this depth (meters) are rejected by projection.
EPS_DEPTH = 1e-6
# Tolerance for orthogonality / unit-determinant checks on rotation matrices.
EPS_ROTATION = 1e-9


class Frame(str, enum.Enum):
    """Coordinate frame of a 3D pose."""

    GLOBAL = "global"
    CAMERA = "camera"
    CANONICAL_CAMERA = "canonical-camera"


class Space(str, enum.Enum):
    """Coordinate space of a 2D pose: pixels, the one a file can hold."""

    IMAGE = "image"


def _check_joints(arr: np.ndarray, last_dim: int, name: str, ndim: int = 3) -> np.ndarray:
    """Check a float64 joint array and make it read-only.

    The array is (T, J, last_dim) for T poses, or (J, last_dim) for one pose
    when ``ndim`` is 2; J must be at least 1 and every value finite. The
    caller hands over an array it owns: the array itself is returned.
    """
    shape = arr.shape
    if arr.ndim != ndim or shape[-1] != last_dim or shape[-2] < 1:
        expected = f"(J, {last_dim})" if ndim == 2 else f"(T, J, {last_dim})"
        raise ValueError(f"{name} must have shape {expected}, got {shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    arr.setflags(write=False)
    return arr


def _rotation_errors(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """max |R^T R - I| and det R of each matrix of a finite (N, 3, 3) stack;
    entries too large to multiply give inf, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.abs(np.swapaxes(matrices, -1, -2) @ matrices - np.eye(3)).max(axis=(-2, -1))
        return gram, np.linalg.det(matrices)


def _improper_rotations(matrices: np.ndarray) -> np.ndarray:
    """Batched rotation check: a (N,) mask over a float64 (N, 3, 3) stack,
    true where an entry is not finite, max |R^T R - I| > EPS_ROTATION or
    |det R - 1| > EPS_ROTATION."""
    finite = np.isfinite(matrices).all(axis=(-2, -1))
    gram, det = _rotation_errors(np.where(finite[:, None, None], matrices, np.eye(3)))
    return ~finite | (gram > EPS_ROTATION) | (np.abs(det - 1.0) > EPS_ROTATION)


def _rigid(rotation, vector, rotation_name: str, vector_name: str) -> tuple[np.ndarray, np.ndarray]:
    """The one-matrix rotation check: ``rotation`` and ``vector`` as read-only
    float64 arrays, or ValueError unless they are a finite proper 3x3 rotation
    and a finite 3-vector."""
    rot = np.array(rotation, dtype=np.float64)
    if rot.shape != (3, 3) or not np.isfinite(rot).all():
        raise ValueError(f"{rotation_name} must be a finite 3x3 matrix, got shape {rot.shape}")
    (gram_error,), (det,) = _rotation_errors(rot[None])
    if gram_error > EPS_ROTATION:
        raise ValueError(f"{rotation_name} is not orthogonal (max |R^T R - I| = {gram_error:.3e})")
    if abs(det - 1.0) > EPS_ROTATION:
        raise ValueError(f"{rotation_name} is not a proper rotation (det = {float(det)!r})")
    vec = np.array(vector, dtype=np.float64).reshape(-1)
    if vec.shape != (3,) or not np.isfinite(vec).all():
        raise ValueError(f"{vector_name} must be a finite 3-vector")
    rot.setflags(write=False)
    vec.setflags(write=False)
    return rot, vec


def _vector_norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a (N, 3) array.

    Bit-identical to ``np.linalg.norm`` of each row on its own (a dot
    product per row), which ``np.linalg.norm(..., axis=-1)`` is not.
    """
    return np.sqrt((vectors[:, None, :] @ vectors[:, :, None])[:, 0, 0])


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics plus image size, all in pixels.

    Each field must be a number (``jsonfmt.json_float``). The principal
    point must lie strictly inside the image and both focal lengths must be
    positive.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    width: float
    height: float

    def __post_init__(self):
        for field in fields(self):
            value = json_float(getattr(self, field.name), field.name)
            if not np.isfinite(value):
                raise ValueError(f"intrinsics field {field.name} is not finite")
            object.__setattr__(self, field.name, value)
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")
        if not (0 < self.cx < self.width):
            raise ValueError(f"cx={self.cx} must lie strictly inside (0, {self.width})")
        if not (0 < self.cy < self.height):
            raise ValueError(f"cy={self.cy} must lie strictly inside (0, {self.height})")

    def to_dict(self) -> dict:
        return plain(self)


@dataclass(frozen=True, eq=False)
class CameraExtrinsics:
    """World-to-camera rigid transform: P_camera = R @ P_world + t."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot, trans = _rigid(self.rotation, self.translation, "extrinsic rotation", "translation")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", trans)


@dataclass(frozen=True, eq=False)
class Pose3D:
    """A (J, 3) joint array in meters, tagged with its coordinate frame."""

    joints: np.ndarray
    frame: Frame

    def __post_init__(self):
        object.__setattr__(self, "joints", _check_joints(np.array(self.joints, dtype=np.float64), 3, "joints", ndim=2))
        object.__setattr__(self, "frame", Frame(self.frame))

    @property
    def n_joints(self) -> int:
        return self.joints.shape[0]


@dataclass(frozen=True, eq=False)
class Pose2D:
    """A (J, 2) joint array in pixels; ``space`` is ``Space.IMAGE``."""

    joints: np.ndarray
    space: Space

    def __post_init__(self):
        object.__setattr__(self, "joints", _check_joints(np.array(self.joints, dtype=np.float64), 2, "joints", ndim=2))
        object.__setattr__(self, "space", Space(self.space))

    @property
    def n_joints(self) -> int:
        return self.joints.shape[0]


# ---------------------------------------------------------------------------
# Batch kernels. These operate on bare arrays with any number of leading axes
# and do all the real work.
# ---------------------------------------------------------------------------


def batch_world_to_camera(points: np.ndarray, rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """Apply P_camera = R @ P_world + t over a (..., 3) array."""
    pts = np.asarray(points, dtype=np.float64)
    return pts @ np.asarray(rotation, dtype=np.float64).T + np.asarray(translation, dtype=np.float64)


def _check_depths(z: np.ndarray, what: str) -> None:
    # atleast_1d: a single (3,) point has a 0-d Z, which nonzero cannot index.
    bad = np.atleast_1d(z <= EPS_DEPTH)
    if bad.any():
        flat = np.flatnonzero(np.bincount(np.nonzero(bad)[0]))
        raise BehindCameraError(
            f"{int(bad.sum())} {what} at or behind the camera plane (Z <= {EPS_DEPTH})",
            indices=flat,
        )


def _pinhole(points: np.ndarray, intrinsics: CameraIntrinsics, cx: float, cy: float, what: str) -> np.ndarray:
    """(fx X / Z + cx, fy Y / Z + cy) of a (..., 3) array, the one pinhole
    projection; BehindCameraError naming ``what`` when any Z <= EPS_DEPTH."""
    pts = np.asarray(points, dtype=np.float64)
    z = pts[..., 2]
    _check_depths(z, what)
    out = np.empty(pts.shape[:-1] + (2,), dtype=np.float64)
    out[..., 0] = intrinsics.fx * pts[..., 0] / z + cx
    out[..., 1] = intrinsics.fy * pts[..., 1] / z + cy
    return out


def batch_project(points: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Pinhole projection of a (..., 3) array to (..., 2) pixel coordinates.

    Raises BehindCameraError when any Z <= EPS_DEPTH; the error indexes the
    leading axis of ``points``.
    """
    return _pinhole(points, intrinsics, intrinsics.cx, intrinsics.cy, "point(s)")


def batch_to_normalized_plane(pixels: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Map (..., 2) pixel coordinates onto the depth-1 plane via K^-1."""
    pix = np.asarray(pixels, dtype=np.float64)
    out = np.empty_like(pix)
    out[..., 0] = (pix[..., 0] - intrinsics.cx) / intrinsics.fx
    out[..., 1] = (pix[..., 1] - intrinsics.cy) / intrinsics.fy
    return out


def batch_screen_normalize(pixels: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Map (..., 2) pixel coordinates to screen-normalized coordinates."""
    pix = np.asarray(pixels, dtype=np.float64)
    out = np.empty_like(pix)
    out[..., 0] = (2.0 * pix[..., 0] - intrinsics.width) / intrinsics.width
    out[..., 1] = (2.0 * pix[..., 1] - intrinsics.height) / intrinsics.width
    return out


def load_camera_json(path) -> tuple[CameraIntrinsics, CameraExtrinsics | None]:
    """Read a camera description file.

    The file is a single JSON object with numeric keys ``fx, fy, cx, cy,
    width, height``, optional ``R`` (9 numbers, row-major) and ``t`` (3
    numbers), and no other. Missing extrinsics mean camera-frame poses.

    Returns:
        (intrinsics, extrinsics or None).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"{path}: invalid camera JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: camera file must hold a JSON object")
    required = ("fx", "fy", "cx", "cy", "width", "height")
    unknown = set(obj) - {*required, "R", "t"}
    if unknown:
        raise SchemaError(f"{path}: unknown camera file keys {sorted(unknown)}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise SchemaError(f"{path}: camera file missing keys {missing}")
    try:
        intrinsics = CameraIntrinsics(*(obj[key] for key in required))
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: invalid intrinsics: {exc}") from exc
    extrinsics = None
    if "R" in obj or "t" in obj:
        rot = obj.get("R", (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0))
        trans = obj.get("t", (0.0, 0.0, 0.0))
        try:
            extrinsics = CameraExtrinsics(json_array(rot, "R").reshape(3, 3), json_array(trans, "t"))
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"{path}: invalid extrinsics: {exc}") from exc
    return intrinsics, extrinsics

