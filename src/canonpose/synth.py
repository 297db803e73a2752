"""Synthetic pose generation and brute-force self-checks.

Poses are fixed-topology skeletons grown edge by edge from a rest template:
bone lengths are jittered within +-10%, bone directions are perturbed by a
bounded random rotation, the whole body gets a random yaw, and the root is
placed uniformly inside a camera-space box. Anatomical plausibility is loose
on purpose; the consumers test geometry, not biomechanics.

Randomness is counter-based: every pose is drawn from its own Philox stream
keyed by (seed, stream offset + pose index), so generation order, batching,
and thread count cannot change the output. Each pose's stream is read in one
fixed order, which is the generator's output contract: 6 + E uniforms in
[0, 1) (root x, y, z, yaw, lean azimuth, lean angle, then E bone-length
jitters), E x 3 standard normals (swing axes), then E uniforms (swing
angles), for a skeleton with E edges. A uniform on [low, high) is
``low + (high - low) * u``, the arithmetic of ``Generator.uniform``.

The oracles (`consistency_oracle`, `many_to_one_demo`) exercise the public
camera/canonical operations against each other; the only math re-derived
from first principles is the projection inside the residual check, which is
intentionally independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import (
    CameraIntrinsics,
    Frame,
    Pose3D,
    _check_depths,
    batch_project,
    batch_screen_normalize,
)
from .canonical import (
    batch_canonicalize_2d,
    batch_canonicalize_3d,
    batch_project_centered,
    residual_offset,
)
from .jsonfmt import json_array, json_float, json_int
from .skeleton import H36M17, Skeleton

# Streams with the same seed never overlap: each pose index selects a
# disjoint Philox key, and callers can offset indices to carve out
# independent namespaces (the lifting study separates train/test this way).
STREAM_SPAN = 1 << 48


def pose_rng(seed: int, index: int) -> np.random.Generator:
    """The dedicated random stream for one (seed, index) pair."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True, eq=False)
class Box3:
    """Axis-aligned box in camera space, meters; bounds are read through ``json_array``."""

    low: np.ndarray
    high: np.ndarray

    def __post_init__(self):
        low = json_array(self.low, "low").reshape(3)
        high = json_array(self.high, "high").reshape(3)
        if not (np.isfinite(low).all() and np.isfinite(high).all()):
            raise ValueError("box bounds must be finite")
        if (low > high).any():
            raise ValueError(f"box low {low.tolist()} exceeds high {high.tolist()}")
        low.setflags(write=False)
        high.setflags(write=False)
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return ((pts >= self.low) & (pts <= self.high)).all(axis=-1)


def _check_type(value, kind: type, name: str) -> None:
    """Raise a TypeError naming ``name`` unless ``value`` is a ``kind``."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be a {kind.__name__}, got {value!r}")


DEFAULT_ROOT_REGION = Box3((-0.5, -0.5, 3.0), (0.5, 0.5, 5.0))
# Roots closer than this to the camera make limbs liable to cross the camera
# plane; generation refuses such regions outright.
MIN_ROOT_DEPTH = 0.5


@dataclass(frozen=True, eq=False)
class SynthConfig:
    """Generator configuration; the generator is camera-free (it produces 3D
    poses). The seed and the count are integers (``jsonfmt.json_int``), the
    limb scale a number (``json_float``), the root region a ``Box3``."""

    seed: int
    n_poses: int
    limb_scale: float = 1.0
    root_region: Box3 = DEFAULT_ROOT_REGION

    def __post_init__(self):
        object.__setattr__(self, "seed", json_int(self.seed, "seed"))
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        object.__setattr__(self, "n_poses", json_int(self.n_poses, "n_poses"))
        if self.n_poses < 1:
            raise ValueError(f"n_poses must be >= 1, got {self.n_poses}")
        object.__setattr__(self, "limb_scale", json_float(self.limb_scale, "limb_scale"))
        if not (np.isfinite(self.limb_scale) and self.limb_scale > 0):
            raise ValueError(f"limb_scale must be positive, got {self.limb_scale!r}")
        _check_type(self.root_region, Box3, "root_region")
        if self.root_region.low[2] <= MIN_ROOT_DEPTH:
            raise ValueError(
                f"root_region must lie entirely at Z > {MIN_ROOT_DEPTH} m, "
                f"got low Z = {self.root_region.low[2]}"
            )


# Rest template for the default skeleton: per-edge unit direction (camera
# frame: x right, y down, z forward; the subject faces the camera) and bone
# length in meters.
_H36M17_TEMPLATE = {
    (0, 1): ((-1.0, 0.1, 0.0), 0.13),
    (1, 2): ((0.0, 1.0, 0.0), 0.45),
    (2, 3): ((0.0, 1.0, 0.1), 0.45),
    (0, 4): ((1.0, 0.1, 0.0), 0.13),
    (4, 5): ((0.0, 1.0, 0.0), 0.45),
    (5, 6): ((0.0, 1.0, 0.1), 0.45),
    (0, 7): ((0.0, -1.0, 0.0), 0.24),
    (7, 8): ((0.0, -1.0, 0.05), 0.25),
    (8, 9): ((0.0, -1.0, 0.0), 0.12),
    (9, 10): ((0.0, -1.0, 0.1), 0.12),
    (8, 11): ((1.0, -0.05, 0.0), 0.16),
    (11, 12): ((1.0, 0.2, 0.1), 0.28),
    (12, 13): ((1.0, 0.3, 0.0), 0.25),
    (8, 14): ((-1.0, -0.05, 0.0), 0.16),
    (14, 15): ((-1.0, 0.2, 0.1), 0.28),
    (15, 16): ((-1.0, 0.3, 0.0), 0.25),
}

# Bone directions are perturbed by a rotation of at most this angle (radians).
MAX_BONE_SWING = 0.5
BONE_LENGTH_JITTER = 0.1
# Whole-body orientation: uniform yaw about the vertical, plus a lean of up
# to this angle about a uniformly random horizontal axis. People bend and
# lean; they rarely hang upside down.
MAX_BODY_TILT = 0.7


def _rest_template(skeleton: Skeleton) -> tuple[np.ndarray, np.ndarray]:
    """Unit rest directions (E, 3) and lengths (E,) per topological edge."""
    edges = skeleton.topological_edges
    directions = np.zeros((len(edges), 3))
    lengths = np.zeros(len(edges))
    for i, edge in enumerate(edges):
        if skeleton.name == H36M17.name and edge in _H36M17_TEMPLATE:
            direction, length = _H36M17_TEMPLATE[edge]
        else:
            # Unknown skeletons get a deterministic spread of directions (a
            # golden-angle spiral over the sphere) and a uniform bone length.
            golden = np.pi * (3.0 - np.sqrt(5.0))
            z = 1.0 - 2.0 * (i + 0.5) / max(len(edges), 1)
            r = np.sqrt(max(1.0 - z * z, 0.0))
            direction, length = (r * np.cos(golden * i), r * np.sin(golden * i), z), 0.3
        vec = np.asarray(direction, dtype=np.float64)
        directions[i] = vec / np.linalg.norm(vec)
        lengths[i] = length
    return directions, lengths


def _rotate_planes(vectors, axes, angles) -> tuple:
    """Rotate vectors by per-row angles about per-row unit axes, each given
    as its x, y, z planes: Rodrigues' formula, one expression per component.

    Each sum runs in the order ``np.sum`` and ``np.cross`` use on a last axis
    of length 3, so the planes hold the bits of the (..., 3) form."""
    vx, vy, vz = vectors
    ax, ay, az = axes
    cos, sin = np.cos(angles), np.sin(angles)
    dot = (ax * vx + ay * vy) + az * vz
    versine = 1.0 - cos
    return (
        (vx * cos + (ay * vz - az * vy) * sin) + ax * dot * versine,
        (vy * cos + (az * vx - ax * vz) * sin) + ay * dot * versine,
        (vz * cos + (ax * vy - ay * vx) * sin) + az * dot * versine,
    )


def _uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """Uniforms in [low, high) from ``random()`` draws, as ``Generator.uniform`` computes them."""
    return low + (high - low) * u


# Poses drawn and built at once; the (n_poses, J, 3) output is the one array
# that grows with the count.
_POSE_ROWS = 256


def generate_pose_array(config: SynthConfig, skeleton: Skeleton, stream: int = 0) -> np.ndarray:
    """Generate (n_poses, J, 3) camera-frame joints.

    ``stream`` offsets the per-pose Philox indices by stream * STREAM_SPAN,
    giving independent draws for the same seed (train vs test sets).
    """
    joints = np.empty((config.n_poses, skeleton.n_joints, 3))
    for lo, poses in _pose_blocks(config, skeleton, stream):
        joints[lo : lo + len(poses)] = poses
    return joints


def _pose_blocks(config: SynthConfig, skeleton: Skeleton, stream: int):
    """``generate_pose_array``'s poses as (first index, (m, J, 3) block), _POSE_ROWS at a time."""
    rest = _rest_template(skeleton)
    n, e = config.n_poses, len(skeleton.topological_edges)

    # Three draws per pose, in the order the module docstring fixes. One
    # Philox is re-keyed to (seed, base + i) with counter 0 and an empty
    # buffer per pose: the state a fresh ``pose_rng(seed, base + i)`` starts in.
    heads = np.empty((_POSE_ROWS, 6 + e))
    axes = np.empty((_POSE_ROWS, e, 3))
    swings = np.empty((_POSE_ROWS, e))
    base = stream * STREAM_SPAN
    key = [config.seed, base]
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    bits = np.random.Philox(key=np.array(key, dtype=np.uint64))
    rng = np.random.Generator(bits)
    for lo in range(0, n, _POSE_ROWS):
        m = min(_POSE_ROWS, n - lo)
        for i in range(m):
            key[1] = base + lo + i
            bits.state = state
            rng.random(out=heads[i])
            rng.standard_normal(out=axes[i])
            rng.random(out=swings[i])
        yield lo, _build_poses(heads[:m], axes[:m], swings[:m], config, skeleton, rest)


def _build_poses(heads, axes, swings, config: SynthConfig, skeleton: Skeleton, rest) -> np.ndarray:
    """The (m, J, 3) poses of m poses' draws.

    Vectors are held as x, y, z planes of shape (m, E): numpy pays a fixed
    cost per inner loop, which a last axis of length 3 pays per element."""
    edges = skeleton.topological_edges
    rest_dirs, rest_lens = rest
    m = len(heads)
    # A root's unit uniform is the draw itself: ``uniform()`` is 0 + 1 * u == u.
    low, span = config.root_region.low, config.root_region.high - config.root_region.low
    roots = low + heads[:, :3] * span
    yaws = _uniform(heads[:, 3], 0.0, 2.0 * np.pi)
    lean_azimuths = _uniform(heads[:, 4], 0.0, 2.0 * np.pi)
    lean_angles = _uniform(heads[:, 5], 0.0, MAX_BODY_TILT)
    jitters = _uniform(heads[:, 6:], -BONE_LENGTH_JITTER, BONE_LENGTH_JITTER)
    angles = _uniform(swings, 0.0, MAX_BONE_SWING)

    ax, ay, az = np.moveaxis(axes, -1, 0)
    norms = np.sqrt((ax * ax + ay * ay) + az * az)
    unit = norms > 1e-12
    norms = np.where(norms > 0, norms, 1.0)
    axes = np.where(unit, ax / norms, 0.0), np.where(unit, ay / norms, 0.0), np.where(unit, az / norms, 1.0)

    lengths = rest_lens * config.limb_scale * (1.0 + jitters)
    bx, by, bz = (lengths * d for d in _rotate_planes(rest_dirs.T, axes, angles))

    # Whole-body orientation: yaw about the vertical, then lean about a
    # random horizontal axis (y is down in the camera frame).
    cos_y, sin_y = np.cos(yaws)[:, None], np.sin(yaws)[:, None]
    yawed = cos_y * bx + sin_y * bz, by, -sin_y * bx + cos_y * bz
    lean_axes = np.cos(lean_azimuths)[:, None], np.zeros((m, 1)), np.sin(lean_azimuths)[:, None]
    leaned = np.stack(_rotate_planes(yawed, lean_axes, lean_angles[:, None]))

    planes = np.empty((3, m, skeleton.n_joints))
    planes[:, :, skeleton.root_index] = roots.T
    for i, (parent, child) in enumerate(edges):
        planes[:, :, child] = planes[:, :, parent] + leaned[:, :, i]
    return np.ascontiguousarray(planes.transpose(1, 2, 0))


def generate_poses(config: SynthConfig, skeleton: Skeleton) -> list[Pose3D]:
    """Generate camera-frame poses; identical output for identical configs."""
    return [Pose3D(j, Frame.CAMERA) for j in generate_pose_array(config, skeleton)]


def random_intrinsics(rng: np.random.Generator) -> CameraIntrinsics:
    """One plausible pinhole camera drawn from ``rng`` (for harness sweeps)."""
    width = float(rng.integers(640, 1921))
    height = float(rng.integers(480, 1201))
    return CameraIntrinsics(
        fx=width * rng.uniform(0.8, 1.6),
        fy=width * rng.uniform(0.8, 1.6),
        cx=width * rng.uniform(0.4, 0.6),
        cy=height * rng.uniform(0.4, 0.6),
        width=width,
        height=height,
    )


# ---------------------------------------------------------------------------
# Oracles.
# ---------------------------------------------------------------------------

CONSISTENCY_THRESHOLD = 1e-9


def _root_index(skeleton: Skeleton | None, n_joints: int) -> int:
    """The skeleton's root, else H36M17's for 17 joints, else joint 0."""
    return (skeleton or H36M17).root_index if skeleton or n_joints == H36M17.n_joints else 0


@dataclass(frozen=True, eq=False)
class ConsistencyReport:
    """Per-pose discrepancy between the 3D and 2D canonicalization paths."""

    per_pose_max: np.ndarray
    failed_indices: tuple[int, ...]
    threshold: float = CONSISTENCY_THRESHOLD

    @property
    def n_poses(self) -> int:
        return self.per_pose_max.shape[0] + len(self.failed_indices)

    @property
    def max_discrepancy(self) -> float:
        return float(self.per_pose_max.max()) if self.per_pose_max.size else 0.0

    @property
    def mean_discrepancy(self) -> float:
        return float(self.per_pose_max.mean()) if self.per_pose_max.size else 0.0

    @property
    def n_flagged(self) -> int:
        return int((self.per_pose_max > self.threshold).sum())

    @property
    def passed(self) -> bool:
        return not self.failed_indices and self.n_flagged == 0

    def to_dict(self) -> dict:
        return {
            "n_poses": self.n_poses,
            "threshold": self.threshold,
            "max_discrepancy_px": self.max_discrepancy,
            "mean_discrepancy_px": self.mean_discrepancy,
            "n_flagged": self.n_flagged,
            "failed_pose_indices": list(self.failed_indices),
            "passed": self.passed,
        }


def consistency_oracle(
    poses,
    intrinsics: CameraIntrinsics,
    skeleton: Skeleton | None = None,
    intrinsics_2d_path: CameraIntrinsics | None = None,
) -> ConsistencyReport:
    """Compare canonical 2D poses built through the 3D and the 2D paths.

    For each pose the 3D path (canonicalize the 3D pose, project centered)
    and the 2D path (project, canonicalize the pixels) should agree to within
    floating-point noise; the report records each pose's worst coordinate
    discrepancy in pixels. Poses that cannot be canonicalized at all are
    listed in ``failed_indices`` rather than raised.

    ``intrinsics_2d_path`` substitutes a different camera into the 2D path;
    feeding deliberately wrong intrinsics is the negative control that shows
    the oracle actually measures something.
    """
    if isinstance(poses, np.ndarray):
        points = np.asarray(poses, dtype=np.float64)
    else:
        poses = list(poses)
        if not poses:
            return ConsistencyReport(np.zeros(0), ())
        points = np.stack([pose.joints for pose in poses])
    root = _root_index(skeleton, points.shape[1])
    k2 = intrinsics_2d_path if intrinsics_2d_path is not None else intrinsics

    def both_paths(pts: np.ndarray) -> np.ndarray:
        canon3, _, _ = batch_canonicalize_3d(pts, root)
        via_3d = batch_project_centered(canon3, intrinsics)
        observed = batch_project(pts, intrinsics)
        via_2d, _, _ = batch_canonicalize_2d(observed, k2, root)
        return np.abs(via_3d - via_2d).max(axis=(1, 2))

    try:
        return ConsistencyReport(both_paths(points), ())
    except ValueError:
        per_pose, failed = [], []
        for index in range(points.shape[0]):
            try:
                per_pose.append(float(both_paths(points[index : index + 1])[0]))
            except ValueError:
                failed.append(index)
        return ConsistencyReport(np.asarray(per_pose), tuple(failed))


@dataclass(frozen=True, eq=False)
class ManyToOneReport:
    """How much the same pose's 2D input varies with its placement.

    Dispersions are the largest coordinate spread (max minus min across
    placements) of the screen-normalized 2D poses; the canonical root figure
    is the largest absolute canonical root coordinate, which centering pins
    to exactly zero.
    """

    n_positions: int
    conventional_dispersion: float
    canonical_dispersion: float
    conventional_root_dispersion: float
    canonical_root_max_abs: float
    residual_max_error: float


def many_to_one_demo(
    base_pose_root_relative, positions, intrinsics: CameraIntrinsics, skeleton: Skeleton | None = None
) -> ManyToOneReport:
    """Place one root-relative pose at several roots and compare 2D inputs.

    Conventional screen-normalized 2D poses drift with the placement (the
    many-to-one problem); canonical ones keep their root pinned at (0, 0).
    Also verifies, joint by joint and from first principles, that moving the
    pose off-axis shifts its projection by exactly ``residual_offset``
    evaluated at each joint's depth.
    """
    base = base_pose_root_relative.joints if isinstance(base_pose_root_relative, Pose3D) else base_pose_root_relative
    base = np.asarray(base, dtype=np.float64)
    root = _root_index(skeleton, base.shape[0])
    if np.abs(base[root]).max() > 1e-12:
        raise ValueError("base pose must be root-relative (root at the origin)")
    offsets = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    _check_depths(offsets[:, 2], "position(s)")

    placed = base[None] + offsets[:, None, :]
    conventional = batch_screen_normalize(batch_project(placed, intrinsics), intrinsics)
    canon3, _, _ = batch_canonicalize_3d(placed, root)
    canonical = batch_screen_normalize(batch_project_centered(canon3, intrinsics), intrinsics)

    def spread(arr: np.ndarray) -> float:
        return float((arr.max(axis=0) - arr.min(axis=0)).max()) if arr.shape[0] > 1 else 0.0

    # Residual check, projection written out from first principles on purpose
    # (an independent recomputation, not a call into the camera module).
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

    return ManyToOneReport(
        n_positions=offsets.shape[0],
        conventional_dispersion=spread(conventional.reshape(offsets.shape[0], -1)),
        canonical_dispersion=spread(canonical.reshape(offsets.shape[0], -1)),
        conventional_root_dispersion=spread(conventional[:, root]),
        canonical_root_max_abs=float(np.abs(canonical[:, root]).max()),
        residual_max_error=max_error,
    )
