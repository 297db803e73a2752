"""Distribution diagnostics over pose datasets.

Three views of where the data lives: pelvis positions (camera-frame x-y and
image plane), body orientation directions, and pooled joint scatter. Each is
summarized with per-axis bounds, mean, and fixed 64-bin histograms so runs
are reproducible and diffable; rendering is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import CameraIntrinsics, Frame, Space, _vector_norms, batch_project
from .canonical import batch_project_centered
from .errors import BehindCameraError
from .jsonfmt import format_float, plain

HIST_BINS = 64
# Cross products below this norm give no usable orientation direction.
EPS_ORIENTATION = 1e-12


@dataclass(frozen=True, eq=False)
class AxisHistogram:
    """Counts over HIST_BINS uniform bins spanning one axis."""

    edges: np.ndarray
    counts: np.ndarray

    def to_dict(self) -> dict:
        return plain(self)


@dataclass(frozen=True, eq=False)
class DistributionSummary:
    """Samples plus their per-axis bounds, mean, and histograms.

    ``n_degenerate`` counts inputs that produced no sample (currently only
    near-zero cross products in the orientation statistic).
    """

    samples: np.ndarray
    bounds: np.ndarray | None
    mean: np.ndarray | None
    histograms: tuple[AxisHistogram, ...]
    n_degenerate: int = 0

    @classmethod
    def from_samples(cls, samples, n_degenerate: int = 0) -> "DistributionSummary":
        arr = np.asarray(samples, dtype=np.float64)
        if arr.shape[0] == 0:
            return cls(arr, None, None, (), n_degenerate)
        bounds = np.stack([arr.min(axis=0), arr.max(axis=0)], axis=1)
        mean = arr.mean(axis=0)
        histograms = []
        for axis in range(arr.shape[1]):
            lo, hi = bounds[axis]
            if lo == hi:
                # All samples identical on this axis; give the bin range a
                # nonzero width so every sample still lands in a bin.
                lo, hi = lo - 0.5, hi + 0.5
            edges = np.linspace(lo, hi, HIST_BINS + 1)
            counts, _ = np.histogram(arr[:, axis], bins=edges)
            histograms.append(AxisHistogram(edges, counts))
        return cls(arr, bounds, mean, tuple(histograms), n_degenerate)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    def to_dict(self) -> dict:
        out: dict = {"count": self.n_samples, "degenerate_count": self.n_degenerate}
        if self.bounds is not None:
            out["bounds"] = self.bounds.tolist()
            out["mean"] = self.mean.tolist()
            out["histograms"] = [h.to_dict() for h in self.histograms]
        return out


def write_samples_csv(summary: DistributionSummary, path) -> None:
    """Dump raw samples as CSV with an x,y[,z] header (17-digit floats); the
    header has one column per sample axis even when there are no samples."""
    lines = [",".join("xyz"[: summary.samples.shape[1]])]
    lines += [",".join(format_float(v) for v in row) for row in summary.samples]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def pelvis_position_distribution(
    sequences, intrinsics: CameraIntrinsics | None = None
) -> tuple[DistributionSummary, DistributionSummary]:
    """Where the root joint sits, in 3D x-y and on the image plane.

    The x-y summary collects camera-frame (x, y) of every 3D root. The
    image-plane summary collects every image-space 2D root; frames with 3D
    but no 2D are projected with ``intrinsics`` when given (camera frame via
    the principal point, canonical frame via the image center).

    Raises:
        BehindCameraError: a root to be projected is at or behind the camera
            plane; the error names its frame.
    """
    xy, image = [], []
    for seq in sequences:
        root = seq.skeleton.root_index
        joints_3d, has_3d, frame = seq._channel(3)
        joints_2d, has_2d, space = seq._channel(2)
        # Image roots in frame order, stored ones and projected ones mixed.
        rows = np.empty((seq.n_frames, 2))
        taken = has_2d & (space is Space.IMAGE)
        if taken.any():
            rows[taken] = joints_2d[taken, root]
        if has_3d.any():
            xy.append(joints_3d[has_3d, root, :2])
            unprojected = has_3d & ~taken
            if intrinsics is not None and unprojected.any():
                at = np.flatnonzero(unprojected)
                project = batch_project_centered if frame is Frame.CANONICAL_CAMERA else batch_project
                try:
                    rows[at] = project(joints_3d[at, root], intrinsics)
                except BehindCameraError as exc:
                    frame_no = seq._take(seq._columns.index)[at[exc.indices[0]]]
                    raise BehindCameraError(
                        f"sequence {seq.key} frame {frame_no}: root at or behind the camera plane"
                    ) from exc
                taken |= unprojected
        image.append(rows[taken])
    empty2 = np.zeros((0, 2))
    return (
        DistributionSummary.from_samples(np.concatenate(xy) if xy else empty2),
        DistributionSummary.from_samples(np.concatenate(image) if image else empty2),
    )


def body_orientation_distribution(sequences) -> DistributionSummary:
    """Unit body-facing directions: cross(left hip - right hip, torso - pelvis),
    with the joints of each sequence's own skeleton.

    Frames whose cross product is shorter than EPS_ORIENTATION (hips parallel
    to the spine) yield no direction and are tallied in ``n_degenerate``.
    Frames without 3D joints are skipped.
    """
    directions = []
    degenerate = 0
    for seq in sequences:
        skel = seq.skeleton
        joints, present, _ = seq._channel(3)
        if not present.any():
            continue
        joints = joints[present]
        across = joints[:, skel.left_hip_index] - joints[:, skel.right_hip_index]
        up = joints[:, skel.torso_index] - joints[:, skel.root_index]
        cross = np.cross(across, up)
        norms = _vector_norms(cross)
        flat = norms <= EPS_ORIENTATION
        degenerate += int(np.count_nonzero(flat))
        directions.append(cross[~flat] / norms[~flat, None])
    samples = np.concatenate(directions) if directions else np.zeros((0, 3))
    return DistributionSummary.from_samples(samples, n_degenerate=degenerate)


SCATTER_MODES = ("2d", "3d-root-relative")


def joint_scatter_extent(sequences, mode: str) -> DistributionSummary:
    """Pool every joint coordinate of every frame.

    Mode "2d" pools raw 2D joints; mode "3d-root-relative" pools 3D joints
    after subtracting each frame's root, so the summary reflects pose shape
    rather than placement.
    """
    if mode not in SCATTER_MODES:
        raise ValueError(f"mode must be one of {SCATTER_MODES}, got {mode!r}")
    width = 2 if mode == "2d" else 3
    pools = []
    for seq in sequences:
        joints, present, _ = seq._channel(width)
        if not present.any():
            continue
        joints = joints[present]
        if mode != "2d":
            root = seq.skeleton.root_index
            joints = joints - joints[:, root : root + 1]
        pools.append(joints.reshape(-1, width))
    samples = np.concatenate(pools, axis=0) if pools else np.zeros((0, width))
    return DistributionSummary.from_samples(samples)
