"""Distribution diagnostics over pose datasets.

Three views of where the data lives: pelvis positions (camera-frame x-y and
image plane), body orientation directions, and pooled joint scatter. Each is
summarized with per-axis bounds, mean, and fixed 64-bin histograms so runs
are reproducible and diffable; rendering is out of scope.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace

import numpy as np

from .camera import CameraIntrinsics, Frame, _vector_norms, batch_project
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
    """Per-axis bounds, mean, and histograms of samples made in blocks.

    ``blocks`` is a zero-argument callable yielding the samples as (n, width)
    blocks, in order; each call makes them again, so no more than one block
    is held at a time. The bounds and the mean carry across blocks in row
    order, so their bits are those of numpy's axis-0 reductions of the
    pooled samples. ``n_degenerate`` counts inputs that produced no sample;
    only ``body_orientation_distribution`` sets it (near-zero cross products).
    """

    blocks: Callable[[], Iterable[np.ndarray]]
    width: int
    n_samples: int
    bounds: np.ndarray | None
    mean: np.ndarray | None
    histograms: tuple[AxisHistogram, ...]
    n_degenerate: int = 0

    @classmethod
    def from_blocks(cls, blocks, width: int) -> "DistributionSummary":
        """Two passes over ``blocks()``: the count, bounds and mean, then the
        histograms over edges spanning the bounds."""
        n, carried = 0, None
        for block in blocks():
            n += len(block)
            carried = _carried(carried, block)
            del block  # the next block is made without this one held
        if carried is None:
            return cls(blocks, width, 0, None, None, ())
        total, low, high = carried
        bounds = np.stack([low, high], axis=1)
        edges = []
        for lo, hi in bounds:
            if lo == hi:
                # All samples identical on this axis; give the bin range a
                # nonzero width so every sample still lands in a bin.
                lo, hi = lo - 0.5, hi + 0.5
            edges.append(np.linspace(lo, hi, HIST_BINS + 1))
        counts = np.zeros((width, HIST_BINS), dtype=np.intp)
        for block in blocks():
            for axis, axis_edges in enumerate(edges):
                counts[axis] += np.histogram(block[:, axis], bins=axis_edges)[0]
            del block
        histograms = tuple(map(AxisHistogram, edges, counts))
        return cls(blocks, width, n, bounds, total / n, histograms)

    def to_dict(self) -> dict:
        out: dict = {"count": self.n_samples, "degenerate_count": self.n_degenerate}
        if self.bounds is not None:
            out["bounds"] = self.bounds.tolist()
            out["mean"] = self.mean.tolist()
            out["histograms"] = [h.to_dict() for h in self.histograms]
        return out


_REDUCTIONS = (np.add.reduce, np.minimum.reduce, np.maximum.reduce)


def _carried(carried: list | None, block: np.ndarray) -> list | None:
    """[sums, minima, maxima] of each column over the rows ``carried`` covers
    (None for none) and then ``block``'s, each reduced in row order, as
    numpy's axis-0 reduction of the pooled rows is."""
    if not len(block):
        return carried
    if carried is None:
        # numpy's own reductions of the first rows start each one, as they
        # start the pooled reduction (min and max have no zero to start from).
        return [reduce(block, axis=0) for reduce in _REDUCTIONS]
    # The carried row leads the block, where the pooled reduction holds it.
    rows = np.concatenate([carried[0][None], block])
    out = []
    for value, reduce in zip(carried, _REDUCTIONS):
        rows[0] = value
        out.append(reduce(rows, axis=0))
    return out


def write_samples_csv(summary: DistributionSummary, path) -> None:
    """Dump raw samples as CSV with an x,y[,z] header (17-digit floats), one
    block at a time; the header has one column per sample axis even when
    there are no samples."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join("xyz"[: summary.width]) + "\n")
        for block in summary.blocks():
            fh.writelines(",".join(map(format_float, row)) + "\n" for row in block)
            del block


def pelvis_position_distribution(
    sequences, intrinsics: CameraIntrinsics | None = None
) -> tuple[DistributionSummary, DistributionSummary]:
    """Where the root joint sits, in 3D x-y and on the image plane.

    The x-y summary collects camera-frame (x, y) of every 3D root. The
    image-plane summary collects every stored 2D root (pixels); frames with 3D
    but no 2D are projected with ``intrinsics`` when given (camera frame via
    the principal point, canonical frame via the image center).

    Raises:
        BehindCameraError: a root to be projected is at or behind the camera
            plane; the error names its frame.
    """
    sequences = tuple(sequences)
    return (
        DistributionSummary.from_blocks(lambda: map(_root_xy, sequences), 2),
        DistributionSummary.from_blocks(lambda: (_image_roots(seq, intrinsics) for seq in sequences), 2),
    )


def _root_xy(seq) -> np.ndarray:
    joints, present = seq._channel(3)
    return joints[present, seq.skeleton.root_index, :2] if present.any() else np.zeros((0, 2))


def _image_roots(seq, intrinsics: CameraIntrinsics | None) -> np.ndarray:
    """The sequence's image roots in frame order, stored ones and projected
    ones mixed."""
    root = seq.skeleton.root_index
    joints_3d, has_3d = seq._channel(3)
    joints_2d, has_2d = seq._channel(2)
    rows = np.empty((seq.n_frames, 2))
    taken = has_2d.copy()
    if taken.any():
        rows[taken] = joints_2d[taken, root]
    unprojected = has_3d & ~taken
    if intrinsics is not None and unprojected.any():
        at = np.flatnonzero(unprojected)
        project = batch_project_centered if seq.frame_3d is Frame.CANONICAL_CAMERA else batch_project
        try:
            rows[at] = project(joints_3d[at, root], intrinsics)
        except BehindCameraError as exc:
            frame_no = seq.frame_numbers()[at[exc.indices[0]]]
            raise BehindCameraError(
                f"sequence {seq.key} frame {frame_no}: root at or behind the camera plane"
            ) from exc
        taken |= unprojected
    return rows[taken]


def body_orientation_distribution(sequences) -> DistributionSummary:
    """Unit body-facing directions: cross(left hip - right hip, torso - pelvis),
    with the joints of each sequence's own skeleton.

    Frames whose cross product is shorter than EPS_ORIENTATION (hips parallel
    to the spine) yield no direction and are tallied in ``n_degenerate``.
    Frames without 3D joints are skipped.
    """
    sequences = tuple(sequences)
    summary = DistributionSummary.from_blocks(lambda: map(_directions, sequences), 3)
    with_3d = sum(int(seq._channel(3)[1].sum()) for seq in sequences)
    return replace(summary, n_degenerate=with_3d - summary.n_samples)


def _directions(seq) -> np.ndarray:
    skel = seq.skeleton
    joints, present = seq._channel(3)
    if not present.any():
        return np.zeros((0, 3))
    across = joints[present, skel.left_hip_index] - joints[present, skel.right_hip_index]
    up = joints[present, skel.torso_index] - joints[present, skel.root_index]
    cross = np.cross(across, up)
    norms = _vector_norms(cross)
    flat = norms <= EPS_ORIENTATION
    return cross[~flat] / norms[~flat, None]


SCATTER_MODES = ("2d", "3d-root-relative")


def joint_scatter_extent(sequences, mode: str) -> DistributionSummary:
    """Pool every joint coordinate of every frame, one sequence per block.

    Mode "2d" pools raw 2D joints; mode "3d-root-relative" pools 3D joints
    after subtracting each frame's root, so the summary reflects pose shape
    rather than placement.
    """
    if mode not in SCATTER_MODES:
        raise ValueError(f"mode must be one of {SCATTER_MODES}, got {mode!r}")
    sequences = tuple(sequences)
    width = 2 if mode == "2d" else 3
    return DistributionSummary.from_blocks(lambda: (_pool(seq, width) for seq in sequences), width)


def _pool(seq, width: int) -> np.ndarray:
    """The sequence's 2D joints, or its 3D joints made root-relative, one row
    per joint of each frame."""
    joints, present = seq._channel(width)
    if not present.any():
        return np.zeros((0, width))
    pool = joints[present]
    if width == 3:
        root = seq.skeleton.root_index
        pool -= pool[:, root : root + 1].copy()
    return pool.reshape(-1, width)
