import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from sequence_arrays import rows_of, sequence_of

from canonpose.camera import Frame, Pose2D, Pose3D, Space, batch_project
from canonpose.dataset import FramePair, PoseSequence, canonicalize_dataset
from canonpose.stats import (
    HIST_BINS,
    DistributionSummary,
    body_orientation_distribution,
    joint_scatter_extent,
    pelvis_position_distribution,
    write_samples_csv,
)


def make_sequence(pose_batch, intrinsics, skeleton, n=8, seed=40, with_2d=True):
    pts = pose_batch(n, seed=seed)
    pix = batch_project(pts, intrinsics) if with_2d else None
    return sequence_of(("S1", "act", "cam0"), skeleton, range(n), pix, pts)


def samples_of(summary: DistributionSummary) -> np.ndarray:
    """Every sample of ``summary`` as one (n_samples, width) array."""
    return np.concatenate([np.zeros((0, summary.width)), *summary.blocks()])


def summary_of(samples) -> DistributionSummary:
    """The one-block summary of an (n, width) array."""
    arr = np.asarray(samples, dtype=np.float64)
    return DistributionSummary.from_blocks(lambda: (arr,), arr.shape[1])


def test_summary_matches_brute_force_histogram():
    rng = np.random.default_rng(50)
    samples = rng.normal(size=(500, 2))
    summary = summary_of(samples)
    assert summary.n_samples == 500
    assert np.array_equal(summary.bounds[:, 0], samples.min(axis=0))
    assert np.array_equal(summary.bounds[:, 1], samples.max(axis=0))
    assert np.allclose(summary.mean, samples.mean(axis=0), atol=1e-15)
    for axis, hist in enumerate(summary.histograms):
        assert hist.counts.sum() == 500
        assert len(hist.edges) == HIST_BINS + 1
        # Recount one bin by hand (half-open except the last).
        k = 10
        lo, hi = hist.edges[k], hist.edges[k + 1]
        expected = np.count_nonzero((samples[:, axis] >= lo) & (samples[:, axis] < hi))
        assert hist.counts[k] == expected


def test_summary_handles_constant_axis_and_empty():
    summary = summary_of(np.full((10, 2), 3.0))
    assert summary.histograms[0].counts.sum() == 10
    assert summary.bounds[0].tolist() == [3.0, 3.0]
    empty = summary_of(np.zeros((0, 2)))
    assert empty.n_samples == 0
    assert empty.bounds is None
    assert empty.to_dict() == {"count": 0, "degenerate_count": 0}


def test_pelvis_position_distribution(pose_batch, intrinsics, skeleton):
    seq = make_sequence(pose_batch, intrinsics, skeleton, n=6, seed=41)
    xy, image = pelvis_position_distribution([seq])
    roots = seq.joints_3d()[:, skeleton.root_index]
    assert np.array_equal(samples_of(xy), roots[:, :2])
    assert np.array_equal(samples_of(image), seq.joints_2d()[:, skeleton.root_index])

    # Without stored 2D the image summary needs intrinsics to project.
    bare = make_sequence(pose_batch, intrinsics, skeleton, n=6, seed=41, with_2d=False)
    _, no_camera = pelvis_position_distribution([bare])
    assert no_camera.n_samples == 0
    _, projected = pelvis_position_distribution([bare], intrinsics)
    expected = batch_project(roots[:, None, :], intrinsics)[:, 0]
    assert np.abs(samples_of(projected) - expected).max() < 1e-12


def test_pelvis_image_spread_collapses_after_canonicalization(pose_batch, intrinsics, skeleton):
    seq = make_sequence(pose_batch, intrinsics, skeleton, n=20, seed=42)
    _, before = pelvis_position_distribution([seq])
    spread = before.bounds[:, 1] - before.bounds[:, 0]
    assert spread.min() > 1.0
    canonical = canonicalize_dataset([seq], intrinsics, "3d-path", threads=1)
    _, after = pelvis_position_distribution(canonical)
    assert np.array_equal(after.bounds[:, 0], [500.0, 500.0])
    assert np.array_equal(after.bounds[:, 1], [500.0, 500.0])


def test_body_orientation_hand_case(skeleton):
    joints = np.zeros((skeleton.n_joints, 3))
    joints[:, 2] = 4.0  # keep the pose valid in front of the camera
    joints[skeleton.left_hip_index, 0] = 0.2
    joints[skeleton.right_hip_index, 0] = -0.2
    joints[skeleton.torso_index, 1] = -0.3
    frames = (FramePair(None, Pose3D(joints, Frame.CAMERA), 0),)
    seq = PoseSequence("S1", "act", "cam0", 50.0, frames, skeleton)
    summary = body_orientation_distribution([seq])
    # cross((0.4, 0, 0), (0, -0.3, 0)) points along -z.
    assert np.allclose(samples_of(summary), [[0.0, 0.0, -1.0]], atol=1e-15)
    assert summary.n_degenerate == 0


def test_body_orientation_rotation_equivariance(pose_batch, intrinsics, skeleton, rotation_factory):
    pts = pose_batch(10, seed=43)
    rotation = rotation_factory(7)
    seq = make_sequence(pose_batch, intrinsics, skeleton, n=10, seed=43, with_2d=False)
    rotated_frames = tuple(
        FramePair(None, Pose3D(pts[t] @ rotation.T, Frame.CAMERA), t) for t in range(10)
    )
    rotated = PoseSequence("S1", "act", "cam0", 50.0, rotated_frames, skeleton)
    base = samples_of(body_orientation_distribution([seq]))
    moved = samples_of(body_orientation_distribution([rotated]))
    assert np.abs(moved - base @ rotation.T).max() < 1e-12


def test_body_orientation_counts_degenerate_frames(skeleton):
    joints = np.zeros((skeleton.n_joints, 3))
    joints[:, 2] = 4.0
    # Hips and spine direction collinear: cross product vanishes.
    joints[skeleton.left_hip_index, 0] = 0.1
    joints[skeleton.right_hip_index, 0] = -0.1
    joints[skeleton.torso_index, 0] = 0.5
    frames = (FramePair(None, Pose3D(joints, Frame.CAMERA), 0),)
    seq = PoseSequence("S1", "act", "cam0", 50.0, frames, skeleton)
    summary = body_orientation_distribution([seq])
    assert summary.n_samples == 0
    assert summary.n_degenerate == 1
    assert summary.to_dict()["degenerate_count"] == 1


def test_joint_scatter_extent(pose_batch, intrinsics, skeleton):
    seq = make_sequence(pose_batch, intrinsics, skeleton, n=5, seed=44)
    flat2 = joint_scatter_extent([seq], "2d")
    assert samples_of(flat2).shape == (5 * skeleton.n_joints, 2)
    assert np.array_equal(samples_of(flat2), seq.joints_2d().reshape(-1, 2))
    rel = joint_scatter_extent([seq], "3d-root-relative")
    pts = seq.joints_3d()
    expected = (pts - pts[:, skeleton.root_index : skeleton.root_index + 1]).reshape(-1, 3)
    assert np.array_equal(samples_of(rel), expected)
    with pytest.raises(ValueError):
        joint_scatter_extent([seq], "4d")


def test_joint_scatter_peak_is_its_samples_and_the_histograms(pose_batch, intrinsics, skeleton):
    """Each sequence's pool is one block, made again on each pass and
    dropped before the next is made. Over four sequences, one with 3D in
    every third frame only, the traced peak was 1.68 times the largest
    sequence's pool (0.76 times the whole pool), against 3.72 (1.68) when the
    whole pool was one array; the bound leaves 19% headroom.

    Body orientation copies only the four joints it uses: its traced peak
    was 7.0 times one (T, 3) array of the largest sequence, against 24.0
    when every joint was copied; the bound leaves 21% headroom."""
    points = pose_batch(4000, seed=45)
    sequences = []
    for k, (lo, hi) in enumerate([(0, 1500), (1500, 2500), (2500, 3100), (3100, 4000)]):
        with_3d = [k != 1 or t % 3 == 0 for t in range(lo, hi)]
        frames = [
            FramePair(Pose2D(points[t, :, :2], Space.IMAGE), Pose3D(points[t], Frame.CAMERA) if has else None, t)
            for t, has in zip(range(lo, hi), with_3d)
        ]
        sequences.append(PoseSequence("S1", f"a{k}", "cam0", 50.0, frames, skeleton))
    largest_pool = 1500 * skeleton.n_joints * 3 * 8
    tracemalloc.start()
    try:
        summary = joint_scatter_extent(sequences, "3d-root-relative")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.n_samples == 3334 * skeleton.n_joints
    assert peak <= 2.0 * largest_pool, peak / largest_pool
    largest_directions = 1500 * 3 * 8
    tracemalloc.start()
    try:
        directions = body_orientation_distribution(sequences)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert directions.n_samples + directions.n_degenerate == 3334
    assert peak <= 8.5 * largest_directions, peak / largest_directions


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=40, derandomize=True, database=None, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    sizes=st.lists(st.one_of(st.integers(0, 30), st.just(1), st.integers(8193, 9000)), min_size=1, max_size=5),
    width=st.sampled_from([2, 3]),
    values=st.sampled_from(["signed-zeros", "mixed", "normal"]),
    constant=st.sampled_from([None, -0.0, 0.0, 2.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_summary_of_blocks_is_the_summary_of_the_pooled_samples(sizes, width, values, constant, seed):
    """Bounds, mean and histograms carried across blocks keep the bits of
    the one-block summary, which keeps those of numpy's reductions of the
    pooled array: -0.0 and 0.0 included, one-row blocks, blocks longer than
    numpy's 8192-element buffer and an axis with one value."""
    rng = np.random.default_rng(seed)
    blocks = []
    for n in sizes:
        block = rng.normal(size=(n, width)) * 10.0 ** rng.integers(-3, 4)
        if values != "normal":
            zeros = np.where(rng.random((n, width)) < 0.5, -0.0, 0.0)
            block = zeros if values == "signed-zeros" else np.where(rng.random((n, width)) < 0.3, zeros, block)
        if constant is not None:
            block[:, 0] = constant
        blocks.append(block)
    pooled = np.concatenate(blocks)
    streamed = DistributionSummary.from_blocks(lambda: iter(blocks), width)
    whole = summary_of(pooled)
    assert streamed.n_samples == whole.n_samples == len(pooled)
    assert _same_bits(samples_of(streamed), pooled)
    if not len(pooled):
        assert streamed.bounds is whole.bounds is None
        return
    assert _same_bits(whole.bounds, np.stack([pooled.min(axis=0), pooled.max(axis=0)], axis=1))
    assert _same_bits(whole.mean, pooled.mean(axis=0))
    assert _same_bits(streamed.bounds, whole.bounds)
    assert _same_bits(streamed.mean, whole.mean)
    for axis, (mine, theirs) in enumerate(zip(streamed.histograms, whole.histograms)):
        assert _same_bits(mine.edges, theirs.edges)
        assert np.array_equal(mine.counts, theirs.counts)
        assert np.array_equal(theirs.counts, np.histogram(pooled[:, axis], bins=theirs.edges)[0])
        assert mine.counts.sum() == len(pooled)


def test_write_samples_csv_round_trip(tmp_path):
    samples = np.array([[1.0, 2.5, -3.25], [0.1, 0.2, 0.3]])
    summary = summary_of(samples)
    path = tmp_path / "samples.csv"
    write_samples_csv(summary, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,z"
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(parsed, samples)


# Per-frame reference versions of the three distributions, kept here to pin
# the batched ones bit for bit.
def _reference_pelvis(sequences, intrinsics):
    from canonpose.canonical import batch_project_centered

    xy, image = [], []
    for seq in sequences:
        root = seq.skeleton.root_index
        for pose_2d, pose_3d in zip(rows_of(seq, 2), rows_of(seq, 3)):
            if pose_3d is not None:
                xy.append(pose_3d[root, :2])
            if pose_2d is not None:
                image.append(pose_2d[root])
            elif pose_3d is not None and intrinsics is not None:
                centered = seq.frame_3d is Frame.CANONICAL_CAMERA
                project = batch_project_centered if centered else batch_project
                image.append(project(pose_3d[root], intrinsics))
    return np.array(xy), np.array(image)


def _reference_orientation(sequences):
    directions, degenerate = [], 0
    for seq in sequences:
        skel = seq.skeleton
        for joints in rows_of(seq, 3):
            if joints is None:
                continue
            across = joints[skel.left_hip_index] - joints[skel.right_hip_index]
            up = joints[skel.torso_index] - joints[skel.root_index]
            cross = np.cross(across, up)
            norm = np.linalg.norm(cross)
            if norm <= 1e-12:
                degenerate += 1
            else:
                directions.append(cross / norm)
    return np.array(directions), degenerate


def _reference_scatter(sequences, mode):
    pools = []
    for seq in sequences:
        root = seq.skeleton.root_index
        for pose_2d, pose_3d in zip(rows_of(seq, 2), rows_of(seq, 3)):
            if mode == "2d" and pose_2d is not None:
                pools.append(pose_2d)
            elif mode == "3d-root-relative" and pose_3d is not None:
                pools.append(pose_3d - pose_3d[root])
    return np.concatenate(pools, axis=0)


def test_distributions_match_per_frame_reference_bit_for_bit(pose_batch, intrinsics, skeleton):
    pts = pose_batch(40, seed=46)
    pix = batch_project(pts, intrinsics)
    flat = pts[7].copy()
    flat[skeleton.torso_index] = flat[skeleton.root_index] + 2.5 * (
        flat[skeleton.left_hip_index] - flat[skeleton.right_hip_index]
    )
    points = pts.copy()
    points[7] = flat
    kind = np.arange(40) % 3
    mixed = sequence_of(("S1", "mixed", "cam0"), skeleton, range(40), pix, points, has_2d=kind != 1, has_3d=kind != 0)
    canonical = canonicalize_dataset([make_sequence(pose_batch, intrinsics, skeleton, n=9, seed=47)], intrinsics, "3d-path")[0]
    bare_canonical = sequence_of(
        ("S2", "bare", "cam0"), skeleton, canonical.frame_numbers(), None, canonical.joints_3d(),
        frame_3d=canonical.frame_3d,
    )
    sequences = [mixed, canonical, bare_canonical]

    xy, image = pelvis_position_distribution(sequences, intrinsics)
    ref_xy, ref_image = _reference_pelvis(sequences, intrinsics)
    assert _same_bits(samples_of(xy), ref_xy)
    assert _same_bits(samples_of(image), ref_image)
    assert _same_bits(xy.mean, ref_xy.mean(axis=0))

    orientation = body_orientation_distribution(sequences)
    ref_directions, ref_degenerate = _reference_orientation(sequences)
    assert ref_degenerate == orientation.n_degenerate == 1
    assert _same_bits(samples_of(orientation), ref_directions)

    for mode in ("2d", "3d-root-relative"):
        assert _same_bits(samples_of(joint_scatter_extent(sequences, mode)), _reference_scatter(sequences, mode))
