import warnings

import numpy as np
import pytest

from canonpose.errors import DegenerateShapeError, DimensionMismatchError, GeometryError
from canonpose.metrics import _ALIGN_ROWS, SimilarityTransform, _surely_full_rank, mpjpe, p_mpjpe, procrustes_align


def _random_similarity(rng):
    scale = float(rng.uniform(0.5, 2.0))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    translation = rng.uniform(-1.0, 1.0, size=3)
    return scale, q, translation


def test_mpjpe_frozen_example():
    gt = np.zeros((4, 3))
    pred = np.zeros((4, 3))
    pred[:, 0] = 0.05
    assert mpjpe(pred, gt) == pytest.approx(0.05, abs=1e-15)


def test_mpjpe_does_not_recenter():
    rng = np.random.default_rng(0)
    pose = rng.normal(size=(17, 3))
    shift = np.array([0.3, -0.1, 0.2])
    assert mpjpe(pose + shift, pose) == pytest.approx(np.linalg.norm(shift), abs=1e-12)


def test_mpjpe_multi_frame_is_mean_of_frames():
    rng = np.random.default_rng(1)
    pred = rng.normal(size=(5, 17, 3))
    gt = rng.normal(size=(5, 17, 3))
    per_frame = [mpjpe(pred[t], gt[t]) for t in range(5)]
    assert mpjpe(pred, gt) == pytest.approx(np.mean(per_frame), abs=1e-12)


def test_mpjpe_accepts_pose_lists(pose_batch):
    pts = pose_batch(3, seed=11)
    poses = list(pts)
    assert mpjpe(poses, poses) == 0.0
    with pytest.raises(DimensionMismatchError):
        mpjpe(pts, pts[:, :5])


@pytest.mark.filterwarnings("error")
def test_mpjpe_refuses_frames_whose_distance_is_not_finite():
    rng = np.random.default_rng(4)
    pred = rng.normal(size=(6, 17, 3))
    gt = rng.normal(size=(6, 17, 3))
    assert mpjpe(pred, gt) == float(np.mean(np.linalg.norm(pred - gt, axis=-1)))
    # A square that overflows, an inf joint and a nan joint.
    gt[1] *= 1e160
    pred[3, 5, 0] = np.inf
    gt[4, 0, 2] = np.nan
    with pytest.raises(GeometryError) as excinfo:
        mpjpe(pred, gt)
    assert str(excinfo.value) == "the joint distance is not finite in 3 frame(s) (at positions [1, 3, 4])"
    assert excinfo.value.indices == (1, 3, 4)


def test_p_mpjpe_recovers_similarity(pose_batch):
    rng = np.random.default_rng(2)
    gt = pose_batch(20, seed=12)
    scale, rotation, translation = _random_similarity(rng)
    # pred differs from gt by an exact similarity, so alignment must cancel it.
    pred = (gt / scale) @ rotation - (rotation.T @ translation / scale)
    assert p_mpjpe(pred, gt) < 1e-9
    assert mpjpe(pred, gt) > 0.1


def test_procrustes_is_least_squares_optimal(pose_batch):
    rng = np.random.default_rng(3)
    gt = pose_batch(1, seed=13)[0]
    pred = gt + rng.normal(scale=0.1, size=gt.shape)
    aligned, transform = procrustes_align(pred, gt)
    best = np.sum((aligned - gt) ** 2)
    assert np.allclose(aligned, transform.scale * pred @ transform.rotation.T + transform.translation, atol=1e-12)
    for _ in range(200):
        s, q, t = _random_similarity(rng)
        candidate = np.sum((s * pred @ q.T + t - gt) ** 2)
        assert best <= candidate + 1e-12


def test_p_mpjpe_never_exceeds_mpjpe_on_random_pairs():
    rng = np.random.default_rng(4)
    for _ in range(50):
        pred = rng.normal(size=(17, 3))
        gt = rng.normal(size=(17, 3))
        assert p_mpjpe(pred, gt) <= mpjpe(pred, gt) + 1e-12


def test_p_mpjpe_is_invariant_to_gt_similarity(pose_batch):
    rng = np.random.default_rng(5)
    gt = pose_batch(10, seed=14)
    pred = gt + rng.normal(scale=0.05, size=gt.shape)
    base = p_mpjpe(pred, gt)
    scale, rotation, translation = _random_similarity(rng)
    moved_pred = scale * pred @ rotation.T + translation
    assert p_mpjpe(moved_pred, gt) == pytest.approx(base, abs=1e-9)


def test_p_mpjpe_refuses_a_frame_whose_joint_means_overflow_without_a_warning():
    # Pred frame 0 is finite, at +1.5e308 in its first nine joints and
    # -1.5e308 in the rest: its joint means overflow, so its centered joints
    # are not finite. It warned, and its SVD made LAPACK print to stdout.
    gt = np.random.default_rng(62).normal(size=(2, 17, 3))
    pred = gt.copy()
    pred[0] = np.where(np.arange(17) < 9, 1.5e308, -1.5e308)[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError, match="the fitted alignment scale is not positive and finite") as excinfo:
            p_mpjpe(pred, gt)
    assert excinfo.value.indices == (0,)


def test_degenerate_shapes_are_rejected():
    line = np.outer(np.arange(5.0), np.array([1.0, 2.0, 0.5]))
    with pytest.raises(DegenerateShapeError) as excinfo:
        p_mpjpe(line, line + 0.1)
    assert excinfo.value.indices == (0,)
    with pytest.raises(DegenerateShapeError):
        p_mpjpe(np.random.default_rng(6).normal(size=(5, 3)), line)
    with pytest.raises(DimensionMismatchError):
        p_mpjpe(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(DimensionMismatchError, match=r"^pred must have shape \(T, J, 3\), got \(2, 5, 2\)$"):
        p_mpjpe(np.zeros((2, 5, 2)), np.zeros((2, 5, 2)))
    with pytest.raises(DimensionMismatchError, match="^procrustes_align takes single poses; use p_mpjpe for sequences$"):
        procrustes_align(np.ones((2, 5, 3)), np.ones((2, 5, 3)))


def test_procrustes_pose_round_trip(pose_batch):
    gt = pose_batch(1, seed=15)[0]
    pred = gt[::-1].copy()
    aligned, transform = procrustes_align(pred, gt)
    assert isinstance(aligned, np.ndarray) and aligned.shape == gt.shape
    assert np.allclose(transform.scale * pred @ transform.rotation.T + transform.translation, aligned, atol=1e-12)
    assert transform.scale > 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape", [(0, 17, 3), (4, 0, 3)], ids=["no-frames", "no-joints"])
@pytest.mark.parametrize("metric", [mpjpe, p_mpjpe], ids=["mpjpe", "p_mpjpe"])
def test_an_empty_pair_is_refused(metric, shape):
    with pytest.raises(DimensionMismatchError) as excinfo:
        metric(np.zeros(shape), np.zeros(shape))
    assert str(excinfo.value) == f"pred and gt hold no joints (shape {shape})"


def test_similarity_transform_validation():
    with pytest.raises(ValueError):
        SimilarityTransform(0.0, np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        SimilarityTransform(1.0, -np.eye(3), np.zeros(3))


# ---------------------------------------------------------------------------
# Blocks: p_mpjpe aligns _ALIGN_ROWS frames at a time, with the result and
# the refusals of one batch.
# ---------------------------------------------------------------------------


def reference_p_mpjpe(pred, gt):
    """``p_mpjpe`` as one batch, every frame checked and aligned at once."""
    pred, gt = np.asarray(pred, dtype=np.float64), np.asarray(gt, dtype=np.float64)
    j = pred.shape[1]
    if j < 3:
        raise DimensionMismatchError(f"similarity alignment needs at least 3 joints, got {j}")
    nonfinite = ~(np.isfinite(pred).all(axis=(1, 2)) & np.isfinite(gt).all(axis=(1, 2)))
    if nonfinite.any():
        raise GeometryError(f"joints are not finite in {int(nonfinite.sum())} frame(s)", indices=np.nonzero(nonfinite)[0])
    mu_p, mu_g = pred.mean(axis=1), gt.mean(axis=1)
    p0, g0 = pred - mu_p[:, None], gt - mu_g[:, None]
    for name, centered in (("pred", p0), ("gt", g0)):
        sv = np.linalg.svd(centered, compute_uv=False)
        tol = max(j, 3) * np.finfo(np.float64).eps * sv[:, 0]
        degenerate = (sv[:, 1] <= tol) | (sv[:, 0] == 0.0)
        if degenerate.any():
            raise DegenerateShapeError(
                f"{name} joints are collinear in {int(degenerate.sum())} frame(s)", indices=np.nonzero(degenerate)[0]
            )
    cov = np.einsum("tji,tjk->tik", p0, g0)
    u, s, vt = np.linalg.svd(cov)
    sign = np.sign(np.linalg.det(u @ vt))
    vt_fixed = vt.copy()
    vt_fixed[:, 2, :] *= sign[:, None]
    rotations = np.matmul(vt_fixed.transpose(0, 2, 1), u.transpose(0, 2, 1))
    with np.errstate(divide="ignore"):
        scales = (s[:, 0] + s[:, 1] + sign * s[:, 2]) / np.einsum("tji,tji->t", p0, p0)
    unscaled = ~(np.isfinite(scales) & (scales > 0))
    if unscaled.any():
        raise GeometryError(
            f"the fitted alignment scale is not positive and finite in {int(unscaled.sum())} frame(s)",
            indices=np.nonzero(unscaled)[0],
        )
    aligned = scales[:, None, None] * np.einsum("tij,tkj->tki", rotations, p0) + mu_g[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        errors = np.linalg.norm(aligned - gt, axis=-1)
    unbounded = ~np.isfinite(errors).all(axis=-1)
    if unbounded.any():
        raise GeometryError(
            f"the aligned joint distance is not finite in {int(unbounded.sum())} frame(s)",
            indices=np.nonzero(unbounded)[0],
        )
    return float(np.mean(errors))


def _blocked_pair(seed):
    """Three full blocks of frames and a ragged tail of 17."""
    rng = np.random.default_rng(seed)
    gt = rng.normal(size=(3 * _ALIGN_ROWS + 17, 17, 3))
    return gt + rng.normal(scale=0.05, size=gt.shape), gt


def test_p_mpjpe_in_blocks_is_bit_equal_to_one_batch():
    pred, gt = _blocked_pair(21)
    assert p_mpjpe(pred, gt).hex() == reference_p_mpjpe(pred, gt).hex()
    unrelated = np.random.default_rng(22).normal(size=gt.shape)
    assert p_mpjpe(unrelated, gt).hex() == reference_p_mpjpe(unrelated, gt).hex()


def test_collinear_frames_in_two_blocks_are_refused_as_one_batch_refuses_them():
    pred, gt = _blocked_pair(23)
    clean_pred = pred.copy()
    line = np.outer(np.linspace(-0.5, 0.5, 17), [0.2, 0.9, -0.4])
    pred[[5, _ALIGN_ROWS + 7]] = line
    gt[[3, 2 * _ALIGN_ROWS + 1]] = line
    # Both sides collinear, gt in an earlier block: pred is still reported first.
    for p, g, name, indices in (
        (pred, gt, "pred", (5, _ALIGN_ROWS + 7)),
        (clean_pred, gt, "gt", (3, 2 * _ALIGN_ROWS + 1)),
    ):
        with pytest.raises(DegenerateShapeError) as got:
            p_mpjpe(p, g)
        with pytest.raises(DegenerateShapeError) as want:
            reference_p_mpjpe(p, g)
        assert (str(got.value), got.value.indices) == (str(want.value), want.value.indices)
        assert got.value.message == f"{name} joints are collinear in 2 frame(s)"
        assert got.value.indices == indices
    # Fewer than 3 joints is refused before any frame is checked.
    with pytest.raises(DimensionMismatchError, match="at least 3 joints, got 2"):
        p_mpjpe(np.zeros((2 * _ALIGN_ROWS, 2, 3)), np.zeros((2 * _ALIGN_ROWS, 2, 3)))


# ---------------------------------------------------------------------------
# The rank screen: frames it passes skip the collinearity SVD, every other
# frame is decided by the SVD, so results and refusals stay those of the SVD
# alone.
# ---------------------------------------------------------------------------


def _line(j=17, scale=1.0, offset=0.0):
    """A frame of j joints on one line, with the middle joint moved off it by
    ``offset`` times the line's length."""
    frame = np.outer(np.linspace(-0.5, 0.5, j), [0.2, 0.9, -0.4]) + [0.1, -0.3, 4.0]
    frame[j // 2] += offset * np.array([0.9, -0.2, 0.0])
    return frame * scale


_SCREEN_CASES = {
    **{f"collinear-offset-{offset:g}": _line(offset=offset) for offset in (0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 1.0)},
    "three-joints": np.array([[0.0, 0.0, 3.0], [0.4, 0.1, 3.2], [-0.2, 0.5, 3.1]]),
    "three-joints-collinear": _line(j=3),
    "all-zero": np.zeros((17, 3)),
    # Refused before the screen and the SVD, wherever the frame sits.
    "nan": np.where(np.arange(17)[:, None] == 4, np.nan, _line(offset=1.0)),
    # A pred frame's squared norm overflows and its fitted scale is 0, or
    # underflows and its fitted scale is infinite: either is refused. As gt,
    # the 1e160 and 1e200 frames' aligned distances overflow, also refused.
    "scale-1e160": _line(offset=1.0, scale=1e160),
    "scale-1e200": _line(offset=1.0, scale=1e200),
    "scale-1e-170": _line(offset=1.0, scale=1e-170),
    # Gram products in the subnormal range, then all of them underflowed.
    "scale-1e-80": _line(offset=1.0, scale=1e-80),
    "scale-1e-80-collinear": _line(scale=1e-80),
    "scale-1e-160": _line(offset=1.0, scale=1e-160),
}


# The cases whose fitted scale, as pred, is not positive and finite.
_UNSCALED = {"scale-1e160": 0.0, "scale-1e200": 0.0, "scale-1e-170": float("inf")}


def _outcome(metric, pred, gt):
    """``metric``'s value bits, or its refusal as (class, message, indices)."""
    try:
        return metric(pred, gt).hex()
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "indices", None)


def _procrustes_error(pred, gt) -> float:
    """The mean joint error after ``procrustes_align``."""
    aligned, _ = procrustes_align(pred, gt)
    return float(np.mean(np.linalg.norm(aligned - gt, axis=-1)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(_SCREEN_CASES))
def test_rank_screen_keeps_the_svd_outcome(case):
    frame = _SCREEN_CASES[case]
    j = len(frame)
    rng = np.random.default_rng(31)
    other = rng.normal(size=(j, 3)) + [0.0, 0.0, 4.0]
    # One frame either side, then the frame among ordinary ones.
    pairs = [(frame[None], other[None]), (other[None], frame[None])]
    batch = rng.normal(size=(40, j, 3))
    for position in (0, 17, 39):
        with_frame = batch.copy()
        with_frame[position] = frame
        pairs += [(with_frame, batch + 0.01), (batch + 0.01, with_frame)]
    for pred, gt in pairs:
        assert _outcome(p_mpjpe, pred, gt) == _outcome(reference_p_mpjpe, pred, gt)
    got = _outcome(_procrustes_error, frame, other)
    if case in _UNSCALED:
        # It passes the collinearity check, but SimilarityTransform refuses
        # its fitted scale, and p_mpjpe refuses the frame wherever it sits.
        assert got[:2] == (ValueError, f"scale must be positive and finite, got {_UNSCALED[case]}")
        for pred, gt in pairs[0::2]:
            position = int(np.nonzero((pred == frame).all(axis=(1, 2)))[0][0])
            assert _outcome(p_mpjpe, pred, gt) == (
                GeometryError,
                f"the fitted alignment scale is not positive and finite in 1 frame(s) (at positions [{position}])",
                (position,),
            )
    else:
        assert got == _outcome(reference_p_mpjpe, frame[None], other[None])


@pytest.mark.filterwarnings("error")
def test_one_block_mixes_screened_and_svd_checked_frames():
    rng = np.random.default_rng(32)
    pred = rng.normal(size=(_ALIGN_ROWS + 9, 17, 3))
    gt = pred + rng.normal(scale=0.05, size=pred.shape)
    # Near-collinear frames the SVD must decide: the first three pass it.
    for position, offset in ((3, 1e-6), (100, 1e-9), (101, 1e-12), (_ALIGN_ROWS + 2, 0.0)):
        pred[position] = _line(offset=offset)
    first = pred[:_ALIGN_ROWS]
    screened = _surely_full_rank(first - first.mean(axis=1, keepdims=True))
    assert screened.sum() == _ALIGN_ROWS - 3 and not screened[[3, 100, 101]].any()
    assert _outcome(p_mpjpe, first, gt[:_ALIGN_ROWS]) == _outcome(reference_p_mpjpe, first, gt[:_ALIGN_ROWS])
    got = _outcome(p_mpjpe, pred, gt)
    assert got == _outcome(reference_p_mpjpe, pred, gt)
    assert got[2] == (_ALIGN_ROWS + 2,)
    # Two more collinear frames in the first block: one refusal names all three.
    pred[[5, 7]] = _line(offset=1e-15), _line()
    got = _outcome(p_mpjpe, pred, gt)
    assert got == _outcome(reference_p_mpjpe, pred, gt)
    assert got[1].startswith("pred joints are collinear in 3 frame(s)")


@pytest.mark.filterwarnings("error")
def test_frames_that_are_not_finite_are_refused_before_any_svd(monkeypatch):
    rng = np.random.default_rng(34)
    pred = rng.normal(size=(2 * _ALIGN_ROWS + 5, 17, 3))
    gt = pred + rng.normal(scale=0.05, size=pred.shape)
    pred[3, 4, 0] = np.nan
    gt[_ALIGN_ROWS + 1, 0, 2] = np.inf
    pred[2 * _ALIGN_ROWS + 4, 16, 1] = -np.inf
    pred[7] = _line()  # collinear as well: the frames that are not finite are refused first

    def svd(*args, **kwargs):
        raise AssertionError("an SVD ran")

    monkeypatch.setattr(np.linalg, "svd", svd)
    positions = (3, _ALIGN_ROWS + 1, 2 * _ALIGN_ROWS + 4)
    want = (GeometryError, f"joints are not finite in 3 frame(s) (at positions {list(positions)})", positions)
    assert _outcome(p_mpjpe, pred, gt) == _outcome(reference_p_mpjpe, pred, gt) == want
    for position in positions:
        got = _outcome(procrustes_align, pred[position], gt[position])
        assert got == (GeometryError, "joints are not finite in 1 frame(s) (at positions [0])", (0,))


@pytest.mark.filterwarnings("error")
def test_alignments_that_overflow_are_refused_after_the_collinear_frames():
    # Pred and gt both 1e160 across: the cross-covariance overflows and has
    # no SVD, so the fitted scale is not finite. A gt 1e170 across against an
    # ordinary pred: the scale is finite and the aligned distances overflow.
    # Each is refused naming its frames, but only once no block, however
    # late, holds a collinear frame.
    rng = np.random.default_rng(35)
    pred = rng.normal(size=(2 * _ALIGN_ROWS + 5, 17, 3))
    gt = pred + rng.normal(scale=0.05, size=pred.shape)
    huge_pred, huge_gt = pred.copy(), gt.copy()
    huge_pred[3] *= 1e160
    huge_gt[3] *= 1e160
    far_gt = gt.copy()
    far_gt[_ALIGN_ROWS + 4] *= 1e170
    scale = "the fitted alignment scale is not positive and finite in 1 frame(s) (at positions [3])"
    distance = f"the aligned joint distance is not finite in 1 frame(s) (at positions [{_ALIGN_ROWS + 4}])"
    assert _outcome(p_mpjpe, huge_pred, huge_gt) == (GeometryError, scale, (3,))
    assert _outcome(p_mpjpe, pred, far_gt) == (GeometryError, distance, (_ALIGN_ROWS + 4,))
    got = _outcome(procrustes_align, huge_pred[3], huge_gt[3])
    assert got == (ValueError, "scale must be positive and finite, got inf", None)
    collinear = 2 * _ALIGN_ROWS + 1
    for p, g in ((huge_pred, huge_gt), (pred, far_gt)):
        p[collinear] = _line()
        want = (DegenerateShapeError, f"pred joints are collinear in 1 frame(s) (at positions [{collinear}])", (collinear,))
        assert _outcome(p_mpjpe, p, g) == want


def test_rank_screen_passes_ordinary_frames_and_no_doubtful_one():
    rng = np.random.default_rng(33)
    poses = rng.normal(size=(50, 17, 3))
    assert _surely_full_rank(poses - poses.mean(axis=1, keepdims=True)).all()
    doubtful = [frame for case, frame in _SCREEN_CASES.items() if len(frame) == 17 and case != "collinear-offset-1"]
    doubtful = np.stack(doubtful + [_line(offset=1e-4)])
    assert not _surely_full_rank(doubtful - doubtful.mean(axis=1, keepdims=True)).any()
