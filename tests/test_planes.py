"""The x/y/z-plane kernels against the numpy calls they replaced, bit for bit.

Each output's bytes must match, NaN positions included, over sizes around
the 256-frame blocks, joint counts from 1 to 17, scales from 1e-150 to
1e150 and inputs that hold inf, -inf and NaN; and no kernel may warn where
the call it replaced did not.
"""

import warnings

import numpy as np
import pytest

from canonpose.camera import _xyz_norms
from canonpose.canonical import batch_back_transform, batch_rotate
from canonpose.metrics import _joint_means

SIZES = (1, 2, 255, 256, 257, 5000)
JOINTS = (1, 3, 17)
SCALES = (1e-150, 1e-20, 1.0, 1e20, 1e150)


def _rotations(rng, n):
    """(n, 3, 3) C-contiguous proper rotations, the first the identity, whose
    zeros times an inf give NaN."""
    q, r = np.linalg.qr(rng.normal(size=(n, 3, 3)))
    q *= np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    q[np.linalg.det(q) < 0] *= -1.0
    q[0] = np.eye(3)
    return np.ascontiguousarray(q)


def _points(rng, n, j, scale):
    """(n, j, 3) joints at ``scale``, with an inf, a -inf and a NaN in
    frames and joints of their own where there are enough."""
    points = rng.normal(size=(n, j, 3)) * scale
    points[0, 0, 0] = np.inf
    points[n // 2, j // 2, 1] = np.nan
    points[-1, -1, 2] = -np.inf
    return points


def _same_bits(got, want):
    """The same bytes but for the sign and payload of a NaN, which no output
    file can hold, and which follow the operand order of each addition."""
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def _cases():
    rng = np.random.default_rng(36)
    for n in SIZES:
        rotations = _rotations(rng, n)
        for j in JOINTS:
            for scale in SCALES:
                yield rotations, _points(rng, n, j, scale)


@pytest.fixture(autouse=True)
def _warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def test_batch_rotate_is_einsum_of_contiguous_rotations():
    for rotations, points in _cases():
        _same_bits(batch_rotate(rotations, points), np.einsum("nij,nkj->nki", rotations, points))


def test_batch_back_transform_is_einsum_of_the_transposed_rotations():
    for rotations, points in _cases():
        want = np.einsum("nij,nkj->nki", rotations.transpose(0, 2, 1), points)
        _same_bits(batch_back_transform(points, rotations), want)


def test_xyz_norms_are_linalg_norm_over_the_last_axis():
    for _, points in _cases():
        _same_bits(_xyz_norms(points), np.linalg.norm(points, axis=-1))
        # A strided (n, 3) view, as the root rows are read.
        _same_bits(_xyz_norms(points[:, -1]), np.linalg.norm(points[:, -1], axis=-1))


def test_joint_means_are_the_mean_over_the_joints():
    for _, points in _cases():
        _same_bits(_joint_means(points), points.mean(axis=1))
