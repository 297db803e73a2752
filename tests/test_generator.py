"""Golden test: ``generate_pose_array`` against a per-pose reference generator.

The reference below is the straightforward form of the generator: a fresh
``pose_rng(seed, index)`` for every pose, one ``uniform`` or
``standard_normal`` call per quantity, and every vector an (..., 3) array
rotated by ``np.cross`` and ``np.sum``. The per-pose draw order it fixes (6 + E
uniforms, E x 3 standard normals, E uniforms) is the generator's output
contract; the production generator must reproduce it bit for bit on every pose.
"""

import numpy as np
import pytest

from canonpose.skeleton import H36M17, Skeleton
from canonpose.synth import (
    BONE_LENGTH_JITTER,
    MAX_BODY_TILT,
    MAX_BONE_SWING,
    STREAM_SPAN,
    _POSE_ROWS,
    Box3,
    SynthConfig,
    _build_poses,
    _rest_template,
    generate_pose_array,
    pose_rng,
)

TOP_SEED = 2**64 - 1


def _rotate_about_axes(vectors: np.ndarray, axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rotate (..., 3) vectors by per-row angles about per-row unit axes."""
    cos = np.cos(angles)[..., None]
    sin = np.sin(angles)[..., None]
    dot = np.sum(axes * vectors, axis=-1, keepdims=True)
    return vectors * cos + np.cross(axes, vectors) * sin + axes * dot * (1.0 - cos)


def reference_generate(config, skeleton, stream=0):
    n, e = config.n_poses, len(skeleton.topological_edges)
    roots = np.empty((n, 3))
    yaws = np.empty(n)
    lean_azimuths = np.empty(n)
    lean_angles = np.empty(n)
    jitters = np.empty((n, e))
    axes = np.empty((n, e, 3))
    angles = np.empty((n, e))
    base = stream * STREAM_SPAN
    low, span = config.root_region.low, config.root_region.high - config.root_region.low
    for i in range(n):
        rng = pose_rng(config.seed, base + i)
        roots[i] = low + rng.uniform(size=3) * span
        yaws[i] = rng.uniform(0.0, 2.0 * np.pi)
        lean_azimuths[i] = rng.uniform(0.0, 2.0 * np.pi)
        lean_angles[i] = rng.uniform(0.0, MAX_BODY_TILT)
        jitters[i] = rng.uniform(-BONE_LENGTH_JITTER, BONE_LENGTH_JITTER, size=e)
        axes[i] = rng.standard_normal(size=(e, 3))
        angles[i] = rng.uniform(0.0, MAX_BONE_SWING, size=e)
    return reference_build(config, skeleton, roots, yaws, lean_azimuths, lean_angles, jitters, axes, angles)


def reference_build(config, skeleton, roots, yaws, lean_azimuths, lean_angles, jitters, axes, angles):
    """The (n, J, 3) poses of n poses' drawn quantities."""
    edges = skeleton.topological_edges
    rest_dirs, rest_lens = _rest_template(skeleton)
    n, e = len(roots), len(edges)
    norms = np.linalg.norm(axes, axis=-1, keepdims=True)
    axes = np.where(norms > 1e-12, axes / np.where(norms > 0, norms, 1.0), [0.0, 0.0, 1.0])
    lengths = rest_lens * config.limb_scale * (1.0 + jitters)
    directions = _rotate_about_axes(np.broadcast_to(rest_dirs, (n, e, 3)), axes, angles)
    bones = lengths[..., None] * directions

    cos_y, sin_y = np.cos(yaws), np.sin(yaws)
    yawed = np.empty_like(bones)
    yawed[..., 0] = cos_y[:, None] * bones[..., 0] + sin_y[:, None] * bones[..., 2]
    yawed[..., 1] = bones[..., 1]
    yawed[..., 2] = -sin_y[:, None] * bones[..., 0] + cos_y[:, None] * bones[..., 2]
    lean_axes = np.stack([np.cos(lean_azimuths), np.zeros(n), np.sin(lean_azimuths)], axis=-1)
    leaned = _rotate_about_axes(yawed, lean_axes[:, None, :], lean_angles[:, None])

    joints = np.zeros((n, skeleton.n_joints, 3))
    joints[:, skeleton.root_index] = roots
    for i, (parent, child) in enumerate(edges):
        joints[:, child] = joints[:, parent] + leaned[:, i]
    return joints


def _spiral_skeleton():
    """A non-h36m17 skeleton, so E != 16 and the golden-spiral template is used."""
    return Skeleton(
        name="chain6",
        joint_names=("root", "left_hip", "right_hip", "torso", "neck", "head"),
        root_index=0,
        left_hip_index=1,
        right_hip_index=2,
        torso_index=3,
        edges=((0, 1), (0, 2), (0, 3), (3, 4), (4, 5)),
    )


@pytest.mark.parametrize("seed", [0, TOP_SEED], ids=["seed-0", "seed-top"])
@pytest.mark.parametrize("stream", [0, 1, 2])
def test_generator_matches_per_pose_reference(seed, stream):
    configs = (
        (SynthConfig(seed=seed, n_poses=300), H36M17),
        (SynthConfig(seed=seed, n_poses=300, limb_scale=0.85, root_region=Box3((-2, 0.5, 6), (-1, 1.5, 9))), H36M17),
        (SynthConfig(seed=seed, n_poses=300, limb_scale=1.3), _spiral_skeleton()),
    )
    for config, skeleton in configs:
        got = generate_pose_array(config, skeleton, stream=stream)
        want = reference_generate(config, skeleton, stream=stream)
        assert got.shape == want.shape
        for index in range(config.n_poses):
            assert np.array_equal(got[index], want[index]), f"{skeleton.name} pose {index} differs"


def test_generator_builds_one_philox_per_call(monkeypatch):
    philox = np.random.Philox
    built = []

    def counting(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    generate_pose_array(SynthConfig(seed=3, n_poses=50), H36M17, stream=1)
    assert len(built) == 1


def test_generator_blocks_match_per_pose_reference():
    # Two full blocks and a ragged one of 3 poses.
    config = SynthConfig(seed=11, n_poses=2 * _POSE_ROWS + 3)
    got = generate_pose_array(config, H36M17, stream=1)
    assert got.tobytes() == reference_generate(config, H36M17, stream=1).tobytes()


@pytest.mark.parametrize("m", [1, _POSE_ROWS - 1, _POSE_ROWS, _POSE_ROWS + 1])
def test_build_poses_matches_reference_bit_for_bit(m):
    config = SynthConfig(seed=0, n_poses=m, limb_scale=1.1, root_region=Box3((-2, 0.5, 6), (-1, 1.5, 9)))
    e = len(H36M17.topological_edges)
    rng = np.random.default_rng(m)
    heads, axes, swings = rng.random((m, 6 + e)), rng.standard_normal((m, e, 3)), rng.random((m, e))
    # Swing axes with norm 0 and 1e-13 fall back to +z; one of 2e-12 is scaled.
    axes[0, 0] = 0.0
    axes[-1, 1] = [6e-14, 0.0, -8e-14]
    axes[-1, 2] = [0.0, 2e-12, 0.0]
    got = _build_poses(heads, axes, swings, config, H36M17, _rest_template(H36M17))

    def uniform(u, low, high):  # ``Generator.uniform``'s arithmetic
        return low + (high - low) * u

    low, high = config.root_region.low, config.root_region.high
    want = reference_build(
        config,
        H36M17,
        uniform(heads[:, :3], low, high),
        uniform(heads[:, 3], 0.0, 2.0 * np.pi),
        uniform(heads[:, 4], 0.0, 2.0 * np.pi),
        uniform(heads[:, 5], 0.0, MAX_BODY_TILT),
        uniform(heads[:, 6:], -BONE_LENGTH_JITTER, BONE_LENGTH_JITTER),
        axes,
        uniform(swings, 0.0, MAX_BONE_SWING),
    )
    assert got.shape == (m, H36M17.n_joints, 3)
    assert got.tobytes() == want.tobytes()
