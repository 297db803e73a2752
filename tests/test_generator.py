"""Golden test: ``generate_pose_array`` against a per-pose reference generator.

The reference below is the straightforward form of the generator: a fresh
``pose_rng(seed, index)`` for every pose and one ``uniform`` or
``standard_normal`` call per quantity. The per-pose draw order it fixes (6 + E
uniforms, E x 3 standard normals, E uniforms) is the generator's output
contract; the production generator must reproduce it bit for bit on every pose.
"""

import numpy as np
import pytest

from canonpose import skeleton as skeleton_module
from canonpose.skeleton import H36M17, Skeleton, get_skeleton, register_skeleton
from canonpose.synth import (
    BONE_LENGTH_JITTER,
    MAX_BODY_TILT,
    MAX_BONE_SWING,
    STREAM_SPAN,
    _POSE_ROWS,
    Box3,
    SynthConfig,
    _rest_template,
    _rotate_about_axes,
    generate_pose_array,
    pose_rng,
)

TOP_SEED = 2**64 - 1


def reference_generate(config, skeleton, stream=0):
    edges = skeleton.topological_edges
    rest_dirs, rest_lens = _rest_template(skeleton)
    n, e = config.n_poses, len(edges)

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
    """A registered non-h36m17 skeleton, so E != 16 and the golden-spiral template is used."""
    register_skeleton(
        Skeleton(
            name="chain6",
            joint_names=("root", "left_hip", "right_hip", "torso", "neck", "head"),
            root_index=0,
            left_hip_index=1,
            right_hip_index=2,
            torso_index=3,
            edges=((0, 1), (0, 2), (0, 3), (3, 4), (4, 5)),
        )
    )
    return get_skeleton("chain6")


@pytest.mark.parametrize("seed", [0, TOP_SEED], ids=["seed-0", "seed-top"])
@pytest.mark.parametrize("stream", [0, 1, 2])
def test_generator_matches_per_pose_reference(monkeypatch, seed, stream):
    monkeypatch.setattr(skeleton_module, "_REGISTRY", dict(skeleton_module._REGISTRY))  # undone after the test
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
