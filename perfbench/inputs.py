"""Seeded benchmark inputs, built only through canonpose's public API.

One call to :func:`build_inputs` writes every workload's input files into a
directory and returns, beside the paths, the in-memory arrays the output
checks compare against. The seed decides every coordinate, the extrinsics
and the order of the sequences; it never decides how much work there is.
The sequence lengths are a fixed multiset, so the frame count, the window
count and the byte sizes (up to float text width) are the same for every
seed and runs on different seeds measure the same amount of work.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from canonpose.camera import CameraIntrinsics, Frame, Pose2D, Pose3D, Space, batch_project
from canonpose.dataset import FramePair, PoseSequence, canonicalize_dataset, save_sequences
from canonpose.skeleton import H36M17
from canonpose.synth import Box3, SynthConfig, generate_pose_array

# Uneven lengths, tens to thousands of frames: short ones exercise the
# padded window path, the long one dominates parse and serialize time.
SEQUENCE_LENGTHS = (24, 57, 130, 243, 310, 480, 656, 1100)
N_FRAMES = sum(SEQUENCE_LENGTHS)
SUBJECTS = ("S1", "S5", "S9", "S11")
ACTIONS = ("walk", "sit")
CAMERA_ID = "cam0"

# Roots up to ~36 degrees off the principal axis on both sides, so the
# canonical rotations are far from the identity.
ROOT_REGION = Box3((-1.8, -1.1, 2.5), (1.8, 1.1, 6.0))
# Off-centre principal point and fx != fy: nothing may rely on cx = W/2.
INTRINSICS = CameraIntrinsics(fx=1145.0, fy=1138.0, cx=562.0, cy=461.0, width=1000.0, height=1000.0)
# Predictions are the ground truth plus this much Gaussian noise per
# coordinate (meters).
PRED_NOISE_M = 0.02

SKELETON = H36M17


@dataclass(frozen=True)
class Inputs:
    """Paths of the generated files and the arrays they were made from."""

    camera: str
    world: str
    detections: str
    raw: str
    canon: str
    pred: str
    keys: tuple[tuple[str, str, str], ...]
    lengths: tuple[int, ...]
    camera_points: np.ndarray
    pred_points: np.ndarray

    @property
    def n_frames(self) -> int:
        return int(sum(self.lengths))


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] *= -1.0
    return q


def _sequences(keys, lengths, pixels, points, frame) -> list[PoseSequence]:
    out, start = [], 0
    for (subject, action, camera_id), n in zip(keys, lengths):
        frames = tuple(
            FramePair(
                Pose2D(pixels[i], Space.IMAGE) if pixels is not None else None,
                Pose3D(points[i], frame) if points is not None else None,
                i - start,
            )
            for i in range(start, start + n)
        )
        out.append(PoseSequence(subject, action, camera_id, 50.0, frames, SKELETON))
        start += n
    return out


def build_inputs(seed: int, directory: str) -> Inputs:
    """Write every workload's input files for ``seed`` into ``directory``."""
    rng = np.random.default_rng([seed, 0xBE7C])
    lengths = tuple(int(n) for n in rng.permutation(SEQUENCE_LENGTHS))
    keys = tuple((SUBJECTS[i // 2], ACTIONS[i % 2], CAMERA_ID) for i in range(len(lengths)))

    points = generate_pose_array(SynthConfig(seed=seed, n_poses=N_FRAMES, root_region=ROOT_REGION), SKELETON)
    pixels = batch_project(points, INTRINSICS)
    rotation = _random_rotation(rng)
    translation = rng.uniform(-2.0, 2.0, size=3)
    # P_world = R^T (P_camera - t), so the camera's R, t map it back.
    world = (points - translation) @ rotation
    pred = points + PRED_NOISE_M * rng.standard_normal(points.shape)

    os.makedirs(directory, exist_ok=True)
    path = {name: os.path.join(directory, name) for name in (
        "camera.json", "world.ndjson", "detections.ndjson", "raw.ndjson", "canon.ndjson", "pred.ndjson")}
    camera = dict(INTRINSICS.to_dict(), R=rotation.ravel().tolist(), t=translation.tolist())
    with open(path["camera.json"], "w", encoding="utf-8") as fh:
        json.dump(camera, fh)

    raw = _sequences(keys, lengths, pixels, points, Frame.CAMERA)
    save_sequences(_sequences(keys, lengths, pixels, world, Frame.GLOBAL), path["world.ndjson"])
    save_sequences(_sequences(keys, lengths, pixels, None, Frame.CAMERA), path["detections.ndjson"])
    save_sequences(raw, path["raw.ndjson"])
    save_sequences(canonicalize_dataset(raw, INTRINSICS, "3d-path", threads=1), path["canon.ndjson"])
    save_sequences(_sequences(keys, lengths, None, pred, Frame.CAMERA), path["pred.ndjson"])

    return Inputs(
        camera=path["camera.json"],
        world=path["world.ndjson"],
        detections=path["detections.ndjson"],
        raw=path["raw.ndjson"],
        canon=path["canon.ndjson"],
        pred=path["pred.ndjson"],
        keys=keys,
        lengths=lengths,
        camera_points=points,
        pred_points=pred,
    )
