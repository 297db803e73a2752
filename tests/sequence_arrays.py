"""Test helpers that build and read a PoseSequence through arrays.

``sequence_of`` builds a sequence through the public constructor from
(T, J, 2) and (T, J, 3) joint arrays, and ``rebuilt`` builds one anew from
another's arrays; ``rows_of`` reads a channel back one frame at a time, for
references that work frame by frame.
"""

from canonpose.camera import Frame, Pose2D, Pose3D, Space
from canonpose.dataset import FramePair, PoseSequence


def sequence_of(key, skeleton, numbers, joints_2d=None, joints_3d=None, *, fps=50.0, frame_3d=Frame.CAMERA,
                has_2d=None, has_3d=None):
    """A sequence with frame numbers ``numbers``; frame t has a 2D pose (3D:
    in ``frame_3d``) where its joints are given and its mask, if any, is true."""
    def pose(joints, mask, t, make):
        return make(joints[t]) if joints is not None and (mask is None or mask[t]) else None

    frames = [
        FramePair(
            pose(joints_2d, has_2d, t, lambda joints: Pose2D(joints, Space.IMAGE)),
            pose(joints_3d, has_3d, t, lambda joints: Pose3D(joints, frame_3d)),
            number,
        )
        for t, number in enumerate(numbers)
    ]
    return PoseSequence(*key, fps, frames, skeleton)


def rows_of(seq, width):
    """The 2D (``width`` 2) or 3D joints of each frame, None where it has none."""
    joints, present = seq._channel(width)
    return [joints[t] if present[t] else None for t in range(seq.n_frames)]


def rebuilt(seq, key=None, fps=None, skeleton=None):
    """The frame numbers and joints of the raw sequence ``seq`` as a new
    sequence, with another key, fps or skeleton where one is given."""
    (joints_2d, has_2d), (joints_3d, has_3d) = seq._channel(2), seq._channel(3)
    return sequence_of(
        key or seq.key, skeleton or seq.skeleton, seq.frame_numbers(), joints_2d, joints_3d,
        fps=seq.fps if fps is None else fps, frame_3d=seq.frame_3d, has_2d=has_2d, has_3d=has_3d,
    )
