"""Canonical-domain geometry toolkit for 2D-3D human pose mapping.

Core idea: a pose observed off the optical axis projects differently from
the same pose on-axis, so 2D-to-3D lifting trained on raw image coordinates
must memorize where in the frame each pose sat. Rotating every sample into a
canonical camera frame — root ray aligned with the optical axis — removes
that dependence. This package provides the camera model, the 3D and 2D
canonicalization paths (and the exact back-transform), evaluation metrics,
NDJSON dataset handling, distribution statistics, a synthetic pose
generator, a linear lifting study that measures the effect, and a batch CLI
over all of it.
"""

from .camera import (
    CameraExtrinsics,
    CameraIntrinsics,
    Frame,
    Pose2D,
    Pose3D,
    Space,
    load_camera_json,
)
from .canonical import residual_offset
from .dataset import (
    FramePair,
    PoseSequence,
    WindowSpec,
    canonicalize_dataset,
    load_sequences,
    save_sequences,
    window,
)
from .errors import (
    AntiparallelError,
    BehindCameraError,
    DataError,
    DegenerateShapeError,
    DegenerateVectorError,
    DimensionMismatchError,
    GeometryError,
    ParseError,
    SchemaError,
    SequenceCanonicalizationError,
    SingularMatrixError,
)
from .lift import LiftingStudyConfig, StudyReport, run_study
from .metrics import SimilarityTransform, mpjpe, p_mpjpe, procrustes_align
from .skeleton import H36M17, Skeleton, available_skeletons, get_skeleton
from .stats import (
    DistributionSummary,
    body_orientation_distribution,
    joint_scatter_extent,
    pelvis_position_distribution,
)
from .synth import Box3, SynthConfig

__version__ = "0.1.0"

__all__ = [
    "AntiparallelError",
    "BehindCameraError",
    "Box3",
    "CameraExtrinsics",
    "CameraIntrinsics",
    "DataError",
    "DegenerateShapeError",
    "DegenerateVectorError",
    "DimensionMismatchError",
    "DistributionSummary",
    "Frame",
    "FramePair",
    "GeometryError",
    "H36M17",
    "LiftingStudyConfig",
    "ParseError",
    "Pose2D",
    "Pose3D",
    "PoseSequence",
    "SchemaError",
    "SequenceCanonicalizationError",
    "SimilarityTransform",
    "SingularMatrixError",
    "Skeleton",
    "Space",
    "StudyReport",
    "SynthConfig",
    "WindowSpec",
    "available_skeletons",
    "body_orientation_distribution",
    "canonicalize_dataset",
    "get_skeleton",
    "joint_scatter_extent",
    "load_camera_json",
    "load_sequences",
    "mpjpe",
    "p_mpjpe",
    "pelvis_position_distribution",
    "procrustes_align",
    "residual_offset",
    "run_study",
    "save_sequences",
    "window",
    "__version__",
]
