"""Exception types raised by the geometry, metric, and dataset layers.

Geometry failures subclass :class:`GeometryError` and data/ingestion failures
subclass :class:`DataError`; both are ``ValueError`` subclasses so callers that
do not care about the distinction can catch the built-in type.

Errors raised by batch operations carry an ``indices`` attribute listing every
offending position along the leading (frame or joint) axis, so a whole
sequence can be diagnosed from a single failure. Every ``DataError`` carries
a ``line_number``: the 1-based input line at fault, or None when no single
line is (a camera file, a whole sequence).
"""

from __future__ import annotations


def _with_indices(message: str, indices, label: str = "at positions") -> str:
    if indices is None:
        return message
    tail = ", ..." if len(indices) > 20 else ""
    return f"{message} ({label} {list(indices[:20])}{tail})"


class GeometryError(ValueError):
    """A geometric precondition was violated.

    ``message`` is the text without the position list, for callers that
    report the positions their own way.
    """

    def __init__(self, message: str, indices=None):
        self.message = message
        # Plain ints, so a message shows "[5]", not numpy's "[np.int64(5)]".
        self.indices = tuple(int(i) for i in indices) if indices is not None else None
        super().__init__(_with_indices(message, self.indices))


class BehindCameraError(GeometryError):
    """A point sits at or behind the camera plane (Z <= EPS_DEPTH)."""


class DegenerateVectorError(GeometryError):
    """A direction vector cannot be normalized: its norm is at most EPS_VEC
    or is not finite; or a joint's ray reprojects to canonical pixels that
    are not finite."""


class AntiparallelError(GeometryError):
    """The vector to align points opposite the target axis; the aligning
    rotation is not unique there, so the operation refuses to pick one."""


class DegenerateShapeError(GeometryError):
    """A joint configuration is rank-deficient (all joints collinear), so no
    unique alignment exists."""


class DimensionMismatchError(GeometryError):
    """Array shapes, joint counts, or sample counts do not agree."""


class SingularMatrixError(GeometryError):
    """An unregularized least-squares system has a singular normal matrix."""


class DataError(ValueError):
    """A data file or record could not be ingested."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message)
        self.line_number = line_number


class ParseError(DataError):
    """A line was not valid JSON."""


class SchemaError(DataError):
    """A record parsed as JSON but violated the pose-record schema."""


class SequenceCanonicalizationError(DataError):
    """One or more frames of a sequence could not be canonicalized; the whole
    sequence is rejected. ``frame_indices`` holds the 0-based positions of
    every offending frame within the sequence."""

    def __init__(self, message: str, frame_indices=()):
        indices = tuple(int(i) for i in frame_indices)
        super().__init__(_with_indices(message, indices or None, "frames"))
        self.frame_indices = indices
