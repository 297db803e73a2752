"""In-memory spans around calls into canonpose's layers.

Nothing under ``src/`` is edited: :class:`Tracer` replaces a module attribute
(the name a caller looks a function up by, such as
``canonpose.cli.load_sequences``) with a wrapper that records a span, and
puts the original back on :meth:`Tracer.uninstall`. Only functions called
once per batch or per sequence are wrapped; per-frame work stays in its
caller's self time.

A span's parent is the innermost open span of its own thread. A span opened
on a thread with nothing open (a worker of ``canonicalize_dataset``'s pool)
takes the innermost open span of the thread that installed the tracer,
which is blocked in the pool while its workers run.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from dataclasses import dataclass, field


def _load_measure(args, kwargs, result) -> dict:
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path), "frames": sum(seq.n_frames for seq in result)}


def _serialize_measure(args, kwargs, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


def _generate_measure(args, kwargs, result) -> dict:
    return {"poses": int(result.shape[0])}


_MEASURES = {
    "dataset.load_sequences": _load_measure,
    "dataset.serialize_sequences": _serialize_measure,
    "synth.generate_pose_array": _generate_measure,
}

# (module the caller lives in, attribute the caller looks up, span name).
WRAP_SITES = (
    ("canonpose.cli", "load_sequences", "dataset.load_sequences"),
    ("canonpose.cli", "serialize_sequences", "dataset.serialize_sequences"),
    ("canonpose.cli", "canonicalize_dataset", "dataset.canonicalize_dataset"),
    ("canonpose.cli", "window", "dataset.window"),
    ("canonpose.cli", "pelvis_position_distribution", "stats.pelvis_position_distribution"),
    ("canonpose.cli", "body_orientation_distribution", "stats.body_orientation_distribution"),
    ("canonpose.cli", "joint_scatter_extent", "stats.joint_scatter_extent"),
    ("canonpose.cli", "mpjpe", "metrics.mpjpe"),
    ("canonpose.cli", "p_mpjpe", "metrics.p_mpjpe"),
    ("canonpose.cli", "run_study", "lift.run_study"),
    ("canonpose.cli", "dumps", "jsonfmt.dumps"),
    ("canonpose.dataset", "batch_canonicalize_3d", "canonical.batch_canonicalize_3d"),
    ("canonpose.dataset", "batch_canonicalize_2d", "canonical.batch_canonicalize_2d"),
    ("canonpose.dataset", "batch_project_centered", "canonical.batch_project_centered"),
    ("canonpose.lift", "generate_pose_array", "synth.generate_pose_array"),
    ("canonpose.lift", "batch_project", "camera.batch_project"),
    ("canonpose.lift", "batch_canonicalize_3d", "canonical.batch_canonicalize_3d"),
    ("canonpose.lift", "batch_canonicalize_2d", "canonical.batch_canonicalize_2d"),
    ("canonpose.lift", "batch_project_centered", "canonical.batch_project_centered"),
    ("canonpose.lift", "batch_back_transform", "canonical.batch_back_transform"),
    ("canonpose.lift", "mpjpe", "metrics.mpjpe"),
    ("canonpose.lift", "p_mpjpe", "metrics.p_mpjpe"),
    ("canonpose.lift", "dumps", "jsonfmt.dumps"),
)

ROOT_SPAN = "cli.run"
SPAN_NAMES = (ROOT_SPAN,) + tuple(dict.fromkeys(name for _, _, name in WRAP_SITES))


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the wrapped call sites while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._home = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        home = self._stacks.get(self._home)
        parent = stack[-1] if stack else (home[-1] if home else None)
        with self._lock:
            self.spans.append(Span(name, time.perf_counter(), parent))
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int, counts: dict | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if counts:
            span.counts = counts
        self._stacks[threading.get_ident()].pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(index)
            raise
        measure = _MEASURES.get(name)
        self._close(index, measure(args, kwargs, result) if measure else None)
        return result

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module_name, attr, name in WRAP_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _union_length(intervals) -> float:
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - _union_length(
            (max(s, span.start), min(e, span.end)) for s, e in children.get(i, ()))
        for i, span in enumerate(spans)
    ]


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: inclusive seconds, self seconds, calls and counts."""
    own = self_times(spans)
    out = {name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in SPAN_NAMES}
    for span, self_s in zip(spans, own):
        entry = out[span.name]
        entry["s"] += span.duration
        entry["self_s"] += self_s
        entry["calls"] += 1
        for key, value in span.counts.items():
            entry[key] = entry.get(key, 0) + value
    return out


def unaccounted(spans: list[Span]) -> float:
    """Largest |root duration - (root self time + its direct children)|.

    Direct children of a root span run one after another on the root's
    thread, so their durations plus the root's self time must add up to the
    root's duration; a gap means a span was lost or mis-parented.
    """
    own = self_times(spans)
    direct: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            direct[span.parent] = direct.get(span.parent, 0.0) + span.duration
    return max(
        (abs(span.duration - own[i] - direct.get(i, 0.0))
         for i, span in enumerate(spans) if span.parent is None),
        default=0.0,
    )
