"""Skeleton metadata: joint names, the root and orientation joints, and the
bone tree.

One skeleton ships by default: ``h36m17``, the common 17-joint layout with
the pelvis as root. Additional skeletons can be registered at runtime; data
files name their skeleton in the optional header line and the CLI selects one
with ``--skeleton``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Skeleton:
    """Joint layout shared by every frame of a sequence.

    ``edges`` must form a tree rooted at ``root_index``, listed as
    (parent, child) pairs. The root, hip, and torso indices are the joints
    the orientation statistics are built from and must be distinct.
    """

    name: str
    joint_names: tuple[str, ...]
    root_index: int
    left_hip_index: int
    right_hip_index: int
    torso_index: int
    edges: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "joint_names", tuple(str(n) for n in self.joint_names))
        object.__setattr__(
            self, "edges", tuple((int(p), int(c)) for p, c in self.edges)
        )
        n = len(self.joint_names)
        if n < 1:
            raise ValueError("skeleton needs at least one joint")
        marked = (self.root_index, self.left_hip_index, self.right_hip_index, self.torso_index)
        for index in marked:
            if not 0 <= index < n:
                raise ValueError(f"joint index {index} out of range [0, {n})")
        if len(set(marked)) != 4:
            raise ValueError("root, hip, and torso indices must be distinct")
        if len(self.edges) != n - 1:
            raise ValueError(f"a tree over {n} joints needs {n - 1} edges, got {len(self.edges)}")
        children = [child for _, child in self.edges]
        if self.root_index in children:
            raise ValueError("the root joint cannot be a child")
        if len(set(children)) != len(children):
            raise ValueError("a joint appears as a child of two parents")
        for parent, child in self.edges:
            if not (0 <= parent < n and 0 <= child < n):
                raise ValueError(f"edge ({parent}, {child}) out of range [0, {n})")
        # Breadth first from the root, ``ordered`` being its own queue. With one
        # parent per joint no edge comes twice, so reaching n - 1 means a tree.
        ordered = [edge for edge in self.edges if edge[0] == self.root_index]
        for _, child in ordered:
            ordered += [edge for edge in self.edges if edge[0] == child]
        if len(ordered) != n - 1:
            missing = sorted(set(range(n)) - {self.root_index, *(child for _, child in ordered)})
            raise ValueError(f"joints {missing} are not reachable from the root")
        object.__setattr__(self, "_topological_edges", tuple(ordered))

    @property
    def n_joints(self) -> int:
        return len(self.joint_names)

    @property
    def topological_edges(self) -> tuple[tuple[int, int], ...]:
        """Edges ordered so every parent appears before its children: breadth
        first from the root, each joint's edges in ``edges`` order."""
        return self._topological_edges


H36M17 = Skeleton(
    name="h36m17",
    joint_names=(
        "pelvis",
        "right_hip",
        "right_knee",
        "right_ankle",
        "left_hip",
        "left_knee",
        "left_ankle",
        "spine",
        "thorax",
        "neck",
        "head",
        "left_shoulder",
        "left_elbow",
        "left_wrist",
        "right_shoulder",
        "right_elbow",
        "right_wrist",
    ),
    root_index=0,
    left_hip_index=4,
    right_hip_index=1,
    torso_index=7,
    edges=(
        (0, 1),
        (1, 2),
        (2, 3),
        (0, 4),
        (4, 5),
        (5, 6),
        (0, 7),
        (7, 8),
        (8, 9),
        (9, 10),
        (8, 11),
        (11, 12),
        (12, 13),
        (8, 14),
        (14, 15),
        (15, 16),
    ),
)

_REGISTRY: dict[str, Skeleton] = {H36M17.name: H36M17}


def get_skeleton(name: str) -> Skeleton:
    """Look a skeleton up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown skeleton {name!r} (known: {known})") from None


def register_skeleton(skeleton: Skeleton) -> None:
    """Add a skeleton to the registry (replacing any same-named entry)."""
    _REGISTRY[skeleton.name] = skeleton


def available_skeletons() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))
