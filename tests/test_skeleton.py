import pytest

from canonpose.skeleton import H36M17, Skeleton


def _skeleton(n=4, marked=(0, 1, 2, 3), edges=((0, 1), (1, 2), (2, 3))):
    return Skeleton("test", tuple(f"j{i}" for i in range(n)), *marked, edges=edges)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(n=0), "skeleton needs at least one joint"),
        (dict(marked=(0, 1, 2, 4)), "joint index 4 out of range [0, 4)"),
        (dict(marked=(0, 1, 1, 3)), "root, hip, and torso indices must be distinct"),
        (dict(edges=((0, 1), (1, 2))), "a tree over 4 joints needs 3 edges, got 2"),
        (dict(edges=((1, 0), (1, 2), (2, 3))), "the root joint cannot be a child"),
        (dict(edges=((0, 1), (0, 2), (1, 2))), "a joint appears as a child of two parents"),
        (dict(edges=((0, 1), (1, 2), (2, 5))), "edge (2, 5) out of range [0, 4)"),
        (dict(edges=((0, 1), (2, 3), (3, 2))), "joints [2, 3] are not reachable from the root"),
    ],
    ids=["no-joints", "index-range", "not-distinct", "edge-count", "root-child", "two-parents", "edge-range",
         "unreachable"],
)
def test_every_skeleton_refusal(kwargs, message):
    with pytest.raises(ValueError) as excinfo:
        _skeleton(**kwargs)
    assert str(excinfo.value) == message


def test_h36m17_topological_edges_keep_their_order():
    # The generator draws limbs in this order, so it is part of its output.
    assert H36M17.topological_edges == (
        (0, 1), (0, 4), (0, 7), (1, 2), (4, 5), (7, 8), (2, 3), (5, 6),
        (8, 9), (8, 11), (8, 14), (9, 10), (11, 12), (14, 15), (12, 13), (15, 16),
    )


def test_topological_edges_put_parents_first_in_breadth_first_order():
    skeleton = _skeleton(n=6, edges=((3, 5), (0, 3), (1, 2), (0, 1), (3, 4)))
    assert skeleton.topological_edges == ((0, 3), (0, 1), (3, 5), (3, 4), (1, 2))
