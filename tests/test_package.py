import ast
import importlib
from pathlib import Path

import canonpose
from canonpose import camera, canonical, errors, lift, synth

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Test-only helpers, the per-pose lifter API, the lifter class, the 2D
# path's own dehomogenization error, and the tagged single-pose operations
# with their rotation and record types, that the package no longer ships.
_REMOVED = {
    "world_to_camera": camera,
    "project": camera,
    "to_normalized_plane": camera,
    "screen_normalize": camera,
    "rodrigues_align": canonical,
    "canonicalize_3d": canonical,
    "canonicalize_2d": canonical,
    "project_canonical_centered": canonical,
    "root_relative": canonical,
    "back_transform": canonical,
    "CanonicalRecord": canonical,
    "CanonicalRotation": canonical,
    "FrameMismatchError": errors,
    "ConsistencyReport": synth,
    "ManyToOneReport": synth,
    "consistency_oracle": synth,
    "many_to_one_demo": synth,
    "generate_poses": synth,
    "fit": lift,
    "predict": lift,
    "LinearLifter": lift,
    "MAPPING_KINDS": lift,
    "DegenerateHomogeneousError": errors,
}


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from canonpose import *", namespace)
    assert len(set(canonpose.__all__)) == len(canonpose.__all__)
    for name in canonpose.__all__:
        assert namespace[name] is getattr(canonpose, name)


def test_removed_names_are_gone_from_the_public_surface():
    assert _REMOVED.keys().isdisjoint(canonpose.__all__)
    for name, module in _REMOVED.items():
        assert not hasattr(canonpose, name) and not hasattr(module, name), name


def test_every_name_the_benchmark_uses_resolves():
    # perfbench imports canonpose names and wraps call sites by name, so a
    # rename or deletion there would otherwise fail only when it runs.
    used = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "canonpose":
                used += [(node.module, alias.name) for alias in node.names]
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WRAP_SITES" for t in node.targets):
                used += [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    assert any(module == "canonpose.dataset" for module, _ in used)
    assert ("canonpose.cli", "serialize_sequences") in used
    for module, name in used:
        if not hasattr(importlib.import_module(module), name):
            importlib.import_module(f"{module}.{name}")  # ``from canonpose import cli``: a submodule
