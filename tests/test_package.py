import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import canonpose
from canonpose import camera, canonical, errors, lift, synth
from canonpose.camera import Frame
from canonpose.dataset import PoseSequence, load_sequences
from canonpose.skeleton import H36M17

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Test-only helpers, the per-pose lifter API, the lifter class, the 2D
# path's own dehomogenization error, the tagged single-pose operations
# with their rotation and record types, and the per-frame view of a
# sequence, that the package no longer ships.
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
    "frames": PoseSequence,
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


def test_the_benchmark_input_builder_writes_its_files(tmp_path, monkeypatch):
    # The benchmark builds its inputs with the per-frame PoseSequence
    # constructor, the one caller of it outside the tests.
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, inputs)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(inputs)
    built = inputs.build_inputs(11, str(tmp_path))
    for path, frame in ((built.raw, Frame.CAMERA), (built.world, Frame.CAMERA), (built.canon, Frame.CANONICAL_CAMERA)):
        sequences = load_sequences(path, H36M17)
        assert len(sequences) == 8
        assert sorted(seq.n_frames for seq in sequences) == sorted(inputs.SEQUENCE_LENGTHS)
        assert [seq.key for seq in sequences] == list(built.keys)
        assert [seq.n_frames for seq in sequences] == list(built.lengths)
        assert all(seq.frame_3d is frame for seq in sequences)
        assert all(seq.frame_numbers().tolist() == list(range(seq.n_frames)) for seq in sequences)
