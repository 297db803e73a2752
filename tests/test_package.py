import canonpose
from canonpose import lift, synth

# Test-only helpers and a per-pose lifter API that the package no longer ships.
_REMOVED = {
    "ConsistencyReport": synth,
    "ManyToOneReport": synth,
    "consistency_oracle": synth,
    "many_to_one_demo": synth,
    "generate_poses": synth,
    "fit": lift,
    "predict": lift,
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
