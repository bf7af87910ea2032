"""Registry contract: registration, lookup, and the
config-key regression pin.

The pin matters most: moving protocol construction behind the arena
registry must not move a single campaign record — ``config_key`` for
pre-arena configurations is frozen here as literals computed before the
refactor.  If either literal changes, old campaign records, checkpoint
snapshots, and corpus reproducers silently stop resolving.
"""

import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arena.registry import (
    ProtocolSpec,
    available_protocols,
    get_protocol,
    is_registered,
    register_protocol,
    unregister_protocol,
)
from repro.sim import ExperimentConfig, config_key
from repro.workloads.scenarios import ScenarioConfig

pytestmark = pytest.mark.arena

BUILTINS = ("byzcast", "flooding", "overlay_only", "multi_overlay",
            "dolev", "optflood", "maurer_tixeuil")

#: Valid registry names: nonempty, lowercase ascii/digits/underscore.
names = st.text(alphabet=string.ascii_lowercase + string.digits + "_",
                min_size=1, max_size=24).filter(
                    lambda s: not s.startswith("_") and not is_registered(s))


def _factory(context):  # pragma: no cover - never built
    raise AssertionError("test factory must not be invoked")


# ----------------------------------------------------------------------
# Regression pin: the arena refactor must not move campaign keys
# ----------------------------------------------------------------------
def test_config_key_unchanged_for_default_protocol():
    config = ExperimentConfig(scenario=ScenarioConfig(n=12, seed=3))
    assert config.protocol == "byzcast"
    assert config_key(config) == "9a80eef65f028893"


def test_config_key_unchanged_for_flooding_baseline():
    config = ExperimentConfig(scenario=ScenarioConfig(n=40, seed=1),
                              protocol="flooding")
    assert config_key(config) == "5fa3f835d4b7dee2"


# ----------------------------------------------------------------------
# Built-in population
# ----------------------------------------------------------------------
def test_builtins_present_and_first():
    listed = available_protocols()
    assert tuple(listed[:len(BUILTINS)]) == BUILTINS
    for name in BUILTINS:
        spec = get_protocol(name)
        assert spec.provenance == "builtin"
        assert spec.mute_tolerance(12) >= 0


def test_unknown_protocol_lookup_lists_choices():
    with pytest.raises(ValueError, match="byzcast"):
        get_protocol("definitely_not_registered")


def test_experiment_config_rejects_unknown_protocol():
    with pytest.raises(ValueError, match="dolev"):
        ExperimentConfig(scenario=ScenarioConfig(n=8, seed=1),
                         protocol="definitely_not_registered")


# ----------------------------------------------------------------------
# Registration properties
# ----------------------------------------------------------------------
@given(name=names)
def test_register_lookup_unregister_roundtrip(name):
    try:
        spec = register_protocol(name, _factory, description="transient")
        assert isinstance(spec, ProtocolSpec)
        assert is_registered(name)
        assert get_protocol(name) is spec
        assert get_protocol(name).provenance == "external"
        assert name in available_protocols()
        # Externals never displace the built-in prefix ordering.
        assert tuple(available_protocols()[:len(BUILTINS)]) == BUILTINS
    finally:
        unregister_protocol(name)
    assert not is_registered(name)
    assert name not in available_protocols()


@given(name=names)
def test_duplicate_registration_rejected_unless_replace(name):
    try:
        register_protocol(name, _factory)
        with pytest.raises(ValueError, match="already registered"):
            register_protocol(name, _factory)
        # replace=True swaps the spec in place.
        swapped = register_protocol(name, _factory,
                                    description="v2", replace=True)
        assert get_protocol(name).description == "v2"
        assert get_protocol(name) is swapped
    finally:
        unregister_protocol(name)


@pytest.mark.parametrize("bad", ["", "has spaces", " padded ", "tab\tname",
                                 "new\nline"])
def test_invalid_names_rejected(bad):
    with pytest.raises(ValueError):
        register_protocol(bad, _factory)


def test_builtin_shadowing_requires_replace():
    with pytest.raises(ValueError, match="already registered"):
        register_protocol("byzcast", _factory)
