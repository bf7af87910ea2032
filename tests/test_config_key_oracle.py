"""``_jsonable`` and ``config_key`` against their first implementation.

The oracle below is the generic recursive ``_jsonable`` the keys were
defined with: ``dataclasses.fields`` on every dataclass instance, then
``isinstance`` checks for dicts, sequences and scalars, and ``repr`` for
everything else.  The runtime dispatches on exact types and caches field
names; every record key, and every record's ``config`` block, must stay
what the oracle makes of the same input.
"""

import dataclasses
import enum
import hashlib
import json
from types import SimpleNamespace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import arena
from repro.service import SpecError, SweepSpec
from repro.service.spec import CHANNELS, MOBILITY, RULES, SWEEP_PARAMS
from repro.sim.campaign import result_to_record
from repro.sim.checkpoint import _jsonable, config_key
from repro.sim.experiment import SCHEMES, TIERS


def oracle_jsonable(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: oracle_jsonable(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): oracle_jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [oracle_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def oracle_config_key(config):
    canonical_dict = oracle_jsonable(config)
    if isinstance(canonical_dict, dict):
        for name in ("checkpoint", "observe", "medium"):
            canonical_dict.pop(name, None)
        for name, default in {"tier": "packet", "rivals": None}.items():
            if canonical_dict.get(name, default) == default:
                canonical_dict.pop(name, None)
    canonical = json.dumps(canonical_dict, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _same(a, b):
    """Equal values of equal types, all the way down (``1 == 1.0 ==
    True`` would hide a leaf that changed type)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return (list(a) == list(b)
                and all(_same(a[k], b[k]) for k in a))
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float) and a != a:
        return b != b
    return a == b


# ----------------------------------------------------------------------
# Sweep specs over every knob
# ----------------------------------------------------------------------
_small_ints = st.integers(min_value=0, max_value=6)


@st.composite
def sweep_specs(draw):
    spec = {"seeds": draw(st.lists(st.integers(-3, 1000), min_size=1,
                                   max_size=3))}
    spec["protocols"] = draw(st.lists(
        st.sampled_from(arena.available_protocols()), min_size=1,
        max_size=2))
    param = draw(st.none() | st.sampled_from(SWEEP_PARAMS))
    if param is not None:
        spec["param"] = param
        spec["values"] = draw(st.lists(
            st.integers(2, 40) if param == "n" else _small_ints,
            min_size=1, max_size=3))
    optional = {
        "n": st.integers(2, 60),
        "mute": _small_ints,
        "tx_range": st.sampled_from([100.0, 75.5, 120]),
        "degree": st.sampled_from([8.0, 6, 12.25]),
        "mobility": st.sampled_from(MOBILITY),
        "channel": st.sampled_from(CHANNELS),
        "messages": st.integers(1, 6),
        "interval": st.sampled_from([1.5, 1.0, 2]),
        "warmup": st.sampled_from([8.0, 5.0, 0]),
        "drain": st.sampled_from([15.0, 8.0]),
        "rule": st.sampled_from(RULES),
        "gossip_period": st.sampled_from([1.0, 0.5, 2]),
        "scheme": st.sampled_from(SCHEMES),
        "tier": st.sampled_from(TIERS),
        "observe": st.booleans(),
        "paths_required": st.none() | _small_ints,
        "suppression_threshold": st.none() | _small_ints,
        "cpa_k": st.none() | _small_ints,
    }
    for name, strategy in optional.items():
        if draw(st.booleans()):
            spec[name] = draw(strategy)
    return spec


def _expand(spec):
    try:
        return SweepSpec.from_dict(spec).expand()
    except SpecError:
        assume(False)


# ----------------------------------------------------------------------
# Leaves the specs never produce
# ----------------------------------------------------------------------
class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Ratio(float):
    pass


class Flag(int):
    pass


@dataclasses.dataclass(frozen=True)
class Inner:
    level: Level
    ratio: float
    tags: tuple


@dataclasses.dataclass
class Outer:
    inner: Inner
    table: dict
    kind: type = Inner


_leaves = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(list(Level))
    | st.floats(allow_nan=False).map(Ratio)
    | st.integers(-5, 5).map(Flag)
    | st.integers(-5, 5).map(np.int64)
    | st.floats(-10, 10).map(np.float64)
    | st.floats(-10, 10).map(np.float32)
    | st.booleans().map(np.bool_)
    | st.sampled_from([Inner, object, frozenset({1})])
)

_nested = st.recursive(
    _leaves,
    lambda children: (
        st.lists(children, max_size=3)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=3), children, max_size=3)
        | st.dictionaries(st.integers(-3, 3), children, max_size=3)
        | st.builds(Inner, level=st.sampled_from(list(Level)),
                    ratio=st.floats(allow_nan=False),
                    tags=st.lists(children, max_size=2).map(tuple))
        | st.builds(Outer,
                    inner=st.builds(Inner,
                                    level=st.sampled_from(list(Level)),
                                    ratio=st.floats(-1, 1),
                                    tags=st.just(())),
                    table=st.dictionaries(st.text(max_size=2), children,
                                          max_size=2))),
    max_leaves=12)


class TestAgainstOracle:
    @settings(max_examples=120, deadline=None)
    @given(spec=sweep_specs())
    def test_spec_keys_and_config_blocks_equal_the_oracle(self, spec):
        for config in _expand(spec):
            assert config_key(config) == oracle_config_key(config)
            result = SimpleNamespace(
                trace=None, protocol=config.protocol, n=config.scenario.n,
                byzantine=0, broadcasts=0, delivery_ratio=1.0,
                complete_fraction=1.0, mean_latency=0.5, max_latency=0.5,
                mean_completion_latency=0.5, chaos_events=0,
                invariant_violations=0, violations=[], profile=None,
                runtime={"events": 3, "wall_seconds": 0.1}, physical={},
                energy=None, overlay_quality=None)
            record = result_to_record(config, result)
            assert _same(record["config"], oracle_jsonable(config))
            assert record["key"] == oracle_config_key(config)

    @settings(max_examples=300, deadline=None)
    @given(value=_nested)
    def test_nested_leaves_equal_the_oracle(self, value):
        assert _same(_jsonable(value), oracle_jsonable(value))
        # A second call goes through the cached field names.
        assert _same(_jsonable(value), oracle_jsonable(value))

    def test_subclassed_and_foreign_leaves_keep_their_form(self):
        value = {"level": Level.HIGH, "flag": Flag(3), "ratio": Ratio(0.5),
                 "i64": np.int64(7), "f64": np.float64(0.25),
                 "kind": Inner, "pair": (1, [2.0, None])}
        out = _jsonable(value)
        assert out == oracle_jsonable(value)
        # Subclasses of the scalar types are returned as they are ...
        assert out["level"] is Level.HIGH and out["flag"] is value["flag"]
        assert out["f64"] is value["f64"]
        # ... and what is not one of them becomes its repr.
        assert out["i64"] == repr(np.int64(7))
        assert out["kind"] == repr(Inner)
        assert out["pair"] == [1, [2.0, None]]
