"""Sweep specifications — the one place flat knobs become experiments.

A :class:`SweepSpec` holds the flat knobs of a batch of experiments
(scenario shape, workload, protocol selection, the swept parameter and
its values, replication seeds), and :meth:`SweepSpec.expand` turns them
into the deterministic list of :class:`ExperimentConfig` tasks, in
protocol × value × seed order.  Both front ends build one: a client POSTs
it to the campaign service as a JSON document, and ``repro run``,
``compare``, ``arena compare`` and ``sweep`` build it from their flags
(adding only the single-host knobs a spec does not carry).  A command
line and the equivalent spec therefore expand to the same
``config_key``s, and a spec's records are exactly the records a serial
``Campaign.run`` over the same grid would produce.

Validation is strict: unknown keys, bad enum values, and missing sweep
values all raise :class:`SpecError` with a message fit for an HTTP 400
body — a malformed submission must never reach the queue.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import arena
from ..core.config import ProtocolConfig
from ..core.node import NodeStackConfig
from ..obs import ObsConfig
from ..sim.experiment import (
    SCHEMES,
    TIERS,
    ExperimentConfig,
    RivalKnobs,
)
from ..workloads.scenarios import AdversaryMix, ScenarioConfig

__all__ = ["CHANNELS", "MOBILITY", "RULES", "SpecError", "SweepSpec",
           "SWEEP_PARAMS"]


class SpecError(ValueError):
    """A sweep spec is malformed; the message is client-facing."""


#: Sweepable parameters: scenario axes plus the rival-protocol knobs,
#: named exactly as ``repro sweep --param`` names them.
_RIVAL_PARAMS = {
    "paths_required": "paths_required",
    "suppression": "suppression_threshold",
    "cpa_k": "cpa_k",
}
SWEEP_PARAMS = ("n", "mute") + tuple(_RIVAL_PARAMS)

#: Choices of the ``mobility``, ``channel`` and ``rule`` knobs.
MOBILITY = ("static", "waypoint", "walk", "gaussmarkov")
CHANNELS = ("disk", "shadowing")
RULES = ("cds", "mis+b")
#: Values of the retired ``medium`` spec key.  ``to_dict`` always wrote
#: the key, so every job file queued before its removal carries one;
#: they are accepted and discarded (the backends were bit-identical).
_RETIRED_MEDIA = ("grid", "brute", "vectorized")


#: Scalar fields by the type a spec must give them: integers (never
#: booleans), finite numbers, and integers or ``None``.
_INT_FIELDS = ("n", "mute", "messages")
_FLOAT_FIELDS = ("tx_range", "degree", "interval", "warmup", "drain",
                 "gossip_period")
_KNOB_FIELDS = ("paths_required", "suppression_threshold", "cpa_k")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_list(value: Any, name: str) -> Tuple[int, ...]:
    _require(isinstance(value, (list, tuple)) and value,
             f"{name} must be a non-empty list of integers")
    for item in value:
        _require(_is_int(item), f"{name} must contain integers, got {item!r}")
    return tuple(value)


@dataclass(frozen=True)
class SweepSpec:
    """One submittable unit of work: a (protocol × value × seed) grid."""

    #: Protocols to fan the grid over (any registered arena name).
    protocols: Tuple[str, ...] = ("byzcast",)
    #: Swept parameter (one of :data:`SWEEP_PARAMS`) or None for a
    #: single-point grid (seeds only).
    param: Optional[str] = None
    values: Tuple[int, ...] = ()
    seeds: Tuple[int, ...] = (1,)
    # Scenario shape (defaults match the CLI flags).
    n: int = 30
    mute: int = 0
    tx_range: float = 100.0
    degree: float = 8.0
    mobility: str = "static"
    channel: str = "disk"
    # Workload.
    messages: int = 5
    interval: float = 1.5
    warmup: float = 8.0
    drain: float = 15.0
    # Stack / execution.
    rule: str = "cds"
    gossip_period: float = 1.0
    scheme: str = "hmac"
    tier: str = "packet"
    observe: bool = False
    # Rival-protocol knob overrides (fixed, as opposed to swept).
    paths_required: Optional[int] = None
    suppression_threshold: Optional[int] = None
    cpa_k: Optional[int] = None

    def __post_init__(self) -> None:
        for name in _INT_FIELDS:
            value = getattr(self, name)
            _require(_is_int(value), f"{name} must be an integer, "
                     f"got {value!r}")
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            _require(_is_int(value) or (isinstance(value, float)
                                        and math.isfinite(value)),
                     f"{name} must be a finite number, got {value!r}")
        for name in _KNOB_FIELDS:
            value = getattr(self, name)
            _require(value is None or _is_int(value),
                     f"{name} must be an integer, got {value!r}")
        _require(isinstance(self.observe, bool),
                 f"observe must be true or false, got {self.observe!r}")
        _int_list(self.seeds, "seeds")
        if self.values:
            _int_list(self.values, "values")
        _require(self.protocols, "need at least one protocol")
        for name in self.protocols:
            _require(isinstance(name, str) and arena.is_registered(name),
                     f"unknown protocol {name!r}; choose from "
                     f"{tuple(arena.available_protocols())}")
        if self.param is not None:
            _require(self.param in SWEEP_PARAMS,
                     f"unknown param {self.param!r}; choose from "
                     f"{SWEEP_PARAMS}")
            _require(bool(self.values),
                     f"param {self.param!r} needs non-empty values")
        else:
            _require(not self.values, "values given without a param")
        _require(self.mobility in MOBILITY,
                 f"unknown mobility {self.mobility!r}")
        _require(self.channel in CHANNELS,
                 f"unknown channel {self.channel!r}")
        _require(self.rule in RULES, f"unknown rule {self.rule!r}")
        _require(self.scheme in SCHEMES, f"unknown scheme {self.scheme!r}")
        _require(self.tier in TIERS, f"unknown tier {self.tier!r}")

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Any) -> "SweepSpec":
        _require(isinstance(data, dict), "spec must be a JSON object")
        payload = dict(data)
        kwargs: Dict[str, Any] = {}
        protocols = payload.pop("protocols", None)
        protocol = payload.pop("protocol", None)
        _require(not (protocols and protocol),
                 "give either protocol or protocols, not both")
        if protocols is not None:
            _require(isinstance(protocols, (list, tuple)) and protocols,
                     "protocols must be a non-empty list")
            kwargs["protocols"] = tuple(protocols)
        elif protocol is not None:
            _require(isinstance(protocol, str),
                     "protocol must be a string")
            kwargs["protocols"] = (protocol,)
        if "values" in payload:
            kwargs["values"] = _int_list(payload.pop("values"), "values")
        if "seeds" in payload:
            kwargs["seeds"] = _int_list(payload.pop("seeds"), "seeds")
        if "medium" in payload:
            medium = payload.pop("medium")
            _require(medium in _RETIRED_MEDIA, f"unknown medium {medium!r}")
        simple = ("param", "n", "mute", "tx_range", "degree", "mobility",
                  "channel", "messages", "interval", "warmup", "drain",
                  "rule", "gossip_period", "scheme", "tier",
                  "observe", "paths_required", "suppression_threshold",
                  "cpa_k")
        for name in simple:
            if name in payload:
                kwargs[name] = payload.pop(name)
        _require(not payload,
                 f"unknown spec keys: {sorted(payload)}")
        try:
            return cls(**kwargs)
        except SpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise SpecError(str(exc)) from exc

    @classmethod
    def from_file(cls, path: str) -> "SweepSpec":
        with open(path) as handle:
            try:
                return cls.from_dict(json.load(handle))
            except json.JSONDecodeError as exc:
                raise SpecError(f"{path} is not valid JSON: {exc}") from exc

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "protocols": list(self.protocols),
            "seeds": list(self.seeds),
            "n": self.n, "mute": self.mute, "tx_range": self.tx_range,
            "degree": self.degree, "mobility": self.mobility,
            "channel": self.channel, "messages": self.messages,
            "interval": self.interval, "warmup": self.warmup,
            "drain": self.drain, "rule": self.rule,
            "gossip_period": self.gossip_period, "scheme": self.scheme,
            "tier": self.tier, "observe": self.observe,
        }
        if self.param is not None:
            out["param"] = self.param
            out["values"] = list(self.values)
        for knob in ("paths_required", "suppression_threshold", "cpa_k"):
            if getattr(self, knob) is not None:
                out[knob] = getattr(self, knob)
        return out

    def digest(self) -> str:
        """Stable content hash of the spec (dashboard/display identity;
        task-level dedupe keys on each config's ``config_key``)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]

    # ------------------------------------------------------------------
    def _one_config(self, protocol: str, value: Optional[int],
                    seed: int) -> ExperimentConfig:
        """One task of the grid; whatever the constructors reject, by
        value or by type, is a :class:`SpecError`."""
        n = self.n
        mute = self.mute
        if self.param == "n":
            n = value
        elif self.param == "mute":
            mute = value
        knobs = {field: getattr(self, field) for field in _KNOB_FIELDS}
        if self.param in _RIVAL_PARAMS:
            knobs[_RIVAL_PARAMS[self.param]] = value
        try:
            scenario = ScenarioConfig(
                n=n, tx_range=self.tx_range, target_degree=self.degree,
                mobility=self.mobility, propagation=self.channel,
                adversaries=(AdversaryMix.mute(mute) if mute
                             else AdversaryMix.none()),
                seed=seed)
            stack = NodeStackConfig(
                overlay_rule=self.rule,
                protocol=ProtocolConfig(gossip_period=self.gossip_period))
            rivals = (RivalKnobs(**knobs)
                      if any(v is not None for v in knobs.values())
                      else None)
            return ExperimentConfig(
                scenario=scenario, protocol=protocol, stack=stack,
                message_count=self.messages,
                message_interval=self.interval,
                warmup=self.warmup, drain=self.drain,
                signature_scheme=self.scheme, tier=self.tier,
                observe=ObsConfig() if self.observe else None,
                rivals=rivals)
        except (TypeError, ValueError) as exc:
            raise SpecError(str(exc)) from exc

    def expand(self) -> List[ExperimentConfig]:
        """The deterministic task grid: protocol × value × seed, in spec
        order."""
        values: Sequence[Optional[int]] = (self.values if self.param
                                           else (None,))
        return [self._one_config(protocol, value, seed)
                for protocol in self.protocols
                for value in values
                for seed in self.seeds]
