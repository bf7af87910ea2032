"""The protocol registry behind the arena.

Every broadcast protocol the repo can simulate — the paper's, the
comparison baselines, and the rival reliable-broadcast protocols from
the literature — is registered here behind one uniform factory
interface.  The experiment runner (:mod:`repro.sim.experiment`) builds
its node population exclusively through this registry, so a protocol
registered by anyone (an out-of-tree package calls
:func:`register_protocol` from its own code) automatically works with
:class:`~repro.sim.experiment.ExperimentConfig`, the chaos controller,
the invariant oracle, checkpoint/resume, observability tracing, the
fuzzer, campaigns, and — most importantly — inherits the whole
cross-protocol conformance suite under ``tests/arena/``.

A registration is a :class:`ProtocolSpec`: a node factory plus the
protocol's *stated claims* (how many mute-Byzantine nodes it tolerates
while still delivering to every correct node) that the conformance
harness holds it to.  The factory receives a :class:`BuildContext` — the
fully-constructed world minus the nodes — and returns one node per id.

Nodes returned by a factory must implement the arena node contract::

    node_id -> int                  position -> Position
    start() / stop()                broadcast(payload) -> MessageId
    add_accept_listener(listener)   set_behavior(behavior)
    radio -> Radio                  crashed -> bool
    crash() / restart(reset_state=True)
    accepted -> [(time, originator, msg_id)]
    directory -> KeyDirectory

(``crash``/``restart`` are required for chaos schedules and fuzzing; the
conformance suite reads ``accepted`` and verifies on-air frames against
``directory``.)  Every node in the repo gets all of this bar
``broadcast``/``set_behavior`` from :class:`repro.core.shell.NodeShell`;
:class:`repro.arena.base.ArenaNode` adds those two for protocols that
flood signed DATA frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Sequence

__all__ = [
    "BuildContext",
    "ProtocolSpec",
    "register_protocol",
    "unregister_protocol",
    "get_protocol",
    "is_registered",
    "available_protocols",
    "protocol_specs",
]

@dataclass
class BuildContext:
    """Everything a protocol factory needs to assemble its nodes.

    One instance per experiment build; the factory must create exactly
    ``config.scenario.n`` nodes, id ``i`` at ``positions[i]``, drawing
    randomness only from named ``streams`` (the determinism contract).
    ``behaviors`` maps Byzantine ids to their behaviour policy; pass
    ``behaviors.get(i)`` to each node so scenario adversaries apply.
    """

    config: Any                     # repro.sim.experiment.ExperimentConfig
    sim: Any                        # repro.des.kernel.Simulator
    medium: Any                     # repro.radio.medium.Medium
    positions: Sequence[Any]        # List[Position]
    streams: Any                    # repro.des.random.StreamFactory
    directory: Any                  # repro.crypto.keystore.KeyDirectory
    assignment: Mapping[int, str]   # node id -> behaviour kind
    behaviors: Mapping[int, Any]    # node id -> NodeBehavior


#: factory(context) -> list of n nodes.
NodeFactory = Callable[[BuildContext], List[Any]]


def _default_tolerance(n: int) -> int:
    return 0


@dataclass(frozen=True)
class ProtocolSpec:
    """One registered protocol: its factory and its stated claims."""

    name: str
    factory: NodeFactory
    description: str = ""
    #: Max number of mute-Byzantine nodes (high-id placement, connected
    #: correct subgraph) under which the protocol still claims delivery
    #: to every correct node.  The conformance liveness test runs exactly
    #: at this threshold; 0 claims fault-free delivery only.
    mute_tolerance: Callable[[int], int] = _default_tolerance
    #: The protocol elects/maintains an overlay the quality snapshot
    #: understands (byzcast / overlay_only style nodes).
    overlay: bool = False
    #: Where the implementation came from (reporting only).
    provenance: str = "builtin"

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("protocol name must be a non-empty string")
        if self.name != self.name.strip() or any(c.isspace()
                                                 for c in self.name):
            raise ValueError(
                f"protocol name may not contain whitespace: {self.name!r}")
        if not callable(self.factory):
            raise TypeError(f"factory for {self.name!r} is not callable")


_REGISTRY: Dict[str, ProtocolSpec] = {}


def register_protocol(name: str, factory: NodeFactory, *,
                      description: str = "",
                      mute_tolerance: Callable[[int], int]
                      = _default_tolerance,
                      overlay: bool = False,
                      provenance: str = "external",
                      replace: bool = False) -> ProtocolSpec:
    """Register a protocol under ``name``; returns its spec.

    Duplicate names are rejected (``ValueError``) unless ``replace=True``
    — silently shadowing the paper's protocol with somebody else's
    implementation is exactly the sort of bug a registry exists to stop.
    """
    spec = ProtocolSpec(name=name, factory=factory, description=description,
                        mute_tolerance=mute_tolerance, overlay=overlay,
                        provenance=provenance)
    if not replace and name in _REGISTRY:
        raise ValueError(f"protocol {name!r} is already registered "
                         f"(pass replace=True to shadow it)")
    _REGISTRY[name] = spec
    return spec


def unregister_protocol(name: str) -> None:
    """Remove a registration (tests use this to stay hermetic)."""
    _REGISTRY.pop(name, None)


def get_protocol(name: str) -> ProtocolSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; choose from "
            f"{tuple(available_protocols())}") from None


def is_registered(name: str) -> bool:
    return name in _REGISTRY


def available_protocols() -> List[str]:
    """All registered names, built-ins first (in their canonical paper
    order), then everything else alphabetically."""
    builtin = [spec.name for spec in _REGISTRY.values()
               if spec.provenance == "builtin"]
    rest = sorted(name for name, spec in _REGISTRY.items()
                  if spec.provenance != "builtin")
    return builtin + rest


def protocol_specs() -> List[ProtocolSpec]:
    return [_REGISTRY[name] for name in available_protocols()]
