"""repro.arena — every broadcast protocol behind one registry.

The arena presents the paper's protocol, the comparison baselines, and
rival reliable-broadcast protocols from the literature behind a single
factory interface (:class:`ProtocolSpec` / :class:`BuildContext`), so
each of them — and any externally-registered protocol — works unchanged
with :class:`~repro.sim.experiment.ExperimentConfig`, the invariant
oracle, chaos schedules, checkpoint/resume, obs tracing, the fuzzer, and
inherits the full cross-protocol conformance suite in ``tests/arena/``.

Importing this package registers the built-ins.  The scorecard campaign
lives in :mod:`repro.arena.scorecard` and is *not* imported here (it
pulls in the experiment runner; the registry must stay import-light so
the runner itself can depend on it).
"""

from .base import ArenaNode, DATA_HEADER_BYTES
from .dolev import DolevData, DolevNode, disjoint_path_count
from .flooding import FloodingNode
from .mtx import MaurerTixeuilNode
from .multi_overlay import MultiOverlayNode
from .optflood import OptFloodNode
from .overlay_only import OverlayOnlyNode
from .registry import (
    BuildContext,
    NodeFactory,
    ProtocolSpec,
    available_protocols,
    get_protocol,
    is_registered,
    protocol_specs,
    register_protocol,
    unregister_protocol,
)
from . import builtins as _builtins  # noqa: F401  (registers built-ins)
from .builtins import register_builtin_protocols

__all__ = [
    "ArenaNode",
    "DATA_HEADER_BYTES",
    "BuildContext",
    "DolevData",
    "DolevNode",
    "FloodingNode",
    "MaurerTixeuilNode",
    "MultiOverlayNode",
    "NodeFactory",
    "OptFloodNode",
    "OverlayOnlyNode",
    "ProtocolSpec",
    "available_protocols",
    "disjoint_path_count",
    "get_protocol",
    "is_registered",
    "protocol_specs",
    "register_builtin_protocols",
    "register_protocol",
    "unregister_protocol",
]
