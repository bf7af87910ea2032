"""Built-in protocol registrations.

Importing this module (which :mod:`repro.arena` does) registers every
protocol the repo ships: the paper's stack, the paper's three comparison
baselines, and the three rival reliable-broadcast protocols from the
literature.  The experiment runner builds node populations exclusively
through these registrations, so the historical ``PROTOCOLS`` tuple in
:mod:`repro.sim.experiment` is now just the paper-canonical subset of
what the registry knows.

Each registration states the protocol's **mute tolerance** — the number
of mute-Byzantine nodes (scenario ``high_id`` placement, correct
subgraph kept connected) under which it still claims delivery to every
correct node.  The conformance harness (``tests/arena/``) runs the
liveness suite at exactly that threshold, so the numbers below are
enforced claims, not documentation.
"""

from __future__ import annotations

from typing import List

from ..core.node import NetworkNode
from ..mobility.placement import connectivity_graph
from .dolev import DolevNode
from .flooding import FloodingNode
from .mtx import MaurerTixeuilNode
from .multi_overlay import MultiOverlayNode, build_independent_overlays, \
    correct_component
from .optflood import OptFloodNode
from .overlay_only import OverlayOnlyNode
from .registry import BuildContext, register_protocol

__all__ = [
    "build_byzcast", "build_flooding", "build_overlay_only",
    "build_multi_overlay", "build_dolev", "build_optflood",
    "build_maurer_tixeuil", "register_builtin_protocols",
]


# ----------------------------------------------------------------------
# Paper stack + the paper's comparison baselines
# ----------------------------------------------------------------------
def build_byzcast(ctx: BuildContext) -> List[NetworkNode]:
    scenario = ctx.config.scenario
    return [NetworkNode(ctx.sim, ctx.medium, i, ctx.positions[i],
                        scenario.tx_range, ctx.streams, ctx.directory,
                        ctx.config.stack, behavior=ctx.behaviors.get(i))
            for i in range(scenario.n)]


def build_flooding(ctx: BuildContext) -> List[FloodingNode]:
    scenario = ctx.config.scenario
    return [FloodingNode(ctx.sim, ctx.medium, i, ctx.positions[i],
                         scenario.tx_range, ctx.streams, ctx.directory,
                         ctx.config.stack.mac, behavior=ctx.behaviors.get(i))
            for i in range(scenario.n)]


def build_overlay_only(ctx: BuildContext) -> List[OverlayOnlyNode]:
    scenario = ctx.config.scenario
    stack = ctx.config.stack
    return [OverlayOnlyNode(ctx.sim, ctx.medium, i, ctx.positions[i],
                            scenario.tx_range, ctx.streams, ctx.directory,
                            stack.mac, overlay_rule=stack.overlay_rule,
                            hello_period=stack.hello_period,
                            behavior=ctx.behaviors.get(i))
            for i in range(scenario.n)]


def build_multi_overlay(ctx: BuildContext) -> List[MultiOverlayNode]:
    scenario = ctx.config.scenario
    graph = connectivity_graph(list(ctx.positions), scenario.tx_range)
    count = ctx.config.overlay_count or max(1, len(ctx.assignment)) + 1
    overlays = build_independent_overlays(
        correct_component(graph, ctx.assignment), count)
    return [MultiOverlayNode(
        ctx.sim, ctx.medium, i, ctx.positions[i], scenario.tx_range,
        ctx.streams, ctx.directory,
        overlay_memberships=[i in overlay for overlay in overlays],
        mac_config=ctx.config.stack.mac, behavior=ctx.behaviors.get(i))
        for i in range(scenario.n)]


# ----------------------------------------------------------------------
# Rival protocols from the literature
# ----------------------------------------------------------------------
def _knob(ctx: BuildContext, name: str):
    """A rival-knob override from ``config.rivals``, or None."""
    rivals = getattr(ctx.config, "rivals", None)
    return getattr(rivals, name, None) if rivals is not None else None


def build_dolev(ctx: BuildContext) -> List[DolevNode]:
    """Dolev path-tracking broadcast, sized to the declared fault budget.

    ``paths_required = f + 1`` for ``f`` scenario-declared Byzantine
    nodes (capped at 3: beyond that our placements cannot promise the
    connectivity Dolev's rule needs, so stricter settings only trade
    liveness for already-signature-guaranteed safety).  Fault-free runs
    get ``paths_required = 1`` — single-path delivery with provenance
    tracking.  ``config.rivals.paths_required`` overrides the derivation
    (``repro sweep --param paths_required`` drives it).
    """
    scenario = ctx.config.scenario
    required = _knob(ctx, "paths_required")
    if required is None:
        required = min(len(ctx.assignment) + 1, 3)
    return [DolevNode(ctx.sim, ctx.medium, i, ctx.positions[i],
                      scenario.tx_range, ctx.streams, ctx.directory,
                      mac_config=ctx.config.stack.mac,
                      behavior=ctx.behaviors.get(i),
                      rng=ctx.streams.stream(f"dolev:{i}"),
                      paths_required=required)
            for i in range(scenario.n)]


def build_optflood(ctx: BuildContext) -> List[OptFloodNode]:
    """Counter-suppressed optimized flooding (per-node suppression RNG
    drawn from the named stream ``optflood:<id>``).
    ``config.rivals.suppression_threshold`` overrides the default of 3."""
    scenario = ctx.config.scenario
    threshold = _knob(ctx, "suppression_threshold")
    if threshold is None:
        threshold = 3
    return [OptFloodNode(ctx.sim, ctx.medium, i, ctx.positions[i],
                         scenario.tx_range, ctx.streams, ctx.directory,
                         mac_config=ctx.config.stack.mac,
                         behavior=ctx.behaviors.get(i),
                         rng=ctx.streams.stream(f"optflood:{i}"),
                         suppression_threshold=threshold)
            for i in range(scenario.n)]


def build_maurer_tixeuil(ctx: BuildContext) -> List[MaurerTixeuilNode]:
    """Maurer–Tixeuil CPA broadcast with the local fault parameter ``k``
    set to 1 whenever the scenario declares any Byzantine presence
    (each node then needs two vouching neighbours or a source link),
    0 — flooding-equivalent acceptance — otherwise.
    ``config.rivals.cpa_k`` overrides the derivation."""
    scenario = ctx.config.scenario
    k = _knob(ctx, "cpa_k")
    if k is None:
        k = 1 if ctx.assignment else 0
    return [MaurerTixeuilNode(ctx.sim, ctx.medium, i, ctx.positions[i],
                              scenario.tx_range, ctx.streams, ctx.directory,
                              mac_config=ctx.config.stack.mac,
                              behavior=ctx.behaviors.get(i),
                              rng=ctx.streams.stream(f"mtx:{i}"),
                              local_faults=k)
            for i in range(scenario.n)]


# ----------------------------------------------------------------------
# Stated mute-tolerance claims (enforced by tests/arena/)
# ----------------------------------------------------------------------
def _tolerance_byzcast(n: int) -> int:
    return max(1, n // 4)


def _tolerance_flooding(n: int) -> int:
    return max(1, n // 3)


def _tolerance_none(n: int) -> int:
    return 0


def _tolerance_one(n: int) -> int:
    return 1 if n > 2 else 0


def register_builtin_protocols() -> None:
    """Idempotently (re-)register everything the repo ships."""
    register_protocol(
        "byzcast", build_byzcast, provenance="builtin", replace=True,
        overlay=True,
        mute_tolerance=_tolerance_byzcast,
        description="The paper's protocol: Byzantine-resilient overlay + "
                    "gossip + recovery + failure detectors.")
    register_protocol(
        "flooding", build_flooding, provenance="builtin", replace=True,
        mute_tolerance=_tolerance_flooding,
        description="Plain signed flooding: every node retransmits every "
                    "fresh message once.")
    register_protocol(
        "overlay_only", build_overlay_only, provenance="builtin",
        replace=True, overlay=True, mute_tolerance=_tolerance_none,
        description="One overlay, no gossip/recovery — isolates the "
                    "overlay's contribution.")
    register_protocol(
        "multi_overlay", build_multi_overlay, provenance="builtin",
        replace=True, mute_tolerance=_tolerance_one,
        description="f+1 node-independent overlays, each flooding "
                    "independently.")
    register_protocol(
        "dolev", build_dolev, provenance="builtin", replace=True,
        mute_tolerance=_tolerance_one,
        description="Dolev path-tracking reliable broadcast with "
                    "echo-amplification and single-hop-send optimizations.")
    register_protocol(
        "optflood", build_optflood, provenance="builtin", replace=True,
        mute_tolerance=_tolerance_one,
        description="Optimized flooding with counter-based retransmission "
                    "suppression (Paruchuri et al.).")
    register_protocol(
        "maurer_tixeuil", build_maurer_tixeuil, provenance="builtin",
        replace=True, mute_tolerance=_tolerance_one,
        description="Maurer-Tixeuil loosely-connected broadcast: CPA "
                    "acceptance with parameterizable local fault bound.")


register_builtin_protocols()
