"""Scenario descriptions: topology, channel, adversary mix.

A :class:`ScenarioConfig` is a declarative description of one simulated
world — node count and placement, radio model, mobility, and which nodes
are Byzantine with which behaviour.  The experiment runner
(:mod:`repro.sim.experiment`) turns it into a live network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

__all__ = ["AdversaryMix", "ScenarioConfig", "area_side_for_degree"]


def area_side_for_degree(n: int, tx_range: float,
                         target_degree: float) -> float:
    """Side of the square area giving an expected node degree.

    For uniform placement, E[degree] ≈ n·π·r² / side² − edge effects; this
    inverts that, which is how the paper-style sweeps hold density constant
    while scaling n.
    """
    if n < 2:
        raise ValueError("need at least 2 nodes")
    if target_degree <= 0:
        raise ValueError("target_degree must be positive")
    return math.sqrt(n * math.pi * tx_range * tx_range / target_degree)


@dataclass(frozen=True)
class AdversaryMix:
    """How many nodes misbehave, and how.

    ``counts`` maps a behaviour kind (see
    :data:`repro.adversary.BEHAVIOR_KINDS`) to a node count.  ``placement``
    selects which ids turn Byzantine:

    * ``"high_id"`` — the highest ids (the most adverse choice: id-based
      overlay election prefers exactly those nodes, so Byzantine nodes
      start *inside* the overlay);
    * ``"random"`` — uniform over non-source nodes.
    """

    counts: Dict[str, int] = field(default_factory=dict)
    placement: str = "high_id"

    def __post_init__(self) -> None:
        if self.placement not in ("high_id", "random"):
            raise ValueError(f"unknown placement {self.placement!r}")
        for kind, count in self.counts.items():
            if count < 0:
                raise ValueError(f"negative count for {kind!r}")

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @staticmethod
    def none() -> "AdversaryMix":
        return AdversaryMix()

    @staticmethod
    def mute(count: int, placement: str = "high_id") -> "AdversaryMix":
        return AdversaryMix(counts={"mute": count}, placement=placement)

    @staticmethod
    def forging(count: int, placement: str = "high_id") -> "AdversaryMix":
        """Nodes that relay corrupted payloads (the signature-check
        stressor the oracle's forged-delivery invariant watches)."""
        return AdversaryMix(counts={"forging": count}, placement=placement)


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulated world."""

    n: int = 40
    tx_range: float = 100.0
    area_side: Optional[float] = None       # None → derived from degree
    target_degree: float = 8.0
    placement: str = "uniform_connected"    # uniform_connected | grid | line
    line_spacing_factor: float = 0.8        # spacing = factor * tx_range
    mobility: str = "static"                # static|waypoint|walk|gaussmarkov
    speed_max: float = 2.0
    propagation: str = "disk"               # disk | shadowing
    shadowing_sigma: float = 0.15
    background_loss: float = 0.01
    bitrate_bps: float = 1_000_000.0
    payload_size: int = 512
    adversaries: AdversaryMix = field(default_factory=AdversaryMix.none)
    seed: int = 1

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need at least 2 nodes")
        if self.tx_range <= 0:
            raise ValueError("tx_range must be positive")
        if self.placement not in ("uniform_connected", "grid", "line"):
            raise ValueError(f"unknown placement {self.placement!r}")
        if self.mobility not in ("static", "waypoint", "walk",
                                 "gaussmarkov"):
            raise ValueError(f"unknown mobility {self.mobility!r}")
        if self.propagation not in ("disk", "shadowing"):
            raise ValueError(f"unknown propagation {self.propagation!r}")
        if self.adversaries.total >= self.n:
            raise ValueError("every node is Byzantine; nothing to measure")

    # ------------------------------------------------------------------
    def side(self) -> float:
        if self.area_side is not None:
            return self.area_side
        return area_side_for_degree(self.n, self.tx_range,
                                    self.target_degree)

    def with_n(self, n: int) -> "ScenarioConfig":
        return replace(self, n=n)

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return replace(self, seed=seed)

    def with_adversaries(self, mix: AdversaryMix) -> "ScenarioConfig":
        return replace(self, adversaries=mix)

    # ------------------------------------------------------------------
    def byzantine_assignment(self, sources,
                             rng) -> Dict[int, str]:
        """Map node id → behaviour kind for this scenario.

        ``sources`` (an id or an iterable of ids) are never Byzantine —
        the paper's properties are stated for correct originators.
        """
        if isinstance(sources, int):
            sources = {sources}
        protected = set(sources)
        candidates = [i for i in range(self.n) if i not in protected]
        if self.adversaries.placement == "high_id":
            ordered = sorted(candidates, reverse=True)
        else:
            ordered = list(candidates)
            rng.shuffle(ordered)
        assignment: Dict[int, str] = {}
        cursor = 0
        for kind, count in sorted(self.adversaries.counts.items()):
            for _ in range(count):
                if cursor >= len(ordered):
                    raise ValueError("more adversaries than nodes")
                assignment[ordered[cursor]] = kind
                cursor += 1
        return assignment
