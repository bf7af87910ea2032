"""Scenario descriptions: topology, channel, adversary mix.

A :class:`ScenarioConfig` is a declarative description of one simulated
world — node count and placement, radio model, mobility, and which nodes
are Byzantine with which behaviour.  The experiment runner
(:mod:`repro.sim.experiment`) turns it into a live network.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple, Union

from ..radio.geometry import Position

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
    * ``"random"`` — uniform over non-source nodes;
    * a tuple of ``total`` distinct node ids — exactly those nodes, the
      behaviour kinds taken in sorted order along the tuple.
    """

    counts: Dict[str, int] = field(default_factory=dict)
    placement: Union[str, Tuple[int, ...]] = "high_id"

    def __post_init__(self) -> None:
        for kind, count in self.counts.items():
            if count < 0:
                raise ValueError(f"negative count for {kind!r}")
        if isinstance(self.placement, tuple):
            try:
                ids = tuple(operator.index(i) for i in self.placement)
            except TypeError:
                raise ValueError(
                    f"node ids must be integers: {self.placement!r}") from None
            if len(set(ids)) != len(ids) or min(ids, default=0) < 0:
                raise ValueError(f"node ids must be distinct and "
                                 f"non-negative: {ids!r}")
            if len(ids) != self.total:
                raise ValueError(f"{len(ids)} node ids for {self.total} "
                                 f"Byzantine nodes")
            object.__setattr__(self, "placement", ids)
        elif self.placement not in ("high_id", "random"):
            raise ValueError(f"unknown placement {self.placement!r}")

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @staticmethod
    def none() -> "AdversaryMix":
        return AdversaryMix()

    @staticmethod
    def mute(count: int, placement: Union[str, Tuple[int, ...]] = "high_id"
             ) -> "AdversaryMix":
        return AdversaryMix(counts={"mute": count}, placement=placement)

    @staticmethod
    def forging(count: int,
                placement: Union[str, Tuple[int, ...]] = "high_id"
                ) -> "AdversaryMix":
        """Nodes that relay corrupted payloads (the signature-check
        stressor the oracle's forged-delivery invariant watches)."""
        return AdversaryMix(counts={"forging": count}, placement=placement)


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulated world.

    ``placement`` is ``"uniform_connected"`` (rejection-sampled until the
    correct nodes are connected), ``"grid"``, ``"line"``, or a tuple of
    ``n`` points — :class:`Position` or ``(x, y)`` pairs, stored as
    :class:`Position` — used as they are.
    """

    n: int = 40
    tx_range: float = 100.0
    area_side: Optional[float] = None       # None → derived from degree
    target_degree: float = 8.0
    placement: Union[str, Tuple[Position, ...]] = "uniform_connected"
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
        if isinstance(self.placement, tuple):
            object.__setattr__(self, "placement", _points(self.placement,
                                                          self.n))
        elif self.placement not in ("uniform_connected", "grid", "line"):
            raise ValueError(f"unknown placement {self.placement!r}")
        if self.mobility not in ("static", "waypoint", "walk",
                                 "gaussmarkov"):
            raise ValueError(f"unknown mobility {self.mobility!r}")
        if self.propagation not in ("disk", "shadowing"):
            raise ValueError(f"unknown propagation {self.propagation!r}")
        if self.adversaries.total >= self.n:
            raise ValueError("every node is Byzantine; nothing to measure")
        if isinstance(self.adversaries.placement, tuple) \
                and max(self.adversaries.placement, default=0) >= self.n:
            raise ValueError(f"Byzantine ids {self.adversaries.placement!r} "
                             f"out of range for n={self.n}")

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
        placement = self.adversaries.placement
        if isinstance(placement, tuple):
            if protected.intersection(placement):
                raise ValueError(f"source ids {sorted(protected)} cannot "
                                 f"be Byzantine: {placement!r}")
            ordered = list(placement)
        elif placement == "high_id":
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


def _points(points: tuple, n: int) -> Tuple[Position, ...]:
    """Explicit placement points as :class:`Position` objects with float
    coordinates (so equal worlds share one ``config_key``), checked for
    count and finiteness."""
    if len(points) != n:
        raise ValueError(f"{len(points)} points for n={n}")
    try:
        pairs = [(p.x, p.y) if isinstance(p, Position) else tuple(p)
                 for p in points]
        positions = tuple(Position(float(x), float(y)) for x, y in pairs)
    except (TypeError, ValueError):
        raise ValueError(f"points must be (x, y) pairs: {points!r}") from None
    if not all(math.isfinite(p.x) and math.isfinite(p.y) for p in positions):
        raise ValueError(f"points must be finite: {points!r}")
    return positions
