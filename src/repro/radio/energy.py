"""Per-node energy accounting.

The paper motivates Byzantine behaviour partly by selfishness — "trying to
save battery power".  This observer makes that incentive quantitative: it
charges every node for transmission and reception airtime (plus a constant
idle draw), using the classical WaveLAN-style linear model
``energy = power × airtime``.

Attach one :class:`EnergyModel` to a medium and read per-node joule
balances from it; :meth:`summary` reports the totals the selfishness
argument turns on (a forwarding overlay node pays measurably more than a
passive one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..des.kernel import Simulator
from .medium import Medium, MediumObserver
from .packet import Packet

__all__ = ["EnergyConfig", "EnergyMeter", "EnergyModel"]


@dataclass(frozen=True)
class EnergyConfig:
    """Radio power draw (watts) — 802.11b-era WaveLAN measurements."""

    tx_watts: float = 1.65
    rx_watts: float = 1.40
    idle_watts: float = 0.045

    def __post_init__(self) -> None:
        if min(self.tx_watts, self.rx_watts, self.idle_watts) < 0:
            raise ValueError("power draws must be non-negative")


@dataclass
class EnergyMeter:
    """One node's running joule account."""

    tx_joules: float = 0.0
    rx_joules: float = 0.0
    tx_packets: int = 0
    rx_packets: int = 0

    def total_joules(self, idle_watts: float, elapsed: float) -> float:
        return self.tx_joules + self.rx_joules + idle_watts * elapsed


class EnergyModel(MediumObserver):
    """Medium observer charging airtime energy to nodes."""

    def __init__(self, sim: Simulator, medium: Medium,
                 config: EnergyConfig = EnergyConfig()):
        self._sim = sim
        self._medium = medium
        self._config = config
        self._meters: Dict[int, EnergyMeter] = {}
        self._started_at = sim.now
        medium.add_observer(self)

    # ------------------------------------------------------------------
    @property
    def config(self) -> EnergyConfig:
        return self._config

    def meter(self, node_id: int) -> EnergyMeter:
        return self._meters.setdefault(node_id, EnergyMeter())

    def total_joules(self, node_id: int) -> float:
        elapsed = self._sim.now - self._started_at
        return self.meter(node_id).total_joules(self._config.idle_watts,
                                                elapsed)

    def radio_joules(self, node_id: int) -> float:
        """Energy spent actively transmitting/receiving (idle excluded)."""
        meter = self.meter(node_id)
        return meter.tx_joules + meter.rx_joules

    def summary(self) -> Dict[str, float]:
        meters = list(self._meters.values())
        if not meters:
            return {"nodes": 0, "tx_joules": 0.0, "rx_joules": 0.0,
                    "max_node_joules": 0.0, "mean_node_joules": 0.0}
        actives = [m.tx_joules + m.rx_joules for m in meters]
        return {
            "nodes": len(meters),
            "tx_joules": sum(m.tx_joules for m in meters),
            "rx_joules": sum(m.rx_joules for m in meters),
            "max_node_joules": max(actives),
            "mean_node_joules": sum(actives) / len(actives),
        }

    # ------------------------------------------------------------------
    # MediumObserver hooks
    # ------------------------------------------------------------------
    def on_transmit(self, sender: int, packet: Packet) -> None:
        airtime = self._medium.airtime(packet)
        meter = self.meter(sender)
        meter.tx_joules += self._config.tx_watts * airtime
        meter.tx_packets += 1

    def on_deliver(self, receiver: int, packet: Packet) -> None:
        airtime = self._medium.airtime(packet)
        meter = self.meter(receiver)
        meter.rx_joules += self._config.rx_watts * airtime
        meter.rx_packets += 1

    def on_collision(self, receiver: int, packet: Packet) -> None:
        # A collided reception still burned receiver airtime.
        airtime = self._medium.airtime(packet)
        self.meter(receiver).rx_joules += self._config.rx_watts * airtime
