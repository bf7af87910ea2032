"""Link-layer packet framing.

A :class:`Packet` is what actually crosses the simulated ether: a sender, a
protocol payload (opaque to the radio), a size used for airtime and
collision computation, and a ``kind`` tag used only by metrics.

Wireless transmission is inherently broadcast; ``link_dest`` is a *hint*
(as in 802.11 unicast frames): other radios still overhear the packet and
still suffer collisions from it, but a link destination lets metrics
distinguish directed recovery traffic from broadcast dissemination.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Packet", "BROADCAST"]

BROADCAST: int = -1

_packet_ids = itertools.count()


@dataclass(frozen=True)
class Packet:
    """An immutable link-layer frame."""

    sender: int
    payload: Any
    size_bytes: int
    kind: str = "data"
    link_dest: int = BROADCAST
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"packet size must be positive: {self.size_bytes}")

    @property
    def is_link_broadcast(self) -> bool:
        return self.link_dest == BROADCAST

    def airtime(self, bitrate_bps: float, preamble_s: float = 0.0) -> float:
        """Seconds the packet occupies the channel at ``bitrate_bps``."""
        return preamble_s + (self.size_bytes * 8.0) / bitrate_bps
