"""CSMA/CA-flavoured medium access control.

A minimal contention protocol in the spirit of 802.11 DCF, sufficient to
reproduce the phenomenon the paper's evaluation turns on: **broadcast storms
collide**.  Flooding pushes many spatially-close transmissions into the same
instant; carrier sensing plus random backoff spreads them, but overlapping
hidden-terminal transmissions still collide in :class:`Medium`.

Behaviour:

* outgoing packets queue FIFO (bounded; tail drop);
* before transmitting, the node samples a random *access jitter*, then
  carrier-senses; a busy channel triggers binary-exponential backoff;
* after ``max_attempts`` busy samples the packet is dropped (counted);
* broadcast frames are never acknowledged (as in real 802.11 broadcast).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from ..des.kernel import Simulator
from ..des.random import RandomStream
from ..obs import context as obs
from .medium import Medium
from .packet import Packet

__all__ = ["MacConfig", "CsmaMac", "MacStats"]


@dataclass(frozen=True)
class MacConfig:
    """Tunables for the CSMA MAC."""

    access_jitter_s: float = 0.004      # uniform [0, x) pre-send jitter
    backoff_base_s: float = 0.002       # first backoff window
    backoff_factor: float = 2.0         # exponential growth per retry
    backoff_cap_s: float = 0.064        # window growth ceiling
    ifs_s: float = 0.0005               # inter-frame spacing after a send
    max_attempts: int = 8               # busy samples before dropping
    queue_limit: int = 256              # outgoing queue bound

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")


@dataclass
class MacStats:
    enqueued: int = 0
    sent: int = 0
    dropped_queue_full: int = 0
    dropped_max_attempts: int = 0
    busy_samples: int = 0


class CsmaMac:
    """Per-node MAC entity serializing access to the shared medium.

    The MAC never cancels a timer it has scheduled, so it keeps no
    handle to its jitter, backoff and inter-frame-spacing events.
    """

    def __init__(self, sim: Simulator, medium: Medium, node_id: int,
                 rng: RandomStream, config: Optional[MacConfig] = None):
        self._sim = sim
        self._medium = medium
        self._node_id = node_id
        self._rng = rng
        self._config = config or MacConfig()
        self._queue: Deque[Packet] = deque()
        self._sending = False
        self._attempts = 0
        self.stats = MacStats()

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def config(self) -> MacConfig:
        return self._config

    def send(self, packet: Packet) -> bool:
        """Enqueue a packet for transmission.

        Returns False if the queue is full and the packet was dropped.
        """
        ctx = obs.ACTIVE
        if len(self._queue) >= self._config.queue_limit:
            self.stats.dropped_queue_full += 1
            if ctx is not None:
                ctx.span("mac_drop", self._node_id,
                         msg=obs.msg_of(packet.payload), kind=packet.kind,
                         reason="queue_full")
            return False
        self._queue.append(packet)
        self.stats.enqueued += 1
        if ctx is not None:
            ctx.span("mac_enqueue", self._node_id,
                     msg=obs.msg_of(packet.payload), kind=packet.kind,
                     queue=len(self._queue))
        if not self._sending:
            self._sending = True
            self._attempts = 0
            self._sim.schedule(
                self._rng.uniform(0.0, self._config.access_jitter_s),
                self._attempt)
        return True

    def _attempt(self) -> None:
        if not self._queue:
            self._sending = False
            return
        if self._medium.channel_busy_at(self._node_id):
            ctx = obs.ACTIVE
            self.stats.busy_samples += 1
            self._attempts += 1
            if self._attempts >= self._config.max_attempts:
                packet = self._queue.popleft()
                self.stats.dropped_max_attempts += 1
                if ctx is not None:
                    ctx.span("mac_drop", self._node_id,
                             msg=obs.msg_of(packet.payload),
                             kind=packet.kind, reason="max_attempts")
                self._attempts = 0
                self._sim.schedule(0.0, self._attempt)
                return
            window = min(
                self._config.backoff_base_s
                * (self._config.backoff_factor ** (self._attempts - 1)),
                self._config.backoff_cap_s)
            delay = self._rng.uniform(0.0, window)
            if ctx is not None:
                ctx.span("backoff", self._node_id,
                         msg=obs.msg_of(self._queue[0].payload),
                         duration=delay, attempt=self._attempts)
            self._sim.schedule(delay, self._attempt)
            return
        packet = self._queue.popleft()
        self._attempts = 0
        tx = self._medium.transmit(self._node_id, packet)
        self.stats.sent += 1
        gap = (tx.end - self._sim.now) + self._config.ifs_s
        if self._queue:
            self._sim.schedule(
                gap + self._rng.uniform(0.0, self._config.access_jitter_s),
                self._attempt)
        else:
            self._sim.schedule(gap, self._finish)

    def _finish(self) -> None:
        if self._queue:
            self._attempt()
        else:
            self._sending = False
