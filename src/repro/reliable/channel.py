"""The full reliable-broadcast channel: ordering + stability + flow.

One object that assembles footnote 4's "reliable delivery mechanism" on
top of a :class:`repro.core.NetworkNode`: per-source FIFO delivery,
ack-vector stability detection over the HELLO beacons, flow-controlled
sending, and stability-driven purging as the alternative to the timeout
purge the paper's implementation uses.
"""

from __future__ import annotations

from typing import Optional

from ..core.messages import MessageId
from ..des.kernel import Simulator
from ..des.timers import PeriodicTask
from .flow import FlowControlledSender
from .ordering import DeliverCallback, FifoDeliveryQueue, GapPolicy
from .stability import StabilityConfig, StabilityDetector

__all__ = ["ReliableChannel"]


class ReliableChannel:
    """Reliable FIFO broadcast for one node.

    Usage::

        channel = ReliableChannel(sim, node,
                                  deliver=lambda src, seq, data: ...)
        channel.send(b"payload")      # flow-controlled broadcast
    """

    def __init__(self, sim: Simulator, node,
                 deliver: DeliverCallback, *,
                 window: int = 8,
                 gap_policy: GapPolicy = GapPolicy.STALL,
                 gap_timeout: float = 30.0,
                 stability_config: StabilityConfig = StabilityConfig(),
                 stability_purge: bool = False,
                 purge_period: float = 2.0):
        self._sim = sim
        self._node = node
        self._sent_seq = 0
        self.queue = FifoDeliveryQueue(sim, deliver, gap_policy=gap_policy,
                                       gap_timeout=gap_timeout)
        node.add_accept_listener(self._on_accept)
        self.stability = StabilityDetector(
            sim, node.neighbors, self.queue, stability_config,
            own_source=node.node_id, own_sent_fn=lambda: self._sent_seq)
        self.sender = FlowControlledSender(sim, self, self.stability,
                                           window=window)
        self._stability_purge: Optional[PeriodicTask] = None
        if stability_purge:
            self._stability_purge = PeriodicTask(sim, purge_period,
                                                 self._purge_stable)
            self._stability_purge.start()
        self.stable_purged = 0

    # ------------------------------------------------------------------
    @property
    def node_id(self) -> int:
        return self._node.node_id

    def send(self, payload: bytes) -> Optional[MessageId]:
        """Flow-controlled broadcast; None means queued for window space."""
        return self.sender.send(payload)

    def broadcast(self, payload: bytes) -> MessageId:
        """Raw broadcast hook used by the flow controller."""
        msg_id = self._node.broadcast(payload)
        self._sent_seq = max(self._sent_seq, msg_id.seq)
        return msg_id

    def stop(self) -> None:
        self.sender.stop()
        if self._stability_purge is not None:
            self._stability_purge.stop()

    # ------------------------------------------------------------------
    def _on_accept(self, receiver: int, originator: int, payload: bytes,
                   msg_id: MessageId) -> None:
        self.queue.offer(originator, msg_id.seq, payload)

    def _purge_stable(self) -> None:
        """Stability-driven purging: drop buffered payloads of messages the
        whole visible network has delivered (the §3.2.2 alternative)."""
        store = self._node.protocol.store
        now = self._sim.now
        for msg_id in list(getattr(store, "_messages", {})):
            if self.stability.is_stable(msg_id.originator, msg_id.seq):
                purged = store.purge_one(msg_id)
                if purged:
                    self.stable_purged += 1
