"""Maurer–Tixeuil-style parameterized broadcast for loosely connected
networks.

Maurer and Tixeuil study Byzantine-tolerant broadcast in multi-hop
networks that are only *loosely* connected — far from the classic
2f+1-connectivity requirement — by making the tolerance a local,
parameterizable quantity: each node assumes at most ``k`` Byzantine
nodes among its direct neighbours and applies the Certified Propagation
Algorithm (CPA) acceptance rule:

* accept a message heard **directly from its originator**, or
* accept once ``k + 1`` **distinct neighbours** have each relayed an
  identical copy — at most ``k`` of them can be lying, so at least one
  honest neighbour vouches for it.

A node relays only *after* accepting (commit-then-forward) — one
transmission per accepting node like flooding, plus a small bounded
repair budget of jitter-delayed re-vouches triggered by post-commit
duplicates (on a collision-prone radio channel a quorum of *distinct*
senders is fragile: each lost vouch frame costs more than a lost copy
costs flooding).  The trade is acceptance latency while the ``k + 1``
quorum assembles hop by hop.

``k = 0`` degenerates to flooding (any single neighbour suffices);
higher ``k`` buys per-neighbourhood Byzantine tolerance but demands the
correct topology be densely enough connected for quorums to form — the
"parameterizable" trade-off the papers make explicit, and the one the
conformance liveness test pins at this adapter's declared threshold.

The repo keeps originator signatures on DATA (wire-size parity across
the arena), so the quorum rule here is defence in depth for
*propagation*: distinct-sender counting works even where key directories
are unavailable, which is the regime Maurer–Tixeuil target.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from ..core.messages import DataMessage, MessageId
from ..des.random import RandomStream
from ..radio.packet import Packet
from .base import ArenaNode

__all__ = ["MaurerTixeuilNode"]


class MaurerTixeuilNode(ArenaNode):
    """CPA acceptance: direct from source, or ``k + 1`` distinct vouchers."""

    def __init__(self, *args, rng: RandomStream, local_faults: int = 0,
                 max_tracked: int = 64, resend_budget: int = 2,
                 repair_delay: float = 0.15, **kwargs):
        super().__init__(*args, **kwargs)
        if local_faults < 0:
            raise ValueError("local_faults must be >= 0")
        if resend_budget < 0:
            raise ValueError("resend_budget must be >= 0")
        self._rng = rng
        self._k = local_faults
        self._max_tracked = max_tracked
        self._resend_budget = resend_budget
        self._repair_delay = repair_delay
        #: (msg_id, payload) -> distinct neighbour ids vouching for
        #: exactly that payload.  Keyed on the payload too so a Byzantine
        #: neighbour relaying a mutated copy builds a *separate* quorum
        #: that honest copies never feed.
        self._vouchers: Dict[Tuple[MessageId, bytes], Set[int]] = {}
        #: msg_id -> (message, repair retransmissions left post-commit).
        self._resend_state: Dict[MessageId, Tuple[DataMessage, int]] = {}
        #: msg_ids with a repair retransmission already in flight.
        self._repair_pending: Set[MessageId] = set()

    @property
    def local_faults(self) -> int:
        return self._k

    def _reset_protocol_state(self) -> None:
        super()._reset_protocol_state()
        self._vouchers = {}
        self._resend_state = {}
        self._repair_pending = set()

    # ------------------------------------------------------------------
    def _on_broadcast(self, message: DataMessage) -> None:
        self._send_data(message)

    def _on_message(self, packet: Packet) -> None:
        message = packet.payload
        if not isinstance(message, DataMessage):
            return
        msg_id = message.msg_id
        if msg_id in self._delivered:
            # Committed — but still hearing copies means a quorum may not
            # have assembled everywhere (vouching frames die in
            # collisions, and a k+1 quorum needs *distinct* senders, so
            # each loss hurts more than it would under flooding).
            # Repair: re-vouch within a bounded budget, after a jittered
            # delay so the retransmission lands once the burst that ate
            # the original has passed.
            if msg_id in self._resend_state \
                    and msg_id not in self._repair_pending:
                self._repair_pending.add(msg_id)
                self._sim.schedule(
                    self._rng.jitter(self._repair_delay, 0.5),
                    self._repair_send, msg_id)
            return
        if not message.verify(self.directory):
            return
        if packet.sender == msg_id.originator:
            self._accept(message, packet.sender)
            return
        key = (msg_id, message.payload)
        vouchers = self._vouchers.setdefault(key, set())
        if len(self._vouchers) > self._max_tracked and not vouchers:
            del self._vouchers[key]
            return  # bound memory on garbage quorums
        vouchers.add(packet.sender)
        if len(vouchers) >= self._k + 1:
            self._accept(message, packet.sender)

    # ------------------------------------------------------------------
    def _accept(self, message: DataMessage, sender: int) -> None:
        # Drop every quorum for this msg_id (all payload variants) —
        # the commit is final and at-most-once.
        msg_id = message.msg_id
        for key in [k for k in self._vouchers if k[0] == msg_id]:
            del self._vouchers[key]
        if self._deliver(message, sender):
            # Repair only matters when quorums do: with k = 0 a single
            # copy commits anyone, so flooding's robustness suffices.
            if self._resend_budget > 0 and self._k > 0:
                self._resend_state[msg_id] = (message, self._resend_budget)
            self._send_data(message)  # commit-then-forward

    def _repair_send(self, msg_id: MessageId) -> None:
        self._repair_pending.discard(msg_id)
        state = self._resend_state.get(msg_id)
        if state is None or self._crashed:
            return
        message, budget = state
        if budget <= 1:
            del self._resend_state[msg_id]
        else:
            self._resend_state[msg_id] = (message, budget - 1)
        self._send_data(message)

