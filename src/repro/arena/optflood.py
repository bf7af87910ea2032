"""Optimized flooding with counter-based retransmission suppression.

Plain flooding has every node retransmit every fresh message once, which
in dense radio neighbourhoods is mostly wasted airtime (the broadcast
storm problem).  Paruchuri et al.'s optimized flooding — and the
counter-based scheme from Ni et al.'s broadcast-storm analysis it builds
on — cuts the redundancy: on first receipt a node *delivers*
immediately but defers its retransmission by a small random assessment
delay; every duplicate copy overheard while waiting is evidence the
neighbourhood is already covered, and once ``suppression_threshold``
duplicates are heard the retransmission is cancelled outright.

The random delay does double duty: it desynchronises would-be relays
(fewer MAC collisions) and gives the counter time to observe the copies
that make the retransmission redundant.  Safety is identical to signed
flooding — only verified, first-seen messages are delivered — and the
suppression choice is driven entirely by the per-node named stream
``optflood:<id>``, so runs stay deterministic across repeats, worker
counts, media, and checkpoint/resume.

The price is probabilistic coverage: a sparsely-placed node whose only
bridge suppresses can be starved, which is exactly the kind of claim the
arena scorecard exists to quantify against the paper's protocol.
"""

from __future__ import annotations

from typing import Dict

from ..core.messages import DataMessage, MessageId
from ..des.random import RandomStream
from ..radio.packet import Packet
from .base import ArenaNode

__all__ = ["OptFloodNode"]


class OptFloodNode(ArenaNode):
    """Flooding relay with a counter-suppressed assessment window."""

    def __init__(self, *args, rng: RandomStream,
                 suppression_threshold: int = 3,
                 assessment_delay: float = 0.08,
                 delay_jitter: float = 0.5, **kwargs):
        super().__init__(*args, **kwargs)
        if suppression_threshold < 1:
            raise ValueError("suppression_threshold must be >= 1")
        if assessment_delay <= 0:
            raise ValueError("assessment_delay must be positive")
        self._rng = rng
        self._threshold = suppression_threshold
        self._delay = assessment_delay
        self._jitter = delay_jitter
        #: msg_id -> duplicates overheard while its assessment runs.
        #: Absent key = no retransmission pending (already sent,
        #: suppressed, or never received).
        self._pending: Dict[MessageId, int] = {}
        #: Messages we may still need to retransmit when assessing.
        self._held: Dict[MessageId, DataMessage] = {}

    def _reset_protocol_state(self) -> None:
        super()._reset_protocol_state()
        # Old assessment events may still fire; the guard dicts being
        # cleared turns them into no-ops.
        self._pending = {}
        self._held = {}

    # ------------------------------------------------------------------
    def _on_broadcast(self, message: DataMessage) -> None:
        self._send_data(message)

    def _on_message(self, packet: Packet) -> None:
        message = packet.payload
        if not isinstance(message, DataMessage):
            return
        msg_id = message.msg_id
        if msg_id in self._pending:
            self._pending[msg_id] += 1
            return
        if msg_id in self._delivered:
            return  # assessment already concluded for this message
        if not message.verify(self.directory):
            return
        self._deliver(message, packet.sender)
        self._pending[msg_id] = 0
        self._held[msg_id] = message
        delay = self._rng.jitter(self._delay, self._jitter)
        self._sim.schedule(delay, self._assess, msg_id)

    # ------------------------------------------------------------------
    def _assess(self, msg_id: MessageId) -> None:
        """Assessment window closed: retransmit unless covered."""
        duplicates = self._pending.pop(msg_id, None)
        message = self._held.pop(msg_id, None)
        if duplicates is None or message is None or self._crashed:
            return
        if duplicates >= self._threshold:
            return  # neighbourhood already covered; stay quiet
        self._send_data(message)
