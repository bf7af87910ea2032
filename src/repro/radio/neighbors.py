"""Neighbor discovery via periodic HELLO beacons.

Maintains each node's estimate of N(1, p) — the set of nodes currently
inside its reception range — with timeout-based eviction so that mobility
(and crashed radios) age out of the set.

HELLOs are signed when a signer/directory pair is supplied ("we assume that
overlay maintenance messages are signed as well"), which prevents a
Byzantine node from fabricating the presence of other nodes.  Overlay state
is piggybacked onto the beacons through *extras providers* — the paper
notes "most overlay maintenance messages can be piggybacked on gossip
messages"; piggybacking on HELLO beacons plays the same role without an
extra packet class.

Beacon fast path: one transmission is one frozen :class:`HelloMessage`
handed by reference to every neighbour that hears it, so work that
depends only on the beacon is done once per beacon — its signed bytes are
memoized on the message (:func:`repro.crypto.digest.signed_bytes`) and
the sender re-walks the frame for its size only when its extras changed.
What a receiver decides is never shared: each one runs its own
``directory.verify`` and counts its own bad signatures.  ``extras`` (and
everything inside it) is immutable once the beacon is sent; listeners
must not modify it.
"""

from __future__ import annotations

import marshal
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from .. import codec, profiling
from ..crypto.digest import encode_fields, signed_bytes
from ..crypto.keystore import KeyDirectory, Signer
from ..des.kernel import Simulator
from ..des.random import RandomStream
from ..des.timers import PeriodicTask
from .packet import Packet
from .radio import Radio

__all__ = ["HelloMessage", "NeighborService"]

HELLO_KIND = "hello"


@dataclass(frozen=True)
class HelloMessage:
    """Beacon payload: identity, sequence number, piggybacked extras.

    ``extras`` is immutable once the beacon is sent."""

    sender: int
    seq: int
    extras: Dict[str, Any]
    signature: bytes = b""

    def signed_fields(self) -> tuple:
        # Extras are not themselves signed field-by-field: each extra
        # producer (e.g. the overlay) signs its own content.  The signature
        # here binds identity and liveness (sender, seq).
        return (self.sender, self.seq)


class NeighborService:
    """Tracks one node's direct neighbors from HELLO receptions."""

    # What the last sized beacon's extras looked like and how many frame
    # bytes they (plus the frame's fixed part) took; see _emit_hello.
    # Class-level defaults, so a service restored from a snapshot taken
    # before these existed simply sizes its next beacon in full.
    _sized_extras: Optional[bytes] = None
    _extras_size = 0

    def __init__(self, sim: Simulator, radio: Radio, rng: RandomStream, *,
                 hello_period: float = 1.0,
                 timeout_factor: float = 3.5,
                 signer: Optional[Signer] = None,
                 directory: Optional[KeyDirectory] = None):
        if hello_period <= 0:
            raise ValueError("hello_period must be positive")
        if (signer is None) != (directory is None):
            raise ValueError("signer and directory must be given together")
        self._sim = sim
        self._radio = radio
        self._hello_period = hello_period
        self._timeout = hello_period * timeout_factor
        self._signer = signer
        self._directory = directory
        self._seq = 0
        self._last_seen: Dict[int, float] = {}
        self._providers: List[Callable[[], Dict[str, Any]]] = []
        self._listeners: List[Callable[[int, Dict[str, Any]], None]] = []
        self._beacon = PeriodicTask(sim, hello_period, self._send_hello,
                                    jitter=0.25, rng=rng,
                                    start_immediately=True)
        self.bad_signature_count = 0

    # ------------------------------------------------------------------
    @property
    def hello_period(self) -> float:
        return self._hello_period

    @property
    def timeout(self) -> float:
        return self._timeout

    def start(self) -> None:
        self._beacon.start()

    def stop(self) -> None:
        self._beacon.stop()

    def add_extras_provider(self,
                            provider: Callable[[], Dict[str, Any]]) -> None:
        """Register a callback whose dict is merged into outgoing HELLOs."""
        self._providers.append(provider)

    def add_listener(self,
                     listener: Callable[[int, Dict[str, Any]], None]) -> None:
        """Register a callback invoked as ``listener(sender, extras)`` for
        every authenticated HELLO received.  ``extras`` is the beacon's own
        dict, shared by every receiver of that beacon: read-only."""
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    def neighbors(self) -> List[int]:
        """Current N(1, p) estimate (ids heard within the timeout)."""
        horizon = self._sim.now - self._timeout
        return sorted(node_id for node_id, seen in self._last_seen.items()
                      if seen >= horizon)

    def is_neighbor(self, node_id: int) -> bool:
        seen = self._last_seen.get(node_id)
        return seen is not None and seen >= self._sim.now - self._timeout

    def last_seen(self, node_id: int) -> Optional[float]:
        return self._last_seen.get(node_id)

    def forget(self, node_id: int) -> None:
        self._last_seen.pop(node_id, None)

    # ------------------------------------------------------------------
    def _send_hello(self) -> None:
        prof = profiling.ACTIVE
        if prof is None:
            self._emit_hello()
            return
        start = perf_counter()
        self._emit_hello()
        prof.add("hello.send", perf_counter() - start)

    def _emit_hello(self) -> None:
        extras: Dict[str, Any] = {}
        for provider in self._providers:
            extras.update(provider())
        self._seq += 1
        sender = self._radio.node_id
        signature = b""
        if self._signer is not None:
            signature = self._signer.sign(encode_fields((sender, self._seq)))
        hello = HelloMessage(sender=sender, seq=self._seq, extras=extras,
                             signature=signature)
        # Most beacons repeat the previous one's extras, so the frame is
        # walked only when they changed.  marshal is the C-speed, type-exact
        # fingerprint ``==`` cannot be: True == 1 == 1.0, yet they encode to
        # 1, 2 and 9 bytes.  (Equal fingerprints decode to equal values of
        # equal types; it refuses subclass instances, which are then sized
        # every time.)
        envelope = (codec.encoded_size(sender) + codec.encoded_size(self._seq)
                    + codec.encoded_size(signature))
        try:
            fingerprint = marshal.dumps(extras)
        except ValueError:
            fingerprint = None
        if fingerprint is not None and fingerprint == self._sized_extras:
            size = self._extras_size + envelope
        else:
            size = self._wire_size(hello)
            self._sized_extras = fingerprint
            self._extras_size = size - envelope
        self._radio.send(hello, size_bytes=size, kind=HELLO_KIND)

    @staticmethod
    def _wire_size(hello: HelloMessage) -> int:
        # Exact on-air size; the frame shape mirrors repro.core.wire's
        # HELLO encoding (which cannot be imported here without a cycle —
        # tests/test_codec_wire.py pins the two in sync).
        return codec.encoded_size(
            ["H", hello.sender, hello.seq, hello.extras, hello.signature])

    def handle_packet(self, packet: Packet) -> bool:
        """Process a packet if it is a HELLO; returns True when consumed."""
        payload = packet.payload
        if not isinstance(payload, HelloMessage):
            return False
        prof = profiling.ACTIVE
        if prof is None:
            self._receive(payload)
            return True
        start = perf_counter()
        self._receive(payload)
        prof.add("hello.recv", perf_counter() - start)
        return True

    def _receive(self, hello: HelloMessage) -> None:
        # The signed bytes are the beacon's; the verification is ours.
        if self._directory is not None and not self._directory.verify(
                hello.sender, signed_bytes(hello), hello.signature):
            self.bad_signature_count += 1
            return
        self._last_seen[hello.sender] = self._sim.now
        extras = hello.extras
        if not isinstance(extras, dict):
            # Authenticated all the same (the signature binds sender and
            # seq, not extras), but there is nothing a listener can read.
            return
        for listener in self._listeners:
            listener(hello.sender, extras)
