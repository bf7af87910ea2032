"""Verified-signature memoization.

A single DSA verification is orders of magnitude more expensive than any
other per-receive step (benchmark A4), yet a node re-verifies the *same*
gossip entry on every gossip period and the same embedded proof on every
retransmission.  :class:`VerifyCache` is a bounded per-node LRU over
digests of the exact ``(signer_id, message_bytes, signature_bytes)``
triple, and :class:`CachingKeyDirectory` is the per-node view over the
simulation's shared :class:`~repro.crypto.keystore.KeyDirectory` that
consults it.

Why memoization does not weaken the Byzantine guarantees:

* **Only positive results of a full verification are cached.**  A failed
  verification never populates the cache, so a bad signature re-fails —
  and is re-counted by ``bad_signatures`` accounting — on every replay.
* **Entries are keyed on the exact bytes.**  The key is a SHA-256 digest
  over the length-framed triple, so a forged variant (any flipped bit in
  the signer id, message encoding, or signature) can never hit an entry
  created by the genuine tuple.
* **The cache answers exactly the question full verification answers.**
  Signature verification is a pure function of the triple; caching a
  ``True`` outcome is just not recomputing a deterministic result.

The cache is per-node (each node holds its own view), matching the
paper's model where every device verifies independently; a Byzantine
node's cache cannot influence a correct node's decisions.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

from typing import Optional

from .. import profiling
from ..obs import context as obs
from .keystore import KeyDirectory

__all__ = ["VerifyCache", "CachingKeyDirectory"]


class VerifyCache:
    """Bounded LRU set of digests of positively-verified signed tuples."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError(f"cache size must be >= 1: {size}")
        self._size = size
        self._entries: "OrderedDict[bytes, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Maximum number of retained entries."""
        return self._size

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: bytes) -> bool:
        """Non-counting, non-reordering membership probe (tests/debug)."""
        return key in self._entries

    # ------------------------------------------------------------------
    @staticmethod
    def key(node_id: int, message: bytes, signature: bytes) -> bytes:
        """Digest of the exact signed triple, unambiguously framed.

        Length-prefixing the message removes any message/signature
        boundary ambiguity: two different triples can never produce the
        same pre-image.
        """
        hasher = hashlib.sha256()
        hasher.update(node_id.to_bytes(8, "big", signed=True))
        hasher.update(len(message).to_bytes(4, "big"))
        hasher.update(message)
        hasher.update(signature)
        return hasher.digest()

    def check(self, key: bytes) -> bool:
        """True iff ``key`` was previously stored; refreshes its recency.

        Counts a hit or a miss either way.
        """
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def add(self, key: bytes) -> None:
        """Store a positively-verified key, evicting the oldest if full."""
        self._entries[key] = None
        self._entries.move_to_end(key)
        if len(self._entries) > self._size:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0


class CachingKeyDirectory(KeyDirectory):
    """A node's verifying view over the shared key directory.

    ``issue`` and scheme access delegate to the underlying directory;
    only ``verify`` is intercepted.  On a cache hit the full (expensive)
    scheme verification is skipped; on a miss the full verification runs
    and only a ``True`` outcome is stored.
    """

    def __init__(self, base: KeyDirectory, size: int,
                 owner: Optional[int] = None):
        super().__init__(base.scheme)
        self._base = base
        # The node holding this view; verify spans are attributed to it.
        # Views built without an owner simply emit no spans.
        self._owner = owner
        self.cache = VerifyCache(size)

    @property
    def base(self) -> KeyDirectory:
        return self._base

    def verify(self, node_id: int, message: bytes, signature: bytes,
               msg=None) -> bool:
        try:
            key = VerifyCache.key(node_id, message, signature)
        except TypeError:
            # A message or signature that is not bytes names no signed
            # triple: never looked up, refused by the scheme below.
            key = None
        ctx = obs.ACTIVE
        if key is not None and self.cache.check(key):
            prof = profiling.ACTIVE
            if prof is not None:
                prof.add("crypto.verify_hit")
            if ctx is not None and self._owner is not None:
                ctx.span("verify_hit", self._owner, msg=msg,
                         signer=node_id)
            return True
        ok = super().verify(node_id, message, signature)
        if ok:
            self.cache.add(key)
        if ctx is not None and self._owner is not None:
            ctx.span("verify", self._owner, msg=msg, signer=node_id, ok=ok)
        return ok
