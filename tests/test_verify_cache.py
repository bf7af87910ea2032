"""Verified-signature cache: LRU mechanics and Byzantine safety.

The cache may only ever skip *recomputing* a verification this node
already performed in full.  The tests here pin both halves of that
contract: the LRU behaves as a bounded memo (eviction, recency,
counters), and no sequence of genuine and tampered traffic can make a
bad signature pass or go uncounted.
"""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.messages import GossipMessage, GossipPacket, MessageId
from repro.crypto.keystore import HmacScheme, KeyDirectory
from repro.crypto.verifycache import CachingKeyDirectory, VerifyCache

from tests.helpers import ProtocolHarness


# ----------------------------------------------------------------------
# VerifyCache: the LRU itself
# ----------------------------------------------------------------------
class TestVerifyCache:
    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            VerifyCache(0)

    def test_check_counts_hits_and_misses(self):
        cache = VerifyCache(4)
        key = VerifyCache.key(1, b"msg", b"sig")
        assert not cache.check(key)
        cache.add(key)
        assert cache.check(key)
        assert cache.check(key)
        assert (cache.hits, cache.misses) == (2, 1)

    def test_bounded_at_size_oldest_evicted(self):
        cache = VerifyCache(3)
        keys = [VerifyCache.key(i, b"m", b"s") for i in range(5)]
        for key in keys:
            cache.add(key)
        assert len(cache) == 3
        assert keys[0] not in cache and keys[1] not in cache
        assert all(key in cache for key in keys[2:])

    def test_check_refreshes_recency(self):
        cache = VerifyCache(3)
        keys = [VerifyCache.key(i, b"m", b"s") for i in range(4)]
        for key in keys[:3]:
            cache.add(key)
        cache.check(keys[0])       # a is now most recent
        cache.add(keys[3])         # evicts b, the oldest
        assert keys[0] in cache
        assert keys[1] not in cache

    def test_key_is_framing_unambiguous(self):
        # Same concatenation, different message/signature split.
        assert (VerifyCache.key(1, b"ab", b"c")
                != VerifyCache.key(1, b"a", b"bc"))

    def test_key_distinguishes_signers(self):
        assert (VerifyCache.key(1, b"m", b"s")
                != VerifyCache.key(2, b"m", b"s"))

    def test_clear_resets_entries_and_counters(self):
        cache = VerifyCache(4)
        key = VerifyCache.key(1, b"m", b"s")
        cache.add(key)
        cache.check(key)
        cache.check(VerifyCache.key(2, b"m", b"s"))
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (0, 0)
        assert key not in cache


# ----------------------------------------------------------------------
# CachingKeyDirectory: positive-only memoization
# ----------------------------------------------------------------------
class CountingScheme(HmacScheme):
    """HMAC scheme that counts full verifications."""

    def __init__(self, seed: bytes = b"test"):
        super().__init__(seed)
        self.verifications = 0

    def verify(self, node_id, message, signature):
        self.verifications += 1
        return super().verify(node_id, message, signature)


class TestCachingKeyDirectory:
    def setup_method(self):
        self.scheme = CountingScheme()
        self.base = KeyDirectory(self.scheme)
        self.signer = self.base.issue(1)
        self.view = self.base.caching_view(16)

    def test_caching_view_factory(self):
        assert isinstance(self.view, CachingKeyDirectory)
        assert self.view.base is self.base
        assert self.view.cache.size == 16

    def test_hit_skips_full_verification(self):
        signature = self.signer.sign(b"hello")
        assert self.view.verify(1, b"hello", signature)
        assert self.view.verify(1, b"hello", signature)
        assert self.scheme.verifications == 1
        assert (self.view.cache.hits, self.view.cache.misses) == (1, 1)

    def test_failed_verification_never_cached(self):
        bad = b"\x00" * len(self.signer.sign(b"hello"))
        assert not self.view.verify(1, b"hello", bad)
        assert not self.view.verify(1, b"hello", bad)
        # Both attempts ran the full verification; nothing was stored.
        assert self.scheme.verifications == 2
        assert len(self.view.cache) == 0

    @pytest.mark.parametrize("message, signature", [
        (b"hello", "str"), (b"hello", None), (b"hello", 5),
        ("hello", b"\x00" * 20), (None, b"\x00" * 20)])
    def test_non_bytes_refused_and_never_cached(self, message, signature):
        assert self.view.verify(1, message, signature) is False
        assert self.view.verify(1, message, signature) is False
        assert self.scheme.verifications == 2
        assert len(self.view.cache) == 0
        assert (self.view.cache.hits, self.view.cache.misses) == (0, 0)

    def test_tampered_variant_misses_genuine_entry(self):
        signature = self.signer.sign(b"hello")
        assert self.view.verify(1, b"hello", signature)
        tampered = bytes([signature[0] ^ 0x01]) + signature[1:]
        assert not self.view.verify(1, b"hello", tampered)
        assert not self.view.verify(1, b"tampered", signature)
        assert not self.view.verify(2, b"hello", signature)
        # One genuine entry cached; three tampered variants all ran (and
        # failed) the full verification.
        assert self.scheme.verifications == 4
        assert len(self.view.cache) == 1

    def test_outcomes_equal_uncached_directory(self):
        signature = self.signer.sign(b"payload")
        cases = [
            (1, b"payload", signature, True),
            (1, b"payload", b"forged-bytes-----", False),
            (1, b"other", signature, False),
            (2, b"payload", signature, False),   # unknown signer
        ]
        for node_id, message, sig, expected in cases:
            assert self.base.verify(node_id, message, sig) is expected
            # Twice through the view: cold and (possibly) cached.
            assert self.view.verify(node_id, message, sig) is expected
            assert self.view.verify(node_id, message, sig) is expected


# ----------------------------------------------------------------------
# Protocol integration: the satellite regression
# ----------------------------------------------------------------------
def _tamper(gossip: GossipMessage) -> GossipMessage:
    flipped = bytes([gossip.signature[0] ^ 0x01]) + gossip.signature[1:]
    return GossipMessage(msg_id=gossip.msg_id, signature=flipped)


class TestProtocolVerifyCache:
    def test_harness_protocol_uses_caching_view(self):
        h = ProtocolHarness()
        assert isinstance(h.proto_directory, CachingKeyDirectory)
        assert (h.proto_directory.cache.size
                == h.config.verify_cache_size)

    def test_zero_size_disables_cache(self):
        h = ProtocolHarness(config=ProtocolConfig(verify_cache_size=0))
        assert h.proto_directory is h.directory
        stats = h.protocol.stats
        assert (stats.verify_cache_hits, stats.verify_cache_misses) == (0, 0)

    def test_repeat_gossip_hits_cache(self):
        h = ProtocolHarness()
        gossip = GossipMessage.create(h.signers[2], 1)
        h.deliver(GossipPacket(entries=(gossip,)), sender=2, kind="gossip")
        h.run(1.0)  # respect the gossip min-spacing policy
        h.deliver(GossipPacket(entries=(gossip,)), sender=2, kind="gossip")
        stats = h.protocol.stats
        assert stats.gossip_entries_received == 2
        assert stats.bad_signatures == 0
        assert stats.verify_cache_hits >= 1
        assert stats.verify_cache_misses >= 1

    def test_tampered_replay_rejected_after_genuine_cached(self):
        """A Byzantine node replaying a tampered copy of an entry whose
        genuine version this node already verified (and cached) is still
        rejected, counted, and suspected — on every replay."""
        h = ProtocolHarness()
        genuine = GossipMessage.create(h.signers[2], 1)
        h.deliver(GossipPacket(entries=(genuine,)), sender=2, kind="gossip")
        assert h.protocol.stats.bad_signatures == 0
        hits_before = h.protocol.stats.verify_cache_hits

        tampered = _tamper(genuine)
        h.run(1.0)
        h.deliver(GossipPacket(entries=(tampered,)), sender=3,
                  kind="gossip")
        assert h.protocol.stats.bad_signatures == 1
        assert not h.trust.trusts(3)

        # Replay again: the failure is re-verified and re-counted, never
        # served from (or stored into) the cache.
        h.run(1.0)
        h.deliver(GossipPacket(entries=(tampered,)), sender=4,
                  kind="gossip")
        assert h.protocol.stats.bad_signatures == 2
        assert not h.trust.trusts(4)
        # The tampered tuple was never stored, and the tampered
        # deliveries produced no cache hits.
        from repro.crypto.digest import encode_fields
        cache = h.proto_directory.cache
        tampered_key = VerifyCache.key(
            tampered.msg_id.originator,
            encode_fields(tampered.signed_fields()),
            tampered.signature)
        assert tampered_key not in cache
        assert h.protocol.stats.verify_cache_hits == hits_before

    def test_stats_counters_track_cache(self):
        h = ProtocolHarness()
        gossip = GossipMessage.create(h.signers[2], 1)
        for sender in (2, 3):
            h.deliver(GossipPacket(entries=(gossip,)), sender=sender,
                      kind="gossip")
            h.run(1.0)
        cache = h.proto_directory.cache
        stats = h.protocol.stats
        assert stats.verify_cache_hits == cache.hits
        assert stats.verify_cache_misses == cache.misses
        assert cache.hits >= 1

    def test_reset_state_clears_cache(self):
        h = ProtocolHarness()
        gossip = GossipMessage.create(h.signers[2], 1)
        h.deliver(GossipPacket(entries=(gossip,)), sender=2, kind="gossip")
        assert len(h.proto_directory.cache) > 0
        h.protocol.reset_state()
        assert len(h.proto_directory.cache) == 0
        stats = h.protocol.stats
        assert (stats.verify_cache_hits, stats.verify_cache_misses) == (0, 0)

    def test_bounded_by_config_size(self):
        h = ProtocolHarness(config=ProtocolConfig(verify_cache_size=2))
        for seq in range(1, 5):
            gossip = GossipMessage.create(h.signers[2], seq)
            h.deliver(GossipPacket(entries=(gossip,)), sender=2,
                      kind="gossip")
            h.run(1.0)
        assert len(h.proto_directory.cache) <= 2
