"""Signature schemes and the key directory (PKI stand-in).

The paper assumes "each device can obtain the public key of every other
device".  :class:`KeyDirectory` models that assumption: a per-simulation
registry that issues each node a private :class:`Signer` and lets any node
verify any other node's signatures.

Two interchangeable schemes are provided:

* :class:`DsaScheme` — the real DSA algorithm from :mod:`repro.crypto.dsa`,
  matching the paper's implementation choice;
* :class:`HmacScheme` — a fast HMAC-SHA256 signature *oracle* used for large
  parameter sweeps.  It preserves the only property the protocol relies on
  (a node that does not hold identity i's key cannot produce bytes that
  verify as i's signature) while being orders of magnitude faster.

Nodes only ever receive their own :class:`Signer`; adversary code therefore
cannot forge signatures other than by flipping bits, which verification
rejects — exactly the paper's "a node cannot impersonate another node"
assumption.
"""

from __future__ import annotations

import hashlib
import hmac
from abc import ABC, abstractmethod
from time import perf_counter
from typing import Dict, Optional

from .. import profiling
from . import dsa

__all__ = ["Signer", "SignatureScheme", "DsaScheme", "HmacScheme",
           "KeyDirectory"]


class Signer:
    """A node's private signing capability for one identity."""

    def __init__(self, node_id: int, scheme: "SignatureScheme"):
        self._node_id = node_id
        self._scheme = scheme

    @property
    def node_id(self) -> int:
        return self._node_id

    def sign(self, message: bytes) -> bytes:
        """Signature bytes over ``message`` under this identity's key."""
        prof = profiling.ACTIVE
        if prof is None:
            return self._scheme._sign(self._node_id, message)
        start = perf_counter()
        signature = self._scheme._sign(self._node_id, message)
        prof.add("crypto.sign", perf_counter() - start)
        return signature


class SignatureScheme(ABC):
    """Common interface for signature schemes used by the protocol stack."""

    @property
    @abstractmethod
    def signature_size(self) -> int:
        """Signature size in bytes (used for packet-size accounting)."""

    @abstractmethod
    def register(self, node_id: int) -> Signer:
        """Create keys for ``node_id`` and return its private signer."""

    @abstractmethod
    def verify(self, node_id: int, message: bytes, signature: bytes) -> bool:
        """True iff ``signature`` is ``node_id``'s signature on ``message``."""

    @abstractmethod
    def _sign(self, node_id: int, message: bytes) -> bytes:
        """Internal: produce a signature (reached only through Signer)."""


class DsaScheme(SignatureScheme):
    """Real DSA signatures (the paper's choice)."""

    def __init__(self, parameters: Optional[dsa.DsaParameters] = None,
                 seed: bytes = b"repro"):
        self._parameters = parameters or dsa.default_parameters()
        self._seed = seed
        self._private: Dict[int, dsa.DsaPrivateKey] = {}
        self._public: Dict[int, dsa.DsaPublicKey] = {}

    @property
    def parameters(self) -> dsa.DsaParameters:
        return self._parameters

    @property
    def signature_size(self) -> int:
        return 2 * ((self._parameters.q_bits + 7) // 8)

    def register(self, node_id: int) -> Signer:
        if node_id in self._private:
            raise ValueError(f"node {node_id} already registered")
        key_seed = self._seed + b":" + str(node_id).encode()
        private, public = dsa.generate_keypair(self._parameters, key_seed)
        self._private[node_id] = private
        self._public[node_id] = public
        return Signer(node_id, self)

    def public_key(self, node_id: int) -> dsa.DsaPublicKey:
        return self._public[node_id]

    def verify(self, node_id: int, message: bytes, signature: bytes) -> bool:
        public = self._public.get(node_id)
        if public is None:
            return False
        if not (isinstance(message, bytes) and isinstance(signature, bytes)):
            return False
        try:
            decoded = dsa.DsaSignature.from_bytes(signature)
        except ValueError:
            return False
        return dsa.verify(public, message, decoded)

    def _sign(self, node_id: int, message: bytes) -> bytes:
        private = self._private[node_id]
        return dsa.sign(private, message).to_bytes(self._parameters.q_bits)


class HmacScheme(SignatureScheme):
    """HMAC-SHA256 signature oracle for simulation-scale runs.

    The verifier holds all MAC keys (it plays the role of the PKI plus the
    mathematical hardness assumption); protocol/adversary code only ever
    sees :class:`Signer` handles, so unforgeability holds by construction
    within the simulation.
    """

    SIGNATURE_SIZE = 20  # truncated tag, sized like a DSA r||s at 80 bits x2

    def __init__(self, seed: bytes = b"repro"):
        self._seed = seed
        self._keys: Dict[int, bytes] = {}

    @property
    def signature_size(self) -> int:
        return self.SIGNATURE_SIZE

    def register(self, node_id: int) -> Signer:
        if node_id in self._keys:
            raise ValueError(f"node {node_id} already registered")
        self._keys[node_id] = hashlib.sha256(
            self._seed + b":key:" + str(node_id).encode()).digest()
        return Signer(node_id, self)

    def verify(self, node_id: int, message: bytes, signature: bytes) -> bool:
        key = self._keys.get(node_id)
        if key is None:
            return False
        try:
            expected = hmac.digest(key, message, "sha256")
            return hmac.compare_digest(expected[: self.SIGNATURE_SIZE],
                                       signature)
        except TypeError:
            return False  # a message or signature that is not bytes

    def _sign(self, node_id: int, message: bytes) -> bytes:
        key = self._keys[node_id]
        return hmac.digest(key, message, "sha256")[: self.SIGNATURE_SIZE]


class KeyDirectory:
    """Per-simulation key registry: issues signers, answers verifications.

    This is the abstraction handed to protocol nodes; it hides whether the
    underlying scheme is DSA or the HMAC oracle.
    """

    def __init__(self, scheme: Optional[SignatureScheme] = None):
        self._scheme = scheme or HmacScheme()

    @property
    def scheme(self) -> SignatureScheme:
        return self._scheme

    @property
    def signature_size(self) -> int:
        return self._scheme.signature_size

    def issue(self, node_id: int) -> Signer:
        """Issue (generate) keys for a new node; returns its signer."""
        return self._scheme.register(node_id)

    def verify(self, node_id: int, message: bytes, signature: bytes,
               msg=None) -> bool:
        """True iff the signature checks out.  ``msg`` is an optional
        :class:`~repro.core.messages.MessageId` giving observability the
        message the verification is *about*; it never affects the
        cryptographic outcome."""
        prof = profiling.ACTIVE
        if prof is None:
            return self._scheme.verify(node_id, message, signature)
        start = perf_counter()
        ok = self._scheme.verify(node_id, message, signature)
        prof.add("crypto.verify", perf_counter() - start)
        return ok

    def caching_view(self, size: int,
                     owner: Optional[int] = None) -> "KeyDirectory":
        """A per-node verifying view with a bounded verified-signature
        LRU (see :mod:`repro.crypto.verifycache`).  Only positive
        results of full verification are memoized; negatives always
        re-fail, so Byzantine accounting is unaffected.  ``owner`` names
        the node holding the view, so verify spans land on it."""
        from .verifycache import CachingKeyDirectory
        return CachingKeyDirectory(self, size, owner=owner)
