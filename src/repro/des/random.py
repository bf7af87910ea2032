"""Seeded, named random streams.

Each simulation component (radio medium, MAC backoff, mobility, workload,
adversary) draws from its own independent stream derived from the master
seed and a component name.  This keeps runs reproducible while ensuring that
adding randomness to one component never perturbs the draws of another —
the property that makes parameter sweeps comparable across configurations.
"""

from __future__ import annotations

import hashlib
import random
from itertools import repeat, starmap
from typing import Any, Iterator, List, Sequence, Tuple, TypeVar

import numpy as np

__all__ = ["RandomStream", "StreamFactory"]

T = TypeVar("T")


class RandomStream:
    """A thin wrapper over :class:`random.Random` with simulation helpers."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._seed = seed

    @property
    def seed(self) -> int:
        return self._seed

    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)

    def random(self) -> float:
        return self._rng.random()

    def randoms(self, count: int) -> np.ndarray:
        """``count`` consecutive :meth:`random` draws as one float64 array.

        Consumes the stream exactly as ``count`` single calls would, so a
        bulk consumer (placement sampling) stays draw-for-draw identical
        to a scalar one.
        """
        return np.fromiter(starmap(self._rng.random, repeat((), count)),
                           dtype=np.float64, count=count)

    def expovariate(self, rate: float) -> float:
        return self._rng.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._rng.gauss(mu, sigma)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high], inclusive."""
        return self._rng.randint(low, high)

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        return self._rng.sample(seq, k)

    def shuffle(self, seq: list) -> None:
        self._rng.shuffle(seq)

    def chance(self, probability: float) -> bool:
        """Bernoulli trial: True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._rng.random() < probability

    def jitter(self, base: float, fraction: float) -> float:
        """``base`` perturbed uniformly by up to ``±fraction * base``."""
        return base * self._rng.uniform(1.0 - fraction, 1.0 + fraction)

    # ------------------------------------------------------------------
    # Snapshot hooks (checkpoint/restore)
    # ------------------------------------------------------------------
    def getstate(self) -> Tuple[Any, ...]:
        """The underlying generator state (see ``random.Random.getstate``).

        Together with :meth:`setstate` this lets a checkpoint capture a
        stream mid-run and resume it so the continued draw sequence is
        identical to an uninterrupted run.  (Pickling a stream preserves
        the same state; these hooks exist for explicit state export.)
        """
        return self._rng.getstate()

    def setstate(self, state: Tuple[Any, ...]) -> None:
        """Restore a state captured by :meth:`getstate`."""
        self._rng.setstate(state)


class StreamFactory:
    """Derives independent :class:`RandomStream` instances from one seed.

    Derivation hashes ``(master_seed, name)`` with SHA-256 so that streams
    are statistically independent and stable across process runs (unlike
    ``hash()`` which is salted per interpreter).
    """

    def __init__(self, master_seed: int):
        self._master_seed = master_seed
        self._issued: List[str] = []

    @property
    def master_seed(self) -> int:
        return self._master_seed

    @property
    def issued_names(self) -> List[str]:
        """Every stream name derived so far, in derivation order.

        A checkpoint manifest records this list so a resumed run can be
        audited against the uninterrupted one: the set of named streams
        (whose states live wherever the streams are referenced) must
        match.  Derivation stays side-effect free otherwise: each call
        still returns a fresh stream at its initial state.
        """
        return list(self._issued)

    def stream(self, name: str) -> RandomStream:
        """Return the stream for ``name`` (same name → same stream state)."""
        digest = hashlib.sha256(
            f"{self._master_seed}:{name}".encode()).digest()
        self._issued.append(name)
        return RandomStream(int.from_bytes(digest[:8], "big"))

    def streams(self, names: Sequence[str]) -> Iterator[RandomStream]:
        for name in names:
            yield self.stream(name)
