"""Closed-form calculators for the paper's §3.5 protocol analysis.

Implements the analysis section's quantities as checkable functions:

* ``max_timeout`` — one recovery cycle's worst-case duration;
* dissemination-time bounds (mobile: Theorem 3.4; static worst case: the
  "Byzantine overlay" chain of Figure 5);
* buffer-size bounds (static and mobile);
* the Observation 3.3 constraint relating the I_mute ``mute_interval`` to
  the dissemination bound.

These are *predictions*; experiment E10 and ``tests/test_analysis*.py``
check the measured system against them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import ProtocolConfig

__all__ = ["AnalysisModel", "transmission_time"]


def transmission_time(packet_bytes: int, bitrate_bps: float,
                      preamble_s: float = 192e-6) -> float:
    """β: the latency of one packet over the channel."""
    if packet_bytes <= 0 or bitrate_bps <= 0:
        raise ValueError("packet_bytes and bitrate_bps must be positive")
    return preamble_s + packet_bytes * 8.0 / bitrate_bps


@dataclass(frozen=True)
class AnalysisModel:
    """The §3.5 quantities for one protocol configuration.

    ``beta`` is the transmission time of a full DATA packet (the longest
    frame a recovery step waits on); ``delta`` the system-wide message
    injection rate (messages/second).
    """

    config: ProtocolConfig
    n: int
    beta: float = 0.005
    delta: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.delta <= 0:
            raise ValueError("delta must be positive")

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    @property
    def max_timeout(self) -> float:
        """``gossip_timeout + request_timeout + rebroadcast_timeout +
        3·β`` — one worst-case recovery cycle."""
        return (self.config.gossip_period + self.config.request_timeout
                + self.config.rebroadcast_timeout + 3 * self.beta)

    @property
    def dissemination_bound_mobile(self) -> float:
        """Theorem 3.4: all correct nodes receive m within
        ``max_timeout · (n − 1)``."""
        return self.max_timeout * (self.n - 1)

    @property
    def dissemination_bound_static(self) -> float:
        """The static worst case (Figure 5): every overlay node Byzantine,
        the message crosses n/2 hops by gossip-recovery alone —
        ``max_timeout · n / 2``."""
        return self.max_timeout * self.n / 2

    @property
    def min_mute_interval(self) -> float:
        """Observation 3.3: to avoid false suspicions of overlay nodes the
        I_mute mute interval must exceed ``(n − 1) · max_timeout``."""
        return (self.n - 1) * self.max_timeout

    # ------------------------------------------------------------------
    # Buffers
    # ------------------------------------------------------------------
    @property
    def buffer_bound_static(self) -> float:
        """Static network: hold each message ~max_timeout ⇒ buffer of
        ``max_timeout · δ`` messages."""
        return self.max_timeout * self.delta

    @property
    def buffer_bound_mobile(self) -> float:
        """Mobile network: hold until everyone has it ⇒
        ``max_timeout · (n − 1) · δ`` messages."""
        return self.dissemination_bound_mobile * self.delta

    # ------------------------------------------------------------------
    # Derived guidance
    # ------------------------------------------------------------------
    def recommended_purge_timeout(self, mobile: bool) -> float:
        """The smallest retention consistent with the §3.5 analysis (plus
        one cycle of slack for MAC jitter)."""
        horizon = (self.dissemination_bound_mobile if mobile
                   else self.dissemination_bound_static)
        return horizon + self.max_timeout

    def summary(self) -> dict:
        return {
            "max_timeout_s": self.max_timeout,
            "dissemination_bound_mobile_s": self.dissemination_bound_mobile,
            "dissemination_bound_static_s": self.dissemination_bound_static,
            "min_mute_interval_s": self.min_mute_interval,
            "buffer_bound_static_msgs": self.buffer_bound_static,
            "buffer_bound_mobile_msgs": self.buffer_bound_mobile,
        }
