"""Failure detectors: MUTE, VERBOSE, TRUST (Figure 2 of the paper)."""

from .events import ANY, ExpectMode, HeaderPattern, SuspicionReason
from .mute import Expectation, MuteConfig, MuteFailureDetector
from .trust import TrustConfig, TrustFailureDetector, TrustLevel
from .verbose import VerboseConfig, VerboseFailureDetector

__all__ = [
    "ANY",
    "Expectation",
    "ExpectMode",
    "HeaderPattern",
    "MuteConfig",
    "MuteFailureDetector",
    "SuspicionReason",
    "TrustConfig",
    "TrustFailureDetector",
    "TrustLevel",
    "VerboseConfig",
    "VerboseFailureDetector",
]
