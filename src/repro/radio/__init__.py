"""Wireless radio substrate: geometry, propagation, medium, MAC, radios."""

from .energy import EnergyConfig, EnergyMeter, EnergyModel
from .geometry import Area, Position
from .mac import CsmaMac, MacConfig, MacStats
from .medium import Medium, MediumObserver, MediumStats, Transmission
from .neighbors import HelloMessage, NeighborService
from .packet import BROADCAST, Packet
from .propagation import LogNormalShadowing, PropagationModel, UnitDisk
from .radio import Radio
from .vectorized import VectorizedMedium

__all__ = [
    "Area",
    "EnergyConfig",
    "EnergyMeter",
    "EnergyModel",
    "BROADCAST",
    "CsmaMac",
    "HelloMessage",
    "LogNormalShadowing",
    "MacConfig",
    "MacStats",
    "Medium",
    "MediumObserver",
    "MediumStats",
    "NeighborService",
    "Packet",
    "Position",
    "PropagationModel",
    "Radio",
    "Transmission",
    "UnitDisk",
    "VectorizedMedium",
]
