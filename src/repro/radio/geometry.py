"""2-D geometry primitives for node placement and transmission disks."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Position", "Area"]


@dataclass(frozen=True)
class Position:
    """A point in the simulation plane (meters)."""

    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def within(self, other: "Position", radius: float) -> bool:
        """True iff ``other`` lies inside the disk of ``radius`` around
        this point (boundary exclusive, matching the paper's strict
        'distance smaller than the transmission range')."""
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy < radius * radius

    def translated(self, dx: float, dy: float) -> "Position":
        return Position(self.x + dx, self.y + dy)


@dataclass(frozen=True)
class Area:
    """An axis-aligned rectangular deployment area with (0,0) origin."""

    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"degenerate area {self.width}x{self.height}")

    def contains(self, position: Position) -> bool:
        return 0 <= position.x <= self.width and 0 <= position.y <= self.height

    def clamp(self, position: Position) -> Position:
        """Project a point back inside the area."""
        return Position(min(max(position.x, 0.0), self.width),
                        min(max(position.y, 0.0), self.height))

    def reflect(self, position: Position) -> Position:
        """Mirror-reflect a point that stepped outside the boundary back in
        (used by bounded random-walk mobility)."""
        x, y = position.x, position.y
        if x < 0:
            x = -x
        if x > self.width:
            x = 2 * self.width - x
        if y < 0:
            y = -y
        if y > self.height:
            y = 2 * self.height - y
        # A huge step could still be outside after one reflection; clamp.
        return self.clamp(Position(x, y))

    @property
    def diagonal(self) -> float:
        return math.hypot(self.width, self.height)
