"""2-D geometry primitives for node placement and transmission disks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["Position", "Area", "close_pairs"]


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


#: Cells are this much wider than the radius, which absorbs the rounding
#: of the cell-index division: two points closer than the radius then
#: never land more than one cell apart.  With at most
#: ``_MAX_CELLS_PER_AXIS`` cells the accumulated error is below 2**-31 of
#: a cell.
_CELL_PAD = 1e-9
_MAX_CELLS_PER_AXIS = 1 << 20

#: Candidate pairs tested per block.  A block's temporaries (64 KiB per
#: array) stay small enough for the allocator to recycle them from block
#: to block; whole-field temporaries would be paged in afresh on every
#: call, which costs more than the arithmetic on them.
BLOCK = 8192


def close_pairs(points: np.ndarray, radius: float
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of points closer than ``radius``, each exactly once.

    Returns ``(order, first, second)``: pair ``k`` joins points
    ``order[first[k]]`` and ``order[second[k]]``, with ``first[k] <
    second[k]``; the order of the pairs is unspecified.  Points are
    binned into square cells at least ``radius`` wide and sorted by
    cell, column-major, so the cells that can hold a partner not yet
    paired with a point form two runs of the sorted order: the rest of its
    own cell plus the cell above, and the three facing cells of the next
    column.  Only those candidates are tested, :data:`BLOCK` at a time,
    with the float64 compare of :meth:`Position.within`.
    """
    n = len(points)
    r2 = radius * radius
    if n < 2 or not r2 > 0.0:
        empty = np.empty(0, dtype=np.intp)
        return np.arange(n), empty, empty
    x, y = points[:, 0], points[:, 1]
    left, bottom = x.min(), y.min()
    side = max(abs(radius) * (1.0 + _CELL_PAD),
               max(x.max() - left, y.max() - bottom) / _MAX_CELLS_PER_AXIS)
    column = np.floor((x - left) / side).astype(np.int64)
    row = np.floor((y - bottom) / side).astype(np.int64)
    # Two spare rows on top of each column keep "row - 1" and "row + 1"
    # from aliasing a neighbouring column's cells.
    stride = int(row.max()) + 3
    keys = column * stride + row
    order = np.argsort(keys)
    keys = keys[order]
    index = np.arange(n)
    # Run i < n is point i's own-column run, run n + i its next-column run.
    owner = np.concatenate((index, index))
    starts = np.concatenate((
        index + 1,
        np.searchsorted(keys, keys + (stride - 1), side="left")))
    stops = np.concatenate((
        np.searchsorted(keys, keys + 1, side="right"),
        np.searchsorted(keys, keys + (stride + 1), side="right")))
    counts = stops - starts
    ends = np.cumsum(counts)
    # Candidate c of run i is point c - shift[i].
    shift = ends - stops
    x, y = x[order], y[order]
    cuts = np.searchsorted(ends, np.arange(BLOCK, int(ends[-1]), BLOCK))
    firsts, seconds = [], []
    lo = 0
    for hi in cuts.tolist() + [2 * n]:
        if hi <= lo:
            continue
        run_counts = counts[lo:hi]
        first = np.repeat(owner[lo:hi], run_counts)
        second = np.arange(ends[lo] - run_counts[0], ends[hi - 1])
        second -= np.repeat(shift[lo:hi], run_counts)
        dx = x[first]
        dx -= x[second]
        dx *= dx
        dy = y[first]
        dy -= y[second]
        dy *= dy
        dx += dy
        close = np.flatnonzero(dx < r2)
        firsts.append(first[close])
        seconds.append(second[close])
        lo = hi
    return order, np.concatenate(firsts), np.concatenate(seconds)
