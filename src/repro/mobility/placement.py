"""Initial node placement strategies.

The paper's system model assumes "the transitive closure of the
transmission disks of correct nodes form a connected graph"; without it
dissemination to all correct nodes is impossible.  The placement helpers
here therefore include connectivity-constrained generators (rejection
sampling over uniform placements, and a deterministic chain/grid layout for
worst-case analysis experiments such as E10).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..des.random import RandomStream
from ..radio.geometry import Area, Position, close_pairs

__all__ = [
    "uniform_positions",
    "grid_positions",
    "line_positions",
    "connectivity_graph",
    "is_connected",
    "connected_uniform_positions",
]


def _uniform_points(area: Area, count: int, rng: RandomStream) -> np.ndarray:
    """``count`` uniform points as an ``(count, 2)`` array: x and y drawn
    alternately, each with the arithmetic of ``rng.uniform(0.0, extent)``
    (``0.0 + (extent - 0.0) * random()``, which for a positive extent is
    the bare product)."""
    if count < 0:
        raise ValueError("count must be non-negative")
    return rng.randoms(2 * count).reshape(count, 2) * (area.width,
                                                        area.height)


def _as_positions(points: np.ndarray) -> List[Position]:
    return [Position(x, y) for x, y in points.tolist()]


def uniform_positions(area: Area, count: int,
                      rng: RandomStream) -> List[Position]:
    """``count`` positions i.i.d. uniform over ``area``."""
    return _as_positions(_uniform_points(area, count, rng))


def grid_positions(area: Area, count: int,
                   margin: float = 0.0) -> List[Position]:
    """``count`` positions on a near-square grid covering ``area``."""
    if count <= 0:
        return []
    columns = max(1, math.ceil(math.sqrt(count)))
    rows = max(1, math.ceil(count / columns))
    usable_w = area.width - 2 * margin
    usable_h = area.height - 2 * margin
    positions = []
    for index in range(count):
        row, col = divmod(index, columns)
        x = margin + (usable_w * (col + 0.5) / columns)
        y = margin + (usable_h * (row + 0.5) / rows)
        positions.append(Position(x, y))
    return positions


def line_positions(count: int, spacing: float,
                   y: float = 0.0) -> List[Position]:
    """A chain of nodes ``spacing`` apart — the worst-case diameter topology
    used to stress the §3.5 dissemination-time bound."""
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    return [Position(index * spacing, y) for index in range(count)]


def _points(positions: Union[Sequence[Position], np.ndarray],
            subset: Optional[Sequence[int]] = None) -> np.ndarray:
    """Coordinates as an ``(n, 2)`` float64 array, restricted to ``subset``."""
    if isinstance(positions, np.ndarray):
        points = positions
    else:
        points = np.array([(p.x, p.y) for p in positions],
                          dtype=np.float64).reshape(-1, 2)
    if subset is not None:
        points = points[np.asarray(subset, dtype=np.intp)]
    return points


def connectivity_graph(positions: Sequence[Position],
                       tx_range: float) -> Dict[int, List[int]]:
    """The geometric graph induced by the transmission disks, as an
    adjacency dict: every node ``0..n-1`` in order, each mapped to its
    neighbours in ascending id.  Overlay construction follows this
    iteration order, so it does not depend on the binning."""
    order, first, second = close_pairs(_points(positions), tx_range)
    a, b = order[first], order[second]
    ends, neighbours = np.concatenate((a, b)), np.concatenate((b, a))
    by_end_then_neighbour = np.lexsort((neighbours, ends))
    stops = np.cumsum(np.bincount(ends, minlength=len(order))).tolist()
    flat = neighbours[by_end_then_neighbour].tolist()
    return {node: flat[start:stop]
            for node, (start, stop) in enumerate(zip([0] + stops, stops))}


def _split(points: np.ndarray, tx_range: float) -> Optional[str]:
    """Why the disk graph over ``points`` is not connected: ``"isolated"``
    (some point has no neighbour), ``"partitioned"``, or None if it is."""
    n = len(points)
    if n <= 1:
        return None
    _, first, second = close_pairs(points, tx_range)
    degree = np.bincount(first, minlength=n)
    degree += np.bincount(second, minlength=n)
    if not degree.all():
        return "isolated"
    # Components by hooking and pointer jumping: every label names a
    # lower-indexed point of the same component; roots name themselves.
    label = np.arange(n)
    label[second] = first
    while True:
        while True:
            above = label[label]
            if np.array_equal(above, label):
                break
            label = above
        low, high = label[first], label[second]
        cut = np.flatnonzero(low != high)
        if not cut.size:
            # Point 0 can only be a root, so one component means all 0.
            return "partitioned" if label.any() else None
        first, second = first[cut], second[cut]
        low, high = low[cut], high[cut]
        label[np.maximum(low, high)] = np.minimum(low, high)


def is_connected(positions: Union[Sequence[Position], np.ndarray],
                 tx_range: float,
                 subset: Optional[Sequence[int]] = None,
                 tally: Optional[Counter] = None) -> bool:
    """True iff the (sub)graph induced by the disks is connected.

    ``positions`` is a sequence of :class:`Position` or an ``(n, 2)``
    float64 coordinate array.  The edge test is the float64
    squared-distance compare of :meth:`Position.within`, so the verdict
    says whether a search over :func:`connectivity_graph` reaches every
    node.  A negative verdict adds one to ``tally`` (if given) under its
    reason: ``"isolated"`` when some point has no neighbour at all, else
    ``"partitioned"``.
    """
    reason = _split(_points(positions, subset), tx_range)
    if reason is not None and tally is not None:
        tally[reason] += 1
    return reason is None


def connected_uniform_positions(area: Area, count: int, tx_range: float,
                                rng: RandomStream,
                                required_connected: Optional[
                                    Sequence[int]] = None,
                                max_tries: int = 5000) -> List[Position]:
    """Uniform placement, rejection-sampled until connectivity holds.

    ``required_connected`` restricts the connectivity requirement to a node
    subset (the correct nodes, per the paper's assumption); by default the
    whole network must be connected.  At mean degree 8 a few thousand
    nodes are accepted on well under 1 % of the tries (n=5000 needed 97 to
    2280 over seeds 1-8), hence the large default budget; a rejected try
    costs one coordinate array, no :class:`Position` objects.
    """
    subset = (None if required_connected is None
              else np.asarray(required_connected, dtype=np.intp))
    rejected: Counter = Counter()
    for _ in range(max_tries):
        points = _uniform_points(area, count, rng)
        if is_connected(points, tx_range, subset, tally=rejected):
            return _as_positions(points)
    raise RuntimeError(
        f"no connected placement of {count} nodes with range {tx_range} "
        f"in {area.width}x{area.height} after {max_tries} tries "
        f"({rejected['isolated']} left a node with no neighbour at all, "
        f"{rejected['partitioned']} split into larger parts); "
        "increase density or range, or max_tries if few were isolated")
