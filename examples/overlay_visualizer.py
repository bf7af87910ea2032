#!/usr/bin/env python3
"""ASCII visualization of the overlay election: CDS vs MIS+B.

Places nodes uniformly, runs the distributed election over real signed
HELLO exchanges, and draws the field: ``#`` marks overlay (active) nodes,
``.`` marks passive ones.  Also prints the omniscient health check —
coverage and connectivity of the backbone (Lemmas 3.5/3.9's criteria).

Run:  python examples/overlay_visualizer.py [cds|mis+b]
"""

import sys

from repro.core import NetworkNode, NodeStackConfig
from repro.crypto import HmacScheme, KeyDirectory
from repro.des import Simulator, StreamFactory
from repro.mobility import connected_uniform_positions
from repro.overlay import evaluate_overlay
from repro.radio import Area, VectorizedMedium

N = 40
TX_RANGE = 100.0
SIDE = 450.0
GRID_W, GRID_H = 64, 24


def run_election(rule: str):
    sim = Simulator()
    streams = StreamFactory(11)
    area = Area(SIDE, SIDE)
    positions = connected_uniform_positions(area, N, TX_RANGE,
                                            streams.stream("place"))
    medium = VectorizedMedium(sim, streams.stream("medium"))
    directory = KeyDirectory(HmacScheme(seed=b"viz"))
    stack = NodeStackConfig(overlay_rule=rule)
    nodes = [NetworkNode(sim, medium, i, positions[i], TX_RANGE, streams,
                         directory, stack) for i in range(N)]
    for node in nodes:
        node.start()
    sim.run(until=15.0)  # let the election converge
    return nodes, positions


def draw(nodes, positions) -> str:
    canvas = [[" "] * GRID_W for _ in range(GRID_H)]
    for node in nodes:
        pos = positions[node.node_id]
        col = min(GRID_W - 1, int(pos.x / SIDE * (GRID_W - 1)))
        row = min(GRID_H - 1, int(pos.y / SIDE * (GRID_H - 1)))
        canvas[row][col] = "#" if node.overlay.in_overlay else "."
    border = "+" + "-" * GRID_W + "+"
    body = "\n".join("|" + "".join(line) + "|" for line in canvas)
    return f"{border}\n{body}\n{border}"


def main() -> None:
    rule = sys.argv[1] if len(sys.argv) > 1 else "cds"
    print(f"Electing a '{rule}' overlay among {N} nodes "
          f"({SIDE:.0f}m x {SIDE:.0f}m, range {TX_RANGE:.0f}m)...\n")
    nodes, positions = run_election(rule)

    print(draw(nodes, positions))
    members = {n.node_id for n in nodes if n.overlay.in_overlay}
    print(f"\n'#' = overlay node ({len(members)}), "
          f"'.' = passive node ({N - len(members)})")

    quality = evaluate_overlay({n.node_id: positions[n.node_id]
                                for n in nodes},
                               TX_RANGE, members, set(range(N)))
    print(f"coverage: {quality.coverage:.0%} of nodes are in the overlay "
          f"or one hop from it")
    print(f"backbone connected: {quality.correct_overlay_connected}")
    print(f"overlay fraction: {quality.overlay_fraction:.0%} "
          f"(smaller = cheaper dissemination)")


if __name__ == "__main__":
    main()
