"""Write the canonical scenario files used by the test suite and the README.

Run from the repository root:

    python3 scripts/make_scenarios.py [outdir]

Produces, in outdir (default: scenarios/):
  tent.json       k=2 chain, concave tent payoff over the grid
  parabola.json   same chain, convex payoff whose envelope is constant
  receiver.json   same chain, myopic-receiver payoff with a jump at 1/2
  cycle3.json     k=3 mixing chain with a table payoff, coarser grid
  kink3.json      same k=3 chain, kinked table payoff whose envelope is not affine
  periodic.json   tent payoff on the periodic chain that swaps the two states every stage
  slow.json       receiver payoff on a slowly mixing chain (second eigenvalue 0.997)
"""

import json
import pathlib
import sys

import numpy as np

from persuasionlab import make_grid

CHAIN_2 = [[0.7, 0.3], [0.4, 0.6]]
CHAIN_3 = [
    [0.6, 0.3, 0.1],
    [0.1, 0.6, 0.3],
    [0.3, 0.1, 0.6],
]
CHAIN_PERIODIC = [[0.0, 1.0], [1.0, 0.0]]
CHAIN_SLOW = [[0.999, 0.001], [0.002, 0.998]]


def _table(values) -> dict:
    return {"type": "table", "values": [float(v) for v in values]}


def _base(transition, payoff, resolution) -> dict:
    return {
        "version": 1,
        "transition": transition,
        "payoff": payoff,
        "lambda": 0.9,
        "x": 0.5,
        "grid_resolution": resolution,
        "tolerance": 1e-9,
        "seed": 42,
        "samples": 10_000,
        "prior": [1.0 / len(transition)] * len(transition),
    }


def build_all() -> dict:
    grid2 = make_grid(2, 200)
    q2 = grid2.points[:, 1]
    tent = 1.0 - np.abs(2.0 * q2 - 1.0)
    parabola = (2.0 * q2 - 1.0) ** 2

    grid3 = make_grid(3, 40)
    # convex in the belief, so its envelope is the affine 0.75 p0 + 0.5 p1 + 0.5 p2
    # through the corner values: full disclosure is optimal at every revelation rate
    q = grid3.points
    table3 = np.abs(q[:, 2] - 0.5) + 0.25 * q[:, 0]

    # concave min term plus a convex kink: the envelope bends, so the revelation rate matters
    q = make_grid(3, 12).points
    kink3 = 3.0 * q.min(axis=1) + 0.5 * np.abs(q[:, 0] - q[:, 1])

    receiver = {
        "type": "receiver",
        "actions": ["hold", "act"],
        "sender_payoff": [[0.0, 1.0], [0.0, 1.0]],
        "receiver_payoff": [[1.0, 0.0], [0.0, 1.0]],
    }

    return {
        "tent.json": _base(CHAIN_2, _table(tent), 200),
        "parabola.json": _base(CHAIN_2, _table(parabola), 200),
        "receiver.json": _base(CHAIN_2, receiver, 200),
        "cycle3.json": _base(CHAIN_3, _table(table3), 40),
        "kink3.json": _base(CHAIN_3, _table(kink3), 12),
        "periodic.json": _base(CHAIN_PERIODIC, _table(tent), 200),
        "slow.json": _base(CHAIN_SLOW, receiver, 200),
    }


def main() -> int:
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "scenarios")
    outdir.mkdir(parents=True, exist_ok=True)
    for name, doc in build_all().items():
        path = outdir / name
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
