"""Seeded scenario documents for the benchmark.

Every generator returns a plain scenario document (the JSON schema that
``persuasionlab.cli.effective_config`` reads) built only from a numpy
Generator, so one seed gives the same documents on every machine. Chains are
Dirichlet rows mixed with a uniform floor, which keeps every entry positive
and the chain irreducible. Parameter ranges are kept narrow on purpose: the
seed changes every input, but the cost of solving and simulating a family
should not swing with it, or the benchmark would time the draw instead of
the code. The payoff families are chosen for how much of the grid touches
the concave envelope, because that fraction sets the cost of a k>=3 envelope
sweep and of split extraction:

  tent      k=2, concave tent                      touch 100%
  convex    k=2, convex parabola                   touch 2 points
  receiver  k=2, myopic receiver with 3 actions    piecewise constant
  bump      k=2, mixture of Gaussian bumps         partial touch
  pl3       k=3, |q_j - a| plus a linear tilt      touch one edge, ~5% at R=40
  smooth3   k=3, concave quadratic                 touch 100%
"""

from __future__ import annotations

import numpy as np

from persuasionlab import make_grid

CHAIN_FLOOR = 0.05
CHAIN_CONCENTRATION = 4.0
DEFAULT_RESOLUTION = {2: 200, 3: 40}
FAMILY_K = {"tent": 2, "convex": 2, "receiver": 2, "bump": 2, "pl3": 3, "smooth3": 3}


def random_chain(rng: np.random.Generator, k: int) -> list[list[float]]:
    """Row-stochastic matrix: Dirichlet rows mixed with a floor in every entry."""
    rows = rng.dirichlet(np.full(k, CHAIN_CONCENTRATION), size=k)
    M = CHAIN_FLOOR + (1.0 - k * CHAIN_FLOOR) * rows
    M /= M.sum(axis=1, keepdims=True)
    return M.tolist()


def _table(values: np.ndarray) -> dict:
    return {"type": "table", "values": [float(v) for v in values]}


def _payoff(rng: np.random.Generator, family: str, points: np.ndarray) -> dict:
    q = points[:, -1]
    if family == "tent":
        c = rng.uniform(0.4, 0.6)
        h = rng.uniform(0.8, 1.2)
        return _table(h * (1.0 - np.abs(q - c) / max(c, 1.0 - c)))
    if family == "convex":
        c = rng.uniform(0.4, 0.6)
        return _table(rng.uniform(0.8, 1.2) * (q - c) ** 2 + rng.uniform(0.0, 0.2))
    if family == "bump":
        centers = np.array([0.2, 0.5, 0.8]) + rng.uniform(-0.05, 0.05, size=3)
        widths = rng.uniform(0.08, 0.095, size=3)
        heights = rng.uniform(0.8, 1.0, size=3)
        bumps = heights * np.exp(-0.5 * ((q[:, None] - centers) / widths) ** 2)
        return _table(bumps.sum(axis=1))
    if family == "receiver":
        k = points.shape[1]
        return {
            "type": "receiver",
            "actions": ["a0", "a1", "a2"],
            "sender_payoff": rng.uniform(0.2, 1.0, size=(k, 3)).tolist(),
            "receiver_payoff": rng.uniform(0.0, 1.0, size=(k, 3)).tolist(),
        }
    if family == "pl3":
        j = int(rng.integers(points.shape[1]))
        tilt = rng.uniform(0.1, 0.4, size=points.shape[1])
        return _table(np.abs(points[:, j] - rng.uniform(0.45, 0.55)) + points @ tilt)
    if family == "smooth3":
        centre = rng.dirichlet(np.full(points.shape[1], CHAIN_CONCENTRATION))
        weights = rng.uniform(0.8, 1.2, size=points.shape[1])
        bowl = ((points - centre) ** 2) @ weights
        return _table(1.0 + bowl.max() - bowl)
    raise ValueError(f"unknown payoff family {family!r}")


def scenario_doc(seed: int, family: str, resolution: int | None = None,
                 discount: float = 0.9) -> dict:
    """Scenario document for one payoff family, drawn from its own seed."""
    k = FAMILY_K[family]
    R = DEFAULT_RESOLUTION[k] if resolution is None else resolution
    rng = np.random.default_rng(seed)
    transition = random_chain(rng, k)
    points = make_grid(k, R).points
    return {
        "version": 1,
        "transition": transition,
        "payoff": _payoff(rng, family, points),
        "lambda": discount,
        "x": float(rng.uniform(0.45, 0.55)),
        "grid_resolution": R,
        "tolerance": 1e-9,
        "seed": int(rng.integers(2**32)),
        "samples": 1000,
    }
