"""Output checks that do not rely on the solver's own stopping rule.

Each check recomputes what it needs through public functions and compares;
the benchmark runs them outside every timed span.
"""

from __future__ import annotations

import numpy as np

from persuasionlab import belief, sim, solver

EPS = float(np.finfo(float).eps)


def certificate(sc, mode: str, values: np.ndarray) -> tuple[float, float]:
    """MacQueen-Porteus distance bound of ``values`` from the fixed point, and its rounding slack.

    Both operators are monotone with T(f + c) = Tf + lambda c, so with
    d = Tf - f the fixed point minus f lies pointwise in
    [d + lambda/(1-lambda) min d, d + lambda/(1-lambda) max d] (Puterman 1994,
    section 6.6). The bound is the largest magnitude in that interval; the
    slack covers only the rounding of forming d and the interval ends.
    """
    bellman = solver.bellman_reveal if mode == "reveal" else solver.bellman_no_reveal
    tf = bellman(belief.GridFn(sc.grid, values), sc).values
    d = tf - values
    c = sc.discount / (1.0 - sc.discount)
    bound = max(float(np.abs(d + c * d.min()).max()), float(np.abs(d + c * d.max()).max()))
    slack = 4.0 * (1.0 + c) * EPS * max(float(np.abs(tf).max()), float(np.abs(values).max()))
    return bound, slack


def certificate_ok(sc, mode: str, values: np.ndarray) -> tuple[bool, float]:
    """Whether every point of the certified interval lies within tol; also bound / tol."""
    bound, slack = certificate(sc, mode, values)
    return bound <= sc.tol + slack, bound / sc.tol


def closed_form_ok(sc, values: np.ndarray) -> bool:
    """An x=1 reveal solve within tol of the direct linear solve, up to its rounding."""
    exact = solver.full_reveal_closed_form(sc).values
    c = sc.discount / (1.0 - sc.discount)
    slack = 8.0 * (1.0 + c) * EPS * max(float(np.abs(exact).max()), 1.0)
    return float(np.abs(values - exact).max()) <= sc.tol + slack


def replayed_value(sc, strat, est, seed: int, index: int, renewal: bool) -> float:
    """Score replication ``est.rep_ids[index]`` of master seed ``seed`` again, in isolation."""
    trace = sim.run_policy(sc, strat, est.horizon, seed=seed, rep=int(est.rep_ids[index]))
    payoffs = trace.stage_payoffs
    if renewal:
        stats = sim.renewal_stats(trace.reveals)
        first = int(stats.kappas[0])
        return float(payoffs[first : stats.last_stage].sum()) / est.horizon
    weights = (1.0 - sc.discount) * sc.discount ** np.arange(est.horizon)
    return float(weights @ payoffs)


def replay_mismatches(sc, strat, est, seed: int, indices, renewal: bool) -> int:
    """Replications whose replayed score differs from the estimate's, bit for bit."""
    return sum(replayed_value(sc, strat, est, seed, i, renewal) != float(est.values[i])
               for i in indices)


def cli_table_ok(code, text: str) -> bool:
    """Exit 0 and a CSV table with a header and at least one row."""
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    return code == 0 and len(rows) >= 2
