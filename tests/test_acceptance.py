"""End-to-end acceptance checks.

One test per numbered criterion: envelope identities, the full-disclosure
closed form, long-run convergence, monotonicity in patience and in the
revelation rate, the coupling and random-duration simulations, the renewal
strategy, exact tail formulas, and operator invariants. Each test prints a
[PASS]/[FAIL] line (visible with -s) and asserts the same condition; solver
results are shared through a module cache because patient solves dominate
the runtime.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.stats import nbinom

from persuasionlab import (
    GridFn,
    Scenario,
    Strategy,
    bellman_no_reveal,
    bellman_reveal,
    cav_grid,
    cav_values,
    check_no_info_at_concave_point,
    clt_quantile_bound,
    ergodic_frequency_se,
    estimate_discounted,
    estimate_renewal_average,
    full_reveal_closed_form,
    interpolate,
    make_grid,
    nb_truncated_mean,
    random_duration_value_mc,
    renewal_stats,
    solve,
    solve_cesaro,
    strategy_couple_down,
    strategy_renewal_optimal,
)
from persuasionlab.belief import SPLIT_BARYCENTER_TOL
from persuasionlab.sim import state_reveal_path

PAYOFFS = ("tent", "parabola")
MID = [0.5, 0.5]


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"[{tag}] criterion {num}: {desc}{extra}")


@pytest.fixture(scope="module")
def cache(scenario):
    """Memoized solver results keyed by payoff, discount, rate and mode."""
    store = {}

    def get(payoff, discount, rate, mode):
        key = (payoff, round(discount, 12), round(rate, 12), mode)
        if key not in store:
            sc = scenario(payoff, discount=discount, reveal_rate=rate)
            store[key] = solve(sc, mode)
        return store[key]

    return get


@pytest.fixture(scope="module")
def asym(cache, chain2):
    """Long-run value at a revelation rate, through the cached solves."""

    def get(payoff, rate):
        res = cache(payoff, 1.0 - rate, 0.0, "no_reveal")
        return float(chain2.pi @ res.row_values)

    return get


def test_criterion_01_zero_discount_is_stage_envelope(scenario):
    t0 = time.monotonic()
    worst = 0.0
    for payoff, mode in itertools.product(PAYOFFS, ("no_reveal", "reveal")):
        sc = scenario(payoff, discount=0.0, reveal_rate=0.5)
        gap = float(np.max(np.abs(solve(sc, mode).value.values - cav_values(sc.u))))
        worst = max(worst, gap)
    dt = time.monotonic() - t0
    ok = worst <= 1e-9 and dt < 1.0
    _report(1, "zero-discount values equal the stage envelope", ok,
            f"sup gap {worst:.2e}, {dt:.2f}s")
    assert ok


def test_criterion_02_full_disclosure_closed_form(scenario, cache):
    t0 = time.monotonic()
    worst = 0.0
    for payoff, lam in itertools.product(PAYOFFS, (0.5, 0.9, 0.99)):
        direct = full_reveal_closed_form(scenario(payoff, discount=lam, reveal_rate=1.0))
        iterated = cache(payoff, lam, 1.0, "reveal").value
        worst = max(worst, float(np.max(np.abs(iterated.values - direct.values))))
    dt = time.monotonic() - t0
    bound = 2e-9 + 1e-6
    ok = worst <= bound and dt < 10.0
    _report(2, "iterated full-disclosure values match the linear-system form", ok,
            f"sup gap {worst:.2e} vs {bound:.2e}, {dt:.2f}s")
    assert ok


def test_criterion_03_patient_values_reach_longrun_level(cache, asym):
    t0 = time.monotonic()
    ok = True
    worst_final = 0.0
    worst_bump = -math.inf
    for payoff, rate in itertools.product(PAYOFFS, (0.3, 0.5, 1.0)):
        limit = asym(payoff, rate)
        gaps = []
        for lam in (0.9, 0.99, 0.995):
            v = cache(payoff, lam, rate, "reveal").value.values
            gaps.append(float(np.max(np.abs(v - limit))))
        worst_final = max(worst_final, gaps[-1])
        worst_bump = max(worst_bump, gaps[1] - gaps[0], gaps[2] - gaps[1])
        ok &= gaps[-1] <= 0.05 and gaps[1] <= gaps[0] + 1e-3 and gaps[2] <= gaps[1] + 1e-3
    dt = time.monotonic() - t0
    ok = ok and dt < 300.0
    _report(3, "patient discounted values approach the prior-free long-run level", ok,
            f"final sup gap {worst_final:.3f}, worst gap increase {worst_bump:.1e}, {dt:.1f}s")
    assert ok


def test_criterion_04_time_average_matches_longrun_level(scenario, asym):
    t0 = time.monotonic()
    worst = 0.0
    for payoff in PAYOFFS:
        sc = scenario(payoff, discount=0.9, reveal_rate=0.5)
        w = solve_cesaro(sc, horizon=200)
        worst = max(worst, float(np.max(np.abs(w.values - asym(payoff, 0.5)))))
    dt = time.monotonic() - t0
    ok = worst <= 0.05 and dt < 60.0
    _report(4, "200-stage time averages sit near the long-run level everywhere", ok,
            f"sup gap {worst:.3f}, {dt:.2f}s")
    assert ok


def test_criterion_05_row_average_monotone_in_patience(cache, chain2):
    t0 = time.monotonic()
    ok = True
    worst_drop = 0.0
    discounts = [round(0.1 * i, 1) for i in range(10)] + [0.95]
    for payoff in PAYOFFS:
        values = []
        for lam in discounts:
            res = cache(payoff, lam, 0.0, "no_reveal")
            values.append(float(chain2.pi @ res.row_values))
        drops = [values[i] - values[i + 1] for i in range(len(values) - 1)]
        worst_drop = max(worst_drop, max(drops))
        ok &= all(d <= 1e-3 for d in drops)
    dt = time.monotonic() - t0
    ok = ok and dt < 120.0
    _report(5, "stationary-weighted row values are non-decreasing in the discount", ok,
            f"worst decrease {worst_drop:.1e}, {dt:.1f}s")
    assert ok


def test_criterion_06_value_monotone_in_revelation_rate(cache, chain2):
    t0 = time.monotonic()
    ok = True
    worst_rise = 0.0
    rates = [round(0.1 * i, 1) for i in range(1, 11)]
    beliefs = [MID, chain2.M[0], chain2.M[1]]
    for payoff, lam in itertools.product(PAYOFFS, (0.5, 0.9)):
        curves = {i: [] for i in range(len(beliefs))}
        for rate in rates:
            value = cache(payoff, lam, rate, "reveal").value
            for i, p in enumerate(beliefs):
                curves[i].append(interpolate(value, p))
        for series in curves.values():
            rises = [series[i + 1] - series[i] for i in range(len(series) - 1)]
            worst_rise = max(worst_rise, max(rises))
            ok &= all(r <= 1e-3 for r in rises)
    dt = time.monotonic() - t0
    ok = ok and dt < 120.0
    _report(6, "discounted values are non-increasing in the revelation rate", ok,
            f"worst increase {worst_rise:.1e}, {dt:.1f}s")
    assert ok


def test_criterion_07_coupling_reproduces_higher_rate_value(scenario, cache):
    t0 = time.monotonic()
    ok = True
    details = []
    for payoff in PAYOFFS:
        sc = scenario(payoff, discount=0.9, reveal_rate=0.3)
        res_y = cache(payoff, 0.9, 0.7, "reveal")
        strat = strategy_couple_down(res_y.target, 0.3, 0.7, sc)
        est = estimate_discounted(sc, strat, samples=10_000)
        target = interpolate(res_y.value, MID)
        err = abs(est.mean - target)
        bound = 3.0 * est.std_error + 1e-2
        ok &= err <= bound
        details.append(f"{payoff} err {err:.4f} vs {bound:.4f}")
    dt = time.monotonic() - t0
    ok = ok and dt < 300.0
    _report(7, "rate coupling reproduces the higher-rate value by simulation", ok,
            f"{'; '.join(details)}, {dt:.1f}s")
    assert ok


def test_criterion_08_random_duration_identity(scenario, cache):
    t0 = time.monotonic()
    ok = True
    details = []
    for payoff, rate in itertools.product(PAYOFFS, (0.3, 0.5)):
        sc = scenario(payoff, discount=0.9, reveal_rate=rate, prior=MID, samples=10_000)
        inner = cache(payoff, 1.0 - rate, 0.0, "no_reveal")
        strat = Strategy(inner.target)
        est = random_duration_value_mc(sc, rate, strat)
        target = interpolate(inner.value, MID) / rate
        err = abs(est.mean - target)
        bound = 3.0 * est.std_error + 1e-2
        ok &= err <= bound
        details.append(f"{payoff} x={rate} err {err:.4f} vs {bound:.4f}")
    dt = time.monotonic() - t0
    ok = ok and dt < 300.0
    _report(8, "geometric-duration play recovers the scaled discounted value", ok,
            f"{'; '.join(details)}, {dt:.1f}s")
    assert ok


def test_criterion_09_renewal_strategy_attains_longrun_level(scenario, asym):
    t0 = time.monotonic()
    ok = True
    details = []
    for payoff in PAYOFFS:
        sc = scenario(payoff, discount=0.9, reveal_rate=0.5)
        est = estimate_renewal_average(sc, strategy_renewal_optimal(sc), horizon=2000,
                                       samples=2000)
        target = asym(payoff, 0.5)
        err = abs(est.mean - target)
        bound = 0.05 + 3.0 * est.std_error
        ok &= err <= bound
        details.append(f"{payoff} err {err:.4f} vs {bound:.4f} (rejected {est.rejected})")
    dt = time.monotonic() - t0
    ok = ok and dt < 300.0
    _report(9, "the wait-then-play strategy attains the long-run level on average", ok,
            f"{'; '.join(details)}, {dt:.1f}s")
    assert ok


def _nb_oracle(r, rate, n):
    mean = r * (1.0 - rate) / rate
    hi = int(mean + 40.0 * math.sqrt(r * (1.0 - rate)) / rate + n + 60)
    ys = np.arange(n + 1, hi)
    pm = nbinom.pmf(ys, r, rate)
    return float((ys * pm).sum() / pm.sum())


def test_criterion_10_tail_formulas_and_path_statistics(scenario):
    t0 = time.monotonic()
    worst_nb = 0.0
    for r in range(1, 11):
        for xi in range(1, 10):
            rate = 0.1 * xi
            for n in range(0, 51):
                err = abs(nb_truncated_mean(r, rate, n) - _nb_oracle(r, rate, n))
                worst_nb = max(worst_nb, err)

    bound_ok = True
    for ei in range(1, 50):
        for xi in range(1, 20):
            _, holds = clt_quantile_bound(0.01 * ei, 0.05 * xi)
            bound_ok &= holds

    sc = scenario("tent", discount=0.9, reveal_rate=0.5)
    horizon = 1_000_000
    states, reveals = state_reveal_path(sc, horizon)
    stats = renewal_stats(reveals)
    freq_score = abs(stats.revelations / horizon - 0.5) / math.sqrt(0.25 / horizon)
    gap_se = math.sqrt((1.0 - 0.5) / 0.5**2 / stats.kappas.size)
    gap_score = abs(float(stats.kappas.mean()) - 2.0) / gap_se
    counts = np.bincount(states, minlength=2)
    state_scores = np.abs(counts / horizon - sc.chain.pi) / ergodic_frequency_se(sc.chain, horizon)

    dt = time.monotonic() - t0
    ok = (worst_nb <= 1e-9 and bound_ok and freq_score <= 3.0 and gap_score <= 3.0
          and bool(np.all(state_scores <= 3.0)) and dt < 300.0)
    _report(10, "tail formulas are exact and path statistics match their laws", ok,
            f"nb err {worst_nb:.1e}, scores {freq_score:.2f}/{gap_score:.2f}/"
            f"{float(state_scores.max()):.2f}, {dt:.1f}s")
    assert ok


def test_criterion_11_structural_invariants(scenario, cache, chain2):
    t0 = time.monotonic()

    # k signals attain the envelope: at every grid point the extracted split reaches the
    # envelope value and averages back to the point
    worst_value = worst_center = 0.0
    for payoff, mode in itertools.product(PAYOFFS, ("no_reveal", "reveal")):
        target = cache(payoff, 0.9, 0.5, mode).target
        points = target.grid.points
        values, atoms, weights = cav_grid(target)
        assert atoms.shape[1] == 2
        real = atoms >= 0
        attained = np.where(real, weights * target.values[atoms], 0.0).sum(axis=1)
        centers = np.einsum("ij,ijk->ik", np.where(real, weights, 0.0), points[atoms])
        worst_value = max(worst_value, float(np.max(np.abs(values - attained))))
        worst_center = max(worst_center, float(np.max(np.abs(centers - points))))

    # where the stage payoff is concave, revealing nothing is optimal
    sc = scenario("tent", discount=0.9, reveal_rate=0.5)
    solved = cache("tent", 0.9, 0.5, "reveal")
    no_info = all(
        check_no_info_at_concave_point(sc, p, solved=solved)
        for p in (MID, chain2.M[0], chain2.M[1], [0.1, 0.9], [0.85, 0.15])
    )

    # operators contract at the discount and propagate concavity
    grid = make_grid(2, 60)
    u60 = GridFn(grid, 1.0 - np.abs(2.0 * grid.points[:, 1] - 1.0))
    sc60 = Scenario(chain=chain2, u=u60, discount=0.9, reveal_rate=0.5)
    rng = np.random.default_rng(42)
    fns = [GridFn(grid, rng.uniform(0.0, 2.0, grid.n)) for _ in range(100)]
    contract_ok = True
    concave_ok = True
    for op in (bellman_no_reveal, bellman_reveal):
        for f, g in zip(fns[0::2], fns[1::2]):
            gap = float(np.max(np.abs(f.values - g.values)))
            out = float(np.max(np.abs(op(f, sc60).values - op(g, sc60).values)))
            contract_ok &= out <= 0.9 * gap + 1e-12
        for f in fns:
            tf = op(f, sc60).values
            second = tf[:-2] - 2.0 * tf[1:-1] + tf[2:]
            concave_ok &= bool(np.all(second <= 1e-7))

    dt = time.monotonic() - t0
    ok = (worst_value <= 2.0 * sc.tol and worst_center <= SPLIT_BARYCENTER_TOL and no_info and contract_ok
          and concave_ok and dt < 300.0)
    _report(11, "k-signal attainment, no-info optimality, contraction and concavity", ok,
            f"value gap {worst_value:.1e}, barycenter gap {worst_center:.1e}, no-info {no_info}, "
            f"contraction {contract_ok}, concavity {concave_ok}, {dt:.1f}s")
    assert ok
