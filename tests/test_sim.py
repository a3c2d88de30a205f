import importlib.util
import json
import math
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import nbinom

from persuasionlab import (
    GridFn,
    PayoffDiscontinuityWarning,
    Scenario,
    Strategy,
    asymptotic_value,
    cav_split_at,
    cav_splits,
    cli,
    clt_quantile_bound,
    estimate_discounted,
    estimate_renewal_average,
    exact_played_value,
    interpolate,
    kernel_from_split,
    nb_truncated_mean,
    random_duration_value_mc,
    renewal_stats,
    run_policy,
    solve,
    strategy_couple_down,
    strategy_full,
    strategy_null,
    strategy_optimal,
    strategy_renewal_optimal,
    validate_chain,
)
from persuasionlab.errors import (
    AllRejected,
    BadRates,
    DegenerateTail,
    DimensionMismatch,
    InvalidSplit,
    RateBoundary,
    SizeOverflow,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from persuasionlab import cli, sim
from persuasionlab.belief import bayes_update, make_grid, validate_belief
from persuasionlab.chain import cum_rows, scan_states
from persuasionlab.envelope import _envelope, cav_values
from persuasionlab.sim import _Engine, discount_horizon, replication_rng, state_reveal_path

# ---------------------------------------------------------------------------
# oracles for the closed-form pieces


def nb_conditional_mean_oracle(r, rate, n):
    """E(Y | Y > n) for Y ~ negative binomial, summed from scipy's pmf."""
    mean = r * (1.0 - rate) / rate
    hi = int(mean + 40.0 * math.sqrt(r * (1.0 - rate)) / rate + n + 60)
    ys = np.arange(n + 1, hi)
    pm = nbinom.pmf(ys, r, rate)
    return float((ys * pm).sum() / pm.sum())


def normal_quantile_oracle(p):
    """Phi^{-1}(p) for p > 1/2 by bisection on the error function."""
    lo, hi = 0.0, 12.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# renewal bookkeeping


def test_renewal_stats_worked_example():
    st = renewal_stats([False, True, False, False, True, True])
    assert st.revelations == 3
    assert st.last_stage == 6
    assert st.kappas.tolist() == [2, 3, 1]


def test_renewal_stats_empty_path():
    st = renewal_stats(np.zeros(10, dtype=bool))
    assert st.revelations == 0
    assert st.last_stage == 0
    assert st.kappas.size == 0


def test_renewal_stats_kappas_sum_to_last_stage():
    rng = np.random.default_rng(8)
    for _ in range(20):
        z = rng.random(64) < 0.3
        st = renewal_stats(z)
        assert int(st.kappas.sum()) == st.last_stage
        assert st.revelations == int(z.sum())


# ---------------------------------------------------------------------------
# truncated negative binomial


def test_nb_truncated_mean_frozen_memoryless_case():
    # one success, rate a half: E(Y) = 1 and memorylessness gives n + 1 + E(Y)
    assert nb_truncated_mean(1, 0.5, 3) == pytest.approx(5.0, abs=1e-12)


@pytest.mark.parametrize("rate", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("n", [0, 4, 11])
def test_nb_memorylessness_exact(rate, n):
    want = n + 1 + (1.0 - rate) / rate
    assert nb_truncated_mean(1, rate, n) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("r,rate,n", [(2, 0.3, 5), (5, 0.5, 0), (7, 0.8, 12), (10, 0.1, 30)])
def test_nb_matches_pmf_summation(r, rate, n):
    want = nb_conditional_mean_oracle(r, rate, n)
    assert nb_truncated_mean(r, rate, n) == pytest.approx(want, abs=1e-9)


def test_verify_facts_oracle_matches_pmf_summation():
    # check 0 of `verify --which facts` reads cli's closed-form pmf table; scipy's pmf is the external reference
    ns = range(0, 51)
    for r in range(1, 11):
        for xi in range(1, 10):
            rate = 0.1 * xi
            want = [nb_conditional_mean_oracle(r, rate, n) for n in ns]
            np.testing.assert_allclose(cli._nb_tail_means(r, rate, ns), want, rtol=0.0, atol=1e-12)
    with pytest.raises(DegenerateTail):
        cli._nb_tail_means(1, 0.999, range(151))


def test_nb_guards():
    with pytest.raises(ValueError):
        nb_truncated_mean(0, 0.5, 3)
    with pytest.raises(ValueError):
        nb_truncated_mean(1, 0.5, -1)
    with pytest.raises(RateBoundary):
        nb_truncated_mean(1, 0.0, 3)
    with pytest.raises(RateBoundary):
        nb_truncated_mean(1, 1.2, 3)
    with pytest.raises(DegenerateTail):
        nb_truncated_mean(1, 1.0, 3)
    with pytest.raises(DegenerateTail):
        nb_truncated_mean(1, 0.999, 150)


# ---------------------------------------------------------------------------
# central-limit quantile


def test_clt_quantile_frozen():
    z, holds = clt_quantile_bound(0.05, 0.5)
    assert z == pytest.approx(0.979981992270027, abs=1e-12)
    assert holds


@pytest.mark.parametrize("eps", [0.01, 0.1, 0.3])
@pytest.mark.parametrize("rate", [0.2, 0.5, 0.9])
def test_clt_quantile_matches_erf_bisection(eps, rate):
    z, holds = clt_quantile_bound(eps, rate)
    want = math.sqrt(rate * (1.0 - rate)) * normal_quantile_oracle(1.0 - eps / 2.0)
    assert z == pytest.approx(want, abs=1e-10)
    assert holds


def test_clt_quantile_degenerate_rate():
    assert clt_quantile_bound(0.05, 1.0) == (0.0, True)


def test_clt_quantile_guards():
    with pytest.raises(ValueError):
        clt_quantile_bound(0.0, 0.5)
    with pytest.raises(ValueError):
        clt_quantile_bound(1.0, 0.5)
    with pytest.raises(RateBoundary):
        clt_quantile_bound(0.05, 0.0)


# ---------------------------------------------------------------------------
# single-path engine


def definition_rng(seed, rep):
    """Replication rep's stream as the reproducibility contract defines it."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep,)))


def test_replication_streams():
    a = replication_rng(42, 0).random(4)
    b = replication_rng(42, 0).random(4)
    c = replication_rng(42, 1).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.array_equal(a, definition_rng(42, 0).random(4))
    assert np.array_equal(c, definition_rng(42, 1).random(4))
    # seed and rep are coerced with int(), numpy integers included
    assert np.array_equal(replication_rng(np.uint64(42), np.int64(1)).random(4), c)


# seeds at the edges of one and two 32-bit words, one past the pool's four words and one of ten
# words; reps at the edges of one and two words, and one of three words whose middle word is zero
SEED_EDGES = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**130 + 12345, 2**300 + 7]
REP_EDGES = [0, 2**32 - 1, 2**32, 2**40, 2**64]


@settings(max_examples=80, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(SEED_EDGES)),
       reps=st.lists(st.one_of(st.integers(0, 40), st.sampled_from(REP_EDGES)), max_size=8))
@example(seed=2**130 + 12345, reps=[2**40, 0, 2**64, 2**32, 2**32 - 1, 2**32, 7, 0])
@example(seed=2**64 - 1, reps=[2**32 - 1, 2**40, 1])
@example(seed=5, reps=[])
def test_batched_streams_match_the_seed_sequence_definition(seed, reps):
    rngs = list(sim.replication_rngs(seed, reps))
    assert len(rngs) == len(reps)
    for rep, rng in zip(reps, rngs):
        want = definition_rng(seed, rep)
        assert rng.bit_generator.state == want.bit_generator.state
        assert np.array_equal(rng.random(3), want.random(3))
        assert rng.integers(2**63) == want.integers(2**63)


@pytest.mark.parametrize("seed,reps", [(-1, [0]), (0, [3, -1]), (-(2**70), []), (2**64, [2**40, -(2**40)])])
def test_negative_seeds_and_reps_raise_like_seed_sequence(seed, reps):
    with pytest.raises(ValueError):
        [np.random.SeedSequence(seed, spawn_key=(rep,)) for rep in [*reps, 0]]
    with pytest.raises(ValueError):
        sim.replication_rngs(seed, reps)
    with pytest.raises(ValueError):
        replication_rng(seed, min([*reps, 0]))


def test_run_policy_is_deterministic(scenario):
    sc = scenario("tent", reveal_rate=0.5)
    t1 = run_policy(sc, strategy_null(sc), horizon=50, seed=9, rep=3)
    t2 = run_policy(sc, strategy_null(sc), horizon=50, seed=9, rep=3)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.signals, t2.signals)
    assert np.array_equal(t1.reveals, t2.reveals)
    assert np.array_equal(t1.posteriors, t2.posteriors)
    assert np.array_equal(t1.stage_payoffs, t2.stage_payoffs)
    t3 = run_policy(sc, strategy_null(sc), horizon=50, seed=9, rep=4)
    assert not np.array_equal(t1.states, t3.states)


def test_run_policy_rejects_bad_horizon(scenario):
    sc = scenario("tent")
    with pytest.raises(ValueError):
        run_policy(sc, strategy_null(sc), horizon=0)


def test_every_play_refuses_a_horizon_above_the_limit(scenario):
    # checked before any array of the horizon's length is made, so each call fails at once
    sc = scenario("tent", samples=2)
    strat, over = strategy_null(sc), sim.MAX_HORIZON + 1
    assert sim._check_horizon(sim.MAX_HORIZON) == sim.MAX_HORIZON
    for play in (run_policy, lambda sc, strat, horizon: state_reveal_path(sc, horizon), estimate_renewal_average,
                 lambda sc, strat, horizon: estimate_discounted(sc, strat, horizon=horizon)):
        with pytest.raises(ValueError, match=f"^the given horizon is {over} stages, above the {over - 1} stages"):
            play(sc, strat, over)
    # a horizon the discount derives names the discount, and a geometric duration its rate
    with pytest.raises(ValueError, match="^the horizon derived from discount 0.9999999 is 299336048 stages"):
        estimate_discounted(replace(sc, discount=0.9999999), strat)
    with pytest.raises(ValueError, match="^a geometric duration at rate 1e-12 is "):
        random_duration_value_mc(sc, 1e-12, strat)


def test_null_strategy_trace_recomputes(scenario):
    # with one uninformative signal the whole trace is a deterministic
    # function of the sampled states and coins
    sc = scenario("tent", reveal_rate=0.5)
    trace = run_policy(sc, strategy_null(sc), horizon=40, seed=5)
    belief = np.array([0.5, 0.5])
    for n in range(40):
        assert trace.signals[n] == 0
        assert trace.posteriors[n] == pytest.approx(belief, abs=1e-12)
        assert trace.stage_payoffs[n] == pytest.approx(interpolate(sc.u, belief), abs=1e-12)
        if trace.reveals[n]:
            belief = sc.chain.M[trace.states[n]].copy()
        else:
            belief = belief @ sc.chain.M


def test_full_reveal_strategy_discloses_state(scenario):
    sc = scenario("tent", reveal_rate=0.0)
    trace = run_policy(sc, strategy_full(sc), horizon=40, seed=6)
    assert np.array_equal(trace.signals, trace.states)
    rows = np.eye(2)[trace.states]
    assert trace.posteriors == pytest.approx(rows, abs=1e-12)


def test_revelation_coin_alignment(scenario):
    # the coin is consumed at rate zero too, so states match across rates
    sc0 = scenario("tent", reveal_rate=0.0)
    sc1 = scenario("tent", reveal_rate=0.9)
    t0 = run_policy(sc0, strategy_null(sc0), horizon=60, seed=12)
    t1 = run_policy(sc1, strategy_null(sc1), horizon=60, seed=12)
    assert np.array_equal(t0.states, t1.states)
    assert not t0.reveals.any()
    assert t1.reveals.any()


def test_state_marginals_follow_the_chain(scenario):
    sc = scenario("tent", reveal_rate=0.5)
    trace = run_policy(sc, strategy_null(sc), horizon=200_000, seed=7)
    freq = np.bincount(trace.states, minlength=2) / trace.states.size
    assert abs(freq[0] - 4.0 / 7.0) < 0.005
    # revelation coins are iid at the scenario rate
    zfreq = trace.reveals.mean()
    assert abs(zfreq - 0.5) < 3.0 * math.sqrt(0.25 / trace.reveals.size)


def test_renewal_strategy_requires_positive_rate(scenario):
    with pytest.raises(RateBoundary, match=r"must lie in \(0, 1\], got 0.0"):
        strategy_renewal_optimal(scenario("tent", reveal_rate=0.0))


@pytest.mark.parametrize("rate", [1e-17, 1e-320])
@pytest.mark.parametrize("name", ["tent", "cycle3"])
def test_renewal_strategy_rejects_a_rate_whose_discount_rounds_to_one(name, rate):
    # 1 - rate rounds to 1, the discount of the game between revelations; the error names the rate
    with pytest.raises(RateBoundary, match=f"rate {rate!r} "):
        strategy_renewal_optimal(bundled(name, x=rate))


# ---------------------------------------------------------------------------
# discounted estimator


def test_discounted_constant_payoff_is_exact(chain2, grid2):
    u = GridFn(grid2, np.full(grid2.n, 0.7))
    sc = Scenario(chain=chain2, u=u, discount=0.9, reveal_rate=0.5, seed=1)
    res = estimate_discounted(sc, strategy_null(sc), samples=40)
    want = 0.7 * (1.0 - 0.9**res.horizon)
    assert res.mean == pytest.approx(want, abs=1e-12)
    assert res.std_error <= 1e-12
    assert res.samples == 40
    assert res.values.shape == (40,)
    assert np.array_equal(res.rep_ids, np.arange(40))
    assert res.truncation < 1e-6


def test_discounted_horizon_guard(scenario):
    sc = scenario("tent")
    with pytest.raises(ValueError):
        estimate_discounted(sc, strategy_null(sc), samples=2, horizon=0)


def test_discount_horizon_tail(scenario):
    sc = scenario("tent", discount=0.9)
    h = discount_horizon(sc)
    assert 0.9**h <= 1e-6 * (1.0 - 0.9) + 1e-15
    assert discount_horizon(scenario("tent", discount=0.0)) == 1


def test_discounted_estimate_tracks_solver_value(scenario):
    sc = scenario("tent", discount=0.9, reveal_rate=0.5)
    want = interpolate(solve(sc, "reveal").value, [0.5, 0.5])
    res = estimate_discounted(sc, strategy_optimal(sc), samples=1500)
    assert abs(res.mean - want) <= 5.0 * res.std_error + 0.01


# ---------------------------------------------------------------------------
# geometric-duration estimator


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("lam", [0.0, 0.5, 0.9, 0.99])
def test_discount_horizon_is_the_first_stage_whose_tail_meets_an_absolute_bound(scenario, lam, scale):
    # lam**H * max|u| <= 1e-6 * (1 - lam), not scaled by the payoffs; H - 1 stages miss it
    sc = scenario("tent", discount=lam)
    sc = replace(sc, u=GridFn(sc.grid, sc.u.values * scale))
    h, umax, bound = discount_horizon(sc), float(np.abs(sc.u.values).max()), 1e-6 * (1.0 - lam)
    assert h >= 1
    assert lam**h * umax <= bound * (1.0 + 1e-12)
    if h > 1:
        assert lam ** (h - 1) * umax > bound


def test_random_duration_constant_payoff(chain2, grid2):
    # total payoff is 0.5 * W with W geometric, so the mean is 0.5 / rate
    u = GridFn(grid2, np.full(grid2.n, 0.5))
    sc = Scenario(chain=chain2, u=u, discount=0.9, reveal_rate=0.5, seed=2, samples=4000)
    res = random_duration_value_mc(sc, 0.5, strategy_null(sc))
    assert abs(res.mean - 1.0) <= 4.0 * res.std_error
    assert res.std_error > 0.0


def test_random_duration_rate_one_is_one_stage(scenario):
    sc = replace(scenario("tent", reveal_rate=0.5), prior=[0.3, 0.7], samples=30)
    res = random_duration_value_mc(sc, 1.0, strategy_null(sc))
    assert res.mean == pytest.approx(interpolate(sc.u, [0.3, 0.7]), abs=1e-12)
    assert res.std_error <= 1e-12
    assert res.horizon == 1 and res.truncation == 0.0


def test_random_duration_truncation_is_at_most_one_millionth(scenario):
    sc = scenario("tent", samples=30)
    res = random_duration_value_mc(sc, 0.3, strategy_null(sc))
    assert res.horizon == discount_horizon(replace(sc, discount=0.7)) > 1
    assert 0.0 < res.truncation == 0.7**res.horizon * np.abs(sc.u.values).max() / 0.3 <= 1e-6


def test_random_duration_rate_guard(scenario):
    sc = scenario("tent")
    for rate in (0.0, 1e-17):  # 1 - 1e-17 rounds to 1, which no discount may be
        with pytest.raises(RateBoundary):
            random_duration_value_mc(replace(sc, samples=2), rate, strategy_null(sc))


# ---------------------------------------------------------------------------
# renewal-average estimator


def test_renewal_average_scores_recompute(scenario):
    sc = scenario("tent", reveal_rate=0.5)
    res = estimate_renewal_average(sc, strategy_null(sc), horizon=60, samples=25)
    assert res.samples + res.rejected == 25
    for i, rep in enumerate(res.rep_ids):
        trace = run_policy(sc, strategy_null(sc), horizon=60, rep=int(rep))
        st = renewal_stats(trace.reveals)
        first = int(st.kappas[0])
        want = float(trace.stage_payoffs[first : st.last_stage].sum()) / 60.0
        assert res.values[i] == pytest.approx(want, rel=1e-12)


def test_renewal_average_all_rejected(scenario):
    sc = scenario("tent", reveal_rate=1e-9)
    with pytest.raises(AllRejected):
        estimate_renewal_average(sc, strategy_null(sc), horizon=3, samples=5)


def test_renewal_average_rejection_accounting(scenario):
    # rate makes two revelations in four stages unlikely but not impossible
    sc = scenario("tent", reveal_rate=0.3, seed=0)
    res = estimate_renewal_average(sc, strategy_null(sc), horizon=4, samples=200)
    assert res.rejected > 0
    assert res.samples + res.rejected == 200
    assert res.rep_ids.size == res.samples


# ---------------------------------------------------------------------------
# rate coupling


def test_couple_down_guards(scenario):
    sc = scenario("tent", reveal_rate=0.3)
    target_y = solve(scenario("tent", reveal_rate=0.7), "reveal").target
    with pytest.raises(BadRates):
        strategy_couple_down(target_y, 0.0, 0.7, sc)
    with pytest.raises(BadRates):
        strategy_couple_down(target_y, 0.7, 0.3, sc)
    with pytest.raises(BadRates):
        strategy_couple_down(target_y, 0.3, 1.2, sc)


def test_couple_down_reboot_frequency_and_disclosure(scenario):
    # the auxiliary coin must top the reboot frequency up to the target rate, and each reboot
    # must play the row node of the previous state, the state it discloses
    sc = scenario("tent", reveal_rate=0.3)
    target_y = solve(scenario("tent", reveal_rate=0.7), "reveal").target
    strat = strategy_couple_down(target_y, 0.3, 0.7, sc)
    horizon = 5000
    trace = run_policy(sc, strat, horizon=horizon, seed=11)
    assert not trace.reboots[0]
    # every revelation reboots the next stage, and so does the coin on some stages that did not reveal
    assert (trace.reboots[1:] >= trace.reveals[:-1]).all()
    assert (trace.reboots[1:] > trace.reveals[:-1]).any()
    n = np.flatnonzero(trace.reboots)
    row_node = (trace.states[n - 1], trace.signals[n])  # the row node of state i has id i
    engine = _Engine(sc, strat)
    assert_bit_equal(trace.posteriors[n], engine.post[row_node])
    assert_bit_equal(trace.stage_payoffs[n], engine.pay[row_node])
    freq = trace.reboots[1:].mean()
    assert abs(freq - 0.7) <= 4.0 * math.sqrt(0.21 / (horizon - 1))


# ---------------------------------------------------------------------------
# policy kernels and the engine's node table

ROOT = Path(__file__).resolve().parents[1]


def bundled(name, **overrides):
    doc = json.loads((ROOT / "scenarios" / f"{name}.json").read_text(encoding="utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PayoffDiscontinuityWarning)
        return cli.scenario_from_config(cli.effective_config(doc, overrides))


def fill_lazily(monkeypatch):
    """Leave every touching point out of a policy engine's first fill, so the walk fills each successor it reaches."""
    monkeypatch.setattr(sim, "_touching", lambda f: np.empty(0, dtype=np.int64))


def touching_oracle(target):
    """Grid indices where the target is within the split slack of its envelope."""
    return np.flatnonzero(target.values >= cav_values(target) - _envelope(target).slack)


def first_fill_nodes(sc, target):
    """k row nodes, and each distinct belief among the prior and the touching points' images that is not a row."""
    rows = {row.tobytes() for row in sc.chain.M}
    later = {sc.prior.tobytes()} | {(target.grid.points[t] @ sc.chain.M).tobytes() for t in touching_oracle(target)}
    return sc.chain.k + len(later - rows)


def kernel_oracle(p, posteriors, weights, n_signals):
    """Kernel realizing a split, one state at a time: weight x posterior / prior, rows renormalized."""
    m = weights.size
    kernel = np.zeros((p.size, n_signals))
    for ell in range(p.size):
        if p[ell] > 0.0:
            kernel[ell, :m] = weights * posteriors[:, ell] / p[ell]
        else:
            kernel[ell, :m] = 1.0 / m
    kernel[:, :m] /= kernel[:, :m].sum(axis=1, keepdims=True)
    return kernel


@pytest.mark.parametrize("name", ["tent", "receiver", "cycle3"])
def test_policy_kernels_match_kernel_from_split(name):
    # the strategy's nodes at every grid point play the split table's row there, over k signals
    sc = bundled(name)
    target = solve(sc, "reveal").target
    _, atoms, weights = cav_splits(target, sc.grid.points)
    engine = _Engine(sc, Strategy(target))
    points = sc.grid.points
    ids = engine._intern(points)
    assert engine.cum.shape[1:] == (sc.chain.k, sc.chain.k)
    for i in range(sc.grid.n):
        keep = weights[i] > 0.0
        posteriors, split_weights = points[atoms[i, keep]], weights[i, keep]
        m = split_weights.size
        want = kernel_oracle(points[i], posteriors, split_weights, sc.chain.k)
        assert np.array_equal(engine.cum[ids[i]], cum_rows(want))
        assert np.array_equal(engine.post[ids[i], :m], posteriors)
        assert np.array_equal(kernel_from_split(points[i], posteriors, split_weights), want[:, :m])


@pytest.mark.parametrize("name", ["tent", "receiver", "cycle3"])
def test_node_table_cap_leaves_estimates_unchanged(name, monkeypatch):
    sc = bundled(name, samples=12)
    strat = strategy_optimal(sc)
    renewal = strategy_renewal_optimal(sc)
    want = (estimate_discounted(sc, strat, horizon=60).values,
            estimate_renewal_average(sc, renewal, horizon=60).values)
    monkeypatch.setattr(_Engine, "_CACHE_CAP", 3)
    got = (estimate_discounted(sc, strat, horizon=60).values,
           estimate_renewal_average(sc, renewal, horizon=60).values)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


# ---------------------------------------------------------------------------
# scalar reference: one Python iteration per stage and per replication


def _draw(cum, r: float) -> int:
    """Index of the first cumulative weight above r (linear scan, tiny alphabets)."""
    for j, c in enumerate(cum):
        if r < c:
            return j
    return len(cum) - 1


class _Node:
    """Bayes work at one reachable belief, with its successors filled on first use."""

    __slots__ = ("silent", "row_cums", "posteriors", "payoffs", "next_beliefs", "width", "succ")

    def __init__(self, sc: Scenario, belief: np.ndarray, kernel: np.ndarray, silent: bool, atoms=None) -> None:
        k, width = kernel.shape
        _, posteriors = bayes_update(belief, kernel)  # a zero-probability signal is never sampled
        if atoms is not None:
            posteriors[: len(atoms)] = atoms  # a split's signals lead to its atoms exactly
        self.silent = silent
        self.row_cums = tuple(tuple(np.cumsum(kernel[ell])) for ell in range(k))
        self.posteriors = posteriors
        self.payoffs = interpolate(sc.u, posteriors)
        # one stacked (1, k) @ (k, k) product per signal rounds like posteriors[s] @ M
        self.next_beliefs = np.matmul(posteriors[:, None, :], sc.chain.M)[:, 0, :]
        self.width = width
        self.succ: list = [None] * width


class _ScalarEngine:
    """Reference: the scalar stage loop the lock-step engine replaced, one play at a time.

    Nodes are keyed by (silent, belief bytes). Stage n >= 1 reboots where
    stage n - 1's revelation uniform lies below rate + aux_prob * (1 - rate),
    and then plays the row node of stage n - 1's state, the state a
    revelation (below rate) or the coupling coin (above it) disclosed;
    otherwise it follows the node's successor for the signal drawn before.
    With silent set, a play sends one uninformative signal until its first
    reboot and plays the strategy after it.
    """

    _CACHE_CAP = 200_000

    def __init__(self, sc: Scenario, strat: Strategy, silent: bool = False) -> None:
        self.sc = sc
        self.strat = strat
        self.silent = silent
        self.nodes: dict[tuple, _Node] = {}
        self.M = sc.chain.M
        self.M_cums = tuple(tuple(np.cumsum(sc.chain.M[ell])) for ell in range(sc.chain.k))
        self.silent_kernel = np.ones((sc.chain.k, 1))
        self.rows: list = [None] * sc.chain.k

    def node(self, silent: bool, belief: np.ndarray) -> _Node:
        key = (silent, belief.tobytes())
        node = self.nodes.get(key)
        if node is None:
            if len(self.nodes) >= self._CACHE_CAP:
                # drop the successor pointers too, or they keep cleared nodes alive
                for old in self.nodes.values():
                    old.succ = [None] * old.width
                self.nodes.clear()
                self.rows = [None] * self.sc.chain.k
            atoms = None
            if silent:
                kernel = self.silent_kernel
            elif not isinstance(self.strat.plays, GridFn):
                kernel = self.strat.plays
            else:
                # one belief at a time, through the single-belief split and kernel
                _, atoms, weights = cav_split_at(self.strat.plays, belief)
                kernel = np.zeros((self.sc.chain.k, self.sc.chain.k))
                kernel[:, : weights.size] = kernel_from_split(belief, atoms, weights)
            node = self.nodes[key] = _Node(self.sc, belief, kernel, silent, atoms)
        return node

    def row(self, state: int) -> _Node:
        node = self.rows[state]
        if node is None:
            node = self.rows[state] = self.node(False, self.M[state].copy())
        return node

    def run(self, prior: np.ndarray, horizon: int, rate: float, rng, trace_arrays=None) -> np.ndarray:
        """One play; returns the stage payoffs, optionally filling trace arrays."""
        belief = np.ascontiguousarray(validate_belief(prior, self.sc.chain.k))
        node = self.node(self.silent, belief)
        prior_cum = tuple(np.cumsum(belief))
        threshold = rate + self.strat.aux_prob * (1.0 - rate)
        payoffs = np.empty(horizon)
        rand = rng.random
        state, rebooted = -1, False
        for n in range(horizon):
            state = _draw(prior_cum if n == 0 else self.M_cums[state], rand())
            s = _draw(node.row_cums[state], rand())
            payoffs[n] = node.payoffs[s]
            rev_u = rand()
            if trace_arrays is not None:
                trace_arrays[0][n] = state
                trace_arrays[1][n] = s
                trace_arrays[2][n] = rev_u < rate
                trace_arrays[3][n] = rebooted
                trace_arrays[4][n] = node.posteriors[s]
            # the next stage's reboot reads this stage's revelation uniform and discloses this state
            rebooted = rev_u < threshold
            if rebooted:
                node = self.row(state)
            else:
                nxt = node.succ[s]
                if nxt is None:
                    nxt = node.succ[s] = self.node(node.silent, node.next_beliefs[s])
                node = nxt
        return payoffs


def reference_trace(sc, strat, horizon, seed, rep, silent=False):
    """The scalar play's traced fields, in trace_fields' order."""
    arrays = (np.empty(horizon, dtype=np.int64), np.empty(horizon, dtype=np.int64),
              np.zeros(horizon, dtype=bool), np.zeros(horizon, dtype=bool), np.empty((horizon, sc.chain.k)))
    payoffs = _ScalarEngine(sc, strat, silent).run(sc.prior, horizon, sc.reveal_rate,
                                           replication_rng(seed, rep), trace_arrays=arrays)
    return (*arrays, payoffs)


def trace_fields(trace):
    """A trace's fields, in reference_trace's order."""
    return trace.states, trace.signals, trace.reveals, trace.reboots, trace.posteriors, trace.stage_payoffs


def reference_discounted(sc, strat, samples, seed, horizon):
    weights = (1.0 - sc.discount) * sc.discount ** np.arange(horizon)
    engine = _ScalarEngine(sc, strat)
    return np.array([weights @ engine.run(sc.prior, horizon, sc.reveal_rate, replication_rng(seed, i))
                     for i in range(samples)]), np.arange(samples)


def reference_duration(sc, rate, strat, samples, seed, horizon):
    # the game at rate over the horizon, summed through each replication's first revealing stage
    # (over every stage when none reveals)
    totals = np.empty(samples)
    for i in range(samples):
        _, _, reveals, _, _, payoffs = reference_trace(replace(sc, reveal_rate=rate), strat, horizon, seed, i)
        totals[i] = payoffs[: int(reveals.argmax()) + 1 if reveals.any() else horizon].sum()
    return totals, np.arange(samples)


def reference_renewal(sc, strat, horizon, samples, seed, silent=False):
    kept, reps = [], []
    for i in range(samples):
        _, _, reveals, _, _, payoffs = reference_trace(sc, strat, horizon, seed, i, silent)
        stats = renewal_stats(reveals)
        if stats.revelations >= 2:
            kept.append(float(payoffs[int(stats.kappas[0]) : stats.last_stage].sum()) / horizon)
            reps.append(i)
    return np.asarray(kept), np.asarray(reps, dtype=np.int64)


def assert_bit_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


STRATEGIES = ("null", "full", "optimal", "renewal", "couple")


@pytest.fixture(scope="module")
def strategies():
    """Bundled scenarios with each strategy the CLI offers (renewal is sigma_star), built once."""
    made = {}
    for name in ("tent", "receiver", "cycle3"):
        sc = bundled(name)
        target_y = solve(replace(sc, reveal_rate=0.8), "reveal").target
        made[name] = sc, {"null": strategy_null(sc), "full": strategy_full(sc),
                          "optimal": strategy_optimal(sc), "renewal": strategy_renewal_optimal(sc),
                          "couple": strategy_couple_down(target_y, sc.reveal_rate, 0.8, sc)}
    return made


@pytest.mark.parametrize("lanes", [None, 1, 7])
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", ["tent", "receiver", "cycle3"])
def test_lock_step_engine_matches_scalar_reference(name, strategy, lanes, strategies, monkeypatch):
    sc, made = strategies[name]
    strat = made[strategy]
    horizon, samples, seed = 40, 11, 5
    if lanes is not None:
        # lanes per chunk at this horizon
        monkeypatch.setattr(sim, "_PLAY_STAGES", lanes * horizon)

    est = estimate_discounted(sc, strat, samples=samples, seed=seed, horizon=horizon)
    for got, want in zip((est.values, est.rep_ids), reference_discounted(sc, strat, samples, seed, horizon)):
        assert_bit_equal(got, want)

    est = estimate_renewal_average(sc, strat, horizon, samples=samples, seed=seed)
    for got, want in zip((est.values, est.rep_ids), reference_renewal(sc, strat, horizon, samples, seed)):
        assert_bit_equal(got, want)

    est = random_duration_value_mc(replace(sc, samples=samples, seed=seed), 0.3, strat)
    assert est.horizon == discount_horizon(replace(sc, discount=0.7))
    for got, want in zip((est.values, est.rep_ids), reference_duration(sc, 0.3, strat, samples, seed, est.horizon)):
        assert_bit_equal(got, want)

    for rep in (0, 3):
        trace = run_policy(sc, strat, horizon, seed=seed, rep=rep)
        for g, w in zip(trace_fields(trace), reference_trace(sc, strat, horizon, seed, rep), strict=True):
            assert_bit_equal(g, w)


@pytest.mark.parametrize("seed", [2**32, 2**64 - 1])
@pytest.mark.parametrize("name", ["tent", "cycle3"])
def test_estimates_replay_their_lanes_at_wide_master_seeds(name, seed, strategies, monkeypatch):
    # master seeds of two words; chunks of a few lanes, so several chunks form
    sc, made = strategies[name]
    strat = made["optimal"]
    horizon, samples = 20, 9
    monkeypatch.setattr(sim, "_PLAY_STAGES", 3 * horizon)
    chunks = []
    play = _Engine.play
    monkeypatch.setattr(_Engine, "play", lambda self, rate, draws, **kw: chunks.append(len(draws))
                        or play(self, rate, draws, **kw))

    est = estimate_discounted(sc, strat, samples=samples, seed=seed, horizon=horizon)
    assert chunks == [3, 3, 3]
    weights = (1.0 - sc.discount) * sc.discount ** np.arange(horizon)
    replays = [weights @ run_policy(sc, strat, horizon, seed=seed, rep=i).stage_payoffs for i in range(samples)]
    assert_bit_equal(est.values, np.array(replays))

    # a lane plays the game at rate and sums its stage payoffs through its first revealing stage
    # (every stage when none reveals): a prefix of the one-lane replay at that rate; each horizon,
    # 1 at rate 1, is split into chunks of three lanes
    for rate in (0.2, 1.0):
        sc_rate = replace(sc, reveal_rate=rate)
        longest = discount_horizon(replace(sc, discount=1.0 - rate))
        monkeypatch.setattr(sim, "_PLAY_STAGES", 3 * longest)
        chunks.clear()
        est = random_duration_value_mc(replace(sc, samples=samples, seed=seed), rate, strat)
        assert len(chunks) > 1 and sum(chunks) == samples
        assert chunks == [3, 3, 3] and est.horizon == longest
        replays = []
        for i in range(samples):
            trace = run_policy(sc_rate, strat, est.horizon, seed=seed, rep=i)
            w = int(trace.reveals.argmax()) + 1 if trace.reveals.any() else est.horizon
            replays.append(trace.stage_payoffs[:w].sum())
        assert_bit_equal(est.values, np.array(replays))


# (_PLAY_STAGES, _CACHE_CAP): one lane per play; three lanes of one stage; three lanes of seven
# stages and two of two; every lane of a horizon in one play; and each of them with a node table
# cleared before every step. Each id names its budget in bytes, at 84 a lane-stage as the README
# sizes a chunk, and the budget holds bytes // 84 lane-stages.
ENGINE_SETTINGS = [pytest.param(stages, cap, id=f"{size}-{cap}") for stages, size, cap in
                   [(1, 1, None), (3, 300, None), (23, 2000, None), (None, None, None), (3, 300, 3), (23, 2000, 3),
                    (None, None, 3)]]


@pytest.mark.parametrize("budget,cap", ENGINE_SETTINGS)
@pytest.mark.parametrize("rate", [0.0, 1.0, None])
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", ["tent", "cycle3"])
def test_engine_edge_cases_match_scalar_reference(name, strategy, rate, budget, cap, strategies, monkeypatch):
    # each horizon's lanes in the chunks an estimate forms, all on one shared engine, so the node
    # table carries across plays as it does across an estimate's chunks; the plays
    # are traced, and each traced field is checked against its own scalar replay
    sc, made = strategies[name]
    if rate is not None:
        sc = replace(sc, reveal_rate=rate)
    strat = made[strategy]
    if budget is not None:
        monkeypatch.setattr(sim, "_PLAY_STAGES", budget)
    if cap is not None:
        monkeypatch.setattr(_Engine, "_CACHE_CAP", cap)
    horizons, seed = [1, 23, 7, 40, 2, 40, 15, 7, 1, 2, 1, 7], 5
    engine, plays = _Engine(sc, strat), []
    play = engine.play
    engine.play = lambda *args: plays.append(play(*args, trace=True)) or plays[-1]
    for h in dict.fromkeys(horizons):
        reps = [i for i, hi in enumerate(horizons) if hi == h]
        plays.clear()
        # lane i of the horizon's plays draws from replication reps[i]
        monkeypatch.setattr(sim, "replication_rngs",
                            lambda seed, lanes: (replication_rng(seed, reps[i]) for i in lanes))
        chunks = list(sim._lanes(engine, sc.reveal_rate, seed, len(reps), h))
        assert sum(len(payoffs) for payoffs, _ in chunks) == len(reps) and (budget is not None or len(plays) == 1)
        fields = [np.concatenate(field) for field in zip(*map(trace_fields, plays))]
        for lane, i in enumerate(reps):
            for g, w in zip([field[lane] for field in fields], reference_trace(sc, strat, h, seed, i), strict=True):
                assert_bit_equal(g, w)


def test_a_uniform_on_a_kernel_threshold_draws_the_next_signal(strategies):
    # stage 0's signal uniform is the kernel's first cumulative weight: the draw is the first
    # weight above the uniform, signal 1
    sc, _ = strategies["tent"]
    t = replication_rng(sc.seed, 0).random(3)[1]
    strat = Strategy(np.array([[t, 1.0 - t], [t, 1.0 - t]]))
    trace = run_policy(sc, strat, 4, rep=0)
    assert trace.signals[0] == 1
    for g, w in zip(trace_fields(trace), reference_trace(sc, strat, 4, sc.seed, 0), strict=True):
        assert_bit_equal(g, w)


# (kernel on k states, error): rows summing to 0.4, a NaN entry and one row too many
BAD_KERNELS = {
    "short rows": (lambda k: np.full((k, 2), 0.2), InvalidSplit),
    "nan": (lambda k: np.vstack([[np.nan, 1.0], np.full((k - 1, 2), 0.5)]), InvalidSplit),
    "extra row": (lambda k: np.ones((k + 1, 1)), DimensionMismatch),
}


@pytest.mark.parametrize("case", sorted(BAD_KERNELS))
@pytest.mark.parametrize("name", ["tent", "cycle3"])
def test_the_engine_rejects_an_invalid_kernel(name, case, strategies):
    sc, _ = strategies[name]
    kernel, error = BAD_KERNELS[case]
    strat = Strategy(kernel(sc.chain.k))
    with pytest.raises(error):
        estimate_discounted(sc, strat, samples=2, seed=0, horizon=5)
    with pytest.raises(error):
        run_policy(sc, strat, 5)


def test_the_last_stage_fills_no_successor(strategies):
    # at rate 0 the null strategy's belief moves on every one of these 30 stages (on tent it
    # reaches a fixed point only later): one fill for the row nodes and the start node, then a
    # successor for every stage but the last
    sc, made = strategies["tent"]
    est = estimate_discounted(replace(sc, reveal_rate=0.0), made["null"], samples=20, seed=1, horizon=30)
    assert (est.nodes, est.fills, est.steps) == (sc.chain.k + 30, 30, 30)


def test_the_row_nodes_and_the_start_node_are_one_fill(strategies, monkeypatch):
    # one stage fills no successor, so a lazily filled policy's whole estimate builds its nodes in one fill
    fill_lazily(monkeypatch)
    sc, made = strategies["tent"]
    est = estimate_discounted(sc, made["optimal"], samples=20, seed=1, horizon=1)
    assert (est.nodes, est.fills, est.steps) == (sc.chain.k + 1, 1, 1)


# (nodes, fills) of 50 stages at rate 0, where a lane never reboots, with every node filled lazily as
# a kernel strategy's are: the first fill holds the k row nodes and the start
# node, and each later fill adds the successors that step first reaches. On tent the null belief
# moves on each of 30 stages before it is a fixed point bit for bit (3 + 30 nodes, one per step).
# The optimal policy's lanes reach 5 more beliefs, and so do the renewal policy's, which reveals
# nothing at the uniform prior either.
# On cycle3 the doubly stochastic chain fixes the uniform prior, and the optimal policy there fully
# discloses, so every successor is the start node or a row node.
RATE_0_NODES = {("tent", "null"): (33, 31), ("tent", "optimal"): (8, 6), ("tent", "renewal"): (8, 6),
                ("cycle3", "null"): (4, 1), ("cycle3", "optimal"): (4, 1), ("cycle3", "renewal"): (4, 1)}


@pytest.mark.parametrize("strategy", ["null", "optimal", "renewal"])
@pytest.mark.parametrize("name", ["tent", "cycle3"])
def test_estimates_count_walk_steps(name, strategy, strategies, monkeypatch):
    fill_lazily(monkeypatch)
    sc, made = strategies[name]
    strat = made[strategy]
    # at rate 1 every segment is one stage long: one step per play, and no successor is filled,
    # so the only node build is the one fill of the row nodes and the start node
    est = estimate_discounted(replace(sc, reveal_rate=1.0), strat, samples=20, seed=1, horizon=50)
    assert est.steps == 1
    assert est.fills == 1 and est.nodes == sc.chain.k + 1
    # at rate 0 a lane never reboots: one segment per lane, one step per stage
    est = estimate_discounted(replace(sc, reveal_rate=0.0), strat, samples=20, seed=1, horizon=50)
    assert est.steps == 50
    assert (est.nodes, est.fills) == RATE_0_NODES[name, strategy]


def test_a_coupled_play_fills_no_successor_before_a_coupling_reboot(monkeypatch):
    # with aux_prob 1 every stage from 1 on reboots, by a revelation or by the coupling coin, so
    # every segment is one stage long and no successor is filled, as at rate 1 (nodes filled lazily)
    fill_lazily(monkeypatch)
    sc = bundled("tent", x=0.5)
    target = solve(replace(sc, reveal_rate=0.7), "reveal").target
    est = estimate_discounted(sc, Strategy(target, 1.0), samples=300, horizon=50)
    assert (est.nodes, est.fills, est.steps) == (sc.chain.k + 1, 1, 1)


def traced_plays(engine, rate, draws, chunk):
    """The traced fields of plays of draws, chunk lanes at a time, on one engine."""
    plays = [engine.play(rate, draws[i : i + chunk], trace=True) for i in range(0, len(draws), chunk)]
    return [np.concatenate(field) for field in zip(*map(trace_fields, plays))]


def assert_plays_like_the_reference(engine, rate, seed, lanes, horizon, chunk):
    """Traced plays of replications 0 .. lanes-1, chunk lanes at a time, equal their scalar replays.

    From its first reboot on, each lane also equals the reference played silent until that reboot:
    after a reboot both sit on a row node, whatever came before it.
    """
    sc, strat = replace(engine.sc, reveal_rate=rate), engine.strat
    draws = np.stack([replication_rng(seed, i).random((horizon, 3)) for i in range(lanes)])
    got = traced_plays(engine, rate, draws, chunk)
    for i in range(lanes):
        lane = [field[i] for field in got]
        for g, w in zip(lane, reference_trace(sc, strat, horizon, seed, i), strict=True):
            assert_bit_equal(g, w)
        reboots = lane[3]
        cut = int(reboots.argmax()) if reboots.any() else horizon
        for g, w in zip(lane, reference_trace(sc, strat, horizon, seed, i, silent=True), strict=True):
            assert_bit_equal(g[cut:], w[cut:])


@pytest.mark.parametrize("aux_prob", [0.0, 0.3])
@pytest.mark.parametrize("rate", [0.0, 0.05, 0.3, 0.9])
@pytest.mark.parametrize("name", ["tent", "receiver", "cycle3"])
def test_the_silent_chain_builds_the_nodes_the_walk_would(name, rate, aux_prob, strategies):
    # sigma_star, with and without a coupling coin, plays what the scalar reference plays, and from
    # each lane's first reboot on, what the reference's silent chain reaches. Three plays on one
    # engine, so later plays read nodes built before
    sc, made = strategies[name]
    engine = _Engine(sc, replace(made["renewal"], aux_prob=aux_prob))
    assert_plays_like_the_reference(engine, rate, 7, 30, 120, 10)


# (scenario, transition, prior) whose silent prefixes, the reference's beliefs before a first
# revelation, run longer than one stage, which no bundled k = 3 scenario has (each has a doubly
# stochastic chain and the uniform prior): cycle3's chain off its stationary law, a periodic chain
# whose prefix loops with period 2, and a slowly mixing chain
LONG_PREFIXES = {
    "cycle3": ("cycle3", None, [0.8, 0.1, 0.1]),
    "periodic": ("tent", [[0.0, 1.0], [1.0, 0.0]], [0.25, 0.75]),
    "slow": ("tent", [[0.999, 0.001], [0.002, 0.998]], None),
}


@pytest.fixture(scope="module")
def long_prefixes():
    """Each LONG_PREFIXES scenario with its renewal strategy at rate 0.05, built once."""
    made = {}
    for case, (name, M, prior) in LONG_PREFIXES.items():
        sc = bundled(name)
        sc = replace(sc, chain=sc.chain if M is None else validate_chain(np.array(M)), prior=prior,
                     reveal_rate=0.05)
        made[case] = sc, strategy_renewal_optimal(sc)
    return made


@pytest.mark.parametrize("rate", [0.0, 0.05])
@pytest.mark.parametrize("case", sorted(LONG_PREFIXES))
def test_a_long_silent_prefix_plays_like_the_scalar_reference(case, rate, long_prefixes):
    # sigma_star from a prior off the chain's stationary law (the only k = 3 such plays), and after
    # each lane's first revelation, the reference played silent until then; at rate 0 no lane reveals
    sc, strat = long_prefixes[case]
    assert_plays_like_the_reference(_Engine(sc, strat), rate, 3, 6, 400, 3)


# (scenario, reveal rate): the bundled scenarios at three rates, cycle3 at its own, and the
# LONG_PREFIXES cases at theirs
RENEWAL_CASES = [(name, x) for name in ("tent", "parabola", "receiver", "kink3") for x in (0.1, 0.5, 0.9)] + [
    ("cycle3", 0.5)] + [(case, None) for case in sorted(LONG_PREFIXES)]


@pytest.mark.parametrize("name,x", RENEWAL_CASES)
def test_renewal_scores_never_read_the_play_before_the_first_revelation(name, x, long_prefixes):
    # the renewal average of sigma_star, which plays its policy from the prior, equals the
    # reference's that sends one uninformative signal until the first revelation, bit for bit
    if x is None:
        sc, strat = long_prefixes[name]
    else:
        sc = bundled(name, x=x)
        strat = strategy_renewal_optimal(sc)
    est = estimate_renewal_average(sc, strat, 200, samples=40, seed=9)
    values, reps = reference_renewal(sc, strat, 200, 40, 9, silent=True)
    assert_bit_equal(est.values, values)
    assert_bit_equal(est.rep_ids, reps)
    assert est.rejected == 40 - len(reps)


@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_renewal_bookkeeping_per_chunk_matches_each_lane_alone(lanes, strategies, monkeypatch):
    # chunks of one to three lanes: each kept value, its replication id and the rejection count
    # equal renewal_stats on each lane's own replay, over lanes with 0, 1 and 2 or more revelations
    # and revelations on the first and the last stage
    sc, made = strategies["tent"]
    sc, strat, horizon, samples, seed = replace(sc, reveal_rate=0.3), made["renewal"], 6, 40, 2
    monkeypatch.setattr(sim, "_PLAY_STAGES", lanes * horizon)
    est = estimate_renewal_average(sc, strat, horizon, samples=samples, seed=seed)
    values, reps, counts, stages = [], [], set(), set()
    for i in range(samples):
        trace = run_policy(sc, strat, horizon, seed=seed, rep=i)
        stats = renewal_stats(trace.reveals)
        counts.add(min(stats.revelations, 2))
        stages |= set(np.cumsum(stats.kappas).tolist())
        if stats.revelations >= 2:
            values.append(float(trace.stage_payoffs[int(stats.kappas[0]) : stats.last_stage].sum()) / horizon)
            reps.append(i)
    assert counts == {0, 1, 2} and {1, horizon} <= stages
    assert_bit_equal(est.values, np.array(values))
    assert_bit_equal(est.rep_ids, np.array(reps, dtype=np.int64))
    assert est.rejected == samples - len(reps)


@pytest.mark.parametrize("name", ["tent", "cycle3"])
def test_the_atom_table_is_the_payoff_at_the_target_grid_points(name, strategies, monkeypatch):
    # a target on the payoff's lattice takes its atoms' payoffs off the payoff's table, with no
    # interpolation over the grid; a target on another lattice interpolates the payoff at its points
    sc, made = strategies[name]
    target = made["optimal"].plays
    assert target.grid is sc.u.grid
    queries = []
    monkeypatch.setattr(sim, "interpolate", lambda f, q, _fn=sim.interpolate: queries.append(q) or _fn(f, q))
    engine = _Engine(sc, Strategy(target))
    assert not any(q is target.grid.points for q in queries)
    assert engine.atom_pay.tobytes() == interpolate(sc.u, target.grid.points).tobytes()
    coarse = make_grid(sc.chain.k, 10)
    engine = _Engine(sc, Strategy(GridFn(coarse, interpolate(target, coarse.points))))
    assert any(q is coarse.points for q in queries)
    assert engine.atom_pay.tobytes() == interpolate(sc.u, coarse.points).tobytes()


def test_a_belief_on_the_lattice_snap_plays_a_stochastic_kernel(grid2, tent):
    # the transition row (1 - 1e-13, 1e-13) snaps onto a grid vertex, so the cell lottery there
    # puts no mass on state 1, whose kernel row is uniform over the atoms rather than 0 / 0
    chain = validate_chain(np.array([[1.0 - 1e-13, 1e-13], [0.5, 0.5]]))
    sc = Scenario(chain=chain, u=tent, discount=0.9, reveal_rate=0.5, seed=1)
    strat = strategy_optimal(sc)
    est = estimate_discounted(sc, strat, samples=50, horizon=40)
    assert_bit_equal(est.values, reference_discounted(sc, strat, 50, sc.seed, 40)[0])
    assert np.isfinite(est.values).all()


@pytest.mark.parametrize("name", ["tent", "cycle3"])
@pytest.mark.parametrize("horizon", [1, 2, 3, 1000, 65537])
def test_state_reveal_scan_matches_the_stage_loop(name, horizon, strategies):
    # one path for every strategy the CLI offers, couple:Y included
    sc, made = strategies[name]
    states, reveals = state_reveal_path(sc, horizon)
    for strategy in STRATEGIES:
        trace = run_policy(sc, made[strategy], horizon)
        assert_bit_equal(states, trace.states)
        assert_bit_equal(reveals, trace.reveals)


@pytest.mark.parametrize("name", ["tent", "cycle3"])
def test_state_reveal_path_builds_no_engine(name, strategies, monkeypatch):
    # states and coins depend only on the uniforms, so no strategy's nodes are built for them
    sc, _ = strategies[name]
    want = state_reveal_path(sc, 50)

    def refuse(self, *args):
        raise AssertionError("state_reveal_path built an engine")

    monkeypatch.setattr(_Engine, "__init__", refuse)
    for got, w in zip(state_reveal_path(sc, 50), want, strict=True):
        assert_bit_equal(got, w)


@pytest.mark.parametrize("name", ["tent", "cycle3"])
@pytest.mark.parametrize("horizon", [1, 2, 1000])
def test_every_strategy_reads_three_fixed_slots_per_stage(name, horizon, strategies):
    # stage n reads u[3n] (state), u[3n + 1] (signal) and u[3n + 2] (revelation coin) of its
    # replication's stream, whatever the strategy. A reboot reads stage n - 1's revelation
    # uniform: stage n >= 1 reboots exactly where u[3n - 1] < x + aux_prob * (1 - x), and plays the
    # row node of stage n - 1's state
    sc, made = strategies[name]
    x = sc.reveal_rate
    u = replication_rng(sc.seed, 2).random(3 * horizon)
    first = int((u[0] >= cum_rows(sc.prior)).sum())
    states = scan_states(cum_rows(sc.chain.M), np.array([first]), u[None, 3::3])[0]
    prev_u = u[2:-1:3]  # the revelation uniforms of stages 0 .. horizon - 2
    for strategy in STRATEGIES:
        strat = made[strategy]
        trace = run_policy(sc, strat, horizon, rep=2)
        assert_bit_equal(trace.states, states)
        assert_bit_equal(trace.reveals, u[2::3] < x)
        reboots = np.zeros(horizon, dtype=bool)
        reboots[1:] = prev_u < x + strat.aux_prob * (1.0 - x)
        assert_bit_equal(trace.reboots, reboots)
        if horizon == 1000:
            # a reboot after a stage that did not reveal is the coupling coin's
            assert (reboots[1:] > trace.reveals[:-1]).any() == (strategy == "couple")
        n = np.flatnonzero(reboots)
        row_node = (states[n - 1], trace.signals[n])  # the row node of state i has id i
        assert_bit_equal(trace.posteriors[n], _Engine(sc, strat).post[row_node])


@pytest.mark.parametrize("name", ["tent", "cycle3"])
def test_the_coupling_reboots_at_the_target_rate(name):
    # at x = 0.3 coupled to Y = 0.7, stage n >= 1 reboots (stage n - 1 revealed, or the coin read
    # off its revelation uniform hit) with chance Y, independently of every other stage: over a
    # 200,000-stage play the share of rebooted stages lies within three standard errors of Y
    sc = bundled(name, x=0.3)
    strat = strategy_couple_down(solve(replace(sc, reveal_rate=0.7), "reveal").target, 0.3, 0.7, sc)
    rebooted = run_policy(sc, strat, 200_000).reboots[1:]
    assert abs(rebooted.mean() - 0.7) < 3.0 * math.sqrt(0.7 * 0.3 / rebooted.size)


@pytest.mark.parametrize("name", ["tent", "cycle3"])
def test_a_coupled_play_is_the_higher_rate_play_on_the_same_uniforms(name):
    # the revelation and the coin read one uniform u, so at x = 0.3 a stage reboots where
    # u < x + aux_prob * (1 - x), which is u < Y = 0.7 but for rounding: the coupled play's
    # revelations are a subset of the rate-Y play's, it reboots where that play does, and it plays
    # the same signals, posteriors and payoffs, so the discounted estimates agree lane by lane
    sc = bundled(name, x=0.3)
    sc_y = replace(sc, reveal_rate=0.7)
    target = solve(sc_y, "reveal").target
    coupled, plain = strategy_couple_down(target, 0.3, 0.7, sc), Strategy(target)
    got, want = run_policy(sc, coupled, 2000), run_policy(sc_y, plain, 2000)
    assert not (got.reveals & ~want.reveals).any()
    assert_bit_equal(want.reboots[1:], want.reveals[:-1])
    for g, w in zip(trace_fields(got), trace_fields(want), strict=True):
        if g is not got.reveals:
            assert_bit_equal(g, w)
    assert_bit_equal(estimate_discounted(sc, coupled, samples=200).values,
                     estimate_discounted(sc_y, plain, samples=200).values)


def test_estimates_report_the_node_table(monkeypatch):
    # nodes filled lazily, as a kernel strategy's are
    fill_lazily(monkeypatch)
    sc = bundled("receiver")
    strat = strategy_optimal(sc)
    est = estimate_discounted(sc, strat, samples=50, seed=3, horizon=30)
    assert (est.nodes, est.cache_clears) == (5, 0)
    # past the cap the table is cleared between walk steps, here before each of the 16 steps (the
    # first fill, the two row nodes and the start node, reaches the cap before the first step); a
    # clear builds those three again, and the last step's one node in use makes four
    monkeypatch.setattr(_Engine, "_CACHE_CAP", 3)
    capped = estimate_discounted(sc, strat, samples=50, seed=3, horizon=30)
    assert (capped.nodes, capped.cache_clears) == (4, 16)
    assert capped.steps == est.steps == 16
    assert_bit_equal(capped.values, est.values)


@pytest.mark.parametrize("name", ["tent", "parabola", "receiver", "cycle3", "kink3"])
def test_interpolation_at_the_grid_points_reads_the_table_back(name):
    # a policy on the scenario's lattice reads its posteriors' payoffs off u.values
    sc = bundled(name)
    assert interpolate(sc.u, sc.grid.points).tobytes() == sc.u.values.tobytes()


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 3), resolution=st.integers(1, 30), other=st.integers(1, 30),
       seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-300, 1e300))
def test_interpolation_at_grid_points_is_read_off_one_table(k, resolution, other, seed, scale):
    # u's table comes back at its own lattice (about a third of it is +0.0 or -0.0, and interpolate
    # reads -0.0 back as +0.0); and on u's lattice or another one, interpolating the whole grid once
    # and indexing by atoms, as the engine does, equals interpolating at the atoms' points
    grid = make_grid(k, resolution)
    rng = np.random.default_rng(seed)
    zeros = np.where(rng.random(grid.n) < 0.5, -0.0, 0.0)
    u = GridFn(grid, np.where(rng.random(grid.n) < 0.3, zeros, scale * rng.standard_normal(grid.n)))
    assert interpolate(u, grid.points).tobytes() == (u.values + 0.0).tobytes()
    for points_of in (grid, make_grid(k, other)):
        atoms = rng.integers(0, points_of.n, (7, k))
        table = interpolate(u, points_of.points)
        assert table[atoms].tobytes() == interpolate(u, points_of.points[atoms].reshape(-1, k)).reshape(7, k).tobytes()


@settings(max_examples=40, deadline=None)
@given(lanes=st.integers(1, 300), horizon=st.integers(1, 2000), lam=st.floats(0.0, 0.999),
       seed=st.integers(0, 2**32 - 1))
@example(lanes=300, horizon=1, lam=0.9, seed=0)
@example(lanes=1, horizon=2, lam=0.5, seed=1)
@example(lanes=300, horizon=153, lam=0.9, seed=2)
def test_one_stacked_product_totals_a_chunk_like_each_lane_alone(lanes, horizon, lam, seed):
    payoffs = np.random.default_rng(seed).random((lanes, horizon))
    weights = (1.0 - lam) * lam ** np.arange(horizon)
    totals = np.matmul(payoffs[:, None, :], weights[:, None])[:, 0, 0]
    assert_bit_equal(totals, np.array([weights @ row for row in payoffs]))


def test_a_policy_on_another_lattice_plays_its_own_grid_points(strategies):
    # tent's target read onto R = 50 and played on the R = 200 scenario: its posteriors are R = 50
    # points, whose payoffs are interpolated off the scenario's table once per engine
    sc, made = strategies["tent"]
    coarse = make_grid(2, 50)
    strat = Strategy(GridFn(coarse, interpolate(made["optimal"].plays, coarse.points)))
    est = estimate_discounted(sc, strat, samples=40, seed=5, horizon=40)
    assert_bit_equal(est.values, reference_discounted(sc, strat, 40, 5, 40)[0])
    est = estimate_renewal_average(sc, strat, 40, samples=40, seed=5)
    assert_bit_equal(est.values, reference_renewal(sc, strat, 40, 40, 5)[0])


def spy_on_bayes_and_interpolate(monkeypatch) -> list:
    """(name, beliefs) of each later bayes_update (its priors) and interpolate (its queries) call."""
    calls = []
    for fn, at in (("bayes_update", 0), ("interpolate", 1)):
        monkeypatch.setattr(sim, fn, lambda *args, _fn=getattr(sim, fn), _name=fn, _at=at:
                            calls.append((_name, args[_at])) or _fn(*args))
    return calls


def assert_calls(calls, want):
    assert [fn for fn, _ in calls] == [fn for fn, _ in want]
    for (_, got), (_, w) in zip(calls, want):
        assert_bit_equal(np.asarray(got), w)


def fresh_beliefs(sc, engine):
    beliefs = np.vstack([sc.grid.points, sc.grid.points @ sc.chain.M])[::7]
    return beliefs[[b.tobytes() not in engine.index for b in beliefs]]


@pytest.mark.parametrize("name", ["tent", "cycle3"])
def test_a_policy_fill_runs_no_bayes_and_locates_only_empty_slots(name, strategies, monkeypatch):
    # a fill of a policy's nodes takes their posteriors from its splits with no Bayes step, and only
    # an empty slot reads u at the belief
    sc, made = strategies[name]
    strat = made["renewal"]
    engine = _Engine(sc, strat)
    fresh = fresh_beliefs(sc, engine)
    calls = spy_on_bayes_and_interpolate(monkeypatch)
    engine._intern(fresh)
    _, atoms, _ = cav_splits(strat.plays, fresh)
    assert_calls(calls, [("interpolate", fresh[(atoms < 0).any(axis=1)])])


@pytest.mark.parametrize("name", ["tent", "cycle3"])
def test_a_kernel_fill_runs_bayes_on_every_node(name, strategies, monkeypatch):
    # a kernel strategy's posteriors come from Bayes' rule and are interpolated, in one call each
    sc, made = strategies[name]
    engine = _Engine(sc, made["full"])
    fresh = fresh_beliefs(sc, engine)
    calls = spy_on_bayes_and_interpolate(monkeypatch)
    ids = engine._intern(fresh)
    assert_calls(calls, [("bayes_update", fresh), ("interpolate", engine.post[ids].reshape(-1, sc.chain.k))])


def test_a_nested_list_kernel_plays_like_its_array(strategies):
    # the engine plays the kernel validate_kernel returns, so a list of rows plays as its array does
    sc, _ = strategies["tent"]
    nested = [[0.3, 0.7], [0.6, 0.4]]
    listed, array = Strategy(nested), Strategy(np.array(nested))
    assert_bit_equal(estimate_discounted(sc, listed, samples=30, seed=2, horizon=40).values,
                     estimate_discounted(sc, array, samples=30, seed=2, horizon=40).values)
    got, want = run_policy(sc, listed, 40, rep=1), run_policy(sc, array, 40, rep=1)
    for field in ("states", "signals", "reveals", "posteriors", "stage_payoffs"):
        assert_bit_equal(getattr(got, field), getattr(want, field))


@pytest.mark.parametrize("aux_prob", [math.nan, -0.2, 1.5])
def test_the_engine_rejects_a_coupling_chance_off_the_unit_interval(aux_prob, strategies):
    # the strategy checks its coupling chance when it is made, so no engine ever sees one off [0, 1]
    _, made = strategies["tent"]
    with pytest.raises(BadRates):
        Strategy(made["optimal"].plays, aux_prob)
    with pytest.raises(BadRates):
        replace(made["optimal"], aux_prob=aux_prob)


def test_the_engine_rejects_a_target_that_is_not_a_grid_function(strategies):
    # what a strategy plays is a policy only as a GridFn: a target's bare values are read as a
    # kernel, which is one row where validate_kernel wants k
    sc, made = strategies["tent"]
    strat = Strategy(np.asarray(made["optimal"].plays.values))
    with pytest.raises(DimensionMismatch):
        estimate_discounted(sc, strat, samples=2, seed=0, horizon=5)
    with pytest.raises(DimensionMismatch):
        run_policy(sc, strat, 5)


@pytest.mark.parametrize("name", ["tent", "parabola", "receiver", "cycle3", "kink3"])
def test_the_optimal_strategy_earns_its_grid_value(name):
    # played at the exact belief, the envelope split earns the solved value at the prior
    sc = bundled(name)
    res = solve(sc, "reveal")
    strat = Strategy(res.target)
    played, _ = exact_played_value(sc, strat)
    assert played >= interpolate(res.value, sc.prior) - 2.0 * sc.tol
    est = estimate_discounted(sc, strat, samples=2000, seed=1)
    # the estimate drops a tail of at most est.truncation; 1e-12 covers its rounding
    assert abs(est.mean - played) <= 4.0 * est.std_error + est.truncation + 1e-12


def made_strategy(sc, name):
    """null, full, or couple:0.9, the rate-0.9 optimal policy topped up to rate 0.9 by the coupling coin."""
    if name == "couple":
        target = solve(replace(sc, reveal_rate=0.9), "reveal").target
        return strategy_couple_down(target, sc.reveal_rate, 0.9, sc)
    return {"null": strategy_null, "full": strategy_full}[name](sc)


@pytest.mark.parametrize("strategy", ["null", "full", "couple"])
@pytest.mark.parametrize("name", ["tent", "parabola", "receiver", "cycle3", "kink3"])
def test_each_strategy_earns_its_exact_value(name, strategy):
    # measured with these samples and seed: every mean within 1.37 standard errors of its exact value
    sc = bundled(name)
    strat = made_strategy(sc, strategy)
    played, _ = exact_played_value(sc, strat)
    est = estimate_discounted(sc, strat, samples=4000, seed=1)
    assert abs(est.mean - played) <= 4.0 * est.std_error + est.truncation + 1e-12


@pytest.mark.parametrize("name", ["tent", "receiver", "cycle3", "kink3"])
def test_a_coupled_play_is_worth_its_target_played_at_the_higher_rate(name):
    # the coupling coin tops the reboots up to one stream at rate Y, which reboots to the same rows
    sc = bundled(name)
    strat = made_strategy(sc, "couple")
    coupled, coupled_rows = exact_played_value(sc, strat)
    at_y, at_y_rows = exact_played_value(replace(sc, reveal_rate=0.9), Strategy(strat.plays))
    assert coupled == pytest.approx(at_y, abs=1e-12)
    assert coupled_rows == pytest.approx(at_y_rows, abs=1e-12)
    # with aux_prob 1 every stage reboots, so no successor is read: the play at rate 1, bit for bit
    always, always_rows = exact_played_value(sc, Strategy(strat.plays, 1.0))
    at_one, at_one_rows = exact_played_value(replace(sc, reveal_rate=1.0), Strategy(strat.plays))
    assert always == at_one
    assert_bit_equal(always_rows, at_one_rows)


@pytest.mark.parametrize("name", ["tent", "kink3", "slow"])
def test_a_closed_graph_holds_every_node_a_play_reaches(name, monkeypatch):
    # the walk fills successors with the same _fill the exact walk runs, so a play on a walked table builds
    # nothing; filled lazily, the walked table holds just the nodes it reached
    sc = bundled(name)
    strats = (strategy_optimal(sc), strategy_renewal_optimal(sc))
    reached = [len(_Engine(sc, strat)._close(sim.EXACT_NODES)) for strat in strats]
    fill_lazily(monkeypatch)
    for strat, count in zip(strats, reached):
        engine = _Engine(sc, strat)
        assert len(engine._close(sim.EXACT_NODES)) == engine.size == count
        size, fills = engine.size, engine.fills
        draws = np.stack([replication_rng(3, i).random((200, 3)) for i in range(50)])
        for rate in (0.0, sc.reveal_rate):
            engine.play(rate, draws)
        assert (engine.size, engine.fills) == (size, fills)


def test_a_graph_that_does_not_close_within_the_cap_is_refused():
    # reveal nothing on the slow chain: the belief creeps toward the stationary law over some 30,000 nodes
    with pytest.raises(SizeOverflow, match="did not close within 2000 nodes"):
        exact_played_value(bundled("slow"), strategy_null(bundled("slow")))


# sigma_star's long-run value by the renewal-reward theorem (Ross 1996, section 3.6): each cycle starts at a
# transition row after a revelation, the revealed state follows the stationary law, and the cycle's
# geometric length is independent of the play, so the long-run average is pi . v(rows), with v the played
# value without revelations at discount 1 - x. Measured: within 4.0e-10 of asymptotic_value(x).
@pytest.mark.parametrize("x", [None, 0.1, 1e-4])
@pytest.mark.parametrize("name", ["tent", "parabola", "receiver", "cycle3", "periodic", "slow"])
def test_sigma_star_attains_the_asymptotic_value(name, x):
    sc = bundled(name) if x is None else bundled(name, x=x)
    rate = sc.reveal_rate
    _, rows = exact_played_value(replace(sc, discount=1.0 - rate, reveal_rate=0.0), strategy_renewal_optimal(sc))
    assert abs(sc.chain.pi @ rows - asymptotic_value(rate, sc)) <= 2.0 * sc.tol


@pytest.mark.parametrize("x", [None, 0.1, 1e-4])
def test_sigma_star_on_kink3_earns_at_least_the_asymptotic_value(x):
    # on a k = 3 triangulation the interpolated continuation is not concave, so the grid value falls short
    # of what its own policy plays there (ROADMAP item 3): played - asymptotic measured 8.4e-5 at the
    # bundled x = 0.5, 2.1e-4 at 0.1 and 3.5e-7 at 1e-4
    sc = bundled("kink3") if x is None else bundled("kink3", x=x)
    rate = sc.reveal_rate
    _, rows = exact_played_value(replace(sc, discount=1.0 - rate, reveal_rate=0.0), strategy_renewal_optimal(sc))
    assert sc.chain.pi @ rows >= asymptotic_value(rate, sc) - 2.0 * sc.tol


def generated(family, seed, resolution=None):
    """A benchmark scenario family's scenario for one seed, built by perfbench's generator (read only)."""
    spec = importlib.util.spec_from_file_location("scenario_gen", ROOT / "perfbench" / "scenario_gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PayoffDiscontinuityWarning)
        return cli.scenario_from_config(cli.effective_config(gen.scenario_doc(seed, family, resolution), {}))


NODE_CASES = [(name, None) for name in ("tent", "parabola", "receiver", "cycle3", "kink3", "periodic", "slow")] + [
    (family, seed) for family in ("tent", "receiver", "bump", "pl3", "smooth3") for seed in (1, 2, 3)]


@pytest.mark.parametrize("name,seed", NODE_CASES)
def test_policy_nodes_are_the_grid_images(name, seed):
    # every posterior is a grid point where the target touches its envelope, so every node is the prior, a
    # transition row or a row of grid.points @ M, for the optimal strategy, for couple:Y and for sigma_star;
    # the first fill builds all of them, and the walk fills nothing more
    sc = bundled(name) if seed is None else generated(name, seed)
    rate = min(1.0, sc.reveal_rate + 0.2)
    target_y = solve(replace(sc, reveal_rate=rate), "reveal").target
    for strat in (strategy_optimal(sc), strategy_couple_down(target_y, sc.reveal_rate, rate, sc)):
        est = estimate_discounted(sc, strat, samples=300, seed=1)
        assert est.nodes <= sc.grid.n + sc.chain.k + 1
        assert est.cache_clears == 0
        assert (est.nodes, est.fills) == (first_fill_nodes(sc, strat.plays), 1)
    strat = strategy_renewal_optimal(sc)
    est = estimate_renewal_average(sc, strat, 100, samples=300, seed=1)
    assert est.nodes <= sc.grid.n + sc.chain.k + 1
    assert est.cache_clears == 0
    assert (est.nodes, est.fills) == (first_fill_nodes(sc, strat.plays), 1)


@pytest.mark.parametrize("name", ["tent", "cycle3"])
def test_images_that_would_reach_the_table_cap_are_left_out(name, monkeypatch):
    # the first fill takes the images while the row nodes, the start node and one image per touching
    # point stay below the cap; at the cap it leaves them out and the walk fills the few nodes it
    # reaches, with no clear
    sc = bundled(name)
    strat = strategy_optimal(sc)
    run = lambda: estimate_discounted(sc, strat, samples=200, seed=3, horizon=40)
    want = run()
    assert (want.fills, want.cache_clears) == (1, 0)
    monkeypatch.setattr(_Engine, "_CACHE_CAP", sc.chain.k + 2 + touching_oracle(strat.plays).size)
    got = run()
    assert_bit_equal(got.values, want.values)
    assert (got.nodes, got.fills, got.cache_clears) == (want.nodes, 1, 0)
    monkeypatch.setattr(_Engine, "_CACHE_CAP", _Engine._CACHE_CAP - 1)
    got = run()
    assert_bit_equal(got.values, want.values)
    assert got.cache_clears == 0 and got.nodes < want.nodes
    # a cap that the row nodes and the start node reach clears the table before every step, and no more
    monkeypatch.setattr(_Engine, "_CACHE_CAP", sc.chain.k + 1)
    got = run()
    assert_bit_equal(got.values, want.values)
    assert got.cache_clears == got.steps == want.steps


# the exact values (at the prior, and at the two or three rows) of the optimal policy on generated scenarios
# whose every grid point, or nearly, touches the envelope, and the nodes a play reaches there: what a solve
# over the closure gives when every node is filled lazily, level by level, as the walk reaches it
LARGE_GRIDS = {
    ("tent", 2000): (0.6950530448095334, [0.6948186712955804, 0.6730218873415774], 19),
    ("smooth3", 80): (2.118834933264633, [2.1217256395504798, 2.119901557805725, 2.1228898588169725], 21),
}


@pytest.mark.parametrize("family,resolution", sorted(LARGE_GRIDS))
def test_the_exact_value_solves_over_the_nodes_a_play_reaches(family, resolution, monkeypatch):
    # the first fill holds thousands of images, but the dense system holds only the nodes a play reaches
    sc = generated(family, 1, resolution)
    strat = strategy_optimal(sc)
    value, rows, reached = LARGE_GRIDS[family, resolution]
    solve_linear, shapes = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda A, b: shapes.append(A.shape) or solve_linear(A, b))
    got, got_rows = exact_played_value(sc, strat)
    assert shapes[-1] == (reached, reached)  # the splits' facet solves come before it
    assert got == value and got_rows.tolist() == rows


@pytest.mark.parametrize("name", ["tent", "parabola", "receiver", "cycle3", "kink3", "periodic", "slow"])
def test_the_exact_walk_reaches_the_lazily_filled_closure(name, monkeypatch):
    # a lazily filled walk builds just the nodes it reaches, in the order it reaches them, so its solve is
    # the one over the closure filled level by level; the walk over the first fill reaches as many nodes
    # and gives the same bits
    sc = bundled(name)
    strats = [strategy_full(sc), strategy_optimal(sc), strategy_renewal_optimal(sc)]
    if sc.reveal_rate < 0.9:
        strats.append(made_strategy(sc, "couple"))
    want = [(exact_played_value(sc, strat), len(_Engine(sc, strat)._close(sim.EXACT_NODES))) for strat in strats]
    fill_lazily(monkeypatch)
    for strat, ((value, rows), reached) in zip(strats, want):
        engine = _Engine(sc, strat)
        assert len(engine._close(sim.EXACT_NODES)) == engine.size == reached
        got, got_rows = exact_played_value(sc, strat)
        assert got == value
        assert_bit_equal(got_rows, rows)


@pytest.mark.parametrize("name", ["tent", "receiver", "kink3", "cycle3"])
def test_a_prefilled_estimate_equals_a_lazily_filled_one(name, monkeypatch):
    # the first fill builds the images of the target's touching points, and no walk step then misses a
    # successor; with the touching set forced empty every node is filled lazily, as the walk first reaches
    # it, and no more of them than the first fill builds
    sc = bundled(name)
    rate = min(1.0, sc.reveal_rate + 0.2)
    target_y = solve(replace(sc, reveal_rate=rate), "reveal").target
    strats = (strategy_optimal(sc), strategy_renewal_optimal(sc),
              strategy_couple_down(target_y, sc.reveal_rate, rate, sc))
    runs = (lambda strat: estimate_discounted(sc, strat, samples=200, seed=3),
            lambda strat: estimate_renewal_average(sc, strat, 200, samples=200, seed=3),
            lambda strat: random_duration_value_mc(replace(sc, samples=200, seed=3), 0.3, strat))
    got = [run(strat) for strat in strats for run in runs]
    first = [first_fill_nodes(sc, strat.plays) for strat in strats for run in runs]
    fill_lazily(monkeypatch)
    for g, w, nodes in zip(got, [run(strat) for strat in strats for run in runs], first, strict=True):
        assert_bit_equal(g.values, w.values)
        assert_bit_equal(g.rep_ids, w.rep_ids)
        assert g.steps == w.steps
        assert (g.nodes, g.fills, g.cache_clears) == (nodes, 1, 0)
        assert w.nodes <= g.nodes


@pytest.mark.parametrize("rate", [0.0, 0.5, 1.0])
def test_a_policy_estimate_builds_its_nodes_in_one_fill(rate, strategies):
    # the first fill holds the row nodes, the start node and the images of tent's 201 grid points, all
    # touching, but for the two pure states', which are the row nodes; no walk step then misses a
    # successor. A kernel strategy is filled lazily
    sc, made = strategies["tent"]
    sc = replace(sc, reveal_rate=rate)
    for strategy in ("optimal", "renewal", "couple"):
        est = estimate_discounted(sc, made[strategy], samples=20, seed=1, horizon=50)
        assert (est.nodes, est.fills) == (sc.chain.k + 1 + sc.grid.n - 2, 1)
    if rate == 0.0:
        est = estimate_discounted(sc, made["null"], samples=20, seed=1, horizon=50)
        assert (est.nodes, est.fills) == RATE_0_NODES["tent", "null"]


@pytest.mark.parametrize("name", ["tent", "receiver", "kink3"])
def test_each_prefilled_successor_is_the_node_the_lazy_fill_builds(name):
    # the posterior of each slot is its atom's grid point, and the successor the first fill sets is the
    # node of the posterior's image as `_fill` computes it; only the slots whose atom does not touch the
    # envelope (the empty slots, atom -1, among them) are left unfilled
    sc = bundled(name)
    target = strategy_optimal(sc).plays
    engine = _Engine(sc, Strategy(target))
    assert engine.fills == 1 and np.array_equal(engine.touching, touching_oracle(target))
    atom, succ = engine.atom[: engine.size], engine.succ[: engine.size]
    assert np.array_equal(succ >= 0, np.isin(atom, touching_oracle(target)))
    node, sig = np.nonzero(succ >= 0)
    assert engine.post[node, sig].tobytes() == sc.grid.points[atom[node, sig]].tobytes()
    images = np.matmul(engine.post[node, sig, None, :], sc.chain.M)[:, 0]
    assert engine.belief[succ[node, sig]].tobytes() == images.tobytes()
    # a successor is the node the index holds for its belief
    assert [engine.index[b.tobytes()] for b in images] == succ[node, sig].tolist()
    null = _Engine(sc, strategy_null(sc))
    assert (null.atom < 0).all() and (null.succ < 0).all() and null.size == max(sc.chain.k, null.start + 1)


def rank_deficient(M):
    """A chain with equal rows, under a tent in the last coordinate, at lambda 0.9 and rate 0.5 from the uniform prior."""
    resolution = 200 if len(M) == 2 else 40
    q = make_grid(len(M), resolution).points[:, -1]
    doc = {"version": 1, "transition": M, "payoff": {"type": "table", "values": (1.0 - 2.0 * np.abs(q - 0.5)).tolist()},
           "lambda": 0.9, "x": 0.5, "grid_resolution": resolution}
    return cli.scenario_from_config(cli.effective_config(doc, {}))


# chains whose transition rows coincide, so the touching points' images coincide with each other; per chain the
# nodes, then (discounted values and steps, renewal values, rep ids and steps, exact value at the prior and at
# the rows) of 3 replications, as a table that built one node per touching point's image gave them
RANK_DEFICIENT = {
    "two equal rows, k = 2": ([[0.3, 0.7], [0.3, 0.7]], 6, (
        [0.6399999401236671] * 3, 13, [0.5550000000000003, 0.5850000000000003, 0.5700000000000003], [0, 1, 2], 7,
        0.6400000000000001, [0.6000000000000001, 0.6000000000000002])),
    "three equal rows": ([[0.2, 0.3, 0.5]] * 3, 15, (
        [0.9699999002061117, 0.9649999002061117, 0.9699999002061117], 13, [0.925, 0.975, 0.95], [0, 1, 2], 7,
        0.9666666666666665, [0.9999999999999997, 0.9999999999999999, 0.9999999999999999])),
    "two equal rows, k = 3": ([[0.2, 0.3, 0.5], [0.2, 0.3, 0.5], [0.5, 0.3, 0.2]], 111, (
        [0.7743569760086357, 0.7379378366094118, 0.7505552248923842], 13,
        [0.7150000000000001, 0.76375, 0.7187499999999999], [0, 1, 2], 7,
        0.7611548556430443, [0.7874015748031492, 0.7874015748031492, 0.7401574803149603])),
}


@pytest.mark.parametrize("case", sorted(RANK_DEFICIENT))
def test_images_that_coincide_are_one_node(case):
    # every distinct belief among the prior and the touching points' images is built once, and its values are
    # those of a table that built each image again
    M, nodes, want = RANK_DEFICIENT[case]
    sc = rank_deficient(M)
    strat, sigma = strategy_optimal(sc), strategy_renewal_optimal(sc)
    est = estimate_discounted(sc, strat, samples=3, seed=1)
    renewal = estimate_renewal_average(sc, sigma, 40, samples=3, seed=1)
    value, rows = exact_played_value(sc, strat)
    assert (est.values.tolist(), est.steps, renewal.values.tolist(), renewal.rep_ids.tolist(), renewal.steps,
            value, rows.tolist()) == want
    assert est.nodes == first_fill_nodes(sc, strat.plays) == nodes
    assert (renewal.nodes, renewal.fills) == (first_fill_nodes(sc, sigma.plays), 1)
    # one node per key, and every touching point's successor is the node of its image
    engine = _Engine(sc, strat)
    assert len(engine.index) == engine.size - (sc.chain.k - len({row.tobytes() for row in sc.chain.M}))
    node, sig = np.nonzero(engine.succ[: engine.size] >= 0)
    images = np.matmul(engine.post[node, sig, None, :], sc.chain.M)[:, 0]
    assert engine.belief[engine.succ[node, sig]].tobytes() == images.tobytes()


def test_equal_rows_keep_their_own_row_nodes():
    # row node st holds id st and state st's row, bit for bit, though two rows are equal; the key names the first
    M = [[0.2, 0.3, 0.5], [0.2, 0.3, 0.5], [0.5, 0.3, 0.2]]
    sc = rank_deficient(M)
    for strat in (strategy_null(sc), strategy_full(sc)):
        engine = _Engine(sc, strat)
        assert engine.belief[: sc.chain.k].tobytes() == sc.chain.M.tobytes()
        assert [engine.index[row.tobytes()] for row in sc.chain.M] == [0, 0, 2]
        assert engine.start == 3 and engine.heads == 4


@pytest.mark.parametrize("layout", ["C", "F", "strided rows", "strided columns"])
def test_a_batch_is_keyed_by_each_belief_s_bytes_in_any_layout(layout):
    # each key is the belief's tobytes(), whatever the memory layout of the batch it came in: the index holds
    # one key per node, and finds each belief it has built
    sc = bundled("cycle3")
    beliefs = np.random.default_rng(7).dirichlet(np.ones(3), 12)
    batch = {"C": beliefs, "F": np.asfortranarray(beliefs), "strided rows": np.repeat(beliefs, 2, axis=0)[::2],
             "strided columns": np.repeat(beliefs, 2, axis=1)[:, ::2]}[layout]
    engine = _Engine(sc, strategy_full(sc))
    ids = engine._intern(batch)
    assert ids.tolist() == list(range(engine.size - 12, engine.size))
    assert engine.belief[ids].tobytes() == beliefs.tobytes()
    assert sorted(engine.index) == sorted(belief.tobytes() for belief in engine.belief[: engine.size])
    assert [engine.index[belief.tobytes()] for belief in beliefs] == ids.tolist()
    assert engine._intern(beliefs[::-1]).tolist() == ids[::-1].tolist() and engine.fills == 2


def test_the_two_zeros_are_two_nodes():
    # a key is the belief's bits, as at every fill: -0.0 and +0.0 are two nodes, whether met in one batch or two
    sc = bundled("tent")
    engine = _Engine(sc, strategy_full(sc))
    pair = np.array([[0.0, 1.0], [-0.0, 1.0]])
    ids = engine._intern(pair)
    assert ids.tolist() == [engine.size - 2, engine.size - 1]
    assert engine._intern(pair[::-1]).tolist() == ids[::-1].tolist() and engine.fills == 2
    assert np.signbit(engine.belief[ids, 0]).tolist() == [False, True]


ESTIMATORS = {
    "discounted": lambda sc, strat, m, seed: estimate_discounted(sc, strat, samples=m, seed=seed, horizon=25),
    "renewal": lambda sc, strat, m, seed: estimate_renewal_average(sc, strat, 25, samples=m, seed=seed),
    "duration": lambda sc, strat, m, seed: random_duration_value_mc(replace(sc, samples=m, seed=seed), 0.4, strat),
}


@pytest.mark.parametrize("samples", [0, -3])
@pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
def test_estimators_reject_fewer_than_one_sample(estimator, samples, strategies):
    sc, made = strategies["tent"]
    with pytest.raises(ValueError, match="samples"):
        ESTIMATORS[estimator](sc, made["null"], samples, 0)


@pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 12), extra=st.integers(1, 12),
       lanes=st.sampled_from([None, 1, 2, 3, 5]))
def test_estimates_do_not_depend_on_chunking(estimator, seed, n, extra, lanes, strategies):
    # a prefix of the replications gives the same values whatever chunks they fall into
    run = ESTIMATORS[estimator]
    for name in ("tent", "cycle3"):
        sc, made = strategies[name]
        strat = made["couple"]
        with pytest.MonkeyPatch.context() as mp:
            if lanes is not None:
                mp.setattr(sim, "_PLAY_STAGES", lanes * 25)
            small, large = run(sc, strat, n, seed), run(sc, strat, n + extra, seed)
        prefix = large.rep_ids < n
        assert_bit_equal(large.rep_ids[prefix], small.rep_ids)
        assert_bit_equal(large.values[prefix], small.values)


@pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
def test_an_estimate_seeds_its_lanes_once_in_order_in_blocks_of_the_lane_stage_budget(estimator, strategies,
                                                                                       monkeypatch):
    # the seeds are derived _PLAY_STAGES replications at a time, each block in one call when the
    # chunks reach it: 20 samples seed all 20 lanes at once, in one chunk or in chunks of 8 lanes, and
    # a budget of 8 lane-stages seeds 8, 8 and 4 lanes; the values stay the same
    sc, made = strategies["cycle3"]
    run, strat = ESTIMATORS[estimator], made["couple"]
    events = []
    seed_states, play = sim._seed_states, _Engine.play

    def recording(seed, reps):
        events.append(("seed", list(reps)))
        return seed_states(seed, reps)

    monkeypatch.setattr(sim, "_seed_states", recording)
    monkeypatch.setattr(_Engine, "play", lambda self, rate, draws, **kw: events.append(("play", draws.shape[0]))
                        or play(self, rate, draws, **kw))
    want = run(sc, strat, 20, 9)
    assert events == [("seed", list(range(20))), ("play", 20)]
    # with 8 lane-stages and a horizon above 8, each chunk holds one lane, and each block is seeded
    # just before the chunk that takes its first generator
    one_lane = [event for block in (range(0, 8), range(8, 16), range(16, 20))
                for event in [("seed", list(block))] + [("play", 1)] * len(block)]
    for budget, order in [(8 * want.horizon, [("seed", list(range(20))), ("play", 8), ("play", 8), ("play", 4)]),
                          (8, one_lane)]:
        events.clear()
        monkeypatch.setattr(sim, "_PLAY_STAGES", budget)
        got = run(sc, strat, 20, 9)
        assert events == order
        assert_bit_equal(got.rep_ids, want.rep_ids)
        assert_bit_equal(got.values, want.values)


def test_a_default_renewal_estimate_seeds_its_streams_in_one_call(strategies, monkeypatch):
    # 10,000 samples of sigma* at 2,000 stages play in 834 chunks of at most 12 lanes, and all their
    # seeds come from one call
    sc, made = strategies["tent"]
    seeded, chunks, seed_states, play = [], [], sim._seed_states, _Engine.play
    monkeypatch.setattr(sim, "_seed_states", lambda seed, reps: seeded.append(len(reps)) or seed_states(seed, reps))
    monkeypatch.setattr(_Engine, "play", lambda self, rate, draws, **kw: chunks.append(draws.shape[0])
                        or play(self, rate, draws, **kw))
    estimate_renewal_average(sc, made["renewal"], 2000, samples=10_000, seed=1)
    assert seeded == [10_000]
    assert len(chunks) == 834 and sum(chunks) == 10_000


def test_default_chunks_hold_the_lanes_of_one_lane_stage_budget(strategies, monkeypatch):
    # 24,966 lane-stages a chunk: that many lanes of one stage, and 12 lanes of 2,000 stages
    sc, made = strategies["tent"]
    chunks, play = [], _Engine.play
    monkeypatch.setattr(_Engine, "play", lambda self, rate, draws, **kw: chunks.append(draws.shape[:2])
                        or play(self, rate, draws, **kw))
    estimate_discounted(sc, made["null"], samples=24_967, seed=1, horizon=1)
    assert chunks == [(24_966, 1), (1, 1)]
    chunks.clear()
    estimate_renewal_average(sc, made["renewal"], 2000, samples=13, seed=1)
    assert chunks == [(12, 2000), (1, 2000)]


class CountingRng:
    """A generator that counts its `random` calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def random(self, *args, **kw):
        self.calls += 1
        return self.rng.random(*args, **kw)


def test_each_lane_draws_its_uniforms_in_one_call(strategies, monkeypatch):
    # 300 lanes of tent's default 153-stage horizon play in two chunks, and each lane's generator
    # is asked for all its uniforms at once
    sc, made = strategies["tent"]
    strat = made["optimal"]
    want = estimate_discounted(sc, strat, samples=300, seed=1)
    counted, plays, replication_rngs, play = [], [], sim.replication_rngs, _Engine.play

    def counting(seed, reps):
        return (counted.append(CountingRng(rng)) or counted[-1] for rng in replication_rngs(seed, reps))

    monkeypatch.setattr(sim, "replication_rngs", counting)
    monkeypatch.setattr(_Engine, "play", lambda self, rate, draws, **kw: plays.append(draws.shape)
                        or play(self, rate, draws, **kw))
    got = estimate_discounted(sc, strat, samples=300, seed=1)
    assert got.horizon == discount_horizon(sc) == 153
    assert plays == [(163, 153, 3), (137, 153, 3)]  # 24,966 lane-stages // 153 = 163 lanes a chunk
    assert [rng.calls for rng in counted] == [1] * 300
    assert_bit_equal(got.values, want.values)


class WeakGenerator(np.random.Generator):
    """A generator that takes weak references (numpy's own does not)."""


@pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
def test_no_generator_is_alive_during_a_play(estimator, strategies, monkeypatch):
    # each lane's generator fills its row of uniforms and is dropped before the play, so across
    # several chunks of a few lanes no replication generator outlives the build of its chunk
    sc, made = strategies["cycle3"]
    run, strat = ESTIMATORS[estimator], made["couple"]
    want = run(sc, strat, 20, 4)
    made_rngs, alive, generator, play = [], [], sim._generator, _Engine.play

    def tracked(state):
        rng = WeakGenerator(generator(state).bit_generator)
        made_rngs.append(weakref.ref(rng))
        return rng

    def playing(self, *args, **kw):
        alive.append(sum(ref() is not None for ref in made_rngs))
        return play(self, *args, **kw)

    monkeypatch.setattr(sim, "_PLAY_STAGES", 6 * want.horizon)
    monkeypatch.setattr(sim, "_generator", tracked)
    monkeypatch.setattr(_Engine, "play", playing)
    got = run(sc, strat, 20, 4)
    assert len(made_rngs) == 20 and len(alive) == 4
    assert alive == [0, 0, 0, 0]
    assert_bit_equal(got.values, want.values)


@pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
def test_a_play_holds_only_the_lanes_that_fit_its_bytes(estimator, strategies, monkeypatch):
    # with _PLAY_STAGES cut to 238 (20,000 bytes at 84 a lane-stage), no play holds more lanes than
    # fit it over the play's horizon, and the values equal those of the default chunks
    sc, made = strategies["cycle3"]
    run, strat = ESTIMATORS[estimator], made["couple"]
    want = run(sc, strat, 40, 3)
    plays, play = [], _Engine.play
    monkeypatch.setattr(sim, "_PLAY_STAGES", 238)
    monkeypatch.setattr(_Engine, "play", lambda self, rate, draws, **kw: plays.append(draws.shape[:2])
                        or play(self, rate, draws, **kw))
    got = run(sc, strat, 40, 3)
    assert len(plays) > 1 and sum(lanes for lanes, _ in plays) == 40
    assert all(lanes <= max(1, 238 // horizon) for lanes, horizon in plays)
    assert_bit_equal(got.rep_ids, want.rep_ids)
    assert_bit_equal(got.values, want.values)
