"""Monte Carlo engine, sender strategies, and renewal-structure utilities.

Reproducibility contract: replication i of a run with master seed s draws
from numpy's default generator seeded with SeedSequence(s, spawn_key=(i,)).
Within a stage the stream is consumed in a fixed order: state transition,
then any strategy-internal draw, then the signal, then the revelation coin.
The revelation coin is consumed even when the rate is zero so that traces
with different rates stay aligned. Aggregation uses numpy's pairwise
summation over the replication axis, so results are bit-stable and do not
depend on how work would be scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .belief import BeliefGrid, bayes_update, interpolate, kernels_from_splits, validate_belief
from .errors import AllRejected, BadRates, DegenerateTail, RateBoundary
from .solver import Policy, Scenario, solve

# ---------------------------------------------------------------------------
# randomness plumbing


def replication_rng(seed: int, rep: int) -> np.random.Generator:
    """Independent stream for one replication, derived from the master seed."""
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(int(rep),)))


def _draw(cum, r: float) -> int:
    """Index of the first cumulative weight above r (linear scan, tiny alphabets)."""
    for j, c in enumerate(cum):
        if r < c:
            return j
    return len(cum) - 1


# ---------------------------------------------------------------------------
# traces and renewal bookkeeping


@dataclass(frozen=True)
class SimTrace:
    """One simulated play.

    posteriors[n] is the receiver belief when acting at stage n, after the
    stage signal and before any revelation. stage_payoffs[n] is the payoff
    table interpolated there. signals[n] encodes an extended alphabet as
    aux_code * width + s when a strategy prepends a disclosure component
    (aux_code = 1 + disclosed state, 0 otherwise).
    """

    states: np.ndarray
    signals: np.ndarray
    reveals: np.ndarray
    posteriors: np.ndarray
    stage_payoffs: np.ndarray


@dataclass(frozen=True)
class RenewalStats:
    """Gaps between revelations on one path.

    kappas are the stage counts between consecutive revelations (first gap
    counted from stage 1), revelations is their number by the horizon, and
    last_stage is the stage of the last revelation (0 when none occurred).
    """

    kappas: np.ndarray
    revelations: int
    last_stage: int


def renewal_stats(reveals) -> RenewalStats:
    """Gap statistics of a 0/1 revelation path."""
    z = np.asarray(reveals).astype(bool)
    stages = np.nonzero(z)[0] + 1  # stages are 1-based
    if stages.size == 0:
        return RenewalStats(kappas=np.empty(0, dtype=np.int64), revelations=0, last_stage=0)
    kappas = np.diff(stages, prepend=0).astype(np.int64)
    return RenewalStats(kappas=kappas, revelations=int(stages.size), last_stage=int(stages[-1]))


@dataclass(frozen=True)
class EstimateResult:
    """Sample mean with its standard error and run accounting.

    values holds the per-replication draws behind the mean and rep_ids the
    replication index each came from (estimators that reject replications
    keep only the accepted ones).
    """

    mean: float
    std_error: float
    samples: int
    rejected: int = 0
    horizon: int = 0
    truncation: float = 0.0
    values: np.ndarray | None = None
    rep_ids: np.ndarray | None = None


def _summary(values: np.ndarray, rep_ids: np.ndarray, **accounting) -> EstimateResult:
    """Sample mean and standard error of per-replication values (inf below two values)."""
    n = values.size
    return EstimateResult(
        mean=float(values.mean()),
        std_error=float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf"),
        samples=n,
        values=values,
        rep_ids=rep_ids,
        **accounting,
    )


# ---------------------------------------------------------------------------
# strategies


@dataclass(frozen=True, eq=False)
class Strategy:
    """Stationary signal kernels, with the two renewal-phase variations.

    kernels[i] is the kernel (state x signal) played at grid point i of
    grid, realized at the exact belief so the posterior process stays a
    martingale; without a grid kernels[0] is played everywhere. A silent
    strategy sends one uninformative signal until the first revelation.
    With aux_prob > 0, on stages where the game did not just reveal, an
    auxiliary coin discloses the previous state with that chance and the
    kernel is played at its transition row.
    """

    kernels: np.ndarray
    grid: BeliefGrid | None = None
    silent: bool = False
    aux_prob: float = 0.0

    def kernel_at(self, belief: np.ndarray) -> np.ndarray:
        return self.kernels[0 if self.grid is None else self.grid.nearest_index(belief)]


def strategy_null(sc: Scenario) -> Strategy:
    """Reveals nothing: a single uninformative signal each stage."""
    return Strategy(np.ones((1, sc.chain.k, 1)))


def strategy_full(sc: Scenario) -> Strategy:
    """Discloses the current state each stage."""
    return Strategy(np.eye(sc.chain.k)[None])


def strategy_policy(policy: Policy, sc: Scenario) -> Strategy:
    """Plays a grid policy: the split at the grid point nearest to the belief.

    Each split is realized as the kernel `kernel_from_split` builds at its
    grid point, with zero columns up to the scenario's signal count.
    """
    points, atoms = policy.grid.points, policy.atoms
    n, k = atoms.shape
    kernels = np.zeros((n, k, sc.signal_count))
    kernels[:, :, :k] = kernels_from_splits(points, points[atoms], policy.weights)
    return Strategy(kernels, grid=policy.grid)


def strategy_optimal(sc: Scenario) -> Strategy:
    """Optimal stationary strategy of the revelation game at the scenario's rate."""
    mode = "reveal" if sc.reveal_rate > 0.0 else "no_reveal"
    return strategy_policy(solve(sc, mode).policy, sc)


def strategy_renewal_optimal(sc: Scenario) -> Strategy:
    """Wait for the first revelation, then play optimally between revelations.

    After each revelation the belief reboots to a transition row and the
    policy optimal for the no-revelation game at discount 1 - reveal_rate
    is followed until the next revelation.
    """
    if not 0.0 < sc.reveal_rate <= 1.0:
        raise RateBoundary(f"renewal strategy needs a rate in (0, 1], got {sc.reveal_rate}")
    inner_sc = replace(sc, discount=1.0 - sc.reveal_rate)
    return replace(strategy_policy(solve(inner_sc, "no_reveal").policy, sc), silent=True)


def strategy_couple_down(policy_y: Policy, base_rate: float, target_rate: float, sc: Scenario) -> Strategy:
    """Emulate the revelation game at target_rate while running at base_rate.

    The auxiliary coin discloses with chance (target - base)/(1 - base), so
    the belief the policy sees follows the law of the higher-rate game.
    Requires 0 < base_rate <= target_rate <= 1; equality makes the coupling
    a plain playback of the policy.
    """
    if not 0.0 < base_rate <= 1.0 or not 0.0 < target_rate <= 1.0:
        raise BadRates(f"rates must lie in (0, 1], got base {base_rate}, target {target_rate}")
    if target_rate < base_rate:
        raise BadRates(f"target rate {target_rate} below base rate {base_rate}")
    aux_prob = 0.0 if target_rate == base_rate else (target_rate - base_rate) / (1.0 - base_rate)
    return replace(strategy_policy(policy_y, sc), aux_prob=aux_prob)


# ---------------------------------------------------------------------------
# stage engine


class _Node:
    """Bayes work at one reachable belief, with its successors filled on first use."""

    __slots__ = ("silent", "row_cums", "posteriors", "payoffs", "next_beliefs", "width", "succ")

    def __init__(self, sc: Scenario, belief: np.ndarray, kernel: np.ndarray, silent: bool) -> None:
        k, width = kernel.shape
        _, posteriors = bayes_update(belief, kernel)  # a zero-probability signal is never sampled
        self.silent = silent
        self.row_cums = tuple(tuple(np.cumsum(kernel[ell])) for ell in range(k))
        self.posteriors = posteriors
        self.payoffs = interpolate(sc.u, posteriors)
        # one stacked (1, k) @ (k, k) product per signal rounds like posteriors[s] @ M
        self.next_beliefs = np.matmul(posteriors[:, None, :], sc.chain.M)[:, 0, :]
        self.width = width
        self.succ: list = [None] * width


class _Engine:
    """Runs stage loops for one scenario and strategy over a table of belief nodes.

    Nodes are keyed by (silent, belief bytes). A non-revealing stage follows
    the node's successor for the drawn signal; a revelation moves to the
    row node of the revealed state.
    """

    _CACHE_CAP = 200_000

    def __init__(self, sc: Scenario, strat: Strategy) -> None:
        self.sc = sc
        self.strat = strat
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
            kernel = self.silent_kernel if silent else self.strat.kernel_at(belief)
            node = self.nodes[key] = _Node(self.sc, belief, kernel, silent)
        return node

    def row(self, state: int) -> _Node:
        node = self.rows[state]
        if node is None:
            node = self.rows[state] = self.node(False, self.M[state].copy())
        return node

    def run(self, prior: np.ndarray, horizon: int, rate: float, rng, trace_arrays=None) -> np.ndarray:
        """One play; returns the stage payoffs, optionally filling trace arrays."""
        belief = np.ascontiguousarray(validate_belief(prior, self.sc.chain.k))
        node = self.node(self.strat.silent, belief)
        prior_cum = tuple(np.cumsum(belief))
        aux_prob = self.strat.aux_prob
        payoffs = np.empty(horizon)
        rand = rng.random
        state = -1
        revealed = False
        for n in range(horizon):
            prev = state
            state = _draw(prior_cum if n == 0 else self.M_cums[state], rand())
            aux_code = 0
            if aux_prob > 0.0 and n > 0 and not revealed and rand() < aux_prob:
                node = self.row(prev)
                aux_code = 1 + prev
            s = _draw(node.row_cums[state], rand())
            payoffs[n] = node.payoffs[s]
            revealed = rand() < rate
            if trace_arrays is not None:
                trace_arrays[0][n] = state
                trace_arrays[1][n] = aux_code * node.width + s
                trace_arrays[2][n] = revealed
                trace_arrays[3][n] = node.posteriors[s]
            if revealed:
                node = self.row(state)
            else:
                nxt = node.succ[s]
                if nxt is None:
                    nxt = node.succ[s] = self.node(node.silent, node.next_beliefs[s])
                node = nxt
        return payoffs


def run_policy(sc: Scenario, strat: Strategy, horizon: int, seed: int | None = None,
               rep: int = 0) -> SimTrace:
    """Simulate one play of the scenario under a strategy.

    Consumes the stream of replication ``rep`` (default 0) of the given
    master seed (default: the scenario seed).
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    rng = replication_rng(sc.seed if seed is None else seed, rep)
    states = np.empty(horizon, dtype=np.int64)
    signals = np.empty(horizon, dtype=np.int64)
    reveals = np.zeros(horizon, dtype=bool)
    posteriors = np.empty((horizon, sc.chain.k))
    engine = _Engine(sc, strat)
    payoffs = engine.run(sc.initial_prior(), horizon, sc.reveal_rate, rng,
                         trace_arrays=(states, signals, reveals, posteriors))
    return SimTrace(states=states, signals=signals, reveals=reveals,
                    posteriors=posteriors, stage_payoffs=payoffs)


def discount_horizon(sc: Scenario, tail: float = 1e-6) -> int:
    """Stages needed before the discounted tail drops below tail * (payoff scale)."""
    lam = sc.discount
    umax = float(np.abs(sc.u.values).max())
    if lam <= 0.0 or umax == 0.0:
        return 1
    return max(1, math.ceil(math.log(tail * (1.0 - lam) / umax) / math.log(lam)))


def estimate_discounted(sc: Scenario, strat: Strategy, samples: int | None = None,
                        seed: int | None = None, horizon: int | None = None) -> EstimateResult:
    """Monte Carlo estimate of the normalized discounted payoff under a strategy.

    Plays are truncated at the horizon where the discarded tail is below
    1e-6, unless an explicit horizon is given; the truncation bound is
    reported on the result.
    """
    samples = sc.samples if samples is None else samples
    seed = sc.seed if seed is None else seed
    if horizon is None:
        horizon = discount_horizon(sc)
    elif horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    lam = sc.discount
    weights = (1.0 - lam) * lam ** np.arange(horizon)
    engine = _Engine(sc, strat)
    prior = sc.initial_prior()
    totals = np.empty(samples)
    for i in range(samples):
        rng = replication_rng(seed, i)
        totals[i] = weights @ engine.run(prior, horizon, sc.reveal_rate, rng)
    return _summary(totals, np.arange(samples), horizon=horizon,
                    truncation=float(lam ** horizon * np.abs(sc.u.values).max()))


def random_duration_value_mc(sc: Scenario, p, rate: float, strat: Strategy,
                             samples: int | None = None, seed: int | None = None) -> EstimateResult:
    """Expected undiscounted payoff of a geometric-duration no-revelation game.

    Each replication first draws the duration W (geometric with mean
    1/rate, support starting at 1) and then plays W stages without
    revelations, summing the raw stage payoffs.
    """
    if not 0.0 < rate <= 1.0:
        raise RateBoundary(f"rate must lie in (0, 1], got {rate}")
    samples = sc.samples if samples is None else samples
    seed = sc.seed if seed is None else seed
    prior = validate_belief(p, sc.chain.k)
    engine = _Engine(sc, strat)
    totals = np.empty(samples)
    for i in range(samples):
        rng = replication_rng(seed, i)
        w = int(rng.geometric(rate))
        totals[i] = engine.run(prior, w, 0.0, rng).sum()
    return _summary(totals, np.arange(samples))


def estimate_renewal_average(sc: Scenario, strat: Strategy, horizon: int,
                             samples: int | None = None, seed: int | None = None) -> EstimateResult:
    """Time-average payoff accumulated between the first and last revelation.

    Per replication: run to the horizon, locate the revelations, and sum the
    stage payoffs on stages first_revelation+1 .. last_revelation, divided
    by the horizon. Replications with fewer than two revelations by the
    horizon are rejected; their count is reported. Raises AllRejected when
    nothing survives, and ValueError for a horizon below 2.
    """
    if horizon < 2:
        raise ValueError(f"horizon must be at least 2 to see two revelations, got {horizon}")
    samples = sc.samples if samples is None else samples
    seed = sc.seed if seed is None else seed
    engine = _Engine(sc, strat)
    prior = sc.initial_prior()
    reveals = np.zeros(horizon, dtype=bool)
    sink = (np.empty(horizon, dtype=np.int64), np.empty(horizon, dtype=np.int64),
            reveals, np.empty((horizon, sc.chain.k)))
    kept = []
    kept_reps = []
    rejected = 0
    for i in range(samples):
        rng = replication_rng(seed, i)
        payoffs = engine.run(prior, horizon, sc.reveal_rate, rng, trace_arrays=sink)
        stats = renewal_stats(reveals)
        if stats.revelations < 2:
            rejected += 1
            continue
        first = int(stats.kappas[0])
        kept.append(float(payoffs[first : stats.last_stage].sum()) / horizon)
        kept_reps.append(i)
    if not kept:
        raise AllRejected(f"all {samples} replications had fewer than two revelations")
    return _summary(np.asarray(kept), np.asarray(kept_reps, dtype=np.int64),
                    rejected=rejected, horizon=horizon)


# ---------------------------------------------------------------------------
# renewal-structure facts


def nb_truncated_mean(r: int, rate: float, n: int) -> float:
    """Mean of a negative binomial beyond a truncation point.

    Y counts failures before the r-th success at success chance rate;
    returns E(Y | Y > n) as mean(Y) + (n+1) / (rate * (1 + beta)) where
    beta = P(Y > n+1) / P(Y = n+1). Tail masses are summed exactly from the
    probability recurrence. Raises DegenerateTail when P(Y > n) underflows.
    """
    if r < 1 or n < 0:
        raise ValueError(f"need r >= 1 and n >= 0, got r={r}, n={n}")
    if not 0.0 < rate < 1.0:
        if rate == 1.0:
            raise DegenerateTail("rate 1 puts all mass at zero failures")
        raise RateBoundary(f"rate must lie in (0, 1), got {rate}")

    q = 1.0 - rate
    # pmf(y+1) = pmf(y) * (y + r) / (y + 1) * q, starting from pmf(0) = rate^r
    pmf = rate**r
    for y in range(n + 1):
        pmf = pmf * (y + r) / (y + 1) * q
    pmf_n1 = pmf  # P(Y = n+1)

    tail_n1 = 0.0  # P(Y > n+1)
    term = pmf_n1
    y = n + 1
    while True:
        term = term * (y + r) / (y + 1) * q
        y += 1
        tail_n1 += term
        if term <= tail_n1 * 1e-18 or term < 1e-320:
            break
    tail_n = pmf_n1 + tail_n1
    if tail_n < 1e-300:
        raise DegenerateTail(f"P(Y > {n}) = {tail_n:.3e} is numerically degenerate")
    beta = tail_n1 / pmf_n1
    return r * q / rate + (n + 1) / (rate * (1.0 + beta))


def clt_quantile_bound(eps: float, rate: float) -> tuple[float, bool]:
    """Central-limit quantile scaled by the revelation variance, and its bound.

    Returns (z, holds) where z = sqrt(rate * (1 - rate)) * Phi^{-1}(1 - eps/2)
    and holds checks z * eps <= sqrt(2 / (rate * (1 - rate))) * sqrt(eps).
    At rate 1 the variance vanishes and the bound holds trivially.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if not 0.0 < rate <= 1.0:
        raise RateBoundary(f"rate must lie in (0, 1], got {rate}")
    if rate == 1.0:
        return 0.0, True
    from scipy.stats import norm  # imported here: scipy.stats dominates the package import

    var = rate * (1.0 - rate)
    z = math.sqrt(var) * float(norm.ppf(1.0 - eps / 2.0))
    return z, z * eps <= math.sqrt(2.0 / var) * math.sqrt(eps)
