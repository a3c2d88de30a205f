"""Monte Carlo engine, sender strategies, and renewal-structure utilities.

Reproducibility contract: replication i of a run with master seed s draws
from numpy's default generator seeded with SeedSequence(s, spawn_key=(i,)).
Within a stage the stream is consumed in a fixed order: state transition,
then any strategy-internal draw, then the signal, then the revelation coin.
The revelation coin is consumed even when the rate is zero so that traces
with different rates stay aligned.

Estimators step a chunk of replications ("lanes") in lock-step with numpy
over a table of belief nodes, each lane reading its own stream; run_policy
is the one-lane case of the same loop. A replication's value depends only
on its own stream, never on the chunk it falls in, so run_policy(rep=i)
replays it bit for bit. Aggregation uses numpy's pairwise summation over
the replication axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .belief import BeliefGrid, bayes_update, interpolate, kernels_from_splits, validate_belief
from .chain import cum_rows, scan_states
from .errors import AllRejected, BadRates, DegenerateTail, RateBoundary
from .solver import Policy, Scenario, solve

# ---------------------------------------------------------------------------
# randomness plumbing


def replication_rng(seed: int, rep: int) -> np.random.Generator:
    """Independent stream for one replication, derived from the master seed."""
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(int(rep),)))


# ---------------------------------------------------------------------------
# traces and renewal bookkeeping


@dataclass(frozen=True)
class SimTrace:
    """One simulated play.

    posteriors[n] is the receiver belief when acting at stage n, after the
    stage signal and before any revelation. stage_payoffs[n] is the payoff
    table interpolated there. signals[n] encodes an extended alphabet as
    aux_code * width + s when a strategy prepends a disclosure component
    (aux_code = 1 + disclosed state, 0 otherwise). The engine returns the
    same fields with one row per lane.
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
    keep only the accepted ones). nodes is the engine's final node-table
    size and cache_clears the number of times the table hit its cap.
    """

    mean: float
    std_error: float
    samples: int
    rejected: int = 0
    horizon: int = 0
    truncation: float = 0.0
    values: np.ndarray | None = None
    rep_ids: np.ndarray | None = None
    nodes: int = 0
    cache_clears: int = 0


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

# Uniforms one chunk of lanes holds at once (8 MiB); longer plays draw stage blocks in turn.
_CHUNK_DRAWS = 1 << 20


class _Engine:
    """Steps replications ("lanes") in lock-step over a table of belief nodes.

    A node is a reachable (silent, belief) pair with its Bayes work done:
    the cumulative kernel row of each state (padded with +inf to the signal
    count) and, per signal, the stage payoff, the posterior and the next
    stage's belief. Nodes are appended when first reached. A non-revealing
    stage follows the successor of (node, signal), filled once; a revelation
    moves to the row node of the revealed state. Past the cap the table is
    cleared between stages and the lanes' current nodes are built again,
    which yields the same values.
    """

    _CACHE_CAP = 200_000

    def __init__(self, sc: Scenario, strat: Strategy) -> None:
        self.sc = sc
        self.strat = strat
        self.width = strat.kernels.shape[2]
        self.draws_per_stage = 4 if strat.aux_prob > 0.0 else 3
        self.M_cum = cum_rows(sc.chain.M)
        self.silent_kernel = np.ones((sc.chain.k, 1))
        self.clears = 0
        self._reset()

    def _reset(self) -> None:
        self.index: dict[tuple, int] = {}
        self.size = 0
        self.rows = np.full(self.sc.chain.k, -1, dtype=np.int64)
        self._allocate(64)

    def _allocate(self, capacity: int) -> None:
        """Node arrays for `capacity` nodes, keeping the first `size` rows."""
        k, w, size = self.sc.chain.k, self.width, self.size
        for name, shape, fill, dtype in (("cum", (k, w), np.inf, float), ("pay", (w,), 0.0, float),
                                         ("post", (w, k), 0.0, float), ("next_belief", (w, k), 0.0, float),
                                         ("succ", (w,), -1, np.int64), ("silent", (), False, bool),
                                         ("belief", (k,), 0.0, float)):
            table = np.full((capacity, *shape), fill, dtype=dtype)
            if size:
                table[:size] = getattr(self, name)[:size]
            setattr(self, name, table)

    def _intern(self, silent: np.ndarray, beliefs: np.ndarray) -> np.ndarray:
        """Node ids of (silent, belief) pairs, building the nodes not yet in the table."""
        ids = np.empty(len(beliefs), dtype=np.int64)
        fresh = []
        for j, flag in enumerate(silent.tolist()):
            key = (flag, beliefs[j].tobytes())
            i = self.index.get(key)
            if i is None:
                i = self.index[key] = self.size + len(fresh)
                fresh.append(j)
            ids[j] = i
        if fresh:
            self._build(silent[fresh], beliefs[fresh])
        return ids

    def _build(self, silent: np.ndarray, beliefs: np.ndarray) -> None:
        start, stop = self.size, self.size + len(beliefs)
        if stop > len(self.silent):
            self._allocate(max(stop, 2 * len(self.silent)))
        posts = []
        for i, (flag, belief) in enumerate(zip(silent.tolist(), beliefs), start):
            kernel = self.silent_kernel if flag else self.strat.kernel_at(belief)
            _, posteriors = bayes_update(belief, kernel)  # a zero-probability signal is never sampled
            self.cum[i, :, : kernel.shape[1]] = cum_rows(kernel)
            posts.append(posteriors)
        # every signal of every new node in one call; rows sum as they do one node at a time
        widths = [len(p) for p in posts]
        slot = (np.repeat(np.arange(start, stop), widths), np.concatenate([np.arange(w) for w in widths]))
        posteriors = np.concatenate(posts)
        self.post[slot] = posteriors
        self.pay[slot] = interpolate(self.sc.u, posteriors)
        # one stacked (1, k) @ (k, k) product per signal rounds like posteriors[s] @ M
        self.next_belief[slot] = np.matmul(posteriors[:, None, :], self.sc.chain.M)[:, 0, :]
        self.silent[start:stop] = silent
        self.belief[start:stop] = beliefs
        self.size = stop

    def _rows(self, states: np.ndarray) -> np.ndarray:
        """Row nodes of revealed states, building the missing ones."""
        missing = np.unique(states[self.rows[states] < 0])
        if missing.size:
            self.rows[missing] = self._intern(np.zeros(missing.size, dtype=bool), self.sc.chain.M[missing])
        return self.rows[states]

    def _next(self, nodes: np.ndarray, signals: np.ndarray, states: np.ndarray,
              revealed: np.ndarray) -> np.ndarray:
        """Fill the missing next nodes: row nodes where revealed, else successors, each pair once."""
        ids = np.empty(nodes.size, dtype=np.int64)
        ids[revealed] = self._rows(states[revealed])
        stay = ~revealed
        pairs, inverse = np.unique(nodes[stay] * self.width + signals[stay], return_inverse=True)
        nodes, signals = np.divmod(pairs, self.width)
        fresh = self._intern(self.silent[nodes], self.next_belief[nodes, signals])
        self.succ[nodes, signals] = fresh
        ids[stay] = fresh[inverse]
        return ids

    def play(self, prior: np.ndarray, rate: float, rngs: list, horizons: list,
             trace: bool = False) -> SimTrace:
        """Play lane j for horizons[j] stages on generator rngs[j].

        Returns one row per lane, padded to the longest horizon: stage
        payoffs and revelation coins, plus states, signals and posteriors
        when trace is set (None otherwise).
        """
        belief = np.ascontiguousarray(validate_belief(prior, self.sc.chain.k))
        prior_cum = cum_rows(belief)
        aux_prob, width, per_stage = self.strat.aux_prob, self.width, self.draws_per_stage
        # lanes in order of decreasing horizon, so the lanes still playing are a prefix
        order = np.argsort(-np.asarray(horizons), kind="stable")
        hs = np.asarray(horizons, dtype=np.int64)[order]
        lanes, last = len(hs), int(hs[0])
        rngs = [rngs[j] for j in order]
        active = np.searchsorted(-hs, -np.arange(last), side="left").tolist()

        payoffs = np.empty((lanes, last))
        reveals = np.zeros((lanes, last), dtype=bool)
        states_out = signals_out = post_out = None
        if trace:
            states_out = np.empty((lanes, last), dtype=np.int64)
            signals_out = np.empty((lanes, last), dtype=np.int64)
            post_out = np.empty((lanes, last, self.sc.chain.k))

        node = np.full(lanes, self._intern(np.array([self.strat.silent]), belief[None])[0])
        state = np.zeros(lanes, dtype=np.int64)
        u = np.empty(0)
        pos = np.zeros(lanes, dtype=np.int64)  # next unread uniform of each lane in u
        end = np.zeros(lanes, dtype=np.int64)
        block = max(1, _CHUNK_DRAWS // (per_stage * lanes))
        for n0 in range(0, last, block):
            n1 = min(n0 + block, last)
            u, pos, end = _refill(u, pos, end, rngs, per_stage * (np.minimum(hs, n1) - n0).clip(0))
            for n in range(n0, n1):
                a = active[n]
                if self.size >= self._CACHE_CAP:
                    live = node[:a]
                    silent, beliefs = self.silent[live], self.belief[live]
                    self._reset()
                    self.clears += 1
                    node[:a] = self._intern(silent, beliefs)
                p, nd, prev = pos[:a], node[:a], state[:a]
                # first cumulative weight above the uniform; every row ends in +inf
                st = (u[p][:, None] < (prior_cum if n == 0 else self.M_cum[prev])).argmax(axis=1)
                p += 1
                code = 0
                if aux_prob > 0.0 and n > 0:
                    coin = ~reveals[:a, n - 1]
                    hit = coin & (u[p] < aux_prob)
                    p += coin
                    if hit.any():
                        nd[hit] = self._rows(prev[hit])
                        code = np.where(hit, prev + 1, 0)
                state[:a] = st
                s = (u[p][:, None] < self.cum[nd, st]).argmax(axis=1)
                rev = u[p + 1] < rate
                p += 2
                payoffs[:a, n] = self.pay[nd, s]
                reveals[:a, n] = rev
                if trace:
                    states_out[:a, n] = st
                    signals_out[:a, n] = code * width + s
                    post_out[:a, n] = self.post[nd, s]
                if n + 1 < last:
                    nxt = np.where(rev, self.rows[st], self.succ[nd, s])
                    missing = nxt < 0
                    if missing.any():
                        nxt[missing] = self._next(nd[missing], s[missing], st[missing], rev[missing])
                    node[:a] = nxt

        back = np.argsort(order)
        return SimTrace(*(None if arr is None else arr[back]
                          for arr in (states_out, signals_out, reveals, post_out, payoffs)))


def _refill(u: np.ndarray, pos: np.ndarray, end: np.ndarray, rngs: list, need: np.ndarray):
    """Next block of uniforms: each lane keeps its unread ones and draws need[j] more.

    Lane j's uniforms sit contiguously in the returned array from pos[j] to
    end[j]; a later draw continues the lane's stream where the last one ended.
    """
    kept = end - pos
    sizes = kept + need
    end_new = np.cumsum(sizes)
    pos_new = end_new - sizes
    fresh = np.empty(int(end_new[-1]))
    for j, rng in enumerate(rngs):
        lo = pos_new[j] + kept[j]
        fresh[pos_new[j] : lo] = u[pos[j] : end[j]]
        if need[j]:
            rng.random(out=fresh[lo : end_new[j]])
    return fresh, pos_new, end_new


def _chunks(engine: _Engine, prior, rate: float, seed: int, samples: int, horizon: int | None = None,
            duration_rate: float | None = None):
    """Play replications 0 .. samples-1 in chunks of lanes; yields (reps, horizons, plays).

    Replication i plays `horizon` stages or, with duration_rate, a geometric
    number drawn first from its own stream. A chunk grows while its lanes
    times its longest horizon times the draws per stage stays within
    _CHUNK_DRAWS, and always holds at least one lane.
    """
    rngs, hs, longest = [], [], 0
    for i in range(samples):
        rng = replication_rng(seed, i)
        h = horizon if duration_rate is None else int(rng.geometric(duration_rate))
        if rngs and (len(rngs) + 1) * max(longest, h) * engine.draws_per_stage > _CHUNK_DRAWS:
            yield range(i - len(rngs), i), hs, engine.play(prior, rate, rngs, hs)
            rngs, hs, longest = [], [], 0
        rngs.append(rng)
        hs.append(h)
        longest = max(longest, h)
    if rngs:
        yield range(samples - len(rngs), samples), hs, engine.play(prior, rate, rngs, hs)


def run_policy(sc: Scenario, strat: Strategy, horizon: int, seed: int | None = None,
               rep: int = 0) -> SimTrace:
    """Simulate one play of the scenario under a strategy.

    Consumes the stream of replication ``rep`` (default 0) of the given
    master seed (default: the scenario seed). This is the one-lane case of
    the engine the estimators run.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    rng = replication_rng(sc.seed if seed is None else seed, rep)
    play = _Engine(sc, strat).play(sc.initial_prior(), sc.reveal_rate, [rng], [horizon], trace=True)
    return SimTrace(states=play.states[0], signals=play.signals[0], reveals=play.reveals[0],
                    posteriors=play.posteriors[0], stage_payoffs=play.stage_payoffs[0])


def state_reveal_path(sc: Scenario, horizon: int, seed: int | None = None,
                      rep: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """States and revelation coins of one play, by a prefix scan instead of the stage loop.

    Reads replication ``rep``'s stream in the stage layout of a strategy
    without an auxiliary coin: stage n's state from u[3n] and its revelation
    from u[3n + 2] < rate. Equals run_policy's states and reveals under such
    a strategy, bit for bit.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    u = replication_rng(sc.seed if seed is None else seed, rep).random(3 * horizon)
    first = int((u[0] >= cum_rows(validate_belief(sc.initial_prior(), sc.chain.k))).sum())
    return scan_states(cum_rows(sc.chain.M), first, u[3::3]), u[2::3] < sc.reveal_rate


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
    totals = np.empty(samples)
    for reps, _, plays in _chunks(engine, sc.initial_prior(), sc.reveal_rate, seed, samples, horizon):
        for i, payoffs in zip(reps, plays.stage_payoffs):
            totals[i] = weights @ payoffs
    return _summary(totals, np.arange(samples), horizon=horizon,
                    truncation=float(lam ** horizon * np.abs(sc.u.values).max()),
                    nodes=engine.size, cache_clears=engine.clears)


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
    for reps, durations, plays in _chunks(engine, prior, 0.0, seed, samples, duration_rate=rate):
        for i, w, payoffs in zip(reps, durations, plays.stage_payoffs):
            totals[i] = payoffs[:w].sum()
    return _summary(totals, np.arange(samples), nodes=engine.size, cache_clears=engine.clears)


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
    kept = []
    kept_reps = []
    rejected = 0
    for reps, _, plays in _chunks(engine, sc.initial_prior(), sc.reveal_rate, seed, samples, horizon):
        for i, payoffs, reveals in zip(reps, plays.stage_payoffs, plays.reveals):
            stats = renewal_stats(reveals)
            if stats.revelations < 2:
                rejected += 1
                continue
            first = int(stats.kappas[0])
            kept.append(float(payoffs[first : stats.last_stage].sum()) / horizon)
            kept_reps.append(i)
    if not kept:
        raise AllRejected(f"all {samples} replications had fewer than two revelations")
    return _summary(np.asarray(kept), np.asarray(kept_reps, dtype=np.int64), rejected=rejected,
                    horizon=horizon, nodes=engine.size, cache_clears=engine.clears)


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
