"""Monte Carlo engine, the exact value of a played strategy, sender strategies, and renewal-structure utilities.

Reproducibility contract: replication i of a run with master seed s draws
from numpy's default generator seeded with SeedSequence(s, spawn_key=(i,)).
Stage n reads uniforms 3n, 3n + 1, 3n + 2 of that stream for every strategy:
state transition, signal, revelation coin (read even at rate zero). At rate
x stage n >= 1 reboots where stage n - 1's revelation uniform u lies below
x + aux_prob * (1 - x); below x that stage revealed. Given no revelation u
is uniform on [x, 1), so the coupling coin hits with chance aux_prob,
independent of states and signals: the law of a coin of its own.

Estimators play a chunk of replications ("lanes") together over a table of
belief nodes, each lane on its own row of uniforms; run_policy is the one-lane
case of the same engine, and state_reveal_path reads that play's states and
coins off its uniforms alone. Every lane of a play runs the same horizon,
and every estimate reads its streams in the stage layout alone: the
random-duration game ends at the replication's own first revelation. A
policy strategy splits at the exact belief onto the grid points where its
target touches its envelope, so an engine builds the prior, the transition
rows and those points' images under M before its first play, and any other
node when a walk first reaches it. Every fill keys beliefs by their bytes:
one equal to a node already keyed is that node, but for the k rows. A chunk,
an estimate's only batch, holds as many lanes as fit _PLAY_STAGES
lane-stages over its whole horizon. The
streams are seeded _PLAY_STAGES replications at a time, each block in one
call when the chunks reach it (replication_rngs), bit for bit the
SeedSequence definition above; each lane's generator fills its row in one
call and is dropped before the play.
States and coins depend only on the uniforms, so a play gets them first:
states by `scan_states` (in closed form for two states), then revelations
and reboots. Each reboot sets the belief to a transition row and so starts
a segment; the segments of a play are walked in lock-step, one position per
numpy step. A replication's value depends only on its own stream, never on
the chunk it falls in, so run_policy(rep=i) replays it bit for bit.
Aggregation uses numpy's pairwise summation over the replication axis.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .belief import GridFn, bayes_update, interpolate, kernels_from_splits, validate_kernel
from .chain import cum_rows, scan_states
from .envelope import _touching, cav_splits
from .errors import AllRejected, BadRates, DegenerateTail, RateBoundary, SizeOverflow
from .solver import Scenario, _between_revelations, _check_grid, solve, solve_between_revelations

# ---------------------------------------------------------------------------
# randomness plumbing


# O'Neill's seed_seq hash as numpy's SeedSequence runs it on a four-word pool; numpy's
# stream-compatibility policy (NEP 19) freezes it and PCG64's seeding.
_MASK = 0xFFFF_FFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _powers(const: int, mult: int, n: int) -> list[int]:
    """const, const * mult, ..., const * mult**n, modulo 2**32."""
    out = [const]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK)
    return out


def _hash(value, pre, post):
    """hashmix with the hash constant before (pre) and after (post) it advances; ints or uint32 arrays."""
    value = (value ^ pre) * post & _MASK
    return value ^ value >> 16


def _mix(x, y):
    """Mixes a hashed word y into pool word x; ints or uint32 arrays."""
    value = (_MIX_L * x - _MIX_R * y) & _MASK
    return value ^ value >> 16


# generate_state's constants for the 8 uint32 words behind PCG64's 4 uint64 seed words
_OUT = np.array(_powers(_INIT_B, _MULT_B, 8), dtype=np.uint32)


def _seed_states(seed: int, reps: list[int]) -> np.ndarray:
    """SeedSequence(seed, spawn_key=(r,)).generate_state(4, np.uint64) for each r of reps, one row each."""
    # with a spawn key numpy pads a short seed with zero words, without one it hashes zeros in their
    # place, so SeedSequence(seed).pool (which raises ValueError for a negative seed) is the pool
    # before the key is mixed in; each of the seed's max(4, words) words took 4 steps of the constant
    pool = np.random.SeedSequence(seed).pool
    const = _powers(_INIT_A, _MULT_A, 4 * max(4, -(-seed.bit_length() // 32)))[-1]
    if min(reps, default=0) < 0:
        raise ValueError(f"expected non-negative integer, got rep {min(reps)}")
    n = max(1, -(-max(reps, default=0).bit_length() // 32))
    key = np.array([[r >> s & _MASK for r in reps] for s in range(0, 32 * n, 32)], dtype=np.uint32)
    c = np.array(_powers(const, _MULT_A, 4 * n), dtype=np.uint32)
    for j in range(n):
        mixed = _mix(pool, _hash(key[j, :, None], c[4 * j : 4 * j + 4], c[4 * j + 1 : 4 * j + 5]))
        # a rep's key ends at its highest nonzero word (rep 0 keeps one word), so lanes are
        # grouped by key length: word j > 0 is mixed in only where it or a later word is nonzero
        pool = mixed if j == 0 else np.where(key[j:].any(axis=0)[:, None], mixed, pool)
    words = _hash(pool[:, [0, 1, 2, 3, 0, 1, 2, 3]], _OUT[:-1], _OUT[1:])
    # pairs of words read as little-endian uint64, as generate_state reads them on any platform
    return np.ascontiguousarray(words, dtype="<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seed_state_type() -> type:
    """The seed sequence class below, built on first use: it subclasses numpy.random's, which only a seeded stream loads."""

    class _SeedState(np.random.bit_generator.ISeedSequence):
        """A seed sequence that hands PCG64 the four uint64 words computed for it."""

        def __init__(self, state: np.ndarray) -> None:
            self.state = state

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("holds only the 4 uint64 words that seed PCG64")
            return self.state

    return _SeedState


def _generator(seed_state: np.random.bit_generator.ISeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed_state))


def replication_rngs(seed: int, reps) -> Iterator[np.random.Generator]:
    """replication_rng(seed, r) for each r of reps, bit for bit.

    The seeds of all reps are derived in one batch when called; each
    generator is built when the iterator reaches it. Raises ValueError for a
    negative seed or rep, as SeedSequence does.
    """
    states, seed_state = _seed_states(int(seed), [int(r) for r in reps]), _seed_state_type()
    return (_generator(seed_state(state)) for state in states)


def replication_rng(seed: int, rep: int) -> np.random.Generator:
    """Independent stream for one replication, derived from the master seed: the contract's definition."""
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(int(rep),)))


# ---------------------------------------------------------------------------
# traces and renewal bookkeeping


@dataclass(frozen=True)
class SimTrace:
    """One simulated play.

    posteriors[n] is the receiver belief when acting at stage n, after the
    stage signal and before any revelation. stage_payoffs[n] is the payoff
    table interpolated there, and signals[n] the index of the signal drawn.
    reboots[n] is set where stage n's belief is the transition row of
    states[n - 1], disclosed by stage n - 1's revelation or by the coupling
    coin. The engine returns the same fields with one row per lane.
    """

    states: np.ndarray
    signals: np.ndarray
    reveals: np.ndarray
    reboots: np.ndarray
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
    size, cache_clears the number of walk steps at which the table hit its
    cap, steps the lock-step walk iterations over all chunks, and fills the
    batches of nodes built: the first holds the k row nodes, the start node
    at the scenario's prior and, for a policy, the images of the target's
    touching points, one node per distinct belief but for the rows, and each
    clear builds them again in one. A policy's later fill only follows an
    atom that rounding put off those points.
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
    steps: int = 0
    fills: int = 0


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
    """What a sender plays at every belief, with an optional coupling coin.

    plays is a GridFn target (a solve's `SolverResult.target`), which makes
    the strategy a policy, or else a state x signal kernel. A policy plays,
    at each belief it reaches, the optimal split of the target's envelope at
    that exact belief (`cav_splits`), realized by the kernel
    `kernels_from_splits` builds over k signals, one per atom (a split has at
    most k). Its posteriors are the atoms, grid points of the target's grid,
    which must be the scenario's lattice (else the engine raises
    DimensionMismatch), so their payoffs are read off the payoff's table. A
    kernel, which the engine checks with `validate_kernel`, is played at
    every belief over its columns. With aux_prob > 0, on stages
    where the game did not just reveal, an auxiliary coin discloses the
    previous state with that chance and the strategy is played at its
    transition row. Raises BadRates for an aux_prob outside [0, 1].
    """

    plays: GridFn | np.ndarray
    aux_prob: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.aux_prob <= 1.0:  # written so that a NaN fails
            raise BadRates(f"aux_prob must lie in [0, 1], got {self.aux_prob}")


def strategy_null(sc: Scenario) -> Strategy:
    """Reveals nothing: a single uninformative signal each stage."""
    return Strategy(np.ones((sc.chain.k, 1)))


def strategy_full(sc: Scenario) -> Strategy:
    """Discloses the current state each stage."""
    return Strategy(np.eye(sc.chain.k))


def strategy_optimal(sc: Scenario) -> Strategy:
    """Optimal stationary strategy of the revelation game at the scenario's rate."""
    mode = "reveal" if sc.reveal_rate > 0.0 else "no_reveal"
    return Strategy(solve(sc, mode).target)


def strategy_renewal_optimal(sc: Scenario) -> Strategy:
    """sigma*: the optimal policy of the game between revelations, the no-revelation game at discount 1 - rate.

    It is played from the scenario's prior like any policy; after each
    revelation the belief reboots to a transition row and the policy is
    followed until the next. The renewal average scores only the stages
    after the first revelation, so the play before it never enters that
    score. Raises RateBoundary for a rate outside (0, 1] or one whose
    1 - rate rounds to 1.
    """
    return Strategy(solve_between_revelations(sc.reveal_rate, sc).target)


def strategy_couple_down(target_y: GridFn, base_rate: float, target_rate: float, sc: Scenario) -> Strategy:
    """Emulate the revelation game at target_rate while running at base_rate.

    target_y is the `SolverResult.target` of the game at target_rate. The
    auxiliary coin discloses with chance (target - base)/(1 - base), so the
    belief the policy sees follows the law of the higher-rate game. Requires
    0 < base_rate <= target_rate <= 1; equality makes the coupling a plain
    playback of the policy. sc is not read; it stays because the benchmark
    (perfbench/run.py) passes it by position.
    """
    return Strategy(target_y, coupling_aux_prob(base_rate, target_rate))


def coupling_aux_prob(base_rate: float, target_rate: float) -> float:
    """The coupling coin's chance (target - base)/(1 - base); BadRates unless 0 < base <= target <= 1."""
    if not 0.0 < base_rate <= 1.0 or not 0.0 < target_rate <= 1.0:
        raise BadRates(f"rates must lie in (0, 1], got base {base_rate}, target {target_rate}")
    if target_rate < base_rate:
        raise BadRates(f"target rate {target_rate} below base rate {base_rate}")
    return 0.0 if target_rate == base_rate else (target_rate - base_rate) / (1.0 - base_rate)


# ---------------------------------------------------------------------------
# stage engine


def _reboot_rate(rate: float, aux_prob: float) -> float:
    """The chance that a stage n >= 1 reboots: that stage n - 1 revealed, or else that its coupling coin hit."""
    return rate + aux_prob * (1.0 - rate)


def _states_and_coins(M_cum, draws, prior_cum, rate, aux_prob):
    """States, revelation coins and reboots, (lanes, stages) each, of a play's uniforms draws.

    Stage n >= 1 reboots where stage n - 1's revelation uniform lies below
    `_reboot_rate`, which is rate itself when aux_prob is 0; stage 0 never does.
    """
    first = (draws[:, 0, :1] < prior_cum).argmax(axis=1)
    states = scan_states(M_cum, first, draws[:, 1:, 0])
    reboots = np.zeros(draws.shape[:2], dtype=bool)
    reboots[:, 1:] = draws[:, :-1, 2] < _reboot_rate(rate, aux_prob)
    return states, draws[:, :, 2] < rate, reboots


# Lane-stages one play holds: 2 MiB of per-stage work at about 84 bytes a lane-stage (three uniforms, the
# signal uniform and the state path, 8 each; coins and cuts; and about 40 of segment arrays and step
# temporaries at rate 0.5). A chunk holds as many lanes of its whole horizon as fit, and at least one.
_PLAY_STAGES = (2 << 20) // 84


class _Engine:
    """Steps replications ("lanes") over a table of belief nodes, one revelation segment at a time.

    A node is a reachable belief with its Bayes work done: the cumulative
    kernel row of each state (ending in +inf) and, per signal, the stage
    payoff and the posterior. `_intern` alone turns beliefs into nodes and
    keys them, by their bytes, so every fill decides node identity alike.
    The first fill (`_reset`) holds the row nodes of the k transition rows,
    ids 0..k-1 even where two rows are equal, so a revealed state's id is
    its node; the start node at the scenario's prior `sc.prior`, where a
    play starts; and a policy's images under M of the points where its
    target touches its envelope, the atoms its splits draw, with the
    successors set from the atoms (an image equal to a row, the prior or an
    earlier image is that node). A stage whose next stage does not reboot
    follows the successor of (node, signal); `_fill` builds a missing one
    once, appending the nodes first reached: a kernel's, and a policy's
    where rounding put an atom off the touching points. `_close` walks the
    nodes a play reaches.
    A strategy whose `plays` is a GridFn is a policy; anything else is a
    kernel, played as `validate_kernel` returns it (`kernel`). A policy's
    posteriors are grid points, whose indices each node keeps per slot in
    `atom` (-1 for an empty slot and for every slot of a kernel), so its
    payoffs come from `atom_pay`, the payoff's own table: a policy target
    lies on the scenario's lattice, or the engine raises DimensionMismatch.

    Every lane of a play runs the same number of stages. States and coins
    depend only on the uniforms, so a play gets them first, for every lane
    and stage at once: states by one prefix scan, then the revelations and
    reboots. A reboot sets the belief to the previous state's row node,
    which cuts the lanes' stages into segments; within a segment only the
    signals and the nodes remain. All walked segments of a play go in
    lock-step, one position at a time, so a play costs about as many steps
    as its longest such segment has stages. Past the cap the table is
    cleared between steps and the nodes still in use are built again, which
    yields the same values.
    """

    _CACHE_CAP = 200_000

    def __init__(self, sc: Scenario, strat: Strategy) -> None:
        self.sc = sc
        self.strat = strat
        policy = isinstance(strat.plays, GridFn)
        self.kernel = None if policy else validate_kernel(strat.plays, sc.chain.k)
        self.width = sc.chain.k if policy else self.kernel.shape[1]
        self.M_cum = cum_rows(sc.chain.M)
        # a policy's posteriors are points of the scenario's lattice, so their payoffs are read off the
        # payoff's table, which interpolate reads back exactly but for the sign of zero (its sum onto
        # zero turns -0.0 into +0.0, and so does + 0.0)
        self.atom_pay, self.touching, points = None, np.empty(0, dtype=np.int64), np.empty((0, sc.chain.k))
        if policy:
            _check_grid(strat.plays, sc, "policy target")
            self.atom_pay = sc.u.values + 0.0
            touching = _touching(strat.plays)
            # images that would fill the table to its cap are left out, or each clear would rebuild a full table
            if sc.chain.k + 1 + touching.size < self._CACHE_CAP:
                self.touching, points = touching, sc.grid.points[touching]
        # the touching points' images, as the stacked (1, k) @ (k, k) products `_fill` takes
        self.images = np.matmul(points[:, None, :], sc.chain.M)[:, 0]
        self.clears = self.steps = self.fills = 0
        self._reset()

    def counters(self) -> dict:
        """Run accounting for EstimateResult."""
        return dict(nodes=self.size, cache_clears=self.clears, steps=self.steps, fills=self.fills)

    def _reset(self) -> None:
        """Empties the table, then builds the k row nodes (ids 0..k-1), the start node and the images in one fill."""
        k, self.index, self.size = self.sc.chain.k, {}, 0
        self._allocate(64)
        ids = self._intern(np.vstack([self.sc.chain.M, self.sc.prior, self.images]), rows=k)
        self.start = int(ids[k])
        self.heads = max(k, self.start + 1)  # the row nodes, and the start node unless it is a row node
        if len(self.images):  # every successor whose atom touches is that atom's image
            image = np.full(self.strat.plays.grid.n, -1)
            image[self.touching] = ids[k + 1 :]
            atom = self.atom[: self.size]
            self.succ[: self.size] = np.where(atom < 0, -1, image[atom])

    def _allocate(self, capacity: int) -> None:
        """Node arrays for `capacity` nodes, keeping the first `size` rows."""
        k, w, size = self.sc.chain.k, self.width, self.size
        for name, shape, fill, dtype in (("cum", (k, w), np.inf, float), ("pay", (w,), 0.0, float),
                                         ("post", (w, k), 0.0, float), ("succ", (w,), -1, np.int64),
                                         ("atom", (w,), -1, np.int64), ("belief", (k,), 0.0, float)):
            table = np.full((capacity, *shape), fill, dtype=dtype)
            if size:
                table[:size] = getattr(self, name)[:size]
            setattr(self, name, table)

    def _intern(self, beliefs: np.ndarray, rows: int = 0) -> np.ndarray:
        """Node ids of beliefs, building in one fill the first `rows` and each whose key names no node yet.

        A key is a belief's bytes, its `tobytes()`, and names the first node built for it.
        """
        beliefs = np.ascontiguousarray(beliefs)
        # one void item per row, whose tolist() is the row's tobytes()
        keys = beliefs.view(np.dtype((np.void, beliefs.itemsize * beliefs.shape[1])))[:, 0].tolist()
        ids, fresh = [], []
        for j, key in enumerate(keys):
            i = self.index.get(key) if j >= rows else None
            if i is None:
                i = self.size + len(fresh)
                self.index.setdefault(key, i)
                fresh.append(j)
            ids.append(i)
        if fresh:
            self._build(beliefs[fresh])
        return np.array(ids, dtype=np.int64)

    def _build(self, beliefs: np.ndarray) -> None:
        """Appends the nodes of beliefs, all in one fill.

        A kernel strategy's nodes take their posteriors from `bayes_update`
        and their payoffs from `interpolate`. A policy's node splits at its
        belief (`cav_splits`); the atoms are its posteriors, grid points
        whose payoffs are read off `atom_pay`, and only an empty slot (atom
        -1, never drawn) keeps the belief itself and interpolates the payoff
        there.
        """
        start, stop = self.size, self.size + len(beliefs)
        if stop > len(self.belief):
            self._allocate(max(stop, 2 * len(self.belief)))
        k, width = self.sc.chain.k, self.width
        post, pay = self.post[start:stop], self.pay[start:stop]  # views of the new nodes' rows
        if self.kernel is not None:
            kernels = np.repeat(self.kernel[None], len(beliefs), axis=0)
            _, post[:] = bayes_update(beliefs, kernels)  # a zero-probability signal is never sampled
            pay[:] = interpolate(self.sc.u, post.reshape(-1, k)).reshape(-1, width)
        else:
            _, atoms, weights = cav_splits(self.strat.plays, beliefs)
            points, empty = self.strat.plays.grid.points[atoms], atoms < 0
            kernels = kernels_from_splits(beliefs, points, weights)
            # the atoms are the posteriors, bit for bit, so every successor is a row of grid.points @ M
            post[:] = np.where(empty[..., None], beliefs[:, None], points)
            pay[:] = self.atom_pay[atoms]
            self.atom[start:stop] = atoms
            gap = empty.any(axis=1)
            if gap.any():
                pay[gap] = np.where(empty[gap], interpolate(self.sc.u, beliefs[gap])[:, None], pay[gap])
        self.cum[start:stop] = cum_rows(kernels)
        self.belief[start:stop] = beliefs
        self.size = stop
        self.fills += 1

    def _fill(self, ix: np.ndarray) -> np.ndarray:
        """Successor node ids of the flat (node, signal) indices ix, filling each distinct missing pair once."""
        nxt = self.succ.reshape(-1)[ix]
        missing = nxt < 0
        if missing.any():
            pairs, inverse = np.unique(ix[missing], return_inverse=True)
            src, sig = np.divmod(pairs, self.width)
            # one stacked (1, k) @ (k, k) product per pair rounds like posterior @ M
            beliefs = np.matmul(self.post[src, sig, None, :], self.sc.chain.M)[:, 0]
            fresh = self.succ[src, sig] = self._intern(beliefs)
            nxt[missing] = fresh[inverse]
        return nxt

    def _signal_probs(self, ids: np.ndarray) -> np.ndarray:
        """P(signal | node) for each node of ids: its belief times its kernel, read off the cumulative rows."""
        cum = self.cum[ids]
        cum[..., -1] = 1.0  # the +inf that ends each row
        return np.matmul(self.belief[ids, None, :], np.diff(cum, axis=-1, prepend=0.0))[:, 0]

    def _close(self, cap: int) -> np.ndarray:
        """Ids of the nodes a play reaches from the row nodes and the start node, in the order first reached.

        Each next level is the successors (filled where missing) of the last one's pairs of positive
        probability that no level reached. Raises SizeOverflow once more than cap nodes are reached.
        """
        reached = level = np.arange(self.heads)
        while level.size:
            node, sig = np.nonzero(self._signal_probs(level) > 0.0)
            nxt = self._fill(level[node] * self.width + sig)
            nxt = nxt[np.sort(np.unique(nxt, return_index=True)[1])]
            level = nxt[~np.isin(nxt, reached, kind="table")]  # by a table of ids: sorting them loads numpy.ma
            reached = np.concatenate([reached, level])
            if reached.size > cap:
                raise SizeOverflow(f"the played node graph did not close within {cap} nodes")
        return reached

    def play(self, rate: float, draws: np.ndarray, trace: bool = False) -> SimTrace:
        """Play lane j on the uniforms draws[j], a (lanes, horizon, 3) array, for horizon stages.

        Every lane starts at the start node, the scenario's prior. Returns
        (lanes, horizon) arrays, one row per lane: stage payoffs and
        revelation coins, plus states, signals, reboots and posteriors when
        trace is set (None otherwise).
        """
        k = self.sc.chain.k
        lanes, horizon, _ = draws.shape
        states, reveals, reboots = _states_and_coins(self.M_cum, draws, cum_rows(self.sc.prior), rate,
                                                     self.strat.aux_prob)
        out = SimTrace(states=states if trace else None,
                       signals=np.empty((lanes, horizon), dtype=np.int64) if trace else None,
                       reveals=reveals,
                       reboots=reboots if trace else None,
                       posteriors=np.empty((lanes, horizon, k)) if trace else None,
                       stage_payoffs=np.empty((lanes, horizon)))
        self._walk(self._segments(reboots, states), states, draws[:, :, 1], out)
        return out

    def _segments(self, reboots, states):
        """Segments of a play, longest first: (starts, nodes, live).

        starts are flat (lane, stage) indices and nodes the nodes the
        segments start at: the previous state's row node after a reboot, else
        the start node. live[j] counts the segments longer than j, up to
        live[-1] = 0.
        """
        a, b = reboots.shape
        cut = reboots.copy()
        cut[:, 0] = True  # each lane's first stage starts a segment
        starts = np.flatnonzero(cut)
        length = np.diff(starts, append=a * b)
        # a lane's first stage never reboots, so the state read before it is never used
        nodes = np.where(reboots.reshape(-1)[starts], states.reshape(-1)[starts - 1], self.start)
        # a stable sort on the narrowest key is a radix sort
        by = np.argsort((b - length).astype(np.min_scalar_type(b)), kind="stable")
        length = length[by]
        live = np.searchsorted(-length, -np.arange(length[0] + 1), side="left")
        return starts[by], nodes[by], live

    def _walk(self, segments, states, sig_u, out: SimTrace) -> None:
        """Play every segment in lock-step, one segment position per step, filling out's rows.

        states and sig_u (signal uniforms) are the play's (lanes, stages) arrays.
        """
        starts, nodes, live = segments
        k, width = self.sc.chain.k, self.width
        states, sig_u = states.reshape(-1), sig_u.reshape(-1)
        # step j plays position j of the first `alive` segments, of which the first `going_on` go on to j + 1
        for j, (alive, going_on) in enumerate(itertools.pairwise(live.tolist())):
            if self.size >= self._CACHE_CAP:
                beliefs = self.belief[nodes[:alive]]
                self._reset()
                self.clears += 1
                nodes[:alive] = self._intern(beliefs)
            self.steps += 1
            f, nd = starts[:alive] + j, nodes[:alive]
            # the signal counts the kernel row's thresholds at or below its uniform: rows never
            # decrease, so that is the first index whose cumulative weight exceeds the uniform
            row = nd * (k * width) + states[f] * width
            draw, cum = sig_u[f], self.cum.reshape(-1)
            s = (draw >= cum[row]).astype(np.int64)
            for t in range(1, width - 1):
                s += draw >= cum[row + t]
            ix = nd * width + s
            out.stage_payoffs.reshape(-1)[f] = self.pay.reshape(-1)[ix]
            if out.signals is not None:
                out.signals.reshape(-1)[f] = s
                out.posteriors.reshape(-1, k)[f] = self.post.reshape(-1, k)[ix]
            # a segment's last position, before a reboot or the play's end, needs no successor
            nodes[:going_on] = self._fill(ix[:going_on])


def _lanes(engine: _Engine, rate: float, seed: int, reps: int, horizon: int) -> Iterator[tuple[np.ndarray, ...]]:
    """(stage payoffs, revelation coins) of each chunk of replications 0 .. reps-1: (chunk lanes, horizon) each.

    A chunk holds max(1, _PLAY_STAGES // horizon) lanes, each on its own replication's stream, and is one
    `_Engine.play` from the scenario's prior. The chunks take their generators in turn from one iterator,
    which seeds up to _PLAY_STAGES replications (at least one chunk's) in one `replication_rngs` call when
    it reaches them; each generator fills its lane's row of uniforms and is dropped before the play.
    """
    size = max(1, _PLAY_STAGES // horizon)
    rngs = itertools.chain.from_iterable(replication_rngs(seed, range(first, min(first + _PLAY_STAGES, reps)))
                                         for first in range(0, reps, _PLAY_STAGES))
    for first in range(0, reps, size):
        draws = np.empty((min(size, reps - first), horizon, 3))
        for row, rng in zip(draws, rngs):  # draws first, so that zip takes no generator past the chunk
            rng.random(out=row)
        del rng  # the play holds no generator
        play = engine.play(rate, draws)
        yield play.stage_payoffs, play.reveals


def _estimate(sc: Scenario, strat: Strategy, rate: float, horizon: int, samples: int | None, seed: int | None,
              score, **accounting) -> EstimateResult:
    """The summary of what score(payoffs, reveals) keeps of each chunk: (kept lanes, their values).

    Replications 0 .. samples-1 play at rate; samples (at least 1, else ValueError) and seed default to
    the scenario's. The lanes score leaves out count as rejected, and AllRejected is raised if it keeps none.
    """
    samples = sc.samples if samples is None else samples
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    engine = _Engine(sc, strat)
    values, rep_ids, first = [], [], 0
    for payoffs, reveals in _lanes(engine, rate, sc.seed if seed is None else seed, samples, horizon):
        kept, kept_values = score(payoffs, reveals)
        values.append(kept_values)
        rep_ids.append(first + kept)
        first += len(payoffs)
    values = np.concatenate(values)
    if not values.size:
        raise AllRejected(f"all {samples} replications had fewer than two revelations")
    return _summary(values, np.concatenate(rep_ids), rejected=samples - values.size, horizon=horizon,
                    **accounting, **engine.counters())


# The most stages one play may run: one lane of this many stages peaks at 1 to 1.6 GiB (95 to 165 bytes
# a stage), so a longer horizon, such as a discount near 1 derives, is refused before any array is made.
MAX_HORIZON = 10**7


def _check_horizon(horizon: int, minimum: int = 1, source: str = "the given horizon") -> int:
    """horizon, once it lies in [minimum, MAX_HORIZON]; source names where it came from. Raises ValueError."""
    if horizon < minimum:
        raise ValueError(f"{source} must be at least {minimum}, got {horizon}")
    if horizon > MAX_HORIZON:
        raise ValueError(f"{source} is {horizon} stages, above the {MAX_HORIZON} stages one play may allocate")
    return horizon


def _lane_draws(horizon: int, seed: int, rep: int) -> np.ndarray:
    """Replication rep's uniforms over a checked horizon: (1, horizon, 3), in the stage layout."""
    return replication_rng(seed, rep).random((1, _check_horizon(horizon), 3))


def run_policy(sc: Scenario, strat: Strategy, horizon: int, seed: int | None = None,
               rep: int = 0) -> SimTrace:
    """Simulate one play of the scenario under a strategy.

    Consumes the stream of replication ``rep`` (default 0) of the given
    master seed (default: the scenario seed). This is the one-lane case of
    the engine the estimators run.
    """
    draws = _lane_draws(horizon, sc.seed if seed is None else seed, rep)
    play = _Engine(sc, strat).play(sc.reveal_rate, draws, trace=True)
    return SimTrace(states=play.states[0], signals=play.signals[0], reveals=play.reveals[0],
                    reboots=play.reboots[0], posteriors=play.posteriors[0], stage_payoffs=play.stage_payoffs[0])


# The most nodes exact_played_value solves over: its dense system then takes 32 MB and about 0.2 s.
EXACT_NODES = 2_000


def exact_played_value(sc: Scenario, strat: Strategy) -> tuple[float, np.ndarray]:
    """Normalized discounted value of a strategy's play: at the scenario's prior, and at the k transition rows.

    The engine walks the nodes a play reaches (`_Engine._close`), then one
    dense linear solve gives, over those nodes (policy evaluation, Puterman
    1994, section 6.1),
    v(n) = sum_s P(s|n) [(1 - lam) pay(n, s) + lam (x' sum_st post(n, s)[st] v(st) + (1 - x') v(succ(n, s)))],
    where row node st holds id st and x' is the reboot rate: the scenario's
    revelation rate topped up by the coupling coin, which reboots to the same
    row independently of states and signals. At x' = 1 no successor is read,
    so the system holds the row nodes and the start node alone. Raises
    SizeOverflow when a play reaches more than EXACT_NODES nodes.
    """
    lam, x, k = sc.discount, _reboot_rate(sc.reveal_rate, strat.aux_prob), sc.chain.k
    engine = _Engine(sc, strat)
    nodes = engine._close(EXACT_NODES) if x < 1.0 else np.arange(engine.heads)
    # unknown i is node nodes[i], so row node st is unknown st
    at = np.empty(engine.size, dtype=np.int64)
    at[nodes] = np.arange(len(nodes))
    probs = engine._signal_probs(nodes)
    unknown, sig = np.nonzero(probs > 0.0)
    p, node = probs[unknown, sig], nodes[unknown]
    A = np.eye(len(nodes))
    if x < 1.0:
        np.add.at(A, (unknown, at[engine.succ[node, sig]]), -lam * (1.0 - x) * p)
    np.add.at(A, (unknown[:, None], np.arange(k)), -lam * x * p[:, None] * engine.post[node, sig])
    v = np.linalg.solve(A, np.bincount(unknown, weights=(1.0 - lam) * p * engine.pay[node, sig], minlength=len(nodes)))
    return float(v[at[engine.start]]), v[:k]


def state_reveal_path(sc: Scenario, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """States and revelation coins of run_policy(sc, strat, horizon) for every strategy, bit for bit, with no engine.

    Replication 0 of the scenario seed; states and coins depend only on the uniforms, so no
    belief node is built.
    """
    draws = _lane_draws(horizon, sc.seed, 0)
    states, reveals, _ = _states_and_coins(cum_rows(sc.chain.M), draws, cum_rows(sc.prior), sc.reveal_rate, 0.0)
    return states[0], reveals[0]


def discount_horizon(sc: Scenario) -> int:
    """Fewest stages H >= 1 with lam**H * max|u| <= 1e-6 * (1 - lam).

    The bound is absolute, not scaled by the payoffs: a table scaled by 1e-9 gets H = 1.
    """
    lam = sc.discount
    umax = float(np.abs(sc.u.values).max())
    if lam <= 0.0 or umax == 0.0:
        return 1
    return max(1, math.ceil(math.log(1e-6 * (1.0 - lam) / umax) / math.log(lam)))


def play_horizon(sc: Scenario, horizon: int | None = None, minimum: int = 1) -> int:
    """horizon, or discount_horizon(sc) when None, once it lies in [minimum, MAX_HORIZON]. Raises ValueError."""
    source = "the given horizon" if horizon is not None else f"the horizon derived from discount {sc.discount}"
    return _check_horizon(discount_horizon(sc) if horizon is None else horizon, minimum, source)


def estimate_discounted(sc: Scenario, strat: Strategy, samples: int | None = None,
                        seed: int | None = None, horizon: int | None = None) -> EstimateResult:
    """Monte Carlo estimate of the normalized discounted payoff under a strategy.

    Plays are truncated at the horizon where the discarded tail is below
    1e-6, unless an explicit horizon is given; the truncation bound is
    reported on the result. Raises ValueError for a horizon, given or
    derived, outside [1, MAX_HORIZON].
    """
    horizon = play_horizon(sc, horizon)
    lam = sc.discount
    weights = (1.0 - lam) * lam ** np.arange(horizon)

    def score(payoffs, reveals):
        # one stacked (1, horizon) @ (horizon, 1) product per lane rounds like weights @ payoffs[i]
        return np.arange(len(payoffs)), np.matmul(payoffs[:, None, :], weights[:, None])[:, 0, 0]

    return _estimate(sc, strat, sc.reveal_rate, horizon, samples, seed, score,
                     truncation=float(lam ** horizon * np.abs(sc.u.values).max()))


def random_duration_value_mc(sc: Scenario, rate: float, strat: Strategy) -> EstimateResult:
    """Expected undiscounted payoff of the game between revelations at rate, from the scenario's prior.

    Each replication plays the game at rate and sums its stage payoffs
    through its first revealing stage, a geometric duration with mean
    1/rate, or over the whole horizon discount_horizon gives at discount
    1 - rate when no stage reveals; the result carries that horizon and the
    truncation (1 - rate)**horizon * max|u| / rate, at most 1e-6. Runs the
    scenario's samples on its seed. Raises RateBoundary for a rate outside
    (0, 1] or whose 1 - rate rounds to 1, as `solve_between_revelations` does.
    """
    horizon = _check_horizon(discount_horizon(_between_revelations(rate, sc)),
                             source=f"a geometric duration at rate {rate}")

    def score(payoffs, reveals):
        durations = np.where(reveals.any(axis=1), reveals.argmax(axis=1) + 1, horizon)
        return np.arange(len(payoffs)), np.array([row[:w].sum() for row, w in zip(payoffs, durations.tolist())])

    return _estimate(sc, strat, rate, horizon, None, None, score,
                     truncation=float((1.0 - rate) ** horizon * np.abs(sc.u.values).max() / rate))


def estimate_renewal_average(sc: Scenario, strat: Strategy, horizon: int,
                             samples: int | None = None, seed: int | None = None) -> EstimateResult:
    """Time-average payoff accumulated between the first and last revelation.

    Per replication: run to the horizon, locate the revelations, and sum the
    stage payoffs on stages first_revelation+1 .. last_revelation, divided
    by the horizon. Replications with fewer than two revelations by the
    horizon are rejected; their count is reported. Raises AllRejected when
    nothing survives, and ValueError for a horizon below 2.
    """
    play_horizon(sc, horizon, minimum=2)  # two revelations take two stages

    def score(payoffs, reveals):
        # renewal_stats of the chunk's lanes at once: the revelation count, and the 1-based stages
        # of the first and the last revelation
        kept = np.flatnonzero(reveals.sum(axis=1) >= 2)
        first = reveals.argmax(axis=1)[kept] + 1
        last = horizon - reveals[:, ::-1].argmax(axis=1)[kept]
        return kept, np.array([float(payoffs[j, a:b].sum()) / horizon
                               for j, a, b in zip(kept.tolist(), first.tolist(), last.tolist())])

    return _estimate(sc, strat, sc.reveal_rate, horizon, samples, seed, score)


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
    from statistics import NormalDist  # imported here: a module-level import would add to the package import

    var = rate * (1.0 - rate)
    z = math.sqrt(var) * NormalDist().inv_cdf(1.0 - eps / 2.0)
    return z, z * eps <= math.sqrt(2.0 / var) * math.sqrt(eps)
