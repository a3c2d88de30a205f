"""Finite irreducible Markov chains: validation, stationary law, sampling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .belief import BELIEF_SUM_TOL
from .errors import NotIrreducible, NotStochastic, SingularSystem

# Row sums may drift, and entries leave [0, 1], by this much before the matrix is rejected: half the
# belief tolerance, so that after the entries are clipped into [0, 1] (which moves a row sum by at most
# k times this) every row, and every rounded next belief points @ M of a grid, is still a belief.
ROW_SUM_TOL = BELIEF_SUM_TOL / 2
# Entries below this are treated as structural zeros for irreducibility.
POSITIVITY_EPS = 1e-15
# The stored stationary vector must satisfy pi @ M = pi to this accuracy.
STATIONARY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Chain:
    """A validated row-stochastic transition matrix with its stationary law.

    Build instances through :func:`validate_chain`; the constructor trusts
    its inputs.
    """

    k: int
    M: np.ndarray
    pi: np.ndarray

    def __post_init__(self) -> None:
        self.M.setflags(write=False)
        self.pi.setflags(write=False)


def validate_chain(raw) -> Chain:
    """Check a raw matrix and return a Chain with its stationary distribution.

    Raises NotStochastic for shape or row-sum violations, NotIrreducible when
    the positivity pattern is not strongly connected, and SingularSystem when
    the stationary solve fails.
    """
    M = np.asarray(raw, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise NotStochastic(f"expected a nonempty square matrix, got shape {M.shape}")
    k = M.shape[0]
    if not np.all(np.isfinite(M)):
        raise NotStochastic("transition matrix has non-finite entries")
    if np.any(M < -ROW_SUM_TOL) or np.any(M > 1.0 + ROW_SUM_TOL):
        raise NotStochastic("transition entries must lie in [0, 1]")
    row_err = np.abs(M.sum(axis=1) - 1.0)
    if np.any(row_err > ROW_SUM_TOL):
        bad = int(np.argmax(row_err))
        raise NotStochastic(f"row {bad} sums to {M[bad].sum():.15g}, not 1")

    M = np.clip(M, 0.0, 1.0)
    reach = _reachable(M > POSITIVITY_EPS)
    if not reach.all():
        # states i and j share a strongly connected component when each reaches the other
        n_comp = len(np.unique(reach & reach.T, axis=0))
        raise NotIrreducible(f"positivity pattern splits into {n_comp} strongly connected components")

    pi = stationary(M)
    return Chain(k=k, M=M.copy(), pi=pi)


def _reachable(pattern: np.ndarray) -> np.ndarray:
    """reach[i, j]: state j can be reached from state i in zero or more steps along the (k, k) boolean pattern.

    Squaring the one-step pattern (with the identity) doubles the path lengths it covers; k - 1 steps reach all.
    """
    reach = pattern | np.eye(len(pattern), dtype=bool)
    steps = 1
    while steps < len(pattern) - 1:
        reach = reach @ reach
        steps *= 2
    return reach


def stationary(M: np.ndarray) -> np.ndarray:
    """Stationary distribution via a direct linear solve.

    Solves (M^T - I) pi = 0 with the last equation replaced by the
    normalization sum(pi) = 1.
    """
    M = np.asarray(M, dtype=float)
    k = M.shape[0]
    A = M.T - np.eye(k)
    A[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("stationary system is singular") from exc
    pi = np.where(np.abs(pi) < 1e-14, 0.0, pi)
    if np.any(pi < 0):
        raise SingularSystem("stationary solve produced negative mass")
    pi = pi / pi.sum()
    residual = np.max(np.abs(pi @ M - pi))
    if residual > STATIONARY_TOL:
        raise SingularSystem(f"stationary residual {residual:.3e} exceeds {STATIONARY_TOL:.1e}")
    return pi


def cum_rows(P: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, with each row's last entry set to +inf.

    For a uniform u, (u >= row).sum() is then the first index whose cumulative
    weight exceeds u, or the last index when rounding leaves the row sum at or
    below u; it equals searchsorted(row, u, side="right") clipped to the last index.
    """
    cum = np.cumsum(P, axis=-1)
    cum[..., -1] = np.inf
    return cum


def scan_states(cum: np.ndarray, starts: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Paths from starts: state n + 1 of lane l is drawn from row cum[state n] with u[l, n].

    cum is a (k, k) table from :func:`cum_rows`. Takes (a,) start states and
    (a, b) uniforms, giving (a, b + 1) int64 states, each lane's start first.
    Each uniform fixes a map from the current state to the next: the count of
    thresholds u >= cum[i, j], j < k - 1 (the last column is +inf).

    With two states the map of a stage sends x to u >= cum[x, 0], so it is a
    constant (a reset), the identity or the swap. A state is then the value
    of the last reset at or before it, or else the lane's start, XOR the
    parity of the swaps since: one XOR prefix scan gives the parities, and
    one max prefix scan carries each reset's value forward, tagged by its
    position. The comparisons are the block scan's and the rest is integer
    logic, so the paths are the same. Other k run :func:`_block_scan`.
    """
    if cum.shape[0] != 2:
        return _block_scan(cum, starts, u)
    lanes, b = u.shape
    low, high = u >= cum[0, 0], u >= cum[1, 0]  # where each stage sends state 0 and state 1
    # column n + 1 of parity: the parity of the swaps (low and not high) in the first n + 1 stages
    parity = np.zeros((lanes, b + 1), dtype=bool)
    np.greater(low, high, out=parity[:, 1:])
    np.bitwise_xor.accumulate(parity, axis=1, out=parity)
    # a reset at stage n, to low, leaves state low ^ parity[n + 1] ^ parity[m] at column m > n: tag it
    # 2 (n + 1) + (low ^ parity[n + 1]) there and 0 elsewhere, and the lane's start at column 0
    tag = np.empty((lanes, b + 1), dtype=np.min_scalar_type(2 * b + 1))
    tag[:, 0] = starts
    np.bitwise_xor(low, parity[:, 1:], out=tag[:, 1:])
    tag[:, 1:] += np.arange(2, 2 * b + 1, 2, dtype=tag.dtype)
    tag[:, 1:] *= np.equal(low, high, out=high)  # the resets
    np.maximum.accumulate(tag, axis=1, out=tag)
    tag &= 1
    return np.bitwise_xor(tag, parity, out=np.empty((lanes, b + 1), dtype=np.int64))


def _block_scan(cum: np.ndarray, starts: np.ndarray, u: np.ndarray) -> np.ndarray:
    """:func:`scan_states` for any k, by a two-level scan.

    Every block of ceil(sqrt(b)) stages is run from all k states at once,
    the blocks are chained from the start, and each path is read off by
    running its blocks again from their entry states, about 3 sqrt(b) numpy
    passes in all. The maps are held in the narrowest unsigned ints that
    hold a state.
    """
    lanes, b = u.shape
    k = cum.shape[0]
    m = math.isqrt(b - 1) + 1 if b else 1
    blocks = -(-b // m)
    n = np.intp(lanes * blocks)  # blocks of m stages, lane by lane; a numpy int keeps products wide
    padded = np.zeros((n, m))
    padded.reshape(lanes, -1)[:, :b] = u
    # stage g*m + t of lane l sends state i to maps[t, i, l*blocks + g]; the padding is never read
    maps = np.zeros((m, k, n), dtype=np.min_scalar_type(k - 1))
    for i in range(k):
        for j in range(k - 1):
            maps[:, i] += padded.T >= cum[i, j]
    cols = np.arange(n)
    at = np.arange(k)[:, None] * n + cols
    for t in range(m):
        at = maps[t].reshape(-1)[at] * n + cols
    ends = (at // n).reshape(k, lanes, blocks)
    entry = np.empty((lanes, blocks), dtype=np.intp)
    state, rows = starts.astype(np.intp), np.arange(lanes)
    for g in range(blocks):
        entry[:, g] = state
        state = ends[state, rows, g]
    steps = np.empty((n, m), dtype=maps.dtype)
    at = entry.reshape(-1) * n + cols
    for t in range(m):
        steps[:, t] = maps[t].reshape(-1)[at]
        at = steps[:, t] * n + cols
    path = np.empty((lanes, b + 1), dtype=np.int64)
    path[:, 0] = starts
    path[:, 1:] = steps.reshape(lanes, -1)[:, :b]
    return path


def sample_path(chain: Chain, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample n states of the chain, starting from its stationary law.

    One uniform draw is consumed per state, the first one for the initial state.
    """
    if n == 0:
        return np.empty(0, dtype=np.int64)
    u = rng.random((1, n))  # the first state counts the thresholds of cum_rows(pi) at or below u[0, 0]
    return scan_states(cum_rows(chain.M), (u[:, :1] >= cum_rows(chain.pi)).sum(axis=1), u[:, 1:])[0]


def ergodic_frequency_se(chain: Chain, n: int) -> np.ndarray:
    """Asymptotic standard errors of state occupation frequencies over n stages.

    Computed from the fundamental matrix, so the autocorrelation of the path
    is priced in; for an iid chain this reduces to the binomial rate
    sqrt(pi * (1 - pi) / n).
    """
    if n < 1:
        raise ValueError(f"need at least one stage, got {n}")
    k = chain.k
    fundamental = np.linalg.inv(np.eye(k) - chain.M + np.outer(np.ones(k), chain.pi))
    variance = chain.pi * (2.0 * np.diag(fundamental) - 1.0 - chain.pi)
    return np.sqrt(np.maximum(variance, 0.0) / n)
