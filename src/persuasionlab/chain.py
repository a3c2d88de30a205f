"""Finite irreducible Markov chains: validation, stationary law, sampling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotIrreducible, NotStochastic, SingularSystem

# Row sums may drift by this much before the matrix is rejected.
ROW_SUM_TOL = 1e-9
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
        raise NotStochastic(f"row {bad} sums to {M[bad].sum():.12g}, not 1")

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
    (a, b) uniforms, giving (a, b + 1) states, each lane's start first. Each
    uniform fixes a map from the current state to the next: the count of
    thresholds u >= cum[i, j], j < k - 1 (the last column is +inf). The
    scan has two levels: every block of ceil(sqrt(b)) stages is run from
    all k states at once, the blocks are chained from the start, and each
    path is read off by running its blocks again from their entry states,
    about 3 sqrt(b) numpy passes in all. The maps are held in the narrowest
    unsigned ints that hold a state.
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
