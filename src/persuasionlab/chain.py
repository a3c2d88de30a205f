"""Finite irreducible Markov chains: validation, stationary law, sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import IndexOutOfRange, NotIrreducible, NotStochastic, SingularSystem

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
    pattern = csr_matrix(M > POSITIVITY_EPS)
    n_comp, _ = connected_components(pattern, directed=True, connection="strong")
    if n_comp != 1:
        raise NotIrreducible(f"positivity pattern splits into {n_comp} strongly connected components")

    pi = stationary(M)
    return Chain(k=k, M=M.copy(), pi=pi)


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


def scan_states(cum: np.ndarray, first: int, u: np.ndarray) -> np.ndarray:
    """Path of len(u) + 1 states from ``first``, state n + 1 drawn from row cum[state n] with u[n].

    cum is a (k, k) table from :func:`cum_rows`. Each uniform fixes a map from
    the current state to the next; the path is the Hillis-Steele prefix
    composition of those maps, log2(len(u)) numpy passes over the narrowest
    unsigned ints that hold a state.
    """
    k = cum.shape[0]
    maps = np.empty((u.size + 1, k), dtype=np.min_scalar_type(k - 1))
    maps[0] = first
    np.sum(u[:, None, None] >= cum, axis=2, out=maps[1:])
    # after the pass with step d, row n composes maps[n - 2d + 1 .. n]
    d = 1
    while d < maps.shape[0]:
        maps[d:] = np.take_along_axis(maps[d:], maps[:-d], axis=1)
        d *= 2
    return maps[:, 0].astype(np.int64)


def sample_path(chain: Chain, n: int, rng: np.random.Generator, start=None) -> np.ndarray:
    """Sample n states of the chain.

    ``start`` is an initial state index, an initial distribution, or None for
    the stationary law. One uniform draw is consumed per state, the first one
    for the initial state.
    """
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if start is None:
        init = np.cumsum(chain.pi)
        first = int(np.searchsorted(init, rng.random(), side="right"))
    elif np.ndim(start) == 0:
        first = int(start)
        if not 0 <= first < chain.k:
            raise IndexOutOfRange(f"start state {first} outside 0..{chain.k - 1}")
        rng.random()  # keep the per-stage draw count independent of start type
    else:
        init = np.cumsum(np.asarray(start, dtype=float))
        first = int(np.searchsorted(init, rng.random() * init[-1], side="right"))
    return scan_states(cum_rows(chain.M), min(first, chain.k - 1), rng.random(n - 1))


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
