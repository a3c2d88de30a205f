"""Beliefs over chain states: simplex grids, interpolation, splits, kernels.

A belief is a plain numpy vector on the probability simplex, and a split a
pair of arrays: posterior atoms (m, k) and their weights (m,). The grid holds
every belief whose coordinates are integer multiples of 1/resolution.
Piecewise-linear interpolation runs over the standard simplicial subdivision
of the lattice obtained in cumulative coordinates: sorting the fractional
parts of the cumulative sums picks a unique containing cell, so evaluation
is deterministic, exact at grid points, and exact for affine functions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BadWeights,
    DimensionMismatch,
    InvalidSplit,
    NotBayesPlausible,
    SizeOverflow,
)

BELIEF_SUM_TOL = 1e-12
SPLIT_BARYCENTER_TOL = 1e-9
# Queries this close to a lattice hyperplane (in resolution-scaled
# coordinates) are resolved onto it, which makes grid points exact. Scaling a
# grid point by R and summing k - 1 coordinates can miss the lattice by about
# k * R * eps (0.64 * R * eps measured at the size cap), so grids with
# k * R above about 112,000 snap within 4 * k * R * eps instead.
_SNAP = 1e-10

DEFAULT_MAX_POINTS = 2_000_000


def validate_belief(q, k: int | None = None) -> np.ndarray:
    """Return q as floats after checking that it, or each row of an (m, k) batch, is a belief."""
    q = np.asarray(q, dtype=float)
    if q.ndim not in (1, 2) or q.shape[-1] == 0:
        raise DimensionMismatch(f"belief must be a nonempty vector, got shape {q.shape}")
    if k is not None and q.shape[-1] != k:
        raise DimensionMismatch(f"belief has {q.shape[-1]} entries, expected {k}")
    if not np.isfinite(q).all():
        raise NotBayesPlausible("belief has non-finite entries")
    if (q < -BELIEF_SUM_TOL).any():
        raise NotBayesPlausible(f"belief has negative entry {q.min():.3e}")
    sums = q.sum(axis=-1)
    off = abs(sums - 1.0) > max(BELIEF_SUM_TOL, 1e-12 * q.shape[-1])
    if off.any():
        raise NotBayesPlausible(f"belief sums to {np.ravel(sums)[np.ravel(off).argmax()]:.15g}, not 1")
    return np.maximum(q, 0.0)


@dataclass(frozen=True, eq=False)
class BeliefGrid:
    """Uniform lattice on the simplex, with cell location for interpolation."""

    k: int
    resolution: int
    points: np.ndarray
    counts: np.ndarray
    # _pascal[p - 1, t] = C(t + p - 1, p), the ways to put fewer than t units on p states, for the
    # p = 1..k-1 that _rank reads: (k-1) x (R+1) entries, at most k * n, and none when k = 1
    _pascal: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.points.setflags(write=False)
        self.counts.setflags(write=False)
        self._pascal.setflags(write=False)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def _rank(self, z: np.ndarray) -> np.ndarray:
        """Enumeration index of lattice points from their cumulative counts z[..., :k-1].

        The grid enumerates z lexicographically, so the points after a given one put more mass
        on some state i < k-1 and leave fewer than R - z_i units for the k-1-i states after it.
        """
        d = self.k - 1
        out = np.full(z.shape[:-1], self.n - 1, dtype=np.int64)
        for j in range(d):  # one Pascal lookup per axis, each over the whole batch
            out -= self._pascal[d - 1 - j][self.resolution - z[..., j]]
        return out

    def index_of(self, counts):
        """Enumeration index of a lattice point given its counts (an int), or of each row of a batch."""
        c = np.asarray(counts, dtype=float)
        if (c.shape[-1:] != (self.k,) or np.any(c != np.rint(c)) or np.any(c < 0)
                or np.any(c.sum(axis=-1) != self.resolution)):
            raise DimensionMismatch(f"{np.asarray(counts).tolist()} is not a lattice point of this grid")
        idx = self._rank(np.cumsum(c.astype(np.int64), axis=-1)[..., :-1])
        return int(idx) if idx.ndim == 0 else idx

    def _cells(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Containing cells of an (m, k) batch of validated beliefs.

        Returns (m, k) grid indices and weights in vertex order, the extra slots of a cell with
        fewer than k vertices repeating its last vertex with weight 0, and the mask of real vertices.
        The weights are nonnegative, sum to one, and combine the vertices back to the query (up to
        the lattice snapping tolerance). Every step but the stable sort of the fractional parts and
        the weights' row sum runs along the batch, one column at a time, so the cost of a call is a
        fixed number of numpy calls per axis, whatever the batch size.
        """
        m, k, R = q.shape[0], self.k, self.resolution
        d = k - 1
        # cumulative coordinates, added column by column in the order np.cumsum adds them
        z = q[:, :d] * R
        for j in range(1, d):
            z[:, j] += z[:, j - 1]
        nearest = np.rint(z)
        snap = np.abs(z - nearest) <= max(_SNAP, 4 * k * R * np.finfo(float).eps)
        base = np.where(snap, nearest, np.floor(z))
        frac = np.where(snap, 0.0, z - base)

        # Descending fractional part; ties resolved toward the later axis so
        # every vertex keeps its cumulative coordinates nondecreasing.
        order = d - 1 - np.argsort(-frac[:, ::-1], axis=1, kind="stable")
        flat = order + d * np.arange(m)[:, None]  # positions of the sorted fractions in frac.ravel()
        h = np.empty((m, k + 1))
        h[:, 0], h[:, k] = 1.0, 0.0
        h[:, 1:k] = frac.ravel()[flat]
        real = h[:, :-1] > 0.0
        weights = np.maximum(h[:, :-1] - h[:, 1:], 0.0)
        weights /= weights.sum(axis=1, keepdims=True)

        # vertex t steps up every axis that comes before slot t in the order
        slot = np.empty_like(order)
        slot.ravel()[flat] = np.arange(d)
        stepped = (slot[:, None, :] < np.arange(k)[:, None]) & (frac[:, None, :] > 0.0)
        verts = np.clip(base, 0, R).astype(np.int64)[:, None, :] + stepped
        if (verts[:, :, 1:] < verts[:, :, :-1]).any() or (verts > R).any():
            raise DimensionMismatch("query left the simplex lattice; belief too far off the simplex")
        return self._rank(verts), weights, real

    def _point_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """The grid points' own cells, as `_cells(points)[:2]` gives them: index i in every slot, weights (1, 0, ...).

        Built on each call and kept by none, neither located nor validated; each column is contiguous.
        """
        idx = np.broadcast_to(np.arange(self.n)[:, None], (self.n, self.k))
        w = np.zeros((self.n, self.k), order="F")
        w[:, 0] = 1.0
        return idx, w

    @cached_property
    def _corners(self) -> np.ndarray:
        """Grid indices of the pure states, in state order (read-only)."""
        out = self.index_of(self.resolution * np.eye(self.k, dtype=np.int64))
        out.setflags(write=False)
        return out

    @cached_property
    def _circuits(self) -> np.ndarray:
        """Grid indices (p, q, r, s), shape (4, c), of every pair of adjacent cells of the `_cells` subdivision.

        In cumulative counts z a pair spans a circuit p + q = r + s whose diagonal (p, q) is the face
        the two cells share: the squares {b, b+e_i, b+e_j, b+e_i+e_j} for i < j, shared diagonal
        (b, b+e_i+e_j), and {a, a+e_i, a+1, a+1+e_i}, shared diagonal (a+e_i, a+1). The interpolant of
        a grid function f is concave exactly when f_p + f_q >= f_r + f_s on every circuit. Built on
        first use and kept with the grid, read-only; for k >= 2 only.
        """
        d = self.k - 1
        z = np.cumsum(self.counts, axis=1)[:, :d]
        e, one = np.eye(d, dtype=np.int64), np.ones(d, dtype=np.int64)
        steps = [(0, e[i] + e[j], e[i], e[j]) for i, j in itertools.combinations(range(d), 2)]
        steps += [(e[i], one, 0, one + e[i]) for i in range(d)]
        circuits = []
        for step in steps:
            quad = np.stack([z + s for s in step])
            inside = np.all(quad[..., 1:] >= quad[..., :-1], axis=(0, 2)) & np.all(
                quad[..., -1] <= self.resolution, axis=0)
            circuits.append(self._rank(quad[:, inside]))
        out = np.concatenate(circuits, axis=1)
        out.setflags(write=False)
        return out

    def interp_matrix(self, queries: np.ndarray):
        """Sparse (scipy CSR) matrix of interpolation weights, one query per row."""
        from scipy import sparse  # imported here: the package itself never builds one

        queries = validate_belief(np.atleast_2d(queries), self.k)
        idx, w, real = self._cells(queries)
        offsets = np.concatenate([[0], np.cumsum(real.sum(axis=1))])
        return sparse.csr_matrix((w[real], idx[real], offsets), shape=(queries.shape[0], self.n))


def make_grid(k: int, resolution: int) -> BeliefGrid:
    """Build the belief lattice with coordinates in multiples of 1/resolution, at most DEFAULT_MAX_POINTS points.

    One pass enumerates the cumulative counts z that `BeliefGrid._rank` ranks, the nondecreasing
    (k-1)-tuples of 0..R in lexicographic order, so the build holds O(k * n) integers.
    """
    if k < 1 or resolution < 1:
        raise DimensionMismatch(f"need k >= 1 and resolution >= 1, got k={k}, R={resolution}")
    n = math.comb(resolution + k - 1, k - 1)
    if n > DEFAULT_MAX_POINTS:
        raise SizeOverflow(f"grid would hold {n} points, budget is {DEFAULT_MAX_POINTS}")
    # the pool is made a tuple; R + 1 <= n for k >= 2, and k = 1 needs none of it
    z = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(resolution + 1)[:n], k - 1)),
        dtype=np.int64, count=n * (k - 1)).reshape(n, k - 1)
    counts = np.diff(z, prepend=0, append=resolution, axis=1)
    points = counts / float(resolution)
    pascal = np.empty((k - 1, resolution + 1), dtype=np.int64)
    for p in range(k - 1):
        pascal[p] = np.cumsum(pascal[p - 1]) if p else np.arange(resolution + 1)
    return BeliefGrid(k=k, resolution=resolution, points=points, counts=counts, _pascal=pascal)


@dataclass(frozen=True, eq=False)
class GridFn:
    """Real-valued function stored at the grid points."""

    grid: BeliefGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise DimensionMismatch(f"{vals.shape[0] if vals.ndim == 1 else vals.shape} values for {self.grid.n} grid points")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function has non-finite values")
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)


def interpolate(f: GridFn, q) -> float | np.ndarray:
    """Piecewise-linear evaluation of a grid function at a belief or an (m, k) batch.

    The vertex terms are added in order onto zero, as in f.grid.interp_matrix(q) @ f.values,
    so the two agree bit for bit (a numpy row sum would pair the terms up from k = 8 on).
    """
    q = validate_belief(q, f.grid.k)
    out = _vertex_sum(f.values, *f.grid._cells(np.atleast_2d(q))[:2])
    return float(out[0]) if q.ndim == 1 else out


def _vertex_sum(values: np.ndarray, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Interpolated values from `BeliefGrid._cells` cells: each row's vertex terms added in order onto zero."""
    out = np.zeros(idx.shape[0])
    for j in range(idx.shape[1]):
        out += w[:, j] * values[idx[:, j]]
    return out


def validate_split(p, posteriors, weights) -> tuple[np.ndarray, np.ndarray]:
    """Check that posterior atoms (m, k) with weights (m,) are a Bayes-plausible lottery at prior p.

    Returns them as float arrays, posteriors (m, k) and weights (m,): a 1-d
    posterior is one atom, and weights may come in any shape. Raises BadWeights
    when the weights are off the simplex, NotBayesPlausible when the
    barycenter misses the prior.
    """
    p = validate_belief(p)
    post, w = np.atleast_2d(np.asarray(posteriors, dtype=float)), np.asarray(weights, dtype=float).ravel()
    if post.ndim != 2 or post.shape[0] != w.size or post.shape[1] != p.size:
        raise DimensionMismatch(f"split shapes {post.shape} / {w.shape} do not match prior of length {p.size}")
    if np.any(w < -BELIEF_SUM_TOL) or abs(w.sum() - 1.0) > BELIEF_SUM_TOL:
        raise BadWeights(f"weights sum to {w.sum():.15g} with min {w.min():.3e}")
    validate_belief(post, p.size)
    err = np.max(np.abs(w @ post - p))
    if err > SPLIT_BARYCENTER_TOL:
        raise NotBayesPlausible(f"barycenter misses the prior by {err:.3e}")
    return post, w


def validate_kernel(kernel, k: int) -> np.ndarray:
    """Return kernel as floats after checking that it is a signal kernel with k rows, over any number of signals.

    Raises DimensionMismatch for the shape, and InvalidSplit unless every entry
    is finite and at least -BELIEF_SUM_TOL and every row sums to 1 within 1e-9.
    """
    kernel = np.asarray(kernel, dtype=float)
    if kernel.ndim != 2 or kernel.shape[0] != k:
        raise DimensionMismatch(f"kernel shape {kernel.shape} is not ({k}, any)")
    # written so that a NaN fails each test
    if not (np.isfinite(kernel).all() and (kernel >= -BELIEF_SUM_TOL).all()
            and (np.abs(kernel.sum(axis=1) - 1.0) <= 1e-9).all()):
        raise InvalidSplit("kernel rows must be probability vectors")
    return kernel


def split_from_kernel(p, kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior lottery induced by a signal kernel at prior p: posteriors (m, k) and weights (m,).

    kernel[state, signal] is the chance of each signal in each state. Signals
    of zero probability under p are dropped.
    """
    p = validate_belief(p)
    alphas, posteriors = bayes_update(p, validate_kernel(kernel, p.size))
    keep = alphas > 0.0
    return posteriors[keep], alphas[keep]


def kernel_from_split(p, posteriors, weights) -> np.ndarray:
    """Signal kernel realizing the split (posteriors, weights) at prior p, one signal per atom.

    Row for a zero-probability state is uniform over the positive-weight
    atoms.
    """
    p = validate_belief(p)
    try:
        post, w = validate_split(p, posteriors, weights)
    except (BadWeights, NotBayesPlausible, DimensionMismatch) as exc:
        raise InvalidSplit(str(exc)) from exc
    return kernels_from_splits(p[None], post[None], w[None])[0]


def kernels_from_splits(p: np.ndarray, posteriors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Signal kernels kernel[i, state, atom] realizing the splits at priors p (n, k).

    posteriors is (n, m, k) and weights (n, m). A state no atom puts mass on
    (probability 0, or within the barycenter tolerance of 0) draws uniformly
    over the split's positive-weight atoms.
    """
    live = weights > 0.0
    kernels = np.repeat((live / live.sum(axis=1, keepdims=True))[:, None, :], p.shape[1], axis=1)
    prior, mass = p[:, :, None], weights[:, None, :] * posteriors.transpose(0, 2, 1)
    np.divide(mass, prior, out=kernels, where=(prior > 0.0) & (mass.sum(axis=2, keepdims=True) > 0.0))
    # kill rounding drift so downstream row-sum checks stay exact
    kernels /= kernels.sum(axis=2, keepdims=True)
    return kernels


def bayes_update(p: np.ndarray, kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signal probabilities p @ kernel and each signal's posterior (p itself at probability 0).

    Takes one belief with a (k, w) kernel, or an (m, k) batch with (m, k, w) kernels.
    """
    p, kernel = np.asarray(p, dtype=float), np.asarray(kernel, dtype=float)
    # one stacked (1, k) @ (k, w) product per belief, so a batch row equals its single call
    alphas = np.matmul(p[..., None, :], kernel)[..., 0, :]
    posteriors = np.repeat(p[..., None, :], kernel.shape[-1], axis=-2)
    np.divide(np.swapaxes(p[..., :, None] * kernel, -1, -2), alphas[..., :, None], out=posteriors,
              where=alphas[..., :, None] > 0.0)
    return alphas, posteriors


def bayes_posterior(p: np.ndarray, kernel: np.ndarray, signal: int) -> tuple[float, np.ndarray]:
    """Probability of a signal under prior p and the posterior it induces."""
    alphas, posteriors = bayes_update(p, kernel)
    if alphas[signal] <= 0.0:
        raise InvalidSplit(f"signal {signal} has zero probability under the prior")
    return float(alphas[signal]), posteriors[signal]
