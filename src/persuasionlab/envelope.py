"""Upper concave envelope of a grid function, with optimal generating splits.

The envelope at p is the largest value achievable by averaging the function
over a Bayes-plausible lottery on grid points with barycenter p. On the
two-state simplex this is a one-dimensional upper hull (monotone chain).
In higher dimension it is read off the upper facets of the lifted point set,
and two certificates name those facets in the extreme regimes of persuasion
(Kamenica & Gentzkow 2011) before any hull is built: when the function lies
below the plane through its values at the pure states, that plane is the
envelope (full disclosure); when it folds down across every pair of adjacent
grid cells, its interpolant is concave and is the envelope (no disclosure).
Only when both fail does Qhull build the facets, and only then does
`scipy.spatial` load. The certified plane and Qhull's facets are read alike,
as one table of planes in belief coordinates. A certified envelope can differ
from the Qhull one by a few ulps. Each function's `_Envelope` is built once,
kept with it, and read by every query.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .belief import GridFn, _vertex_sum, validate_belief
from .errors import SingularSystem

# Relative slack for "this atom already sits on the envelope" decisions.
_DEG_RTOL = 1e-11
# Slack when matching candidate facets against the envelope value.
_FACET_RTOL = 1e-9
# Rounding slack, relative to 1 + max|f|, of the k >= 3 envelope certificates.
_CERT_EPS = 8 * np.finfo(float).eps
# Plane values `_Envelope.at` holds at once (32 MiB); every k <= 3 grid up to R = 40 is one block.
_PLANE_BUDGET = 1 << 22


def _upper_hull_indices(s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vertex indices of the upper hull of points (s, v), s strictly increasing.

    A point whose turn test rounds to collinear is dropped, but rounding can keep a point that lies
    exactly on a straight stretch. The chain runs on Python floats, which round exactly as numpy
    float64 scalars do, at a fraction of their cost.
    """
    s, v = s.tolist(), v.tolist()
    hull: list[int] = []
    for i in range(len(s)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # pop b unless (a -> b -> i) turns strictly clockwise
            if (s[b] - s[a]) * (v[i] - v[a]) - (v[b] - v[a]) * (s[i] - s[a]) >= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
    return np.asarray(hull, dtype=np.int64)


class _Envelope:
    """The envelope of one grid function: an upper hull for k <= 2; for k >= 3 its own cells, or a facet table.

    `values` holds the envelope at every grid point. For k >= 3 two certificates name the upper facets
    before any hull is built. When f lies below the plane through its values at the pure states (full
    disclosure), that plane is the envelope and `corners` holds the pure states' grid indices. When f
    folds down across every pair of adjacent cells of the grid (`BeliefGrid._circuits`), its interpolant
    is concave and is the envelope (no disclosure, `concave`). Otherwise Qhull builds the upper facets.
    The certified plane and Qhull's facets are one table in belief coordinates: facet f has vertices
    `simplices[f]` (grid indices) and reads q . coef[f] at a belief q.
    """

    def __init__(self, f: GridFn) -> None:
        grid, v = f.grid, f.values
        self.grid, self.v = grid, v
        self.corners, self.concave = None, False
        if grid.k <= 2:
            self.hull = _upper_hull_indices(grid.points[:, 0], v)
        else:
            # the plane through the pure states is the one-facet table whose coefficients are f there
            self.simplices, self.coef = grid._corners[None], v[grid._corners][None]
            top = self._planes(grid.points)[:, 0]
            # rounding in a certificate's sums cannot let a violated inequality pass
            margin = _CERT_EPS * (1.0 + float(np.abs(v).max()))
            if np.all(v <= top + margin):
                self.corners = grid._corners
                self.values = np.maximum(top, v)  # what `at` gives at the grid points, from the one read above
            else:
                p, q, r, s = grid._circuits
                self.concave = bool(np.all(v[p] + v[q] - v[r] - v[s] >= margin))
                if not self.concave:
                    self._hull_facets(v)
        if self.corners is None:
            self.values = self.at(grid.points, v)
        self.values.setflags(write=False)

    def _hull_facets(self, v: np.ndarray) -> None:
        """Qhull's upper facets of the lifted grid as the facet table: belief coefficients and vertex indices."""
        from scipy.spatial import ConvexHull  # imported here: a certified or k = 2 run never loads scipy.spatial

        k = self.grid.k
        vmin, vmax = float(v.min()), float(v.max())
        floor = vmin - 1.0 - (vmax - vmin)
        lifted = np.column_stack([self.grid.points[:, : k - 1], v])
        # padding below the simplex corners closes the hull without touching its top
        padding = np.column_stack([np.eye(k, k - 1), np.full(k, floor)])
        hull = ConvexHull(np.vstack([lifted, padding]), qhull_options="Qt")
        up = hull.equations[:, -2] > 1e-9
        n, h, c = hull.equations[up, :-2], hull.equations[up, -2:-1], hull.equations[up, -1:]
        # n . x + h y + c = 0 on the chart x = q[:-1], where 1 = sum(q): y = q . -[n + c, c] / h
        self.coef = -np.hstack([n + c, c]) / h
        self.simplices = hull.simplices[up]

    @cached_property
    def slack(self) -> float:
        """Absolute slack for deciding that the function attains the envelope."""
        return _DEG_RTOL * (1.0 + float(np.abs(self.v).max()))

    def _planes(self, q: np.ndarray) -> np.ndarray:
        """Every facet plane at each row of q, (m, k) -> (m, facets).

        Each row is read by its own (1, k) @ (k, facets) product, so a belief reads the same floats
        alone or in any batch, at a grid point or off it.
        """
        return (q[:, None, :] @ self.coef.T)[:, 0]

    def at(self, q: np.ndarray, fq: np.ndarray) -> np.ndarray:
        """Envelope at each row of an (m, k) batch of beliefs, given f interpolated there (fq).

        It is the larger of fq and the hull or facet-table reading; for a concave f the grid's own
        cells are the facets, so it is fq. Facet planes are read _PLANE_BUDGET values at a time, so a
        fine k >= 4 grid fits in memory.
        """
        if self.grid.k <= 2:
            s = self.grid.points[:, 0]
            top = np.interp(q[:, 0], s[self.hull], self.v[self.hull])
        elif self.concave:
            return fq
        else:
            rows = max(1, _PLANE_BUDGET // len(self.coef))
            top = np.empty(len(q))
            for i in range(0, len(q), rows):
                top[i : i + rows] = self._planes(q[i : i + rows]).min(axis=1)
        return np.maximum(top, fq)

    def split(self, q: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Atoms (grid indices) and weights of an optimal split at each row of q, below its envelope value.

        Row i splits onto the vertices of the hull piece above q[i]: the ends of the upper-hull edge for
        k <= 2; under the certified plane the pure states, weighted by the belief's own positive
        coordinates in state order; otherwise an upper facet whose plane is within slack of values[i]
        and whose barycentric weights at the row are nonnegative. Among such facets the
        lexicographically smallest vertex-index support wins, the first facet on ties. A concave f has
        no row below its envelope. Returns (m, k) arrays whose slots past a row's support hold atom -1
        and weight 0.
        """
        if self.grid.k <= 2:
            s, s_q = self.grid.points[:, 0], q[:, 0]
            j = np.clip(np.searchsorted(s[self.hull], s_q, side="right"), 1, self.hull.size - 1)
            a, b = self.hull[j - 1], self.hull[j]
            wa = (s[b] - s_q) / (s[b] - s[a])
            return np.column_stack([a, b]), np.column_stack([wa, 1.0 - wa])
        if self.corners is not None:
            atoms, weights = _packed(q > 0.0, np.broadcast_to(self.corners, q.shape), q)
            return atoms, weights / weights.sum(axis=1, keepdims=True)
        n, k = self.grid.n, self.grid.k
        real = ~np.any(self.simplices >= n, axis=1)  # floor padding can only border degenerate planes
        atoms, weights = np.empty((len(q), k), dtype=np.int64), np.empty((len(q), k))
        # a block stacks at most _PLANE_BUDGET values of (k, k) systems
        per_block = max(1, _PLANE_BUDGET // (len(self.coef) * k * k))
        for i in range(0, len(q), per_block):
            block, target = q[i : i + per_block], values[i : i + per_block]
            near = self._planes(block) <= (target + _FACET_RTOL * (1.0 + np.abs(target)))[:, None]
            row, facet = np.nonzero(near & real)
            verts = self.simplices[facet]
            A = self.grid.points[verts].transpose(0, 2, 1)  # the facet's vertices as columns
            # LU finds a zero pivot (sign 0) on a singular facet, which would fail the whole stacked solve
            _, first, same = np.unique(facet, return_index=True, return_inverse=True)
            regular = (np.linalg.slogdet(A[first])[0] != 0.0)[same]
            row, verts, A = row[regular], verts[regular], A[regular]
            w = np.linalg.solve(A, block[row][..., None])[..., 0]
            feasible = ~np.any(w < -1e-9, axis=1)
            row, verts, w = row[feasible], verts[feasible], w[feasible]
            keep = w > 1e-12
            # sorted supports padded with -1 order as Python tuples do; lexsort is stable, so ties keep facet order
            support = np.sort(np.where(keep, verts, n), axis=1)
            support[support == n] = -1
            order = np.lexsort(np.vstack([support[:, ::-1].T, row]))
            best = order[np.unique(row[order], return_index=True)[1]]
            if best.size < len(block):
                raise SingularSystem("no feasible facet found for envelope split extraction")
            atoms[i : i + per_block], wk = _packed(keep[best], verts[best], w[best])
            weights[i : i + per_block] = wk / wk.sum(axis=1, keepdims=True)
        return atoms, weights


def _packed(keep: np.ndarray, atoms: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's kept atoms and weights first, in their order, then atom -1 with weight 0."""
    slots = np.argsort(~keep, axis=1, kind="stable")
    return (np.take_along_axis(np.where(keep, atoms, -1), slots, axis=1),
            np.take_along_axis(np.where(keep, weights, 0.0), slots, axis=1))


def _envelope(f: GridFn) -> _Envelope:
    """The envelope of f, built on first use and kept with f, whose values are read-only."""
    if "_envelope" not in vars(f):
        vars(f)["_envelope"] = _Envelope(f)
    return vars(f)["_envelope"]


def cav_values(f: GridFn) -> np.ndarray:
    """Envelope values at every grid point (fast path, no split extraction)."""
    return _envelope(f).values


def cav_grid(f: GridFn) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`cav_splits` at every grid point: values (n,), atoms (n, k) and weights (n, k).

    The grid points are read as their own cells (`BeliefGrid._point_cells`, what `_cells` locates
    for them, built for this call) through the reader `cav_splits` uses, so the result equals
    `cav_splits(f, f.grid.points)` bit for bit without locating or validating a point.
    `verify obs1` reads it to certify that these k-atom splits attain the envelope.
    """
    return _splits(f, f.grid.points, f.grid._point_cells())


def _located(f: GridFn, q) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Beliefs q as a validated (m, k) batch, and the (grid indices, weights) of their cells on f's grid."""
    q = np.atleast_2d(validate_belief(q, f.grid.k))
    return q, f.grid._cells(q)[:2]


def _read(f: GridFn, q: np.ndarray, cells: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Envelope of f and interpolated f at each row of a validated (m, k) batch q, given q's cells.

    `cav_at`, `cav_splits` and `cav_grid` read through here, so a batch read more than once (as
    `check_no_info_at_concave_point` reads one batch on two functions) is located once.
    """
    fq = _vertex_sum(f.values, *cells)
    return _envelope(f).at(q, fq), fq


def cav_at(f: GridFn, q) -> tuple[np.ndarray, np.ndarray]:
    """Envelope of f and interpolated f at a belief or each row of an (m, k) batch, as arrays.

    Off the grid the envelope is the larger of the hull, plane or facet reading and the
    interpolated function. Each row depends on that row alone, never on the batch; at the grid
    points the values are `cav_values` bit for bit.
    """
    return _read(f, *_located(f, q))


def cav_splits(f: GridFn, q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Envelope values (`cav_at`) and optimal grid-supported splits at each row of an (m, k) batch of beliefs.

    Returns values (m,), atoms (m, k) grid indices and weights (m, k), positive weights first, then atom -1
    with weight 0. A row on the envelope gets its containing-cell lottery (degenerate at a grid point), a
    row below it `_Envelope.split`'s split; each row depends on that row alone, never on the batch.
    """
    return _splits(f, *_located(f, q))


def _splits(f: GridFn, q: np.ndarray, cells: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`cav_splits` at a validated (m, k) batch q, given q's cells: the one split reader."""
    values, fq = _read(f, q, cells)
    atoms, weights = _packed(cells[1] > 0.0, *cells)  # positive weights first, in vertex order
    env = _envelope(f)
    below = np.flatnonzero(fq < values - env.slack)
    if below.size:
        atoms[below], weights[below] = env.split(q[below], values[below])
    return values, atoms, weights


def _touching(f: GridFn) -> np.ndarray:
    """Grid indices of the points that `_splits` reads as on the envelope: the atoms its splits put weight on."""
    env = _envelope(f)
    return np.flatnonzero(~(f.values < env.values - env.slack))


def cav_split_at(f: GridFn, q) -> tuple[float, np.ndarray, np.ndarray]:
    """Envelope value, posteriors (grid points) and positive weights of an optimal split at one belief."""
    (value,), (atoms,), (weights,) = cav_splits(f, np.asarray(q, dtype=float)[None])  # a batch fails as 3-d
    return float(value), f.grid.points[atoms[atoms >= 0]], weights[atoms >= 0]
