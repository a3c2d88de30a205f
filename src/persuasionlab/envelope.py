"""Upper concave envelope of a grid function, with optimal generating splits.

The envelope at p is the largest value achievable by averaging the function
over a Bayes-plausible lottery on grid points with barycenter p. On the
two-state simplex this is a one-dimensional upper hull (monotone chain);
in higher dimension it is read off the upper facets of the lifted point set.
Each function's `_Envelope` is built once, kept with it, and read by every query.
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
# Plane values `_Envelope.at` holds at once (32 MiB); every k <= 3 grid up to R = 40 is one block.
_PLANE_BUDGET = 1 << 22


def _upper_hull_indices(s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vertex indices of the upper hull of points (s, v), s strictly increasing; collinear points are dropped.

    The chain runs on Python floats, which round exactly as numpy float64 scalars do, at a fraction of their cost.
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
    """The envelope of one grid function: an upper hull for k <= 2, upper facets above.

    `values` holds the envelope at every grid point. Beliefs are queried in
    chart coordinates, their first k - 1 entries (the first entry for k <= 2).
    """

    def __init__(self, f: GridFn) -> None:
        grid, v = f.grid, f.values
        self.grid, self.v = grid, v
        self.dim = max(grid.k - 1, 1)
        charts = np.ascontiguousarray(grid.points[:, : self.dim])
        if grid.k <= 2:
            self.hull = _upper_hull_indices(charts[:, 0], v)
        else:
            from scipy.spatial import ConvexHull  # imported here: a k = 2 run never loads scipy.spatial

            vmin, vmax = float(v.min()), float(v.max())
            floor = vmin - 1.0 - (vmax - vmin)
            lifted = np.column_stack([charts, v])
            # padding below the simplex corners closes the hull without touching its top
            padding = np.column_stack([np.eye(grid.k, grid.k - 1), np.full(grid.k, floor)])
            hull = ConvexHull(np.vstack([lifted, padding]), qhull_options="Qt")
            eq = hull.equations
            up = eq[:, -2] > 1e-9
            self.normals = eq[up, :-2]
            self.vert_norm = eq[up, -2]
            self.offsets = eq[up, -1]
            self.simplices = hull.simplices[up]
        self.values = np.maximum(self.at(charts), v)
        self.values.setflags(write=False)

    @cached_property
    def slack(self) -> float:
        """Absolute slack for deciding that the function attains the envelope."""
        return _DEG_RTOL * (1.0 + float(np.abs(self.v).max()))

    def _planes(self, charts: np.ndarray) -> np.ndarray:
        """Every upper-facet plane at each row of charts, (m, dim) -> (m, facets).

        Each row is read by its own (1, dim) @ (dim, facets) product, so a belief reads the same floats
        alone or in any batch, at a grid point or off it.
        """
        return -(self.offsets + (charts[:, None, :] @ self.normals.T)[:, 0]) / self.vert_norm

    def at(self, charts: np.ndarray) -> np.ndarray:
        """Hull or facet envelope at each row of charts (shape (m, dim) -> (m,)).

        Facet planes are read _PLANE_BUDGET values at a time, so a fine k >= 4 grid fits in memory.
        """
        if self.grid.k <= 2:
            s = self.grid.points[:, 0]
            return np.interp(charts[:, 0], s[self.hull], self.v[self.hull])
        rows = max(1, _PLANE_BUDGET // self.offsets.size)
        out = np.empty(len(charts))
        for i in range(0, len(charts), rows):
            out[i : i + rows] = self._planes(charts[i : i + rows]).min(axis=1)
        return out

    def split(self, charts: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Atoms (grid indices) and weights of an optimal split at each row of charts, below its envelope value.

        Row i splits onto the vertices of the hull piece above charts[i]: the
        ends of the upper-hull edge for k <= 2, for k >= 3 an upper facet
        whose plane is within slack of values[i] and whose barycentric weights
        at the row are nonnegative. Among such facets the lexicographically
        smallest vertex-index support wins, the first facet on ties. Returns
        (m, k) arrays whose slots past a row's support hold atom -1 and weight 0.
        """
        if self.grid.k <= 2:
            s, s_q = self.grid.points[:, 0], charts[:, 0]
            j = np.clip(np.searchsorted(s[self.hull], s_q, side="right"), 1, self.hull.size - 1)
            a, b = self.hull[j - 1], self.hull[j]
            wa = (s[b] - s_q) / (s[b] - s[a])
            return np.column_stack([a, b]), np.column_stack([wa, 1.0 - wa])
        n, k = self.grid.n, self.grid.k
        real = ~np.any(self.simplices >= n, axis=1)  # floor padding can only border degenerate planes
        atoms, weights = np.empty((len(charts), k), dtype=np.int64), np.empty((len(charts), k))
        # a block stacks at most _PLANE_BUDGET values of (k, k) systems
        per_block = max(1, _PLANE_BUDGET // (self.offsets.size * k * k))
        for i in range(0, len(charts), per_block):
            block, target = charts[i : i + per_block], values[i : i + per_block]
            near = self._planes(block) <= (target + _FACET_RTOL * (1.0 + np.abs(target)))[:, None]
            row, facet = np.nonzero(near & real)
            verts = self.simplices[facet]
            A = np.ones((row.size, k, k))
            A[:, :-1] = self.grid.points[verts, : self.dim].transpose(0, 2, 1)
            rhs = np.ones((row.size, k))
            rhs[:, :-1] = block[row]
            # LU finds a zero pivot (sign 0) on a singular facet, which would fail the whole stacked solve
            _, first, same = np.unique(facet, return_index=True, return_inverse=True)
            regular = (np.linalg.slogdet(A[first])[0] != 0.0)[same]
            row, verts, A, rhs = row[regular], verts[regular], A[regular], rhs[regular]
            w = np.linalg.solve(A, rhs[..., None])[..., 0]
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
            keep = keep[best]
            slots = np.argsort(~keep, axis=1, kind="stable")  # kept vertices first, in facet order
            atoms[i : i + per_block] = np.take_along_axis(np.where(keep, verts[best], -1), slots, axis=1)
            wk = np.take_along_axis(np.where(keep, w[best], 0.0), slots, axis=1)
            weights[i : i + per_block] = wk / wk.sum(axis=1, keepdims=True)
        return atoms, weights


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

    `verify obs1` reads it to certify that these k-atom splits attain the envelope.
    """
    return cav_splits(f, f.grid.points)


def _read(f: GridFn, q) -> tuple:
    """Beliefs q as a validated (m, k) batch, f's envelope, its values and interpolated f at q, and q's cells.

    `cav_at` and `cav_splits` both read through here, so each validates q and locates its cells once.
    """
    q = np.atleast_2d(validate_belief(q, f.grid.k))
    env = _envelope(f)
    idx, w, _ = f.grid._cells(q)
    fq = _vertex_sum(f.values, idx, w)
    return q, env, np.maximum(env.at(q[:, : env.dim]), fq), fq, idx, w


def cav_at(f: GridFn, q) -> tuple[np.ndarray, np.ndarray]:
    """Envelope of f and interpolated f at a belief or each row of an (m, k) batch, as arrays.

    Off the grid the envelope is the larger of the hull or facet reading and the interpolated
    function. Each row depends on that row alone, never on the batch; at the grid points the
    values are `cav_values` bit for bit.
    """
    return _read(f, q)[2:4]


def cav_splits(f: GridFn, q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Envelope values (`cav_at`) and optimal grid-supported splits at each row of an (m, k) batch of beliefs.

    Returns values (m,), atoms (m, k) grid indices and weights (m, k), positive weights first, then atom -1
    with weight 0. A row on the envelope gets its containing-cell lottery (degenerate at a grid point), a
    row below it `_Envelope.split`'s split; each row depends on that row alone, never on the batch.
    """
    q, env, values, fq, idx, w = _read(f, q)
    keep = w > 0.0
    slots = np.argsort(~keep, axis=1, kind="stable")  # positive weights first, in vertex order
    atoms = np.take_along_axis(np.where(keep, idx, -1), slots, axis=1)
    weights = np.take_along_axis(np.where(keep, w, 0.0), slots, axis=1)
    below = np.flatnonzero(fq < values - env.slack)
    if below.size:
        atoms[below], weights[below] = env.split(q[below, : env.dim], values[below])
    return values, atoms, weights


def cav_split_at(f: GridFn, q) -> tuple[float, np.ndarray, np.ndarray]:
    """Envelope value, posteriors (grid points) and positive weights of an optimal split at one belief."""
    (value,), (atoms,), (weights,) = cav_splits(f, np.asarray(q, dtype=float)[None])  # a batch fails as 3-d
    return float(value), f.grid.points[atoms[atoms >= 0]], weights[atoms >= 0]
