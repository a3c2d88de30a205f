"""Upper concave envelope of a grid function, with optimal generating splits.

The envelope at p is the largest value achievable by averaging the function
over a Bayes-plausible lottery on grid points with barycenter p. On the
two-state simplex this is a one-dimensional upper hull (monotone chain);
in higher dimension it is read off the upper facets of the lifted point set.
Both are built once per function by `_Envelope`, which every query reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull

from .belief import GridFn, Split, validate_belief
from .errors import SingularSystem

# Relative slack for "this atom already sits on the envelope" decisions.
_DEG_RTOL = 1e-11
# Slack when matching candidate facets against the envelope value.
_FACET_RTOL = 1e-9


@dataclass(frozen=True)
class CavResult:
    """Envelope values on the grid plus one optimal split per grid point."""

    cav: GridFn
    generator: list


def _upper_hull_indices(s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vertex indices of the upper hull of points (s, v), s strictly increasing."""
    hull: list[int] = []
    for i in range(s.size):
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

    @cached_property
    def slack(self) -> float:
        """Absolute slack for deciding that the function attains the envelope."""
        return _DEG_RTOL * (1.0 + float(np.abs(self.v).max()))

    def at(self, charts: np.ndarray) -> np.ndarray:
        """Hull or facet envelope at each row of charts (shape (m, dim) -> (m,))."""
        if self.grid.k <= 2:
            s = self.grid.points[:, 0]
            return np.interp(charts[:, 0], s[self.hull], self.v[self.hull])
        planes = -(self.offsets + charts @ self.normals.T) / self.vert_norm
        return planes.min(axis=1)

    def split(self, chart: np.ndarray, value: float) -> Split:
        """Optimal grid-supported split at a point strictly below the envelope."""
        if self.grid.k <= 2:
            idx, w = self._split_1d(float(chart[0]))
        else:
            idx, w = self._split_facets(chart, value)
        return Split(self.grid.points[idx].copy(), w)

    def _split_1d(self, s_q: float) -> tuple[np.ndarray, np.ndarray]:
        """Lex-smallest grid pair whose chord attains the envelope at s_q."""
        s = self.grid.points[:, 0]
        s_hull = s[self.hull]
        j = int(np.searchsorted(s_hull, s_q, side="right"))
        j = min(max(j, 1), s_hull.size - 1)
        # the left end of the maximal flat segment through s_q is a hull vertex
        a = int(self.hull[j - 1])
        b = -1
        for m in range(int(np.searchsorted(s, s_q, side="right")), s.size):
            if self.v[m] >= self.values[m] - self.slack and s[m] > s_q:
                b = m
                break
        if b < 0:
            raise SingularSystem("no right atom found for envelope split extraction")
        wa = (s[b] - s_q) / (s[b] - s[a])
        return np.array([a, b]), np.array([wa, 1.0 - wa])

    def _split_facets(self, chart: np.ndarray, target: float) -> tuple[np.ndarray, np.ndarray]:
        """Atoms (grid indices) and weights of a facet split attaining target.

        Among facets matching the envelope value the lexicographically
        smallest vertex-index support wins.
        """
        vals = -(self.offsets + self.normals @ chart) / self.vert_norm
        tol = _FACET_RTOL * (1.0 + abs(target))
        best: tuple | None = None
        for fi in np.nonzero(vals <= target + tol)[0]:
            verts = self.simplices[fi]
            if np.any(verts >= self.grid.n):
                continue  # floor padding can only border degenerate planes
            A = np.vstack([self.grid.points[verts, : self.dim].T, np.ones(verts.size)])
            rhs = np.append(chart, 1.0)
            try:
                w = np.linalg.solve(A, rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(w < -1e-9):
                continue
            keep = w > 1e-12
            sup = tuple(sorted(verts[keep].tolist()))
            if best is None or sup < best[0]:
                wk = np.clip(w[keep], 0.0, None)
                best = (sup, verts[keep], wk / wk.sum())
        if best is None:
            raise SingularSystem("no feasible facet found for envelope split extraction")
        return np.asarray(best[1], dtype=np.int64), best[2]


def cav_values(f: GridFn) -> np.ndarray:
    """Envelope values at every grid point (fast path, no split extraction)."""
    return _Envelope(f).values


def cav_grid(f: GridFn) -> CavResult:
    """Envelope of a grid function together with an optimal split at each point.

    Points already on the envelope get the degenerate split. Elsewhere the
    split atoms are grid points, at most k of them, averaging back to the
    point with value equal to the envelope.
    """
    env = _Envelope(f)
    points, cavv = f.grid.points, env.values
    on = f.values >= cavv - env.slack
    generator = [
        Split(points[i : i + 1].copy(), np.array([1.0])) if on[i]
        else env.split(points[i, : env.dim], cavv[i])
        for i in range(f.grid.n)
    ]
    return CavResult(cav=GridFn(f.grid, cavv), generator=generator)


def cav_split_at(f: GridFn, q) -> tuple[float, Split]:
    """Envelope value and an optimal grid-supported split at an arbitrary belief.

    When the interpolated function already attains the envelope the split is
    the enclosing-cell lottery (degenerate at q when q is a grid point).
    """
    env = _Envelope(f)
    q = validate_belief(q, f.grid.k)
    idx_cell, w_cell = f.grid.locate(q)
    fq = float(w_cell @ f.values[idx_cell])
    chart = q[: env.dim]
    value = max(float(env.at(chart[None, :])[0]), fq)
    if fq >= value - env.slack:
        keep = w_cell > 0.0
        return value, Split(f.grid.points[idx_cell[keep]].copy(), w_cell[keep])
    return value, env.split(chart, value)
