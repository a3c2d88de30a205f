import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from persuasionlab import (GridFn, belief, cav_grid, cav_split_at, cav_splits, cav_values, envelope,
                          interpolate, make_grid, validate_split)
from persuasionlab.belief import BeliefGrid
from persuasionlab.errors import SingularSystem


def cav_oracle_at(points, values, q):
    """Concave envelope at q by direct enumeration of supports.

    Tries every support of at most k grid points, solves the barycentric
    system, and keeps the best feasible mixture. Exponential, so only for
    tiny grids; independent of the hull construction under test.
    """
    n, k = points.shape
    target = np.append(np.asarray(q, dtype=float), 1.0)
    best = -np.inf
    for size in range(1, k + 1):
        for support in itertools.combinations(range(n), size):
            A = np.vstack([points[list(support)].T, np.ones(size)])
            w, *_ = np.linalg.lstsq(A, target, rcond=None)
            if np.any(w < -1e-9) or np.max(np.abs(A @ w - target)) > 1e-9:
                continue
            best = max(best, float(w @ values[list(support)]))
    return best


def random_fn(grid, seed):
    return GridFn(grid, np.random.default_rng(seed).uniform(0.0, 1.0, grid.n))


@pytest.mark.parametrize("resolution", [4, 6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_oracle_k2(resolution, seed):
    grid = make_grid(2, resolution)
    f = random_fn(grid, seed)
    got = cav_values(f)
    for i in range(grid.n):
        want = cav_oracle_at(grid.points, f.values, grid.points[i])
        assert got[i] == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("resolution", [2, 4])
@pytest.mark.parametrize("seed", [3, 4])
def test_matches_oracle_k3(resolution, seed):
    grid = make_grid(3, resolution)
    f = random_fn(grid, seed)
    got = cav_values(f)
    for i in range(grid.n):
        want = cav_oracle_at(grid.points, f.values, grid.points[i])
        assert got[i] == pytest.approx(want, abs=1e-9)


def test_vertex_indicator_k3():
    # mass 1 at one vertex lifts to the plane q -> q_0, so the envelope is
    # the first coordinate everywhere; at the adjacent edge midpoint it is 1/2
    grid = make_grid(3, 2)
    f = GridFn(grid, (grid.counts[:, 0] == 2).astype(float))
    got = cav_values(f)
    assert got == pytest.approx(grid.points[:, 0], abs=1e-12)
    mid = grid.index_of([1, 1, 0])
    assert got[mid] == pytest.approx(0.5, abs=1e-12)


def test_concave_input_is_fixed(tent):
    assert cav_values(tent) == pytest.approx(tent.values, abs=1e-12)


def test_convex_input_hits_chord(parabola, grid2):
    # endpoints are both 1, so the envelope is the constant 1
    assert cav_values(parabola) == pytest.approx(np.ones(grid2.n), abs=1e-12)


def test_dominates_and_idempotent():
    grid = make_grid(2, 60)
    f = random_fn(grid, 9)
    cavv = cav_values(f)
    assert np.all(cavv >= f.values - 1e-12)
    again = cav_values(GridFn(grid, cavv))
    assert again == pytest.approx(cavv, abs=1e-9)


def test_monotone_in_argument():
    grid = make_grid(2, 40)
    f = random_fn(grid, 10)
    g = GridFn(grid, f.values + np.random.default_rng(11).uniform(0.0, 0.5, grid.n))
    assert np.all(cav_values(g) >= cav_values(f) - 1e-12)


def test_affine_additivity():
    grid = make_grid(3, 6)
    f = random_fn(grid, 12)
    affine = grid.points @ np.array([0.5, -1.0, 2.0]) + 0.25
    shifted = cav_values(GridFn(grid, f.values + affine))
    assert shifted == pytest.approx(cav_values(f) + affine, abs=1e-9)


def test_concavity_along_grid_k2():
    grid = make_grid(2, 80)
    cavv = cav_values(random_fn(grid, 13))
    second = cavv[:-2] - 2.0 * cavv[1:-1] + cavv[2:]
    assert np.all(second <= 1e-9)


@pytest.mark.parametrize("k,resolution", [(2, 30), (3, 6)])
def test_generators_reconstruct_envelope(k, resolution):
    grid = make_grid(k, resolution)
    f = random_fn(grid, 20 + k)
    values, atoms, weights = cav_splits(f, grid.points)
    assert np.array_equal(values, cav_values(f))
    assert atoms.shape == weights.shape == (grid.n, k)
    for i in range(grid.n):
        keep = weights[i] > 0.0
        # positive weights come first, padding (atom -1) after
        assert not np.any(weights[i, : keep.sum()] == 0.0)
        assert np.all(atoms[i, keep.sum() :] == -1)
        posteriors, split_weights = grid.points[atoms[i, keep]], weights[i, keep]
        assert split_weights.size <= k
        validate_split(grid.points[i], posteriors, split_weights)
        support = [grid.index_of(np.rint(post * resolution).astype(int)) for post in posteriors]
        rebuilt = float(split_weights @ f.values[support])
        assert rebuilt == pytest.approx(values[i], abs=1e-9)


def test_degenerate_generator_where_touching(tent, grid2):
    _, atoms, weights = cav_splits(tent, grid2.points)
    assert np.array_equal(atoms, np.column_stack([np.arange(grid2.n), np.full(grid2.n, -1)]))
    assert np.array_equal(weights, np.tile([1.0, 0.0], (grid2.n, 1)))


@pytest.mark.parametrize("k,resolution,seed", [(2, 10, 30), (3, 4, 40), (3, 6, 50), (4, 3, 60)])
def test_split_at_off_grid_points(k, resolution, seed):
    grid = make_grid(k, resolution)
    f = random_fn(grid, seed)
    cavv = cav_values(f)
    rng = np.random.default_rng(seed + 1)
    for _ in range(25 if k == 2 else 8):
        q = rng.dirichlet(np.ones(k))
        value, posteriors, weights = cav_split_at(f, q)
        validate_split(q, posteriors, weights)
        atoms = [grid.index_of(np.rint(post * resolution).astype(int)) for post in posteriors]
        assert float(weights @ f.values[atoms]) == pytest.approx(value, abs=1e-9)
        if k == 2:
            # the envelope is affine between grid points, so interpolation is exact
            j = np.searchsorted(grid.points[:, 0], q[0])
            lo, hi = grid.points[j - 1, 0], grid.points[j, 0]
            t = (q[0] - lo) / (hi - lo)
            assert value == pytest.approx((1 - t) * cavv[j - 1] + t * cavv[j], abs=1e-9)
        else:
            assert value == pytest.approx(cav_oracle_at(grid.points, f.values, q), abs=1e-9)


def test_split_on_a_linear_stretch_uses_the_hull_edge():
    # f(p) = p_0 from p_0 = 0.3 on and 0 below: the envelope is p_0, one hull edge from
    # p_0 = 0 to p_0 = 1 with grid points 3..10 on it; a point below splits onto the edge's ends
    grid = make_grid(2, 10)
    p0 = grid.points[:, 0]
    f = GridFn(grid, np.where(p0 >= 0.3 - 1e-12, p0, 0.0))
    _, atoms, weights = cav_splits(f, grid.points)
    assert atoms[1].tolist() == [0, 10]
    assert weights[1] == pytest.approx([0.9, 0.1], abs=1e-15)
    value, posteriors, split_weights = cav_split_at(f, [0.15, 0.85])
    assert value == pytest.approx(0.15, abs=1e-15)
    assert sorted(posteriors[:, 0].tolist()) == [0.0, 1.0]
    validate_split([0.15, 0.85], posteriors, split_weights)


def test_facet_planes_are_read_within_the_budget(monkeypatch):
    # a smooth concave k=3 function with one dent has about 1600 upper facets at R=40; one full
    # table of their planes at the 861 grid points would take 11 MB, the budget below 32 KiB.
    # The dent fails both certificates, so the facets are Qhull's
    grid = make_grid(3, 40)
    values = -(grid.points**2).sum(axis=1)
    values[grid.index_of([10, 10, 20])] -= 0.01
    queries = np.random.default_rng(70).dirichlet(np.ones(3), 500)
    full = cav_values(GridFn(grid, values))
    full_at = envelope.cav_at(GridFn(grid, values), queries)[0]
    monkeypatch.setattr(envelope, "_PLANE_BUDGET", 1 << 12)
    f = GridFn(grid, values)
    tracemalloc.start()
    try:
        blocked = cav_values(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert envelope._envelope(f).offsets.size == 1598
    assert peak < 1 << 20
    assert np.array_equal(blocked, full)
    assert np.array_equal(envelope.cav_at(f, queries)[0], full_at)


def test_split_at_grid_point_agrees(grid2, parabola):
    value, posteriors, weights = cav_split_at(parabola, [0.5, 0.5])
    assert value == pytest.approx(1.0, abs=1e-12)
    assert weights.size == 2
    validate_split([0.5, 0.5], posteriors, weights)
    # the only way to reach 1 from the middle is the two endpoints
    assert sorted(posteriors[:, 1].tolist()) == pytest.approx([0.0, 1.0], abs=1e-12)


def test_constant_function():
    grid = make_grid(3, 4)
    f = GridFn(grid, np.full(grid.n, 0.7))
    assert cav_values(f) == pytest.approx(np.full(grid.n, 0.7), abs=1e-12)


def test_single_point_grid():
    grid = make_grid(1, 5)
    f = GridFn(grid, np.array([0.3]))
    assert cav_values(f) == pytest.approx([0.3])
    value, _, weights = cav_split_at(f, [1.0])
    assert value == pytest.approx(0.3)
    assert weights.size == 1


def scalar_upper_hull(s, v):
    """Reference for `envelope._upper_hull_indices`: the same monotone chain on numpy float64 scalars."""
    hull = []
    for i in range(s.size):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (s[b] - s[a]) * (v[i] - v[a]) - (v[b] - v[a]) * (s[i] - s[a]) >= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
    return np.asarray(hull, dtype=np.int64)


def hull_input(kind, n, seed):
    """Abscissae and values of one hull input of the given kind, n points."""
    rng = np.random.default_rng(seed)
    s = make_grid(2, max(n - 1, 1)).points[:n, 0]
    if kind == "drawn":
        v = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-3, 4)
    elif kind == "collinear":
        # exact lattice lines with a drawn run of points pushed below them
        v = 0.25 * np.arange(n) - 3.0
        v[rng.integers(0, n, n // 3)] -= 1.0
    elif kind == "tent":
        v = 1.0 - np.abs(2.0 * s - 1.0) + rng.uniform(-1e-15, 1e-15, n)
    elif kind == "constant":
        v = np.full(n, rng.uniform(-1.0, 1.0))
    else:  # a concave run ending in a spike: every point but the ends is popped at the last one
        v = -(s**2)
        v[-1] = 1e3
    return s, v


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["drawn", "collinear", "tent", "constant", "spike"]),
       n=st.one_of(st.integers(1, 2), st.integers(3, 120)), seed=st.integers(0, 2**32 - 1))
def test_upper_hull_matches_the_scalar_chain(kind, n, seed):
    s, v = hull_input(kind, n, seed)
    hull = envelope._upper_hull_indices(s, v)
    assert hull.dtype == np.int64
    assert np.array_equal(hull, scalar_upper_hull(s, v))
    assert hull[0] == 0 and hull[-1] == n - 1
    a, b, c = hull[:-2], hull[1:-1], hull[2:]
    turn = (s[b] - s[a]) * (v[c] - v[a]) - (v[b] - v[a]) * (s[c] - s[a])
    assert np.all(turn < 0.0)  # strictly clockwise at every inner vertex
    assert np.all(v <= np.interp(s, s[hull], v[hull]) + 1e-12 * (1.0 + np.abs(v).max()))


def qhull_facets(f):
    """Unit normals, vertical parts, offsets and vertex indices of the upper facets of f's lifted grid.

    Qhull builds them from the grid padded below its corners, whether or not a certificate
    names the envelope's facets, so the k >= 3 references read Qhull's planes.
    """
    grid, v = f.grid, f.values
    floor = v.min() - 1.0 - (v.max() - v.min())
    padding = np.column_stack([np.eye(grid.k, grid.k - 1), np.full(grid.k, floor)])
    hull = ConvexHull(np.vstack([np.column_stack([grid.points[:, :-1], v]), padding]), qhull_options="Qt")
    up = hull.equations[:, -2] > 1e-9
    eq = hull.equations[up]
    return eq[:, :-2], eq[:, -2], eq[:, -1], hull.simplices[up]


def qhull_envelope_at(f, q):
    """The envelope of f at each row of q read off Qhull's upper facets, and at least f's interpolant."""
    normals, vert_norm, offsets, _ = qhull_facets(f)
    planes = -(offsets + q[:, :-1] @ normals.T) / vert_norm
    return np.maximum(planes.min(axis=1), interpolate(f, q))


def reference_split_table(f):
    """Reference for `cav_splits` at the grid points: one split per point below the envelope.

    The k = 2 point takes the ends of the hull edge above it; the k >= 3
    point tries each candidate facet of Qhull's hull in turn and keeps the
    lexicographically smallest support, the first facet on ties.
    """
    env = envelope._envelope(f)
    if f.grid.k >= 3:
        normals, vert_norm, offsets, simplices = qhull_facets(f)
    grid, cavv = f.grid, env.values
    s = grid.points[:, 0]
    atoms = np.full((grid.n, grid.k), -1)
    atoms[:, 0] = np.arange(grid.n)
    weights = np.zeros((grid.n, grid.k))
    weights[:, 0] = 1.0
    for i in np.nonzero(f.values < cavv - env.slack)[0]:
        chart = grid.points[i, : env.dim]
        if grid.k <= 2:
            j = int(np.searchsorted(s[env.hull], float(chart[0]), side="right"))
            j = min(max(j, 1), env.hull.size - 1)
            a, b = int(env.hull[j - 1]), int(env.hull[j])
            wa = (s[b] - float(chart[0])) / (s[b] - s[a])
            idx, w = np.array([a, b]), np.array([wa, 1.0 - wa])
        else:
            vals = -(offsets + normals @ chart) / vert_norm
            best = None
            for fi in np.nonzero(vals <= cavv[i] + envelope._FACET_RTOL * (1.0 + abs(cavv[i])))[0]:
                verts = simplices[fi]
                if np.any(verts >= grid.n):
                    continue
                A = np.vstack([grid.points[verts, : env.dim].T, np.ones(verts.size)])
                try:
                    w = np.linalg.solve(A, np.append(chart, 1.0))
                except np.linalg.LinAlgError:
                    continue
                if np.any(w < -1e-9):
                    continue
                keep = w > 1e-12
                sup = tuple(sorted(verts[keep].tolist()))
                if best is None or sup < best[0]:
                    wk = np.clip(w[keep], 0.0, None)
                    best = (sup, verts[keep], wk / wk.sum())
            idx, w = best[1], best[2]
        atoms[i, : idx.size] = idx
        weights[i] = 0.0
        weights[i, : w.size] = w
    return atoms, weights


def split_tables():
    """Named grid functions whose split tables the batched extraction must reproduce."""
    rng = np.random.default_rng(80)
    for k, resolution in ((2, 60), (3, 8), (3, 20), (4, 5)):
        grid = make_grid(k, resolution)
        yield f"random k={k} R={resolution}", GridFn(grid, rng.uniform(0.0, 1.0, grid.n))
        noise = 0.2 * rng.uniform(0.0, 1.0, grid.n)
        yield f"rough concave k={k} R={resolution}", GridFn(grid, noise - (grid.points**2).sum(axis=1))
    grid = make_grid(3, 40)
    # pl3-like: the corners lie on one affine plane and every other point below it
    tilt = grid.points @ np.array([0.3, -0.2, 0.1])
    yield "one-facet envelope k=3", GridFn(grid, tilt + np.abs(grid.points - 1.0 / 3.0).sum(axis=1) - 4.0 / 3.0)
    for k, resolution in ((3, 12), (4, 6)):
        yield f"coplanar facets k={k}", coplanar_top(make_grid(k, resolution), rng)
    grid = make_grid(2, 200)
    tent = 1.0 - np.abs(2.0 * grid.points[:, 0] - 1.0)
    yield "tent k=2", GridFn(grid, tent + rng.uniform(-1e-15, 1e-15, grid.n))
    yield "notched tent k=2", GridFn(grid, np.where(np.arange(grid.n) % 7 == 3, tent - 0.05, tent))
    grid = make_grid(3, 12)
    bowl = ((grid.points - 0.3) ** 2).sum(axis=1)
    yield "full disclosure k=3", GridFn(grid, bowl)
    yield "no disclosure k=3", GridFn(grid, -bowl)


def coplanar_top(grid, rng):
    """One plane over the region p_k <= 1/2 that touches the function only at the region's corners.

    The region has more than k corners, so Qt cuts the flat top into coplanar
    facets; a point below their shared faces is held by several of them.
    """
    tilt = grid.points @ np.linspace(0.5, -0.5, grid.k) + 1.0
    head, last = grid.points[:, :-1].max(axis=1), grid.points[:, -1]
    corners = ((last == 0.0) & (head == 1.0)) | ((last == 0.5) & (head == 0.5))
    return GridFn(grid, np.where(corners, tilt, tilt - rng.uniform(0.1, 1.0, grid.n)))


@pytest.mark.parametrize("f", [pytest.param(f, id=name) for name, f in split_tables()])
def test_batched_splits_match_the_per_point_loop(f):
    values, atoms, weights = cav_splits(f, f.grid.points)
    want_atoms, want_weights = reference_split_table(f)
    corners = envelope._envelope(f).corners
    if corners is None:
        assert np.array_equal(atoms, want_atoms)
        assert np.array_equal(weights, want_weights)
    else:
        # under the pure-state plane a point splits onto the pure states, weighed by its own coordinates
        # in state order; Qhull's one facet names the same split, up to rounding, in its own vertex order
        whole = atoms[:, 1] < 0
        assert np.array_equal(atoms[whole], want_atoms[whole])
        assert np.array_equal(weights[whole], want_weights[whole])
        for i in np.flatnonzero(~whole):
            p = f.grid.points[i]
            m = np.count_nonzero(p)
            assert np.array_equal(atoms[i], np.append(corners[p > 0], [-1] * (f.grid.k - m)))
            assert np.array_equal(weights[i, :m], p[p > 0] / p.sum())
            want = dict(zip(want_atoms[i, :m].tolist(), want_weights[i, :m]))
            got = [want.get(a, np.nan) for a in atoms[i, :m].tolist()]
            assert got == pytest.approx(weights[i, :m], rel=0.0, abs=1e-15)
    for i in range(f.grid.n):
        value, split_posteriors, split_weights = cav_split_at(f, f.grid.points[i])
        m = split_weights.size
        assert value == values[i]
        assert np.array_equal(split_posteriors, f.grid.points[atoms[i, :m]])
        assert np.array_equal(split_weights, weights[i, :m])
        assert not np.any(weights[i, m:])


def test_batched_splits_are_read_within_the_budget(monkeypatch):
    grid = make_grid(3, 20)
    f = GridFn(grid, np.random.default_rng(81).uniform(0.0, 1.0, grid.n))
    full = cav_splits(f, grid.points)
    monkeypatch.setattr(envelope, "_PLANE_BUDGET", 64)
    blocked = cav_splits(GridFn(grid, f.values), grid.points)
    for got, want in zip(blocked, full):
        assert np.array_equal(got, want)


def test_split_without_a_feasible_facet_raises(monkeypatch):
    grid = make_grid(3, 6)
    f = GridFn(grid, np.random.default_rng(82).uniform(0.0, 1.0, grid.n))
    env = envelope._envelope(f)
    # every facet now borders the floor padding, so no facet may carry a split
    monkeypatch.setattr(env, "simplices", np.full_like(env.simplices, grid.n))
    with pytest.raises(SingularSystem, match="no feasible facet"):
        cav_splits(f, grid.points)
    with pytest.raises(SingularSystem, match="no feasible facet"):
        cav_split_at(f, grid.points[int(np.argmin(f.values - env.values))])


@settings(max_examples=60, deadline=None)
@given(k=st.sampled_from([3, 4]), rough=st.booleans(), m=st.integers(2, 50), seed=st.integers(0, 2**32 - 1))
def test_a_belief_reads_one_envelope_value_alone_in_a_batch_and_at_the_grid(k, rough, m, seed):
    # every k >= 3 reader takes its planes from one row-by-row product, so no reading depends on its batch
    rng = np.random.default_rng(seed)
    grid = make_grid(k, 12 if k == 3 else 6)
    noise = rng.uniform(0.0, 1.0, grid.n)
    f = GridFn(grid, noise if rough else 0.01 * noise - (grid.points**2).sum(axis=1))
    q = rng.dirichlet(np.ones(k), m)
    batch = envelope.cav_at(f, q)[0]
    assert np.array_equal(batch, [envelope.cav_at(f, row)[0][0] for row in q])
    assert np.array_equal(cav_splits(f, q)[0], batch)
    assert np.array_equal(cav_splits(f, grid.points)[0], cav_values(f))
    assert np.array_equal(envelope.cav_at(f, grid.points)[0], cav_values(f))
    for got, want in zip(cav_grid(f), cav_splits(f, grid.points)):
        assert np.array_equal(got, want)


def composed_cav_splits(f, q):
    """`cav_splits` as `cav_at` (interpolate) plus a second cell location for the containing-cell lottery."""
    q = np.atleast_2d(belief.validate_belief(q, f.grid.k))
    env = envelope._envelope(f)
    fq = interpolate(f, q)
    values = env.at(q, fq)
    idx, w, _ = f.grid._cells(q)
    keep = w > 0.0
    slots = np.argsort(~keep, axis=1, kind="stable")
    atoms = np.take_along_axis(np.where(keep, idx, -1), slots, axis=1)
    weights = np.take_along_axis(np.where(keep, w, 0.0), slots, axis=1)
    below = np.flatnonzero(fq < values - env.slack)
    if below.size:
        atoms[below], weights[below] = env.split(q[below], values[below])
    return values, atoms, weights


@pytest.mark.parametrize("k,resolution", [(2, 200), (3, 12)])
def test_cav_splits_validates_and_locates_once(k, resolution, monkeypatch):
    rng = np.random.default_rng(83)
    grid = make_grid(k, resolution)
    f = GridFn(grid, rng.uniform(0.0, 1.0, grid.n))
    # off-grid beliefs, on and below the envelope, and grid points
    q = np.vstack([rng.dirichlet(np.ones(k), 40), grid.points[:: max(1, grid.n // 20)]])
    want = composed_cav_splits(f, q)
    calls = {"cells": 0, "validate": 0}
    cells, validate = BeliefGrid._cells, belief.validate_belief

    def counting_cells(self, batch):
        calls["cells"] += 1
        return cells(self, batch)

    def counting_validate(*args):
        calls["validate"] += 1
        return validate(*args)

    monkeypatch.setattr(BeliefGrid, "_cells", counting_cells)
    monkeypatch.setattr(belief, "validate_belief", counting_validate)
    monkeypatch.setattr(envelope, "validate_belief", counting_validate)
    got = cav_splits(f, q)
    assert calls == {"cells": 1, "validate": 1}
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert (want[0] > interpolate(f, q) + 1e-6).any()  # some rows lie below the envelope and split


def certificate_table(kind, grid, seed):
    """A concave quadratic, one whose interpolant is concave, or a convex table (a quadratic or a maximum of planes).

    The first draws its Hessian at random; the second draws it in the cumulative counts z of
    `BeliefGrid._cells`, strictly diagonally dominant with negative off-diagonal entries, which
    makes it fold down across every pair of adjacent cells.
    """
    rng = np.random.default_rng(seed)
    k, p = grid.k, grid.points
    tilt = p @ rng.normal(size=k)
    if kind == "planes":
        return GridFn(grid, (p @ rng.normal(size=(k, 5))).max(axis=1))
    if kind == "cell-concave quadratic":
        z = np.cumsum(p, axis=1)[:, :-1]
        off = -rng.uniform(0.1, 1.0, (k - 1, k - 1))
        hessian = np.triu(off, 1) + np.triu(off, 1).T
        hessian += np.diag(rng.uniform(0.1, 1.0, k - 1) - hessian.sum(axis=1))
        return GridFn(grid, tilt - np.einsum("ij,jk,ik->i", z, hessian, z))
    root = rng.normal(size=(k, k)) * 10.0 ** rng.uniform(-1, 1, k)
    centered = p - rng.dirichlet(np.ones(k))
    bowl = np.einsum("ij,jk,ik->i", centered, root.T @ root, centered)
    return GridFn(grid, tilt + (bowl if kind == "convex quadratic" else -bowl))


@settings(max_examples=200, deadline=None)
@given(k=st.sampled_from([3, 4]), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["concave quadratic", "cell-concave quadratic", "convex quadratic", "planes"]))
def test_a_certified_envelope_is_the_qhull_envelope(k, kind, seed):
    grid = make_grid(k, 10 if k == 3 else 5)
    f = certificate_table(kind, grid, seed)
    env = envelope._envelope(f)
    # a convex table lies below the plane through its pure states, a curved concave one above it
    assert (env.corners is not None) == (kind in ("convex quadratic", "planes"))
    if kind == "cell-concave quadratic":
        assert env.concave
    if env.corners is None and not env.concave:
        assert env.offsets.size > 0  # neither certificate holds: Qhull built the facets
        return
    scale = 1e-12 * (1.0 + np.abs(f.values).max())
    q = np.vstack([np.random.default_rng(seed).dirichlet(np.ones(k), 40), grid.points])
    values, atoms, weights = cav_splits(f, q)
    assert np.abs(values - qhull_envelope_at(f, q)).max() <= scale
    assert np.abs(cav_values(f) - qhull_envelope_at(f, grid.points)).max() <= scale
    assert not env.concave or np.array_equal(values, interpolate(f, q))  # no row lies below a concave f
    for row, a, w in zip(q, atoms, weights):
        validate_split(row, grid.points[a[a >= 0]], w[a >= 0])
    assert np.abs(np.where(atoms >= 0, f.values[atoms] * weights, 0.0).sum(axis=1) - values).max() <= scale
