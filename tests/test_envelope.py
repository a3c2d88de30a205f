import itertools
import tracemalloc

import numpy as np
import pytest

from persuasionlab import GridFn, Split, cav_grid, cav_split_at, cav_values, envelope, make_grid, validate_split


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
    res = cav_grid(f)
    assert res.cav.values == pytest.approx(cav_values(f), abs=1e-12)
    assert res.atoms.shape == res.weights.shape == (grid.n, k)
    for i in range(grid.n):
        keep = res.weights[i] > 0.0
        # positive weights come first, padding after
        assert not np.any(res.weights[i, : keep.sum()] == 0.0)
        split = Split(grid.points[res.atoms[i, keep]], res.weights[i, keep])
        assert split.size <= k
        validate_split(grid.points[i], split)
        atoms = [grid.index_of(np.rint(post * resolution).astype(int)) for post in split.posteriors]
        rebuilt = float(split.weights @ f.values[atoms])
        assert rebuilt == pytest.approx(res.cav.values[i], abs=1e-9)


def test_degenerate_generator_where_touching(tent, grid2):
    res = cav_grid(tent)
    assert np.array_equal(res.atoms[:, 0], np.arange(grid2.n))
    assert np.array_equal(res.weights, np.tile([1.0, 0.0], (grid2.n, 1)))


@pytest.mark.parametrize("k,resolution,seed", [(2, 10, 30), (3, 4, 40), (3, 6, 50), (4, 3, 60)])
def test_split_at_off_grid_points(k, resolution, seed):
    grid = make_grid(k, resolution)
    f = random_fn(grid, seed)
    cavv = cav_values(f)
    rng = np.random.default_rng(seed + 1)
    for _ in range(25 if k == 2 else 8):
        q = rng.dirichlet(np.ones(k))
        value, split = cav_split_at(f, q)
        validate_split(q, split)
        atoms = [grid.index_of(np.rint(post * resolution).astype(int)) for post in split.posteriors]
        assert float(split.weights @ f.values[atoms]) == pytest.approx(value, abs=1e-9)
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
    res = cav_grid(f)
    assert res.atoms[1].tolist() == [0, 10]
    assert res.weights[1] == pytest.approx([0.9, 0.1], abs=1e-15)
    value, split = cav_split_at(f, [0.15, 0.85])
    assert value == pytest.approx(0.15, abs=1e-15)
    assert sorted(split.posteriors[:, 0].tolist()) == [0.0, 1.0]
    validate_split([0.15, 0.85], split)


def test_facet_planes_are_read_within_the_budget(monkeypatch):
    # a smooth concave k=3 function has 1600 upper facets at R=40; one full table of their
    # planes at the 861 grid points would take 11 MB, the budget below 32 KiB
    grid = make_grid(3, 40)
    values = -(grid.points**2).sum(axis=1)
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
    assert peak < 1 << 20
    assert blocked == pytest.approx(full, abs=1e-15)
    assert envelope.cav_at(f, queries)[0] == pytest.approx(full_at, abs=1e-15)


def test_split_at_grid_point_agrees(grid2, parabola):
    value, split = cav_split_at(parabola, [0.5, 0.5])
    assert value == pytest.approx(1.0, abs=1e-12)
    assert split.size == 2
    validate_split([0.5, 0.5], split)
    # the only way to reach 1 from the middle is the two endpoints
    assert sorted(split.posteriors[:, 1].tolist()) == pytest.approx([0.0, 1.0], abs=1e-12)


def test_constant_function():
    grid = make_grid(3, 4)
    f = GridFn(grid, np.full(grid.n, 0.7))
    assert cav_values(f) == pytest.approx(np.full(grid.n, 0.7), abs=1e-12)


def test_single_point_grid():
    grid = make_grid(1, 5)
    f = GridFn(grid, np.array([0.3]))
    assert cav_values(f) == pytest.approx([0.3])
    value, split = cav_split_at(f, [1.0])
    assert value == pytest.approx(0.3)
    assert split.size == 1
