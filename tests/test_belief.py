import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import persuasionlab
from persuasionlab import (
    GridFn,
    bayes_posterior,
    interpolate,
    kernel_from_split,
    make_grid,
    split_from_kernel,
    validate_belief,
    validate_split,
)
from persuasionlab import belief
from persuasionlab.belief import bayes_update
from persuasionlab.errors import (
    BadWeights,
    DimensionMismatch,
    InvalidSplit,
    NotBayesPlausible,
    SizeOverflow,
)

# split realized by kernel [[0.8, 0.2], [0.4, 0.6]] at the uniform prior,
# worked by hand: signal probabilities (0.6, 0.4), posteriors (2/3, 1/3)
# and (1/4, 3/4)
KERNEL = np.array([[0.8, 0.2], [0.4, 0.6]])
PRIOR = np.array([0.5, 0.5])


def beliefs(k):
    return st.lists(st.floats(0.001, 1.0), min_size=k, max_size=k).map(
        lambda w: np.array(w) / np.sum(w)
    )


def test_validate_belief_passes_and_normalizes_dtype():
    q = validate_belief([0.25, 0.75])
    assert q.dtype == np.float64
    assert q == pytest.approx([0.25, 0.75])


def test_validate_belief_rejects_bad_sum_negative_and_size():
    with pytest.raises(NotBayesPlausible):
        validate_belief([0.5, 0.6])
    with pytest.raises(NotBayesPlausible):
        validate_belief([1.2, -0.2])
    with pytest.raises(DimensionMismatch):
        validate_belief([0.5, 0.5], k=3)


def test_validate_belief_checks_every_row_of_a_batch():
    good = np.array([[0.25, 0.75], [1.0, 0.0], [0.5, 0.5]])
    assert np.array_equal(validate_belief(good, k=2), good)
    with pytest.raises(NotBayesPlausible):
        validate_belief(np.array([[0.25, 0.75], [0.5, 0.6], [0.5, 0.5]]))
    with pytest.raises(NotBayesPlausible):
        validate_belief(np.array([[0.25, 0.75], [1.2, -0.2]]))


def test_grid_sizes():
    assert make_grid(2, 200).n == 201
    assert make_grid(3, 4).n == 15
    assert make_grid(1, 7).n == 1
    # about 2.7e11 points, over the 2,000,000-point budget: refused before anything is allocated
    with pytest.raises(SizeOverflow):
        make_grid(6, 500)


@pytest.mark.parametrize("k, resolution", [(1, 10**7), (3, 1000)])
def test_a_grid_build_holds_about_what_the_grid_keeps(k, resolution):
    # a one-point grid at a large resolution builds in under 1 MiB, and a large grid in under
    # twice its points and counts: no Python object per point, and no table sized by R alone
    tracemalloc.start()
    try:
        grid = make_grid(k, resolution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < max(2 * (grid.points.nbytes + grid.counts.nbytes), 2**20)


def test_grid_counts_and_points_agree():
    grid = make_grid(3, 5)
    assert np.all(grid.counts.sum(axis=1) == 5)
    assert np.allclose(grid.points, grid.counts / 5.0)


@pytest.mark.parametrize("k, resolution", [(1, 7), (2, 10), (3, 6), (4, 5), (5, 4), (6, 3), (1, 10**7)])
def test_index_of_roundtrip(k, resolution):
    grid = make_grid(k, resolution)
    for i in range(grid.n):
        assert grid.index_of(grid.counts[i]) == i
    assert np.array_equal(grid.index_of(grid.counts), np.arange(grid.n))


@pytest.mark.parametrize("counts", [[4, 0], [4, 1, 0], [3, 0, 0], [5, -1, 0], [4.9, 0, 0], [3.5, 0.5, 0]])
def test_index_of_rejects_non_lattice_counts(counts):
    with pytest.raises(DimensionMismatch):
        make_grid(3, 4).index_of(counts)


def cell_row(mat, i):
    """Grid indices and weights of row i of an interpolation matrix: the containing cell of query i."""
    row = slice(mat.indptr[i], mat.indptr[i + 1])
    return mat.indices[row], mat.data[row]


def test_locate_at_grid_points_is_exact():
    grid = make_grid(3, 7)
    mat = grid.interp_matrix(grid.points)
    for i in range(grid.n):
        idx, w = cell_row(mat, i)
        assert idx.tolist() == [i]
        assert w.tolist() == [1.0]


def test_interpolate_midpoint_1d():
    grid = make_grid(2, 2)  # points (1,0), (.5,.5), (0,1)
    f = GridFn(grid, np.array([0.0, 1.0, 0.0]))
    assert interpolate(f, [0.75, 0.25]) == pytest.approx(0.5, abs=1e-12)


def test_interpolate_affine_exact_2d():
    grid = make_grid(3, 9)
    a = np.array([0.3, -1.2, 2.0])
    f = GridFn(grid, grid.points @ a + 0.7)
    rng = np.random.default_rng(11)
    for _ in range(50):
        q = rng.dirichlet(np.ones(3))
        assert interpolate(f, q) == pytest.approx(q @ a + 0.7, abs=1e-9)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_locate_weights_reconstruct_query(k, data):
    q = data.draw(beliefs(k))
    grid = make_grid(k, 6)
    idx, w = cell_row(grid.interp_matrix(q), 0)
    assert np.all(w >= -1e-12)
    assert np.sum(w) == pytest.approx(1.0, abs=1e-9)
    assert grid.points[idx].T @ w == pytest.approx(q, abs=1e-9)


def test_interp_matrix_rows_are_barycentric():
    grid = make_grid(3, 8)
    rng = np.random.default_rng(2)
    queries = rng.dirichlet(np.ones(3), size=40)
    mat = grid.interp_matrix(queries)
    assert mat.shape == (40, grid.n)
    ones = np.asarray(mat.sum(axis=1)).ravel()
    assert ones == pytest.approx(np.ones(40), abs=1e-9)
    assert mat @ grid.points[:, 0] == pytest.approx(queries[:, 0], abs=1e-9)


def locate_by_loop(grid, q):
    """Containing cell found one axis and one vertex at a time (reference)."""
    R, k = grid.resolution, grid.k
    z = np.cumsum(q * R)[: k - 1]
    base = [round(zj) if abs(zj - round(zj)) <= 1e-10 else math.floor(zj) for zj in z]
    frac = [0.0 if abs(zj - round(zj)) <= 1e-10 else zj - bj for zj, bj in zip(z, base)]
    order = sorted((j for j in range(k - 1) if frac[j] > 0.0), key=lambda j: (-frac[j], -j))
    gs = [frac[j] for j in order] + [0.0]
    verts, weights = [list(base)], [1.0 - gs[0]]
    for t, j in enumerate(order):
        verts.append(verts[-1].copy())
        verts[-1][j] += 1
        weights.append(gs[t] - gs[t + 1])
    rows = {tuple(c): i for i, c in enumerate(grid.counts.tolist())}
    idx = [rows[tuple(np.diff([0, *zv, R]).tolist())] for zv in verts]
    weights = np.clip(weights, 0.0, None)
    return np.array(idx), weights / weights.sum()


@pytest.mark.parametrize("k, resolution", [(1, 5), (2, 12), (3, 7), (4, 5), (5, 4)])
def test_batched_location_matches_single_beliefs(k, resolution):
    grid = make_grid(k, resolution)
    rng = np.random.default_rng(k)
    a, b = rng.integers(0, grid.n, size=(2, 60))
    # midpoints of grid pairs put equal fractional parts on several axes
    queries = np.vstack([rng.dirichlet(np.ones(k), size=60), grid.points,
                         (grid.points[a] + grid.points[b]) / 2])
    mat = grid.interp_matrix(queries)
    for i, q in enumerate(queries):
        idx, w = cell_row(mat, i)
        want_idx, want_w = locate_by_loop(grid, q)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(w, want_w)
        alone_idx, alone_w = cell_row(grid.interp_matrix(q), 0)
        assert np.array_equal(alone_idx, idx)
        assert np.array_equal(alone_w, w)
    f = GridFn(grid, rng.random(grid.n))
    assert np.array_equal(interpolate(f, queries), [interpolate(f, q) for q in queries])


@pytest.mark.parametrize("k, resolution", [(1, 5), (2, 200), (3, 40), (4, 12), (5, 8), (8, 3)])
def test_interpolate_equals_the_interpolation_operator(k, resolution):
    # the solver reads values through interp_matrix and everything else through
    # interpolate; both must give the same bits, sign of zero included
    grid = make_grid(k, resolution)
    rng = np.random.default_rng(k)
    M = rng.dirichlet(np.full(k, 0.5), size=k)
    queries = np.vstack([grid.points, grid.points @ M, M, rng.dirichlet(np.full(k, 0.3), size=500)])
    for _ in range(4):
        f = GridFn(grid, rng.choice([-1.0, 1.0], grid.n) * 10.0 ** rng.uniform(-3, 3, grid.n))
        want = grid.interp_matrix(queries) @ f.values
        got = interpolate(f, queries)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert [interpolate(f, q) for q in M] == want[2 * grid.n : 2 * grid.n + k].tolist()


def test_interpolation_is_exact_at_the_points_of_a_near_cap_grid():
    # scaling a point of the R = 1,999,999 lattice by R misses its coordinate by up to 1.2e-10,
    # past a fixed 1e-10 snap, so 223 of these 20,000 points once read back off by up to 1.1e-10
    grid = make_grid(2, 1_999_999)
    rng = np.random.default_rng(0)
    f = GridFn(grid, rng.random(grid.n))
    at = rng.integers(0, grid.n, 20_000)
    assert interpolate(f, grid.points[at]).tobytes() == f.values[at].tobytes()


def reference_rank(grid, z):
    """`BeliefGrid._rank` as it was when it summed its Pascal lookups along the axis (reference)."""
    beyond = grid._pascal[np.arange(grid.k - 2, -1, -1), grid.resolution - z]
    return grid.n - 1 - beyond.sum(axis=-1)


def reference_cells(grid, q):
    """`BeliefGrid._cells` as it was with a cumsum, two argsorts and a concatenate along the axis (reference)."""
    m, k, R = q.shape[0], grid.k, grid.resolution
    z = np.cumsum(q * R, axis=1)[:, : k - 1]
    nearest = np.rint(z)
    snap = np.abs(z - nearest) <= max(belief._SNAP, 4 * k * R * np.finfo(float).eps)
    base = np.where(snap, nearest, np.floor(z))
    frac = np.where(snap, 0.0, z - base)
    order = k - 2 - np.argsort(-frac[:, ::-1], axis=1, kind="stable")
    g = np.take_along_axis(frac, order, axis=1)
    h = np.concatenate([np.ones((m, 1)), g, np.zeros((m, 1))], axis=1)
    real = h[:, :-1] > 0.0
    weights = np.maximum(h[:, :-1] - h[:, 1:], 0.0)
    weights /= weights.sum(axis=1, keepdims=True)
    stepped = (np.argsort(order, axis=1)[:, None, :] < np.arange(k)[:, None]) & (frac[:, None, :] > 0.0)
    verts = np.clip(base, 0, R).astype(np.int64)[:, None, :] + stepped
    if (verts[:, :, 1:] < verts[:, :, :-1]).any() or (verts > R).any():
        raise DimensionMismatch("query left the simplex lattice; belief too far off the simplex")
    return reference_rank(grid, verts), weights, real


def locator_queries(grid, rng, m):
    """Random beliefs, grid points, beliefs with tied fractional parts and points near a lattice hyperplane.

    Multiples of 1 / (4R) scale and add exactly when R is a power of two, so their cumulative
    coordinates tie exactly at fractional parts 0.25, 0.5 and 0.75; moving up to 1e-9 / R of mass
    off a grid point lands within the snap tolerance of its hyperplanes or just beyond it.
    """
    k, R = grid.k, grid.resolution
    shares = rng.dirichlet(np.ones(k), m)
    ties = rng.multinomial(4 * R, shares[0], m) / (4 * R)
    a, b = rng.integers(0, grid.n, (2, m))
    near = grid.points[a].copy()
    src = np.argmax(near > 0.0, axis=1)  # a coordinate with mass to move
    moved = 10.0 ** rng.uniform(-17, -9, m) / R * near[np.arange(m), src]
    near[np.arange(m), src] -= moved
    near[np.arange(m), rng.integers(0, k, m)] += moved
    queries = np.vstack([shares, rng.dirichlet(np.full(k, 0.3), m), grid.points[a],
                         (grid.points[a] + grid.points[b]) / 2, ties, near])
    return validate_belief(queries, k)


LOCATOR_GRIDS = [(1, 4), (1, 7), (2, 7), (2, 64), (3, 8), (3, 13), (4, 4), (4, 6), (5, 4), (5, 3)]


@settings(max_examples=150, deadline=None)
@given(grid_size=st.sampled_from(LOCATOR_GRIDS), m=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
@example(grid_size=(3, 8), m=30, seed=3)  # holds ties (see the next test), so a tie-order fault fails at once
def test_the_cell_locator_matches_the_reference_bit_for_bit(grid_size, m, seed):
    grid = make_grid(*grid_size)
    q = locator_queries(grid, np.random.default_rng(seed), m)
    for got, want in zip(grid._cells(q), reference_cells(grid, q), strict=True):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_the_locator_queries_hold_exact_ties():
    # the tie rows of a power-of-two grid repeat a positive fractional part exactly
    grid = make_grid(3, 8)
    q = locator_queries(grid, np.random.default_rng(3), 30)[4 * 30 : 5 * 30]
    frac = np.cumsum(q * 8, axis=1)[:, :2] % 1.0
    assert ((frac[:, 0] == frac[:, 1]) & (frac[:, 0] > 0.0)).sum() >= 3


@pytest.mark.parametrize("q", [[1.55, -0.55], [0.5, 0.7, -0.2], [0.5, -0.3, 0.8], [0.1, 0.5, -0.4, 0.8]])
def test_the_cell_locator_refuses_a_query_off_the_simplex(q):
    grid = make_grid(len(q), 6)
    for locate in (grid._cells, lambda batch: reference_cells(grid, batch)):
        with pytest.raises(DimensionMismatch, match="off the simplex"):
            locate(np.array([q]))


@pytest.mark.parametrize("k, resolution", [(1, 5), (2, 200), (3, 12), (4, 6), (5, 4)])
def test_the_grid_points_own_cells_are_where_the_locator_puts_them(k, resolution):
    grid = make_grid(k, resolution)
    cells = grid._point_cells()
    for got, want in zip(cells, grid._cells(grid.points)[:2], strict=True):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert all(arr[:, j].flags.c_contiguous for arr in cells for j in range(k))
    assert grid._point_cells()[1] is not cells[1]  # built on each call, kept by none


def test_split_mean_and_size():
    posteriors, weights = np.array([[2 / 3, 1 / 3], [0.25, 0.75]]), np.array([0.6, 0.4])
    assert weights.size == 2
    assert weights @ posteriors == pytest.approx(PRIOR, abs=1e-12)
    validate_split(PRIOR, posteriors, weights)


def test_a_split_is_two_arrays():
    # the split helpers pass (posteriors, weights), so a kernel's split feeds kernel_from_split as is
    assert not hasattr(persuasionlab, "Split") and not hasattr(belief, "Split")
    posteriors, weights = split_from_kernel(PRIOR, KERNEL)
    assert type(posteriors) is np.ndarray and type(weights) is np.ndarray
    assert posteriors.shape == (2, 2) and weights.shape == (2,)
    assert np.allclose(kernel_from_split(PRIOR, *split_from_kernel(PRIOR, KERNEL)), KERNEL, rtol=0.0, atol=1e-12)
    # one atom may come as a 1-d posterior, and weights in any shape
    validate_split(PRIOR, PRIOR, [[1.0]])
    assert np.array_equal(kernel_from_split(PRIOR, PRIOR, [[1.0]]), [[1.0], [1.0]])


def test_validate_split_rejections():
    good = np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.5, 0.5])
    validate_split(PRIOR, *good)
    with pytest.raises(NotBayesPlausible):
        validate_split([0.6, 0.4], *good)
    with pytest.raises(BadWeights):
        validate_split(PRIOR, np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.7, 0.4]))
    with pytest.raises(DimensionMismatch):
        validate_split(PRIOR, np.array([[1.0, 0.0, 0.0]]), np.array([1.0]))


def test_split_from_kernel_worked_example():
    posteriors, weights = split_from_kernel(PRIOR, KERNEL)
    assert weights == pytest.approx([0.6, 0.4], abs=1e-12)
    assert posteriors[0] == pytest.approx([2 / 3, 1 / 3], abs=1e-12)
    assert posteriors[1] == pytest.approx([0.25, 0.75], abs=1e-12)


def test_split_from_kernel_drops_dead_signals():
    kernel = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    posteriors, weights = split_from_kernel(PRIOR, kernel)
    assert weights.size == 1
    assert posteriors[0] == pytest.approx(PRIOR)


@pytest.mark.parametrize("k", [2, 3])
def test_split_from_kernel_rejects_a_nan_entry(k):
    # NaN fails no comparison, so a check written with < and > would pass it
    kernel = np.full((k, 2), 0.5)
    kernel[0] = [np.nan, 1.0]
    with pytest.raises(InvalidSplit):
        split_from_kernel(np.full(k, 1.0 / k), kernel)


def test_kernel_from_split_roundtrip():
    posteriors, weights = split_from_kernel(PRIOR, KERNEL)
    kernel = kernel_from_split(PRIOR, posteriors, weights)
    back_posteriors, back_weights = split_from_kernel(PRIOR, kernel)
    assert back_weights == pytest.approx(weights, abs=1e-9)
    assert np.allclose(back_posteriors, posteriors, atol=1e-9)


def test_kernel_from_split_zero_mass_state():
    # a state with prior zero gets a uniform row, and it never matters
    p = np.array([1.0, 0.0])
    kernel = kernel_from_split(p, np.array([[1.0, 0.0]]), np.array([1.0]))
    assert kernel.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-12)


def test_kernel_from_split_zero_mass_row_skips_zero_weight_atoms():
    # the zero-mass row is uniform over the atoms that carry weight
    p = np.array([0.5, 0.5, 0.0])
    kernel = kernel_from_split(p, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]]),
                               np.array([0.5, 0.5, 0.0]))
    assert np.array_equal(kernel[2], [0.5, 0.5, 0.0])
    assert np.array_equal(kernel[:2], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_kernel_from_split_row_of_an_uncovered_state_is_uniform():
    # a positive prior within the barycenter tolerance of 0 that no atom covers: the row is
    # uniform over the atoms that carry weight, not 0 / 0
    p = np.array([0.5 - 5e-14, 0.5 - 5e-14, 1e-13])
    split = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), np.array([0.5, 0.5])
    assert np.array_equal(kernel_from_split(p, *split), [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])


def test_bayes_update_gives_the_prior_after_a_dead_signal():
    kernel = np.array([[0.8, 0.2, 0.0], [0.4, 0.6, 0.0]])
    alphas, posteriors = bayes_update(PRIOR, kernel)
    assert np.array_equal(alphas, PRIOR @ kernel)
    assert np.array_equal(posteriors[2], PRIOR)
    split_posteriors, split_weights = split_from_kernel(PRIOR, kernel)
    assert np.array_equal(split_weights, alphas[:2])
    assert np.array_equal(split_posteriors, posteriors[:2])
    for s in range(2):
        alpha, post = bayes_posterior(PRIOR, kernel, s)
        assert alpha == alphas[s] and np.array_equal(post, posteriors[s])


def test_kernel_from_split_rejects_wrong_barycenter():
    with pytest.raises(InvalidSplit):
        kernel_from_split([0.9, 0.1], np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.5, 0.5]))


def test_bayes_posterior_matches_split():
    alpha, post = bayes_posterior(PRIOR, KERNEL, 0)
    assert alpha == pytest.approx(0.6, abs=1e-12)
    assert post == pytest.approx([2 / 3, 1 / 3], abs=1e-12)
    with pytest.raises(InvalidSplit):
        bayes_posterior(PRIOR, np.array([[1.0, 0.0], [1.0, 0.0]]), 1)


@settings(max_examples=100, deadline=None)
@given(p=beliefs(3), raw=st.lists(st.floats(0.01, 1.0), min_size=9, max_size=9))
def test_posterior_martingale(p, raw):
    kernel = np.array(raw).reshape(3, 3)
    kernel /= kernel.sum(axis=1, keepdims=True)
    posteriors, weights = split_from_kernel(p, kernel)
    validate_split(p, posteriors, weights)
    assert weights @ posteriors == pytest.approx(p, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(p=beliefs(3), raw=st.lists(st.floats(0.01, 1.0), min_size=12, max_size=12))
def test_kernel_split_kernel_roundtrip(p, raw):
    kernel = np.array(raw).reshape(3, 4)
    kernel /= kernel.sum(axis=1, keepdims=True)
    posteriors, weights = split_from_kernel(p, kernel)
    rebuilt = kernel_from_split(p, posteriors, weights)
    again_posteriors, again_weights = split_from_kernel(p, rebuilt)
    assert again_weights == pytest.approx(weights, abs=1e-9)
    assert np.allclose(again_posteriors, posteriors, atol=1e-8)


def test_gridfn_validates_shape(grid2):
    with pytest.raises(DimensionMismatch):
        GridFn(grid2, np.zeros(7))
    with pytest.raises(ValueError):
        GridFn(grid2, np.full(grid2.n, np.nan))


def test_interpolate_reads_a_gridfn_at_a_belief(tent):
    assert interpolate(tent, [0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)
