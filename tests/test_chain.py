import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persuasionlab import (GridFn, Scenario, ergodic_frequency_se, make_grid, sample_path, solve, solver,
                           stationary, validate_chain)
from persuasionlab.chain import ROW_SUM_TOL, cum_rows, scan_states
from persuasionlab.errors import NotIrreducible, NotStochastic


def test_stationary_canonical(chain2):
    assert chain2.pi == pytest.approx([4 / 7, 3 / 7], abs=1e-12)


def test_stationary_symmetric():
    chain = validate_chain(np.array([[0.9, 0.1], [0.1, 0.9]]))
    assert chain.pi == pytest.approx([0.5, 0.5], abs=1e-12)


def test_stationary_doubly_stochastic_is_uniform():
    M = np.array([
        [0.2, 0.5, 0.3],
        [0.5, 0.3, 0.2],
        [0.3, 0.2, 0.5],
    ])
    chain = validate_chain(M)
    assert chain.pi == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-12)


def test_stationary_is_invariant(chain2):
    assert chain2.pi @ chain2.M == pytest.approx(chain2.pi, abs=1e-12)


def test_periodic_two_cycle_ok():
    chain = validate_chain(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert chain.pi == pytest.approx([0.5, 0.5], abs=1e-12)


def test_rejects_bad_row_sum():
    with pytest.raises(NotStochastic):
        validate_chain(np.array([[0.7, 0.31], [0.4, 0.6]]))


def test_rejects_negative_entry():
    with pytest.raises(NotStochastic):
        validate_chain(np.array([[1.1, -0.1], [0.4, 0.6]]))


def test_rejects_non_square():
    with pytest.raises(NotStochastic):
        validate_chain(np.array([[0.5, 0.5]]))


def near_stochastic(k, cycle, scale, rng):
    """A stochastic matrix, cycle parts a k-cycle, with every entry moved by up to scale either way.

    The cycle keeps the chain irreducible; at cycle = 1 the zeros off it turn slightly negative.
    """
    base = cycle * np.roll(np.eye(k), 1, axis=1) + (1.0 - cycle) * rng.dirichlet(np.ones(k), k)
    return base + scale * rng.uniform(-1.0, 1.0, (k, k))


def solves_on_its_chain(chain, rng):
    """Build the chain's operators on a small grid and solve a random payoff there with revelations."""
    grid = make_grid(chain.k, 20 if chain.k == 2 else 6)
    sc = Scenario(chain=chain, u=GridFn(grid, rng.uniform(0.0, 1.0, grid.n)), discount=0.9, reveal_rate=0.5)
    solver._dynamics(sc)
    return solve(sc, "reveal")


@settings(max_examples=120, deadline=None)
@given(k=st.sampled_from([2, 3]), cycle=st.sampled_from([0.0, 0.9, 1.0]), scale=st.floats(-16.0, -10.0),
       seed=st.integers(0, 2**32 - 1))
def test_every_matrix_the_chain_accepts_builds_its_operators_and_solves(k, cycle, scale, seed):
    # neither NotBayesPlausible (a row or a next belief refused by validate_belief) nor SingularSystem
    # (the stationary residual) may follow an accepted matrix
    rng = np.random.default_rng(seed)
    try:
        chain = validate_chain(near_stochastic(k, cycle, 10.0**scale, rng))
    except NotStochastic:
        return
    solves_on_its_chain(chain, rng)


@pytest.mark.parametrize("k", [2, 3])
def test_rows_off_by_less_than_the_tolerance_are_accepted_and_solve(k):
    rng = np.random.default_rng(k)
    M = near_stochastic(k, 0.5, 0.0, rng)
    M[:, 0] += 0.9 * ROW_SUM_TOL  # every row sum just inside the tolerance, above 1
    solves_on_its_chain(validate_chain(M), rng)
    M[:, 0] -= 1.8 * ROW_SUM_TOL  # and below it
    solves_on_its_chain(validate_chain(M), rng)
    M[0, 0] -= 0.2 * ROW_SUM_TOL
    with pytest.raises(NotStochastic, match="row 0 sums to"):
        validate_chain(M)


def test_rejects_reducible():
    with pytest.raises(NotIrreducible):
        validate_chain(np.eye(2))
    with pytest.raises(NotIrreducible):
        validate_chain(np.array([[0.5, 0.5], [0.0, 1.0]]))


def test_irreducibility_matches_strong_components_of_the_pattern():
    # reference: scipy's strongly connected components of the positivity pattern
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(19)
    for _ in range(3000):
        k = int(rng.integers(1, 9))
        pattern = rng.random((k, k)) < rng.uniform(0.05, 0.6)
        n_comp, _ = connected_components(csr_matrix(pattern), directed=True, connection="strong")
        # the same pattern as a row-stochastic matrix, with a self-loop where a row has no other entry
        M = np.where(pattern, rng.uniform(0.1, 1.0, (k, k)), 0.0)
        M[np.diag_indices(k)] += M.sum(axis=1) == 0.0
        M /= M.sum(axis=1, keepdims=True)
        if n_comp == 1:
            validate_chain(M)
        else:
            with pytest.raises(NotIrreducible, match=f"splits into {n_comp} strongly"):
                validate_chain(M)


def test_matrices_are_read_only(chain2):
    with pytest.raises(ValueError):
        chain2.M[0, 0] = 0.0
    with pytest.raises(ValueError):
        chain2.pi[0] = 0.0


def test_sample_path_frequencies_match_stationary(chain2):
    n = 200_000
    path = sample_path(chain2, n, np.random.default_rng(7))
    freq = np.bincount(path, minlength=2) / n
    se = ergodic_frequency_se(chain2, n)
    assert np.all(np.abs(freq - chain2.pi) <= 3 * se)


def test_sample_path_deterministic(chain2):
    a = sample_path(chain2, 100, np.random.default_rng(5))
    b = sample_path(chain2, 100, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_sample_path_empty(chain2):
    assert sample_path(chain2, 0, np.random.default_rng(0)).size == 0


def test_stationary_function_directly():
    pi = stationary(np.array([[0.7, 0.3], [0.4, 0.6]]))
    assert pi == pytest.approx([4 / 7, 3 / 7], abs=1e-12)


def test_frequency_se_iid_reduces_to_binomial():
    # rows equal -> consecutive states independent -> binomial rate
    p = np.array([0.3, 0.7])
    chain = validate_chain(np.array([p, p]))
    se = ergodic_frequency_se(chain, 10_000)
    assert se == pytest.approx(np.sqrt(p * (1 - p) / 10_000), rel=1e-9)


def test_frequency_se_grows_with_persistence():
    sticky = validate_chain(np.array([[0.99, 0.01], [0.01, 0.99]]))
    iid = validate_chain(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert np.all(ergodic_frequency_se(sticky, 1000) > ergodic_frequency_se(iid, 1000))


# ---------------------------------------------------------------------------
# state-path scan

# rows given in decimals, whose cumulative sums round (0.7 + 0.2 is 0.8999999999999999), end
# exactly at 1, or put no mass on the last states
DECIMAL_ROWS = {2: ([0.7, 0.3], [1.0, 0.0], [0.0, 1.0]),
                3: ([0.7, 0.2, 0.1], [0.1, 0.2, 0.7], [0.5, 0.5, 0.0]),
                4: ([0.1, 0.2, 0.3, 0.4], [0.7, 0.1, 0.1, 0.1], [0.25, 0.25, 0.25, 0.25])}


def scan_oracle(cum, first, u):
    """Path from first by a scalar loop: each uniform picks the first cumulative weight above it."""
    path = [int(first)]
    for x in u:
        path.append(next(j for j, c in enumerate(cum[path[-1]]) if x < c))  # the last entry is +inf
    return path


@st.composite
def scan_cases(draw):
    k = draw(st.sampled_from([2, 3, 4]))
    weights = st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k).filter(lambda w: sum(w) > 0.0)
    rows = [draw(st.one_of(st.sampled_from(DECIMAL_ROWS[k]), weights.map(lambda w: np.divide(w, sum(w)))))
            for _ in range(k)]
    cum = cum_rows(np.array(rows, dtype=float))
    # uniforms on, just below and just above the finite thresholds, and the largest one below 1
    edges = cum[np.isfinite(cum) & (cum < 1.0)]
    pool = sorted({0.0, float(np.nextafter(1.0, 0.0))} | {float(x) for x in np.concatenate(
        [edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)]) if 0.0 <= x < 1.0})
    m = draw(st.integers(1, 6))
    b = draw(st.sampled_from([0, 1, m * m - 1, m * m, m * m + 1]))
    lanes = draw(st.integers(1, 4))
    starts = draw(st.lists(st.integers(0, k - 1), min_size=lanes, max_size=lanes))
    uniform = st.one_of(st.sampled_from(pool), st.floats(0.0, 1.0, exclude_max=True))
    u = draw(st.lists(uniform, min_size=lanes * b, max_size=lanes * b))
    return cum, np.array(starts), np.array(u, dtype=float).reshape(lanes, b)


@settings(max_examples=200, deadline=None)
@given(case=scan_cases())
def test_batched_scan_matches_a_scalar_loop(case):
    cum, starts, u = case
    got = scan_states(cum, starts, u)
    assert got.dtype == np.int64 and got.shape == (len(starts), u.shape[1] + 1)
    for lane, first in enumerate(starts):
        want = scan_oracle(cum, first, u[lane])
        assert got[lane].tolist() == want
        assert scan_states(cum, starts[lane : lane + 1], u[lane : lane + 1])[0].tolist() == want
