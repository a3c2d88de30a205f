import numpy as np
import pytest

from persuasionlab import ergodic_frequency_se, sample_path, stationary, validate_chain
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


def test_rejects_reducible():
    with pytest.raises(NotIrreducible):
        validate_chain(np.eye(2))
    with pytest.raises(NotIrreducible):
        validate_chain(np.array([[0.5, 0.5], [0.0, 1.0]]))


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


def test_sample_path_start_forms_align(chain2):
    # an int start burns one draw, so the continuation matches the other forms
    a = sample_path(chain2, 50, np.random.default_rng(3), start=0)
    b = sample_path(chain2, 50, np.random.default_rng(3), start=[1.0, 0.0])
    assert a[0] == b[0] == 0
    assert np.array_equal(a, b)


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
