import numpy as np
import pytest

from persuasionlab import PayoffDiscontinuityWarning, ReceiverPayoff, TablePayoff, build_u, make_grid
from persuasionlab.errors import DimensionMismatch, NegativePayoff
from persuasionlab.payoff import _adjacent_pairs


def test_table_copies_values(grid2):
    raw = 1.0 - np.abs(2.0 * grid2.points[:, 1] - 1.0)
    u = build_u(TablePayoff(raw), grid2)
    raw[0] = 99.0
    assert u.values[0] != 99.0
    assert u.grid is grid2


def test_table_wrong_length(grid2):
    with pytest.raises(DimensionMismatch):
        build_u(TablePayoff(np.zeros(grid2.n + 1)), grid2)


def test_table_negative_rejected(grid2):
    vals = np.zeros(grid2.n)
    vals[3] = -1e-6
    with pytest.raises(NegativePayoff):
        build_u(TablePayoff(vals), grid2)


def test_receiver_threshold_rule():
    # receiver acts iff the second state has majority mass; sender gets 1 when
    # the receiver acts, so u is the step function 1{q_1 >= 1/2}
    grid = make_grid(2, 10)
    model = ReceiverPayoff(
        actions=("hold", "act"),
        sender_values=np.array([[0.0, 1.0], [0.0, 1.0]]),
        receiver_values=np.array([[1.0, 0.0], [0.0, 1.0]]),
    )
    with pytest.warns(PayoffDiscontinuityWarning):
        u = build_u(model, grid)
    want = (grid.points[:, 1] >= 0.5).astype(float)
    assert u.values == pytest.approx(want)


def test_receiver_tie_breaks_toward_sender():
    # receiver is indifferent everywhere, sender prefers action 1
    grid = make_grid(2, 4)
    model = ReceiverPayoff(
        actions=("a", "b"),
        sender_values=np.array([[0.0, 1.0], [0.0, 1.0]]),
        receiver_values=np.zeros((2, 2)),
    )
    u = build_u(model, grid)
    assert u.values == pytest.approx(np.ones(grid.n))


def test_receiver_tie_breaks_lowest_index_among_equal():
    # both parties indifferent: action 0 wins, u is its sender value
    grid = make_grid(2, 4)
    model = ReceiverPayoff(
        actions=("a", "b"),
        sender_values=np.array([[0.5, 0.5], [0.5, 0.5]]),
        receiver_values=np.zeros((2, 2)),
    )
    u = build_u(model, grid)
    assert u.values == pytest.approx(np.full(grid.n, 0.5))


def test_receiver_shape_mismatch():
    grid = make_grid(2, 4)
    with pytest.raises(DimensionMismatch):
        build_u(
            ReceiverPayoff(
                actions=("a", "b", "c"),
                sender_values=np.zeros((2, 2)),
                receiver_values=np.zeros((2, 2)),
            ),
            grid,
        )


def test_receiver_negative_sender_value_rejected():
    grid = make_grid(2, 4)
    model = ReceiverPayoff(
        actions=("a",),
        sender_values=np.array([[-1.0], [0.0]]),
        receiver_values=np.array([[0.0], [0.0]]),
    )
    with pytest.raises(NegativePayoff):
        build_u(model, grid)


def test_no_warning_when_jump_small():
    # the flip changes the sender payoff by well under a tenth of its range
    grid = make_grid(2, 100)
    model = ReceiverPayoff(
        actions=("hold", "act"),
        sender_values=np.array([[0.0, 0.05], [1.0, 1.05]]),
        receiver_values=np.array([[1.0, 0.0], [0.0, 1.0]]),
    )
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", PayoffDiscontinuityWarning)
        build_u(model, grid)


def test_explicit_jump_threshold_silences():
    grid = make_grid(2, 10)
    model = ReceiverPayoff(
        actions=("hold", "act"),
        sender_values=np.array([[0.0, 1.0], [0.0, 1.0]]),
        receiver_values=np.array([[1.0, 0.0], [0.0, 1.0]]),
    )
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", PayoffDiscontinuityWarning)
        build_u(model, grid, jump_threshold=2.0)


def test_receiver_k3_uses_full_belief():
    # action pays the receiver only in its own state, so the best response is
    # the modal state; sender value equals that modal mass
    grid = make_grid(3, 4)
    eye = np.eye(3)
    model = ReceiverPayoff(actions=("s0", "s1", "s2"), sender_values=eye, receiver_values=eye)
    with pytest.warns(PayoffDiscontinuityWarning):
        u = build_u(model, grid)
    assert u.values == pytest.approx(grid.points.max(axis=1))


def test_unknown_model_rejected(grid2):
    with pytest.raises(DimensionMismatch):
        build_u(object(), grid2)


@pytest.mark.parametrize("k, resolution", [(3, 5), (4, 3)])
def test_adjacent_pairs_match_brute_force(k, resolution):
    grid = make_grid(k, resolution)
    c = grid.counts
    want = []
    for i in range(grid.n):
        for a in range(k):
            for b in range(k):
                if a == b:
                    continue
                moved = c[i].copy()
                moved[a] -= 1
                moved[b] += 1
                for j in range(i + 1, grid.n):
                    if np.array_equal(c[j], moved):
                        assert np.abs(c[i] - c[j]).sum() == 2
                        want.append((i, j))
    n_adjacent = sum(np.abs(c[i] - c[j]).sum() == 2 for i in range(grid.n) for j in range(i + 1, grid.n))
    assert len(want) == n_adjacent
    i, j = _adjacent_pairs(grid)
    assert list(zip(i.tolist(), j.tolist())) == want
