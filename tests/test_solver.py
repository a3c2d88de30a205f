import itertools
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from persuasionlab import (
    GridFn,
    Scenario,
    Strategy,
    asymptotic_value,
    bellman_no_reveal,
    bellman_reveal,
    cav_splits,
    cav_values,
    check_no_info_at_concave_point,
    cli,
    envelope,
    estimate_discounted,
    full_reveal_closed_form,
    interpolate,
    make_grid,
    row_average_value,
    solve,
    solve_cesaro,
    solver,
    validate_chain,
    validate_split,
)
from persuasionlab.belief import _vertex_sum
from persuasionlab.errors import (
    DimensionMismatch,
    NegativePayoff,
    NoConvergence,
    PreconditionFailed,
    RateBoundary,
)

ROOT = Path(__file__).resolve().parents[1]
EPS = float(np.finfo(float).eps)
CYCLE3_M = [[0.6, 0.3, 0.1], [0.1, 0.6, 0.3], [0.3, 0.1, 0.6]]
BUNDLED = sorted(path.stem for path in (ROOT / "scenarios").glob("*.json"))


def bundled(name, **changes):
    """The bundled scenario scenarios/<name>.json as the CLI builds it, with the given fields replaced."""
    doc = json.loads((ROOT / "scenarios" / f"{name}.json").read_text(encoding="utf-8"))
    return replace(cli.scenario_from_config(cli.effective_config(doc)), **changes)


# ---------------------------------------------------------------------------
# Independent oracle for two states. Beliefs are identified with their first
# coordinate, the concave envelope is an upper convex hull built by monotone
# chain, and continuation lookups go through np.interp. Shares nothing with
# the module under test beyond the scenario container.


def concave_majorant(xs, ys):
    """Least concave function above (xs, ys), sampled back at xs."""
    stack = []
    for i in range(len(xs)):
        while len(stack) >= 2:
            a, b = stack[-2], stack[-1]
            cross = (xs[b] - xs[a]) * (ys[i] - ys[a]) - (ys[b] - ys[a]) * (xs[i] - xs[a])
            if cross >= 0.0:
                stack.pop()
            else:
                break
        stack.append(i)
    keep = np.array(stack)
    return np.interp(xs, xs[keep], ys[keep])


def oracle_sweeps(sc, stage, lam, x, sweeps):
    """Backward induction from zero for k = 2 scenarios: stage payoff, discount lam, rate x."""
    xs = sc.grid.points[:, 0]
    shifted = (sc.grid.points @ sc.chain.M)[:, 0]
    row_x = sc.chain.M[:, 0]
    f = np.zeros(sc.grid.n)
    for _ in range(sweeps):
        target = stage + lam * (1.0 - x) * np.interp(shifted, xs, f)
        new = concave_majorant(xs, target)
        if x > 0.0:
            new = new + lam * x * (sc.grid.points @ np.interp(row_x, xs, f))
        f = new
    return f


def oracle_iterate(sc, reveal, sweeps):
    """The discounted game: stage weight 1 - discount, rate dropped unless reveal."""
    x = sc.reveal_rate if reveal else 0.0
    return oracle_sweeps(sc, (1.0 - sc.discount) * sc.u.values, sc.discount, x, sweeps)


def test_majorant_helper_is_sound():
    xs = np.linspace(0.0, 1.0, 11)
    ys = (2.0 * xs - 1.0) ** 2
    assert concave_majorant(xs, ys) == pytest.approx(np.ones(11), abs=1e-12)
    tent = 1.0 - np.abs(2.0 * xs - 1.0)
    assert concave_majorant(xs, tent) == pytest.approx(tent, abs=1e-12)


# ---------------------------------------------------------------------------
# value iteration against the oracle


def test_reveal_value_matches_oracle(scenario):
    sc = scenario("tent", discount=0.9, reveal_rate=0.5)
    want = oracle_iterate(sc, reveal=True, sweeps=400)
    got = solve(sc, "reveal").value.values
    assert got == pytest.approx(want, abs=1e-6)
    # canonical midpoint value, frozen from the oracle
    mid = sc.grid.index_of([100, 100])
    assert got[mid] == pytest.approx(0.7978082182563924, abs=1e-7)


def test_no_reveal_value_matches_oracle(scenario):
    sc = scenario("tent", discount=0.8, reveal_rate=0.0)
    want = oracle_iterate(sc, reveal=False, sweeps=400)
    got = solve(sc, "no_reveal").value.values
    assert got == pytest.approx(want, abs=1e-6)


def test_value_dominates_the_silent_strategy(scenario):
    # never splitting yields the fixed point of the plain drift recursion,
    # which any optimal value must weakly exceed
    sc = scenario("tent", discount=0.9, reveal_rate=0.0)
    xs = sc.grid.points[:, 0]
    shifted = (sc.grid.points @ sc.chain.M)[:, 0]
    h = np.zeros(sc.grid.n)
    for _ in range(600):
        h = (1.0 - sc.discount) * sc.u.values + sc.discount * np.interp(shifted, xs, h)
    v = solve(sc, "no_reveal").value.values
    assert np.all(v >= h - 1e-9)


def test_zero_discount_is_envelope(scenario):
    for mode in ("no_reveal", "reveal"):
        sc = scenario("tent", discount=0.0, reveal_rate=0.5)
        res = solve(sc, mode)
        assert res.value.values == pytest.approx(cav_values(sc.u), abs=1e-12)
        assert res.residual == 0.0


def test_full_reveal_closed_form_agrees(scenario):
    for lam in (0.5, 0.9):
        sc = scenario("tent", discount=lam, reveal_rate=1.0)
        direct = full_reveal_closed_form(sc)
        iterated = solve(sc, "reveal").value
        assert iterated.values == pytest.approx(direct.values, abs=1e-8)


def test_value_is_concave(scenario):
    for mode, rate in (("no_reveal", 0.0), ("reveal", 0.5)):
        v = solve(scenario("parabola", discount=0.9, reveal_rate=rate), mode).value.values
        second = v[:-2] - 2.0 * v[1:-1] + v[2:]
        assert np.all(second <= 1e-7)


def test_parabola_value_is_constant_one(scenario):
    # the envelope of the parabola is 1, and 1 is a fixed point of both modes
    for mode, rate in (("no_reveal", 0.0), ("reveal", 0.5)):
        v = solve(scenario("parabola", discount=0.9, reveal_rate=rate), mode).value.values
        assert v == pytest.approx(np.ones(v.size), abs=1e-8)


def test_bellman_operators_contract(scenario):
    sc = scenario("tent", discount=0.9, reveal_rate=0.5)
    rng = np.random.default_rng(5)
    for _ in range(10):
        f = GridFn(sc.grid, rng.uniform(0.0, 2.0, sc.grid.n))
        g = GridFn(sc.grid, rng.uniform(0.0, 2.0, sc.grid.n))
        gap = float(np.max(np.abs(f.values - g.values)))
        for op in (bellman_no_reveal, bellman_reveal):
            out = float(np.max(np.abs(op(f, sc).values - op(g, sc).values)))
            assert out <= sc.discount * gap + 1e-12


# The certified stopping rule rests on two properties of both operators:
# monotonicity and T(f + c) = Tf + discount * c. They hold exactly for the
# discretized operators; the float ones agree up to rounding, which stays
# below 6 ulps of the inputs' magnitude on these grids (the k = 3 envelope is
# read off qhull facet planes). ULPS leaves room above that.
ULPS = 16.0

_G2, _G3 = make_grid(2, 20), make_grid(3, 6)
PROPERTY_SCENARIOS = {
    2: Scenario(chain=validate_chain(np.array([[0.7, 0.3], [0.4, 0.6]])),
                u=GridFn(_G2, (2.0 * _G2.points[:, 1] - 1.0) ** 2), discount=0.9, reveal_rate=0.5),
    3: Scenario(chain=validate_chain(np.array(CYCLE3_M)),
                u=GridFn(_G3, np.abs(_G3.points[:, 1] - 0.5) + 0.25 * _G3.points[:, 0]),
                discount=0.9, reveal_rate=0.5),
}


@st.composite
def operator_inputs(draw, sc):
    """A scenario with drawn discount and rate, and a continuation value in [0, 2]."""
    sc = replace(sc, discount=draw(st.floats(0.0, 0.999)), reveal_rate=draw(st.floats(0.01, 1.0)))
    f = draw(arrays(np.float64, sc.grid.n, elements=st.floats(0.0, 2.0)))
    return sc, f


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("op", [bellman_no_reveal, bellman_reveal])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bellman_operators_are_monotone(k, op, data):
    sc, f = data.draw(operator_inputs(PROPERTY_SCENARIOS[k]))
    bump = data.draw(arrays(np.float64, sc.grid.n, elements=st.floats(0.0, 1.0)))
    g = f + bump
    tf = op(GridFn(sc.grid, f), sc).values
    tg = op(GridFn(sc.grid, g), sc).values
    assert np.all(tf <= tg + ULPS * EPS * max(float(g.max()), 1.0))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("op", [bellman_no_reveal, bellman_reveal])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bellman_operators_contract_at_the_discount(k, op, data):
    sc, f = data.draw(operator_inputs(PROPERTY_SCENARIOS[k]))
    g = data.draw(arrays(np.float64, sc.grid.n, elements=st.floats(0.0, 2.0)))
    tf = op(GridFn(sc.grid, f), sc).values
    tg = op(GridFn(sc.grid, g), sc).values
    scale = max(float(np.abs(f).max()), float(np.abs(g).max()), 1.0)
    assert np.abs(tf - tg).max() <= sc.discount * np.abs(f - g).max() + ULPS * EPS * scale


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("op", [bellman_no_reveal, bellman_reveal])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bellman_operators_shift_constants_by_the_discount(k, op, data):
    sc, f = data.draw(operator_inputs(PROPERTY_SCENARIOS[k]))
    c = data.draw(st.floats(-2.0, 2.0))
    tf = op(GridFn(sc.grid, f), sc).values
    shifted = op(GridFn(sc.grid, f + c), sc).values
    scale = max(float(np.abs(f).max()), float(np.abs(f + c).max()), 1.0)
    assert np.abs(shifted - (tf + sc.discount * c)).max() <= ULPS * EPS * scale


def test_solve_is_a_fixed_point(scenario):
    sc = scenario("tent", discount=0.9, reveal_rate=0.5)
    res = solve(sc, "reveal")
    again = bellman_reveal(res.value, sc)
    assert again.values == pytest.approx(res.value.values, abs=1e-9)


@pytest.mark.parametrize("name", ["tent", "cycle3", "kink3"])
@pytest.mark.parametrize("mode", ["no_reveal", "reveal"])
@pytest.mark.parametrize("discount", [0.9, 0.99, 0.995])
def test_solve_is_certified_within_tol(name, mode, discount):
    # recompute the MacQueen-Porteus interval for the fixed point from one
    # operator application at the returned value: with d = Tv - v and
    # c = discount / (1 - discount), the fixed point minus v lies pointwise
    # in [d + c min d, d + c max d]
    sc = bundled(name, discount=discount)
    res = solve(sc, mode)
    op = bellman_reveal if mode == "reveal" else bellman_no_reveal
    v = res.value.values
    d = op(res.value, sc).values - v
    c = discount / (1.0 - discount)
    # rounding of the operator and of forming d, both amplified by 1 + c
    slack = ULPS * (1.0 + c) * EPS * max(float(np.abs(v).max()), 1.0)
    for end in (d + c * d.min(), d + c * d.max()):
        assert np.abs(end).max() <= sc.tol + slack
    assert res.residual <= sc.tol
    # the sup-norm rule took about log(1/tol) / (1 - discount) sweeps here
    assert res.iterations <= 100


@pytest.mark.parametrize("name", BUNDLED)
@pytest.mark.filterwarnings("ignore::persuasionlab.payoff.PayoffDiscontinuityWarning")
def test_renaming_the_states_permutes_the_values(name):
    # the game has no preferred state order: new state i is old state perm[i], so the new lattice point with
    # counts c is the old one with counts c[argsort(perm)], and each of two solves is within tol of its grid value
    sc = bundled(name)
    k = sc.chain.k
    for discount in (0.9, 0.9999):
        for mode in solver.MODES:
            want = solve(replace(sc, discount=discount), mode).value.values
            # permutations yields the identity first
            for perm in map(np.array, itertools.islice(itertools.permutations(range(k)), 1, None)):
                old = sc.grid.index_of(sc.grid.counts[:, np.argsort(perm)])
                renamed = replace(sc, chain=validate_chain(sc.chain.M[perm][:, perm]),
                                  u=GridFn(sc.grid, sc.u.values[old]), discount=discount, prior=sc.prior[perm])
                assert np.abs(solve(renamed, mode).value.values - want[old]).max() <= 2.0 * sc.tol


def test_row_values_read_off_the_value(scenario):
    sc = scenario("tent", discount=0.9, reveal_rate=0.5)
    res = solve(sc, "reveal")
    for ell in range(2):
        assert res.row_values[ell] == interpolate(res.value, sc.chain.M[ell])


def test_policy_splits_are_plausible(scenario):
    sc = scenario("tent", discount=0.9, reveal_rate=0.5)
    res = solve(sc, "reveal")
    _, atoms, weights = cav_splits(res.target, sc.grid.points)
    assert atoms.shape == weights.shape == (sc.grid.n, 2)
    for i in range(0, sc.grid.n, 17):
        keep = weights[i] > 0.0
        validate_split(sc.grid.points[i], sc.grid.points[atoms[i, keep]], weights[i, keep])
        assert keep.sum() <= 2


def test_policy_is_extracted_on_first_read_only(scenario, monkeypatch):
    # neither the solve nor building the strategy extracts a split; playing it does
    calls = []
    split = envelope._Envelope.split
    monkeypatch.setattr(envelope._Envelope, "split", lambda env, *args: calls.append(env) or split(env, *args))
    sc = scenario("parabola", discount=0.9, reveal_rate=0.5)
    res = solve(sc, "reveal")
    strat = Strategy(res.target)
    assert calls == []
    assert res.policy is res.target
    estimate_discounted(sc, strat, samples=3, horizon=2)
    assert len(calls) >= 1 and all(env is calls[0] for env in calls)
    _, _, weights = cav_splits(res.target, sc.grid.points)
    assert np.count_nonzero(weights[:, 1]) > 0  # the parabola splits somewhere


def test_tent_optimal_policy_never_splits(scenario):
    # the stage payoff is already concave, so splitting buys nothing
    sc = scenario("tent", discount=0.9, reveal_rate=0.5)
    res = solve(sc, "reveal")
    assert np.all(np.count_nonzero(cav_splits(res.target, sc.grid.points)[2], axis=1) == 1)


# ---------------------------------------------------------------------------
# long-run functionals


def test_asymptotic_value_at_full_rate(scenario):
    # rate 1 collapses to the stationary average of the envelope at the rows
    sc = scenario("tent")
    got = asymptotic_value(1.0, sc)
    assert got == pytest.approx(4.8 / 7.0, abs=1e-9)


def test_asymptotic_value_canonical_half(scenario):
    sc = scenario("tent")
    want_curve = oracle_iterate(
        Scenario(chain=sc.chain, u=sc.u, discount=0.5, reveal_rate=0.0), reveal=False, sweeps=120
    )
    xs = sc.grid.points[:, 0]
    want = float(sc.chain.pi @ np.interp(sc.chain.M[:, 0], xs, want_curve))
    got = asymptotic_value(0.5, sc)
    assert got == pytest.approx(want, abs=1e-7)
    assert got == pytest.approx(0.7714285706302952, abs=1e-7)


def test_row_average_matches_asymptotic(scenario):
    sc = scenario("tent")
    assert row_average_value(0.5, sc) == asymptotic_value(0.5, sc)


def test_asymptotic_value_rejects_bad_rate(scenario):
    sc = scenario("tent")
    for rate in (0.0, -0.1, 1.2, float("nan")):
        with pytest.raises(RateBoundary, match="must lie in"):
            asymptotic_value(rate, sc)


@pytest.mark.parametrize("rate", [1e-17, 1e-320])
@pytest.mark.parametrize("name", ["tent", "cycle3"])
def test_asymptotic_value_rejects_a_rate_whose_discount_rounds_to_one(name, rate):
    sc = bundled(name)
    with pytest.raises(RateBoundary, match=f"rate {rate!r} "):
        asymptotic_value(rate, sc)


def test_cesaro_single_stage_is_envelope(scenario):
    sc = scenario("tent", reveal_rate=0.5)
    w = solve_cesaro(sc, horizon=1)
    assert w.values == pytest.approx(cav_values(sc.u), abs=1e-12)


def test_cesaro_stays_within_payoff_range(scenario):
    sc = scenario("tent", reveal_rate=0.5)
    w = solve_cesaro(sc, horizon=50)
    assert np.all(w.values <= sc.u.values.max() + 1e-12)
    assert np.all(w.values >= sc.u.values.min() - 1e-12)


@pytest.mark.parametrize("horizon", [1, 7, 50])
@pytest.mark.parametrize("rate", [0.0, 0.5])
def test_cesaro_matches_backward_induction_oracle(scenario, horizon, rate):
    # the time average is the undiscounted game with stage payoff u / horizon
    sc = scenario("tent", reveal_rate=rate)
    want = oracle_sweeps(sc, sc.u.values / horizon, 1.0, rate, horizon)
    assert solve_cesaro(sc, horizon).values == pytest.approx(want, abs=1e-12)


def test_cesaro_rejects_bad_horizon(scenario):
    with pytest.raises(ValueError):
        solve_cesaro(scenario("tent"), horizon=0)


# ---------------------------------------------------------------------------
# the no-information check


def test_no_info_holds_on_concave_payoff(scenario):
    sc = scenario("tent", discount=0.9, reveal_rate=0.5)
    res = solve(sc, "reveal")
    for p in ([0.5, 0.5], sc.chain.M[0], sc.chain.M[1], [0.3, 0.7]):
        assert check_no_info_at_concave_point(sc, p, solved=res)


def test_no_info_requires_envelope_contact(scenario):
    sc = scenario("parabola", discount=0.9, reveal_rate=0.5)
    with pytest.raises(PreconditionFailed):
        check_no_info_at_concave_point(sc, [0.5, 0.5], solve(sc, "reveal"))


def test_no_info_holds_where_k3_payoff_touches_envelope():
    M = np.array([[0.6, 0.3, 0.1], [0.1, 0.6, 0.3], [0.3, 0.1, 0.6]])
    grid = make_grid(3, 6)
    q = grid.points
    u = GridFn(grid, np.abs(q[:, 2] - 0.5) + 0.25 * q[:, 0])
    sc = Scenario(chain=validate_chain(M), u=u, discount=0.9, reveal_rate=0.5)
    touching = np.nonzero(cav_values(u) - u.values <= 1e-9)[0]
    assert 0 < touching.size < grid.n
    res = solve(sc, "reveal")
    for i in touching:
        assert check_no_info_at_concave_point(sc, q[i], solved=res)
    below = np.setdiff1d(np.arange(grid.n), touching)[0]
    with pytest.raises(PreconditionFailed):
        check_no_info_at_concave_point(sc, q[below], solved=res)


def k3_touching_scenario(table, resolution=6):
    """The cycle3 chain with a k = 3 table payoff, and the grid points where it meets its envelope."""
    grid = make_grid(3, resolution)
    u = GridFn(grid, table(grid.points))
    sc = Scenario(chain=validate_chain(np.array(CYCLE3_M)), u=u, discount=0.9, reveal_rate=0.5)
    return sc, np.nonzero(cav_values(u) - u.values <= 1e-9)[0]


def convex3(q):
    return np.abs(q[:, 2] - 0.5) + 0.25 * q[:, 0]


def min_kink3(q):
    # concave where it touches its envelope, which is not affine
    return 3.0 * q.min(axis=1) + 0.5 * np.abs(q[:, 0] - q[:, 1])


@pytest.mark.parametrize("table", [convex3, min_kink3])
def test_no_info_batch_matches_single_beliefs(table):
    sc, touching = k3_touching_scenario(table, resolution=12)
    res = solve(sc, "reveal")
    # grid points and, between neighbouring touching points, off-grid beliefs
    q = sc.grid.points[touching]
    q = np.vstack([q, 0.5 * (q[:-1] + q[1:])])
    q = q[np.abs(cav_splits(sc.u, q)[0] - interpolate(sc.u, q)) <= 1e-9]
    batch = check_no_info_at_concave_point(sc, q, solved=res)
    single = [check_no_info_at_concave_point(sc, p, solved=res) for p in q]
    assert batch.dtype == bool and all(type(s) is bool for s in single)
    assert np.array_equal(batch, single)


def test_no_info_batch_rejects_a_row_off_the_envelope():
    sc, touching = k3_touching_scenario(convex3)
    below = np.setdiff1d(np.arange(sc.grid.n), touching)[0]
    q = sc.grid.points[np.append(touching, below)]
    res = solve(sc, "reveal")
    assert check_no_info_at_concave_point(sc, q[:-1], solved=res).all()
    with pytest.raises(PreconditionFailed):
        check_no_info_at_concave_point(sc, q, solved=res)


def bump_scenario():
    """Three Gaussian bumps on the canonical k = 2 chain (R = 200): the envelope touches them in three arcs."""
    grid = make_grid(2, 200)
    q = grid.points[:, 1]
    u = GridFn(grid, np.array([0.9, 1.0, 0.85]) @ np.exp(-0.5 * ((q - np.array([[0.2], [0.5], [0.8]])) / 0.09) ** 2))
    return Scenario(chain=validate_chain(np.array([[0.7, 0.3], [0.4, 0.6]])), u=u, discount=0.9, reveal_rate=0.5)


def two_location_no_info(sc, p, solved):
    """`check_no_info_at_concave_point` reading both envelopes through `cav_splits`, which locates each time."""
    batch = np.atleast_2d(p)
    cav_u, u_at = cav_splits(sc.u, batch)[0], interpolate(sc.u, batch)
    if (u_at < cav_u - envelope._envelope(sc.u).slack).any():
        raise PreconditionFailed("off the envelope")
    best = cav_splits(solved.target, batch)[0]
    cont = interpolate(solved.value, batch @ sc.chain.M)
    return solver._target(cont, (1.0 - sc.discount) * u_at, sc.discount, sc.reveal_rate) >= best - 2.0 * sc.tol


@pytest.mark.parametrize("name", ["bump", "kink3"])
def test_the_no_info_check_locates_its_batch_once_and_reads_as_cav_splits(name, monkeypatch):
    sc = bump_scenario() if name == "bump" else bundled("kink3")
    res = solve(sc, "reveal")
    touching = np.flatnonzero(cav_values(sc.u) - sc.u.values <= 1e-9)
    assert 0 < touching.size < sc.grid.n
    # grid points and, between touching neighbours, off-grid beliefs on the envelope
    q = sc.grid.points[touching]
    q = np.vstack([q, 0.5 * (q[:-1] + q[1:])])
    q = q[np.abs(cav_splits(sc.u, q)[0] - interpolate(sc.u, q)) <= 1e-9]
    assert len(q) > touching.size
    want = two_location_no_info(sc, q, res)
    reads, located, read, cells = [], [], solver._read, type(sc.grid)._cells
    monkeypatch.setattr(solver, "_read", lambda f, batch, c: reads.append(read(f, batch, c)) or reads[-1])
    monkeypatch.setattr(type(sc.grid), "_cells", lambda grid, batch: located.append(len(batch)) or cells(grid, batch))
    got = check_no_info_at_concave_point(sc, q, solved=res)
    assert np.array_equal(got, want)
    assert located == [len(q), len(q)]  # the batch once, and its next beliefs for the continuation
    for (values, fq), f in zip(reads, (sc.u, res.target), strict=True):
        for a, b in zip((values, fq), (cav_splits(f, q)[0], interpolate(f, q)), strict=True):
            assert np.array_equal(a, b)


def test_the_no_info_check_refuses_a_result_on_another_grid():
    sc, _ = k3_touching_scenario(convex3)
    coarse = make_grid(3, 3)
    solved = solve(replace(sc, u=GridFn(coarse, convex3(coarse.points))), "reveal")
    with pytest.raises(DimensionMismatch, match="R=3 grid"):
        check_no_info_at_concave_point(sc, sc.grid.points[0], solved)


def test_each_grid_mismatch_names_the_argument_on_the_wrong_grid():
    # one grid check serves the operators and the no-information check, and names what it was handed
    sc, _ = k3_touching_scenario(convex3)
    coarse = make_grid(3, 3)
    f = GridFn(coarse, convex3(coarse.points))
    with pytest.raises(DimensionMismatch, match=r"^continuation on a k=3, R=3 grid, scenario grid is k=3, R=6$"):
        bellman_reveal(f, sc)
    solved = solve(replace(sc, u=f), "reveal")
    with pytest.raises(DimensionMismatch, match=r"^solved on a k=3, R=3 grid, scenario grid is k=3, R=6$"):
        check_no_info_at_concave_point(sc, sc.grid.points[0], solved)


# ---------------------------------------------------------------------------
# dynamics operators kept with the chain


def fresh_scenario(k):
    """A new chain and grid, with no operators built yet: k = 2 (R = 50) or k = 3 (R = 8)."""
    grid = make_grid(k, 50 if k == 2 else 8)
    M = [[0.7, 0.3], [0.4, 0.6]] if k == 2 else CYCLE3_M
    u = GridFn(grid, 1.0 - np.abs(2.0 * grid.points[:, 1] - 1.0) if k == 2 else min_kink3(grid.points))
    return Scenario(chain=validate_chain(np.array(M)), u=u, discount=0.9, reveal_rate=0.5)


@pytest.mark.parametrize("k", [2, 3])
def test_replaced_scenarios_share_the_chains_operators(k, monkeypatch):
    sc = fresh_scenario(k)
    dyn = solver._dynamics(sc)
    seen, sweep = [], solver._sweep
    # a solve's first sweep also takes its start's reads, after dyn
    monkeypatch.setattr(solver, "_sweep", lambda f, stage, lam, x, dyn, *reads:
                        seen.append(dyn) or sweep(f, stage, lam, x, dyn, *reads))
    built = []
    monkeypatch.setattr(solver, "_Dynamics", lambda *args: built.append(args))
    others = [replace(sc, discount=0.5), replace(sc, reveal_rate=0.2),
              replace(sc, u=GridFn(sc.grid, 2.0 * sc.u.values))]
    for other in others:
        assert solver._dynamics(other) is dyn
        solve(other, "reveal")
        bellman_no_reveal(other.u, other)
        bellman_reveal(other.u, other)
        solve_cesaro(other, 3)
    row_average_value(0.5, sc)
    assert built == []
    assert len(seen) > 0 and all(d is dyn for d in seen)


@pytest.mark.parametrize("k", [2, 3])
def test_a_new_chain_or_grid_gets_its_own_operators(k):
    sc = fresh_scenario(k)
    dyn = solver._dynamics(sc)
    new_chain = replace(sc, chain=validate_chain(sc.chain.M))
    equal_grid = make_grid(k, sc.grid.resolution)
    coarse = make_grid(k, sc.grid.resolution // 2)
    on_equal_grid = replace(sc, u=GridFn(equal_grid, sc.u.values))
    on_coarse = replace(sc, u=GridFn(coarse, np.ones(coarse.n)))
    owned = [solver._dynamics(other) for other in (new_chain, on_equal_grid, on_coarse)]
    assert len({id(d) for d in owned + [dyn]}) == 4
    assert [d.grid for d in owned] == [sc.grid, equal_grid, coarse]
    assert [table.shape for table in owned[2].shift] == [(coarse.n, k)] * 2
    # each is kept: a second lookup returns it again
    assert solver._dynamics(sc) is dyn
    assert [solver._dynamics(other) for other in (new_chain, on_equal_grid, on_coarse)] == owned
    assert np.array_equal(solve(on_equal_grid, "reveal").value.values, solve(sc, "reveal").value.values)


@pytest.mark.parametrize("k", [2, 3])
def test_kept_operators_equal_a_fresh_build_and_are_read_only(k):
    sc = fresh_scenario(k)
    solve(sc, "reveal")
    kept = solver._dynamics(sc)
    grid = sc.grid
    queries = {"shift": grid.points @ sc.chain.M, "rows": sc.chain.M}
    rng = np.random.default_rng(k)
    for name, q in queries.items():
        got = getattr(kept, name)
        for arr, want in zip(got, grid._cells(q)[:2]):
            assert arr.shape == (len(q), k)
            assert np.array_equal(arr, want)
            assert arr.flags.f_contiguous  # each vertex column is contiguous
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[0]
        # applying the cell tables is the interpolation matrix product, bit for bit
        for _ in range(5):
            f = rng.choice([-1.0, 1.0], grid.n) * 10.0 ** rng.uniform(-3, 3, grid.n)
            assert np.array_equal(_vertex_sum(f, *got), grid.interp_matrix(q) @ f)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("mode", ["no_reveal", "reveal"])
def test_a_warm_chain_solves_as_a_fresh_one(k, mode):
    warm = fresh_scenario(k)
    for other in (warm, replace(warm, discount=0.5), replace(warm, reveal_rate=0.9)):
        solve(other, mode)
    assert "_dynamics" in vars(warm.chain)
    cold = fresh_scenario(k)
    assert "_dynamics" not in vars(cold.chain)
    a, b = solve(warm, mode), solve(cold, mode)
    for got, want in ((a.value.values, b.value.values), (a.target.values, b.target.values),
                      (a.row_values, b.row_values)):
        assert np.array_equal(got, want)
    assert (a.iterations, a.residual, a.half_widths) == (b.iterations, b.residual, b.half_widths)


# ---------------------------------------------------------------------------
# starts kept with the chain's operators, per payoff and discount


def assert_same_result(got, want):
    """Every SolverResult field equal, bit for bit."""
    for a, b in ((got.value.values, want.value.values), (got.target.values, want.target.values),
                 (got.row_values, want.row_values)):
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
    assert (got.iterations, got.residual, got.half_widths) == (want.iterations, want.residual, want.half_widths)


# (mode, discount, rate): both modes, rates x and 1, and at 0.99 the multi-sweep solves on the tent (k = 2)
KEPT_START_SOLVES = [("no_reveal", 0.9, 0.5), ("reveal", 0.9, 0.5), ("reveal", 0.9, 1.0),
                     ("reveal", 0.99, 0.5), ("no_reveal", 0.99, 0.5), ("reveal", 0.99, 1.0), ("reveal", 0.9, 0.2)]


@pytest.mark.parametrize("k", [2, 3])
def test_solves_that_reuse_a_kept_start_equal_a_fresh_chains(k):
    warm = fresh_scenario(k)
    firsts, multi_sweep = set(), 0
    for mode, lam, x in KEPT_START_SOLVES:
        sc = replace(warm, discount=lam, reveal_rate=x)
        got = solve(sc, mode)
        hit = lam in firsts
        firsts.add(lam)
        cold = replace(sc, chain=validate_chain(sc.chain.M))
        assert_same_result(got, solve(cold, mode))
        # and the same solve again on the warm chain, whose start is now kept
        assert_same_result(solve(sc, mode), got)
        # each is the iteration written out, whose every sweep reads its own iterate
        op = bellman_reveal if mode == "reveal" else bellman_no_reveal
        want, trail = accelerated(lambda f: op(GridFn(sc.grid, f), sc).values, sc)
        assert np.array_equal(got.value.values, want) and got.half_widths == tuple(trail)
        multi_sweep += hit and got.iterations > 1
    assert multi_sweep >= 3
    assert [key for key in solver._dynamics(warm).starts] == [(warm.u, 0.99), (warm.u, 0.9)]


@pytest.mark.parametrize("k", [2, 3])
def test_the_closed_form_runs_once_per_payoff_and_discount(k, monkeypatch):
    sc = fresh_scenario(k)
    calls, closed_form = [], solver.full_reveal_closed_form
    monkeypatch.setattr(solver, "full_reveal_closed_form",
                        lambda other: calls.append((other.u, other.discount)) or closed_form(other))
    for mode, lam, x in KEPT_START_SOLVES:
        solve(replace(sc, discount=lam, reveal_rate=x), mode)
    bellman_no_reveal(sc.u, sc)
    bellman_reveal(sc.u, sc)
    row_average_value(0.99, sc)
    assert calls == [(sc.u, 0.9), (sc.u, 0.99)]
    # the operators share the kept stage with the solves
    start = solver._start(sc)
    assert solver._operator(sc, True)[0] is start and solver._operator(sc, False)[0] is start


@pytest.mark.parametrize("k", [2, 3])
def test_two_payoffs_on_one_chain_and_grid_keep_separate_starts(k):
    sc = fresh_scenario(k)
    other = replace(sc, u=GridFn(sc.grid, 0.5 + 0.25 * sc.grid.points[:, 0]))
    a, b = solve(sc, "reveal"), solve(other, "reveal")
    starts = solver._dynamics(sc).starts
    assert list(starts) == [(sc.u, 0.9), (other.u, 0.9)]
    assert starts[sc.u, 0.9] is not starts[other.u, 0.9]
    assert_same_result(b, solve(replace(other, chain=validate_chain(sc.chain.M)), "reveal"))
    assert_same_result(solve(sc, "no_reveal"), solve(replace(sc, chain=validate_chain(sc.chain.M)), "no_reveal"))
    assert_same_result(solve(sc, "reveal"), a)


def test_the_kept_starts_stay_within_their_bound():
    sc = fresh_scenario(2)
    starts = solver._dynamics(sc).starts
    discounts = [round(0.05 * i, 2) for i in range(1, solver.STARTS_KEPT + 4)]
    for i, lam in enumerate(discounts):
        solve(replace(sc, discount=lam), "no_reveal")
        assert len(starts) == min(i + 1, solver.STARTS_KEPT)
    assert [key[1] for key in starts] == discounts[-solver.STARTS_KEPT:]
    # a reused start becomes the latest used, and the oldest used is dropped first
    oldest = discounts[-solver.STARTS_KEPT]
    kept = starts[sc.u, oldest]
    solve(replace(sc, discount=oldest), "reveal")
    solve(replace(sc, discount=0.99), "reveal")
    assert len(starts) == solver.STARTS_KEPT
    assert [key[1] for key in starts][-2:] == [oldest, 0.99]
    assert starts[sc.u, oldest] is kept and (sc.u, discounts[-solver.STARTS_KEPT + 1]) not in starts


@pytest.mark.parametrize("k", [2, 3])
def test_kept_starts_are_read_only(k):
    sc = fresh_scenario(k)
    for x in (0.5, 1.0):
        solve(replace(sc, reveal_rate=x), "reveal")
    (start,) = solver._dynamics(sc).starts.values()
    v1 = full_reveal_closed_form(sc).values
    assert np.array_equal(start.f, v1 - v1.min())
    assert np.array_equal(start.stage.values, (1.0 - sc.discount) * sc.u.values)
    assert [read.shape for read in start.reads] == [(sc.grid.n,), (k,)]
    # the rate-1 solve left the stage's envelope on the kept stage
    assert "_envelope" in vars(start.stage)
    for arr in (start.stage.values, start.f, *start.reads, cav_values(start.stage)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def rate_one_sweep(f, stage, lam, sc):
    """One Bellman step at rate 1, written out: a fresh target stage + lam * 0 * cont and its own envelope."""
    grid, M = sc.grid, sc.chain.M
    cont = interpolate(GridFn(grid, f), grid.points @ M)
    target = GridFn(grid, stage + lam * (1.0 - 1.0) * cont)
    return cav_values(target) + lam * 1.0 * (grid.points @ interpolate(GridFn(grid, f), M))


def accelerated(step, sc, zero_start=False):
    """solve's iteration written out for one Bellman step on value arrays: the certified midpoint and the trail.

    It starts at the full-disclosure value less its minimum. Each sweep's half-width, plus the
    rounding floor 4 (1 + c) eps (max|Tf| + max|d|), is checked against tol first; otherwise the next iterate is the type-II Anderson combination of the last 3
    sweeps, each residual less its mean, or the sweep itself where that combination cannot be formed.
    A half-width that did not shrink drops the earlier sweeps, and the iterates after it are plain
    sweeps until 3 are kept again. zero_start=True writes out the iteration solve made before: from
    zero, and combining as soon as 2 sweeps are kept, after a restart too.
    """
    c = sc.discount / (1.0 - sc.discount)
    if zero_start:
        f = np.zeros(sc.grid.n)
    else:
        v1 = full_reveal_closed_form(sc).values
        f = v1 - v1.min()
    trail, images, residuals, restarted = [], [], [], False
    while True:
        new = step(f)
        d = new - f
        lo, hi = float(d.min()), float(d.max())
        width = 0.5 * c * (hi - lo)
        floor = 4.0 * (1.0 + c) * EPS * (float(np.abs(new).max()) + max(hi, -lo))
        if trail and not width < trail[-1]:
            images, residuals, restarted = [], [], True
        trail.append(width)
        if width + floor <= sc.tol:
            return new + 0.5 * c * (lo + hi), trail
        images, residuals = (images + [new])[-3:], (residuals + [d - d.mean()])[-3:]
        f = new
        if len(images) > 1 and (zero_start or not restarted or len(images) == 3):
            dd = residuals[-1] - np.array(residuals[:-1])
            try:
                gamma = np.linalg.solve(np.einsum("ij,kj->ik", dd, dd), np.einsum("ij,j->i", dd, residuals[-1]))
            except np.linalg.LinAlgError:
                continue
            out = new - np.einsum("i,ij->j", gamma, new - np.array(images[:-1]))
            if np.isfinite(out).all():
                f = out


@pytest.mark.parametrize("k", [2, 3])
def test_a_rate_one_solve_builds_two_envelopes(k, monkeypatch):
    # at rate 1 the continuation drops out of the target, so every sweep concavifies the same function,
    # the stage; the start reads u's envelope, which is kept with u, and the stage is kept with the chain's
    # operators along with its envelope, so a second solve builds none
    sc = replace(fresh_scenario(k), reveal_rate=1.0)
    lam = sc.discount
    want_cesaro = np.zeros(sc.grid.n)
    for _ in range(4):
        want_cesaro = rate_one_sweep(want_cesaro, sc.u.values / 4, 1.0, sc)
    built = []
    monkeypatch.setattr(envelope, "_Envelope", lambda f, cls=envelope._Envelope: built.append(f) or cls(f))
    res = solve(sc, "reveal")
    assert [f is sc.u for f in built] == [True, False]
    assert np.array_equal(built[1].values, (1.0 - lam) * sc.u.values)
    built.clear()
    again = solve(sc, "reveal")
    assert built == []
    assert np.array_equal(again.value.values, res.value.values)
    # the start is the fixed point up to rounding, so the first sweep certifies
    want, trail = accelerated(lambda f: rate_one_sweep(f, (1.0 - lam) * sc.u.values, lam, sc), sc)
    assert res.iterations == len(trail) == 1
    assert np.array_equal(res.value.values, want)
    built.clear()
    assert np.array_equal(solve_cesaro(sc, 4).values, want_cesaro)
    assert len(built) == 1


@pytest.mark.parametrize("name", BUNDLED)
@pytest.mark.parametrize("discount", [0.5, 0.9, 0.99, 0.9999])
def test_full_reveal_closed_form_is_the_row_value_system(name, discount):
    # written out through interpolate: xi solves (I - lam M) xi = (1 - lam) cav(u)(rows), bit for bit
    sc = bundled(name, discount=discount)
    cavu, M = cav_values(sc.u), sc.chain.M
    xi = np.linalg.solve(np.eye(sc.chain.k) - discount * M, (1.0 - discount) * interpolate(GridFn(sc.grid, cavu), M))
    want = (1.0 - discount) * cavu + discount * (sc.grid.points @ xi)
    assert np.array_equal(full_reveal_closed_form(sc).values, want)


# ---------------------------------------------------------------------------
# certificate trail


@pytest.mark.parametrize("k", [2, 3, "slow"])
@pytest.mark.parametrize("mode", ["no_reveal", "reveal"])
def test_half_widths_trail_the_certificate(k, mode):
    # recompute every sweep's half-width from solve's start through the public operator; "slow" is the bundled
    # slowly mixing two-state scenario
    sc = bundled("slow") if k == "slow" else fresh_scenario(k)
    res = solve(sc, mode)
    op = bellman_reveal if mode == "reveal" else bellman_no_reveal
    want, trail = accelerated(lambda f: op(GridFn(sc.grid, f), sc).values, sc)
    assert solver.ANDERSON_DEPTH == 3
    assert res.iterations == len(trail)
    assert np.array_equal(res.value.values, want)
    assert len(res.half_widths) == min(res.iterations, solver.HALF_WIDTHS_KEPT) == min(res.iterations, 20)
    assert res.half_widths == tuple(trail[-20:])
    assert res.half_widths[-1] == res.residual
    assert all(h > sc.tol for h in trail[:-1])
    # only the slow chain without revelations takes more than 20 sweeps here, so only its trail is cut
    assert (res.iterations > 20) == (k == "slow" and mode == "no_reveal")


@pytest.mark.parametrize("name", ["tent", "receiver", "cycle3", "kink3"])
@pytest.mark.parametrize("mode", ["no_reveal", "reveal"])
@pytest.mark.parametrize("discount", [0.9, 0.99, 0.995])
def test_acceleration_takes_fewer_sweeps_than_plain_iteration(name, mode, discount):
    # plain value iteration written out, stopped by the same certificate
    sc = bundled(name, discount=discount)
    op = bellman_reveal if mode == "reveal" else bellman_no_reveal
    c = discount / (1.0 - discount)
    f, plain, width = GridFn(sc.grid, np.zeros(sc.grid.n)), 0, np.inf
    while width > sc.tol:
        new = op(f, sc)
        d = new.values - f.values
        width, f, plain = 0.5 * c * (float(d.max()) - float(d.min())), new, plain + 1
    res = solve(sc, mode)
    assert res.iterations <= plain
    if name in ("tent", "cycle3"):
        assert 2 * res.iterations <= plain


# slow is left out: from the full-disclosure start its sweeps rise from 429 to 538 at 0.995 without
# revelations and from 20 to 34 at 0.9999 with them
@pytest.mark.parametrize("name", ["tent", "receiver", "parabola", "cycle3", "kink3", "periodic"])
@pytest.mark.parametrize("mode", ["no_reveal", "reveal"])
@pytest.mark.parametrize("discount", [0.5, 0.9, 0.99, 0.995, 0.9999])
def test_the_full_disclosure_start_takes_no_more_sweeps_than_zero(name, mode, discount):
    sc = bundled(name, discount=discount)
    op = bellman_reveal if mode == "reveal" else bellman_no_reveal
    _, from_zero = accelerated(lambda f: op(GridFn(sc.grid, f), sc).values, sc, zero_start=True)
    assert solve(sc, mode).iterations <= len(from_zero)


# ---------------------------------------------------------------------------
# guardrails


@pytest.mark.parametrize("op", [bellman_no_reveal, bellman_reveal])
def test_bellman_rejects_a_continuation_on_another_grid(op):
    # k = 2, R = 2 and k = 3, R = 1 grids both have 3 points
    g2, g3 = make_grid(2, 2), make_grid(3, 1)
    sc2 = Scenario(chain=validate_chain(np.array([[0.7, 0.3], [0.4, 0.6]])), u=GridFn(g2, np.ones(3)),
                   discount=0.9, reveal_rate=0.5)
    sc3 = Scenario(chain=validate_chain(np.array(CYCLE3_M)), u=GridFn(g3, np.ones(3)),
                   discount=0.9, reveal_rate=0.5)
    with pytest.raises(DimensionMismatch):
        op(GridFn(g3, np.arange(3.0)), sc2)
    with pytest.raises(DimensionMismatch):
        op(GridFn(g2, np.arange(3.0)), sc3)
    # another point count
    g4 = make_grid(2, 4)
    with pytest.raises(DimensionMismatch):
        op(GridFn(g4, np.arange(5.0)), sc2)
    # an equal grid built separately reads like the scenario's own
    same = op(GridFn(make_grid(2, 2), np.arange(3.0)), sc2)
    assert same.grid is g2
    assert np.array_equal(same.values, op(GridFn(g2, np.arange(3.0)), sc2).values)



def test_no_convergence_at_sweep_cap(scenario, monkeypatch):
    monkeypatch.setattr(solver, "MAX_SWEEPS", 1)
    with pytest.raises(NoConvergence):
        solve(scenario("tent", discount=0.9, reveal_rate=0.5), "reveal")


def test_a_solve_whose_rounding_floor_exceeds_tol_stops_at_once(monkeypatch):
    # at 1 - 1e-7 the certificate's own rounding, 4 (1 + c) eps max|f| with c = 1e7, is about 9e-9 on
    # periodic's values of size 1, above the default tol: no sweep can certify it, and solve says so in
    # the third sweep, the first whose iterate is large enough for the floor to pass tol, rather than
    # sweeping to the cap (about 10 s); a fourth sweep fails the test at once
    sc = bundled("periodic", discount=1.0 - 1e-7)
    sweeps, sweep = [], solver._sweep

    def three_sweeps_at_most(*args):
        sweeps.append(len(sweeps) + 1)
        assert len(sweeps) <= 3, "the solve went on past the sweep whose floor exceeds tol"
        return sweep(*args)

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_sweep", three_sweeps_at_most)
        with pytest.raises(NoConvergence, match=r"rounding floor \d\.\d{3}e-09 is above tol 1\.000e-09"):
            solve(sc, "no_reveal")
    assert sweeps == [1, 2, 3]
    # one decade less patient the floor, about 8.9e-10 on values of size 1, fits under tol, and the stop
    # passes over the third sweep, whose half-width is under tol but leaves no room for the floor
    res = solve(replace(sc, discount=1.0 - 1e-6), "no_reveal")
    floor = 4.0 * (1.0 + 1e6) * EPS
    assert res.half_widths[2] <= sc.tol < res.half_widths[2] + floor
    assert res.iterations > 3
    assert res.residual + floor <= sc.tol


def test_mode_and_rate_guards(scenario):
    with pytest.raises(ValueError):
        solve(scenario("tent"), "both")
    sc0 = scenario("tent", reveal_rate=0.0)
    with pytest.raises(ValueError):
        solve(sc0, "reveal")
    with pytest.raises(ValueError):
        bellman_reveal(GridFn(sc0.grid, np.zeros(sc0.grid.n)), sc0)


def test_scenario_validation(chain2, tent):
    with pytest.raises(ValueError):
        Scenario(chain=chain2, u=tent, discount=1.0, reveal_rate=0.5)
    with pytest.raises(ValueError):
        Scenario(chain=chain2, u=tent, discount=0.9, reveal_rate=1.5)
    for tol in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol"):
            Scenario(chain=chain2, u=tent, discount=0.9, reveal_rate=0.5, tol=tol)
    with pytest.raises(NegativePayoff):
        bad = GridFn(tent.grid, tent.values - 1.0)
        Scenario(chain=chain2, u=bad, discount=0.9, reveal_rate=0.5)
    chain3 = validate_chain(np.full((3, 3), 1.0 / 3.0))
    with pytest.raises(DimensionMismatch):
        Scenario(chain=chain3, u=tent, discount=0.9, reveal_rate=0.5)


def test_scenario_prior_handling(chain2, tent):
    # the prior is resolved once: the uniform belief when none is given, else the validated one,
    # stored read-only either way and carried over by replace
    sc = Scenario(chain=chain2, u=tent, discount=0.9, reveal_rate=0.5)
    assert sc.prior.tobytes() == np.full(2, 0.5).tobytes()
    given = [0.25, 0.75]
    sc2 = Scenario(chain=chain2, u=tent, discount=0.9, reveal_rate=0.5, prior=given)
    assert sc2.prior.tobytes() == np.array(given).tobytes()
    for prior in (sc.prior, sc2.prior, replace(sc2, discount=0.5).prior):
        assert not prior.flags.writeable
        with pytest.raises(ValueError):
            prior[0] = 0.0
    assert replace(sc2, discount=0.5).prior.tobytes() == sc2.prior.tobytes()
    assert replace(sc2, prior=None).prior.tobytes() == sc.prior.tobytes()
    with pytest.raises(DimensionMismatch):
        Scenario(chain=chain2, u=tent, discount=0.9, reveal_rate=0.5, prior=[[0.25, 0.75]])


# The convex table's envelope is affine, so full disclosure is optimal and the
# value does not depend on the revelation rate: a rate bug in the k = 3 sweep
# cannot show there. The min-kink table's envelope is not affine.
@pytest.mark.parametrize("table, rate_matters", [
    pytest.param(lambda q: np.abs(q[:, 1] - 0.5) + 0.25 * q[:, 0], False, id="convex"),
    pytest.param(min_kink3, True, id="min-kink"),
])
def test_three_state_reveal_solve_runs(table, rate_matters):
    M = np.array([[0.6, 0.3, 0.1], [0.1, 0.6, 0.3], [0.3, 0.1, 0.6]])
    chain = validate_chain(M)
    grid = make_grid(3, 12)
    u = GridFn(grid, table(grid.points))
    sc = Scenario(chain=chain, u=u, discount=0.9, reveal_rate=0.5, tol=1e-8)
    res = solve(sc, "reveal")
    direct = full_reveal_closed_form(Scenario(chain=chain, u=u, discount=0.9, reveal_rate=1.0))
    full = solve(Scenario(chain=chain, u=u, discount=0.9, reveal_rate=1.0, tol=1e-8), "reveal")
    assert full.value.values == pytest.approx(direct.values, abs=1e-7)
    assert np.all(res.value.values >= -1e-12)
    assert np.all(res.value.values <= u.values.max() + 1e-9)
    gap = np.abs(res.value.values - solve(sc, "no_reveal").value.values).max()
    assert (gap > 0.1) == rate_matters
