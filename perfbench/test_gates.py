"""Tests of the benchmark's own gates and span recorder.

Run from the repository root:

    python3 -m pytest -q perfbench/test_gates.py
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from persuasionlab import cli, sim, solver  # noqa: E402

import gates  # noqa: E402
import scenario_gen  # noqa: E402
import spans  # noqa: E402


@pytest.fixture(scope="module")
def tent():
    doc = scenario_gen.scenario_doc(3, "tent", resolution=50)
    return cli.scenario_from_config(cli.effective_config(doc))


@pytest.mark.parametrize("mode", ["no_reveal", "reveal"])
def test_certificate_accepts_solver_output_and_rejects_a_bump(tent, mode):
    sc = replace(tent, discount=0.95)
    values = solver.solve(sc, mode).value.values
    ok, ratio = gates.certificate_ok(sc, mode, values)
    assert ok and ratio <= 1.0
    bumped = values.copy()
    bumped[len(bumped) // 3] += 2.0 * sc.tol
    assert not gates.certificate_ok(sc, mode, bumped)[0]


def test_closed_form_gate_accepts_full_reveal_solve_and_rejects_a_bump(tent):
    sc = replace(tent, discount=0.95, reveal_rate=1.0)
    values = solver.solve(sc, "reveal").value.values
    assert gates.closed_form_ok(sc, values)
    bumped = values.copy()
    bumped[7] += 2.0 * sc.tol
    assert not gates.closed_form_ok(sc, bumped)


@pytest.mark.parametrize("renewal", [False, True])
def test_replay_matches_bit_for_bit_and_rejects_a_perturbed_value(tent, renewal):
    if renewal:
        strat = sim.strategy_renewal_optimal(tent)
        est = sim.estimate_renewal_average(tent, strat, 400, samples=6, seed=11)
    else:
        strat = sim.strategy_optimal(tent)
        est = sim.estimate_discounted(tent, strat, samples=6, seed=11)
    last = len(est.values) - 1
    assert gates.replay_mismatches(tent, strat, est, 11, (0, last), renewal) == 0
    values = est.values.copy()
    values[last] = np.nextafter(values[last], np.inf)
    perturbed = replace(est, values=values)
    assert gates.replay_mismatches(tent, strat, perturbed, 11, (0, last), renewal) == 1


def test_cli_table_gate():
    table = "# tool: x\nlambda,row_average\n0.5,1.0\n"
    assert gates.cli_table_ok(0, table)
    assert not gates.cli_table_ok(1, table)
    assert not gates.cli_table_ok(0, "# tool: x\nlambda,row_average\n")
    assert not gates.cli_table_ok("crash", "")


def test_tracer_records_nested_spans_and_restores_the_library(tent):
    original = solver.solve
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert solver.solve is not original and sim.solve is solver.solve
        tracer.op = 1
        solver.solve(replace(tent, discount=0.5), "reveal")
        tracer.op = None
        solver.solve(replace(tent, discount=0.5), "reveal")  # outside an op: no spans
    finally:
        tracer.uninstall()
    assert solver.solve is original and sim.solve is original
    assert tracer.calls["solver.solve"] == 1
    assert tracer.calls["envelope.cav_values"] == tracer.work["solver.sweeps"]
    names = {s[0] for s in tracer.spans}
    assert {"solver.solve", "envelope.cav_values", "belief.interp_matrix", "envelope.cav_grid"} <= names
    assert min(tracer.self_times()) >= 0.0
    assert all(s[4] == 1 for s in tracer.spans)


def test_tracer_fails_loudly_when_a_target_is_gone(monkeypatch):
    monkeypatch.setitem(spans.TARGETS, "solver", ("solve", "no_such_function"))
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError, match="no_such_function"):
        tracer.install()
    tracer.uninstall()
    assert not hasattr(solver.solve, "__wrapped__")
