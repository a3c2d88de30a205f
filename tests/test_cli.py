import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from persuasionlab import GridFn, cav_split_at, cli, envelope, interpolate, make_grid, sim, solve
from persuasionlab.errors import DimensionMismatch, NotBayesPlausible, ParseError

ROOT = Path(__file__).resolve().parents[1]

CANON = [[0.7, 0.3], [0.4, 0.6]]


def tent_doc(resolution=40, **extra):
    values = [1.0 - abs(1.0 - 2.0 * i / resolution) for i in range(resolution + 1)]
    doc = {
        "version": 1,
        "transition": CANON,
        "payoff": {"type": "table", "values": values},
        "lambda": 0.9,
        "x": 0.5,
        "grid_resolution": resolution,
        "seed": 0,
        "samples": 100,
    }
    doc.update(extra)
    return doc


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def parse_csv(path):
    meta, header, rows = {}, None, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return meta, header, rows


# ---------------------------------------------------------------------------
# what a command imports

# scipy subpackages the package imports only where a command needs them
LAZY = ("scipy.sparse", "scipy.spatial", "scipy.stats")

LOADED_AFTER = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import persuasionlab, persuasionlab.cli
codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(persuasionlab.cli.main(argv))
print(json.dumps([codes, [name for name in json.loads(sys.argv[3]) if name in sys.modules]]))
"""


def loaded_after(*commands):
    """Exit codes of cli commands run after the package import in a fresh interpreter, and the LAZY names it then holds."""
    package_root = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", LOADED_AFTER, str(package_root), json.dumps(commands),
                           json.dumps(LAZY)], capture_output=True, text=True, check=True, timeout=300, cwd=ROOT)
    return json.loads(done.stdout)


def test_the_package_import_loads_no_lazy_scipy_subpackage():
    assert loaded_after() == [[], []]


def test_two_state_solve_and_verify_load_no_lazy_scipy_subpackage():
    tent = "scenarios/tent.json"
    assert loaded_after(["solve", "--scenario", tent], ["verify", "--which", "thm2", "--scenario", tent]) == [[0, 0], []]


def test_a_three_state_solve_loads_scipy_spatial_for_its_hull():
    codes, loaded = loaded_after(["solve", "--scenario", "scenarios/kink3.json"])
    assert codes == [0]
    assert "scipy.spatial" in loaded and "scipy.stats" not in loaded


@pytest.mark.parametrize("shape", ["convex", "concave"])
def test_three_state_solve_and_verify_on_a_certified_table_load_no_scipy_spatial(tmp_path, shape):
    # every envelope of a convex table is the plane through its pure states, and every one of
    # this concave table is its own interpolant, so no solve or sweep builds a hull
    doc = json.loads((ROOT / "scenarios" / "cycle3.json").read_text(encoding="utf-8"))
    p = make_grid(3, 12).points
    bowl = ((p - [0.5, 0.3, 0.2]) ** 2) @ [1.0, 0.9, 1.1]
    table = bowl if shape == "convex" else 2.0 - bowl
    path = write_doc(tmp_path, {**doc, "grid_resolution": 12, "payoff": {"type": "table", "values": table.tolist()}})
    assert loaded_after(["solve", "--scenario", path], ["verify", "--which", "thm2", "--scenario", path]) == [[0, 0], []]


# ---------------------------------------------------------------------------
# configuration handling


def test_defaults_resolved():
    cfg = cli.effective_config({
        "version": 1,
        "transition": CANON,
        "payoff": {"type": "table", "values": [0.0] * 201},
        "lambda": 0.9,
        "x": 0.5,
    })
    assert cfg["grid_resolution"] == 200
    assert cfg["tolerance"] == 1e-9
    assert cfg["seed"] == 0
    assert cfg["samples"] == 10_000
    assert cfg["prior"] is None


def test_three_state_default_resolution():
    cfg = cli.effective_config({
        "version": 1,
        "transition": [[0.6, 0.3, 0.1], [0.1, 0.6, 0.3], [0.3, 0.1, 0.6]],
        "payoff": {"type": "table", "values": [0.0] * 861},
        "lambda": 0.5,
        "x": 0.5,
    })
    assert cfg["grid_resolution"] == 40


def test_effective_config_is_a_fixed_point():
    cfg = cli.effective_config(tent_doc())
    again = cli.effective_config(json.loads(cli.canonical_json(cfg)))
    assert again == cfg
    assert cli.config_hash(again) == cli.config_hash(cfg)


def test_hash_ignores_key_order_and_sees_content():
    doc = tent_doc()
    reordered = dict(reversed(list(doc.items())))
    assert cli.config_hash(cli.effective_config(doc)) == cli.config_hash(
        cli.effective_config(reordered)
    )
    changed = cli.effective_config(tent_doc(seed=1))
    assert cli.config_hash(changed) != cli.config_hash(cli.effective_config(doc))


def test_overrides_apply_and_none_is_ignored():
    cfg = cli.effective_config(tent_doc(), {"lambda": 0.5, "x": None, "seed": 7})
    assert cfg["lambda"] == 0.5
    assert cfg["x"] == 0.5
    assert cfg["seed"] == 7


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("version"),
    lambda d: d.update(version=2),
    lambda d: d.update(version=True),
    lambda d: d.update(extra_field=1),
    lambda d: d.update(transition=[[0.5, 0.5]]),
    lambda d: d.update(transition=[[0.5, 0.5], [0.5]]),
    lambda d: d.pop("payoff"),
    lambda d: d.update(payoff={"type": "mystery"}),
    lambda d: d.update(payoff={"type": "table", "values": [0.1], "bonus": 1}),
    lambda d: d.update(payoff={"type": "receiver", "actions": []}),
    lambda d: d.pop("lambda"),
    lambda d: d.update(**{"lambda": 1.0}),
    lambda d: d.update(x=1.5),
    lambda d: d.update(tolerance=0.0),
    lambda d: d.update(seed=2**64),
    lambda d: d.update(samples=0),
    lambda d: d.update(prior=[]),
    lambda d: d.update(prior=[0.5, "a"]),
])
def test_bad_documents_rejected(mutate):
    doc = tent_doc()
    mutate(doc)
    with pytest.raises(ParseError):
        cli.effective_config(doc)


def test_override_can_invalidate():
    with pytest.raises(ParseError):
        cli.effective_config(tent_doc(), {"lambda": 1.0})


def test_scenario_from_table_config():
    cfg = cli.effective_config(tent_doc(resolution=20, prior=[0.25, 0.75]))
    sc = cli.scenario_from_config(cfg)
    assert sc.chain.k == 2
    assert sc.grid.n == 21
    assert sc.discount == 0.9
    assert sc.reveal_rate == 0.5
    assert sc.prior == pytest.approx([0.25, 0.75])
    assert sc.u.values[10] == pytest.approx(1.0)


@pytest.mark.parametrize("prior,error,message", [
    ([0.5, 0.6], NotBayesPlausible, "sums to 1.1"),
    ([1.5, -0.5], NotBayesPlausible, "negative entry"),
    ([0.2, 0.3, 0.5], DimensionMismatch, "3 entries, expected 2"),
])
def test_a_config_prior_is_checked_by_the_scenario(tmp_path, capsys, prior, error, message):
    with pytest.raises(error, match=message):
        cli.scenario_from_config(cli.effective_config(tent_doc(prior=prior)))
    assert cli.main(["solve", "--scenario", write_doc(tmp_path, tent_doc(prior=prior))]) == cli.EXIT_INPUT
    assert message in capsys.readouterr().err


def test_scenario_from_receiver_config():
    cfg = cli.effective_config({
        "version": 1,
        "transition": CANON,
        "payoff": {
            "type": "receiver",
            "actions": ["hold", "act"],
            "sender_payoff": [[0.0, 1.0], [0.0, 1.0]],
            "receiver_payoff": [[1.0, 0.0], [0.0, 1.0]],
        },
        "lambda": 0.9,
        "x": 0.5,
        "grid_resolution": 10,
    })
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sc = cli.scenario_from_config(cfg)
    want = (sc.grid.points[:, 1] >= 0.5).astype(float)
    assert sc.u.values == pytest.approx(want)


# ---------------------------------------------------------------------------
# table formatting


def test_fmt_round_trips():
    assert cli._fmt(True) == "1"
    assert cli._fmt(False) == "0"
    assert cli._fmt(np.int64(3)) == "3"
    for v in (0.1, 1.0 / 3.0, 0.7714285706302952, 1e-300):
        assert float(cli._fmt(v)) == v


def test_result_table_guards_and_layout():
    table = cli.ResultTable(["a", "b"])
    with pytest.raises(ValueError):
        table.add_row(1.0)
    with pytest.raises(ValueError):
        table.add_row(1.0, float("nan"))
    table.add_meta("note", "hello")
    table.add_row(1, 0.5)
    import io

    buf = io.StringIO()
    table.write(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# note: hello"
    assert lines[1] == "a,b"
    assert lines[2] == "1,0.5"


# ---------------------------------------------------------------------------
# end-to-end commands


def test_main_builds_its_parser_once(tmp_path):
    cli.build_parser.cache_clear()
    path = write_doc(tmp_path, tent_doc())
    for name in ("a.csv", "b.csv"):
        assert cli.main(["solve", "--scenario", path, "--out", str(tmp_path / name)]) == cli.EXIT_PASS
    assert (cli.build_parser.cache_info().misses, cli.build_parser.cache_info().hits) == (1, 1)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_solve_writes_reproducible_table(tmp_path):
    path = write_doc(tmp_path, tent_doc())
    out = tmp_path / "solve.csv"
    assert cli.main(["solve", "--scenario", path, "--out", str(out)]) == cli.EXIT_PASS
    meta, header, rows = parse_csv(out)
    assert header == ["belief_0", "belief_1", "value"]
    assert len(rows) == 41
    assert meta["command"] == "solve --mode reveal"
    assert "iterations" in meta and "residual" in meta
    assert "row_value_0" in meta and "row_value_1" in meta
    effective = json.loads(meta["effective"])
    assert cli.config_hash(effective) == meta["scenario_sha256"]
    # values are a concave column between 0 and 1
    vals = np.array([r[2] for r in rows])
    assert np.all((vals >= -1e-12) & (vals <= 1.0 + 1e-12))


def test_solve_mode_and_overrides(tmp_path, capsys):
    path = write_doc(tmp_path, tent_doc())
    code = cli.main(["solve", "--scenario", path, "--mode", "no_reveal",
                     "--lambda", "0.5", "--seed", "9"])
    assert code == cli.EXIT_PASS
    captured = capsys.readouterr().out
    assert "# command: solve --mode no_reveal" in captured
    effective = json.loads(captured.split("# effective: ", 1)[1].splitlines()[0])
    assert effective["lambda"] == 0.5
    assert effective["seed"] == 9


def test_grid_override_must_match_table(tmp_path):
    path = write_doc(tmp_path, tent_doc())
    assert cli.main(["solve", "--scenario", path, "--grid", "10"]) == cli.EXIT_INPUT


def test_a_one_state_solve_takes_any_grid_resolution(tmp_path):
    # a one-state grid has one point at every resolution, so nothing is sized by the resolution
    doc = tent_doc(resolution=10, transition=[[1.0]], payoff={"type": "table", "values": [0.5]})
    out = tmp_path / "one.csv"
    code = cli.main(["solve", "--scenario", write_doc(tmp_path, doc), "--grid", str(10**12), "--out", str(out)])
    assert code == cli.EXIT_PASS
    _, header, rows = parse_csv(out)
    assert header == ["belief_0", "value"]
    assert rows == [[1.0, 0.5]]


def run_module(*argv):
    """`python -m persuasionlab` in a fresh interpreter, on the package these tests import."""
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path for path in paths if path)}
    return subprocess.run([sys.executable, "-m", "persuasionlab", *argv], capture_output=True, text=True,
                          timeout=300, cwd=ROOT, env=env)


def test_the_module_entry_point_writes_what_main_writes(tmp_path):
    tent = str(ROOT / "scenarios" / "tent.json")
    done = run_module("solve", "--scenario", tent, "--out", str(tmp_path / "module.csv"))
    assert done.returncode == cli.EXIT_PASS, done.stderr
    assert cli.main(["solve", "--scenario", tent, "--out", str(tmp_path / "main.csv")]) == cli.EXIT_PASS
    assert (tmp_path / "module.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()


def test_the_module_entry_point_exits_2_on_a_missing_scenario(tmp_path):
    done = run_module("solve", "--scenario", str(tmp_path / "nope.json"))
    assert done.returncode == cli.EXIT_INPUT
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr


def test_missing_and_invalid_files(tmp_path):
    assert cli.main(["solve", "--scenario", str(tmp_path / "nope.json")]) == cli.EXIT_INPUT
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cli.main(["solve", "--scenario", str(bad)]) == cli.EXIT_INPUT


def test_verify_obs1_passes(tmp_path):
    path = write_doc(tmp_path, tent_doc())
    out = tmp_path / "obs1.csv"
    code = cli.main(["verify", "--scenario", path, "--which", "obs1", "--out", str(out)])
    assert code == cli.EXIT_PASS
    meta, header, rows = parse_csv(out)
    assert meta["verdict"] == "pass"
    assert header == ["mode", "signals", "atoms", "value_gap", "barycenter_gap"]
    assert [r[:2] for r in rows] == [[0, 2], [1, 2]]
    assert all(1 <= r[2] <= 2 for r in rows)
    assert max(r[3] for r in rows) <= float(meta["value_tolerance"])
    assert max(r[4] for r in rows) <= float(meta["barycenter_tolerance"])


@pytest.mark.parametrize("name", ["receiver", "cycle3", "parabola"])
@pytest.mark.filterwarnings("ignore::persuasionlab.payoff.PayoffDiscontinuityWarning")
def test_verify_obs1_fails_on_splits_with_misplaced_weights(tmp_path, monkeypatch, name):
    # each split's weights rolled onto the wrong atoms: on receiver (k = 2) and cycle3 (k = 3) the
    # split no longer attains the envelope; parabola's split ends carry equal values, so only the
    # barycenter gap sees it
    split = envelope._Envelope.split

    def rolled(self, charts, values):
        atoms, weights = split(self, charts, values)
        return atoms, np.roll(weights, 1, axis=1)

    monkeypatch.setattr(envelope._Envelope, "split", rolled)
    out = tmp_path / "obs1.csv"
    code = cli.main(["verify", "--scenario", str(ROOT / "scenarios" / f"{name}.json"), "--which", "obs1",
                     "--out", str(out)])
    assert code == cli.EXIT_FAIL
    meta, _, rows = parse_csv(out)
    assert meta["verdict"] == "fail"
    value_failed = max(r[3] for r in rows) > float(meta["value_tolerance"])
    assert value_failed == (name != "parabola")
    assert max(r[4] for r in rows) > float(meta["barycenter_tolerance"])


@pytest.mark.parametrize("name", ["tent", "cycle3"])
def test_the_signal_alphabet_is_no_input(tmp_path, capsys, name):
    # a scenario file naming a signal count is rejected as an unknown field, and a one-column
    # kernel plays a single signal: the engine reads the alphabet off the kernel
    doc = json.loads((ROOT / "scenarios" / f"{name}.json").read_text(encoding="utf-8"))
    path = write_doc(tmp_path, {**doc, "signal_count": 5})
    assert cli.main(["solve", "--scenario", path]) == cli.EXIT_INPUT
    assert "signal_count" in capsys.readouterr().err
    sc = cli.scenario_from_config(cli.effective_config(doc))
    trace = sim.run_policy(sc, sim.Strategy(np.ones((sc.chain.k, 1))), 50, seed=3)
    assert not trace.signals.any()


def no_info_reference(sc, p, solved):
    """Revealing nothing is optimal at p, checked one belief at a time from two envelope splits."""
    lam, x = sc.discount, sc.reveal_rate
    cav_at_p, _, _ = cav_split_at(sc.u, p)
    u_at_p = interpolate(sc.u, p)
    assert abs(u_at_p - cav_at_p) <= 1e-9
    carried = interpolate(solved.value, sc.grid.points @ sc.chain.M)
    g = GridFn(sc.grid, (1.0 - lam) * sc.u.values + lam * (1.0 - x) * carried)
    best, _, _ = cav_split_at(g, p)
    degenerate = (1.0 - lam) * u_at_p + lam * (1.0 - x) * interpolate(solved.value, np.asarray(p) @ sc.chain.M)
    return degenerate >= best - 2.0 * sc.tol


@pytest.mark.parametrize("name", ["tent", "parabola", "receiver", "cycle3"])
@pytest.mark.filterwarnings("ignore::persuasionlab.payoff.PayoffDiscontinuityWarning")
def test_verify_lemma1_on_bundled_scenarios(tmp_path, name):
    path = ROOT / "scenarios" / f"{name}.json"
    out = tmp_path / "lemma1.csv"
    code = cli.main(["verify", "--scenario", str(path), "--which", "lemma1", "--out", str(out)])
    assert code == cli.EXIT_PASS
    meta, header, rows = parse_csv(out)
    assert meta["verdict"] == "pass"
    assert header[-3:] == ["stage_payoff", "envelope", "no_info_optimal"]
    assert len(rows) == int(meta["eligible_points"]) > 0
    # a per-point check built from cav_split_at is the reference for the table
    sc = cli.scenario_from_config(cli.effective_config(json.loads(path.read_text(encoding="utf-8"))))
    solved = solve(sc, "reveal")
    for row in rows:
        assert row[-1] == no_info_reference(sc, row[: sc.chain.k], solved)


def test_verify_lemma1_builds_the_payoff_envelope_once(tmp_path, monkeypatch):
    built = []

    class Counting(envelope._Envelope):
        def __init__(self, f):
            built.append(f.values.tobytes())
            super().__init__(f)

    monkeypatch.setattr(envelope, "_Envelope", Counting)
    path = ROOT / "scenarios" / "cycle3.json"
    code = cli.main(["verify", "--scenario", str(path), "--which", "lemma1", "--out", str(tmp_path / "l.csv")])
    assert code == cli.EXIT_PASS
    sc = cli.scenario_from_config(cli.effective_config(json.loads(path.read_text(encoding="utf-8"))))
    assert built.count(sc.u.values.tobytes()) == 1


@pytest.mark.parametrize("name", ["tent", "kink3"])
def test_verify_lemma1_builds_each_envelope_once(tmp_path, monkeypatch, name):
    # the check reads the stage optimum off the solve's final objective, whose
    # envelope a policy strategy of that solve plays
    built = []

    class Counting(envelope._Envelope):
        def __init__(self, f):
            built.append(f.values.tobytes())
            super().__init__(f)

    monkeypatch.setattr(envelope, "_Envelope", Counting)
    path = ROOT / "scenarios" / f"{name}.json"
    code = cli.main(["verify", "--scenario", str(path), "--which", "lemma1", "--out", str(tmp_path / "l.csv")])
    assert code in (cli.EXIT_PASS, cli.EXIT_FAIL)
    assert len(built) == len(set(built))


SUITES = ["thm1", "thm2", "monotone_x", "disint", "lemma1", "obs1"]
BUNDLED = ["tent", "parabola", "receiver", "cycle3", "kink3", "periodic", "slow"]

# Pairs whose suite reports fail where its claim holds, with the ROADMAP item that mends each; the
# change that mends one removes it here, and the test then holds that pair to a pass.
# - kink3 is the k=3 scenario whose envelope is not affine: ROADMAP item 3, reading the continuation
#   value through its concave envelope when k >= 3.
# - slow relaxes over about 333 stages, beyond the 200-stage horizon of thm1's most patient discount
#   0.995: ROADMAP item 4, the patient limit certified at lambda = 1.
KNOWN_FAILURES = {("lemma1", "kink3"): 3, ("thm1", "slow"): 4}


def verdict_from_table(which, meta, header, rows):
    """The verdict a suite's table states, recomputed from its header lines and rows alone."""
    col = {name: i for i, name in enumerate(header)}
    slack = float(meta.get("monotone_slack", "nan"))

    def series(key, name):
        # the named column, one list per value of the key column, in row order
        groups = {}
        for row in rows:
            groups.setdefault(row[col[key]], []).append(row[col[name]])
        return list(groups.values())

    def never_rises(values):
        return all(b <= a + slack for a, b in zip(values, values[1:]))

    if which == "thm1":
        tolerance = float(meta["sup_gap_tolerance"])
        ok = all(gaps[-1] <= tolerance and never_rises(gaps) for gaps in series("x", "sup_gap"))
    elif which == "thm2":
        values = [row[col["row_average"]] for row in rows]
        ok = all(b >= a - slack for a, b in zip(values, values[1:]))
    elif which == "monotone_x":
        ok = all(never_rises(values) for name in header if name.startswith("value_")
                 for values in series("lambda", name))
    elif which == "disint":
        ok = all(row[col["abs_error"]] <= row[col["bound"]] for row in rows)
    elif which == "lemma1":
        ok = all(row[col["no_info_optimal"]] == 1 for row in rows)
    elif which == "obs1":
        ok = all(row[col["value_gap"]] <= float(meta["value_tolerance"])
                 and row[col["barycenter_gap"]] <= float(meta["barycenter_tolerance"]) for row in rows)
    else:
        ok = all(row[col["failures"]] == 0 for row in rows)
    return "pass" if ok else "fail"


# `facts` checks tail formulas that read only the chain and the rate; it takes
# several seconds per scenario, so it runs on one k=2 and one k=3 scenario.
@pytest.mark.parametrize("which, name", [(which, name) for which in SUITES for name in BUNDLED]
                         + [("facts", "tent"), ("facts", "cycle3")])
@pytest.mark.filterwarnings("ignore::persuasionlab.payoff.PayoffDiscontinuityWarning")
def test_every_verify_suite_passes_on_bundled_scenarios(tmp_path, which, name):
    path = ROOT / "scenarios" / f"{name}.json"
    out = tmp_path / f"{which}.csv"
    code = cli.main(["verify", "--scenario", str(path), "--which", which, "--out", str(out)])
    known = (which, name) in KNOWN_FAILURES
    assert code == (cli.EXIT_FAIL if known else cli.EXIT_PASS)
    meta, header, rows = parse_csv(out)
    assert header and rows
    assert meta["verdict"] == ("fail" if known else "pass") == verdict_from_table(which, meta, header, rows)


def shift_limit(monkeypatch):
    # every sup gap is then about 0.1, above the 0.05 tolerance
    limit = cli.asymptotic_value
    monkeypatch.setattr(cli, "asymptotic_value", lambda x, sc: limit(x, sc) + 0.1)


def lift_solve(lift, value=True):
    """A patch that raises every solve's reboot values, and its value function unless told not to, by lift(sc)."""
    def patch(monkeypatch):
        solve_ = cli.solve

        def lifted(sc, mode):
            res = solve_(sc, mode)
            up = lift(sc)
            values = res.value.values + up if value else res.value.values
            return replace(res, value=GridFn(res.value.grid, values), row_values=res.row_values + up)

        monkeypatch.setattr(cli, "solve", lifted)

    return patch


# on this tent the sup gaps are about 0.1, 0.01 and 0.005 at lambda 0.9, 0.99 and 0.995; 0.02 more at
# 0.995 keeps the last gap below the 0.05 tolerance, so only the rise fails
raise_most_patient_values = lift_solve(lambda sc: 0.02 * (sc.discount == 0.995))
# on this tent each value falls 0.007-0.016 per 0.1 step in x, so 0.2 x rises past the slack, whether a
# suite reads the value function or the reboot values
raise_with_rate = lift_solve(lambda sc: 0.2 * sc.reveal_rate)
# the prior's column is left as it was, so only a verdict that reads the reboot columns fails
raise_reboot_values_with_rate = lift_solve(lambda sc: 0.2 * sc.reveal_rate, value=False)


def lower_patient_average(monkeypatch):
    # on this tent the row average rises 0.0086 from 0.9 to 0.95, so it then falls past the slack
    average = cli.row_average_value
    monkeypatch.setattr(cli, "row_average_value", lambda lam, sc: average(lam, sc) - 0.01 * (lam == 0.95))


def shift_duration_mean(monkeypatch):
    estimate = sim.random_duration_value_mc

    def shifted(sc, rate, strat):
        est = estimate(sc, rate, strat)
        return replace(est, mean=est.mean + 1.0)

    monkeypatch.setattr(sim, "random_duration_value_mc", shifted)


def offset_direct_tail_mean(monkeypatch):
    direct = cli._nb_conditional_mean_direct
    monkeypatch.setattr(cli, "_nb_conditional_mean_direct", lambda r, rate, n: direct(r, rate, n) + 1e-6)


def deny_quantile_bound(monkeypatch):
    bound = sim.clt_quantile_bound
    monkeypatch.setattr(sim, "clt_quantile_bound", lambda eps, rate: (bound(eps, rate)[0], False))


def recast_path(states=lambda s: s, coins=lambda c: c):
    """A patch that recasts the states and the revelation coins of every `sim.state_reveal_path`."""
    def patch(monkeypatch):
        path = sim.state_reveal_path

        def recast(sc, strat, horizon):
            path_states, path_coins = path(sc, strat, horizon)
            return states(path_states), coins(path_coins)

        monkeypatch.setattr(sim, "state_reveal_path", recast)

    return patch


# no coin in the second half: half the revelation frequency, but the same gaps in the first half
halve_revelations = recast_path(coins=lambda c: np.where(np.arange(c.size) < c.size // 2, c, 0))
# as many revelations, all at the start: the right frequency, but every gap is one stage
bunch_revelations = recast_path(coins=lambda c: np.arange(c.size) < np.count_nonzero(c))
# every state 0 and the coins kept: only the state occupation row sees it
pin_states_to_zero = recast_path(states=np.zeros_like)


@pytest.mark.parametrize("which, patch, failing_checks", [
    ("thm1", shift_limit, None),
    ("thm1", raise_most_patient_values, None),
    ("thm2", lower_patient_average, None),
    ("monotone_x", raise_with_rate, None),
    ("monotone_x", raise_reboot_values_with_rate, None),
    ("disint", shift_duration_mean, None),
    ("facts", offset_direct_tail_mean, [0]),
    ("facts", deny_quantile_bound, [1]),
    ("facts", halve_revelations, [2]),
    ("facts", bunch_revelations, [3]),
    ("facts", pin_states_to_zero, [4]),
], ids=["thm1", "thm1-rising_gap", "thm2", "monotone_x", "monotone_x-reboots", "disint", "facts-tail_mean",
        "facts-quantile", "facts-frequency", "facts-gaps", "facts-occupation"])
def test_every_verify_suite_fails_on_what_it_reads(tmp_path, monkeypatch, which, patch, failing_checks):
    # each patch breaks an input of the suite, never the suite itself
    patch(monkeypatch)
    out = tmp_path / f"{which}.csv"
    code = cli.main(["verify", "--scenario", write_doc(tmp_path, tent_doc(resolution=20)), "--which", which,
                     "--out", str(out)])
    assert code == cli.EXIT_FAIL
    meta, header, rows = parse_csv(out)
    assert header and rows
    assert meta["verdict"] == "fail" == verdict_from_table(which, meta, header, rows)
    if failing_checks is not None:
        assert [row[0] for row in rows if row[2]] == failing_checks


@pytest.mark.parametrize("transition, values", [
    ([[1.0]], [0.5]),
    ([[0.0, 1.0], [1.0, 0.0]], [1.0 - abs(1.0 - 2.0 * i / 10) for i in range(11)]),
], ids=["one_state", "two_cycle"])
def test_verify_facts_passes_on_zero_variance_chains(tmp_path, capsys, transition, values):
    # state occupation on these chains is deterministic, so its standard error is 0
    doc = tent_doc(resolution=10, transition=transition, payoff={"type": "table", "values": values})
    out = tmp_path / "facts.csv"
    code = cli.main(["verify", "--scenario", write_doc(tmp_path, doc), "--which", "facts", "--out", str(out)])
    assert code == cli.EXIT_PASS
    assert parse_csv(out)[0]["verdict"] == "pass"
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("x", ["1e-9", "1e-320"])
@pytest.mark.parametrize("name", ["tent", "cycle3"])
def test_verify_facts_passes_at_tiny_rates(tmp_path, capsys, name, x):
    # the million-stage path has no revelation, so the gap check is skipped in the header;
    # at 1e-320 the frequency check's x * (1 - x) / horizon would underflow to 0
    path = ROOT / "scenarios" / f"{name}.json"
    out = tmp_path / "facts.csv"
    code = cli.main(["verify", "--scenario", str(path), "--which", "facts", "--x", x, "--out", str(out)])
    assert code == cli.EXIT_PASS
    meta, _, rows = parse_csv(out)
    assert meta["verdict"] == "pass"
    assert meta["gap_check"].startswith("skipped")
    assert [row[0] for row in rows] == [0, 1, 2, 4]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("x", ["1e-17", "1e-320"])
@pytest.mark.parametrize("name", ["tent", "cycle3"])
def test_simulate_sigma_star_names_a_rate_too_small_for_a_discount(capsys, name, x):
    # the renewal strategy solves the game between revelations at discount 1 - x, which rounds to 1
    path = ROOT / "scenarios" / f"{name}.json"
    code = cli.main(["simulate", "--scenario", str(path), "--strategy", "sigma_star", "--x", x])
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert f"rate {x} " in err and "discount" not in err


@pytest.mark.parametrize("name", ["tent", "cycle3"])
def test_verify_disint_rejects_one_sample_before_playing(monkeypatch, capsys, name):
    # one replication has no standard error, so the suite refuses it as bad input
    monkeypatch.setattr(sim._Engine, "play", lambda *args, **kwargs: pytest.fail("played"))
    path = ROOT / "scenarios" / f"{name}.json"
    code = cli.main(["verify", "--scenario", str(path), "--which", "disint", "--samples", "1"])
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "samples" in err and "std_error" not in err


def test_verify_failure_exit_code(tmp_path, monkeypatch):
    monkeypatch.setitem(cli._VERIFIERS, "obs1", (lambda sc, table: False, lambda k: ["nothing"]))
    for path in (write_doc(tmp_path, tent_doc()), str(ROOT / "scenarios" / "cycle3.json")):
        out = tmp_path / "fail.csv"
        code = cli.main(["verify", "--scenario", path, "--which", "obs1", "--out", str(out)])
        assert code == cli.EXIT_FAIL
        meta, _, _ = parse_csv(out)
        assert meta["verdict"] == "fail"


def test_simulate_null_reports_replications(tmp_path):
    path = write_doc(tmp_path, tent_doc())
    out = tmp_path / "sim.csv"
    code = cli.main(["simulate", "--scenario", path, "--strategy", "null",
                     "--horizon", "50", "--samples", "20", "--out", str(out)])
    assert code == cli.EXIT_PASS
    meta, header, rows = parse_csv(out)
    assert header == ["rep", "value"]
    assert len(rows) == 20
    assert meta["scoring"] == "discounted"
    values = np.array([r[1] for r in rows])
    assert float(meta["mean"]) == pytest.approx(values.mean(), abs=1e-12)
    assert int(float(meta["kept"])) == 20
    assert "rep0_revelations" in meta


def test_simulate_optimal_smoke(tmp_path):
    path = write_doc(tmp_path, tent_doc(resolution=20))
    out = tmp_path / "opt.csv"
    code = cli.main(["simulate", "--scenario", path, "--strategy", "optimal",
                     "--horizon", "30", "--samples", "5", "--out", str(out)])
    assert code == cli.EXIT_PASS
    meta, _, rows = parse_csv(out)
    assert len(rows) == 5
    assert meta["scoring"] == "discounted"


def test_simulate_couple_smoke_and_guards(tmp_path):
    path = write_doc(tmp_path, tent_doc(resolution=20, x=0.3))
    out = tmp_path / "couple.csv"
    code = cli.main(["simulate", "--scenario", path, "--strategy", "couple:0.7",
                     "--horizon", "30", "--samples", "5", "--out", str(out)])
    assert code == cli.EXIT_PASS
    assert cli.main(["simulate", "--scenario", path, "--strategy", "couple:0.2",
                     "--horizon", "5", "--samples", "2"]) == cli.EXIT_INPUT
    assert cli.main(["simulate", "--scenario", path, "--strategy", "couple:abc",
                     "--horizon", "5", "--samples", "2"]) == cli.EXIT_INPUT
    assert cli.main(["simulate", "--scenario", path, "--strategy", "mystery",
                     "--horizon", "5", "--samples", "2"]) == cli.EXIT_INPUT


def test_simulate_renewal_all_rejected_is_numeric_failure(tmp_path):
    # a near-zero rate cannot produce two revelations in three stages
    for path in (write_doc(tmp_path, tent_doc(resolution=10)), str(ROOT / "scenarios" / "kink3.json")):
        code = cli.main(["simulate", "--scenario", path, "--strategy", "sigma_star",
                         "--x", "0.01", "--horizon", "3", "--samples", "5"])
        assert code == cli.EXIT_NUMERIC


@pytest.mark.parametrize("horizon", ["0", "1", "-5"])
def test_simulate_renewal_horizon_below_two_is_bad_input(tmp_path, capsys, horizon):
    for path in (write_doc(tmp_path, tent_doc(resolution=10)), str(ROOT / "scenarios" / "cycle3.json")):
        code = cli.main(["simulate", "--scenario", path, "--strategy", "sigma_star",
                         "--horizon", horizon, "--samples", "3"])
        assert code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert "horizon" in err and f"got {horizon}" in err


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate", "--scenario", "x.json"])


def test_generated_scenarios_validate(tmp_path):
    script = ROOT / "scripts" / "make_scenarios.py"
    subprocess.run([sys.executable, str(script), str(tmp_path)], check=True)
    files = sorted(tmp_path.glob("*.json"))
    assert len(files) >= 4
    # the bundled files are exactly what the script writes
    assert [f.name for f in files] == sorted(f.name for f in (ROOT / "scenarios").glob("*.json"))
    for file in files:
        assert file.read_bytes() == (ROOT / "scenarios" / file.name).read_bytes()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for file in files:
            cfg = cli.effective_config(json.loads(file.read_text(encoding="utf-8")))
            cli.scenario_from_config(cfg)


@pytest.mark.parametrize("flag,value,field", [
    ("--samples", "0", "samples"), ("--seed", "-1", "seed"), ("--lambda", "1.0", "lambda"), ("--x", "1.5", "x"),
    ("--tol", "0", "tolerance"), ("--tol", "nan", "tolerance"), ("--grid", "0", "grid_resolution")])
def test_overrides_are_validated_like_file_fields(tmp_path, capsys, flag, value, field):
    path = write_doc(tmp_path, tent_doc(resolution=10))
    code = cli.main(["simulate", "--scenario", path, "--strategy", "null", "--horizon", "5",
                     flag, value])
    assert code == cli.EXIT_INPUT
    assert f"'{field}'" in capsys.readouterr().err


def test_unexpected_exception_is_an_internal_error(tmp_path, monkeypatch, capsys):
    def broken(sc, table):
        raise RuntimeError("boom")

    path = write_doc(tmp_path, tent_doc())
    monkeypatch.setitem(cli._VERIFIERS, "obs1", (broken, lambda k: ["nothing"]))
    code = cli.main(["verify", "--scenario", path, "--which", "obs1"])
    assert code == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: boom\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["tent", "cycle3"])
@pytest.mark.parametrize("strategy", ["null", "full", "optimal", "sigma_star", "couple:0.9"])
def test_simulate_bundled_reruns_are_bit_identical(tmp_path, name, strategy):
    path = str(ROOT / "scenarios" / f"{name}.json")
    outs = [tmp_path / f"run{i}.csv" for i in range(2)]
    for out in outs:
        code = cli.main(["simulate", "--scenario", path, "--strategy", strategy,
                         "--samples", "6", "--horizon", "40", "--out", str(out)])
        assert code == cli.EXIT_PASS
    assert outs[0].read_bytes() == outs[1].read_bytes()
    meta, _, rows = parse_csv(outs[0])
    assert len(rows) == int(meta["kept"]) > 0


@pytest.mark.parametrize("name", ["tent", "cycle3"])
def test_simulate_renewal_is_sigma_star_by_another_name(tmp_path, name):
    path = str(ROOT / "scenarios" / f"{name}.json")
    lines = {}
    for strategy in ("sigma_star", "renewal"):
        out = tmp_path / f"{strategy}.csv"
        code = cli.main(["simulate", "--scenario", path, "--strategy", strategy,
                         "--samples", "6", "--horizon", "40", "--out", str(out)])
        assert code == cli.EXIT_PASS
        lines[strategy] = out.read_text(encoding="utf-8").splitlines()
    assert "# command: simulate --strategy sigma_star" in lines["sigma_star"]
    renamed = ["# command: simulate --strategy renewal" if line.startswith("# command: ") else line
               for line in lines["sigma_star"]]
    assert lines["renewal"] == renamed
    assert "# scoring: renewal_average" in renamed


@pytest.mark.parametrize("name", ["tent", "cycle3"])
@pytest.mark.parametrize("strategy", ["null", "full", "optimal", "sigma_star", "couple:0.9"])
def test_simulate_builds_one_engine(tmp_path, monkeypatch, name, strategy):
    # the estimate's engine is the command's only one: replication 0's header is read off its states
    # and coins alone, and equals the revelation statistics of its one-lane replay
    path = str(ROOT / "scenarios" / f"{name}.json")
    played, init = [], sim._Engine.__init__
    monkeypatch.setattr(sim._Engine, "__init__", lambda self, sc, strat: played.append(strat) or init(self, sc, strat))
    out = tmp_path / "sim.csv"
    code = cli.main(["simulate", "--scenario", path, "--strategy", strategy, "--samples", "6", "--out", str(out)])
    assert code == cli.EXIT_PASS
    assert len(played) == 1
    meta, _, _ = parse_csv(out)
    sc = cli.scenario_from_config(json.loads(meta["effective"]))
    stats = sim.renewal_stats(sim.run_policy(sc, played[0], int(meta["horizon"])).reveals)
    assert meta["rep0_revelations"] == cli._fmt(stats.revelations)
    assert meta["rep0_last_stage"] == cli._fmt(stats.last_stage)
    assert meta.get("rep0_mean_gap") == (cli._fmt(stats.kappas.mean()) if stats.revelations else None)


@pytest.mark.parametrize("strategy", ["optimal", "sigma_star"])
def test_a_horizon_too_large_to_allocate_is_bad_input(capsys, strategy):
    # 10**14 stages, hundreds of TiB at once, lie far above sim.MAX_HORIZON and are refused before
    # any array of that length is made: a discounted and a renewal estimate
    path = str(ROOT / "scenarios" / "tent.json")
    code = cli.main(["simulate", "--scenario", path, "--strategy", strategy, "--horizon", str(10**14)])
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "allocate" in err
    assert "Traceback" not in err and "internal error" not in err


# runs one cli.main call in a fresh interpreter whose address space is capped at 2 GiB, so a play too
# long for the machine fails at once on its first allocation instead of being granted and then killed
UNDER_2_GIB = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
sys.path.insert(0, sys.argv[1])
from persuasionlab import cli
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("strategy", ["optimal", "null", "couple:0.9"])
def test_a_patient_discount_is_refused_before_its_play_is_made(strategy):
    # at discount 0.9999999 the tail-derived horizon on tent is 299,336,048 stages, about 23 GiB a lane
    package_root = Path(cli.__file__).resolve().parents[1]
    argv = ["simulate", "--scenario", "scenarios/tent.json", "--strategy", strategy, "--lambda", "0.9999999",
            "--samples", "5"]
    done = subprocess.run([sys.executable, "-c", UNDER_2_GIB, str(package_root), *argv],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert done.returncode == cli.EXIT_INPUT
    assert done.stderr == ("error: the horizon derived from discount 0.9999999 is 299336048 stages, above the "
                           "10000000 stages one play may allocate\n")
    assert done.stdout == ""


def hard_chain(family: str, k: int, edges) -> list[list[float]]:
    """A periodic, slowly mixing or sparse irreducible k-state transition matrix.

    cyclic is the permutation state i -> i + 1; slow is 0.997 I + 0.003 uniform, second eigenvalue
    0.997; sparse adds the weighted edges (i, j, w) to the cycle and renormalizes its rows.
    """
    cycle = np.roll(np.eye(k), 1, axis=1)
    if family == "cyclic":
        return cycle.tolist()
    if family == "slow":
        return (0.997 * np.eye(k) + 0.003 / k).tolist()
    for i, j, w in edges:
        cycle[i % k, j % k] += w
    return (cycle / cycle.sum(axis=1, keepdims=True)).tolist()


# thm1 makes about 18,000 reveal sweeps whatever the scenario's discount, some 3 s on a k = 3 chain
# against 0.5 s on k = 2, and facts plays a million stages (about 1 s): to keep the test near 10 s the
# drawn examples run thm1 on k = 2 only and never run facts, and the explicit one (slow_suites) runs both
@settings(max_examples=5, deadline=None)
@given(family=st.sampled_from(["cyclic", "slow", "sparse"]), k=st.sampled_from([2, 3]),
       edges=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.floats(0.05, 1.0)), min_size=1, max_size=3),
       resolution=st.integers(1, 12), table=st.lists(st.floats(0.0, 1.0), min_size=91, max_size=91),
       discount=st.sampled_from([0.5, 0.9, 0.99]), rate=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
       slow_suites=st.just(False))
@example(family="slow", k=3, edges=[], resolution=4, table=[0.3 * (i % 4) for i in range(91)], discount=0.9,
         rate=0.5, slow_suites=True)
def test_hard_chains_exit_cleanly_from_every_command(family, k, edges, resolution, table, discount, rate,
                                                     slow_suites):
    # periodic, slowly mixing and sparse chains through every command: a verdict may fail (exit 1, verify
    # only), the input may be refused (2) or the numerics give up (3), but nothing crashes (4) or
    # prints a traceback
    points = resolution + 1 if k == 2 else (resolution + 1) * (resolution + 2) // 2
    doc = tent_doc(resolution=resolution, transition=hard_chain(family, k, edges), x=rate,
                   payoff={"type": "table", "values": table[:points]})
    doc["lambda"] = discount
    suites = [which for which in SUITES if which != "thm1" or k == 2 or slow_suites] + ["facts"] * slow_suites
    strategies = ("null", "full", "optimal", "sigma_star", "couple:0.9")
    runs = ([["solve", "--mode", mode] for mode in cli.MODES] + [["verify", "--which", which] for which in suites]
            + [["simulate", "--strategy", name, "--samples", "4"] for name in strategies])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "hard.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for run in runs:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([*run, "--scenario", str(path)])
            assert code in ((0, 1, 2, 3) if run[0] == "verify" else (0, 2, 3)), (run, code, err.getvalue())
            assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("name", ["tent", "cycle3", "kink3"])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), samples=st.integers(1, 8),
       mode=st.sampled_from(["no_reveal", "reveal"]),
       strategy=st.sampled_from(["null", "full", "optimal", "sigma_star", "couple:0.9"]))
def test_reruns_are_byte_identical_for_any_seed(name, seed, samples, mode, strategy):
    path = str(ROOT / "scenarios" / f"{name}.json")
    common = ["--scenario", path, "--seed", str(seed), "--samples", str(samples)]
    runs = {"solve": ["solve", "--mode", mode], "simulate": ["simulate", "--strategy", strategy]}
    with tempfile.TemporaryDirectory() as tmp:
        for command, argv in runs.items():
            outs = [Path(tmp) / f"{command}{i}.csv" for i in range(2)]
            for out in outs:
                assert cli.main(argv + common + ["--out", str(out)]) == cli.EXIT_PASS
            assert outs[0].read_bytes() == outs[1].read_bytes()
            assert json.loads(parse_csv(outs[0])[0]["effective"])["seed"] == seed


@pytest.mark.parametrize("renewal", [False, True])
def test_cycle3_replications_replay_in_isolation(renewal):
    doc = json.loads((ROOT / "scenarios" / "cycle3.json").read_text(encoding="utf-8"))
    sc = cli.scenario_from_config(cli.effective_config(doc, {"samples": 8}))
    horizon = 40
    if renewal:
        strat = sim.strategy_renewal_optimal(sc)
        est = sim.estimate_renewal_average(sc, strat, horizon)
    else:
        strat = sim.strategy_optimal(sc)
        est = sim.estimate_discounted(sc, strat, horizon=horizon)
    weights = (1.0 - sc.discount) * sc.discount ** np.arange(horizon)
    for i in (0, est.values.size - 1):
        trace = sim.run_policy(sc, strat, horizon, rep=int(est.rep_ids[i]))
        if renewal:
            stats = sim.renewal_stats(trace.reveals)
            replay = float(trace.stage_payoffs[int(stats.kappas[0]) : stats.last_stage].sum()) / horizon
        else:
            replay = weights @ trace.stage_payoffs
        assert replay == est.values[i]
