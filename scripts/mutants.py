"""Check that each mutant in MUTANTS is killed by the test meant to kill it.

Run from the repository root, with pytest and hypothesis installed:

    python3 scripts/mutants.py

For each row it copies src, tests, scenarios, scripts, perfbench and
pyproject.toml to a temporary directory, replaces the row's old text in its
file by the new text, and runs `pytest -x` on the row's test node there
(PYTHONPATH=src). A mutant is killed when a test there fails, and a run that
passes or cannot start (an unknown node) kills nothing; first the killing
tests must pass on an unmutated copy. It prints one line per run and exits 1
if the unmutated run fails, any mutant was not killed, or any old text does
not occur exactly once in its file; a change that rewrites a mutated line
updates its row here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COPIED = ("src", "tests", "scenarios", "scripts", "perfbench", "pyproject.toml")
SIM, SOLVER, CLI = "src/persuasionlab/sim.py", "src/persuasionlab/solver.py", "src/persuasionlab/cli.py"
BELIEF = "src/persuasionlab/belief.py"
SIM_TESTS, CLI_TESTS, BELIEF_TESTS = "tests/test_sim.py", "tests/test_cli.py", "tests/test_belief.py"
FAILS_ON = f"{CLI_TESTS}::test_every_verify_suite_fails_on_what_it_reads"

# (name, file, exact old text, new text, killing test node)
MUTANTS = (
    ("reboot threshold without the no-revelation share", SIM,
     "rate + aux_prob * (1.0 - rate)", "rate + aux_prob * rate",
     f"{SIM_TESTS}::test_couple_down_reboot_frequency_and_disclosure"),
    ("no Anderson step", SOLVER,
     "else _anderson(images, residuals)", "else new",
     "tests/test_solver.py::test_acceleration_takes_fewer_sweeps_than_plain_iteration"),
    ("renewal score ends one stage early", SIM,
     "last = horizon - reveals[:, ::-1].argmax(axis=1)[kept]",
     "last = horizon - reveals[:, ::-1].argmax(axis=1)[kept] - 1",
     f"{SIM_TESTS}::test_renewal_bookkeeping_per_chunk_matches_each_lane_alone"),
    ("rep ids without the chunk offset", SIM,
     "rep_ids.append(first + kept)", "rep_ids.append(kept)",
     f"{SIM_TESTS}::test_renewal_bookkeeping_per_chunk_matches_each_lane_alone"),
    ("every chunk seeded from replication 0", SIM,
     "replication_rngs(seed, range(first, first + len(draws)))", "replication_rngs(seed, range(len(draws)))",
     f"{SIM_TESTS}::test_each_chunk_seeds_its_own_lanes_once_in_order"),
    ("exact value without the reboot term", SIM,
     "-lam * x * p[:, None] * engine.post[node, sig]", "0.0 * p[:, None] * engine.post[node, sig]",
     f"{SIM_TESTS}::test_each_strategy_earns_its_exact_value"),
    ("start kept by discount alone", SOLVER,
     "key = sc.u, sc.discount", "key = sc.discount",
     "tests/test_solver.py::test_two_payoffs_on_one_chain_and_grid_keep_separate_starts"),
    ("start's kept reads served to every sweep", SOLVER,
     "start.reads if it == 1 else None", "start.reads",
     "tests/test_solver.py::test_solves_that_reuse_a_kept_start_equal_a_fresh_chains"),
    ("solve without the rounding floor's early stop", SOLVER,
     "if floor > sc.tol:", "if False:",
     "tests/test_solver.py::test_a_solve_whose_rounding_floor_exceeds_tol_stops_at_once"),
    ("facts oracle's tail starts at n, not n + 1", CLI,
     "tails = np.asarray(ns) + 1", "tails = np.asarray(ns)",
     f"{CLI_TESTS}::test_every_verify_suite_passes_on_bundled_scenarios[facts-tent]"),
    ("facts verdict skips its last row", CLI,
     "return all(row[2] == 0 for row in table.rows)", "return all(row[2] == 0 for row in table.rows[:-1])",
     f"{FAILS_ON}[facts-occupation]"),
    ("monotone_x reads the prior's column only", CLI,
     "np.all(values[1:] <= values[:-1] + _MONOTONE_SLACK)", "np.all(values[1:, 0] <= values[:-1, 0] + _MONOTONE_SLACK)",
     f"{FAILS_ON}[monotone_x-reboots]"),
    ("thm1 without its monotone clause", CLI,
     "passed &= all(gaps[i + 1] <= gaps[i] + _MONOTONE_SLACK for i in range(len(gaps) - 1))", "",
     f"{FAILS_ON}[thm1-rising_gap]"),
    ("reboot to the current state's row node", SIM,
     "states.reshape(-1)[starts - 1]", "states.reshape(-1)[starts]",
     f"{SIM_TESTS}::test_lock_step_engine_matches_scalar_reference[tent-optimal-None]"),
    ("locator's ties resolved toward the earlier axis", BELIEF,
     'order = d - 1 - np.argsort(-frac[:, ::-1], axis=1, kind="stable")', 'order = np.argsort(-frac, axis=1, kind="stable")',
     f"{BELIEF_TESTS}::test_the_cell_locator_matches_the_reference_bit_for_bit"),
    ("stacked operator table split one row off", SOLVER,
     "self.rows = tuple(_read_only(arr[grid.n :]) for arr in cells)",
     "self.rows = tuple(_read_only(arr[grid.n + 1 :]) for arr in cells)",
     "tests/test_solver.py::test_kept_operators_equal_a_fresh_build_and_are_read_only"),
    ("prefilled successors one image off", SIM,
     "np.where(atom < 0, -1, first + atom)", "np.where(atom < 0, -1, first + 1 + atom)",
     f"{SIM_TESTS}::test_a_prefilled_estimate_equals_a_lazily_filled_one[tent]"),
    ("grid-point cells with the weight in the last slot", BELIEF,
     "w[:, 0] = 1.0", "w[:, -1] = 1.0",
     f"{BELIEF_TESTS}::test_the_grid_points_own_cells_are_where_the_locator_puts_them"),
)

# a test run that takes longer than this counts as killing its mutant
TIMEOUT_S = 300


def copy_tree(root: Path, dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info", "out")
    for name in COPIED:
        src = root / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def pytest_exit(root: Path, nodes: list[str], path: str | None = None, text: str = "") -> tuple[int | str, float]:
    """pytest's exit code on nodes, and its seconds, in a copy of the tree whose file path (if any) holds text."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        dest = Path(tmp)
        copy_tree(root, dest)
        if path is not None:
            (dest / path).write_text(text)
        start = time.perf_counter()
        try:
            code = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *nodes],
                                  cwd=dest, env={**os.environ, "PYTHONPATH": "src"}, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
        return code, time.perf_counter() - start


def killed(root: Path, name: str, path: str, old: str, new: str, node: str) -> bool:
    """Whether the node's tests fail on the mutant; False also when old does not occur exactly once."""
    text = (root / path).read_text()
    if text.count(old) != 1:
        print(f"STALE     {name}: {path} holds the old text {text.count(old)} times, not once")
        return False
    code, seconds = pytest_exit(root, [node], path, text.replace(old, new))
    # pytest exits 1 when a test failed; 0 means the mutant survived, and any other code (a node that
    # does not exist, an error in collection) kills nothing
    verdict = "killed" if code in (1, "timeout") else "SURVIVED" if code == 0 else "ERROR"
    print(f"{verdict:9} {name} ({seconds:.1f} s, pytest exit {code}) by {node}", flush=True)
    return verdict == "killed"


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    # a mutant counts as killed only by tests that pass on the unmutated tree
    code, seconds = pytest_exit(root, sorted({row[-1] for row in MUTANTS}))
    print(f"{'passed' if code == 0 else 'FAILED':9} the killing tests on the unmutated tree ({seconds:.1f} s, "
          f"pytest exit {code})", flush=True)
    results = [killed(root, *row) for row in MUTANTS]
    print(f"{sum(results)} of {len(results)} mutants killed")
    return 0 if code == 0 and all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
