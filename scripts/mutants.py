"""Check that each mutant in MUTANTS is killed by the test meant to kill it.

Run from the repository root, with pytest and hypothesis installed:

    python3 scripts/mutants.py

For each row it copies src, tests, scenarios, scripts, perfbench and
pyproject.toml to a temporary directory, replaces the row's old text in its
file by the new text, and runs `pytest -x` on the row's test node there
(PYTHONPATH=src). A mutant is killed when a test there fails, and a run that
passes or cannot start (an unknown node) kills nothing; first the killing
tests must pass on an unmutated copy. The rows then run two at a time,
since each waits on its pytest subprocess. It prints one line per run, in
the table's order, then the wall time, and exits 1 if the unmutated run
fails, any mutant was not killed, or any old text does not occur exactly once
in its file; a change that rewrites a mutated line updates its row here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

COPIED = ("src", "tests", "scenarios", "scripts", "perfbench", "pyproject.toml")
SIM, SOLVER, CLI = "src/persuasionlab/sim.py", "src/persuasionlab/solver.py", "src/persuasionlab/cli.py"
BELIEF, CHAIN = "src/persuasionlab/belief.py", "src/persuasionlab/chain.py"
ENVELOPE = "src/persuasionlab/envelope.py"
SIM_TESTS, CLI_TESTS, BELIEF_TESTS = "tests/test_sim.py", "tests/test_cli.py", "tests/test_belief.py"
FAILS_ON = f"{CLI_TESTS}::test_every_verify_suite_fails_on_what_it_reads"
CLOSED_FORM = "tests/test_chain.py::test_the_two_state_closed_form_equals_the_block_scan_bit_for_bit"
ORACLE = f"{SIM_TESTS}::test_on_two_states_solve_s_value_is_what_its_own_policy_earns[table]"

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
    ("every seed block seeded from replication 0", SIM,
     "replication_rngs(seed, range(first, min(first + _PLAY_STAGES, reps)))",
     "replication_rngs(seed, range(min(_PLAY_STAGES, reps - first)))",
     f"{SIM_TESTS}::test_an_estimate_seeds_its_lanes_once_in_order_in_blocks_of_the_lane_stage_budget"),
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
     "passed &= _never_rises(rows, slack)", "passed &= _never_rises(np.array(rows)[:, 0], slack)",
     f"{FAILS_ON}[monotone_x-reboots]"),
    ("thm1 without its monotone clause", CLI,
     "passed &= _never_rises(gaps, slack)", "",
     f"{FAILS_ON}[thm1-rising_gap]"),
    ("monotone slack floored at 1e-3 again", CLI,
     "values[:-1] + slack)", "values[:-1] + max(slack, 1e-3))",
     f"{FAILS_ON}[monotone_x-cycle3_1e-6]"),
    ("thm1's verdict reads its least patient row", CLI,
     "passed &= gaps[-1] <= 0.05", "passed &= gaps[0] <= 0.05",
     f"{CLI_TESTS}::test_every_verify_suite_passes_on_bundled_scenarios[thm1-slow]"),
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
    ("first fill's successors one image off", SIM,
     "image[self.touching] = ids[k + 1 :]", "image[self.touching] = np.roll(ids[k + 1 :], 1)",
     f"{SIM_TESTS}::test_each_prefilled_successor_is_the_node_the_lazy_fill_builds[tent]"),
    ("images equal to a row or the prior built again", SIM,
     "i = self.index.get(key) if j >= rows else None", "i = None",
     f"{SIM_TESTS}::test_a_policy_estimate_builds_its_nodes_in_one_fill[0.5]"),
    ("node keys taken from the first coordinate only", SIM,
     "np.dtype((np.void, beliefs.itemsize * beliefs.shape[1]))", "np.dtype((np.void, beliefs.itemsize))",
     f"{SIM_TESTS}::test_a_batch_is_keyed_by_each_belief_s_bytes_in_any_layout[C]"),
    ("equal rows deduplicated, so state st is no longer node st", SIM,
     "rows=k)", "rows=0)", f"{SIM_TESTS}::test_equal_rows_keep_their_own_row_nodes"),
    ("images kept when they fill the table to its cap", SIM,
     "if sc.chain.k + 1 + touching.size < self._CACHE_CAP:", "if sc.chain.k + 1 + touching.size <= self._CACHE_CAP:",
     f"{SIM_TESTS}::test_images_that_would_reach_the_table_cap_are_left_out[tent]"),
    ("exact solves over every table node", SIM,
     "nodes = engine._close(EXACT_NODES) if x < 1.0", "nodes = np.arange(engine.size) if x < 1.0",
     f"{SIM_TESTS}::test_the_exact_value_solves_over_the_nodes_a_play_reaches[tent-2000]"),
    ("grid-point cells with the weight in the last slot", BELIEF,
     "w[:, 0] = 1.0", "w[:, -1] = 1.0",
     f"{BELIEF_TESTS}::test_the_grid_points_own_cells_are_where_the_locator_puts_them"),
    ("two-state reset value stored without the swap parity", CHAIN,
     "np.bitwise_xor(low, parity[:, 1:], out=tag[:, 1:])", "np.copyto(tag[:, 1:], low)", CLOSED_FORM),
    ("two-state start ignored when stage 0 does not reset", CHAIN,
     "tag[:, 0] = starts", "tag[:, 0] = 0", CLOSED_FORM),
    ("two-state reset tags without their positions", CHAIN,
     "tag[:, 1:] += np.arange(2, 2 * b + 1, 2, dtype=tag.dtype)", "tag[:, 1:] += 2", CLOSED_FORM),
    ("lemma1 eligibility by an absolute 1e-9", CLI,
     "eligible = _touching(sc.u)", "eligible = np.nonzero(cav_values(sc.u) - sc.u.values <= 1e-9)[0]",
     f"{CLI_TESTS}::test_a_point_the_split_reader_splits_is_no_touching_point"),
    ("Qhull lifts a table of any span unscaled", ENVELOPE,
     "e = max(0, np.frexp(np.ptp(v))[1] - 1)", "e = 0",
     "tests/test_envelope.py::test_a_qhull_envelope_scales_with_its_table_by_every_power_of_two"),
    ("the optimal strategy plays the greedy split", SIM,
     "return Strategy(solve(sc, mode).target)", "return Strategy(sc.u)",
     f"{SIM_TESTS}::test_the_optimal_strategy_outearns_the_greedy_one_on_a_patient_switching_chain"),
    ("a policy target on another lattice played unchecked", SIM,
     '_check_grid(strat.plays, sc, "policy target")', "",
     f"{SIM_TESTS}::test_a_policy_target_on_another_lattice_is_refused[tent]"),
    ("touching slack with an absolute floor", ENVELOPE,
     "math.ldexp(1.0, math.frexp(peak)[1])", "(1.0 + peak)",
     "tests/test_envelope.py::test_a_table_times_a_power_of_two_touches_its_envelope_where_the_table_does[cycle3]"),
    ("reboot term without its rate", SOLVER,
     "out = out + lam * x * (dyn.grid.points @", "out = out + lam * (dyn.grid.points @", ORACLE),
    ("reboot term read in reversed state order", SOLVER,
     "out = out + lam * x * (dyn.grid.points @", "out = out + lam * x * (dyn.grid.points[:, ::-1] @",
     "tests/test_solver.py::test_renaming_the_states_permutes_the_values[cycle3]"),
    ("continuation read at the grid points, not at their next beliefs", SOLVER,
     "np.vstack([grid.points @ chain.M, chain.M])", "np.vstack([grid.points, chain.M])", ORACLE),
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


def killed(root: Path, name: str, path: str, old: str, new: str, node: str) -> tuple[bool, str]:
    """Whether the node's tests fail on the mutant, and the line that reports it; False also when old
    does not occur exactly once."""
    text = (root / path).read_text()
    if text.count(old) != 1:
        return False, f"STALE     {name}: {path} holds the old text {text.count(old)} times, not once"
    code, seconds = pytest_exit(root, [node], path, text.replace(old, new))
    # pytest exits 1 when a test failed; 0 means the mutant survived, and any other code (a node that
    # does not exist, an error in collection) kills nothing
    verdict = "killed" if code in (1, "timeout") else "SURVIVED" if code == 0 else "ERROR"
    return verdict == "killed", f"{verdict:9} {name} ({seconds:.1f} s, pytest exit {code}) by {node}"


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    start = time.perf_counter()
    # a mutant counts as killed only by tests that pass on the unmutated tree
    code, seconds = pytest_exit(root, sorted({row[-1] for row in MUTANTS}))
    print(f"{'passed' if code == 0 else 'FAILED':9} the killing tests on the unmutated tree ({seconds:.1f} s, "
          f"pytest exit {code})", flush=True)
    results = []
    # two rows at once, each thread waiting on its own pytest process: one per core of a 2-core machine
    with ThreadPoolExecutor(2) as pool:
        for result, line in pool.map(lambda row: killed(root, *row), MUTANTS):
            print(line, flush=True)
            results.append(result)
    print(f"{sum(results)} of {len(results)} mutants killed in {time.perf_counter() - start:.1f} s wall time")
    return 0 if code == 0 and all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
