"""Outside-in benchmark of persuasionlab: patient solves, verify suites and Monte Carlo.

Run from the repository root:

    python3 perfbench/run.py --workload solve-patient --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

  solve-patient  library solve() in both modes at lambda 0.99 and 0.995
  verify-suites  cli.main(["verify", ...]) with thm2, monotone_x, obs1, lemma1
  simulate       estimate_discounted / estimate_renewal_average with solved strategies

Every workload runs three phases in one process: solves, verify suites and
Monte Carlo estimates, so every end-to-end metric exists on every workload.
The phase the workload is named after takes most of the time; the other two
are small and exist so that each metric is always defined. Operation lists
are fixed by the seed and by ``--seconds`` alone (one plan per 30 seconds),
never by how fast the operations run, so two versions of the library do the
same work and their percentiles compare like with like.

With ``--trace 1`` the run executes its plan with spans around the public
functions of chain, payoff, belief, envelope, solver, sim and cli (and a
quarter of it untraced as well, for the tracing overhead), writes the spans
to perfbench/out/ and reports the per-layer metrics instead. The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0))
BLAS_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_CAPS:
    os.environ[_var] = str(NPROC)

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import tempfile
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NOMINAL_SECONDS = 30
SETUP_REPEATS = 3
IMPORT_REPEATS = 1
RENEWAL_HORIZON = 2000
# Nominal seconds of reference_seconds(); see that function.
REFERENCE_S = 0.010
# In a traced run, every this-many-th operation also runs untraced, for trace.overhead_frac.
OVERHEAD_EVERY = 4
CLI_EXITS = ("0", "1", "2", "3", "crash")


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "persuasionlab" / "__init__.py").is_file():
    _fail(f"no persuasionlab sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import persuasionlab  # noqa: E402
from persuasionlab import cli, envelope, payoff, sim, solver  # noqa: E402

if not Path(persuasionlab.__file__).resolve().is_relative_to(SRC):
    _fail(f"imported persuasionlab from {persuasionlab.__file__}, not from {SRC}")

import gates  # noqa: E402
import scenario_gen  # noqa: E402
from spans import Tracer  # noqa: E402

warnings.simplefilter("ignore", payoff.PayoffDiscontinuityWarning)


# ---------------------------------------------------------------------------
# plans


@dataclass(frozen=True)
class Spec:
    family: str
    doc_seed: int
    resolution: int | None = None


@dataclass(frozen=True)
class Op:
    kind: str            # "solve", "verify" or "mc"
    key: str             # scenario key
    mode: str = ""       # solve mode, verify suite, or MC strategy
    discount: float | None = None
    rate: float | None = None
    samples: int = 0
    timed_strategy: bool = False


@dataclass
class Plan:
    specs: dict
    ops: list
    probes: list = field(default_factory=list)   # untimed CLI calls on known defects


def _interleave(*phases: list) -> list:
    """Merge operation lists so that each is spread evenly over the run.

    The machine's speed drifts over seconds; spreading every metric's samples
    over the whole run keeps a slow spell from landing on one metric alone.
    """
    placed = [((j + 0.5) / len(ops), i, op) for i, ops in enumerate(phases) for j, op in enumerate(ops)]
    return [op for _, _, op in sorted(placed, key=lambda p: p[:2])]


def _small_scenarios(specs: dict, seed: int) -> list:
    """Eight cheap k=2 scenarios (R=50) for the minor phases of every workload.

    Many small scenarios rather than a few of the workload's own: a minor
    metric then averages over many policies and does not follow one draw.
    """
    keys = []
    for i, fam in enumerate(("tent", "receiver", "bump", "convex") * 2):
        keys.append(f"small-{fam}{i // 4}")
        specs[keys[-1]] = Spec(fam, seed * 1000 + 900 + i, 50)
    return keys


def _minor_verify(keys: list) -> list:
    """22 small obs1 suites, so that the tail (ten samples beyond it) sits above the median."""
    return [Op("verify", key, "obs1", discount=lam) for lam in (0.2, 0.3, 0.4) for key in keys][:22]


def _minor_mc(keys: list) -> list:
    """Estimates with strategies built before the phase, outside the timing.

    Each estimate starts with an empty belief cache, so short ones time the
    cache fill of one scenario's policy; a few hundred plays amortize it.
    """
    ops = []
    for key in keys:
        ops += [Op("mc", key, "optimal", samples=300), Op("mc", key, "sigma_star", samples=12)]
    return ops


# Extra solves per family: (mode, discount, revelation rate or None for the scenario's own)
PATIENT_EXTRA = {"tent": (("reveal", 0.995, None), ("reveal", 0.99, 0.25)),
                 "convex": (("reveal", 0.99, 0.25),),
                 "receiver": (("no_reveal", 0.995, None), ("reveal", 0.99, 0.25)),
                 "bump": (("reveal", 0.99, 0.25),),
                 "pl3": (("reveal", 0.995, None),)}


def plan_solve_patient(seed: int, reps: int) -> Plan:
    specs, solves = {}, []
    for r in range(reps):
        for i, fam in enumerate(("tent", "convex", "receiver", "bump", "pl3")):
            key = f"{fam}{r}"
            specs[key] = Spec(fam, seed * 1000 + 10 * r + i)
            solves += [Op("solve", key, "no_reveal", 0.99), Op("solve", key, "reveal", 0.99),
                       Op("solve", key, "reveal", 0.99, rate=1.0)]
            # 22 solves, so that the tail (ten samples beyond it) sits at p55, above the median
            solves += [Op("solve", key, mode, lam, rate=x) for mode, lam, x in PATIENT_EXTRA[fam]]
    small = _small_scenarios(specs, seed)
    return Plan(specs, _interleave(solves, _minor_verify(small), _minor_mc(small)))


def plan_verify_suites(seed: int, reps: int) -> Plan:
    specs, verifies, solves, probes = {}, [], [], []
    for r in range(2 * reps):
        for i, (fam, res) in enumerate((("bump", 100), ("tent", None), ("pl3", 40), ("smooth3", 12))):
            key = f"{fam}{r}"
            specs[key] = Spec(fam, seed * 1000 + 10 * r + i, res)
            # tent's thm2 on the full grid costs about what the k=3 obs1 and thm2 suites
            # cost, which puts the median and tail inside that cluster, not at its edge
            suites = {"bump": ("thm2", "monotone_x", "obs1", "lemma1"), "tent": ("thm2",),
                      "pl3": ("thm2", "monotone_x", "obs1"), "smooth3": ("thm2", "monotone_x", "obs1")}
            if r % 2:
                # the second smooth3 monotone_x (qhull-bound, the slowest suite per grid
                # point) gives way to a cheap tent obs1, which keeps the run short
                suites.update(tent=("thm2", "obs1"), smooth3=("thm2", "obs1"))
            verifies += [Op("verify", key, suite) for suite in suites[fam]]
            if r == 0 and scenario_gen.FAMILY_K[fam] >= 3:
                # known defect: lemma1 on k>=3 raises TypeError at envelope.py:225
                probes.append(Op("verify", key, "lemma1"))
    # cheap solves; the k=2 share is large so the median and tail fall inside one family,
    # on the full grid so that each lasts well beyond the reference task timed around it
    for r in range(2 * reps):
        for key, lams in ((f"tent{r}", (0.2, 0.3, 0.4, 0.5)), (f"pl3{r}", (0.5,)), (f"smooth3{r}", (0.5,))):
            solves += [Op("solve", key, mode, lam) for mode in ("no_reveal", "reveal") for lam in lams]
    return Plan(specs, _interleave(verifies, solves, _minor_mc(_small_scenarios(specs, seed))), probes)


def plan_simulate(seed: int, reps: int) -> Plan:
    specs, estimates = {}, []
    # many scenarios with few plays each: the stage rate depends on how many distinct
    # beliefs a policy visits, and averaging over scenarios keeps that from following the seed
    for r in range(4 * reps):
        for i, fam in enumerate(("tent", "receiver", "bump", "pl3")):
            key = f"{fam}{r}"
            specs[key] = Spec(fam, seed * 1000 + 10 * r + i)
            estimates += [Op("mc", key, "optimal", samples=300, timed_strategy=True),
                          Op("mc", key, "couple", samples=300, timed_strategy=True),
                          Op("mc", key, "sigma_star", samples=20, timed_strategy=True)]
    return Plan(specs, _interleave(estimates, _minor_verify(_small_scenarios(specs, seed))))


WORKLOADS = {
    "solve-patient": plan_solve_patient,
    "verify-suites": plan_verify_suites,
    "simulate": plan_simulate,
}


# ---------------------------------------------------------------------------
# set-up


def build_scenarios(specs: dict) -> dict:
    """Generate every document and build it through the public CLI config path."""
    docs, built = {}, {}
    for key, spec in specs.items():
        docs[key] = scenario_gen.scenario_doc(spec.doc_seed, spec.family, spec.resolution)
        built[key] = cli.scenario_from_config(cli.effective_config(docs[key]))
    return docs, built


def import_seconds() -> float:
    """Seconds to import numpy and the package in a fresh interpreter (median of a few)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import persuasionlab, persuasionlab.cli; print(time.perf_counter() - t)")
    times = []
    before = reference_seconds()
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                              text=True, timeout=120, check=True, cwd=ROOT)
        after = reference_seconds()
        times.append(float(done.stdout.strip().splitlines()[-1]) * REFERENCE_S / (0.5 * (before + after)))
        before = after
    return statistics.median(times)


_REF_MATRIX = np.random.default_rng(0).random((600, 600))


def reference_seconds() -> float:
    """Time of a fixed task that no program change can touch.

    On a shared machine the speed swings by up to 2x over seconds as other
    tenants come and go; every end-to-end time is scaled by REFERENCE_S over
    this task's time around it, so the metrics read in seconds of a machine
    on which the task takes REFERENCE_S, and the swings largely cancel. The
    task mixes what the library spends its time on: an interpreted loop,
    many small numpy calls and a strided copy that leaves the cache.
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(120_000):
        x += i * i
    a = np.arange(50.0)
    for _ in range(1200):
        a = np.maximum(a, a @ a * 1e-9)
    for _ in range(4):
        _REF_MATRIX.T.copy().sum()
    return time.perf_counter() - t0


def touch_frac(sc) -> float:
    """Share of grid points where the stage payoff meets its concave envelope."""
    u = sc.u.values
    cav = envelope.cav_values(sc.u)
    return float(np.mean(cav - u <= 1e-9 * (1.0 + np.abs(u).max())))


# ---------------------------------------------------------------------------
# operations


@dataclass
class Tally:
    """What one pass over a plan measured and checked."""

    solve_s: list = field(default_factory=list)     # (failed, seconds, op id)
    verify_s: list = field(default_factory=list)
    mc: dict = field(default_factory=lambda: {"discounted": [], "renewal": []})   # (stages, seconds, op id)
    speed: list = field(default_factory=list)       # machine factor per op id
    reps: int = 0
    renewal_attempted: int = 0
    renewal_kept: int = 0
    attempted: int = 0
    failed: int = 0
    check_failures: list = field(default_factory=list)
    cert_ratio: float = 0.0
    replay_mismatches: int = 0
    csv_bytes: int = 0
    exits: dict = field(default_factory=lambda: dict.fromkeys(CLI_EXITS, 0))
    probes: list = field(default_factory=list)
    busy: dict = field(default_factory=dict)     # op id -> seconds inside its timed span

    @property
    def busy_s(self) -> float:
        return sum(self.busy.values())


def run_cli(argv: list) -> tuple[int | str, str, str]:
    """Call cli.main in-process; returns (exit code or "crash", stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an escaped exception is a crash, reported as such
        code = "crash"
        err.write(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue()


class Runner:
    """Executes a plan's operations and checks each output outside its timing."""

    def __init__(self, plan: Plan, scenarios: dict, paths: dict, tracer: Tracer | None = None) -> None:
        self.plan = plan
        self.scenarios = scenarios
        self.paths = paths
        self.tracer = tracer
        self.strategies: dict = {}

    @contextlib.contextmanager
    def op(self, op_id):
        """Attribute the spans recorded inside to one operation."""
        if self.tracer is not None:
            self.tracer.op = op_id
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.op = None

    def strategy(self, op: Op, sc):
        """The strategy an MC operation plays, and the scenario and solve behind it when
        the benchmark makes that solve itself (couple:Y)."""
        if op.mode == "optimal":
            return sim.strategy_optimal(sc), None
        if op.mode == "sigma_star":
            return sim.strategy_renewal_optimal(sc), None
        target_sc = replace(sc, reveal_rate=min(1.0, sc.reveal_rate + 0.2))
        res = solver.solve(target_sc, "reveal")
        return sim.strategy_couple_down(res.policy, sc.reveal_rate, target_sc.reveal_rate, sc), (target_sc, res)

    def run(self) -> tuple[Tally, Tally | None]:
        """One pass over the plan; returns its tally and, when tracing, an untraced one.

        With a tracer every operation runs traced, and every OVERHEAD_EVERY-th
        one also untraced, right before or after (alternating), so the tracing
        overhead is measured on the same work and warm-up favours neither side.
        """
        main, plain = Tally(), (Tally() if self.tracer is not None else None)
        for op in self.plan.ops:
            if op.kind == "mc" and not op.timed_strategy and (op.key, op.mode) not in self.strategies:
                self.strategies[op.key, op.mode] = self.strategy(op, self.scenarios[op.key])
        before = reference_seconds()
        for op_id, op in enumerate(self.plan.ops):
            execute = getattr(self, f"_{op.kind}")
            if plain is None:
                main.attempted += 1
                execute(op_id, op, main)
                after = reference_seconds()
                main.speed.append(REFERENCE_S / (0.5 * (before + after)))
                before = after
                continue
            if op_id % OVERHEAD_EVERY:
                sides = (True,)
            else:
                sides = (True, False) if op_id % (2 * OVERHEAD_EVERY) else (False, True)
            for traced in sides:
                tally = main if traced else plain
                tally.attempted += 1
                if traced:
                    self.tracer.install()
                try:
                    execute(op_id, op, tally)
                finally:
                    self.tracer.uninstall()
        for op in self.plan.probes:
            code, _, err = self._cli(op, main)
            main.probes.append((op.key, op.mode, code, (err.strip().splitlines() or [""])[-1]))
        return main, plain

    def _solve(self, op_id, op: Op, t: Tally) -> None:
        sc = self.scenarios[op.key]
        sc = replace(sc, discount=op.discount,
                     reveal_rate=sc.reveal_rate if op.rate is None else op.rate)
        failed = False
        with self.op(op_id):
            t0 = time.perf_counter()
            try:
                res = solver.solve(sc, op.mode)
            except Exception as exc:
                failed, res = True, exc
            elapsed = time.perf_counter() - t0
        t.busy[op_id] = elapsed
        t.solve_s.append((failed, elapsed, op_id))
        if failed:
            t.failed += 1
            t.check_failures.append(f"solve {op}: {type(res).__name__}: {res}")
            return
        self._certify(sc, res, op.mode, op, t)

    def _certify(self, sc, res, mode: str, op: Op, t: Tally) -> None:
        ok, ratio = gates.certificate_ok(sc, mode, res.value.values)
        t.cert_ratio = max(t.cert_ratio, ratio)
        if not ok:
            t.check_failures.append(f"certificate {op}: bound/tol = {ratio:.6f}")
        if mode == "reveal" and sc.reveal_rate == 1.0 and not gates.closed_form_ok(sc, res.value.values):
            t.check_failures.append(f"closed form {op}")

    def _cli(self, op: Op, t: Tally):
        argv = ["verify", "--which", op.mode, "--scenario", self.paths[op.key]]
        if op.discount is not None:
            argv += ["--lambda", repr(op.discount)]
        code, out, err = run_cli(argv)
        t.exits[str(code) if str(code) in t.exits else "crash"] += 1
        t.csv_bytes += len(out.encode("utf-8"))
        return code, out, err

    def _verify(self, op_id, op: Op, t: Tally) -> None:
        with self.op(op_id):
            t0 = time.perf_counter()
            code, out, err = self._cli(op, t)
            elapsed = time.perf_counter() - t0
        t.busy[op_id] = elapsed
        ok = gates.cli_table_ok(code, out)
        t.verify_s.append((not ok, elapsed, op_id))
        if not ok:
            t.failed += 1
            t.check_failures.append(f"verify {op}: exit {code}: {err.strip()[-200:]}")

    def _mc(self, op_id, op: Op, t: Tally) -> None:
        sc = self.scenarios[op.key]
        renewal = op.mode == "sigma_star"
        seed = sc.seed + op_id
        with self.op(op_id):
            t0 = time.perf_counter()
            try:
                strat, solved = self.strategy(op, sc) if op.timed_strategy else self.strategies[op.key, op.mode]
                t1 = time.perf_counter()
                if renewal:
                    est = sim.estimate_renewal_average(sc, strat, RENEWAL_HORIZON, samples=op.samples, seed=seed)
                else:
                    est = sim.estimate_discounted(sc, strat, samples=op.samples, seed=seed)
                t2 = time.perf_counter()
            except Exception as exc:
                t.failed += 1
                t.busy[op_id] = time.perf_counter() - t0
                t.check_failures.append(f"mc {op}: {type(exc).__name__}: {exc}")
                if op.timed_strategy:
                    t.solve_s.append((True, time.perf_counter() - t0, op_id))
                return
        t.busy[op_id] = t2 - t0
        if solved is not None:
            self._certify(*solved, "reveal", op, t)
        if op.timed_strategy:
            t.solve_s.append((False, t1 - t0, op_id))
        attempted = est.samples + est.rejected
        t.mc["renewal" if renewal else "discounted"].append((attempted * est.horizon, t2 - t1, op_id))
        t.reps += attempted
        if renewal:
            t.renewal_attempted += attempted
            t.renewal_kept += est.samples
        bad = gates.replay_mismatches(sc, strat, est, seed, (0, len(est.values) - 1), renewal)
        t.replay_mismatches += bad
        if bad:
            t.check_failures.append(f"replay {op}: {bad} mismatches")


# ---------------------------------------------------------------------------
# statistics


def percentiles(samples: list) -> tuple[float, float, float, int]:
    """Median, tail value, tail percentile and sample count of (failed, seconds) pairs.

    The tail is the highest percentile with at least ten samples beyond it.
    A failed operation ranks above every success; a percentile that lands on
    one reads as the whole phase's time, which no success can exceed.
    """
    n = len(samples)
    if n < 11:
        raise RuntimeError(f"{n} samples leave no percentile with ten beyond it")
    cap = sum(s for _, s in samples)
    values = [cap if failed else s for failed, s in sorted(samples)]
    i = n - 11
    return statistics.median(values), values[i], 100.0 * (i + 1) / n, n


def end_to_end(t: Tally, setup_s: float) -> tuple[dict, list]:
    """End-to-end metrics in reference seconds: each operation's time times its machine factor."""
    metrics, notes = {"setup_s": (setup_s, "s")}, []
    for name in ("solve_s", "verify_s"):
        p50, tail, pct, n = percentiles([(failed, s * t.speed[i]) for failed, s, i in getattr(t, name)])
        metrics[f"{name}.p50"] = (p50, "s")
        metrics[f"{name}.tail"] = (tail, "s")
        notes.append(f"{name}.tail is p{pct:.0f} of {n} operations")
    for kind, runs in t.mc.items():
        # all stages of the kind over their reference seconds, so every scenario weighs by its work
        seconds = sum(s * t.speed[i] for _, s, i in runs)
        metrics[f"mc_stages_per_s.{kind}"] = (sum(n for n, _, _ in runs) / seconds, "1/s")
    notes.append(f"machine factor median {statistics.median(t.speed):.4f} "
                 f"(range {min(t.speed):.4f}..{max(t.speed):.4f})")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics, notes


def per_layer(t: Tally, tracer: Tracer, plain: Tally, touch: list) -> dict:
    total, own = tracer.totals()
    calls, work = tracer.calls, tracer.work

    def layer_self(prefix):
        return sum(v for k, v in own.items() if k.startswith(prefix + "."))

    sweeps = work["solver.sweeps"]
    points = work["envelope.cav_values.points"]
    m = {
        "envelope.cav_values.calls": (calls["envelope.cav_values"], "count"),
        "envelope.cav_values.s": (total.get("envelope.cav_values", 0.0), "s"),
        "envelope.cav_values.us_per_point": (1e6 * total.get("envelope.cav_values", 0.0) / max(points, 1), "us"),
        "solver.solve.calls": (calls["solver.solve"], "count"),
        "solver.sweeps": (sweeps, "count"),
        "solver.self_s": (layer_self("solver"), "s"),
        "solver.ms_per_sweep": (1e3 * total.get("solver.solve", 0.0) / max(sweeps, 1), "ms"),
        "solver.cert_ratio": (t.cert_ratio, "ratio"),
        "belief.make_grid_s": (total.get("belief.make_grid", 0.0), "s"),
        "belief.interp_matrix.calls": (calls["belief.interp_matrix"], "count"),
        "belief.interp_matrix.rows": (work["belief.interp_matrix.rows"], "count"),
        "belief.interp_matrix.s": (total.get("belief.interp_matrix", 0.0), "s"),
        "belief.interpolate.calls": (calls["belief.interpolate"], "count"),
        "belief.interpolate.s": (total.get("belief.interpolate", 0.0), "s"),
        "envelope.cav_grid.calls": (calls["envelope.cav_grid"], "count"),
        "envelope.cav_grid.s": (total.get("envelope.cav_grid", 0.0), "s"),
        "envelope.cav_split_at.calls": (calls["envelope.cav_split_at"], "count"),
        "envelope.cav_split_at.s": (total.get("envelope.cav_split_at", 0.0), "s"),
        "envelope.touch_frac": (statistics.mean(touch), "ratio"),
        "sim.stages": (sum(run[0] for runs in t.mc.values() for run in runs), "count"),
        "sim.reps": (t.reps, "count"),
        "sim.self_s": (layer_self("sim"), "s"),
        "sim.kept_frac": (t.renewal_kept / max(t.renewal_attempted, 1), "ratio"),
        "sim.replay_mismatches": (t.replay_mismatches, "count"),
        "cli.self_s": (layer_self("cli"), "s"),
        "cli.csv_bytes": (t.csv_bytes, "B"),
    }
    for code in CLI_EXITS:
        m[f"cli.exit.{code}"] = (t.exits[code], "count")
    m["chain.validate_s"] = (total.get("chain.validate_chain", 0.0), "s")
    m["payoff.build_u_s"] = (total.get("payoff.build_u", 0.0), "s")
    # median over operations of traced over untraced time; each pair runs back to back
    ratios = [t.busy[i] / plain.busy[i] for i in t.busy if plain.busy.get(i)]
    m["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "ratio")
    return m


def layer_shares(tracer: Tracer, busy_s: float) -> list:
    """Self time per span name and per module as a share of the timed operations, largest first."""
    own: dict = {}
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        if span[4] != "setup":
            for name in (span[0], span[0].split(".")[0] + ".*"):
                own[name] = own.get(name, 0.0) + self_s
    return sorted(((v / busy_s, k) for k, v in own.items()), reverse=True)


# ---------------------------------------------------------------------------
# main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=NOMINAL_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    plan = WORKLOADS[args.workload](args.seed, max(1, round(args.seconds / NOMINAL_SECONDS)))
    builds = []
    before = reference_seconds()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        docs, scenarios = build_scenarios(plan.specs)
        elapsed = time.perf_counter() - t0
        after = reference_seconds()
        builds.append(elapsed * REFERENCE_S / (0.5 * (before + after)))
        before = after

    touch = []
    for key, sc in scenarios.items():
        touch.append(touch_frac(sc))
        print(f"scenario {key}: family={plan.specs[key].family} k={sc.chain.k} n={sc.grid.n} "
              f"x={sc.reveal_rate:.4f} envelope.touch_frac={touch[-1]:.4f}")

    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        paths = {}
        for key, doc in docs.items():
            paths[key] = str(Path(tmp) / f"{key}.json")
            Path(paths[key]).write_text(json.dumps(doc), encoding="utf-8")
        runner = Runner(plan, scenarios, paths, tracer)
        if tracer is not None:
            tracer.install()
            try:
                with runner.op("setup"):
                    build_scenarios(plan.specs)
            finally:
                tracer.uninstall()
        tally, plain = runner.run()

    failures = list(tally.check_failures)
    for key, suite, code, last in tally.probes:
        print(f"known defect: verify --which {suite} on {key} (k={scenarios[key].chain.k}) "
              f"exits {code} {last}".rstrip())
    if tracer is not None:
        failures += plain.check_failures
        own = tracer.self_times()
        if own and min(own) < -1e-9:
            failures.append(f"span with negative self time {min(own):.3e} s")
        for share, name in layer_shares(tracer, tally.busy_s)[:10]:
            print(f"self-time share {name}: {share:.3f}")
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        metrics = per_layer(tally, tracer, plain, touch)
    else:
        metrics, notes = end_to_end(tally, import_seconds() + statistics.median(builds))
        for note in notes:
            print(note)

    # always 0 on these workloads, so it is printed but left out of the JSON metrics
    print(f"ops attempted={tally.attempted} failed={tally.failed}")
    print(f"ops_failed_frac = {tally.failed / tally.attempted:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
