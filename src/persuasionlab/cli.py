"""Command line front end: solve scenarios, verify structural claims, simulate strategies.

Scenario files are strict UTF-8 JSON with an explicit schema version. Known
fields: "version" (must be 1), "transition" (square matrix), "payoff"
(either {"type": "table", "values": [...]} with one value per grid point, or
{"type": "receiver", "actions": [...], "sender_payoff": matrix,
"receiver_payoff": matrix}), "lambda", "x", and the optional
"grid_resolution", "tolerance", "seed", "samples", "prior". Unknown fields
are rejected so that typos cannot silently corrupt an experiment.

Output is CSV with a '#'-prefixed metadata header; the header carries the
effective configuration (defaults and overrides resolved), its sha256, the
seed, and library versions, which is enough to reproduce any table
bit-for-bit. Numbers are printed with 17 significant digits so a reread is
lossless.

Exit codes: 0 pass, 1 a verification verdict failed (the table is still
written), 2 bad input (including a play longer than sim.MAX_HORIZON stages
or any size too large to allocate), 3 numeric failure, 4 internal error (a bug).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from collections.abc import Callable
from dataclasses import replace

import numpy as np
import scipy

from . import __version__
from .belief import SPLIT_BARYCENTER_TOL, interpolate, make_grid
from .chain import ergodic_frequency_se, validate_chain
from .envelope import cav_grid, cav_values
from .errors import (
    AllRejected,
    BadRates,
    DegenerateTail,
    NoConvergence,
    ParseError,
    PersuasionError,
    RateBoundary,
    SingularSystem,
)
from .payoff import ReceiverPayoff, TablePayoff, build_u
from .solver import (
    ENVELOPE_TOUCH_TOL,
    MODES,
    Scenario,
    asymptotic_value,
    check_no_info_at_concave_point,
    row_average_value,
    solve,
    solve_between_revelations,
)
from . import sim

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4

# everything else raised by the library is an input problem
_NUMERIC_FAILURES = (NoConvergence, SingularSystem, AllRejected, DegenerateTail)

_SCHEMA_VERSION = 1
_KNOWN_KEYS = frozenset({
    "version", "transition", "payoff", "lambda", "x",
    "grid_resolution", "tolerance", "seed", "samples", "prior",
})
_TABLE_KEYS = frozenset({"type", "values"})
_RECEIVER_KEYS = frozenset({"type", "actions", "sender_payoff", "receiver_payoff"})


# ---------------------------------------------------------------------------
# result tables


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


class ResultTable:
    """Named numeric columns plus a '#'-prefixed metadata header."""

    def __init__(self, columns) -> None:
        self.columns = tuple(columns)
        self.rows: list[tuple] = []
        self.meta: dict[str, str] = {}

    def add_meta(self, key: str, value) -> None:
        self.meta[key] = value if isinstance(value, str) else _fmt(value)

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"row has {len(values)} cells for {len(self.columns)} columns")
        for col, v in zip(self.columns, values):
            if not math.isfinite(float(v)):
                raise ValueError(f"non-finite value in column {col}")
        self.rows.append(tuple(values))

    def write(self, stream) -> None:
        for key, value in self.meta.items():
            stream.write(f"# {key}: {value}\n")
        stream.write(",".join(self.columns) + "\n")
        for row in self.rows:
            stream.write(",".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# scenario files


def _number(doc: dict, key: str, default: float | None = None) -> float:
    if key not in doc:
        if default is None:
            raise ParseError(f"scenario field '{key}' is missing")
        return default
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(float(v)):
        raise ParseError(f"scenario field '{key}' must be a finite number, got {v!r}")
    return float(v)


def _integer(doc: dict, key: str, default: int, minimum: int = 0) -> int:
    v = doc.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"scenario field '{key}' must be an integer, got {v!r}")
    if v < minimum:
        raise ParseError(f"scenario field '{key}' must be at least {minimum}, got {v}")
    return v


def _vector(value, name: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ParseError(f"'{name}' must be a non-empty list of numbers")
    out = []
    for entry in value:
        if isinstance(entry, bool) or not isinstance(entry, (int, float)) or not math.isfinite(float(entry)):
            raise ParseError(f"'{name}' must contain only finite numbers, got {entry!r}")
        out.append(float(entry))
    return out


def _matrix(value, name: str) -> list[list[float]]:
    if not isinstance(value, list) or not value:
        raise ParseError(f"'{name}' must be a non-empty list of rows")
    rows = [_vector(row, f"{name} row {i}") for i, row in enumerate(value)]
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError(f"'{name}' rows have unequal lengths")
    return rows


def _payoff_config(value) -> dict:
    if not isinstance(value, dict):
        raise ParseError("'payoff' must be an object with a 'type' field")
    kind = value.get("type")
    if kind == "table":
        unknown = set(value) - _TABLE_KEYS
        if unknown:
            raise ParseError(f"unknown payoff fields: {sorted(unknown)}")
        return {"type": "table", "values": _vector(value.get("values"), "payoff values")}
    if kind == "receiver":
        unknown = set(value) - _RECEIVER_KEYS
        if unknown:
            raise ParseError(f"unknown payoff fields: {sorted(unknown)}")
        actions = value.get("actions")
        if not isinstance(actions, list) or not actions or not all(isinstance(a, str) for a in actions):
            raise ParseError("'payoff.actions' must be a non-empty list of action names")
        return {
            "type": "receiver",
            "actions": list(actions),
            "sender_payoff": _matrix(value.get("sender_payoff"), "payoff.sender_payoff"),
            "receiver_payoff": _matrix(value.get("receiver_payoff"), "payoff.receiver_payoff"),
        }
    raise ParseError(f"payoff type must be 'table' or 'receiver', got {kind!r}")


def effective_config(doc: dict, overrides: dict | None = None) -> dict:
    """Validate a raw scenario document and resolve every default.

    Overrides that are not None replace document fields before any check,
    so they are validated like the file. The result is a plain-types dict
    with a stable key set, suitable for canonical serialization and
    hashing. Unknown fields raise ParseError.
    """
    if not isinstance(doc, dict):
        raise ParseError("scenario file must contain a JSON object")
    doc = {**doc, **{key: value for key, value in (overrides or {}).items() if value is not None}}
    unknown = set(doc) - _KNOWN_KEYS
    if unknown:
        raise ParseError(f"unknown scenario fields: {sorted(unknown)}")
    version = doc.get("version")
    if version is None:
        raise ParseError("scenario field 'version' is missing")
    if isinstance(version, bool) or version != _SCHEMA_VERSION:
        raise ParseError(f"unsupported scenario version {version!r}, expected {_SCHEMA_VERSION}")
    transition = _matrix(doc.get("transition"), "transition")
    k = len(transition)
    if any(len(row) != k for row in transition):
        raise ParseError(f"'transition' must be square, got {len(transition)} rows of width {len(transition[0])}")

    cfg = {
        "version": _SCHEMA_VERSION,
        "transition": transition,
        "payoff": _payoff_config(doc.get("payoff")),
        "lambda": _number(doc, "lambda"),
        "x": _number(doc, "x"),
        "grid_resolution": _integer(doc, "grid_resolution", default=200 if k <= 2 else 40, minimum=1),
        "tolerance": _number(doc, "tolerance", default=1e-9),
        "seed": _integer(doc, "seed", default=0),
        "samples": _integer(doc, "samples", default=10_000, minimum=1),
        "prior": None if doc.get("prior") is None else _vector(doc["prior"], "prior"),
    }
    if cfg["tolerance"] <= 0:
        raise ParseError(f"'tolerance' must be positive, got {cfg['tolerance']}")
    if cfg["seed"] >= 2**64:
        raise ParseError(f"'seed' must fit in 64 bits, got {cfg['seed']}")

    if not 0.0 <= cfg["lambda"] < 1.0:
        raise ParseError(f"'lambda' must lie in [0, 1), got {cfg['lambda']}")
    if not 0.0 <= cfg["x"] <= 1.0:
        raise ParseError(f"'x' must lie in [0, 1], got {cfg['x']}")
    return cfg


def canonical_json(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode("utf-8")).hexdigest()


def scenario_from_config(cfg: dict) -> Scenario:
    """Build the runnable Scenario for an effective configuration."""
    chain = validate_chain(np.array(cfg["transition"], dtype=float))
    grid = make_grid(chain.k, cfg["grid_resolution"])
    payoff = cfg["payoff"]
    if payoff["type"] == "table":
        model = TablePayoff(np.array(payoff["values"], dtype=float))
    else:
        model = ReceiverPayoff(
            actions=tuple(payoff["actions"]),
            sender_values=np.array(payoff["sender_payoff"], dtype=float),
            receiver_values=np.array(payoff["receiver_payoff"], dtype=float),
        )
    return Scenario(
        chain=chain,
        u=build_u(model, grid),
        discount=cfg["lambda"],
        reveal_rate=cfg["x"],
        tol=cfg["tolerance"],
        seed=cfg["seed"],
        samples=cfg["samples"],
        prior=cfg["prior"],
    )


def _load(args) -> dict:
    try:
        with open(args.scenario, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{args.scenario}: not valid JSON ({exc})") from exc
    overrides = {
        "lambda": args.discount,
        "x": args.x,
        "grid_resolution": args.grid,
        "tolerance": args.tol,
        "seed": args.seed,
        "samples": args.samples,
    }
    return effective_config(doc, overrides)


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args, sc: Scenario) -> tuple[ResultTable, int]:
    res = solve(sc, args.mode)
    table = ResultTable([f"belief_{i}" for i in range(sc.chain.k)] + ["value"])
    table.add_meta("iterations", res.iterations)
    table.add_meta("residual", res.residual)
    for state, rv in enumerate(res.row_values):
        table.add_meta(f"row_value_{state}", rv)
    for point, value in zip(sc.grid.points, res.value.values):
        table.add_row(*point, value)
    return table, EXIT_PASS


# ---------------------------------------------------------------------------
# verify

# how far a monotone verdict (thm1, thm2, monotone_x) lets a step go the wrong way; its header states it
_MONOTONE_SLACK = 1e-3


def _verify_thm1(sc: Scenario, table: ResultTable) -> bool:
    """Discounted values converge uniformly to a prior-independent level."""
    rates = (0.3, 0.5, 1.0)
    discounts = (0.9, 0.99, 0.995)
    table.add_meta("sup_gap_tolerance", 0.05)
    table.add_meta("monotone_slack", _MONOTONE_SLACK)
    passed = True
    for x in rates:
        limit = asymptotic_value(x, sc)
        gaps = []
        for lam in discounts:
            res = solve(replace(sc, discount=lam, reveal_rate=x), "reveal")
            gap = float(np.max(np.abs(res.value.values - limit)))
            gaps.append(gap)
            table.add_row(x, lam, gap, limit)
        passed &= gaps[-1] <= 0.05
        passed &= all(gaps[i + 1] <= gaps[i] + _MONOTONE_SLACK for i in range(len(gaps) - 1))
    return passed


def _verify_thm2(sc: Scenario, table: ResultTable) -> bool:
    """Stationary-weighted no-revelation value is non-decreasing in patience."""
    discounts = [round(0.1 * i, 10) for i in range(10)] + [0.95]
    table.add_meta("monotone_slack", _MONOTONE_SLACK)
    values = []
    for lam in discounts:
        values.append(row_average_value(lam, sc))
        table.add_row(lam, values[-1])
    return all(values[i + 1] >= values[i] - _MONOTONE_SLACK for i in range(len(values) - 1))


def _verify_monotone_x(sc: Scenario, table: ResultTable) -> bool:
    """Value of the revelation game is non-increasing in the revelation rate."""
    discounts = (0.5, 0.9)
    rates = [round(0.1 * i, 10) for i in range(1, 11)]
    table.add_meta("monotone_slack", _MONOTONE_SLACK)
    passed = True
    for lam in discounts:
        rows = []
        for x in rates:
            res = solve(replace(sc, discount=lam, reveal_rate=x), "reveal")
            rows.append([interpolate(res.value, sc.prior), *res.row_values.tolist()])
            table.add_row(lam, x, *rows[-1])
        values = np.array(rows)  # one column per belief: the prior, then each reboot row
        passed &= bool(np.all(values[1:] <= values[:-1] + _MONOTONE_SLACK))
    return passed


def _verify_disint(sc: Scenario, table: ResultTable) -> bool:
    """A geometric-duration game is worth the matching discounted value over its rate."""
    if sc.samples < 2:
        raise ValueError(f"disint needs samples >= 2 for a standard error, got samples {sc.samples}")
    rates = (0.3, 0.5)
    passed = True
    for x in rates:
        res = solve_between_revelations(x, sc)
        est = sim.random_duration_value_mc(sc, x, sim.Strategy(res.target))
        target = interpolate(res.value, sc.prior) / x
        err = abs(est.mean - target)
        bound = 3.0 * est.std_error + 1e-2
        table.add_row(x, est.mean, est.std_error, target, err, bound)
        passed &= err <= bound
    return passed


def _verify_lemma1(sc: Scenario, table: ResultTable) -> bool:
    """Where the stage payoff meets its envelope, revealing nothing is optimal."""
    if sc.reveal_rate <= 0.0:
        raise RateBoundary("this check needs a positive revelation rate")
    envelope = cav_values(sc.u)
    u = sc.u.values
    eligible = np.nonzero(envelope - u <= ENVELOPE_TOUCH_TOL)[0]
    table.add_meta("eligible_points", int(eligible.size))
    table.add_meta("tolerance", 2.0 * sc.tol)
    no_info = check_no_info_at_concave_point(sc, sc.grid.points[eligible], solve(sc, "reveal"))
    for i, ok in zip(eligible, no_info):
        table.add_row(*sc.grid.points[i], u[i], envelope[i], int(ok))
    return bool(no_info.all())


def _verify_obs1(sc: Scenario, table: ResultTable) -> bool:
    """k signals attain the envelope, which allows any lottery over grid points.

    At every grid point the split `cav_grid` extracts, at most k atoms, reaches the envelope value
    and averages back to the point.
    """
    points = sc.grid.points
    modes = ("no_reveal", "reveal") if sc.reveal_rate > 0.0 else ("no_reveal",)
    table.add_meta("value_tolerance", 2.0 * sc.tol)
    table.add_meta("barycenter_tolerance", SPLIT_BARYCENTER_TOL)
    table.add_meta("mode_codes", "0=no_reveal 1=reveal")
    passed = True
    for code, mode in enumerate(modes):
        target = solve(sc, mode).target
        values, atoms, weights = cav_grid(target)
        # padding slots hold atom -1 with weight 0, so they add nothing
        value_gap = float(np.max(np.abs(values - np.sum(weights * target.values[atoms], axis=1))))
        barycenter_gap = float(np.max(np.abs(np.sum(weights[..., None] * points[atoms], axis=1) - points)))
        table.add_row(code, sc.chain.k, int((atoms >= 0).sum(axis=1).max()), value_gap, barycenter_gap)
        passed &= value_gap <= 2.0 * sc.tol and barycenter_gap <= SPLIT_BARYCENTER_TOL
    return passed


def _nb_conditional_mean_direct(r: int, rate: float, n: int) -> float:
    # independent route: sum the scipy pmf until the tail is exhausted
    from scipy.stats import nbinom  # imported here: scipy.stats dominates the package import

    mean = r * (1.0 - rate) / rate
    sd = math.sqrt(r * (1.0 - rate)) / rate
    hi = int(mean + 40.0 * sd) + n + 50
    ys = np.arange(n + 1, hi + 1)
    pmf = nbinom.pmf(ys, r, rate)
    mass = pmf.sum()
    if mass <= 0.0:
        raise DegenerateTail(f"tail mass underflows for r={r}, rate={rate}, n={n}")
    return float((ys * pmf).sum() / mass)


def _verify_facts(sc: Scenario, table: ResultTable) -> bool:
    """Exact tail formulas and path statistics behind the renewal analysis."""
    table.add_meta("check_0", "truncated negative binomial mean vs direct pmf sum")
    table.add_meta("check_1", "quantile bound margin z*eps - sqrt(2/(x(1-x)))*sqrt(eps)")
    table.add_meta("check_2", "revelation frequency vs rate, standardized")
    table.add_meta("check_3", "mean revelation gap vs 1/rate, standardized")
    table.add_meta("check_4", "state occupation frequencies vs stationary law, standardized")

    cases = failures = 0
    worst = 0.0
    for r in range(1, 11):
        for xi in range(1, 10):
            rate = 0.1 * xi
            for n in range(0, 51):
                err = abs(sim.nb_truncated_mean(r, rate, n) - _nb_conditional_mean_direct(r, rate, n))
                cases += 1
                worst = max(worst, err)
                failures += err > 1e-9
    table.add_row(0, cases, failures, worst, 1e-9)

    cases = failures = 0
    worst = -math.inf
    for ei in range(1, 50):
        eps = 0.01 * ei
        for xi in range(1, 20):
            rate = 0.05 * xi
            z, holds = sim.clt_quantile_bound(eps, rate)
            margin = z * eps - math.sqrt(2.0 / (rate * (1.0 - rate))) * math.sqrt(eps)
            cases += 1
            worst = max(worst, margin)
            failures += not holds
    table.add_row(1, cases, failures, worst, 0.0)

    x = sc.reveal_rate
    if 0.0 < x < 1.0:
        horizon = 1_000_000
        states, reveals = sim.state_reveal_path(sc, sim.strategy_null(sc), horizon)
        stats = sim.renewal_stats(reveals)

        freq = stats.revelations / horizon
        se = math.sqrt(x * (1.0 - x)) / math.sqrt(horizon)  # x * (1 - x) / horizon underflows at tiny x
        score = abs(freq - x) / se
        table.add_row(2, 1, int(score > 3.0), score, 3.0)

        gaps = stats.kappas
        if gaps.size:
            se = math.sqrt((1.0 - x) / x**2 / gaps.size)
            score = abs(float(gaps.mean()) - 1.0 / x) / se
            table.add_row(3, 1, int(score > 3.0), score, 3.0)
        else:
            table.add_meta("gap_check", f"skipped, no revelation in {horizon} stages at rate {x}")

        counts = np.bincount(states, minlength=sc.chain.k)
        # a deterministic occupation has standard error 0; one visit is the finest a count resolves
        ses = np.maximum(ergodic_frequency_se(sc.chain, horizon), 1.0 / horizon)
        scores = np.abs(counts / horizon - sc.chain.pi) / ses
        table.add_row(4, sc.chain.k, int(np.sum(scores > 3.0)), float(scores.max()), 3.0)
    else:
        table.add_meta("path_checks", f"skipped, rate {x} leaves no gap statistics")
    return all(row[2] == 0 for row in table.rows)


# each suite's check and its CSV header for a k-state chain
_VERIFIERS = {
    "thm1": (_verify_thm1, lambda k: ["x", "lambda", "sup_gap", "asymptotic"]),
    "thm2": (_verify_thm2, lambda k: ["lambda", "row_average"]),
    "monotone_x": (_verify_monotone_x,
                   lambda k: ["lambda", "x", "value_prior"] + [f"value_reboot_{state}" for state in range(k)]),
    "disint": (_verify_disint, lambda k: ["x", "estimate", "std_error", "target", "abs_error", "bound"]),
    "lemma1": (_verify_lemma1,
               lambda k: [f"belief_{i}" for i in range(k)] + ["stage_payoff", "envelope", "no_info_optimal"]),
    "obs1": (_verify_obs1, lambda k: ["mode", "signals", "atoms", "value_gap", "barycenter_gap"]),
    "facts": (_verify_facts, lambda k: ["check", "cases", "failures", "worst", "bound"]),
}


def cmd_verify(args, sc: Scenario) -> tuple[ResultTable, int]:
    check, header = _VERIFIERS[args.which]
    table = ResultTable(header(sc.chain.k))
    passed = check(sc, table)
    table.add_meta("verdict", "pass" if passed else "fail")
    return table, EXIT_PASS if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# simulate


def _resolve_strategy(token: str, sc: Scenario) -> tuple[Callable[[], sim.Strategy], bool]:
    """The strategy a CLI token names, built (and solved) when called; True means renewal-average scoring.

    The token and its rates are checked here, before anything is solved.
    """
    if token == "null":
        return functools.partial(sim.strategy_null, sc), False
    if token == "full":
        return functools.partial(sim.strategy_full, sc), False
    if token == "optimal":
        return functools.partial(sim.strategy_optimal, sc), False
    if token == "sigma_star":
        return functools.partial(sim.strategy_renewal_optimal, sc), True
    if token.startswith("couple:"):
        try:
            target = float(token.split(":", 1)[1])
        except ValueError as exc:
            raise ParseError(f"could not parse a rate from {token!r}") from exc
        if target <= sc.reveal_rate:
            raise BadRates(
                f"coupling needs a target rate above the scenario rate {sc.reveal_rate}, got {target}"
            )
        sim.coupling_aux_prob(sc.reveal_rate, target)  # refuses a rate off (0, 1] before the solve
        return lambda: sim.strategy_couple_down(solve(replace(sc, reveal_rate=target), "reveal").target,
                                                sc.reveal_rate, target, sc), False
    raise ParseError(
        f"unknown strategy {token!r}; pick optimal, sigma_star, couple:Y, null or full"
    )


def cmd_simulate(args, sc: Scenario) -> tuple[ResultTable, int]:
    build, renewal_scored = _resolve_strategy(args.strategy, sc)
    # the play's horizon is checked, as its estimator checks it, before the strategy's solve
    if renewal_scored:
        horizon = sim.play_horizon(sc, 2000 if args.horizon is None else args.horizon, minimum=2)
    else:
        horizon = sim.play_horizon(sc, args.horizon)
    estimate = sim.estimate_renewal_average if renewal_scored else sim.estimate_discounted
    strat = build()
    est = estimate(sc, strat, horizon=horizon)

    table = ResultTable(["rep", "value"])
    table.add_meta("scoring", "renewal_average" if renewal_scored else "discounted")
    table.add_meta("mean", est.mean)
    table.add_meta("std_error", est.std_error)
    table.add_meta("kept", est.samples)
    table.add_meta("rejected", est.rejected)
    table.add_meta("horizon", est.horizon)
    table.add_meta("truncation", est.truncation)

    _, reveals = sim.state_reveal_path(sc, strat, est.horizon)
    stats = sim.renewal_stats(reveals)
    table.add_meta("rep0_revelations", stats.revelations)
    table.add_meta("rep0_last_stage", stats.last_stage)
    if stats.revelations:
        table.add_meta("rep0_mean_gap", float(stats.kappas.mean()))

    for rep, value in zip(est.rep_ids, est.values):
        table.add_row(rep, value)
    return table, EXIT_PASS


# ---------------------------------------------------------------------------
# wiring


@functools.cache  # built on first use, not at import, and then shared by every main call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="persuasionlab",
        description="Solve, verify and simulate dynamic information-revelation scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", required=True, metavar="PATH", help="scenario JSON file")
    common.add_argument("--lambda", dest="discount", type=float, metavar="F",
                        help="override the discount factor")
    common.add_argument("--x", type=float, metavar="F", help="override the revelation rate")
    common.add_argument("--grid", type=int, metavar="N", help="override the grid resolution")
    common.add_argument("--tol", type=float, metavar="F", help="override the solver tolerance")
    common.add_argument("--seed", type=int, metavar="U64", help="override the master seed")
    common.add_argument("--samples", type=int, metavar="N", help="override the replication count")
    common.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")

    sp = sub.add_parser("solve", parents=[common],
                        help="value-iterate a scenario and dump the value function")
    sp.add_argument("--mode", choices=MODES, default="reveal",
                    help="dynamics to solve (default: reveal)")

    vp = sub.add_parser("verify", parents=[common],
                        help="run one structural check suite and report a verdict")
    vp.add_argument("--which", required=True, choices=sorted(_VERIFIERS),
                    help="thm1: discounted values converge to a prior-free level; "
                         "thm2: patience-average monotone; monotone_x: rate monotone; "
                         "disint: geometric-duration identity; lemma1: no-info optimality "
                         "at concave points; obs1: k signals attain the envelope; facts: tail "
                         "formulas and path statistics")

    mp = sub.add_parser("simulate", parents=[common],
                        help="Monte Carlo a strategy and dump per-replication payoffs")
    mp.add_argument("--strategy", required=True, metavar="NAME",
                    help="optimal | sigma_star | couple:Y | null | full")
    mp.add_argument("--horizon", type=int, metavar="N",
                    help="stages per replication (default: discount-derived, or 2000 "
                         "for sigma_star)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the command is looked up at call time, so a replaced cmd_* attribute is the one run
    command, option = {"solve": (cmd_solve, "mode"), "verify": (cmd_verify, "which"),
                       "simulate": (cmd_simulate, "strategy")}[args.command]
    try:
        cfg = _load(args)
        table, code = command(args, scenario_from_config(cfg))
        # every header leads with the stamp: versions, the command, the scenario and its effective config
        table.meta = {"tool": f"persuasionlab {__version__}", "numpy": np.__version__,
                      "scipy": scipy.__version__, "command": f"{args.command} --{option} {getattr(args, option)}",
                      "scenario_file": args.scenario, "scenario_sha256": config_hash(cfg),
                      "effective": canonical_json(cfg), **table.meta}
        if args.out is None:
            table.write(sys.stdout)
            sys.stdout.flush()
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                table.write(fh)
        return code
    except _NUMERIC_FAILURES as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # a MemoryError is an input too large to allocate
    except (PersuasionError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
