"""In-memory spans around the library's public functions, installed from outside.

A wrapper replaces each public function at every module attribute that
refers to it (``solver.cav_values``, ``cli.solve``, ``sim.solve`` ...), so
calls that go through a module's globals are seen too. Spans are recorded
only while an operation is open; calls made by the benchmark's own checks
pass straight through. Helpers that run once per query or per stage
(``BeliefGrid.locate``, ``validate_belief``) are not wrapped, because a span
per call would cost more than the call.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "persuasionlab"
MODULES = ("chain", "payoff", "belief", "envelope", "solver", "sim", "cli")

# Public functions wrapped per module; a name listed here that the module no
# longer has stops the traced run.
TARGETS = {
    "chain": ("validate_chain", "stationary", "sample_path", "ergodic_frequency_se"),
    "payoff": ("build_u",),
    "belief": ("make_grid", "interpolate", "kernel_from_split", "split_from_kernel",
               "validate_split", "bayes_posterior", "BeliefGrid.interp_matrix"),
    "envelope": ("cav_values", "cav_grid", "cav_split_at"),
    "solver": ("solve", "bellman_no_reveal", "bellman_reveal", "full_reveal_closed_form",
               "solve_cesaro", "asymptotic_value", "row_average_value",
               "check_no_info_at_concave_point"),
    "sim": ("replication_rng", "renewal_stats", "run_policy", "estimate_discounted",
            "estimate_renewal_average", "random_duration_value_mc", "strategy_optimal",
            "strategy_renewal_optimal", "strategy_couple_down", "discount_horizon"),
    "cli": ("main", "effective_config", "scenario_from_config", "cmd_solve", "cmd_verify",
            "cmd_simulate"),
}

# Work counted at a span from its arguments or result: name -> (counter, extractor).
WORK = {
    "envelope.cav_values": ("envelope.cav_values.points", lambda args, res: args[0].grid.n),
    "belief.interp_matrix": ("belief.interp_matrix.rows", lambda args, res: res.shape[0]),
    "solver.solve": ("solver.sweeps", lambda args, res: res.iterations),
}


class Tracer:
    """Spans as [name, start, end, parent index, op id], plus call and work counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.work: defaultdict = defaultdict(int)
        self.op = None
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def wrap(self, name: str, fn):
        tracer = self
        counter, extract = WORK.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            tracer.calls[name] += 1
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if counter is not None:
                tracer.work[counter] += extract(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at every package attribute bound to it."""
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        for mod_name, names in TARGETS.items():
            home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for dotted in names:
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(home, owner_name) if owner_name else home
                if attr not in vars(owner):
                    raise RuntimeError(f"{PACKAGE}.{mod_name}.{dotted} is gone; update spans.TARGETS")
                original = vars(owner)[attr]
                wrapper = self.wrap(f"{mod_name}.{attr}", original)
                holders = [owner] if owner_name else [m for m in modules if vars(m).get(attr) is original]
                for holder in holders:
                    setattr(holder, attr, wrapper)
                    self._installed.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._installed):
            setattr(holder, attr, original)
        self._installed.clear()

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def totals(self) -> tuple[dict, dict]:
        """Total and self seconds per span name."""
        total: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        for s, self_s in zip(self.spans, self.self_times()):
            total[s[0]] += s[2] - s[1]
            own[s[0]] += self_s
        return dict(total), dict(own)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
            fh.write(json.dumps({"calls": dict(self.calls), "work": dict(self.work)}) + "\n")
