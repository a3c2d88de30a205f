"""Value iteration on the belief grid for the two information regimes.

Regime "no_reveal": the sender splits the belief each stage and the belief
then drifts through the transition matrix. Regime "reveal": additionally,
after each stage the realized state is disclosed publicly with probability
equal to the revelation rate, rebooting the belief to that state's
transition row. Both operators concavify a one-stage target, so iteration
is a sup-norm contraction with modulus equal to the discount; they are also
monotone and shift constants by the discount, which is what lets `solve`
stop on the MacQueen-Porteus bounds. Those bounds hold at any iterate, so
`solve` starts at the full-disclosure value (the closed form at rate 1)
rather than at zero, and takes each next iterate as the Anderson
combination of its last few sweeps rather than the last sweep alone: the
stopping rule and what it certifies are those of plain value iteration, and
only the sweep count changes.

Every operator reads the continuation value through the same two
interpolation operators, which depend only on the chain and the grid: the
containing cells of the next beliefs and of the transition rows, applied by
the in-order vertex sum that `interpolate` uses. They are built on first use
and kept with the chain, one set per grid, so the solves of a discount or
rate sweep over one scenario share them. Beside them each set keeps the
starts of the latest STARTS_KEPT (payoff, discount) pairs: the weighted
stage payoff, the full-disclosure start and the start's two continuation
reads, none of which depends on the mode or the rate, so the solves of one
payoff at one discount build them once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .belief import BeliefGrid, GridFn, _vertex_sum, interpolate, validate_belief
from .envelope import _read, cav_values
from .errors import (
    DimensionMismatch,
    NegativePayoff,
    NoConvergence,
    PreconditionFailed,
    RateBoundary,
    SingularSystem,
)

MODES = ("no_reveal", "reveal")
# solve raises NoConvergence after this many sweeps
MAX_SWEEPS = 100_000
# SolverResult.half_widths keeps this many of the last sweeps
HALF_WIDTHS_KEPT = 20
# solve takes each next iterate as the Anderson combination of at most this many of the last sweeps
ANDERSON_DEPTH = 3
# each chain and grid keep the starts of this many (payoff, discount) pairs, the latest used
STARTS_KEPT = 8
# the stage payoff touches its envelope at a belief where the two differ by at most this much
ENVELOPE_TOUCH_TOL = 1e-9
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class Scenario:
    """Everything a solve or a simulation needs, in one place.

    reveal_rate = 0 is accepted so the no-revelation dynamics can be run
    through the same plumbing, but the reveal-mode solver requires it
    positive. prior is the belief every simulated play starts at: given as
    one belief, or None for the uniform one, it is stored validated as a
    read-only array, which `dataclasses.replace` carries over (pass
    prior=None with a chain of another size).
    """

    chain: object
    u: GridFn
    discount: float
    reveal_rate: float
    tol: float = 1e-9
    seed: int = 0
    samples: int = 10_000
    prior: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.u.grid.k != self.chain.k:
            raise DimensionMismatch(f"grid over {self.u.grid.k} states, chain has {self.chain.k}")
        k = self.chain.k
        prior = np.full(k, 1.0 / k) if self.prior is None else validate_belief(self.prior, k)
        if prior.ndim != 1:
            raise DimensionMismatch(f"prior must be one belief, got shape {prior.shape}")
        prior.setflags(write=False)
        object.__setattr__(self, "prior", prior)
        if not 0.0 <= self.discount < 1.0:
            raise ValueError(f"discount must lie in [0, 1), got {self.discount}")
        if not 0.0 <= self.reveal_rate <= 1.0:
            raise ValueError(f"reveal_rate must lie in [0, 1], got {self.reveal_rate}")
        if float(self.u.values.min()) < 0.0:
            raise NegativePayoff("stage payoff must be nonnegative")
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")

    @property
    def grid(self) -> BeliefGrid:
        return self.u.grid


@dataclass(frozen=True)
class SolverResult:
    value: GridFn
    target: GridFn  # the stage objective at value, whose envelope is the operator's stage optimum
    iterations: int
    residual: float  # certified sup-norm distance bound to the fixed point, at most tol
    row_values: np.ndarray  # converged value at each transition row
    half_widths: tuple[float, ...]  # certificate half-widths of the last HALF_WIDTHS_KEPT sweeps, ending at residual

    policy = property(lambda self: self.target)  # alias of target, which the benchmark (perfbench/run.py) reads


class _Dynamics:
    """Interpolation operators for the one-step belief images of one chain on one grid.

    `shift` reads a grid function at every grid point's next belief (points @ M) and `rows` at
    each transition row. Each is the (grid indices, weights) pair of `BeliefGrid._cells`, both
    (m, k) with each vertex column contiguous, so `_vertex_sum(f, *shift)` equals
    `grid.interp_matrix(points @ M) @ f` bit for bit. Both come from one validated `_cells` call on
    the stacked queries, whose rows are located each on its own, and are copied out of it; only
    `_dynamics` builds them. Their arrays are read-only, so the operators it keeps cannot be
    changed through one solve under another. `starts` maps (payoff, discount) to its `_Start`,
    oldest used first; only `_start` fills it.
    """

    def __init__(self, chain, grid: BeliefGrid) -> None:
        cells = grid._cells(validate_belief(np.vstack([grid.points @ chain.M, chain.M]), grid.k))[:2]
        self.shift = tuple(_read_only(arr[: grid.n]) for arr in cells)
        self.rows = tuple(_read_only(arr[grid.n :]) for arr in cells)
        self.grid = grid
        self.starts = {}


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only copy of arr with each column contiguous."""
    out = np.array(arr, order="F")
    out.setflags(write=False)
    return out


def _dynamics(sc: Scenario) -> _Dynamics:
    """The operators of sc's chain on sc's grid, built on first use and kept with the chain, one per grid."""
    kept = vars(sc.chain).setdefault("_dynamics", {})
    if sc.grid not in kept:
        kept[sc.grid] = _Dynamics(sc.chain, sc.grid)
    return kept[sc.grid]


class _Start:
    """What every solve of one payoff at one discount reads before its first sweep, in either mode and at any rate.

    `stage` is the weighted stage payoff (1 - discount) u, whose envelope, once a rate-1 sweep
    builds it, stays on it; `f` is the full-disclosure value at the discount less its minimum, the
    first iterate; `reads` is f read at the next beliefs and at the transition rows through the
    chain's operators, which the first sweep takes in place of reading f again. Every array is
    read-only, so no solve can change the start of another.
    """

    def __init__(self, sc: Scenario, dyn: _Dynamics) -> None:
        self.stage = GridFn(sc.grid, (1.0 - sc.discount) * sc.u.values)
        f = full_reveal_closed_form(sc).values
        self.f = f - f.min()
        self.reads = _vertex_sum(self.f, *dyn.shift), _vertex_sum(self.f, *dyn.rows)
        for arr in (self.f, *self.reads):
            arr.setflags(write=False)


def _start(sc: Scenario) -> _Start:
    """The start of sc's payoff at sc's discount, built on first use and kept with the chain's operators.

    Keyed by the payoff object and the discount; the STARTS_KEPT latest used are kept, the oldest
    used dropped first.
    """
    dyn = _dynamics(sc)
    key = sc.u, sc.discount
    start = dyn.starts.pop(key, None) or _Start(sc, dyn)
    dyn.starts[key] = start
    if len(dyn.starts) > STARTS_KEPT:
        del dyn.starts[next(iter(dyn.starts))]
    return start


def _target(cont: np.ndarray, stage: np.ndarray, lam: float, x: float) -> np.ndarray:
    """Pre-concavification objective: stage payoff plus the continuation read at the next beliefs."""
    return stage + lam * (1.0 - x) * cont


def _sweep(f: np.ndarray, stage: GridFn, lam: float, x: float, dyn: _Dynamics,
           reads: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """One Bellman step: the target's envelope plus, at rate x, the rebooted continuation.

    At rate 1 the continuation drops out of the target (lam * 0 * cont adds a signed zero, whose
    sign the rebooted continuation erases), so the target is `stage` itself and the envelope kept
    with it serves every sweep of every solve that shares the stage. reads, when given, are f read
    at the next beliefs and at the rows (a `_Start`'s), and stand in for reading f.
    """
    shift, rows = reads or (None, None)
    if x == 1.0:
        target = stage
    else:
        cont = _vertex_sum(f, *dyn.shift) if shift is None else shift
        target = GridFn(dyn.grid, _target(cont, stage.values, lam, x))
    out = cav_values(target)
    if x > 0.0:
        out = out + lam * x * (dyn.grid.points @ (_vertex_sum(f, *dyn.rows) if rows is None else rows))
    return out


def _operator(sc: Scenario, reveal: bool) -> tuple[_Start, float, float]:
    """The kept start (whose stage is the weighted stage payoff), discount and revelation rate of one regime's operator."""
    if reveal and sc.reveal_rate <= 0.0:
        raise ValueError("reveal mode needs a positive reveal_rate")
    return _start(sc), sc.discount, sc.reveal_rate if reveal else 0.0


def _check_grid(f: GridFn, sc: Scenario, what: str) -> None:
    """Raises DimensionMismatch, naming f as what, unless f lies on a grid of sc's k and R."""
    if (f.grid.k, f.grid.resolution) != (sc.grid.k, sc.grid.resolution):
        raise DimensionMismatch(f"{what} on a k={f.grid.k}, R={f.grid.resolution} grid, "
                                f"scenario grid is k={sc.grid.k}, R={sc.grid.resolution}")


def _bellman(f: GridFn, sc: Scenario, reveal: bool) -> GridFn:
    """One application of a regime's operator to a continuation value on sc's grid."""
    _check_grid(f, sc, "continuation")
    start, lam, x = _operator(sc, reveal)
    return GridFn(sc.grid, _sweep(f.values, start.stage, lam, x, _dynamics(sc)))


def bellman_no_reveal(f: GridFn, sc: Scenario) -> GridFn:
    """One application of the no-revelation operator to a continuation value."""
    return _bellman(f, sc, False)


def bellman_reveal(f: GridFn, sc: Scenario) -> GridFn:
    """One application of the revelation operator to a continuation value."""
    return _bellman(f, sc, True)


def _anderson(images: deque, residuals: deque) -> np.ndarray:
    """The next iterate: the type-II Anderson combination of the kept sweeps (Walker & Ni 2011).

    g and d are the newest sweep and its residual, g_i and d_i the older ones, each residual less
    its mean. The weights gamma minimize the 2-norm of d - sum_i gamma_i (d - d_i), and the
    combination is g - sum_i gamma_i (g - g_i). With no older sweep, a singular system or a
    non-finite combination, the next iterate is g, the plain one. Every sum over grid points is an
    einsum, numpy's own loop, which adds in one order whatever the BLAS library and its threads.
    """
    g = images[-1]
    if len(images) == 1:
        return g
    dd = residuals[-1] - np.array(list(residuals)[:-1])
    try:
        gamma = np.linalg.solve(np.einsum("ij,kj->ik", dd, dd), np.einsum("ij,j->i", dd, residuals[-1]))
    except np.linalg.LinAlgError:
        return g
    out = g - np.einsum("i,ij->j", gamma, g - np.array(list(images)[:-1]))
    return out if np.isfinite(out).all() else g


def solve(sc: Scenario, mode: str) -> SolverResult:
    """Iterate the chosen operator from the full-disclosure value until its MacQueen-Porteus bounds certify tol.

    Both operators are monotone and satisfy T(f + c) = Tf + discount * c,
    so with d = Tf - f and c = discount / (1 - discount) the fixed point
    lies pointwise in [Tf + c min d, Tf + c max d] (Puterman 1994, section
    6.6). The sweep stops once half that interval's width,
    c * (max d - min d) / 2, plus the rounding floor of its computation,
    4 (1 + c) eps (max|Tf| + max|d|), is at most tol, and returns its
    midpoint, which is then within tol of the fixed point. The bounds hold whatever
    f is. The first f is the full-disclosure value at the same discount
    (`full_reveal_closed_form`) less its minimum: the constant is the midpoint's to
    carry, and an iterate near zero keeps d's span from rounding away at c
    near 1e7; with one state this is the zero start. That start, its two
    continuation reads, which the first sweep takes, and the weighted stage
    payoff are kept with the chain's operators per payoff and discount
    (`_start`), so a solve in the other mode or at another rate reuses
    them and returns the same bits as on a fresh chain. Each next f is the
    Anderson combination of the last ANDERSON_DEPTH sweeps Tf
    (`_anderson`), not Tf alone: a half-width that did not shrink drops the
    earlier sweeps, the next iterates are then plain sweeps until
    ANDERSON_DEPTH are kept again, and a combination that cannot be formed
    falls back to the last sweep. The width of plain iteration shrinks at
    the chain's mixing rate rather than at the discount; the start and the
    combination cut the sweeps, and iterations still counts them. The
    result keeps the half-widths of the last HALF_WIDTHS_KEPT sweeps.
    Raises NoConvergence at the sweep cap, and at once in a sweep whose
    floor alone exceeds tol, which no sweep can certify.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    start, lam, x = _operator(sc, mode == "reveal")
    stage, f, dyn = start.stage, start.f, _dynamics(sc)
    c = lam / (1.0 - lam)
    half_widths = deque(maxlen=HALF_WIDTHS_KEPT)
    images, residuals = deque(maxlen=ANDERSON_DEPTH), deque(maxlen=ANDERSON_DEPTH)
    restarted = False
    for it in range(1, MAX_SWEEPS + 1):
        new = _sweep(f, stage, lam, x, dyn, start.reads if it == 1 else None)
        d = new - f
        lo, hi = float(d.min()), float(d.max())
        bound = 0.5 * c * (hi - lo)
        # bound is formed from rounded values; max|Tf| + max|d| bounds max|f| as well
        floor = 4.0 * (1.0 + c) * _EPS * (float(np.abs(new).max()) + max(hi, -lo))
        if floor > sc.tol:
            raise NoConvergence(f"the certificate's rounding floor {floor:.3e} is above tol {sc.tol:.3e} at "
                                f"discount {lam}, so no sweep can certify it")
        if half_widths and not bound < half_widths[-1]:
            images.clear()
            residuals.clear()
            restarted = True
        half_widths.append(bound)
        if bound + floor <= sc.tol:
            f = new + 0.5 * c * (lo + hi)
            break
        images.append(new)
        residuals.append(d - d.mean())
        f = new if restarted and len(images) < ANDERSON_DEPTH else _anderson(images, residuals)
    else:
        raise NoConvergence(
            f"certified bound {bound:.3e} above {sc.tol:.3e} after {MAX_SWEEPS} sweeps"
        )

    return SolverResult(
        value=GridFn(sc.grid, f),
        # the midpoint shift adds a constant to the target (shift rows sum to 1),
        # which leaves the optimal splits unchanged
        target=GridFn(sc.grid, _target(_vertex_sum(f, *dyn.shift), stage.values, lam, x)),
        iterations=it,
        residual=bound,
        row_values=_vertex_sum(f, *dyn.rows),
        half_widths=tuple(half_widths),
    )


def full_reveal_closed_form(sc: Scenario) -> GridFn:
    """Fixed point at reveal_rate 1 by a direct linear solve.

    With certain disclosure every stage, the value is one concavification of
    the stage payoff plus an affine continuation through the values xi at
    the transition rows, which solve (I - lam M) xi = (1 - lam) cav(u)(rows).
    cav(u) is the envelope kept with sc.u, and the rows are read through the
    chain's kept operators, which equal `interpolate(., M)` bit for bit.
    `solve` starts from this value at its own discount, built once per payoff and discount (`_start`).
    """
    lam, cavu = sc.discount, cav_values(sc.u)
    try:
        xi = np.linalg.solve(np.eye(sc.chain.k) - lam * sc.chain.M,
                             (1.0 - lam) * _vertex_sum(cavu, *_dynamics(sc).rows))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("row-value system is singular") from exc
    return GridFn(sc.grid, (1.0 - lam) * cavu + lam * (sc.grid.points @ xi))


def solve_cesaro(sc: Scenario, horizon: int) -> GridFn:
    """Time-average value of the finite game by backward induction.

    Every stage contributes payoff / horizon; the revelation lottery at
    rate reveal_rate runs after each stage. No discounting.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    dyn = _dynamics(sc)
    stage = GridFn(sc.grid, sc.u.values / horizon)
    w = np.zeros(sc.grid.n)
    for _ in range(horizon):
        w = _sweep(w, stage, 1.0, sc.reveal_rate, dyn)
    return GridFn(sc.grid, w)


def asymptotic_value(rate: float, sc: Scenario) -> float:
    """Long-run value at a given revelation rate.

    Stationary-weighted value of the no-revelation game at discount
    1 - rate, read at the transition rows.
    """
    return float(sc.chain.pi @ solve_between_revelations(rate, sc).row_values)


def solve_between_revelations(rate: float, sc: Scenario) -> SolverResult:
    """The game played between revelations at a rate in (0, 1], solved; raises RateBoundary as `_between_revelations`."""
    return solve(_between_revelations(rate, sc), "no_reveal")


def _between_revelations(rate: float, sc: Scenario) -> Scenario:
    """sc at discount 1 - rate, whose no-revelation game is the game played between revelations at rate.

    Raises RateBoundary for a rate outside (0, 1], and where 1 - rate rounds to 1 (a rate below
    about 1.1e-16), which no discount may be.
    """
    if not 0.0 < rate <= 1.0:
        raise RateBoundary(f"revelation rate must lie in (0, 1], got {rate}")
    if 1.0 - rate == 1.0:
        raise RateBoundary(f"revelation rate {rate} is too small: 1 - rate rounds to 1 in floating point")
    return replace(sc, discount=1.0 - rate)


def row_average_value(discount: float, sc: Scenario) -> float:
    """Stationary-weighted no-revelation value at the transition rows.

    asymptotic_value(rate, sc) is this curve read at discount 1 - rate, where it solves the same game.
    """
    res = solve(replace(sc, discount=discount), "no_reveal")
    return float(sc.chain.pi @ res.row_values)


def check_no_info_at_concave_point(sc: Scenario, p, solved: SolverResult) -> bool | np.ndarray:
    """True when revealing nothing is optimal at a belief where u is concave.

    p is one belief (returns a bool) or an (m, k) batch (returns a bool per
    row), and solved is solve(sc, "reveal"). Precondition: the stage payoff
    attains its envelope at every belief (within ENVELOPE_TOUCH_TOL), otherwise
    PreconditionFailed. The check asks whether the degenerate split attains
    the stage optimum of the solved game within 2 * tol. The batch is located
    once on sc's grid, and both envelope reads (of u and of the solved target)
    take those cells, as `cav_at` would locate them for each.
    """
    q = validate_belief(p, sc.chain.k)
    batch = np.atleast_2d(q)
    _check_grid(solved.target, sc, "solved")
    cells = sc.grid._cells(batch)[:2]
    cav_u, u_at = _read(sc.u, batch, cells)
    miss = np.abs(u_at - cav_u)
    if (miss > ENVELOPE_TOUCH_TOL).any():
        raise PreconditionFailed(f"stage payoff misses its envelope by {miss.max():.3e} at a queried belief")
    _, lam, x = _operator(sc, True)
    # revealing nothing at q earns the target read at q; the stage optimum is its envelope
    best, _ = _read(solved.target, batch, cells)
    degenerate = _target(interpolate(solved.value, batch @ sc.chain.M), (1.0 - lam) * u_at, lam, x)
    ok = degenerate >= best - 2.0 * sc.tol
    return bool(ok[0]) if q.ndim == 1 else ok
