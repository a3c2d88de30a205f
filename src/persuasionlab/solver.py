"""Value iteration on the belief grid for the two information regimes.

Regime "no_reveal": the sender splits the belief each stage and the belief
then drifts through the transition matrix. Regime "reveal": additionally,
after each stage the realized state is disclosed publicly with probability
equal to the revelation rate, rebooting the belief to that state's
transition row. Both operators concavify a one-stage target, so iteration
is a sup-norm contraction with modulus equal to the discount; they are also
monotone and shift constants by the discount, which is what lets `solve`
stop on the MacQueen-Porteus bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .belief import BeliefGrid, GridFn, interpolate
from .envelope import cav_grid, cav_split_at, cav_values
from .errors import (
    DimensionMismatch,
    NegativePayoff,
    NoConvergence,
    PreconditionFailed,
    SingularSystem,
)

MODES = ("no_reveal", "reveal")


@dataclass(frozen=True, eq=False)
class Scenario:
    """Everything a solve or a simulation needs, in one place.

    reveal_rate = 0 is accepted so the no-revelation dynamics can be run
    through the same plumbing, but the reveal-mode solver requires it
    positive.
    """

    chain: object
    u: GridFn
    discount: float
    reveal_rate: float
    signal_count: int = 0
    tol: float = 1e-9
    max_sweeps: int = 100_000
    seed: int = 0
    samples: int = 10_000
    prior: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.u.grid.k != self.chain.k:
            raise DimensionMismatch(f"grid over {self.u.grid.k} states, chain has {self.chain.k}")
        if self.prior is not None:
            from .belief import validate_belief

            prior = validate_belief(self.prior, self.chain.k)
            if prior.ndim != 1:
                raise DimensionMismatch(f"prior must be one belief, got shape {prior.shape}")
            object.__setattr__(self, "prior", prior)
        if not 0.0 <= self.discount < 1.0:
            raise ValueError(f"discount must lie in [0, 1), got {self.discount}")
        if not 0.0 <= self.reveal_rate <= 1.0:
            raise ValueError(f"reveal_rate must lie in [0, 1], got {self.reveal_rate}")
        if self.signal_count == 0:
            object.__setattr__(self, "signal_count", self.chain.k)
        if self.signal_count < self.chain.k:
            raise ValueError(f"need at least {self.chain.k} signals, got {self.signal_count}")
        if float(self.u.values.min()) < 0.0:
            raise NegativePayoff("stage payoff must be nonnegative")
        if self.tol <= 0 or self.max_sweeps < 1:
            raise ValueError("tol must be positive and max_sweeps at least 1")

    @property
    def grid(self) -> BeliefGrid:
        return self.u.grid

    def initial_prior(self) -> np.ndarray:
        """Simulation starting belief: the stored prior, or uniform."""
        if self.prior is None:
            return np.full(self.chain.k, 1.0 / self.chain.k)
        return self.prior.copy()


@dataclass(frozen=True, eq=False)
class Policy:
    """One optimal split per grid point, as the split table of `cav_grid`."""

    grid: BeliefGrid
    atoms: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class SolverResult:
    value: GridFn
    policy: Policy
    iterations: int
    residual: float  # certified sup-norm distance bound to the fixed point, at most tol
    row_values: np.ndarray  # converged value at each transition row


class _Dynamics:
    """Interpolation operators for the one-step belief images, built once."""

    def __init__(self, sc: Scenario) -> None:
        grid = sc.grid
        self.shift = grid.interp_matrix(grid.points @ sc.chain.M)
        self.rows = grid.interp_matrix(sc.chain.M)
        self.points = grid.points


def _target(f: np.ndarray, sc: Scenario, dyn: _Dynamics, reveal: bool) -> np.ndarray:
    """Pre-concavification stage objective given a continuation value."""
    lam = sc.discount
    carry = lam * (1.0 - sc.reveal_rate) if reveal else lam
    return (1.0 - lam) * sc.u.values + carry * (dyn.shift @ f)


def _sweep(f: np.ndarray, sc: Scenario, dyn: _Dynamics, reveal: bool) -> np.ndarray:
    out = cav_values(GridFn(sc.grid, _target(f, sc, dyn, reveal)))
    if reveal:
        out = out + sc.discount * sc.reveal_rate * (dyn.points @ (dyn.rows @ f))
    return out


def bellman_no_reveal(f: GridFn, sc: Scenario) -> GridFn:
    """One application of the no-revelation operator to a continuation value."""
    return GridFn(sc.grid, _sweep(f.values, sc, _Dynamics(sc), reveal=False))


def bellman_reveal(f: GridFn, sc: Scenario) -> GridFn:
    """One application of the revelation operator to a continuation value."""
    if sc.reveal_rate <= 0.0:
        raise ValueError("reveal operator needs a positive reveal_rate")
    return GridFn(sc.grid, _sweep(f.values, sc, _Dynamics(sc), reveal=True))


def solve(sc: Scenario, mode: str) -> SolverResult:
    """Iterate the chosen operator from zero until its MacQueen-Porteus bounds certify tol.

    Both operators are monotone and satisfy T(f + c) = Tf + discount * c,
    so with d = Tf - f and c = discount / (1 - discount) the fixed point
    lies pointwise in [Tf + c min d, Tf + c max d] (Puterman 1994, section
    6.6). The sweep stops once half that interval's width,
    c * (max d - min d) / 2, is at most tol, and returns its midpoint,
    which is then within tol of the fixed point. The width shrinks at the
    chain's mixing rate rather than at the discount. Raises NoConvergence
    at the sweep cap.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    reveal = mode == "reveal"
    if reveal and sc.reveal_rate <= 0.0:
        raise ValueError("reveal mode needs a positive reveal_rate")

    dyn = _Dynamics(sc)
    c = sc.discount / (1.0 - sc.discount)
    f = np.zeros(sc.grid.n)
    for it in range(1, sc.max_sweeps + 1):
        new = _sweep(f, sc, dyn, reveal)
        d = new - f
        lo, hi = float(d.min()), float(d.max())
        bound = 0.5 * c * (hi - lo)
        if bound <= sc.tol:
            f = new + 0.5 * c * (lo + hi)
            break
        f = new
    else:
        raise NoConvergence(
            f"certified bound {bound:.3e} above {sc.tol:.3e} after {sc.max_sweeps} sweeps"
        )

    # the midpoint shift adds a constant to the target (shift rows sum to 1),
    # which leaves the optimal splits unchanged
    splits = cav_grid(GridFn(sc.grid, _target(f, sc, dyn, reveal)))
    return SolverResult(
        value=GridFn(sc.grid, f),
        policy=Policy(grid=sc.grid, atoms=splits.atoms, weights=splits.weights),
        iterations=it,
        residual=bound,
        row_values=np.asarray(dyn.rows @ f),
    )


def full_reveal_closed_form(sc: Scenario) -> GridFn:
    """Fixed point at reveal_rate 1 by a direct linear solve.

    With certain disclosure every stage, the value is one concavification of
    the stage payoff plus an affine continuation through the values at the
    transition rows, which satisfy a k x k linear system.
    """
    dyn = _Dynamics(sc)
    lam = sc.discount
    cavu = cav_values(sc.u)
    c = np.asarray(dyn.rows @ cavu)
    try:
        xi = np.linalg.solve(np.eye(sc.chain.k) - lam * sc.chain.M, (1.0 - lam) * c)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("row-value system is singular") from exc
    return GridFn(sc.grid, (1.0 - lam) * cavu + lam * (dyn.points @ xi))


def solve_cesaro(sc: Scenario, horizon: int) -> GridFn:
    """Time-average value of the finite game by backward induction.

    Every stage contributes payoff / horizon; the revelation lottery at
    rate reveal_rate runs after each stage. No discounting.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    dyn = _Dynamics(sc)
    x = sc.reveal_rate
    stage = sc.u.values / horizon
    w = np.zeros(sc.grid.n)
    for _ in range(horizon):
        target = stage + (1.0 - x) * (dyn.shift @ w)
        w = cav_values(GridFn(sc.grid, target)) + x * (dyn.points @ (dyn.rows @ w))
    return GridFn(sc.grid, w)


def asymptotic_value(rate: float, sc: Scenario) -> float:
    """Long-run value at a given revelation rate.

    Stationary-weighted value of the no-revelation game at discount
    1 - rate, read at the transition rows.
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must lie in (0, 1], got {rate}")
    return row_average_value(1.0 - rate, sc)


def row_average_value(discount: float, sc: Scenario) -> float:
    """Stationary-weighted no-revelation value at the transition rows.

    asymptotic_value(rate, sc) is this curve read at discount 1 - rate.
    """
    res = solve(replace(sc, discount=discount), "no_reveal")
    return float(sc.chain.pi @ res.row_values)


def reveal_stage_target(sc: Scenario, solved: SolverResult) -> GridFn:
    """Reveal-mode one-stage objective at a solved value, before concavification.

    Its envelope is the stage optimum at each belief; its value at a grid
    point is what revealing nothing earns there.
    """
    return GridFn(sc.grid, _target(solved.value.values, sc, _Dynamics(sc), reveal=True))


def check_no_info_at_concave_point(sc: Scenario, p, solved: SolverResult | None = None) -> bool:
    """True when revealing nothing is optimal at a belief where u is concave.

    Precondition: the stage payoff attains its envelope at p (within 1e-9),
    otherwise PreconditionFailed. The check solves the reveal-mode game
    (pass a reveal-mode SolverResult to skip that) and asks whether the
    degenerate split attains the stage optimum within 2 * tol.
    """
    p = np.asarray(p, dtype=float)
    cav_at_p, _ = cav_split_at(sc.u, p)
    u_at_p = interpolate(sc.u, p)
    if abs(u_at_p - cav_at_p) > 1e-9:
        raise PreconditionFailed(
            f"stage payoff misses its envelope by {abs(u_at_p - cav_at_p):.3e} at this belief"
        )
    res = solve(sc, "reveal") if solved is None else solved
    g = reveal_stage_target(sc, res)
    degenerate = (1.0 - sc.discount) * u_at_p + sc.discount * (1.0 - sc.reveal_rate) * interpolate(
        res.value, p @ sc.chain.M
    )
    best, _ = cav_split_at(g, p)
    return degenerate >= best - 2.0 * sc.tol
