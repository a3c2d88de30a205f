"""Sender stage payoff on the belief grid.

Either a raw table of values at the grid points, or a myopic-receiver model:
the receiver picks the action maximizing their own expected payoff at the
current belief, and the sender collects the expected value of that action.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .belief import BeliefGrid, GridFn
from .errors import DimensionMismatch, NegativePayoff


class PayoffDiscontinuityWarning(UserWarning):
    """Receiver best response flips between adjacent grid points with a large payoff jump."""


@dataclass(frozen=True)
class TablePayoff:
    """Explicit sender payoff per grid point, in grid enumeration order."""

    values: np.ndarray


@dataclass(frozen=True)
class ReceiverPayoff:
    """Myopic receiver model.

    sender_values[state, action] and receiver_values[state, action]; ties in
    the receiver's best response break toward the sender's favorite, then
    toward the lowest action index.
    """

    actions: tuple
    sender_values: np.ndarray
    receiver_values: np.ndarray


PayoffModel = TablePayoff | ReceiverPayoff


def _receiver_table(model: ReceiverPayoff, grid: BeliefGrid, jump_threshold: float | None):
    sender = np.asarray(model.sender_values, dtype=float)
    receiver = np.asarray(model.receiver_values, dtype=float)
    n_actions = len(model.actions)
    if sender.shape != (grid.k, n_actions) or receiver.shape != (grid.k, n_actions):
        raise DimensionMismatch(
            f"payoff matrices must be {grid.k} x {n_actions}, got {sender.shape} and {receiver.shape}"
        )
    recv_score = grid.points @ receiver
    send_score = grid.points @ sender
    best = recv_score.max(axis=1, keepdims=True)
    # among receiver-optimal actions argmax picks the sender-best, lowest index first
    masked = np.where(recv_score == best, send_score, -np.inf)
    theta = masked.argmax(axis=1)
    u = np.take_along_axis(send_score, theta[:, None], axis=1).ravel()

    span = float(u.max() - u.min()) if u.size else 0.0
    thresh = 0.1 * span if jump_threshold is None else jump_threshold
    i, j = _adjacent_pairs(grid)
    gap = np.abs(u[i] - u[j])
    hit = (theta[i] != theta[j]) & (gap > thresh)
    jumps = list(zip(i[hit].tolist(), j[hit].tolist(), gap[hit].tolist()))
    if jumps:
        head = ", ".join(f"({i},{j}): {d:.4g}" for i, j, d in jumps[:8])
        more = "" if len(jumps) <= 8 else f" and {len(jumps) - 8} more"
        warnings.warn(
            f"receiver best response flips with payoff jumps above {thresh:.4g} "
            f"at adjacent grid pairs {head}{more}",
            PayoffDiscontinuityWarning,
            stacklevel=3,
        )
    return u


def _adjacent_pairs(grid: BeliefGrid) -> tuple[np.ndarray, np.ndarray]:
    """Grid point pairs i < j that differ by moving one unit of mass between two states.

    Pairs come in (i, source state, destination state) order.
    """
    src, dst = np.nonzero(~np.eye(grid.k, dtype=bool))
    unit = np.eye(grid.k, dtype=np.int64)
    i, move = np.nonzero(grid.counts[:, src] > 0)
    j = grid.index_of(grid.counts[i] + unit[dst[move]] - unit[src[move]])
    keep = j > i
    return i[keep], j[keep]


def build_u(model: PayoffModel, grid: BeliefGrid, jump_threshold: float | None = None) -> GridFn:
    """Materialize the sender stage payoff as a grid function.

    Raises NegativePayoff if any grid value is negative; receiver models also
    emit PayoffDiscontinuityWarning where the best response flips with a
    payoff jump above the threshold (default: a tenth of the payoff range).
    """
    if isinstance(model, TablePayoff):
        vals = np.asarray(model.values, dtype=float)
        if vals.shape != (grid.n,):
            raise DimensionMismatch(f"table has {vals.size} values for {grid.n} grid points")
        u = vals.copy()
    elif isinstance(model, ReceiverPayoff):
        u = _receiver_table(model, grid, jump_threshold)
    else:
        raise DimensionMismatch(f"unknown payoff model type {type(model).__name__}")
    if np.any(u < 0):
        raise NegativePayoff(f"stage payoff reaches {u.min():.6g} below zero")
    return GridFn(grid, u)
