"""The initial-value-problem integrator shared by every dynamical module.

scipy's DOP853 stepper (Dormand-Prince 8(5,3)) on real state vectors,
driven one step at a time so every accepted step can be handed to a
guard.  The solution is reported on a fixed grid, filled from each step's
7th-order dense output; the grid's ends are the span.

scipy.integrate is imported on first use: importing it costs about a
third of a second, more than importing the rest of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NonFiniteState, StepRejected

# Right-hand-side calls per DOP853 step attempt (11 new stages plus the
# FSAL stage); dense output costs 3 more per step.
_DOP853_EVALS = 12
# Grid points within this fraction of the span of a step end take its value.
_GRID_SNAP = 1e-14


@dataclass(frozen=True)
class IvpProblem:
    """An initial-value problem dy/dt = rhs(t, y) reported on t_eval.

    rhs maps (t, y) to dy/dt with y a real 1-D array and y0 the state at
    t_eval[0].  t_eval holds at least two finite, strictly increasing
    times; the integration runs from its first to its last point.  guard,
    when given, is called after every accepted step as
    guard(t_old, t_new, y_at), y_at the step's dense output; it raises to
    stop the integration.
    """

    rhs: Callable[[float, np.ndarray], np.ndarray]
    t_eval: Sequence[float]
    y0: np.ndarray
    guard: Optional[Callable[[float, float, Callable], None]] = None

    def __post_init__(self):
        te = np.asarray(self.t_eval, dtype=float)
        if te.ndim != 1 or te.size < 2 or not np.all(np.isfinite(te)):
            raise ValueError("t_eval must be a 1-D array of at least two finite times")
        if np.any(np.diff(te) <= 0.0):
            raise ValueError("t_eval must be strictly increasing")
        object.__setattr__(self, "t_eval", te)
        y0 = np.asarray(self.y0, dtype=float)
        if y0.ndim != 1 or y0.size == 0:
            raise ValueError("y0 must be a nonempty 1-D real array")
        object.__setattr__(self, "y0", y0)


@dataclass(frozen=True)
class IntegrationStats:
    """Work done: accepted and rejected steps, rhs calls, step-size range."""

    n_steps: int
    n_rejected: int
    nfev: int
    h_min: float
    h_max: float


@dataclass(frozen=True)
class IvpSolution:
    """Solution samples: t of shape (m,), y of shape (m, y0.size)."""

    t: np.ndarray
    y: np.ndarray
    stats: IntegrationStats


def _check_finite(t: float, y: np.ndarray):
    if not np.all(np.isfinite(y)):
        raise NonFiniteState(f"state left the finite domain at t = {t!r}")


def integrate(p: IvpProblem, rtol: float = 1e-9, atol: float = 1e-12,
              max_step: Optional[float] = None) -> IvpSolution:
    """Integrate the problem with DOP853 and report it on p.t_eval.

    max_step defaults to no cap, so the error control alone sets the step.
    """
    from scipy.integrate import DOP853

    te = p.t_eval
    t0, t1 = float(te[0]), float(te[-1])
    snap = _GRID_SNAP * (t1 - t0)
    _check_finite(t0, p.y0)
    solver = DOP853(p.rhs, t0, p.y0, t1, rtol=rtol, atol=atol,
                    max_step=math.inf if max_step is None else max_step)
    if solver.f.shape != p.y0.shape:
        raise ValueError(f"rhs returned shape {solver.f.shape}, expected {p.y0.shape}")
    # A non-finite rhs at t0 makes scipy's first step size NaN, and its step
    # loop then retries without end instead of failing.
    if not np.all(np.isfinite(solver.f)):
        raise NonFiniteState(f"rhs is not finite at t = {t0!r}")

    out_y = np.empty((te.size, p.y0.size))
    out_y[0] = p.y0
    i = 1
    n_steps = n_rejected = 0
    h_min, h_max = math.inf, 0.0
    while solver.status == "running":
        nfev = solver.nfev
        # An overflow is reported below as NonFiniteState, not as a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            message = solver.step()
        # scipy does not count rejections; each attempt costs the same calls.
        n_rejected += (solver.nfev - nfev) // _DOP853_EVALS - 1
        if solver.status == "failed":
            t = float(solver.t)
            # An overflow inside a step shows up as a step-size failure:
            # the error estimates turn non-finite and every retry is
            # rejected.  Tell it apart by the stage terms they sum.
            with np.errstate(over="ignore"):
                terms = np.abs(solver.K).T @ (np.abs(solver.E3) + np.abs(solver.E5))
            if not np.all(np.isfinite(terms)):
                raise NonFiniteState(f"a step overflowed the finite domain at t = {t!r}")
            raise StepRejected(f"{message} (t = {t!r})")
        t_old, t_new, y_new = float(solver.t_old), float(solver.t), solver.y
        _check_finite(t_new, y_new)
        n_steps += 1
        h_min, h_max = min(h_min, t_new - t_old), max(h_max, t_new - t_old)

        j = int(np.searchsorted(te, t_new + snap, side="right"))
        if p.guard is None and j == i:
            continue
        y_at = solver.dense_output()
        if p.guard is not None:
            p.guard(t_old, t_new, y_at)
        if j > i:
            out_y[i:j] = y_at(te[i:j]).T
            # Points on the step end take its value, not the interpolant's.
            out_y[i:j][te[i:j] >= t_new - snap] = y_new
            i = j

    stats = IntegrationStats(n_steps, n_rejected, solver.nfev, h_min, h_max)
    return IvpSolution(te.copy(), out_y, stats)
