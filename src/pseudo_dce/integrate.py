"""Initial-value-problem integrators shared by every dynamical module.

Two methods on real state vectors.  The adaptive one drives scipy's
DOP853 stepper (Dormand-Prince 8(5,3)) one step at a time, so every
accepted step can be handed to a guard, and fills the reporting grid from
each step's 7th-order dense output.  The other is a fixed-step classical
RK4, kept as an order reference.

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
    """An initial-value problem dy/dt = rhs(t, y) on t_span.

    rhs maps (t, y) to dy/dt with y a real 1-D array.  t_eval, when given,
    is the grid the solution is reported on; it must be increasing and lie
    inside t_span.  Without it the solution is reported on the accepted
    steps (dop853) or the fixed grid (rk4).  guard, when given, is called
    by the adaptive method after every accepted step as
    guard(t_old, t_new, y_at), y_at the step's dense output; it raises to
    stop the integration.
    """

    rhs: Callable[[float, np.ndarray], np.ndarray]
    t_span: tuple[float, float]
    y0: np.ndarray
    t_eval: Optional[Sequence[float]] = None
    guard: Optional[Callable[[float, float, Callable], None]] = None

    def __post_init__(self):
        t0, t1 = self.t_span
        if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
            raise ValueError(f"t_span must be finite with t1 > t0, got {self.t_span}")
        y0 = np.asarray(self.y0, dtype=float)
        object.__setattr__(self, "y0", y0)
        if y0.ndim != 1 or y0.size == 0:
            raise ValueError("y0 must be a nonempty 1-D real array")
        if self.t_eval is not None:
            te = np.asarray(self.t_eval, dtype=float)
            if te.ndim != 1 or te.size == 0:
                raise ValueError("t_eval must be a nonempty 1-D array")
            if np.any(np.diff(te) <= 0.0):
                raise ValueError("t_eval must be strictly increasing")
            if te[0] < t0 - 1e-12 * (t1 - t0) or te[-1] > t1 + 1e-12 * (t1 - t0):
                raise ValueError("t_eval must lie within t_span")
            object.__setattr__(self, "t_eval", te)

    @property
    def dimension(self) -> int:
        return int(np.asarray(self.y0).size)


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
    """Solution samples: t of shape (m,), y of shape (m, dimension)."""

    t: np.ndarray
    y: np.ndarray
    stats: IntegrationStats


def _check_finite(t: float, y: np.ndarray):
    if not np.all(np.isfinite(y)):
        raise NonFiniteState(f"state left the finite domain at t = {t!r}")


def _integrate_dop853(p: IvpProblem, rtol: float, atol: float,
                      max_step: Optional[float],
                      first_step: Optional[float]) -> IvpSolution:
    from scipy.integrate import DOP853

    t0, t1 = p.t_span
    snap = _GRID_SNAP * (t1 - t0)
    _check_finite(t0, p.y0)
    solver = DOP853(p.rhs, t0, p.y0, t1, rtol=rtol, atol=atol,
                    max_step=math.inf if max_step is None else max_step,
                    first_step=first_step)
    if solver.f.shape != p.y0.shape:
        raise ValueError(f"rhs returned shape {solver.f.shape}, expected {p.y0.shape}")

    te = p.t_eval
    i = 0
    if te is None:
        out_t, out_y = [t0], [p.y0]
    else:
        out_y = np.empty((te.size, p.y0.size))
        # Grid points at t0 (or within roundoff before it) take y0.
        i = int(np.searchsorted(te, t0 + snap, side="right"))
        out_y[:i] = p.y0

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

        if te is None:
            out_t.append(t_new)
            out_y.append(y_new)
            j = i
        else:
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

    if te is None:
        t_out, y_out = np.array(out_t), np.array(out_y)
    else:
        # Grid points within roundoff past t1 take the final state.
        out_y[i:] = solver.y
        t_out, y_out = te.copy(), out_y
    stats = IntegrationStats(n_steps, n_rejected, solver.nfev, h_min, h_max)
    return IvpSolution(t_out, y_out, stats)


def _integrate_rk4(p: IvpProblem, h: Optional[float]) -> IvpSolution:
    t0, t1 = p.t_span
    span = t1 - t0
    if p.t_eval is not None:
        targets = [float(tq) for tq in p.t_eval]
    else:
        targets = [t1]
    if h is None:
        h = span / 200.0
    if not (h > 0.0):
        raise ValueError(f"rk4 step must be > 0, got {h}")

    t = t0
    y = np.array(p.y0, dtype=float)
    _check_finite(t, y)
    out_t: list[float] = []
    out_y: list[np.ndarray] = []
    if p.t_eval is None:
        out_t.append(t)
        out_y.append(y.copy())
    n_steps = 0
    h_min, h_max = math.inf, 0.0

    for target in targets:
        if target <= t:
            out_t.append(target)
            out_y.append(y.copy())
            continue
        n_sub = max(1, math.ceil((target - t) / h - 1e-12))
        dt = (target - t) / n_sub
        h_min, h_max = min(h_min, dt), max(h_max, dt)
        for i in range(n_sub):
            k1 = np.asarray(p.rhs(t, y), dtype=float)
            k2 = np.asarray(p.rhs(t + 0.5 * dt, y + 0.5 * dt * k1), dtype=float)
            k3 = np.asarray(p.rhs(t + 0.5 * dt, y + 0.5 * dt * k2), dtype=float)
            k4 = np.asarray(p.rhs(t + dt, y + dt * k3), dtype=float)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            # Suppress additive roundoff in t so targets are hit exactly.
            t = target if i == n_sub - 1 else t + dt
            _check_finite(t, y)
            n_steps += 1
        out_t.append(t)
        out_y.append(y.copy())

    stats = IntegrationStats(n_steps, 0, 4 * n_steps, h_min, h_max)
    return IvpSolution(np.array(out_t), np.array(out_y), stats)


def integrate(p: IvpProblem, method: str = "dop853", rtol: float = 1e-9,
              atol: float = 1e-12, max_step: Optional[float] = None,
              first_step: Optional[float] = None,
              h: Optional[float] = None) -> IvpSolution:
    """Integrate the problem with the named method.

    dop853 honors rtol/atol/max_step/first_step and p.guard; max_step
    defaults to no cap, so the error control alone sets the step.  rk4
    honors only the fixed step h (each reporting interval is subdivided
    into equal substeps of size at most h, landing on grid points exactly).
    """
    if method == "dop853":
        return _integrate_dop853(p, rtol, atol, max_step, first_step)
    if method == "rk4":
        return _integrate_rk4(p, h)
    raise ValueError(f"unknown method {method!r}; expected 'dop853' or 'rk4'")
