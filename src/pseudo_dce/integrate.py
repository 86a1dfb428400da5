"""The initial-value-problem integrator shared by every dynamical module.

DOP853, the explicit Runge-Kutta 8(5,3) pair of Dormand and Prince (Hairer,
Nørsett & Wanner, Solving ODEs I, §II.10), on real state vectors, written
with numpy alone.  An accepted step is a Step record, its ends and its
7th-order dense output; a guard is handed each one, and the solution keeps
them: every accepted step when a guard is set, else the steps that hold
grid points.  dense_at reads such records at any times: the reporting grid,
filled once after the run; a guard's own step; or the solution's steps
anywhere in the span.  The grid's ends are the span.

The loop does scipy.integrate.DOP853's arithmetic in scipy's order: the
same stage sums, initial-step rule, error norm, step-factor rule,
minimum-step test and dense-output polynomial.  So its steps and outputs
match scipy's bit for bit (tests/test_integrate.py checks both), while a
run imports no scipy module: importing scipy.integrate takes longer than
most runs compute.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import NonFiniteState, StepRejected

# Grid points within this fraction of the span of a step end take its value.
_GRID_SNAP = 1e-14
# Output floats (points times components) per block of dense_at.
_FILL_FLOATS = 1 << 12

# The Dormand-Prince 8(5,3) tableau.  Row s of _A weighs the stages before
# stage s: rows 1-11 make the step's stages, row 12 is the 8th-order
# solution B (stage 12 is its rhs, reused as the next step's stage 0), and
# rows 13-15 make the dense output's extra stages.  _C holds the stage times
# in units of the step.
_A = np.zeros((16, 16))
for _s, _row in enumerate((
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
     1.8915178993145003, -5.801203960010585, 0.3111643669578199,
     -0.1521609496625161, 0.20136540080403034, 0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
     -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
     0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
     7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
     -0.0013990241651590145, 2.9475147891527724, -9.15095847217987),
), start=1):
    _A[_s, :_s] = _row
_B = _A[12, :12]
_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778])
# The step's 3rd- and 5th-order error estimates, over stages 0-12.
_E3 = np.array([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0])
_E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0])
# The dense output's four highest coefficient rows, over stages 0-15.
_D = np.array([
    [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
     -3.0689499459498917, 2.38466765651207, 2.117034582445028,
     -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
     165.20045171727028, -374.5467547226902, -22.113666853125306,
     7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
     -189.17813819516758, 527.8081592054236, -11.57390253995963,
     6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
     -231.5293791760455, 357.6391179106141, 93.40532418362432,
     -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564]])
# (stage, time, weights) of the stages a step makes and of the dense output's.
_STEP_STAGES = tuple((s, _C[s], _A[s, :s]) for s in range(1, 12))
_DENSE_STAGES = tuple((s, _C[s], _A[s, :s]) for s in range(13, 16))

# Step-size control: safety factor, bounds on one step's change, and the
# exponent -1/(q + 1) of the 7th-order error estimate.
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 8
# rtol is raised to this floor: below it the error test asks for more
# digits than a double holds.
_RTOL_FLOOR = 100 * np.finfo(float).eps


def as_time_grid(t, name: str) -> np.ndarray:
    """A float copy of t, which must hold at least two finite, strictly
    increasing times along one axis; else ValueError naming it name."""
    t = np.array(t, dtype=float)
    if t.ndim != 1 or t.size < 2 or not np.all(np.isfinite(t)):
        raise ValueError(f"{name} must be a 1-D array of at least two finite times")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError(f"{name} must be strictly increasing")
    return t


@dataclass(frozen=True)
class IvpProblem:
    """An initial-value problem dy/dt = rhs(t, y) reported on t_eval.

    rhs maps (t, y) to dy/dt with y a real 1-D array and y0 the state at
    t_eval[0].  t_eval is a time grid (as_time_grid); the integration runs
    from its first to its last point.  guard, when given, is called after
    every accepted step as guard(step), step being its Step record: its
    ends, step.y_new being the next step's y_old, and step(t), the state,
    shape (n,), at a time t in it.  The guard raises to stop the
    integration.
    """

    rhs: Callable[[float, np.ndarray], np.ndarray]
    t_eval: Sequence[float]
    y0: np.ndarray
    guard: Optional[Callable[[Step], None]] = None

    def __post_init__(self):
        object.__setattr__(self, "t_eval", as_time_grid(self.t_eval, "t_eval"))
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
    """Solution samples: t of shape (m,), y of shape (m, y0.size); steps, the
    Step records for dense_at: every accepted step if the problem has a
    guard, else those that hold grid points."""

    t: np.ndarray
    y: np.ndarray
    stats: IntegrationStats
    steps: list


def _check_finite(t: float, y: np.ndarray):
    if not np.isfinite(y).all():
        raise NonFiniteState(f"state left the finite domain at t = {t!r}")


def _rms(x: np.ndarray):
    return np.linalg.norm(x) / x.size ** 0.5


def _first_step(rhs, t0, y0, f0, span, max_step, rtol, atol):
    """The starting step size of Hairer, Nørsett & Wanner §II.4.

    It probes the rhs once more, at t0 + h0.
    """
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = np.asarray(rhs(t0 + h0, y0 + h0 * f0), dtype=float)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, span, max_step)


def _attempt(rhs, t, y, f, h, K, KT):
    """One DOP853 step of size h from (t, y), f = rhs(t, y).

    Fills stages 0-12 of K and returns the new state and its rhs; KT[s] is
    the view K[:s].T.
    """
    K[0] = f
    for s, c, a in _STEP_STAGES:
        K[s] = rhs(t + c * h, y + np.dot(KT[s], a) * h)
    y_new = y + h * np.dot(KT[12], _B)
    f_new = np.asarray(rhs(t + h, y_new), dtype=float)
    K[12] = f_new
    return y_new, f_new


def _error_norm(KT13, h, scale):
    """The step's error in units of its tolerance: below 1 accepts it.

    KT13 is the stage view K[:13].T.
    """
    err5 = np.dot(KT13, _E5) / scale
    err3 = np.dot(KT13, _E3) / scale
    # np.linalg.norm's own arithmetic on a real vector, without its checks,
    # on Python floats: math.sqrt rounds as np.sqrt does, and ** as numpy's.
    err5_2 = math.sqrt(float(err5.dot(err5))) ** 2
    err3_2 = math.sqrt(float(err3.dot(err3))) ** 2
    if err5_2 == 0:
        # The error is 0, also where 0.01 * err3_2 underflows to 0.
        return 0.0
    return h * err5_2 / math.sqrt((err5_2 + 0.01 * err3_2) * len(scale))


def _dense_output(rhs, K, KT, t_old, y_old, h, y_new, f_new):
    """The rows F (7, n) of the step's 7th-order interpolant, for _dense_eval.

    Builds stages 13-15 into K from the step's stages 0-12: three rhs calls.
    KT[s] is the view K[:s].T.
    """
    for s, c, a in _DENSE_STAGES:
        K[s] = rhs(t_old + c * h, y_old + np.dot(KT[s], a) * h)
    f_old = K[0]
    delta_y = y_new - y_old
    F = np.empty((7, y_old.size))
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f_new + f_old)
    F[3:] = h * np.dot(_D, K)
    return F


def _dense_eval(t, t_old, h, y_old, F):
    """The interpolant at m points, each in its own step: t, t_old, h (m, 1),
    y_old (m, n), F (7, m, n)."""
    x = (t - t_old) / h
    x1 = 1 - x
    y = np.zeros_like(y_old)
    for k, row in enumerate(F[::-1]):
        y += row
        y *= x if k % 2 == 0 else x1
    y += y_old
    return y


class Step(NamedTuple):
    """An accepted step from t_old to t_new (h = t_new - t_old), the rows F
    of its interpolant (_dense_output) and the snap of its integration;
    called as step(t), it is dense_at of this step alone."""

    t_old: float
    h: float
    y_old: np.ndarray
    F: np.ndarray
    t_new: float
    y_new: np.ndarray
    snap: float

    def __call__(self, t):
        return dense_at((self,), t)


def dense_at(steps: Sequence[Step], t) -> np.ndarray:
    """The state, shape t.shape + (n,), at the times t from the dense output
    of steps, records of one integration in time order, covering the times
    read.  A time is read from the first step with t <= t_new + snap, and
    is y_new where t >= t_new - snap; the points are evaluated _FILL_FLOATS
    outputs at a time.
    """
    t_old, h, y_old, F, t_new, y_new, snap = (np.array(c) for c in zip(*steps))
    t_old, h, F, snap = t_old[:, None], h[:, None], F.swapaxes(0, 1), snap[0]
    x = np.ravel(t)
    out = np.empty((x.size, y_old.shape[1]))
    block = max(1, _FILL_FLOATS // y_old.shape[1])
    for a in range(0, x.size, block):
        xa = x[a:a + block]
        k = np.searchsorted(t_new + snap, xa)
        y = _dense_eval(xa[:, None], t_old[k], h[k], y_old[k], F[:, k])
        on_end = xa >= t_new[k] - snap
        y[on_end] = y_new[k[on_end]]
        out[a:a + block] = y
    return out.reshape(np.shape(t) + out.shape[1:])


def integrate(p: IvpProblem, rtol: float = 1e-9, atol: float = 1e-12,
              max_step: Optional[float] = None) -> IvpSolution:
    """Integrate the problem with DOP853 and report it on p.t_eval.

    max_step defaults to no cap, so the error control alone sets the step.
    rtol is raised to 100 eps (2.2e-14) if set below.  A step that falls
    below 10 ulps of t raises StepRejected, or NonFiniteState when its
    stages overflowed.
    """
    te = p.t_eval
    t0, t1 = float(te[0]), float(te[-1])
    snap = _GRID_SNAP * (t1 - t0)
    max_step = math.inf if max_step is None else max_step
    rtol = max(rtol, _RTOL_FLOOR)
    y = p.y0
    _check_finite(t0, y)
    f = np.asarray(p.rhs(t0, y), dtype=float)
    if f.shape != y.shape:
        raise ValueError(f"rhs returned shape {f.shape}, expected {y.shape}")
    # A non-finite rhs at t0 makes the first step size NaN, and the step
    # loop would then retry it without end instead of failing.
    if not np.all(np.isfinite(f)):
        raise NonFiniteState(f"rhs is not finite at t = {t0!r}")
    h_abs = _first_step(p.rhs, t0, y, f, t1 - t0, max_step, rtol, atol)

    K = np.zeros((16, y.size))
    # The stage views the step sums read, KT[s] = K[:s].T, made once.
    KT = [K[:s].T for s in range(16)]
    # te[i:] lie beyond the kept steps; te_at reads te as floats, uncopied.
    te_at = memoryview(te)
    i, steps, t = 1, [], t0
    nfev, n_steps, n_rejected = 2, 0, 0
    h_min, h_max = math.inf, 0.0
    while t < t1:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        # An overflow is reported below as NonFiniteState, not as a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                if h_abs < min_step:
                    # An overflow inside a step shows up as a step-size
                    # failure: the error estimates turn non-finite and
                    # every retry is rejected.  Tell it apart by the stage
                    # terms they sum.
                    terms = np.abs(K[:13]).T @ (np.abs(_E3) + np.abs(_E5))
                    if not np.all(np.isfinite(terms)):
                        raise NonFiniteState(
                            f"a step overflowed the finite domain at t = {t!r}")
                    raise StepRejected("Required step size is less than spacing "
                                       f"between numbers. (t = {t!r})")
                t_new = min(t + h_abs, t1)
                h = t_new - t
                h_abs = abs(h)
                y_new, f_new = _attempt(p.rhs, t, y, f, h, K, KT)
                nfev += 12
                scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
                error = _error_norm(KT[13], h, scale)
                if error < 1:
                    break
                h_abs *= max(_MIN_FACTOR, _SAFETY * error ** _ERROR_EXPONENT)
                rejected = True
                n_rejected += 1
        if error == 0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, _SAFETY * error ** _ERROR_EXPONENT)
        h_abs *= min(1, factor) if rejected else factor

        t_old, y_old = t, y
        t, y, f = float(t_new), y_new, f_new
        _check_finite(t, y)
        n_steps += 1
        h_min, h_max = min(h_min, t - t_old), max(h_max, t - t_old)

        j = bisect.bisect_right(te_at, t + snap, i)
        if p.guard is None and j == i:
            continue
        step = Step(t_old, h, y_old, _dense_output(p.rhs, K, KT, t_old, y_old, h, y, f),
                    t, y, snap)
        nfev += 3
        if p.guard is not None:
            p.guard(step)
        steps.append(step)
        i = j

    out_y = np.vstack((p.y0, dense_at(steps, te[1:])))
    stats = IntegrationStats(n_steps, n_rejected, nfev, h_min, h_max)
    return IvpSolution(te.copy(), out_y, stats, steps)
