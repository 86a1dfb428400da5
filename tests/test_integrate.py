import math

import numpy as np
import pytest

from pseudo_dce.errors import NonFiniteState, StepRejected
from pseudo_dce.integrate import IvpProblem, integrate


def osc_rhs(t, y):
    return np.array([y[1], -y[0]])


def span(t1):
    """The two-point grid [0, t1]: report the final state only."""
    return np.array([0.0, t1])


def test_exponential_decay():
    sol = integrate(IvpProblem(rhs=lambda t, y: -y, t_eval=span(1.0),
                               y0=np.array([1.0])),
                    rtol=1e-9)
    assert abs(float(sol.y[-1][0]) - math.exp(-1.0)) < 1e-9


def test_oscillator_period_closure():
    sol = integrate(IvpProblem(rhs=osc_rhs, t_eval=span(2.0 * math.pi),
                               y0=np.array([1.0, 0.0])))
    err = float(np.abs(sol.y[-1] - np.array([1.0, 0.0])).max())
    assert err < 1e-7, f"one-period return error {err}"


def test_constant_solution_bit_exact():
    te = np.linspace(0.0, 5.0, 11)
    y0 = np.array([2.5, -1.25])
    sol = integrate(IvpProblem(rhs=lambda t, y: np.zeros_like(y),
                               t_eval=te, y0=y0))
    assert np.all(sol.y == y0)


def test_rtol_scaling():
    errs = {}
    for rt in (1e-7, 1e-9):
        sol = integrate(IvpProblem(rhs=osc_rhs, t_eval=span(20.0 * math.pi),
                                   y0=np.array([1.0, 0.0])),
                        rtol=rt, atol=1e-14)
        errs[rt] = abs(float(sol.y[-1][0]) - 1.0)
    assert errs[1e-7] / errs[1e-9] >= 10.0, f"scaling {errs}"


def test_dense_output_accuracy():
    """Interior grid points interpolate to well under the h^4 budget."""
    te = np.linspace(0.0, 20.0 * math.pi, 797)
    sol = integrate(IvpProblem(rhs=osc_rhs, t_eval=te,
                               y0=np.array([1.0, 0.0])),
                    rtol=1e-12, atol=1e-14)
    err = float(np.abs(sol.y[:, 0] - np.cos(sol.t)).max())
    assert err < 1e-8, f"dense-output error {err}"


def test_dense_grid_matches_endpoint_accuracy():
    # Interpolated points must not degrade relative to step endpoints by
    # more than the interpolant's own order allows.
    te = np.linspace(0.0, 2.0 * math.pi, 61)
    sol = integrate(IvpProblem(rhs=osc_rhs, t_eval=te,
                               y0=np.array([1.0, 0.0])),
                    rtol=1e-10, atol=1e-14)
    assert sol.t.shape == (61,)
    assert sol.y.shape == (61, 2)
    err = float(np.abs(sol.y[:, 0] - np.cos(sol.t)).max())
    assert err < 1e-7


def test_grid_may_start_after_zero():
    te = np.linspace(1.0, 3.0, 5)
    sol = integrate(IvpProblem(rhs=lambda t, y: -y, t_eval=te,
                               y0=np.array([1.0])),
                    rtol=1e-11, atol=1e-14)
    assert sol.y[0, 0] == 1.0
    err = float(np.abs(sol.y[:, 0] - np.exp(-(te - 1.0))).max())
    assert err < 1e-10


def test_finite_time_blowup_rejected():
    with pytest.raises(StepRejected):
        integrate(IvpProblem(rhs=lambda t, y: y * y, t_eval=span(2.0),
                             y0=np.array([1.0])))


def test_pole_in_rhs_rejected():
    with pytest.raises(StepRejected):
        integrate(IvpProblem(rhs=lambda t, y: np.array([1.0 / (0.5 - t)]),
                             t_eval=span(1.0), y0=np.array([0.0])))


def test_overflowing_state_detected():
    # A constant rhs has zero embedded-error estimate, so the step is
    # accepted and the overflow shows up in the state check instead.
    with np.errstate(over="ignore"), pytest.raises(NonFiniteState):
        integrate(IvpProblem(rhs=lambda t, y: np.array([1e308]),
                             t_eval=span(10.0), y0=np.array([0.0])))


def test_nonfinite_initial_state():
    with pytest.raises(NonFiniteState):
        integrate(IvpProblem(rhs=lambda t, y: -y, t_eval=span(1.0),
                             y0=np.array([math.nan])))


def test_nonfinite_initial_rhs():
    # scipy alone would take a NaN first step and retry it without end.
    with pytest.raises(NonFiniteState, match="rhs"):
        integrate(IvpProblem(rhs=lambda t, y: np.array([math.nan]),
                             t_eval=span(1.0), y0=np.array([0.0])))


def test_stats_are_reported():
    sol = integrate(IvpProblem(rhs=osc_rhs, t_eval=span(2.0 * math.pi),
                               y0=np.array([1.0, 0.0])))
    assert sol.stats.n_steps > 0
    assert sol.stats.n_rejected >= 0


def test_stats_count_work_on_oscillator():
    """nfev is 12 per attempt plus set-up and dense output; h spans steps."""
    te = np.linspace(0.0, 2.0 * math.pi, 9)
    sol = integrate(IvpProblem(rhs=osc_rhs, t_eval=te,
                               y0=np.array([1.0, 0.0])),
                    rtol=1e-9, atol=1e-12)
    st = sol.stats
    # Two set-up calls (f0 and the initial-step probe), 12 per attempt,
    # and 3 per dense output, which at most every accepted step needs.
    attempts = st.n_steps + st.n_rejected
    assert 2 + 12 * attempts <= st.nfev <= 2 + 15 * attempts
    assert 0.0 < st.h_min <= st.h_max <= 2.0 * math.pi
    # Without a cap the error control takes steps far above period/200.
    assert st.h_max > 2.0 * math.pi / 200.0
    assert st.n_steps < 200

    capped = integrate(IvpProblem(rhs=osc_rhs, t_eval=te,
                                  y0=np.array([1.0, 0.0])),
                       rtol=1e-9, atol=1e-12, max_step=0.1)
    assert capped.stats.h_max <= 0.1 * (1.0 + 1e-12)
    assert capped.stats.n_steps >= 63


def test_rejected_steps_are_counted():
    """A jump in the rhs is rejected until the step straddling it is tiny."""
    sol = integrate(IvpProblem(rhs=lambda t, y: np.array([0.0 if t < 1.0 else 1.0]),
                               t_eval=span(3.0), y0=np.array([0.0])),
                    rtol=1e-9, atol=1e-12)
    assert sol.stats.n_rejected >= 1
    attempts = sol.stats.n_steps + sol.stats.n_rejected
    # Two set-up calls, 12 per attempt, one dense output on the last step.
    assert sol.stats.nfev == 2 + 12 * attempts + 3
    assert abs(float(sol.y[-1][0]) - 2.0) < 1e-8


def test_guard_sees_every_accepted_step():
    seen = []

    def guard(t_old, t_new, y_at):
        # The dense output reproduces the step's ends.
        assert abs(float(y_at(t_old)[0]) - math.cos(t_old)) < 1e-8
        seen.append((t_old, t_new))

    sol = integrate(IvpProblem(rhs=osc_rhs, t_eval=span(2.0 * math.pi),
                               y0=np.array([1.0, 0.0]), guard=guard))
    assert len(seen) == sol.stats.n_steps
    assert seen[0][0] == 0.0 and seen[-1][1] == 2.0 * math.pi
    assert all(a[1] == b[0] for a, b in zip(seen, seen[1:]))


@pytest.mark.parametrize("bad_te", [
    [0.0, 0.0, 1.0],          # not strictly increasing
    [2.0, 1.0],               # decreasing
    [0.5],                    # one point: no span
    [0.0, math.inf],          # not finite
])
def test_t_eval_validation(bad_te):
    with pytest.raises(ValueError):
        IvpProblem(rhs=lambda t, y: -y, t_eval=np.array(bad_te),
                   y0=np.array([1.0]))
