import math
import tracemalloc

import numpy as np
import pytest

from conftest import CHI_FIG, VARPHI0
from pseudo_dce import dynamics, hermitize
from pseudo_dce.dynamics import bogoliubov_ode_oracle, evolve
from pseudo_dce.errors import NonFiniteState, StepRejected, ValidationError
from pseudo_dce.fock import FockSpace, propagate
from pseudo_dce.hermitize import MapSource
from pseudo_dce.integrate import (_A, _C, _D, _E3, _E5, _RTOL_FLOOR, IvpProblem,
                                  integrate)
from pseudo_dce.scenario import ScenarioConfig, run


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
    # A NaN rhs at t0 makes the first step size NaN; without this check
    # the step loop would retry that step without end.
    with pytest.raises(NonFiniteState, match="rhs"):
        integrate(IvpProblem(rhs=lambda t, y: np.array([math.nan]),
                             t_eval=span(1.0), y0=np.array([0.0])))


# Each of these makes the first step size NaN (atol 0 on the vacuum's zero
# components gives a 0/0 scale), which no retry shrinks below the minimum.
BAD_TOLERANCES = [dict(atol=0.0), dict(atol=-1e-12), dict(atol=math.nan),
                  dict(atol=math.inf), dict(rtol=math.nan), dict(rtol=math.inf),
                  dict(rtol=-math.inf)]


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_bad_tolerances_refused_through_propagate(tol):
    calls = []

    def coeffs(t):
        calls.append(t)
        return 1.0, 0.05 + 0.02j, 0.05 - 0.02j

    f = FockSpace(16)
    with pytest.raises(ValidationError, match="tol must be finite"):
        propagate(coeffs, f.vacuum(), np.linspace(0.0, 1.0, 5), f, **tol)
    assert calls == []


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_bad_tolerances_refused_through_the_oracle(fig1_params, tol):
    src = MapSource(fig1_params, chi=CHI_FIG, varphi0=VARPHI0)
    with pytest.raises(ValidationError, match="tol must be finite"):
        bogoliubov_ode_oracle(src, np.linspace(0.0, 5.0, 11), **tol)


@pytest.mark.parametrize("rtol", [0.0, -1.0, 1e-16])
def test_rtol_below_the_floor_is_raised_to_it(rtol):
    problem = IvpProblem(rhs=osc_rhs, t_eval=span(2.0), y0=np.array([1.0, 0.0]))
    low, floor = (integrate(problem, rtol=rt, atol=1e-14) for rt in (rtol, _RTOL_FLOOR))
    assert low.y.tobytes() == floor.y.tobytes()


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

    def guard(step):
        # The dense output reproduces the step's ends.
        assert abs(float(step(step.t_old)[0]) - math.cos(step.t_old)) < 1e-8
        assert float(np.abs(step.y_old - step(step.t_old)).max()) < 1e-8
        assert float(np.abs(step.y_new - step(step.t_new)).max()) < 1e-8
        seen.append((step.t_old, step.t_new))

    sol = integrate(IvpProblem(rhs=osc_rhs, t_eval=span(2.0 * math.pi),
                               y0=np.array([1.0, 0.0]), guard=guard))
    assert len(seen) == sol.stats.n_steps
    assert seen[0][0] == 0.0 and seen[-1][1] == 2.0 * math.pi
    assert all(a[1] == b[0] for a, b in zip(seen, seen[1:]))


def read_grid(steps, t):
    """The times t read as a run fills its grid: each from its own step, the
    first of steps (one integration's, in time order) with t <= t_new + snap.
    """
    k = np.searchsorted([s.t_new + s.snap for s in steps], t)
    out = np.empty((t.size, steps[0].y_old.size))
    for n, step in enumerate(steps):
        out[k == n] = step(t[k == n])
    return out


def test_recorded_steps_reproduce_the_grid():
    """Each step the guard sees, read at its own grid points, gives the
    run's rows bit for bit, in reversed order too; points within the snap
    of a step end read its y_new."""
    def record(problem):
        steps = []
        sol = integrate(IvpProblem(problem.rhs, problem.t_eval, problem.y0,
                                   guard=steps.append), max_step=0.3)
        return sol, steps

    _, steps = record(IvpProblem(osc_rhs, span(6.0), np.array([1.0, 0.5])))
    ends = np.array([s.t_new for s in steps[:-1]])
    # Points on step ends, just before and after them inside the snap, and
    # inside steps.
    near = np.concatenate([ends, ends - 0.5 * steps[0].snap, ends + 0.5 * steps[0].snap])
    te = np.unique(np.concatenate([np.linspace(0.0, 6.0, 97), near]))
    sol, steps = record(IvpProblem(osc_rhs, te, np.array([1.0, 0.5])))
    assert np.all(np.isin(near, te))
    assert read_grid(steps, te).tobytes() == sol.y.tobytes()
    assert read_grid(steps, te[::-1]).tobytes() == sol.y[::-1].tobytes()
    # Within the snap of a step end, the end state, not the interpolant's.
    on_ends = sol.y[np.searchsorted(te, near)].reshape(3, ends.size, 2)
    assert np.all(on_ends == np.array([s.y_new for s in steps[:-1]]))
    # A step read at one time gives one state.
    mid = 0.5 * (steps[3].t_old + steps[3].t_new)
    assert steps[3](mid).tobytes() == steps[3](np.array([mid]))[0].tobytes()


def test_kept_steps_without_a_guard_hold_the_grid():
    """Without a guard a run builds dense output only on the steps that hold
    grid points, those a guard would see whose span (t_old, t_new] meets the
    grid, and each fills its own points: no step is kept."""
    te = np.array([0.0, 0.05, 0.07, 2.0, 2.01, 5.5, 6.0])
    y0 = np.array([1.0, 0.5])
    steps = []
    every = integrate(IvpProblem(osc_rhs, te, y0, guard=steps.append),
                      max_step=0.3)
    sol = integrate(IvpProblem(osc_rhs, te, y0), max_step=0.3)
    owned = [(te > s.t_old + s.snap) & (te <= s.t_new + s.snap) for s in steps]
    holding = [(s, own) for s, own in zip(steps, owned) if own.any()]
    assert len(holding) < len(steps)
    # The start is y0 itself; every later point is read off one holding step.
    assert np.array_equal(sum(own.astype(int) for _, own in holding),
                          np.r_[0, np.ones(te.size - 1, dtype=int)])
    for s, own in holding:
        assert s(te[own]).tobytes() == sol.y[own].tobytes()
    assert sol.y.tobytes() == every.y.tobytes()
    assert sol.stats.n_steps == every.stats.n_steps
    # Three rhs calls of dense output per step that is read.
    assert every.stats.nfev - sol.stats.nfev == 3 * (len(steps) - len(holding))


@pytest.mark.parametrize("guarded", [False, True])
def test_kept_steps_reproduce_the_grid_bit_for_bit(guarded):
    """The steps a guard sees, each read at its own grid points, give sol.y
    byte for byte, with or without a guard on the run that reports sol.y,
    and the guard sees one record per accepted step."""
    te = np.linspace(0.0, 20.0, 1281)
    y0 = np.array([1.0, 0.5])
    steps = []
    seen = integrate(IvpProblem(osc_rhs, te, y0, guard=steps.append), max_step=0.7)
    sol = seen if guarded else integrate(IvpProblem(osc_rhs, te, y0), max_step=0.7)
    assert read_grid(steps, te).tobytes() == sol.y.tobytes()
    assert len(steps) == seen.stats.n_steps


def test_work_on_the_paper_runs_is_pinned(fig1_params, moderate_params,
                                          moderate_state0, monkeypatch):
    """Steps, rejections and nfev are deterministic; a refactor that keeps
    the arithmetic keeps them, and a change of work shows without timing."""
    # fig1's closed-form map: one Magnus step per grid interval, three
    # coefficient points a step.
    fig1 = evolve(MapSource(fig1_params, chi=CHI_FIG, varphi0=VARPHI0),
                  ScenarioConfig().time_grid()).stats
    assert (fig1.n_steps, fig1.n_rejected, fig1.nfev) == (3184, 0, 9552)
    src = MapSource(moderate_params, "integrated", constraint0=moderate_state0)
    flow = src.integrate(lambda m, y: (), (), np.linspace(0.0, 25.0, 1001),
                         1e-9, 1e-12).stats
    assert (flow.n_steps, flow.n_rejected, flow.nfev) == (129, 0, 1937)
    # The moderate flow that verify's flow_residuals check integrates.
    flow = src.integrate(lambda m, y: (), (), np.linspace(0.0, 50.0, 1001),
                         1e-11, 1e-14).stats
    assert (flow.n_steps, flow.n_rejected, flow.nfev) == (256, 0, 3842)

    # One cell of the benchmark's kappa sweep on the integrated moderate map
    # at its default grid: evolve integrates nothing, and the N_oracle
    # column integrates G over one drive period.
    work = []

    def counted(problem, **kwargs):
        sol = integrate(problem, **kwargs)
        work.append((sol.stats.n_steps, sol.stats.n_rejected, sol.stats.nfev))
        return sol

    monkeypatch.setattr(hermitize, "integrate", counted)
    monkeypatch.setattr(dynamics, "integrate", counted)
    run(ScenarioConfig(alpha0_tilde=0.6, beta0_tilde=0.2, chi=-2.25, z_abs=0.8,
                       dyson_source="integrated", tau_max=25.0, kappa=2.0))
    assert work == [(19, 0, 284)]


def test_grid_fill_memory_is_bounded():
    """A long grid is filled a step at a time: besides the output and its
    time column, the fill's temporaries stay small."""
    problem = IvpProblem(rhs=osc_rhs, t_eval=np.linspace(0.0, 2.0 * math.pi, 10**6),
                         y0=np.array([1.0, 0.0]))
    tracemalloc.start()
    try:
        sol = integrate(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * sol.y.nbytes
    assert abs(float(sol.y[-1, 0]) - 1.0) < 1e-7


def test_grid_fill_memory_is_bounded_when_one_step_holds_the_grid():
    """A step that holds most of a long grid fills it in one piece: besides
    the output, its temporaries stay under twice the output."""
    problem = IvpProblem(rhs=lambda t, y: np.array([1.0, 0.0]),
                         t_eval=np.linspace(0.0, 1.0, 10**6), y0=np.array([1.0, 0.0]))
    tracemalloc.start()
    try:
        sol = integrate(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.stats.n_steps == 3
    assert peak < 3 * sol.y.nbytes
    assert np.abs(sol.y[-1] - [2.0, 0.0]).max() < 1e-12


@pytest.mark.parametrize("bad_te", [
    [0.0, 0.0, 1.0],          # not strictly increasing
    [2.0, 1.0],               # decreasing
    [0.5],                    # one point: no span
    [0.0, math.inf],          # not finite
])
def test_t_eval_validation(bad_te):
    with pytest.raises(ValueError, match="t_eval"):
        IvpProblem(rhs=lambda t, y: -y, t_eval=np.array(bad_te),
                   y0=np.array([1.0]))


class TestScipyParity:
    """The in-package DOP853 repeats scipy's stepper bit for bit.

    scipy.integrate.DOP853 is the reference here only; the package itself
    imports no scipy module to integrate.
    """

    def test_tableau_is_bit_identical(self):
        from scipy.integrate import DOP853 as ref

        pairs = [(_A[:12, :12], ref.A), (_A[12, :12], ref.B), (_C[:12], ref.C),
                 (_E3, ref.E3), (_E5, ref.E5), (_D, ref.D),
                 (_A[13:], ref.A_EXTRA), (_C[13:], ref.C_EXTRA)]
        for ours, theirs in pairs:
            assert ours.shape == theirs.shape
            assert ours.tobytes() == theirs.tobytes()

    @staticmethod
    def scipy_steps(rhs, t0, t1, y0, rtol, atol, max_step):
        """scipy's per-step t, y and midpoint dense output; nfev; rejections."""
        from scipy.integrate import DOP853

        solver = DOP853(rhs, t0, y0, t1, rtol=rtol, atol=atol, max_step=max_step)
        ts, ys, mids, rejected = [t0], [y0], [], 0
        while solver.status == "running":
            nfev = solver.nfev
            solver.step()
            assert solver.status != "failed"
            rejected += (solver.nfev - nfev) // 12 - 1
            ts.append(float(solver.t))
            ys.append(solver.y)
            mids.append(solver.dense_output()(0.5 * (solver.t_old + solver.t)))
        return np.array(ts), np.array(ys), np.array(mids), solver.nfev, rejected

    def assert_parity(self, rhs, t0, t1, y0, rtol=1e-9, atol=1e-12,
                      max_step=math.inf):
        ts, ys, mids, nfev, rejected = self.scipy_steps(rhs, t0, t1, y0, rtol,
                                                        atol, max_step)
        ours = []

        def guard(step):
            ours.append(step(0.5 * (step.t_old + step.t_new)))

        # Reported on scipy's step ends, every grid point is one of the
        # port's step ends and takes its state unchanged.
        sol = integrate(IvpProblem(rhs=rhs, t_eval=ts, y0=y0, guard=guard),
                        rtol=rtol, atol=atol, max_step=max_step)
        assert sol.y.tobytes() == ys.tobytes()
        assert np.array(ours).tobytes() == mids.tobytes()
        assert sol.stats.n_steps == ts.size - 1
        assert (sol.stats.nfev, sol.stats.n_rejected) == (nfev, rejected)
        return sol

    def test_oscillator(self):
        self.assert_parity(osc_rhs, 0.0, 20.0 * math.pi, np.array([1.0, 0.0]))

    def test_jump_rhs_with_rejections(self):
        sol = self.assert_parity(lambda t, y: np.array([0.0 if t < 1.0 else 1.0]),
                                 0.0, 3.0, np.array([0.0]))
        assert sol.stats.n_rejected >= 1

    @pytest.mark.parametrize("te", [np.linspace(0.0, 20.0 * math.pi, 2001),
                                    np.linspace(0.3, 7.1, 777)])
    def test_grid_interior_matches_solve_ivp(self, te):
        """Grid points inside steps come from the dense output as scipy's."""
        from scipy.integrate import solve_ivp

        y0 = np.array([1.0, 0.0])
        ref = solve_ivp(osc_rhs, (te[0], te[-1]), y0, method="DOP853", t_eval=te,
                        rtol=1e-9, atol=1e-12, max_step=0.3)
        sol = integrate(IvpProblem(rhs=osc_rhs, t_eval=te, y0=y0),
                        rtol=1e-9, atol=1e-12, max_step=0.3)
        assert sol.y.tobytes() == ref.y.T.tobytes()

    def test_fig1_oracle_rhs(self, fig1_params, monkeypatch):
        # The oracle's integration of the counterpart propagator's 8 real
        # components over one drive period on fig1's map.
        problems = []

        def capture(problem, **kwargs):
            problems.append((problem, kwargs))
            return integrate(problem, **kwargs)

        monkeypatch.setattr(dynamics, "integrate", capture)
        bogoliubov_ode_oracle(MapSource(fig1_params, chi=CHI_FIG, varphi0=VARPHI0),
                              np.linspace(0.0, 4.0 * math.pi, 401))
        (problem, kwargs), = problems
        te = problem.t_eval
        self.assert_parity(problem.rhs, te[0], te[-1], problem.y0, **kwargs)
