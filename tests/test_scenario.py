import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import pseudo_dce
from pseudo_dce import scenario
from pseudo_dce.dynamics import bogoliubov_ode_oracle, evolve
from pseudo_dce.errors import (NonFiniteState, ParseError, PseudoDceError,
                               ValidationError)
from pseudo_dce.hermitize import MapSource
from pseudo_dce.scenario import (CANONICAL_COLUMNS, PRESETS, RunRecord,
                                 ScenarioConfig, SweepFailure, load_config,
                                 parse_config, run, run_preset, sweep)

CONFIG_KEYS = [f.name for f in dataclasses.fields(ScenarioConfig)]
ADVERSARIAL_VALUES = st.one_of(
    st.sampled_from(["", "inf", "-inf", "nan", "1e999", "-0", "=", "1=2",
                     "==", "on", "integrated", "tau, W", "5e-324"]),
    st.integers(-10 ** 400, 10 ** 400).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=12),
)


def fast_config(**overrides):
    base = dict(tau_max=10.0)
    base.update(overrides)
    return ScenarioConfig(**base)


class TestParseConfig:

    def test_empty_document_gives_defaults(self):
        assert parse_config("") == ScenarioConfig()

    def test_comments_and_sections_tolerated(self):
        text = "# comment\n[drive]\nbeta0_tilde = 1e-4\n\n"
        cfg = parse_config(text)
        assert cfg.beta0_tilde == 1e-4
        assert cfg.omega0 == 1.0

    def test_unknown_key_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_config("omega0 = 1.0\nomega_zero = 2.0\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_config("omega0 = 1.0\nomega0 = 2.0\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ParseError, match="key = value"):
            parse_config("omega0 1.0\n")

    def test_bad_number_rejected(self):
        with pytest.raises(ValidationError, match="expected a number"):
            parse_config("omega0 = fast\n")

    def test_readme_config_block_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        keys = {line.split("=", 1)[0].strip() for line in block.splitlines()}
        parse_config(block)
        assert keys == set(CONFIG_KEYS)

    def test_outputs_list(self):
        cfg = parse_config("outputs = tau, r_numeric\n")
        assert cfg.outputs == ("tau", "r_numeric")

    def test_load_config_roundtrip(self, tmp_path):
        path = tmp_path / "case.cfg"
        path.write_text("eps_mod = 0.02\n")
        assert load_config(path).eps_mod == 0.02

    @pytest.mark.parametrize("text", [
        "tau_max = 1e15\n",
        "grid_per_period = " + "9" * 400 + "\n",
        "tau_max = 5e-324\n",
    ])
    def test_grid_size_bounded_before_allocating(self, text):
        with pytest.raises(ValidationError, match="grid points"):
            parse_config(text)

    @given(st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), ADVERSARIAL_VALUES),
                    max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_only_package_errors_escape(self, lines):
        text = "\n".join(f"{key} = {value}" for key, value in lines)
        try:
            parse_config(text)
        except PseudoDceError:
            pass


class TestValidation:

    # Explicit ids, the ones the cases had by position, so deleting a case
    # leaves the ids of the others as they are.
    @pytest.mark.parametrize("kwargs", [
        pytest.param(dict(eps_mod=1.5), id="kwargs0"),
        pytest.param(dict(kappa=-1.0), id="kwargs1"),
        pytest.param(dict(tau_max=0.0), id="kwargs2"),
        pytest.param(dict(grid_per_period=50), id="kwargs3"),
        pytest.param(dict(z_abs=1.5), id="kwargs4"),
        pytest.param(dict(chi=1.0), id="kwargs5"),
        pytest.param(dict(zeta_mode="sloppy"), id="kwargs6"),
        pytest.param(dict(dyson_source="exact"), id="kwargs7"),
        pytest.param(dict(outputs=("tau", "momentum")), id="kwargs8"),
        pytest.param(dict(outputs=300.5), id="kwargs9"),
        pytest.param(dict(outputs=()), id="kwargs10"),
        pytest.param(dict(grid_per_period=300.5), id="kwargs11"),
        pytest.param(dict(grid_per_period=True), id="kwargs12"),
        pytest.param(dict(outputs=("tau", "N_numeric", "tau")), id="kwargs13"),
        pytest.param(dict(kappa="2"), id="kwargs14"),
        pytest.param(dict(kappa=None), id="kwargs15"),
        pytest.param(dict(kappa=2 + 0j), id="kwargs16"),
        pytest.param(dict(kappa=True), id="kwargs17"),
        pytest.param(dict(rtol="1e-9"), id="kwargs18"),
        pytest.param(dict(varphi0="pi/2"), id="kwargs19"),
    ])
    def test_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            ScenarioConfig(**kwargs).validate()

    @given(st.sampled_from([f.name for f in dataclasses.fields(ScenarioConfig)
                            if f.type == "float"]),
           st.integers(min_value=2**1024) | st.integers(max_value=-2**1024))
    @settings(max_examples=50, deadline=None)
    def test_int_beyond_the_float_range_is_refused(self, key, value):
        with pytest.raises(ValidationError, match=f"^{key} "):
            ScenarioConfig(**{key: value}).validate()

    @pytest.mark.parametrize("kwargs", [
        dict(chi=math.nan),
        dict(varphi0=math.inf),
        dict(tau_max=math.inf),
        dict(rtol=-1.0),
        dict(atol=0.0),
    ])
    def test_non_finite_or_nonpositive_tolerance_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            ScenarioConfig(**kwargs).validate()

    def test_defaults_valid(self):
        ScenarioConfig().validate()


class TestRun:

    def test_columns_follow_outputs_selection(self):
        cfg = fast_config(outputs=("tau", "r_numeric", "N_numeric"))
        rec = run(cfg, out_dir=None)
        assert list(rec.columns) == ["tau", "r_numeric", "N_numeric"]

    def test_csv_and_plot_written(self, tmp_path):
        rec = run(fast_config(), out_dir=tmp_path, name="case")
        assert Path(rec.csv_path).name == "case.csv"
        header = Path(rec.csv_path).read_text().splitlines()[0]
        assert header == ",".join(CANONICAL_COLUMNS)
        assert Path(rec.plot_path).exists()
        assert "case.csv" in Path(rec.plot_path).read_text()

    def test_csv_roundtrips_exactly(self, tmp_path):
        # 17 significant digits reproduce the doubles bit for bit.
        rec = run(fast_config(outputs=("tau", "r_numeric")), out_dir=tmp_path)
        lines = Path(rec.csv_path).read_text().splitlines()
        parsed = np.array([[float(v) for v in line.split(",")]
                           for line in lines[1:]])
        assert np.array_equal(parsed[:, 0], rec.column("tau"))
        assert np.array_equal(parsed[:, 1], rec.column("r_numeric"))

    def test_deterministic_bytes(self, tmp_path):
        a = run(fast_config(), out_dir=tmp_path / "a")
        b = run(fast_config(), out_dir=tmp_path / "b")
        assert (Path(a.csv_path).read_bytes()
                == Path(b.csv_path).read_bytes())

    def test_oracle_runs_only_for_the_n_oracle_column(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("oracle reached")

        monkeypatch.setattr("pseudo_dce.scenario.bogoliubov_ode_oracle", refuse)
        rec = run(fast_config(outputs=("tau", "N_numeric", "N_analytic")))
        assert list(rec.columns) == ["tau", "N_numeric", "N_analytic"]
        with pytest.raises(RuntimeError, match="oracle reached"):
            run(fast_config())

    @pytest.mark.parametrize("overrides", [
        pytest.param(dict(kappa=1.93), id="off_resonance"),
        pytest.param(dict(alpha0_tilde=0.6, beta0_tilde=0.2, chi=-2.25,
                          z_abs=0.8, dyson_source="integrated", tau_max=25.0),
                     id="integrated"),
    ])
    def test_n_numeric_does_not_depend_on_outputs(self, overrides):
        # N_oracle runs the oracle, which integrates the whole span off
        # resonance and one drive period of G on the integrated map; the
        # Magnus product does not see it.
        cols = ("tau", "N_numeric")
        alone = run(fast_config(outputs=cols, **overrides)).column("N_numeric")
        both = run(fast_config(outputs=cols + ("N_oracle",), **overrides))
        assert alone.tobytes() == both.column("N_numeric").tobytes()
        hi = alone > 1e-3
        assert hi.any()
        rel = np.abs(both.column("N_oracle") - alone)[hi] / alone[hi]
        assert rel.max() < 1e-6

    @pytest.mark.parametrize("overrides", [
        pytest.param({}, id="fig1"),
        pytest.param(dict(alpha0_tilde=0.6, beta0_tilde=0.2, chi=-2.25,
                          z_abs=0.8, dyson_source="integrated", tau_max=25.0),
                     id="integrated"),
    ])
    def test_columns_read_the_trajectory(self, overrides):
        # N is |v|^2 of the pair evolve composed, and the map residual is
        # the source's own, both bit for bit.
        cfg = ScenarioConfig(**overrides)
        src = MapSource(cfg.drive_params(), cfg.dyson_source, chi=cfg.chi,
                        varphi0=cfg.varphi0, constraint0=cfg.constraint0())
        traj = evolve(src, cfg.time_grid())
        rec = run(cfg)
        assert rec.column("N_numeric").tobytes() == (np.abs(traj.v) ** 2).tobytes()
        assert (rec.column("residual_hermiticity").tobytes()
                == src.residual(traj.t, traj.m).tobytes())

    def test_record_keeps_the_integration_stats(self):
        # fig1's Magnus product: one step per grid interval.
        work = run(ScenarioConfig()).stats
        assert (work.n_steps, work.n_rejected, work.nfev) == (3184, 0, 9552)
        assert 0.0 < work.h_min <= work.h_max

    def test_csv_matches_savetxt(self, tmp_path):
        # NaN analytic columns (off resonance), and a row count that is
        # not a multiple of the writer's block.
        rec = run(fast_config(kappa=1.7, tau_max=11.3))
        assert np.isnan(rec.column("r_analytic")).all()
        n_rows = rec.column("tau").size
        assert n_rows % scenario._CSV_BLOCK_ROWS != 0 and n_rows > scenario._CSV_BLOCK_ROWS
        cols = list(rec.columns)
        want = tmp_path / "want.csv"
        np.savetxt(want, np.column_stack([rec.column(c) for c in cols]),
                   fmt="%.17g", delimiter=",", header=",".join(cols), comments="")
        got = scenario.write_outputs(rec, tmp_path / "got").csv_path
        assert Path(got).read_bytes() == want.read_bytes()

    def test_off_resonance_leaves_analytic_columns_empty(self):
        cfg = fast_config(kappa=1.7)
        rec = run(cfg, out_dir=None)
        assert np.all(np.isnan(rec.column("r_analytic")))
        assert np.all(np.isfinite(rec.column("r_numeric")))

    def test_photon_number_overflow_names_its_column_and_tau(self, tmp_path):
        # chi = 1 + 1e-5 amplifies the pump 900-fold: r reaches about 452
        # by tau = 100, and |v|^2 passes the largest float near r = 355
        # while (u, v) stay finite.  No numpy warning escapes either.
        with pytest.raises(NonFiniteState, match=r"N_numeric overflows at tau = 79\.0"):
            run(ScenarioConfig(chi=1.0 + 1e-5, tau_max=100.0), out_dir=tmp_path)
        assert not list(tmp_path.iterdir())

    def test_oracle_overflow_is_refused_on_the_integrated_map(self, monkeypatch):
        # No integrated-map run short enough for a test reaches r ~ 355, so
        # the oracle's v is scaled until its |v|^2 overflows.
        def scaled(*args, **kwargs):
            u, v = bogoliubov_ode_oracle(*args, **kwargs)
            return u, v * 1e160

        monkeypatch.setattr(scenario, "bogoliubov_ode_oracle", scaled)
        cfg = fast_config(alpha0_tilde=0.6, beta0_tilde=0.2, chi=-2.25, z_abs=0.8,
                          dyson_source="integrated", tau_max=2.0)
        alone = dataclasses.replace(cfg, outputs=("tau", "N_numeric"))
        assert run(alone).N_final < 1e-3
        with pytest.raises(NonFiniteState, match="N_oracle overflows at tau = "):
            run(cfg)


class TestPresets:

    def test_catalog_shape(self):
        assert set(PRESETS) == {"fig1", "fig2", "fig3"}
        names = [label for label, _ in PRESETS["fig3"]]
        assert names == ["fig3_solid", "fig3_dotted", "fig3_hermitian"]
        for label, cfg in PRESETS["fig3"]:
            cfg.validate()

    def test_unknown_preset(self):
        with pytest.raises(ValidationError):
            run_preset("fig9")


class TestSweep:

    def test_single_cell_matches_plain_run(self):
        cfg = fast_config()
        plain = run(cfg, out_dir=None)
        records, _ = sweep(cfg, "beta0_tilde", [cfg.beta0_tilde],
                           out_dir=None)
        assert isinstance(records[0], RunRecord)
        for key in plain.columns:
            assert np.array_equal(plain.columns[key],
                                  records[0].columns[key], equal_nan=True)

    def test_counter_drive_ordering(self, tmp_path):
        cfg = fast_config(tau_max=5.0)
        records, summary = sweep(cfg, "beta0_tilde", [1e-3, 1e-4],
                                 out_dir=tmp_path)
        rows = [line.split(",") for line in summary.splitlines()]
        assert rows[0] == ["beta0_tilde", "amplification", "N_final"]
        amp = [float(r[1]) for r in rows[1:]]
        assert amp[1] > amp[0]
        assert (tmp_path / "sweep_beta0_tilde_summary.csv").exists()

    def test_growth_is_linear_in_modulation(self):
        # Final r scales with eps_mod; doubling the depth doubles r
        # to well within 5%.
        finals = {}
        for em in (0.005, 0.01, 0.02):
            cfg = fast_config(eps_mod=em, alpha0_tilde=1.0, beta0_tilde=1.0,
                              tau_max=50.0)
            rec = run(cfg, out_dir=None)
            finals[em] = float(rec.column("r_numeric")[-1])
        assert abs(finals[0.01] / finals[0.005] - 2.0) < 0.1
        assert abs(finals[0.02] / finals[0.01] - 2.0) < 0.1

    def test_failed_cell_is_marked(self):
        # The exact map from chi = 1.0002, |z| = 1 runs into the chi = 1
        # branch point near tau = 2.2888, so the cell must degrade to a
        # failure row, not a crash.
        base = fast_config(dyson_source="integrated", z_abs=1.0)
        records, summary = sweep(base, "beta0_tilde", [1e-3], out_dir=None)
        assert isinstance(records[0], SweepFailure)
        assert "ChiSingular" in records[0].error
        assert summary.splitlines()[1] == "0.001,failed,ChiSingular"

    def test_unknown_axis(self):
        with pytest.raises(ValidationError):
            sweep(ScenarioConfig(), "gamma", [0.1])

    def test_invalid_value_raises_before_running(self):
        with pytest.raises(ValidationError):
            sweep(ScenarioConfig(), "eps_mod", [0.01, 1.5])

    @pytest.mark.parametrize("axis, values", [
        ("zeta_mode", ["exact", "approximate"]),
        ("dyson_source", ["approximate", "integrated"]),
        ("outputs", [("tau",), ("tau", "N_numeric")]),
    ])
    def test_non_numeric_axis_is_refused_before_any_cell_runs(
            self, tmp_path, monkeypatch, axis, values):
        ran = []
        monkeypatch.setattr(scenario, "run", lambda *args, **kwargs: ran.append(args))
        with pytest.raises(ValidationError, match=f"{axis} must be"):
            sweep(fast_config(), axis, values, out_dir=tmp_path)
        assert ran == []
        assert list(tmp_path.iterdir()) == []

    def test_values_are_read_once(self):
        records, summary = sweep(ScenarioConfig(tau_max=2), "kappa",
                                 (k for k in [1.9, 2.0]))
        assert len(records) == 2
        assert ([row.split(",")[0] for row in summary.splitlines()[1:]]
                == [f"{k:.17g}" for k in (1.9, 2.0)])

    def test_empty_values_are_refused(self, tmp_path):
        with pytest.raises(ValidationError, match="at least one"):
            sweep(ScenarioConfig(tau_max=2), "kappa", [], out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["2.0", None, 2 + 0j, True],
                             ids=["str", "None", "complex", "bool"])
    def test_non_number_values_are_refused_before_any_cell_runs(
            self, tmp_path, monkeypatch, value):
        ran = []
        monkeypatch.setattr(scenario, "run", lambda *args, **kwargs: ran.append(args))
        with pytest.raises(ValidationError, match="kappa must be a number"):
            sweep(ScenarioConfig(tau_max=2), "kappa", [2.0, value], out_dir=tmp_path)
        assert ran == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("workers", [1.5, True, "2"],
                             ids=["float", "bool", "str"])
    def test_non_integer_workers_are_refused_before_any_cell_runs(
            self, tmp_path, monkeypatch, workers):
        ran = []
        monkeypatch.setattr(scenario, "run", lambda *args, **kwargs: ran.append(args))
        with pytest.raises(ValidationError, match="workers must be an integer"):
            sweep(ScenarioConfig(tau_max=2), "kappa", [1.9, 2.0],
                  out_dir=tmp_path, workers=workers)
        assert ran == []
        assert list(tmp_path.iterdir()) == []

    def test_numpy_integer_workers_are_accepted(self):
        records, _ = sweep(ScenarioConfig(tau_max=2), "kappa", [2.0],
                           workers=np.int64(1))
        assert isinstance(records[0], RunRecord)

    def test_numpy_integers_set_integer_fields(self):
        records, summary = sweep(fast_config(), "grid_per_period",
                                 np.array([200, 400]))
        assert [r.config.grid_per_period for r in records] == [200, 400]
        assert all(type(r.config.grid_per_period) is int for r in records)
        assert [row.split(",")[0] for row in summary.splitlines()[1:]] == ["200", "400"]


# Each run path is followed by a check that no scipy module is loaded:
# integration is numpy-only, and scipy.linalg is imported only for expm.
_NO_SCIPY_SCRIPT = """
import sys, tempfile

def check(after):
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, f"{after} loaded {loaded[:5]}"

import pseudo_dce
check("import pseudo_dce")
from pseudo_dce.scenario import ScenarioConfig, run, run_preset, sweep
from pseudo_dce.verify import run_verify
with tempfile.TemporaryDirectory() as out:
    run_preset("fig1", out_dir=out)
    check("run_preset fig1")
moderate = ScenarioConfig(alpha0_tilde=0.6, beta0_tilde=0.2, chi=-2.25,
                          z_abs=0.8, dyson_source="integrated", tau_max=25.0)
records, _ = sweep(moderate, "kappa", [1.93, 2.0], workers=1)
assert len(records) == 2
check("sweep")
assert all(c.passed for c in run_verify("fast").checks)
check("run_verify fast")
import numpy as np
from pseudo_dce.errors import ChiSingular
from pseudo_dce.hermitize import MapSource
fig1 = ScenarioConfig(z_abs=1.0, dyson_source="integrated", tau_max=3.0)
src = MapSource(fig1.drive_params(), "integrated", constraint0=fig1.constraint0())
try:  # the step guard bisects the chi = 1 crossing near tau = 2.2888
    src.integrate(lambda m, y: (), (), np.linspace(0.0, 3.0, 601), 1e-9, 1e-12)
except ChiSingular:
    check("the integrated flow across chi = 1")
else:
    raise AssertionError("the fig1 flow crossed chi = 1 unguarded")
try:  # so does the metric route's, at the branch point of its polar formula
    run(fig1)
except ChiSingular:
    check("the metric route across chi = 1")
else:
    raise AssertionError("the fig1 map crossed chi = 1 unguarded")
"""


def test_run_paths_load_no_scipy():
    """import, run, sweep, verify fast and a guarded chi = 1 crossing
    import no scipy module.

    Run in a fresh interpreter, since this test process has scipy loaded.
    """
    env = dict(os.environ,
               PYTHONPATH=str(Path(pseudo_dce.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
