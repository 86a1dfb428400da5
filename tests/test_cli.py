import concurrent.futures
import importlib
import os
import string
import tomllib
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from pseudo_dce import cli
from pseudo_dce.dynamics import bogoliubov_ode_oracle
from pseudo_dce.errors import StepRejected
from pseudo_dce.hermitize import MapSource
from pseudo_dce.scenario import load_config
from pseudo_dce.verify import VerifyReport

FAST_CFG = "tau_max = 10\n"
# The exact map from chi = 1.0002, |z| = 1 crosses chi = 1 near tau = 2.2888.
FAILING_CFG = "tau_max = 10\ndyson_source = integrated\nz_abs = 1\n"
# The default |z| = 1 - 1e-6 gives no Dyson map at chi = 1.0002 (Lambda < 0).
INADMISSIBLE_CFG = "tau_max = 10\ndyson_source = integrated\n"
SHORT_CFG = "tau_max = 1\n"
# The integrated moderate map of the benchmark's kappa sweep.
MODERATE_CFG = ("alpha0_tilde = 0.6\nbeta0_tilde = 0.2\nchi = -2.25\nz_abs = 0.8\n"
                "dyson_source = integrated\ntau_max = 25\n")


def write_cfg(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the sweep's process pool by one that maps in this process;
    the list collects the pool size of each pool the sweep asks for."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


class TestRunCommand:

    def test_config_run_succeeds(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST_CFG)
        code = cli.main(["run", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "r_final=" in out
        assert (tmp_path / "case.csv").exists()

    def test_preset_run_succeeds(self, tmp_path, capsys):
        code = cli.main(["run", "--preset", "fig1", "--out", str(tmp_path)])
        assert code == 0
        assert "fig1:" in capsys.readouterr().out
        assert (tmp_path / "fig1.csv").exists()
        assert (tmp_path / "fig1.gp").exists()

    def test_out_dir_from_environment(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "env_out"
        monkeypatch.setenv("PSEUDO_DCE_OUT", str(target))
        cfg = write_cfg(tmp_path, FAST_CFG)
        assert cli.main(["run", "--config", cfg]) == 0
        capsys.readouterr()
        assert (target / "case.csv").exists()

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "eps_mod = 1.5\n")
        code = cli.main(["run", "--config", cfg, "--out", str(tmp_path)])
        assert code == 1
        assert "pseudo-dce:" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["chi = nan", "varphi0 = inf",
                                      "rtol = -1.0"])
    def test_bad_float_exits_one(self, tmp_path, capsys, line):
        cfg = write_cfg(tmp_path, FAST_CFG + line + "\n")
        code = cli.main(["run", "--config", cfg, "--out", str(tmp_path)])
        assert code == 1
        assert "pseudo-dce:" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["tau_max = 1e15",
                                      "grid_per_period = " + "9" * 400])
    def test_oversized_grid_exits_one(self, tmp_path, capsys, line):
        cfg = write_cfg(tmp_path, line + "\n")
        code = cli.main(["run", "--config", cfg, "--out", str(tmp_path)])
        assert code == 1
        assert "grid points" in capsys.readouterr().err

    def test_summary_without_r_and_n_columns(self, tmp_path, capsys):
        full = write_cfg(tmp_path, FAST_CFG, name="full.cfg")
        reduced = write_cfg(tmp_path, FAST_CFG + "outputs = tau, W\n",
                            name="reduced.cfg")
        assert cli.main(["run", "--config", full, "--out", str(tmp_path)]) == 0
        want = capsys.readouterr().out.split(" steps=")[0]
        assert cli.main(["run", "--config", reduced,
                         "--out", str(tmp_path)]) == 0
        got = capsys.readouterr().out.split(" steps=")[0]
        assert got.replace("reduced:", "full:") == want
        header = (tmp_path / "reduced.csv").read_text().splitlines()[0]
        assert header == "tau,W"

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        code = cli.main(["run", "--config", str(tmp_path / "absent.cfg"),
                         "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_non_utf8_config_file_exits_two(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.cfg"
        path.write_bytes("tau_max = 1  # \u00e9t\u00e9\n".encode("latin-1"))
        argv = [command, "--config", str(path), "--out", str(tmp_path)]
        if command == "sweep":
            argv += ["--axis", "chi", "--values", "0.5"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("pseudo-dce: ") and "not UTF-8" in err[0]

    def test_simulation_failure_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAILING_CFG)
        code = cli.main(["run", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert "ChiSingular: the map crosses chi = 1 at tau = 2.2888" in capsys.readouterr().err

    def test_inadmissible_integrated_start_exits_two_with_one_line(self, tmp_path,
                                                                  capsys):
        cfg = write_cfg(tmp_path, INADMISSIBLE_CFG)
        code = cli.main(["run", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("pseudo-dce: NonPositiveLambda: ")
        assert "chi = 1.0002" in err[0] and "needs |z| > 0.99999999500" in err[0]

    def test_photon_number_overflow_exits_two(self, tmp_path, capsys):
        # |v|^2 overflows near tau = 79 while (u, v) stay finite.
        cfg = write_cfg(tmp_path, "chi = 1.00001\ntau_max = 100\n")
        code = cli.main(["run", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "NonFiniteState: N_numeric overflows at tau = 79.0" in err

    @pytest.mark.parametrize("text", [
        pytest.param("omega0 = 1e300\n", id="omega0-approximate"),
        pytest.param(MODERATE_CFG + "omega0 = 1e300\n", id="omega0-integrated"),
        pytest.param("chi = 1e300\n", id="chi-overflows-Lambda"),
        pytest.param("chi = -1e300\n", id="negative-chi-overflows-Lambda"),
    ])
    def test_overflow_at_the_start_exits_two_with_one_line(self, tmp_path, capsys,
                                                           text):
        # The integrator's first-step probe and the map's start state once
        # overflowed into numpy warnings before the error.
        cfg = write_cfg(tmp_path, text)
        code = cli.main(["run", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("pseudo-dce: "), err

    @pytest.mark.parametrize("text", [
        pytest.param("", id="atol-approximate"),
        pytest.param(MODERATE_CFG, id="atol-integrated"),
    ])
    def test_unusable_atol_exits_one_with_one_line(self, tmp_path, capsys, text):
        # No run can use such an atol: the oracle's first step fails at
        # t = 0, after a first-step probe that overflows without a warning.
        # So the config refuses it.
        cfg = load_config(write_cfg(tmp_path, text))
        src = MapSource(cfg.drive_params(), cfg.dyson_source, chi=cfg.chi,
                        varphi0=cfg.varphi0, constraint0=cfg.constraint0())
        with pytest.raises(StepRejected, match=r"\(t = 0\.0\)"):
            bogoliubov_ode_oracle(src, cfg.time_grid(), rtol=cfg.rtol, atol=1e-300)
        code = cli.main(["run", "--config", write_cfg(tmp_path, text + "atol = 1e-300\n"),
                         "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["pseudo-dce: atol must be at least 1e-150, got 1e-300"]

    def test_config_and_preset_conflict(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST_CFG)
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", cfg, "--preset", "fig1"])
        assert exc.value.code == 1

    def test_run_requires_a_source(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run"])
        assert exc.value.code == 1

    def test_unknown_preset_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--preset", "fig7"])
        assert exc.value.code == 1


class TestVerifyCommand:

    def test_passing_report_exits_zero(self, monkeypatch, capsys):
        fake = VerifyReport(level="fast", all_passed=True,
                            total_seconds=0.0, checks=[])
        monkeypatch.setattr(cli, "run_verify", lambda level: fake)
        assert cli.main(["verify"]) == 0
        assert '"all_passed": true' in capsys.readouterr().out

    def test_failing_report_exits_three(self, monkeypatch, capsys):
        fake = VerifyReport(level="fast", all_passed=False,
                            total_seconds=0.0, checks=[])
        monkeypatch.setattr(cli, "run_verify", lambda level: fake)
        assert cli.main(["verify", "--level", "full"]) == 3

    def test_bad_level_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--level", "paranoid"])
        assert exc.value.code == 1


class TestSweepCommand:

    def test_summary_on_stdout(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST_CFG)
        code = cli.main(["sweep", "--config", cfg, "--axis", "beta0_tilde",
                         "--values", "1e-3,1e-4", "--out", str(tmp_path)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "beta0_tilde,amplification,N_final"
        assert len(lines) == 3

    def test_summary_without_n_column(self, tmp_path, capsys):
        rows = []
        for text in (FAST_CFG, FAST_CFG + "outputs = tau, W\n"):
            cfg = write_cfg(tmp_path, text)
            code = cli.main(["sweep", "--config", cfg, "--axis",
                             "beta0_tilde", "--values", "1e-3",
                             "--out", str(tmp_path)])
            assert code == 0
            rows.append(capsys.readouterr().out)
        assert rows[0] == rows[1]

    def test_failing_cell_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAILING_CFG)
        code = cli.main(["sweep", "--config", cfg, "--axis", "beta0_tilde",
                         "--values", "1e-3", "--out", str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert "0.001,failed,ChiSingular" in captured.out.splitlines()
        assert "ChiSingular" in captured.err

    def test_bad_values_exit_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST_CFG)
        code = cli.main(["sweep", "--config", cfg, "--axis", "beta0_tilde",
                         "--values", "1e-3,abc"])
        assert code == 1

    def test_empty_values_exit_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST_CFG)
        code = cli.main(["sweep", "--config", cfg, "--axis", "beta0_tilde",
                         "--values", " , "])
        assert code == 1

    def test_unknown_axis_exits_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST_CFG)
        code = cli.main(["sweep", "--config", cfg, "--axis", "gamma",
                         "--values", "0.1"])
        assert code == 1

    @pytest.mark.parametrize("axis", ["outputs", "zeta_mode", "grid_per_period"])
    def test_non_numeric_axis_exits_one(self, tmp_path, capsys, axis):
        cfg = write_cfg(tmp_path, SHORT_CFG)
        code = cli.main(["sweep", "--config", cfg, "--axis", axis,
                         "--values", "300.5", "--out", str(tmp_path)])
        assert code == 1
        assert f"{axis} must be" in capsys.readouterr().err

    def test_whole_number_values_set_integer_fields(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SHORT_CFG)
        code = cli.main(["sweep", "--config", cfg, "--axis", "grid_per_period",
                         "--values", "200,400", "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("200,")

    def test_pool_is_capped_at_the_cell_count(self, tmp_path, monkeypatch,
                                              capsys, pool_sizes):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        cfg = write_cfg(tmp_path, SHORT_CFG)
        code = cli.main(["sweep", "--config", cfg, "--axis", "beta0_tilde",
                         "--values", "1e-3,1e-4", "--workers", "100000",
                         "--out", str(tmp_path)])
        assert code == 0
        assert pool_sizes == [2]

    @pytest.mark.parametrize("cpus", [2, None])
    def test_pool_is_capped_at_the_cpu_count(self, tmp_path, monkeypatch,
                                             capsys, pool_sizes, cpus):
        # os.cpu_count() may not know (None): the sweep then runs serially.
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        cfg = write_cfg(tmp_path, SHORT_CFG)
        code = cli.main(["sweep", "--config", cfg, "--axis", "beta0_tilde",
                         "--values", "1e-3,2e-3,3e-3,4e-3", "--workers", "1000",
                         "--out", str(tmp_path)])
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 5
        assert pool_sizes == ([2] if cpus else [])

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_fewer_than_one_worker_exits_one(self, tmp_path, capsys,
                                             pool_sizes, workers):
        cfg = write_cfg(tmp_path, SHORT_CFG)
        code = cli.main(["sweep", "--config", cfg, "--axis", "beta0_tilde",
                         "--values", "1e-3", "--workers", workers,
                         "--out", str(tmp_path)])
        assert code == 1
        assert "workers must be at least 1" in capsys.readouterr().err
        assert pool_sizes == []
        assert not (tmp_path / "sweep_beta0_tilde_0.csv").exists()


FUZZ_CONFIGS = (
    SHORT_CFG,
    "tau_max = 0.5\n",
    "tau_max = 1\ndyson_source = integrated\n",
    "tau_max = 1\noutputs = tau, N_numeric\n",
    "tau_max = 1\neps_mod = 1.5\n",
    "tau_max = 1\nnot a config line\n",
)
# No digits: a junk number could ask for a grid of millions of points.
JUNK = st.text(alphabet=string.ascii_letters + "-=_.,:/ ", max_size=8)
NUMBERS = st.sampled_from(["0", "-0", "1", "-1", "0.5", "1.5", "2", "300.5",
                           "1e-300", "1e308", "nan", "inf", "-inf"])
# Every field of another type than float, a few float ones, and three
# unknown keys.  tau_max is left out so that no drawn value lengthens a run
# past one time unit.
AXES = st.sampled_from(["outputs", "oracle", "grid_per_period", "zeta_mode",
                        "dyson_source", "chi", "kappa", "r0", "gamma"])
# Junk tokens include real flags out of place, with whatever follows them.
STRAY = st.one_of(JUNK, st.sampled_from(["--config", "--preset", "--axis",
                                         "--values", "--workers", "--level",
                                         "-h"]))
MOSTLY = st.sampled_from([True] * 7 + [False])


@st.composite
def _argv(draw, cfg_paths):
    """An argument vector for run or sweep: real flags, junk flags and values.

    Each real flag of the command is present, with a real value, most of
    the time, so many vectors reach a run.
    """
    command = draw(st.sampled_from(["run", "sweep"]))
    config = st.sampled_from(cfg_paths + ["absent.cfg"])
    if command == "run":
        real = {"--config": config}
    else:
        real = {"--config": config,
                "--axis": AXES,
                "--values": st.lists(NUMBERS, min_size=1, max_size=3).map(",".join),
                "--workers": st.integers(0, 2).map(str)}
    argv = [command]
    for flag, good in real.items():
        if draw(MOSTLY):
            argv += [flag, draw(good if draw(MOSTLY) else JUNK)]
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(1, len(argv))), draw(STRAY))
    return argv


class TestArgvFuzz:

    @given(data=st.data())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_only_documented_exit_codes(self, tmp_path, capsys, data):
        paths = [write_cfg(tmp_path, text, name=f"fuzz{i}.cfg")
                 for i, text in enumerate(FUZZ_CONFIGS)]
        argv = data.draw(_argv(paths)) + ["--out", str(tmp_path / "out")]
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        capsys.readouterr()
        assert code in (0, 1, 2, 3), argv

    @given(raw=st.binary(max_size=64), command=st.sampled_from(["run", "sweep"]))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_byte_configs(self, tmp_path, capsys, raw, command):
        path = tmp_path / "bytes.cfg"
        path.write_bytes(raw)
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        if command == "sweep":
            argv += ["--axis", "chi", "--values", "0.5"]
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        capsys.readouterr()
        assert code in (0, 1, 2, 3), raw


def test_no_command_exits_one():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 1


def test_console_script_and_package_discovery():
    # What `pip install -e .` builds the pseudo-dce command from, checked
    # without installing: the entry point names cli.main, and the src
    # layout's discovery finds the one package.
    import setuptools

    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    module, _, attr = project["scripts"]["pseudo-dce"].partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main
    assert setuptools.find_packages(where=str(root / "src")) == ["pseudo_dce"]
