"""Scenario configuration, presets, runs, and parameter sweeps.

A scenario is a flat key = value configuration (parsed leniently: blank
lines, # comments, and [section] headers are tolerated) that fully
determines a run.  Runs are deterministic: the same configuration yields
byte-identical CSV output.
"""

from __future__ import annotations

import concurrent.futures
import math
import numbers
import os
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .drive import DriveParams, ZetaMode
from .dynamics import (
    analytic_squeeze,
    amplification_factor,
    bogoliubov_ode_oracle,
    evolve,
)
from .errors import NonFiniteState, ParseError, PseudoDceError, ValidationError
from .dyson import DysonState
from .hermitize import CHI_GUARD, MapSource
from .integrate import IntegrationStats

CANONICAL_COLUMNS = (
    "tau",
    "r_numeric",
    "r_analytic",
    "phi_numeric_raw",
    "phi_analytic_raw",
    "N_numeric",
    "N_analytic",
    "N_oracle",
    "W",
    "T_abs",
    "phi_T",
    "Phi",
    "chi",
    "varphi",
    "residual_hermiticity",
)

# Rows per block of CSV text: the text buffer stays near 100 kB.
_CSV_BLOCK_ROWS = 256

# Grid size above which a config is refused before anything allocates:
# 15 float64 columns at 1e7 points take 1.2 GB, over 3,000 times a preset grid.
_MAX_GRID_POINTS = 10_000_000


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a run needs.  Defaults reproduce the weak-drive baseline."""

    omega0: float = 1.0
    eps_mod: float = 0.01
    kappa: float = 2.0
    alpha0_tilde: float = 0.01
    beta0_tilde: float = 0.001
    zeta_mode: str = "exact"
    chi: float = 1.0002
    z_abs: float = 1.0 - 1e-6
    varphi0: float = 0.5 * math.pi
    tau_max: float = 50.0
    grid_per_period: int = 200
    dyson_source: str = "approximate"
    rtol: float = 1e-9
    atol: float = 1e-12
    outputs: tuple[str, ...] = CANONICAL_COLUMNS

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # Ints count as numbers in a float field; bools and complex do not.
            if f.type == "float" and (isinstance(value, bool)
                                      or not isinstance(value, numbers.Real)):
                raise ValidationError(f"{f.name} must be a number, got {value!r}")
            try:
                value = float(value) if f.type == "float" else value
            except OverflowError:
                raise ValidationError(
                    f"{f.name} is an integer beyond the float range") from None
            if isinstance(value, float) and not math.isfinite(value):
                raise ValidationError(f"{f.name} must be finite, got {value}")
        for name in ("rtol", "atol"):
            if not (getattr(self, name) > 0.0):
                raise ValidationError(
                    f"{name} must be > 0, got {getattr(self, name)}")
        if self.zeta_mode not in ("exact", "approximate"):
            raise ValidationError(
                f"zeta_mode must be 'exact' or 'approximate', got {self.zeta_mode!r}"
            )
        if self.dyson_source not in ("approximate", "integrated"):
            raise ValidationError(
                f"dyson_source must be 'approximate' or 'integrated', "
                f"got {self.dyson_source!r}"
            )
        if not (self.tau_max > 0.0):
            raise ValidationError(f"tau_max must be > 0, got {self.tau_max}")
        if (not isinstance(self.grid_per_period, int)
                or isinstance(self.grid_per_period, bool)):
            raise ValidationError(
                f"grid_per_period must be an integer, got {self.grid_per_period!r}")
        if self.grid_per_period < 200:
            raise ValidationError(
                f"grid_per_period must be at least 200, got {self.grid_per_period}"
            )
        if not (0.0 < self.z_abs <= 1.0):
            raise ValidationError(f"z_abs must lie in (0, 1], got {self.z_abs}")
        if abs(self.chi - 1.0) < CHI_GUARD:
            raise ValidationError(f"chi = {self.chi} is at the chi = 1 singularity")
        if not isinstance(self.outputs, tuple) or not self.outputs:
            raise ValidationError(
                f"outputs must be a nonempty tuple of column names, got {self.outputs!r}")
        for i, col in enumerate(self.outputs):
            if col not in CANONICAL_COLUMNS:
                raise ValidationError(f"unknown output column {col!r}")
            if col in self.outputs[:i]:
                raise ValidationError(f"output column {col!r} is repeated")
        try:
            self.drive_params()
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        self.grid_size()

    def drive_params(self) -> DriveParams:
        return DriveParams(
            omega0=self.omega0, eps_mod=self.eps_mod, kappa=self.kappa,
            alpha0_tilde=self.alpha0_tilde, beta0_tilde=self.beta0_tilde,
            zeta_mode=ZetaMode(self.zeta_mode),
        )

    def grid_size(self) -> int:
        """Number of output points, computed without allocating them.

        Raises ValidationError unless it lies in [2, _MAX_GRID_POINTS].
        """
        periods = self.tau_max / self.omega0 / self.drive_params().period()
        try:
            n = int(math.ceil(periods * self.grid_per_period)) + 1
        except OverflowError:  # an infinite product, or an int beyond float
            n = math.inf
        if not 2 <= n <= _MAX_GRID_POINTS:
            raise ValidationError(
                f"tau_max = {self.tau_max} with grid_per_period = "
                f"{self.grid_per_period} gives {n:.3g} grid points; the grid "
                f"must have 2 to {_MAX_GRID_POINTS}")
        return n

    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.tau_max / self.omega0, self.grid_size())

    def constraint0(self) -> DysonState:
        return DysonState.from_chi(self.chi, self.z_abs, self.varphi0)


_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


def _parse_value(key: str, raw: str, lineno: int):
    raw = raw.strip()
    if key == "outputs":
        cols = tuple(c.strip() for c in raw.split(",") if c.strip())
        if not cols:
            raise ValidationError(f"line {lineno}: outputs must name columns")
        return cols
    if key == "grid_per_period":
        try:
            return int(raw)
        except ValueError as exc:
            raise ValidationError(
                f"line {lineno}: expected an integer for {key}, got {raw!r}"
            ) from exc
    if key in ("zeta_mode", "dyson_source"):
        return raw
    try:
        return float(raw)
    except ValueError as exc:
        raise ValidationError(
            f"line {lineno}: expected a number for {key}, got {raw!r}"
        ) from exc


def parse_config(text: str) -> ScenarioConfig:
    """Parse a flat key = value scenario description.

    Blank lines, # comments and [section] headers are skipped.  Unknown
    keys and malformed lines raise ParseError with the line number;
    well-formed but invalid values raise ValidationError.  An empty
    document yields the defaults.
    """
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            continue
        if "=" not in stripped:
            raise ParseError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw, lineno)
    cfg = ScenarioConfig(**values)
    cfg.validate()
    return cfg


def load_config(path) -> ScenarioConfig:
    """Parse the UTF-8 scenario file at path.

    A file that cannot be read, or is not UTF-8 text, raises OSError.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text ({exc})") from exc
    return parse_config(text)


# Figure presets.  fig3 carries three series; the others one each.
PRESETS: dict[str, tuple[tuple[str, ScenarioConfig], ...]] = {
    "fig1": (("fig1", ScenarioConfig()),),
    "fig2": (("fig2", ScenarioConfig()),),
    "fig3": (
        ("fig3_solid", ScenarioConfig(beta0_tilde=1e-3)),
        ("fig3_dotted", ScenarioConfig(beta0_tilde=1e-4)),
        ("fig3_hermitian", ScenarioConfig(alpha0_tilde=1.0, beta0_tilde=1.0)),
    ),
}


@dataclass(frozen=True)
class RunRecord:
    """Results of one run: columns plus provenance and timing.

    r_final and N_final are kept whatever columns the config selects, and
    stats is evolve's work: its Magnus steps, on either map source.
    """

    name: str
    config: ScenarioConfig
    columns: dict[str, np.ndarray]
    wall_seconds: float
    stats: IntegrationStats
    r_final: float
    N_final: float
    csv_path: Optional[str] = None
    plot_path: Optional[str] = None

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]


def run(cfg: ScenarioConfig, out_dir=None, name: str = "run") -> RunRecord:
    """Execute a scenario and optionally write <name>.csv and <name>.gp."""
    cfg.validate()
    started = time.perf_counter()
    p = cfg.drive_params()
    t_grid = cfg.time_grid()
    src = MapSource(p, cfg.dyson_source, chi=cfg.chi, varphi0=cfg.varphi0,
                    constraint0=cfg.constraint0())
    if p.on_resonance():
        r_analytic, phi_analytic = analytic_squeeze(t_grid, p, cfg.chi)
    else:
        r_analytic = phi_analytic = np.full(t_grid.size, np.nan)

    traj = evolve(src, t_grid)
    # N = |v|^2 overflows from r ~ 355 on, where (u, v) are still finite;
    # such a column is refused below, not written as inf.
    with np.errstate(over="ignore"):
        n_numeric = traj.mean_photon()
        columns = {
            "tau": traj.t * cfg.omega0,
            "r_numeric": traj.r,
            "r_analytic": r_analytic,
            "phi_numeric_raw": traj.phi_sq,
            "phi_analytic_raw": phi_analytic,
            "N_numeric": n_numeric,
            "N_analytic": np.sinh(r_analytic) ** 2,
            "W": traj.m.W,
            "T_abs": np.abs(traj.m.T),
            "phi_T": np.angle(traj.m.T),
            "Phi": traj.m.Phi,
            "chi": traj.m.chi,
            "varphi": traj.m.varphi,
            "residual_hermiticity": src.residual(traj.t, traj.m),
        }
        if "N_oracle" in cfg.outputs:
            _, v = bogoliubov_ode_oracle(src, t_grid, rtol=cfg.rtol, atol=cfg.atol)
            columns["N_oracle"] = np.abs(v) ** 2
    selected = {k: columns[k] for k in cfg.outputs}
    # N_numeric is checked whatever is selected: N_final reads it.
    for key, col in {"N_numeric": n_numeric, **selected}.items():
        over = np.isinf(col)
        if over.any():
            raise NonFiniteState(f"{key} overflows at tau = "
                                 f"{float(columns['tau'][np.argmax(over)])!r}")

    record = RunRecord(name=name, config=cfg, columns=selected,
                       wall_seconds=0.0, stats=traj.stats,
                       r_final=float(traj.r[-1]), N_final=float(n_numeric[-1]))
    if out_dir is not None:
        record = write_outputs(record, out_dir)
    return replace(record, wall_seconds=time.perf_counter() - started)


def write_outputs(record: RunRecord, out_dir) -> RunRecord:
    """Write <name>.csv (17 significant digits) and a gnuplot script."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{record.name}.csv"
    cols = list(record.columns)
    rows = np.column_stack([record.columns[c] for c in cols])
    # np.savetxt's bytes (fmt="%.17g", delimiter=",", comments=""), with one
    # format string per block of rows instead of one per row.
    line = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(csv_path, "w", encoding="latin1") as fh:
        fh.write(",".join(cols) + "\n")
        for a in range(0, len(rows), _CSV_BLOCK_ROWS):
            block = rows[a:a + _CSV_BLOCK_ROWS]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))

    plot_path = out / f"{record.name}.gp"
    plot_path.write_text(_plot_script(record.name, cols))
    return replace(record, csv_path=str(csv_path), plot_path=str(plot_path))


def _plot_script(name: str, cols: list[str]) -> str:
    """Generic gnuplot commands referencing the CSV by relative path."""
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set xlabel 'tau'",
        "set grid",
    ]
    if "r_numeric" in cols and "r_analytic" in cols:
        i, j = cols.index("r_numeric") + 1, cols.index("r_analytic") + 1
        lines += [
            "set ylabel 'r'",
            f"plot '{name}.csv' using 1:{i} with lines, "
            f"'{name}.csv' using 1:{j} with lines dashtype 2",
            "pause -1",
        ]
    if "N_numeric" in cols:
        i = cols.index("N_numeric") + 1
        lines += [
            "set ylabel 'N'",
            "set logscale y",
            f"plot '{name}.csv' using 1:{i} with lines",
            "pause -1",
        ]
    return "\n".join(lines) + "\n"


def run_preset(preset: str, out_dir=None) -> list[RunRecord]:
    if preset not in PRESETS:
        raise ValidationError(
            f"unknown preset {preset!r}; expected one of {sorted(PRESETS)}"
        )
    return [run(cfg, out_dir=out_dir, name=label)
            for label, cfg in PRESETS[preset]]


@dataclass(frozen=True)
class SweepFailure:
    """Placeholder record for a sweep cell whose run raised."""

    name: str
    error: str
    error_type: str


def _sweep_one(args):
    cfg, out_dir, name = args
    try:
        return run(cfg, out_dir=out_dir, name=name)
    except PseudoDceError as exc:
        kind = type(exc).__name__
        return SweepFailure(name=name, error=f"{kind}: {exc}", error_type=kind)


def sweep(base: ScenarioConfig, axis: str, values, out_dir=None,
          workers: int = 1) -> tuple[list[RunRecord], str]:
    """Run the base scenario once per value of one configuration key.

    Returns the records (input order) and the summary CSV text with one
    row per value: value, amplification factor, final photon number; a
    failed cell's row reads value, "failed", the error's type name.  The
    axis must be a float or int key, and values any nonempty iterable, read
    once; every cell is validated before any runs, and at most one worker
    process is started per cell and per CPU.
    """
    values = list(values)
    if axis not in _FIELD_TYPES:
        raise ValidationError(f"unknown sweep axis {axis!r}")
    if _FIELD_TYPES[axis] not in ("float", "int"):
        raise ValidationError(f"{axis} must be a numeric key to sweep, "
                              f"not {_FIELD_TYPES[axis]}")
    if isinstance(workers, bool) or not isinstance(workers, numbers.Integral):
        raise ValidationError(f"workers must be an integer, got {workers!r}")
    if workers < 1:
        raise ValidationError(f"workers must be at least 1, got {workers}")
    if not values:
        raise ValidationError("values must list at least one number")
    jobs = []
    for i, value in enumerate(values):
        whole = (isinstance(value, numbers.Integral)
                 or isinstance(value, float) and value.is_integer())
        if _FIELD_TYPES[axis] == "int" and whole and not isinstance(value, bool):
            value = int(value)
        cfg = replace(base, **{axis: value})
        cfg.validate()
        jobs.append((cfg, out_dir, f"sweep_{axis}_{i}"))

    # Workers beyond the cells or the CPUs would only idle or compete.
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            records = list(ex.map(_sweep_one, jobs))
    else:
        records = [_sweep_one(job) for job in jobs]

    lines = [f"{axis},amplification,N_final"]
    for value, rec in zip(values, records):
        if isinstance(rec, SweepFailure):
            lines.append(f"{float(value):.17g},failed,{rec.error_type}")
            continue
        cfg = rec.config
        amp = amplification_factor(cfg.alpha0_tilde, cfg.beta0_tilde, cfg.chi)
        lines.append(f"{float(value):.17g},{amp:.17g},{rec.N_final:.17g}")
    summary = "\n".join(lines) + "\n"
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / f"sweep_{axis}_summary.csv").write_text(summary)
    return records, summary
