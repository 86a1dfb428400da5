"""The three workloads: inputs, one timed pass, and the correctness checks.

A workload is built once per process (its constructor is the set-up the
benchmark times), then run pass after pass.  Each pass is a fixed round of
operations, so the share of failed operations is the same in every run.
The checks compare the last pass against the independent reference in
reference.py or against properties the method must have.
"""

from __future__ import annotations

import math
import time
from pathlib import Path
from statistics import median

import numpy as np

import pseudo_dce as pd
import reference as ref

# Relative comparisons only above this photon number; below it the seeded
# origin of the squeeze route makes ratios meaningless (the floor verify uses).
N_FLOOR = 1e-3
REL_BOUND = 1e-4          # program vs reference above N_FLOOR (verify's route bound)
ABS_BOUND = 1e-6          # program vs reference below N_FLOOR
FOCK_REL_BOUND = 1e-3     # Fock photon number inside the trust window (verify)
NORM_DRIFT_BOUND = 1e-8
POPULATION_BOUND = 1e-4   # |psi_2k|^2 against the exact squeezed vacuum
MAP_BOUND = 1e-8          # Gauss vs expm map on the trusted block (verify)
HEADLINE_RATIO = 1e6      # N_final(fig3_solid)/N_final(fig3_hermitian)
LID_TAIL = 1e-12          # exact population at or above the lid in the lid-free window


class Pass:
    """What one pass produced: operation counts, outputs and layer figures."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.failed = 0
        self.records = []
        self.layers: dict[str, float] = {}
        self.photons: list[np.ndarray] = []
        self.summary = ""   # sweep summary CSV
        self.props = {}     # dim -> PropagationResult
        self.maps = {}      # form -> list of map matrices


def drive_of(cfg) -> ref.Drive:
    if cfg.zeta_mode != "exact":
        raise ValueError("the reference transcribes the exact zeta only")
    return ref.Drive(cfg.omega0, cfg.eps_mod, cfg.kappa, cfg.alpha0_tilde,
                     cfg.beta0_tilde)


def compare(n_prog: np.ndarray, n_ref: np.ndarray) -> tuple[float, float]:
    """(worst relative error above N_FLOOR, worst absolute error below it)."""
    diff = np.abs(np.asarray(n_prog) - n_ref)
    hi = n_ref > N_FLOOR
    rel = float(np.max(diff[hi] / n_ref[hi])) if hi.any() else 0.0
    ab = float(np.max(diff[~hi])) if (~hi).any() else 0.0
    return rel, ab


def check_scenario(rec, failures: list[str], *, closed_form: bool) -> float:
    """Photon numbers of one RunRecord against the reference; worst rel error."""
    cfg = rec.config
    d = drive_of(cfg)
    t = np.asarray(rec.column("tau")) / cfg.omega0
    r = ref.photon_reference(d, t, source=cfg.dyson_source, chi=cfg.chi,
                             z_abs=cfg.z_abs, varphi0=cfg.varphi0)
    worst = 0.0
    for col in ("N_numeric", "N_oracle"):
        rel, ab = compare(rec.column(col), r.N)
        worst = max(worst, rel)
        if not rel <= REL_BOUND:
            failures.append(f"{rec.name} {col}: rel err {rel:.3e} > {REL_BOUND:g}")
        if not ab <= ABS_BOUND:
            failures.append(f"{rec.name} {col}: abs err {ab:.3e} > {ABS_BOUND:g}")
    ulps = r.invariant_ulps()
    if not ulps <= ref.INVARIANT_ULPS:
        failures.append(f"{rec.name} reference |u|^2-|v|^2-1 at {ulps:.0f} ulps")
    if closed_form:
        win = (t >= 10.0) & (t <= 50.0)
        rc = ref.closed_form_r(d, cfg.chi, t[win])
        dev = float(np.max(np.abs(r.r[win] - rc) / rc))
        if not dev <= ref.CLOSED_FORM_BOUND:
            failures.append(f"{rec.name} reference r vs closed form {dev:.3e}")
    return worst


def check_csv(rec, failures: list[str]):
    """The written CSV parses back to the in-memory columns bit for bit."""
    lines = Path(rec.csv_path).read_text().splitlines()
    names = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    if names != list(rec.columns) or rows.shape[0] != len(rec.column(names[0])):
        failures.append(f"{rec.name}: CSV header or row count differs")
        return
    for j, name in enumerate(names):
        want = np.asarray(rec.column(name), dtype=float)
        got = rows[:, j]
        same = (got.view(np.uint64) == want.view(np.uint64)) | (
            np.isnan(got) & np.isnan(want))
        if not same.all():
            failures.append(f"{rec.name}: CSV column {name} does not round-trip")


class Presets:
    """run_preset("fig3"): three resonant runs with CSV and gnuplot output."""

    name = "presets"
    ops_per_pass = 3

    def __init__(self, seed: int, out_dir: Path, workers: int):
        del seed, workers  # the figure path has fixed inputs
        self.preset = "fig3"
        self.out_dir = out_dir / self.name

    def prepare(self):
        pass

    def one_pass(self, tracer=None, in_process=False) -> Pass:
        res = Pass(self.ops_per_pass)
        try:
            res.records = pd.run_preset(self.preset, out_dir=self.out_dir)
        except pd.PseudoDceError:
            res.failed = self.ops_per_pass
            return res
        res.photons = [np.asarray(r.column("N_numeric")) for r in res.records]
        res.layers["scenario.cell_s"] = median(r.wall_seconds for r in res.records)
        return res

    def check(self, res: Pass) -> tuple[list[str], float]:
        failures: list[str] = []
        worst = 0.0
        for rec in res.records:
            worst = max(worst, check_scenario(rec, failures, closed_form=True))
            check_csv(rec, failures)
        final = {rec.name: float(rec.column("N_numeric")[-1]) for rec in res.records}
        if res.records:
            ratio = final["fig3_solid"] / final["fig3_hermitian"]
            if not ratio > HEADLINE_RATIO:
                failures.append(f"N ratio solid/hermitian {ratio:.3e} <= 1e6")
        return failures, worst


class FlowSweep:
    """sweep over kappa with the integrated map source on verify's moderate map."""

    name = "flow_sweep"
    cells = 12
    ops_per_pass = cells
    kappa_lo, kappa_hi = 1.9, 2.1

    def __init__(self, seed: int, out_dir: Path, workers: int):
        rng = np.random.default_rng(seed)
        # One kappa per equal slice of [1.9, 2.1]: every run spans resonance.
        u = (np.arange(self.cells) + rng.random(self.cells)) / self.cells
        self.kappas = [float(k) for k in self.kappa_lo + (self.kappa_hi - self.kappa_lo) * u]
        self.base = pd.ScenarioConfig(alpha0_tilde=0.6, beta0_tilde=0.2,
                                      chi=-2.25, z_abs=0.8,
                                      dyson_source="integrated", tau_max=25.0)
        self.workers = min(workers, self.cells)
        self.out_dir = out_dir / self.name

    def prepare(self):
        pass

    def one_pass(self, tracer=None, in_process=False) -> Pass:
        res = Pass(self.ops_per_pass)
        workers = 1 if in_process else self.workers
        t0 = time.perf_counter()
        records, res.summary = pd.sweep(self.base, "kappa", self.kappas,
                                        out_dir=self.out_dir, workers=workers)
        wall = time.perf_counter() - t0
        res.records = [r for r in records if not isinstance(r, pd.SweepFailure)]
        res.failed = len(records) - len(res.records)
        res.photons = [np.asarray(r.column("N_numeric")) for r in res.records]
        cell = [r.wall_seconds for r in res.records]
        if cell:
            res.layers["scenario.cell_s"] = median(cell)
            res.layers["scenario.pool_overhead_s"] = wall - sum(cell) / workers
        return res

    def check(self, res: Pass) -> tuple[list[str], float]:
        failures: list[str] = []
        worst = 0.0
        for rec in res.records:
            worst = max(worst, check_scenario(rec, failures, closed_form=False))
        rows = res.summary.splitlines()[1:]
        by_kappa = {float(r.config.kappa): r for r in res.records}
        b = self.base
        amp = abs(b.alpha0_tilde - b.chi * b.beta0_tilde) / abs(b.chi - 1.0)
        for kappa, row in zip(self.kappas, rows):
            value, got_amp, n_final = row.split(",")
            if float(value) != kappa:
                failures.append(f"summary row {row!r} is not kappa {kappa!r}")
            rec = by_kappa.get(kappa)
            if rec is None:
                continue
            if not math.isclose(float(got_amp), amp, rel_tol=4 * ref.EPS):
                failures.append(f"summary amplification {got_amp} != {amp!r}")
            if float(n_final) != float(rec.column("N_numeric")[-1]):
                failures.append(f"summary N_final {n_final} differs from the run")
        if len(rows) != len(self.kappas):
            failures.append("summary has the wrong number of rows")
        return failures, worst


class FockOracle:
    """propagate the vacuum under the fig1 counterpart at dim 128 and 264,
    plus Gauss and expm map assembly at dim 128."""

    name = "fock_oracle"
    dims = (128, 264)
    ops_per_pass = 4        # two propagations, two map grids
    map_dim = 128
    map_block = 41          # trusted block of the map comparison (verify)
    grid_points = 81
    chi = 1.0002
    varphi0 = 0.5 * math.pi

    def __init__(self, seed: int, out_dir: Path, workers: int):
        del seed, out_dir, workers
        self.p = pd.DriveParams(omega0=1.0, eps_mod=0.01, kappa=2.0,
                                alpha0_tilde=0.01, beta0_tilde=0.001)
        self.spaces = {d: pd.FockSpace(d) for d in self.dims}

    def coeffs(self, t: float):
        c = pd.hermitized_coefficients(
            pd.approx_dyson_trajectory(t, self.p, self.varphi0, self.chi), self.p, t)
        T = c.T()
        return c.W, T, T.conjugate()

    def prepare(self):
        """Time grids up to each trust crossing, and the map coordinates."""
        d = ref.Drive(1.0, 0.01, 2.0, 0.01, 0.001)
        fine = np.linspace(0.0, 12.0, 2401)
        r = ref.photon_reference(d, fine, source="approximate", chi=self.chi,
                                 varphi0=self.varphi0).r
        self.grids, self.refs = {}, {}
        for dim in self.dims:
            bound = pd.squeeze_trust_bound(dim)
            t_end = float(fine[np.argmax(r >= bound)])
            grid = np.linspace(0.0, t_end, self.grid_points)
            self.grids[dim] = grid
            self.refs[dim] = ref.photon_reference(d, grid, source="approximate",
                                                  chi=self.chi, varphi0=self.varphi0)
        # The moderate map along its own constraint flow, tau in [0, 3.5].
        moderate = ref.Drive(1.0, 0.01, 2.0, 0.6, 0.2)
        flow = ref.photon_reference(moderate, np.linspace(0.0, 3.5, 8),
                                    source="integrated", chi=-2.25, z_abs=0.8,
                                    varphi0=self.varphi0)
        chi = flow.Phi ** 2 - flow.Lambda
        z = -2.0 * flow.Phi / (chi + 1.0)
        eps = ref.map_strength(z, flow.Phi)
        self.maps = [(float(e), complex(0.5 * e * zz * np.exp(1j * ph)))
                     for e, zz, ph in zip(eps, z, flow.varphi)]

    def one_pass(self, tracer=None, in_process=False) -> Pass:
        res = Pass(self.ops_per_pass)
        coeffs = self.coeffs if tracer is None else TimedCallback(self.coeffs)
        for dim in self.dims:
            f = self.spaces[dim]
            before = tracer.snapshot() if tracer else {}
            t0 = time.perf_counter()
            try:
                out = pd.propagate(coeffs, f.vacuum(), self.grids[dim], f)
            except pd.PseudoDceError:
                res.failed += 1
                continue
            elapsed = time.perf_counter() - t0
            res.props[dim] = out
            res.photons.append(out.mean_photon(f))
            tag = f"d{dim}"
            res.layers[f"fock.propagate_s.{tag}"] = elapsed
            res.layers[f"fock.steps.{tag}"] = out.stats.n_steps
            if tracer:
                after = tracer.snapshot()
                res.layers[f"fock.coeff_s.{tag}"] = coeffs.take()
                if "integrate.nfev" in after:
                    nfev = after["integrate.nfev"] - before.get("integrate.nfev", 0.0)
                    res.layers[f"fock.nfev.{tag}"] = nfev
                    # rhs = two dense complex matvecs, 8 flops per entry each.
                    res.layers[f"fock.matvec_flops.{tag}"] = 16.0 * dim * dim * nfev
        f = self.spaces[self.map_dim]
        for form, key in (("gauss", "fock.eta_gauss_s"),
                          ("exponential", "fock.eta_expm_s")):
            t0 = time.perf_counter()
            try:
                res.maps[form] = [pd.eta_matrix(e, mu, f, form=form)
                                  for e, mu in self.maps]
            except pd.PseudoDceError:
                res.failed += 1
                continue
            res.layers[key] = time.perf_counter() - t0
        return res

    def check(self, res: Pass) -> tuple[list[str], float]:
        failures: list[str] = []
        worst = 0.0
        for dim, out in res.props.items():
            f = self.spaces[dim]
            r = self.refs[dim]
            amps = out.amplitudes
            if np.any(amps[:, 1::2] != 0.0):
                failures.append(f"d{dim}: odd levels populated")
            if not out.norm_drift <= NORM_DRIFT_BOUND:
                failures.append(f"d{dim}: norm drift {out.norm_drift:.3e}")
            exact = ref.squeezed_vacuum_populations(r.r, dim)
            dev = float(np.max(np.abs(np.abs(amps[:, 0::2]) ** 2 - exact)))
            if not dev <= POPULATION_BOUND:
                failures.append(f"d{dim}: populations off by {dev:.3e}")
            n_fock = out.mean_photon(f)
            rel, ab = compare(n_fock, r.N)
            if not rel <= FOCK_REL_BOUND or not ab <= ABS_BOUND:
                failures.append(f"d{dim}: N rel {rel:.3e}, abs {ab:.3e}")
            # Where the exact state puts < LID_TAIL at or above the lid,
            # truncation is invisible and the error is the integrator's.
            lid = (dim - 10) // 2
            tail = exact[:, lid:].sum(axis=1) + np.abs(1.0 - exact.sum(axis=1))
            clean = (tail < LID_TAIL) & (r.N > N_FLOOR)
            if clean.any():
                worst = max(worst, float(np.max(np.abs(n_fock - r.N)[clean] / r.N[clean])))
            else:
                failures.append(f"d{dim}: empty lid-free window")
        gauss, expm = res.maps.get("gauss"), res.maps.get("exponential")
        if gauss and expm:
            blk = slice(0, self.map_block)
            for a, b in zip(gauss, expm):
                dev = float(np.linalg.norm(a[blk, blk] - b[blk, blk])
                            / np.linalg.norm(b[blk, blk]))
                if not dev <= MAP_BOUND:
                    failures.append(f"gauss vs expm map {dev:.3e} > {MAP_BOUND:g}")
        return failures, worst


class TimedCallback:
    """Wraps the benchmark's own coefficient callback in a traced pass."""

    def __init__(self, fn):
        self.fn = fn
        self.seconds = 0.0

    def __call__(self, t):
        t0 = time.perf_counter()
        try:
            return self.fn(t)
        finally:
            self.seconds += time.perf_counter() - t0

    def take(self) -> float:
        s, self.seconds = self.seconds, 0.0
        return s


WORKLOADS = {w.name: w for w in (Presets, FlowSweep, FockOracle)}
