#!/usr/bin/env python3
"""Benchmark of pseudo_dce: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload presets|flow_sweep|fock_oracle \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ./src in the
same process (no install).  A run sets up the workload, computes the
reference, repeats whole passes of the workload until S seconds have gone
by, checks the last pass and prints one JSON line last on stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics of a traced run, plus the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 4          # fresh interpreters timing set-up, besides this one

END_TO_END = {"setup_s": "s", "wall_s": "s", "max_rel_err": "1",
              "peak_rss_mb": "MB"}

# Per-layer metric -> (unit, tracer keys it needs).  Keys a traced run finds
# absent (the wrapped function no longer exists) drop the metric.
PER_LAYER = {
    "integrate.steps": ("count", ("integrate", "integrate.steps")),
    "integrate.rejected": ("count", ("integrate", "integrate.rejected")),
    "integrate.nfev": ("count", ("integrate", "integrate.rhs")),
    "integrate.rhs_s": ("s", ("integrate", "integrate.rhs")),
    "integrate.self_s": ("s", ("integrate", "integrate.rhs")),
    "hermitize.coeff_calls": ("count", ("hermitize.coeff",)),
    "hermitize.coeff_s": ("s", ("hermitize.coeff",)),
    "hermitize.flow_calls": ("count", ("hermitize.flow",)),
    "hermitize.flow_s": ("s", ("hermitize.flow",)),
    "dynamics.evolve_s": ("s", ("dynamics.evolve",)),
    "dynamics.oracle_s": ("s", ("dynamics.oracle",)),
    "scenario.columns_s": ("s", ("scenario.run", "scenario.csv",
                                 "dynamics.evolve", "dynamics.oracle")),
    "scenario.csv_s": ("s", ("scenario.csv",)),
    "scenario.csv_bytes": ("B", ("scenario.csv",)),
    "scenario.cell_s": ("s", ()),
    "scenario.pool_overhead_s": ("s", ()),
    **{f"fock.{m}.d{dim}": (unit, keys)
       for dim in (128, 264)
       for m, unit, keys in (("propagate_s", "s", ()), ("steps", "count", ()),
                             ("nfev", "count", ("integrate", "integrate.rhs")),
                             ("coeff_s", "s", ()),
                             ("matvec_flops", "flop-computed",
                              ("integrate", "integrate.rhs")))},
    "fock.eta_gauss_s": ("s", ()),
    "fock.eta_expm_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
}

PROBE = """
import sys, time
sys.path[:0] = [sys.argv[3], sys.argv[4]]
t0 = time.perf_counter()
import pseudo_dce
t_import = time.perf_counter() - t0
import workloads
t1 = time.perf_counter()
workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), workloads.Path(sys.argv[5]), 1)
print(t_import + time.perf_counter() - t1)
"""


COUNT_UNITS = ("count", "B", "flop-computed")


def as_number(v: float, unit: str):
    """Counts print as integers, everything else with all its digits."""
    return int(v) if unit in COUNT_UNITS else float(v)


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


class Runner:
    """Repeats passes of one workload and keeps what the report needs."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.first_photons = None
        self.nondeterministic = False

    def one(self, **kwargs):
        t0 = time.perf_counter()
        res = self.wl.one_pass(**kwargs)
        wall = time.perf_counter() - t0
        self.attempted += res.attempted
        self.failed += res.failed
        if self.first_photons is None:
            self.first_photons = res.photons
        elif len(res.photons) == len(self.first_photons):
            if not all(a.shape == b.shape and (a == b).all()
                       for a, b in zip(res.photons, self.first_photons)):
                self.nondeterministic = True
        return res, wall

    def check(self, res) -> tuple[list[str], float]:
        failures, worst = self.wl.check(res)
        if self.nondeterministic:
            failures.append("passes gave different photon numbers")
        return failures, worst


def untraced(runner: Runner, seconds: float):
    walls = []
    start = time.perf_counter()
    while True:
        res, wall = runner.one()
        walls.append(wall)
        if time.perf_counter() - start >= seconds:
            break
    failures, worst = runner.check(res)
    metrics = {"wall_s": median(walls)}
    if res.attempted > res.failed:
        metrics["max_rel_err"] = worst
    log(f"{len(walls)} passes, wall per pass: "
        + ", ".join(f"{w:.3f}" for w in walls))
    return failures, metrics


def traced(runner: Runner, seconds: float):
    from tracing import Tracer

    pooled = getattr(runner.wl, "workers", 1) > 1
    plain, base, with_trace = [], [], []
    own_layers, traced_layers, deltas = [], [], []
    absent: set[str] = set()
    start = time.perf_counter()
    while True:
        res, wall = runner.one()
        plain.append(wall)
        own_layers.append(res.layers)
        if pooled:  # the traced pass runs its cells in process; so does its baseline
            _, wall = runner.one(in_process=True)
        base.append(wall)
        with Tracer() as tracer:
            res_t, wall_t = runner.one(tracer=tracer, in_process=True)
        absent |= tracer.absent
        with_trace.append(wall_t)
        traced_layers.append(res_t.layers)
        deltas.append(tracer.snapshot())
        if time.perf_counter() - start >= seconds:
            break
    failures, _ = runner.check(res)
    failures += runner.check(res_t)[0]
    log(f"{len(plain)} rounds; untraced {median(plain):.3f} s, baseline "
        f"{median(base):.3f} s, traced {median(with_trace):.3f} s")

    def layer(d: dict) -> dict[str, float]:
        g = lambda k: d.get(k, 0.0)  # noqa: E731  a layer never called is idle
        return {**d,
                "integrate.self_s": g("integrate_s") - g("integrate.rhs_s"),
                "scenario.columns_s": g("scenario.run_s") - g("dynamics.evolve_s")
                - g("dynamics.oracle_s") - g("scenario.csv_s")}

    # Figures the workload times at its own call sites come from the
    # untraced passes; wrapped-layer figures from the traced ones.
    samples = [{**layer(d), **tr, **own}
               for d, tr, own in zip(deltas, traced_layers, own_layers)]
    metrics = {}
    for name, (_, keys) in PER_LAYER.items():
        if any(k in absent for k in keys):
            log(f"{name}: absent (a traced function no longer exists)")
        else:
            metrics[name] = median(s.get(name, 0.0) for s in samples)
    metrics["trace.overhead_s"] = median(with_trace) - median(base)
    return failures, metrics


def setup_probe(workload: str, seed: int, out_dir: Path) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, workload, str(seed), str(SRC),
         str(BENCH), str(out_dir)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest child's (the sweep workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("presets", "flow_sweep", "fock_oracle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pseudo_dce" / "__init__.py").is_file():
        log(f"no package source at {SRC / 'pseudo_dce'}; run from a checkout")
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(BENCH)]

    t0 = time.perf_counter()
    import pseudo_dce
    t_import = time.perf_counter() - t0
    if SRC.resolve() not in Path(pseudo_dce.__file__).resolve().parents:
        log(f"pseudo_dce came from {pseudo_dce.__file__}, not {SRC}")
        return 2
    import workloads

    nproc = len(os.sched_getaffinity(0))
    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    t1 = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir, nproc)
    setup = [t_import + time.perf_counter() - t1]
    log(f"workload {args.workload}, seed {args.seed}, BLAS threads "
        f"{BLAS_THREADS}, nproc {nproc}, sweep workers "
        f"{getattr(wl, 'workers', 0)}")

    try:
        wl.prepare()
        runner = Runner(wl)
        if args.trace:
            failures, metrics = traced(runner, args.seconds)
            units = {k: v[0] for k, v in PER_LAYER.items()}
        else:
            failures, metrics = untraced(runner, args.seconds)
            metrics["peak_rss_mb"] = peak_rss_mb()
            setup += [setup_probe(args.workload, args.seed, out_dir)
                      for _ in range(SETUP_PROBES)]
            metrics["setup_s"] = median(setup)
            log("set-up samples: " + ", ".join(f"{s:.3f}" for s in setup))
            units = END_TO_END
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            OUT.rmdir()
        except OSError:
            pass

    for msg in failures:
        log(f"CHECK FAILED: {msg}")
    for name, value in metrics.items():
        log(f"{name} = {as_number(value, units[name])!r} {units[name]}")
    log(f"attempted {runner.attempted}, failed {runner.failed}")
    result = {
        "correct": not failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": as_number(v, units[k]), "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
