"""Per-layer tracing by rebinding pseudo_dce's public functions.

A Tracer replaces a function by a timing wrapper in every pseudo_dce module
that holds a reference to it: the defining module and each module that
imported the name.  Calls from inside the package then go through the
wrapper; leaving the `with` block restores the originals.  A function that
no longer exists is recorded as absent, and the metrics fed by it are then
left out of the report instead of failing the run.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, function, layer key); the key names the counters it feeds.
TIMED = (
    ("hermitize", "hermitized_coefficients", "hermitize.coeff"),
    ("hermitize", "constraint_rhs_polar", "hermitize.flow"),
    ("dynamics", "evolve", "dynamics.evolve"),
    ("dynamics", "bogoliubov_ode_oracle", "dynamics.oracle"),
    ("scenario", "run", "scenario.run"),
)


class Tracer:
    def __init__(self):
        self.totals = defaultdict(float)
        self.absent: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module, name, key in TIMED:
            self._rebind(module, name, key, self._timed(key))
        self._rebind("integrate", "integrate", "integrate", self._integrate)
        self._rebind("scenario", "write_outputs", "scenario.csv",
                     self._write_outputs)
        return self

    def __exit__(self, *exc):
        for holder, attr, orig in reversed(self._undo):
            setattr(holder, attr, orig)
        self._undo.clear()
        return False

    def snapshot(self) -> dict[str, float]:
        return dict(self.totals)

    def _rebind(self, module: str, name: str, key: str, make_wrapper):
        mod = sys.modules.get(f"pseudo_dce.{module}")
        orig = getattr(mod, name, None) if mod is not None else None
        if not callable(orig):
            self.absent.add(key)
            return
        wrapper = make_wrapper(orig)
        for mod_name, holder in list(sys.modules.items()):
            if mod_name != "pseudo_dce" and not mod_name.startswith("pseudo_dce."):
                continue
            for attr, value in list(vars(holder).items()):
                if value is orig:
                    setattr(holder, attr, wrapper)
                    self._undo.append((holder, attr, orig))

    def _timed(self, key: str):
        totals = self.totals

        def make(orig):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return orig(*args, **kwargs)
                finally:
                    totals[f"{key}_s"] += time.perf_counter() - t0
                    totals[f"{key}_calls"] += 1

            return wrapper

        return make

    def _integrate(self, orig):
        totals = self.totals

        def wrapper(problem, *args, **kwargs):
            rhs = getattr(problem, "rhs", None)
            if callable(rhs) and dataclasses.is_dataclass(problem):
                def timed_rhs(t, y):
                    t0 = time.perf_counter()
                    try:
                        return rhs(t, y)
                    finally:
                        totals["integrate.rhs_s"] += time.perf_counter() - t0
                        totals["integrate.nfev"] += 1

                problem = dataclasses.replace(problem, rhs=timed_rhs)
            else:
                self.absent.add("integrate.rhs")
            t0 = time.perf_counter()
            try:
                sol = orig(problem, *args, **kwargs)
            finally:
                totals["integrate_s"] += time.perf_counter() - t0
                totals["integrate_calls"] += 1
            stats = getattr(sol, "stats", None)
            for field, key in (("n_steps", "integrate.steps"),
                               ("n_rejected", "integrate.rejected")):
                if hasattr(stats, field):
                    totals[key] += getattr(stats, field)
                else:
                    self.absent.add(key)
            return sol

        return wrapper

    def _write_outputs(self, orig):
        totals = self.totals

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                record = orig(*args, **kwargs)
            finally:
                totals["scenario.csv_s"] += time.perf_counter() - t0
            path = getattr(record, "csv_path", None)
            if path:
                totals["scenario.csv_bytes"] += Path(path).stat().st_size
            return record

        return wrapper
