"""Drive the batteries-included layer: configs, presets, and sweeps.

The lower-level demos call the physics modules directly.  Day to day the
entry point is a scenario: a small key = value config file (or a named
preset) that runs the evolution, cross-checks it against the closed form
and the independent oracle, and writes a CSV plus a gnuplot script.

This script exercises that layer in-process and prints where each file
lands.  The same operations are available from the shell:

    pseudo-dce run --preset fig1 --out results/
    pseudo-dce run --config my_case.cfg --out results/
    pseudo-dce sweep --axis beta0_tilde --values 1e-3,1e-4 --out results/
    pseudo-dce verify --level fast

Run:  python3 demos/05_scenarios_and_cli.py
"""

import tempfile
from pathlib import Path

from pseudo_dce.scenario import (PRESETS, ScenarioConfig, parse_config, run,
                                 run_preset, sweep)

CONFIG_TEXT = """\
# weak unbalanced drive, short run
eps_mod = 0.01
alpha0_tilde = 0.01
beta0_tilde = 0.001
tau_max = 15
rtol = 1e-10
outputs = tau, r_numeric, r_analytic, N_numeric, N_oracle
"""


def main():
    out = Path(tempfile.mkdtemp(prefix="pseudo_dce_demo_"))
    print(f"writing results under {out}")
    print()

    cfg = parse_config(CONFIG_TEXT)
    rec = run(cfg, out_dir=out, name="demo_case")
    print(f"config run '{rec.name}': {rec.stats.n_steps} steps "
          f"({rec.stats.n_rejected} rejected), {rec.wall_seconds:.2f}s")
    print(f"  csv  -> {rec.csv_path}")
    print(f"  plot -> {rec.plot_path}")
    r_num = rec.column("r_numeric")
    n_num = rec.column("N_numeric")
    n_orc = rec.column("N_oracle")
    print(f"  r(15) = {r_num[-1]:.4f}, N(15) = {n_num[-1]:.4e}, "
          f"oracle deviation {abs(n_num[-1] - n_orc[-1]) / n_orc[-1]:.2e}")
    print()

    print(f"presets: {', '.join(sorted(PRESETS))}")
    records = run_preset("fig3", out_dir=out)
    print("preset fig3 (three drives on one time axis):")
    for r in records:
        print(f"  {r.name:<15} N(50) = {r.columns['N_numeric'][-1]:12.4e}"
              f"  ({r.wall_seconds:.2f}s)")
    print()

    # The (u, v) oracle runs only for a config whose outputs name N_oracle.
    base = ScenarioConfig(tau_max=25.0, outputs=("tau", "r_numeric", "N_numeric"))
    _, summary = sweep(base, "beta0_tilde", (1e-3, 5e-4, 1e-4), out_dir=out)
    print("sweep over the pair-creation strength (summary CSV):")
    for line in summary.strip().splitlines():
        print(f"  {line}")
    print()

    files = sorted(p.name for p in out.iterdir())
    print(f"{len(files)} files written: {', '.join(files)}")


if __name__ == "__main__":
    main()
