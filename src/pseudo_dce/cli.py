"""Command-line front end: run scenarios, verify the build, sweep parameters.

Exit codes: 0 success, 1 validation error (bad config, bad usage),
2 simulation error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import ParseError, PseudoDceError, ValidationError
from .scenario import PRESETS, SweepFailure, load_config, run, run_preset, sweep
from .verify import run_verify

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SIMULATION = 2
EXIT_VERIFICATION = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; that code is reserved for
    # simulation failures, so usage problems map to the validation code.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="pseudo-dce",
                     description="Parametric-oscillator photon production "
                                 "with a non-Hermitian drive.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_run = sub.add_parser("run", help="run one scenario or a figure preset")
    group = p_run.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", metavar="FILE",
                       help="flat key = value scenario file")
    group.add_argument("--preset", choices=tuple(PRESETS),
                       help="named figure preset")
    p_run.add_argument("--out", metavar="DIR", default=None,
                       help="output directory (default: $PSEUDO_DCE_OUT "
                            "or ./out)")

    p_ver = sub.add_parser("verify", help="self-verification suite")
    p_ver.add_argument("--level", choices=("fast", "full"), default="fast",
                       help="fast skips the large Fock-oracle runs")

    p_sweep = sub.add_parser("sweep",
                             help="run one scenario per value of one key")
    p_sweep.add_argument("--config", metavar="FILE", required=True)
    p_sweep.add_argument("--axis", metavar="KEY", required=True,
                         help="numeric configuration key to vary")
    p_sweep.add_argument("--values", metavar="V1,V2,...", required=True)
    p_sweep.add_argument("--workers", type=int, default=1, metavar="N")
    p_sweep.add_argument("--out", metavar="DIR", default=None)
    return parser


def _out_dir(arg) -> str:
    if arg is not None:
        return arg
    return os.environ.get("PSEUDO_DCE_OUT", "out")


def _cmd_run(args) -> int:
    out = _out_dir(args.out)
    if args.preset is not None:
        records = run_preset(args.preset, out_dir=out)
    else:
        cfg = load_config(args.config)
        records = [run(cfg, out_dir=out, name=Path(args.config).stem)]
    for rec in records:
        print(f"{rec.name}: r_final={rec.r_final:.6g} "
              f"N_final={rec.N_final:.6g} "
              f"steps={rec.stats.n_steps} wall={rec.wall_seconds:.2f}s "
              f"-> {rec.csv_path}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = run_verify(args.level)
    print(report.to_json())
    return EXIT_OK if report.all_passed else EXIT_VERIFICATION


def _cmd_sweep(args) -> int:
    base = load_config(args.config)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad --values entry: {exc}") from exc
    if not values:
        raise ValidationError("--values must list at least one number")
    records, summary = sweep(base, args.axis, values,
                             out_dir=_out_dir(args.out),
                             workers=args.workers)
    sys.stdout.write(summary)
    failures = [rec for rec in records if isinstance(rec, SweepFailure)]
    for rec in failures:
        print(f"{rec.name}: {rec.error}", file=sys.stderr)
    return EXIT_SIMULATION if failures else EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "verify": _cmd_verify,
               "sweep": _cmd_sweep}[args.command]
    try:
        return handler(args)
    except (ParseError, ValidationError) as exc:
        print(f"pseudo-dce: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PseudoDceError as exc:
        print(f"pseudo-dce: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except OSError as exc:
        print(f"pseudo-dce: {exc}", file=sys.stderr)
        return EXIT_SIMULATION


if __name__ == "__main__":
    sys.exit(main())
