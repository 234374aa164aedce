"""Command-line entry points.

    sqcomm run --config configs/03_oversampling.json [--seed N] [--out DIR]
    sqcomm verify --suite protocols|reductions|oracle [--out DIR]
    sqcomm fit-bits --reduction sparse --t-sweep 10:1000:15

Every command exits 0 iff all of its checks pass.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (EXPERIMENTS, SWEEP_LAYOUTS, ConfigError, access_mix, bit_sweep,
                      fit_checks, load_config, parse_config, run, sweep_values)
from .verify import SUITES, run_suite, suite_passed


def _print_report(report) -> None:
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {report.experiment}/{check.name}: {check.detail}")
    extras = []
    if report.accuracy is not None:
        extras.append(f"accuracy {report.accuracy:.4f}")
    if report.bits_mean is not None:
        extras.append(f"bits mean {report.bits_mean:.1f} max {report.bits_max}")
    if report.fit is not None:
        extras.append(f"fit c0={report.fit['c0']:.4f} c1={report.fit['c1']:.4f} "
                      f"R^2={report.fit['r_squared']:.6f}")
    extras.append(f"{report.wall_clock_s:.2f}s")
    print(f"  {report.experiment}: {report.trials} trials, " + ", ".join(extras))


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = parse_config(dict(config.to_dict(), seed=args.seed))
    report = run(config, out_dir=args.out)
    _print_report(report)
    return 0 if report.all_passed else 1


def _cmd_verify(args) -> int:
    reports = run_suite(args.suite, out_dir=args.out)
    for report in reports:
        _print_report(report)
    ok = suite_passed(reports)
    print(f"suite {args.suite}: {'all checks passed' if ok else 'FAILURES'}")
    return 0 if ok else 1


# --- fit-bits --------------------------------------------------------------------

def _parse_sweep(text: str) -> list:
    try:
        return [int(x) for x in text.split(":")]
    except ValueError as err:
        raise SystemExit(f"--t-sweep wants A:B:S integers, got {text!r}") from err


def _cmd_fit_bits(args) -> int:
    config = parse_config({"experiment": "bit_fit", "seed": args.seed,
                           "params": {"t_sweep": _parse_sweep(args.t_sweep)}})
    t_values = sweep_values(config.params["t_sweep"])
    layout = SWEEP_LAYOUTS[args.reduction]
    totals, fit, k = bit_sweep(lambda rng: layout(config.params, rng), access_mix,
                               t_values, config.seed)

    print("t_accesses,total_bits")
    for t_accesses, total in zip(t_values, totals):
        print(f"{t_accesses},{total}")
    print(f"# word bits w = {fit['word_bits']}, players k = {k}")
    print(f"# total = c0*k*w + c1*T*w with c0 = {fit['c0']:.6f}, "
          f"c1 = {fit['c1']:.6f}, R^2 = {fit['r_squared']:.9f}")
    ok = all(c.passed for c in fit_checks(fit, *config.params["t_sweep"][:2]))
    print(f"# fit check: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sqcomm",
        description="simulate and verify sampling-and-query access over "
                    "distributed data with exact bit accounting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the config file")
    p_run.add_argument("--seed", type=int, default=None, help="override the seed")
    p_run.add_argument("--out", default=None, help="directory for report files")
    p_run.set_defaults(fn=_cmd_run)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--suite", required=True, choices=sorted(SUITES))
    p_verify.add_argument("--out", default=None, help="directory for report files")
    p_verify.set_defaults(fn=_cmd_verify)

    p_fit = sub.add_parser("fit-bits", help="sweep access counts and fit bit cost")
    p_fit.add_argument("--reduction", required=True, choices=list(SWEEP_LAYOUTS))
    sweep = EXPERIMENTS["bit_fit"].params["t_sweep"].value
    p_fit.add_argument("--t-sweep", default=":".join(map(str, sweep)), metavar="A:B:S",
                       help="access counts start:stop:step (default %(default)s)")
    p_fit.add_argument("--seed", type=int, default=1)
    p_fit.set_defaults(fn=_cmd_fit_bits)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        raise SystemExit(str(err)) from err


if __name__ == "__main__":
    sys.exit(main())
