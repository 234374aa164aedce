"""Command-line entry points.

    sqcomm run --config configs/03_oversampling.json [--seed N] [--out DIR]
    sqcomm verify --suite protocols|reductions|oracle [--out DIR]
    sqcomm fit-bits --reduction sparse --t-sweep 10:1000:15

Every command exits 0 iff all of its checks pass.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import comm_sim, reductions
from .comm_sim import (
    coord_a_access,
    coord_a_setup,
    coord_b_query,
    coord_b_sample,
    coord_b_setup,
)
from .harness import fit_bit_costs, fit_verdict, load_config, run, sweep_session
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
        config = replace(config, seed=args.seed)
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

def _parse_sweep(text: str):
    try:
        start, stop, step = (int(x) for x in text.split(":"))
    except ValueError as err:
        raise SystemExit(f"--t-sweep wants A:B:S integers, got {text!r}") from err
    if start < 1 or stop < start or step < 1:
        raise SystemExit(f"--t-sweep {text!r} is not a valid range")
    return list(range(start, stop + 1, step))


def _reduction_session(name: str, rng):
    if name == "generic":
        return sweep_session(8, 256, 256, rng, comm_sim.EncodingSpec())
    if name == "sparse":
        inst = reductions.gen_disjointness(8, 64, True, rng)
        return reductions.build_regression_sparse(inst).session
    if name == "dense":
        return reductions.build_regression_dense(
            reductions.gen_function_pair(6, rng)).session
    if name == "clustering":
        inst = reductions.gen_gap_hamming(5, 64, 1, rng)
        return reductions.build_clustering(inst).session
    if name == "pca":
        inst = reductions.gen_disjointness(2, 64, True, rng)
        return reductions.build_pca(inst.sets[0], inst.sets[1]).session
    if name == "hamiltonian":
        return reductions.build_hamiltonian(
            reductions.gen_function_pair(6, rng)).session
    raise SystemExit(f"unknown reduction {name!r}")


def _player_rows(session):
    rows = []
    for bl in session.a_blocks:
        if bl.owner != comm_sim.PUBLIC:
            mass = np.abs(bl.data).sum(axis=1)
            rows.extend(int(bl.offset + i) for i in np.flatnonzero(mass > 0))
    return rows


def _player_b_indices(session):
    idx = []
    for bl in session.b_blocks:
        if bl.owner != comm_sim.PUBLIC:
            idx.extend(range(bl.offset, bl.offset + bl.data.size))
    return idx


def _access_cycle(session):
    """Five accesses per cycle, each with a layout-constant bit cost."""
    rows = _player_rows(session)
    if session.b_blocks:
        b_idx = _player_b_indices(session)
        has_public_b = any(bl.owner == comm_sim.PUBLIC for bl in session.b_blocks)

        def step(i, rng):
            r = rows[i % len(rows)]
            j = b_idx[i % len(b_idx)]
            which = i % 5
            if which == 0:
                coord_b_query(session, j)
            elif which == 1:
                coord_a_access(session, ("entry_query", r, i % session.n), rng)
            elif which == 2:
                coord_a_access(session, ("row_norm_query", r), rng)
            elif which == 3:
                coord_a_access(session, ("row_sample", r), rng)
            elif has_public_b:
                coord_b_query(session, b_idx[(i + 1) % len(b_idx)])
            else:
                coord_b_sample(session, rng)
        return step

    def step(i, rng):
        r = rows[i % len(rows)]
        which = i % 5
        if which == 0:
            coord_a_access(session, ("entry_query", r, i % session.n), rng)
        elif which == 1:
            coord_a_access(session, ("row_norm_query", r), rng)
        elif which == 2:
            coord_a_access(session, ("row_sample", r), rng)
        elif which == 3:
            coord_a_access(session, "frobenius_query", rng)
        else:
            coord_a_access(session, "row_norm_sample", rng)
    return step


def _cmd_fit_bits(args) -> int:
    t_values = _parse_sweep(args.t_sweep)
    seeds = np.random.SeedSequence(args.seed).spawn(len(t_values))
    totals = []
    k = None
    for t_accesses, seed in zip(t_values, seeds):
        rng = np.random.default_rng(seed)
        session = _reduction_session(args.reduction, rng)
        k = session.k
        if session.b_blocks:
            coord_b_setup(session)
        if session.a_blocks:
            coord_a_setup(session)
        step = _access_cycle(session)
        for i in range(t_accesses):
            step(i, rng)
        totals.append(session.meter.total_bits)
        m_eff = session.m if session.m else session.a_rows
        n_eff = session.n if session.n else 1
    fit = fit_bit_costs(k, t_values, totals, comm_sim.EncodingSpec(), m_eff, n_eff)

    print("t_accesses,total_bits")
    for t_accesses, total in zip(t_values, totals):
        print(f"{t_accesses},{total}")
    print(f"# word bits w = {fit['word_bits']}, players k = {k}")
    print(f"# total = c0*k*w + c1*T*w with c0 = {fit['c0']:.6f}, "
          f"c1 = {fit['c1']:.6f}, R^2 = {fit['r_squared']:.9f}")
    ok = all(fit_verdict(fit))
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
    p_fit.add_argument("--reduction", required=True,
                       choices=["generic", "sparse", "dense", "clustering",
                                "pca", "hamiltonian"])
    p_fit.add_argument("--t-sweep", default="10:1000:15", metavar="A:B:S",
                       help="access counts start:stop:step (default 10:1000:15)")
    p_fit.add_argument("--seed", type=int, default=1)
    p_fit.set_defaults(fn=_cmd_fit_bits)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
