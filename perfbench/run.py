"""sqcomm benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads: verify_protocols, verify_reductions, access_stream
(see perfbench/README.md for why each exists and what it should move).

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 runs
alternating untraced and traced passes and reports the per-layer metrics
from the traced ones, plus traced / untraced wall time.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The exit code
is 0 only when every output check passed.  Run metadata and the spans of a
traced run are written under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# BLAS/OpenMP pools are fixed before numpy is first imported, here and in the
# fresh interpreters of the set-up probe, which inherit the environment.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

WORKLOADS = ("verify_protocols", "verify_reductions", "access_stream")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SUITE_SETUP_REPEATS = 3


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


def _metadata(workload: str, seed: int, trace: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_vendor = "unknown"
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": blas_vendor, "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Run:
    """Accumulates the checks and failures of one workload run."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.display: list = []       # (name, value, unit, samples) lines
        self.walls: list = []         # wall time of every untraced pass
        self._digest = None

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)

    def record(self, result: dict) -> dict:
        """Count one pass's checks; its outputs must equal the first pass's."""
        self.attempted += result["attempted"]
        if result["failed"]:
            self.fail(result["failed"], result["problem"])
        if self._digest is None:
            self._digest = result["digest"]
        elif result["digest"] != self._digest:
            self.fail(1, "outputs differ between passes of one seed")
        return result

    def show(self, name, value, unit, samples) -> None:
        self.display.append((name, value, unit, samples))


def _passes(seconds: float, minimum: int):
    """Yield pass numbers until `seconds` have elapsed, at least `minimum`."""
    t0 = time.perf_counter()
    count = 0
    while count < minimum or time.perf_counter() - t0 < seconds:
        yield count
        count += 1


def suite_end_to_end(run: Run) -> dict:
    import bench_workloads as bw

    suite = bw.SUITE_OF[run.workload]
    setups = []
    for count in _passes(run.seconds, minimum=2):
        # set-up probes are spread over the run, between timed passes
        if count < SUITE_SETUP_REPEATS:
            setups.append(bw.suite_setup_seconds(suite, str(SRC)))
        run.walls.append(run.record(bw.suite_pass(suite, run.seed))["wall_s"])
    run.show("fail_ratio", run.failed / run.attempted, "1", run.attempted)
    return {"wall_s": (statistics.median(run.walls), len(run.walls)),
            "setup_s": (statistics.median(setups), len(setups))}


def stream_end_to_end(run: Run) -> dict:
    import bench_workloads as bw

    stream = bw.AccessStream(run.seed)
    setups, lives, replays, p50s, p99s = [], [], [], [], []
    bits = 0
    for _ in _passes(run.seconds, minimum=3):
        result = run.record(stream.run_pass())
        run.walls.append(result["wall_s"])
        setups.append(result["setup_s"])
        lives.append(result["attempted"] / result["live_s"])
        replays.append(result["attempted"] / result["replay_s"])
        p50s.append(result["p50_us"])
        p99s.append(result["p99_us"])
        bits += result["access_bits"]
    # latency percentiles are taken per pass (14,336 accesses, so 143 beyond
    # p99) and reported as their median over passes
    run.show("ops_per_s", statistics.median(lives), "1/s", len(lives))
    run.show("access_p50_us", statistics.median(p50s), "us", run.attempted)
    run.show("access_p99_us", statistics.median(p99s), "us", run.attempted)
    run.show("replay_ops_per_s", statistics.median(replays), "1/s", len(replays))
    run.show("bits_per_access", bits / run.attempted, "bits", run.attempted)
    run.show("fail_ratio", run.failed / run.attempted, "1", run.attempted)
    return {"wall_s": (statistics.median(run.walls), len(run.walls)),
            "setup_s": (statistics.median(setups), len(setups))}


def traced_passes(run: Run, tracer, one_pass) -> dict:
    """Alternate untraced and traced passes; the traced ones feed the tracer."""
    plain, traced = [], []
    for _ in _passes(run.seconds, minimum=1):
        plain.append(run.record(one_pass())["wall_s"])
        with tracer, tracer.span(f"bench.pass.{run.workload}"):
            result = one_pass()
        traced.append(run.record(result)["wall_s"])
        tracer.drain_sessions()
    return {"passes": len(traced), "overhead": statistics.median(traced) / statistics.median(plain)}


# --- main ------------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sqcomm benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "sqcomm" / "__init__.py").is_file():
        print(f"error: no sqcomm package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sqcomm

    if Path(sqcomm.__file__).resolve().parent != (SRC / "sqcomm").resolve():
        print(f"error: imported sqcomm from {sqcomm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds)
    meta = _metadata(args.workload, args.seed, args.trace)
    stream = args.workload == "access_stream"
    if args.trace:
        import bench_trace

        import bench_workloads as bw

        tracer = bench_trace.Tracer()
        if stream:
            one_pass = bw.AccessStream(args.seed).run_pass
        else:
            def one_pass():
                return bw.suite_pass(bw.SUITE_OF[args.workload], args.seed)
        outcome = traced_passes(run, tracer, one_pass)
        stats = tracer.layer_stats()
        values = bench_trace.per_layer_metrics(tracer, stats, outcome["passes"])
        values["trace.overhead_ratio"] = outcome["overhead"]
        try:
            bench_trace.check_coverage(args.workload, stats)
        except bench_trace.CoverageError as err:
            run.fail(1, str(err))
        units = bench_trace.per_layer_units()
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        for name in units:
            run.show(name, values[name], units[name], outcome["passes"])
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        measured = (stream_end_to_end if stream else suite_end_to_end)(run)
        measured["peak_rss_mb"] = (_peak_rss_mb(), 1)
        metrics = {name: {"value": measured[name][0], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        for name, unit in END_TO_END_UNITS.items():
            run.show(name, measured[name][0], unit, measured[name][1])

    correct = run.failed == 0
    meta.update(correct=correct, attempted=run.attempted, failed=run.failed,
                problems=run.problems, metrics=metrics, pass_walls=run.walls)
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n")

    for key in ("nproc", "python", "numpy", "scipy", "blas", "blas_threads",
                "git_commit", "seed"):
        print(f"# {key}: {meta[key]}")
    for problem in run.problems:
        print(f"# FAILED: {problem}")
    for name, value, unit, samples in run.display:
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={samples})")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
