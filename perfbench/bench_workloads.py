"""The three benchmark workloads, driven through sqcomm's public functions.

Each workload is a closed loop with one caller: the next call starts only
after the previous one returns.  A *pass* is the unit a workload repeats:
one ``run_suite`` call for the suites, one fresh session with its live access
stream and the replay of that stream for ``access_stream``.  Every pass is
checked and returns a dict with at least wall_s, attempted, failed, problem
(what failed) and digest (a hash of its outputs, equal on every pass of one
seed).

Functions are looked up on the ``sqcomm`` package at the start of each pass,
so the traced run sees the wrapped versions the tracer binds there.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import time

import numpy as np

import sqcomm

# --- suites ---------------------------------------------------------------------

SUITE_OF = {"verify_protocols": "protocols", "verify_reductions": "reductions"}

_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
import sqcomm
from sqcomm.harness import default_config
from sqcomm.verify import SUITES
configs = [default_config(e) for e in SUITES[sys.argv[1]]]
print(time.perf_counter() - t0)
"""


def suite_setup_seconds(suite: str, src_dir: str) -> float:
    """Cold `import sqcomm` plus building the suite's configs, timed inside a
    fresh interpreter (interpreter start-up itself is not counted)."""
    env = dict(os.environ, PYTHONPATH=src_dir)
    out = subprocess.run([sys.executable, "-c", _SETUP_PROBE, suite], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def report_digest(reports) -> str:
    """SHA-256 over the canonical JSON and CSV bytes of every report."""
    h = hashlib.sha256()
    for report in reports:
        h.update(sqcomm.report_json_bytes(report))
        h.update(sqcomm.report_csv_bytes(report))
    return h.hexdigest()


def suite_pass(suite: str, seed: int) -> dict:
    """One timed `run_suite` call; digest and check counts are taken after."""
    run_suite = sqcomm.run_suite
    t0 = time.perf_counter()
    reports = run_suite(suite, seed=seed)
    wall = time.perf_counter() - t0
    failed = [f"{r.experiment}.{c.name}" for r in reports for c in r.checks if not c.passed]
    return {
        "wall_s": wall,
        "attempted": sum(len(r.checks) for r in reports),
        "failed": len(failed),
        "problem": "failed checks: " + ", ".join(failed),
        "digest": report_digest(reports),
    }


# --- access stream -------------------------------------------------------------------

KINDS = ["b_sample", "b_query", "row_norm_sample", "row_sample", "entry_query",
         "row_norm_query", "frobenius_query"]


def closed_form_bits(encoding, k: int, m: int, n: int) -> dict:
    """Bit cost of each stacked access on a layout whose blocks are all
    player-owned, from the encoding widths alone (not from the meter)."""
    op, sc = encoding.opcode_bits, encoding.scalar_bits
    im, in_ = encoding.index_bits(m), encoding.index_bits(n)
    return {
        "setup": k * (op + sc + im),
        "b_sample": op + im,
        "b_query": op + im + sc,
        "row_norm_sample": op + im,
        "row_sample": op + im + in_,
        "entry_query": op + im + in_ + sc,
        "row_norm_query": op + im + sc,
        "frobenius_query": 0,
    }


class AccessStream:
    """One large session with every row block player-owned, and a long stream
    that rotates through the seven stacked accesses.

    A and b are cut into `blocks` equal row blocks; block t goes to player
    owners[t] with owners = reversed(round-robin), so with blocks = 2k each
    player holds two blocks k apart.  Data and access indices come from the
    seed and are drawn once, before any timing.
    """

    def __init__(self, seed: int, k: int = 64, m: int = 4096, n: int = 64,
                 blocks: int = 128, cycles: int = 2048):
        if m % blocks:
            raise ValueError("m must be a multiple of the block count")
        self.seed, self.k, self.m, self.n = seed, k, m, n
        data_rng = np.random.default_rng([seed, 0])
        self.A = data_rng.standard_normal((m, n)) + 0.1
        self.b = data_rng.standard_normal(m) + 0.1
        rows = m // blocks
        owners = [t % k for t in range(blocks)][::-1]
        self.a_blocks = [(owners[t], self.A[t * rows:(t + 1) * rows]) for t in range(blocks)]
        self.b_blocks = [(owners[t], self.b[t * rows:(t + 1) * rows]) for t in range(blocks)]

        idx_rng = np.random.default_rng([seed, 1])
        i = idx_rng.integers(m, size=(cycles, 4)).tolist()
        j = idx_rng.integers(n, size=cycles).tolist()
        jb = idx_rng.integers(m, size=cycles).tolist()
        self.requests = []
        for c in range(cycles):
            self.requests += [
                (0, None),
                (1, jb[c]),
                (2, "row_norm_sample"),
                (2, ("row_sample", i[c][0])),
                (2, ("entry_query", i[c][1], j[c])),
                (2, ("row_norm_query", i[c][2])),
                (2, "frobenius_query"),
            ]
        self.kinds = [KINDS[t % len(KINDS)] for t in range(len(self.requests))]
        self.expected = closed_form_bits(sqcomm.EncodingSpec(), k, m, n)

    def _sampling_rng(self):
        return np.random.default_rng([self.seed, 2])

    @staticmethod
    def _stream(session, requests, rng, latencies=None):
        """Issue every request in order; an exception is kept as the result."""
        b_sample, b_query, a_access = sqcomm.coord_b_sample, sqcomm.coord_b_query, sqcomm.coord_a_access
        calls = (lambda s, _, g: b_sample(s, g),
                 lambda s, j, _: b_query(s, j),
                 a_access)
        results = [None] * len(requests)
        clock = time.perf_counter
        for t, (which, arg) in enumerate(requests):
            t0 = clock()
            try:
                results[t] = calls[which](session, arg, rng)
            except Exception as err:  # counted as a failed access
                results[t] = err
            if latencies is not None:
                latencies.append(clock() - t0)
        return results

    def run_pass(self) -> dict:
        """Set up a fresh session, run the live stream, replay it, check both."""
        t0 = time.perf_counter()
        session = sqcomm.open_session_blocks(self.k, self.a_blocks, self.b_blocks)
        setup_bits = (sqcomm.coord_b_setup(session), sqcomm.coord_a_setup(session))
        t1 = time.perf_counter()
        latencies: list = []
        live = self._stream(session, self.requests, self._sampling_rng(), latencies)
        t2 = time.perf_counter()

        clone = sqcomm.make_replay_session(session)
        replay_setup_bits = (sqcomm.coord_b_setup(clone), sqcomm.coord_a_setup(clone))
        t3 = time.perf_counter()
        replayed = self._stream(clone, self.requests, self._sampling_rng())
        t4 = time.perf_counter()

        failed = self._check(live, replayed)
        digest = hashlib.sha256(repr(live).encode()).hexdigest()
        access_bits = sum(r[1] for r in live if isinstance(r, tuple))
        report = sqcomm.meter_report(session)
        setup_ok = all(b == self.expected["setup"] for b in setup_bits + replay_setup_bits)
        meter_ok = (report.bits_by_phase.get("access") == access_bits
                    and report.bits_by_phase.get("setup") == 2 * self.expected["setup"]
                    and sqcomm.meter_report(clone).total_bits == report.total_bits)
        return {
            "wall_s": (t2 - t1) + (t4 - t3),
            "attempted": len(self.requests),
            "failed": failed + (0 if setup_ok and meter_ok else 1),
            "problem": (f"{failed} accesses failed their checks; setup bits ok: "
                        f"{setup_ok}; meter totals ok: {meter_ok}"),
            "digest": digest,
            "setup_s": t1 - t0,
            "live_s": t2 - t1,
            "replay_s": t4 - t3,
            "p50_us": float(np.percentile(latencies, 50)) * 1e6,
            "p99_us": float(np.percentile(latencies, 99)) * 1e6,
            "access_bits": access_bits,
        }

    def _check(self, live, replayed) -> int:
        """Count accesses whose live result is wrong, costs the wrong number of
        bits, or differs from its replay."""
        failed = 0
        A, b, m, n = self.A, self.b, self.m, self.n
        fro = float(np.linalg.norm(A))
        for t, (res, rep) in enumerate(zip(live, replayed)):
            kind = self.kinds[t]
            if not isinstance(res, tuple) or res != rep or res[1] != self.expected[kind]:
                failed += 1
                continue
            value, arg = res[0], self.requests[t][1]
            if kind in ("b_sample", "row_norm_sample"):
                ok = isinstance(value, int) and 0 <= value < m
            elif kind == "row_sample":
                ok = isinstance(value, int) and 0 <= value < n
            elif kind == "b_query":
                ok = value == b[arg]
            elif kind == "entry_query":
                ok = value == A[arg[1], arg[2]]
            elif kind == "row_norm_query":
                ok = math.isclose(value, float(np.linalg.norm(A[arg[1]])), rel_tol=1e-12)
            else:
                ok = math.isclose(value, fro, rel_tol=1e-9)
            failed += not ok
        return failed
