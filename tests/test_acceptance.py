"""Acceptance suite: one test per shipped guarantee, run at full strength
from the bundled configs.

Each test prints a single "criterion N (...): PASS/FAIL" line (visible with
-s or -rA; the per-test verdicts in -v output mirror them one to one).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import sqcomm
from sqcomm import load_config, report_csv_bytes, report_json_bytes, run

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# sha256(report JSON bytes + report CSV bytes) of each bundled config, so a
# change to any reported number fails here.  05_dense_regression and
# 08_hamiltonian are left out: their report bytes change with the BLAS thread
# count (one thread and the default give different digests for those two only).
GOLDEN_DIGESTS = {
    "01_protocol_exactness.json": "cca78ba1e03a69255d49d99128a8f6345aad221224cebfc1c868548be822ce9e",
    "02_bit_fit.json": "280b3155d25efb47b8797a62315f6b8d7d0f2a1489b5829aa43d4fd3bf11197c",
    "03_oversampling.json": "5af0d599c039471d081e614358b5062662c9bd7fe5ff41c3ae2e66f7ce28bd6b",
    "04_sparse_regression.json": "6d301b8eb1b28aba6185cce3c3949e080e32b802c5bf58f8669463d4ffe241cc",
    "06_clustering.json": "07b7c56e0caad5acce89e2681556973dcc0bd82c829c9b16a4b736687453857c",
    "07_pca_recsys.json": "51cdad89d99be39a416f7792cc910585cabc75bed7898587440a1bf961f27497",
    "09_oracle.json": "9d0fc5352f6b84d63af533baea2261770f6c3df01c1e5cc377476bd32d0ca41d",
}

# the same digests for those two, computed with every BLAS library pinned to
# one thread
ONE_THREAD_DIGESTS = {
    "05_dense_regression.json": "2c4e97a7f5ef998b13f1fc1b7f5516f1d2507bb63a355831fc6141148df88aa9",
    "08_hamiltonian.json": "a3870d47098f7c96e6e38a78a6292ff42eed61bd8bdaa0b9125a0094f4e6de3c",
}
_ONE_THREAD_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS")}


def _check_digest(config_name, report):
    want = GOLDEN_DIGESTS.get(config_name)
    if want is None:
        return
    got = hashlib.sha256(report_json_bytes(report) + report_csv_bytes(report)).hexdigest()
    assert got == want, f"{config_name}: report bytes differ from the golden digest"


def _run_criterion(num, label, config_name, runtime_cap=None):
    report = run(load_config(CONFIG_DIR / config_name))
    ok = report.all_passed
    if runtime_cap is not None:
        ok = ok and report.wall_clock_s < runtime_cap
    bad = "; ".join(f"{c.name}: {c.detail}" for c in report.checks if not c.passed)
    print(
        f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} — "
        f"{len(report.checks)} checks, {report.trials} trials, "
        f"{report.wall_clock_s:.2f}s" + (f" [{bad}]" if bad else "")
    )
    assert report.all_passed, bad
    if runtime_cap is not None:
        assert report.wall_clock_s < runtime_cap, (
            f"{report.wall_clock_s:.2f}s over the {runtime_cap}s budget"
        )
    _check_digest(config_name, report)
    return report


def test_criterion_1_protocol_exactness():
    # every stacked-access law vs the centralized one, 50 random partitions
    _run_criterion(1, "protocol exactness", "01_protocol_exactness.json",
                   runtime_cap=10.0)


def test_criterion_2_bit_cost_law():
    report = _run_criterion(2, "bit-cost linearity", "02_bit_fit.json",
                            runtime_cap=30.0)
    assert report.fit is not None
    assert 0.0 <= report.fit["c0"] <= 4.0
    assert 0.0 <= report.fit["c1"] <= 4.0
    assert report.fit["r_squared"] > 0.999


def test_criterion_3_oversampling():
    _run_criterion(3, "oversampled access", "03_oversampling.json",
                   runtime_cap=30.0)


def test_criterion_4_sparse_regression():
    report = _run_criterion(4, "sparse regression decision",
                            "04_sparse_regression.json", runtime_cap=60.0)
    assert report.accuracy is not None and report.accuracy >= 0.99


def test_criterion_5_dense_regression():
    _run_criterion(5, "dense regression law", "05_dense_regression.json")


def test_criterion_6_clustering():
    report = _run_criterion(6, "clustering separation", "06_clustering.json")
    assert report.accuracy == 1.0


def test_criterion_7_pca_recsys():
    _run_criterion(7, "spectral decisions", "07_pca_recsys.json")


def test_criterion_8_hamiltonian():
    _run_criterion(8, "evolution identity", "08_hamiltonian.json")


def test_criterion_9_determinism():
    outcomes = []
    for name in ("09_oracle.json", "06_clustering.json"):
        config = load_config(CONFIG_DIR / name)
        first, second = run(config), run(config)
        _check_digest(name, first)
        same = (report_json_bytes(first) == report_json_bytes(second)
                and report_csv_bytes(first) == report_csv_bytes(second))
        outcomes.append(same)
    ok = all(outcomes)
    print(f"criterion 9 (byte-identical reruns): {'PASS' if ok else 'FAIL'} — "
          f"2 configs, JSON and CSV compared")
    assert ok


def test_one_thread_digests_of_dense_and_hamiltonian():
    # the thread count is fixed when BLAS loads, so the pinned runs go to one
    # child process whose environment alone carries the pins
    script = (
        "import hashlib, sys\n"
        "from sqcomm import load_config, report_csv_bytes, report_json_bytes, run\n"
        "for path in sys.argv[1:]:\n"
        "    report = run(load_config(path))\n"
        "    data = report_json_bytes(report) + report_csv_bytes(report)\n"
        "    print(hashlib.sha256(data).hexdigest())\n"
    )
    env = dict(os.environ, **_ONE_THREAD_ENV,
               PYTHONPATH=str(Path(sqcomm.__file__).resolve().parent.parent))
    paths = [str(CONFIG_DIR / name) for name in ONE_THREAD_DIGESTS]
    out = subprocess.run([sys.executable, "-c", script, *paths], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert dict(zip(ONE_THREAD_DIGESTS, out.split())) == ONE_THREAD_DIGESTS
