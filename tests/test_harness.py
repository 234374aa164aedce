"""Statistics helpers, config parsing, checks, report determinism, and the CLI."""

import ast
import dataclasses
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqcomm import (
    ConfigError,
    DimensionMismatch,
    EncodingSpec,
    TooFewSamples,
    chi_square,
    default_config,
    load_config,
    parse_config,
    report_csv_bytes,
    report_json_bytes,
    run,
    run_suite,
    tv_distance,
)
from sqcomm import comm_sim, harness, open_session_blocks, params, reductions
from sqcomm.cli import main as cli_main
from sqcomm.harness import EXPERIMENTS, fit_bit_costs

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_tv_distance_frozen():
    assert tv_distance([0.5, 0.5], [0.6, 0.4]) == pytest.approx(0.1, abs=1e-15)
    assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
    with pytest.raises(DimensionMismatch):
        tv_distance([0.5, 0.5], [1.0])
    with pytest.raises(ValueError):
        tv_distance([0.5, 0.6], [0.5, 0.5])
    # a nan slips past the sum check, since abs(nan - 1) > 1e-9 is false
    for p, q in (([np.nan, 1.0], [0.5, 0.5]), ([0.5, 0.5], [np.inf, 0.0])):
        with pytest.raises(ValueError, match="non-finite"):
            tv_distance(p, q)
    # a negative entry can sum to 1 and would read a distance above 1
    for p, q in (([2.0, -1.0], [0.5, 0.5]), ([0.5, 0.5], [-0.5, 1.5])):
        with pytest.raises(ValueError, match="negative"):
            tv_distance(p, q)


def test_chi_square_accepts_true_law():
    law = np.array([0.2, 0.3, 0.5])
    counts = np.random.default_rng(0).multinomial(10000, law)
    res = chi_square(counts, law)
    assert res.passed and res.df == 2
    assert res.statistic <= res.critical


def test_chi_square_rejects_shifted_law():
    counts = np.random.default_rng(1).multinomial(10000, [0.5, 0.5])
    res = chi_square(counts, np.array([0.3, 0.7]))
    assert not res.passed
    assert res.statistic > res.critical


def test_chi_square_pools_small_buckets():
    # pool below 5 merges into the smallest regular bucket: df drops to 1
    law = np.array([0.49, 0.49, 0.01, 0.01])
    counts = np.array([98.0, 98.0, 2.0, 2.0])
    assert chi_square(counts, law).df == 1
    # a pool of its own once its expected mass clears 5
    law = np.array([0.49, 0.49] + [0.004] * 5)
    counts = np.array([490.0, 490.0] + [4.0] * 5)
    assert chi_square(counts, law).df == 2


def test_chi_square_sample_floor():
    with pytest.raises(TooFewSamples):
        chi_square([1.0, 1.0, 1.0], [1 / 3, 1 / 3, 1 / 3])
    with pytest.raises(TooFewSamples):
        chi_square([0.0, 0.0], [0.5, 0.5])


def test_chi_square_edge_cases():
    trivial = chi_square([100.0], [1.0])
    assert trivial.passed and trivial.df == 0 and trivial.statistic == 0.0
    with pytest.raises(DimensionMismatch):
        chi_square([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="df"):
        chi_square(np.full(5000, 10.0), np.full(5000, 1.0 / 5000.0))
    # probs must be a law: a negative bucket used to drop out of the pool
    # and pass with df 0; counts cannot be negative either
    for counts, probs, match in (([50, 50], [1.5, -0.5], "negative"),
                                 ([50, 50], [0.5, 0.6], "sums to"),
                                 ([50, 50], [np.nan, 0.5], "non-finite"),
                                 ([60, -10], [0.5, 0.5], "negative")):
        with pytest.raises(ValueError, match=match):
            chi_square(counts, probs)
    # at 0 the critical value is inf and at 1.5 it is nan: neither is a test
    for significance in (0.0, 1.0, 1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="significance"):
            chi_square([90, 10], [0.5, 0.5], significance=significance)


def test_statistics_refuse_input_they_cannot_serve():
    # strings and bools used to be parsed as numbers: the first read PASS,
    # the second a distance of 0.5
    for call, what in ((lambda: chi_square(["10", "10", "10"], [0.3, 0.3, 0.4]), "counts"),
                       (lambda: chi_square([10, 10, 10], ["0.3", "0.3", "0.4"]), "probs"),
                       (lambda: chi_square([10 + 0j, 10, 10], [0.3, 0.3, 0.4]), "counts"),
                       (lambda: tv_distance(["0.5", "0.5"], [0.5, 0.5]), "p"),
                       (lambda: tv_distance([0.5, 0.5], [True, False]), "q")):
        with pytest.raises(ValueError, match=f"^{what} must be integer or real numbers"):
            call()
    # an infinite count read statistic=nan, a nan one "no buckets retained"
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="^counts has a non-finite entry$") as info:
            chi_square([50.0, bad], [0.5, 0.5])
        assert type(info.value) is ValueError


def test_import_loads_no_scipy():
    # a fresh process: scipy is loaded only by chi_square's first call
    script = ("import sys, sqcomm, sqcomm.cli\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["[]"]


def test_chi_square_critical_is_scipy_isf():
    import scipy.stats

    for df in (1, 2, 3, 7, 30, 255, 1000, 4096):
        counts = np.full(df + 1, 10.0)
        probs = np.full(df + 1, 1.0 / (df + 1))
        for significance in (1e-9, 0.001, 0.05, 0.5, 0.999):
            res = chi_square(counts, probs, significance=significance)
            assert res.df == df
            assert res.critical == float(scipy.stats.chi2.isf(significance, df))


@pytest.mark.parametrize("experiment,name,check", [
    ("protocol_exactness", "protocol_distribution", "stacked_laws_match_centralized"),
    ("oversampling", "exact_distribution", "rejection_law_exact"),
])
def test_nan_residual_reads_fail(monkeypatch, experiment, name, check):
    # Python's max(0.0, nan) is 0.0, so a residual taken that way drops a nan
    real = getattr(harness, name)
    monkeypatch.setattr(harness, name, lambda *args: real(*args) * np.nan)
    report = run(parse_config({"experiment": experiment, "seed": 1, "trials": 3}))
    assert {c.name: c.passed for c in report.checks}[check] is False


def test_mean_rounds_check_fails_with_no_combination_under_the_cap():
    # seed 0 draws one combination with phi above 8: no rounds are drawn, so
    # the round-count check has nothing to compare and must not read PASS
    report = run(parse_config({"experiment": "oversampling", "seed": 0, "trials": 1,
                               "params": {"max_players": 32, "max_len": 64,
                                          "rounds_draws": 1}}))
    checks = {c.name: c for c in report.checks}
    assert "over 0 combinations" in checks["mean_rounds_tracks_phi"].detail
    assert checks["mean_rounds_tracks_phi"].passed is False


def test_hamiltonian_planted_faults_read_fail(monkeypatch):
    config = parse_config({"experiment": "hamiltonian", "seed": 1, "trials": 3,
                           "params": {"exhaustive_max_n": 4, "random_ns": [2]}})
    check = "evolution_equals_signed_hadamard"

    def outcome():
        return {c.name: c for c in run(config).checks}[check]

    # the clean run, recording which n = 4 vectors are evolved one by one
    sampled = []
    batch = reductions.hamiltonian_identity_errors_batch

    def recording(n, fs):
        if n == 4:
            sampled.extend(map(tuple, fs))
        return batch(n, fs)

    with monkeypatch.context() as patch:
        patch.setattr(reductions, "hamiltonian_identity_errors_batch", recording)
        clean = outcome()
    assert clean.passed and "over 65815 sign vectors" in clean.detail
    assert len(set(sampled)) == harness._IDENTITY_SAMPLE

    # fault 1: one sign vector the sample skips is signed with one entry
    # flipped; its generator is still a true conjugate, so only the
    # conjugation check can see it
    victim = next(f for f in reductions.all_sign_vectors(4) if tuple(f) not in set(sampled))
    sign = reductions._sign_conjugate

    def misassigned(fs, X):
        if fs.shape[1] == victim.size:
            fs = fs.copy()
            fs[(fs == victim).all(axis=1), 7] *= -1
        return sign(fs, X)

    with monkeypatch.context() as patch:
        patch.setattr(reductions, "_sign_conjugate", misassigned)
        faulty = outcome()
    assert not faulty.passed
    assert "; 1 generators or targets not the exact sign conjugates" in faulty.detail

    # fault 2: the shared residual (the one unstacked evolution) runs for the
    # wrong time; the per-instance stacks are untouched
    evolve = reductions.expm_hermitian

    def mistimed(H, t):
        return evolve(H, t + (0.01 if np.ndim(H) == 2 else 0.0))

    with monkeypatch.context() as patch:
        patch.setattr(reductions, "expm_hermitian", mistimed)
        faulty = outcome()
    assert not faulty.passed
    assert float(faulty.detail.split()[3]) > 1e-3


@pytest.mark.parametrize("rule", ["<=", ">=", ">"])
def test_check_nan_meets_no_bound(rule):
    assert not harness._check("c", "{v0}", (math.nan, rule, 0.0)).passed
    assert not harness._check("c", "{v0}", (0.0, rule, math.nan)).passed


def test_check_rules_at_the_bound_and_every_term():
    check = harness._check
    assert check("c", "", (1.0, 1.0)).passed
    assert check("c", "", (1.0, "<=", 1.0)).passed
    assert check("c", "", (1.0, ">=", 1.0)).passed
    assert not check("c", "", (1.0, ">", 1.0)).passed
    assert check("c", "", (2, ">", 1), (0, 0)).passed
    assert not check("c", "", (2, ">", 1), (1, 0)).passed     # every term must be met


def test_check_renders_terms_in_fmt_form_and_fields_verbatim():
    check = harness._check("name", "{v0} (tol {b0}); {v1} > {b1}; {count} of {ratio:.4f}{{x}}",
                           (1234567.0, 1e-9), (10**6, ">", 3), count=10**6, ratio=0.5)
    assert check == harness.CheckResult(
        name="name", passed=False,
        detail="1.23457e+06 (tol 1e-09); 1e+06 > 3; 1000000 of 0.5000{x}")


def _fit(**changes):
    return dict({"c0": 1.0, "c1": 0.5, "r_squared": 0.9999, "word_bits": 40}, **changes)


def test_fit_checks_pass_and_render():
    linear, bounded = harness.fit_checks(_fit(), 10, 1000)
    assert linear.passed and linear.detail == "R^2 = 0.999900000 over T in [10, 1000]"
    assert bounded.passed and bounded.detail == "c0 = 1, c1 = 0.5 (cap 4.0)"


@pytest.mark.parametrize("changes, failing", [
    ({"r_squared": harness._R2_FLOOR}, "bit_total_linear_in_accesses"),    # must exceed it
    ({"r_squared": math.nan}, "bit_total_linear_in_accesses"),
    ({"c0": -1e-12}, "fit_coefficients_bounded"),
    ({"c1": harness._COEF_CAP * (1 + 1e-12)}, "fit_coefficients_bounded"),
    ({"c0": math.nan}, "fit_coefficients_bounded"),
    ({"c1": math.nan}, "fit_coefficients_bounded"),
])
def test_fit_checks_fail(changes, failing):
    verdicts = {c.name: c.passed for c in harness.fit_checks(_fit(**changes), 10, 1000)}
    assert [name for name, ok in verdicts.items() if not ok] == [failing]


def test_checks_are_built_only_by_the_one_constructor():
    # every CheckResult comes out of _check, and no runner formats a number of
    # its own, so each printed value and bound is one the verdict compared
    tree = ast.parse(Path(harness.__file__).read_text())
    functions = {f.name: f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}

    def calls(node, name):
        return sum(isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
                   and c.func.id == name for c in ast.walk(node))

    assert calls(tree, "CheckResult") == calls(functions["_check"], "CheckResult") == 1
    runners = {entry.runner.__name__ for entry in EXPERIMENTS.values()}
    assert runners <= set(functions) and all(name.startswith("run_") for name in runners)
    assert [name for name in functions if name.startswith("run_")
            and calls(functions[name], "_fmt")] == []


def test_failing_recsys_check_names_what_failed(monkeypatch):
    # a rank outside {0, 1} must not read "matched truth on all trials" alone
    real = reductions.build_recsys
    monkeypatch.setattr(reductions, "build_recsys",
                        lambda *args: dataclasses.replace(real(*args), rank=2))
    report = run(parse_config({"experiment": "pca_recsys", "seed": 1, "trials": 4}))
    check = {c.name: c for c in report.checks}["truncation_rank_and_recovery"]
    assert not check.passed
    assert "0/0 coordinates recovered; 4 rank mismatches" in check.detail


def test_failing_truncation_check_names_what_failed(monkeypatch):
    real = harness.top_singular
    monkeypatch.setattr(harness, "top_singular",
                        lambda A: dataclasses.replace(real(A), degenerate=False))
    check = {c.name: c for c in run(default_config("oracle_properties")).checks}[
        "truncation_ties_and_degeneracy"]
    assert not check.passed and check.detail.endswith("; failed: degeneracy")


def test_chi_square_calibration():
    # at significance 1e-3, a seeded sweep of true-law draws almost never trips
    law = np.array([0.2, 0.3, 0.5])
    passes = 0
    for seed in range(200):
        counts = np.random.default_rng(seed).multinomial(10000, law)
        passes += chi_square(counts, law).passed
    assert passes >= 199


def test_parse_config_field_errors():
    base = {"experiment": "oracle_properties", "seed": 1}
    with pytest.raises(ConfigError, match="^experiment: required"):
        parse_config({"seed": 1})
    with pytest.raises(ConfigError, match="^experiment: unknown"):
        parse_config({"experiment": "nope", "seed": 1})
    with pytest.raises(ConfigError, match="^seed: required"):
        parse_config({"experiment": "oracle_properties"})
    with pytest.raises(ConfigError, match="^seed: must be an integer"):
        parse_config(dict(base, seed="abc"))
    with pytest.raises(ConfigError, match="^trials: must be a positive"):
        parse_config(dict(base, trials=0))
    with pytest.raises(ConfigError, match="exceeds cap"):
        parse_config(dict(base, trials=1000001))
    with pytest.raises(ConfigError, match="^params.k: 65 exceeds cap 64"):
        parse_config(dict(base, experiment="bit_fit", params={"k": 65}))
    with pytest.raises(ConfigError, match="^params.m: must be a positive"):
        parse_config(dict(base, experiment="bit_fit", params={"m": -3}))
    with pytest.raises(ConfigError, match="^extra: unknown field"):
        parse_config(dict(base, extra=2))
    with pytest.raises(ConfigError, match="^config: must be"):
        parse_config([1, 2])
    # bool is an int subclass; it is not a valid seed, count or size
    with pytest.raises(ConfigError, match="^seed: must be an integer"):
        parse_config(dict(base, seed=True))
    with pytest.raises(ConfigError, match="^trials: must be a positive"):
        parse_config(dict(base, trials=True))
    with pytest.raises(ConfigError, match="^params.k: must be a positive"):
        parse_config(dict(base, experiment="bit_fit", params={"k": True}))
    # a misspelled or retired param name is rejected, not ignored
    over = {"experiment": "oversampling", "seed": 1}
    with pytest.raises(ConfigError, match="^params.max_player: unknown field"):
        parse_config(dict(over, params={"max_player": 3}))
    with pytest.raises(ConfigError, match="^params.tolerance: unknown field"):
        parse_config(dict(over, params={"tolerance": 1.0}))
    # sizes beyond k/m/n/d are checked at parse time, not inside the runner
    exact = {"experiment": "protocol_exactness", "seed": 1}
    with pytest.raises(ConfigError, match="^params.max_rows: 1000000000 exceeds cap 4096"):
        parse_config(dict(exact, params={"max_rows": 10**9}))
    with pytest.raises(ConfigError, match="^params.max_rows: must be an integer >= 2"):
        parse_config(dict(exact, params={"max_rows": 1}))
    with pytest.raises(ConfigError, match="^params.max_len: must be an integer >= 4"):
        parse_config(dict(over, params={"max_len": 3}))
    for name, cap in (("dense_regression", 10), ("hamiltonian", 8)):
        cfg = {"experiment": name, "seed": 1}
        with pytest.raises(ConfigError, match=f"^params.random_ns: 14 exceeds cap {cap}"):
            parse_config(dict(cfg, params={"random_ns": [14]}))
        with pytest.raises(ConfigError, match="^params.random_ns: must be a positive"):
            parse_config(dict(cfg, params={"random_ns": [3, 0]}))
        with pytest.raises(ConfigError, match="^params.random_ns: must be a list"):
            parse_config(dict(cfg, params={"random_ns": 6}))
        assert parse_config(dict(cfg, params={"random_ns": [cap]})).params["random_ns"] == [cap]
    fit = {"experiment": "bit_fit", "seed": 1}
    with pytest.raises(ConfigError, match="^params.t_sweep: .* is not a range"):
        parse_config(dict(fit, params={"t_sweep": [5, 1, 0]}))
    with pytest.raises(ConfigError, match="^params.t_sweep: .* is not a range"):
        parse_config(dict(fit, params={"t_sweep": [0, 10, 1]}))
    with pytest.raises(ConfigError, match="^params.t_sweep: must be"):
        parse_config(dict(fit, params={"t_sweep": [5, 10]}))


# configs that parsed before every param was bounded, then crashed, hung or
# reported failed checks inside the runner
@pytest.mark.parametrize("experiment, name, value", [
    ("oversampling", "rounds_draws", 0),
    ("oversampling", "rounds_draws", -1),
    ("clustering", "ds", [0]),
    ("clustering", "ks", [2]),
    ("clustering", "ks", 3),
    ("clustering", "ks", []),
    ("dense_regression", "exhaustive_max_n", 4),
    ("dense_regression", "params_max_n", 11),
    ("hamiltonian", "exhaustive_max_n", 5),
    ("pca_recsys", "level", 2.0),
    ("pca_recsys", "level", "x"),
    ("pca_recsys", "n", 4),
    ("sparse_regression", "k", 1),
    ("sparse_regression", "n", 4),
    ("sparse_regression", "num_samples", 0),
    ("bit_fit", "t_sweep", [1, 10**9, 1]),
    # a dict sets several params; each is within bounds, together they are not
    ("bit_fit", "k", {"k": 64, "m": 1}),
])
def test_parse_config_rejects_out_of_bounds_params(experiment, name, value):
    params = value if isinstance(value, dict) else {name: value}
    with pytest.raises(ConfigError, match=f"^params.{name}: "):
        parse_config({"experiment": experiment, "seed": 1, "params": params})


def test_parse_config_rejects_negative_seed():
    # numpy's SeedSequence would raise a bare ValueError inside the runner
    with pytest.raises(ConfigError, match="^seed: must be an integer >= 0"):
        parse_config({"experiment": "oracle_properties", "seed": -1})
    assert parse_config({"experiment": "oracle_properties", "seed": 0}).seed == 0
    # a suite's seed override is checked the same way
    with pytest.raises(ConfigError, match="^seed: must be an integer >= 0"):
        run_suite("oracle", seed=-1)


def test_parse_config_stores_numpy_integers_as_ints():
    # numpy integers follow the one integer rule of every boundary: accepted,
    # and kept as Python ints, so a config equals its JSON round trip
    cfg = parse_config({"experiment": "bit_fit", "seed": np.int64(5), "trials": np.int32(1),
                        "params": {"k": np.int64(3), "t_sweep": [np.int64(5), 15, 5]}})
    assert (cfg.seed, cfg.trials, cfg.params["k"], cfg.params["t_sweep"]) == (5, 1, 3, [5, 15, 5])
    assert all(type(v) is int for v in (cfg.seed, cfg.trials, cfg.params["k"],
                                        *cfg.params["t_sweep"]))
    assert parse_config(json.loads(json.dumps(cfg.to_dict()))) == cfg
    clustering = parse_config({"experiment": "clustering", "seed": 1,
                               "params": {"ks": [np.int64(3), 5]}})
    assert [type(k) for k in clustering.params["ks"]] == [int, int]


def test_config_has_no_encoding_section():
    # bit widths belong to the session's EncodingSpec; a config holds only
    # experiment, seed, trials and params, so an encoding key is refused, the
    # default widths too
    assert [f.name for f in dataclasses.fields(harness.ExperimentConfig)] == [
        "experiment", "seed", "trials", "params"]
    for encoding in ({"scalar_bits": 32, "opcode_bits": 8}, {"scalar_bits": 64}, {}):
        with pytest.raises(ConfigError, match="^encoding: unknown field$"):
            parse_config({"experiment": "sparse_regression", "seed": 1,
                          "encoding": encoding})
    for fn in (harness.sweep_session, harness.bit_sweep, harness._random_partitioned_session,
               harness._random_lincomb_session):
        assert "encoding" not in inspect.signature(fn).parameters, fn.__name__


def test_bit_fit_refuses_trials_other_than_one():
    # bit_fit runs one sweep and reports its T values as trials, so any other
    # trials would be ignored
    base = {"experiment": "bit_fit", "seed": 1}
    for trials in (2, 500):
        with pytest.raises(ConfigError, match=f"^trials: .* not {trials}$"):
            parse_config(dict(base, trials=trials))
    assert parse_config(dict(base, trials=1)) == parse_config(base)


def test_bit_sweep_fits_at_the_session_widths():
    # the fit's word size comes from the sessions it is given, not from a
    # second argument
    k, m, n = 2, 4, 3
    encodings = {"default": EncodingSpec(), "wide": EncodingSpec(scalar_bits=64)}
    fits = {}
    for name, encoding in encodings.items():
        totals, fit, got_k = harness.bit_sweep(
            lambda rng: open_session_blocks(
                k, [(0, rng.normal(size=(2, n)) + 5), (1, rng.normal(size=(2, n)) + 5)],
                [(0, rng.normal(size=2) + 5), (1, rng.normal(size=2) + 5)], encoding),
            harness._BIT_FIT_MIX, [5, 10, 15], 1)
        assert got_k == k
        assert fit["word_bits"] == encoding.scalar_bits + math.ceil(math.log2(m * n))
        fits[name] = (totals, fit)
    assert fits["wide"][1]["word_bits"] == 68
    assert all(wide > default for wide, default in zip(fits["wide"][0], fits["default"][0]))


def _bit_sweep_fresh_sessions(make_session, mix, t_values, seed):
    """bit_sweep's reference totals: for each T a fresh session from its own
    child stream of the seed, set up, making T accesses."""
    totals = []
    for t_accesses, rng in zip(t_values, harness._trial_rngs(seed, len(t_values))):
        session = make_session(rng)
        if session.b_blocks:
            harness.coord_b_setup(session)
        if session.a_blocks:
            harness.coord_a_setup(session)
        steps = [harness._ACCESSES[name] for name in (mix(session) if callable(mix) else mix)]
        rows = [int(bl.offset + i) for bl in session.a_blocks if bl.owner != comm_sim.PUBLIC
                for i in np.flatnonzero(np.abs(bl.data).sum(axis=1) > 0)]
        b_idx = [bl.offset + j for bl in session.b_blocks if bl.owner != comm_sim.PUBLIC
                 for j in range(len(bl.data))]
        for i in range(t_accesses):
            steps[i % len(steps)](session, rng, i, rows, b_idx)
        totals.append(session.meter.total_bits)
    return totals


@pytest.mark.parametrize("layout, mix", [
    *[pytest.param(name, harness.access_mix, id=name) for name in harness.SWEEP_LAYOUTS],
    pytest.param("generic", harness._BIT_FIT_MIX, id="generic-bit_fit_mix")])
def test_bit_sweep_running_totals_match_fresh_sessions(layout, mix, monkeypatch):
    # one session's running total after T accesses is the total of a fresh
    # session making T accesses, since each access costs a constant of the layout
    bit_fit = default_config("bit_fit").params
    make_session = lambda rng: harness.SWEEP_LAYOUTS[layout](bit_fit, rng)
    t_values, seed = [5, 10, 20], 3
    expected = _bit_sweep_fresh_sessions(make_session, mix, t_values, seed)
    setup_bits, access_bits = [], []    # access_bits: (kind, bits) in call order
    for name in ("coord_b_setup", "coord_a_setup", "coord_b_sample", "coord_b_query",
                 "coord_a_access"):
        def recorded(session, *args, _name=name, _fn=getattr(harness, name)):
            out = _fn(session, *args)
            if _name.endswith("_setup"):
                setup_bits.append(out)
            else:
                request = args[0] if _name == "coord_a_access" else _name
                access_bits.append((request if isinstance(request, str) else request[0],
                                    out[1]))
            return out
        monkeypatch.setattr(harness, name, recorded)
    totals, _, _ = harness.bit_sweep(make_session, mix, t_values, seed)
    assert totals == expected
    costs = {}
    for kind, bits in access_bits:
        costs.setdefault(kind, set()).add(bits)
    assert all(len(bits) == 1 for bits in costs.values()), costs
    assert len(access_bits) == t_values[-1]
    assert totals == [sum(setup_bits) + sum(bits for _, bits in access_bits[:t])
                      for t in t_values]


def _within_bounds(spec, value) -> bool:
    """The accepted values of one param, restated from its Param entry."""
    def is_int(v):
        return type(v) is int
    if spec.kind == "sweep":
        return (isinstance(value, list) and len(value) == 3 and all(map(is_int, value))
                and 1 <= value[0] <= value[1] <= spec.high and value[2] >= 1)
    if spec.kind == "real":
        return type(value) in (int, float) and spec.low < value < spec.high
    entries = value if spec.kind == "ints" else [value]
    return (isinstance(entries, list) and len(entries) > 0
            and all(is_int(v) and spec.low <= v <= spec.high and (v % 2 or not spec.odd)
                    for v in entries))


_FIELDS = [(name, "params", key) for name, entry in EXPERIMENTS.items() for key in entry.params]
_SCALARS = (st.none() | st.booleans() | st.integers(-3, 70) | st.integers()
            | st.floats() | st.text(max_size=3))
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(st.text(max_size=3), inner, max_size=2), max_leaves=6)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(field=st.sampled_from(_FIELDS), value=_JSON)
def test_any_json_value_is_accepted_within_bounds_or_rejected(field, value):
    experiment, section, key = field
    try:
        cfg = parse_config({"experiment": experiment, "seed": 1, section: {key: value}})
    except ConfigError as err:
        assert str(err).startswith(f"{section}")
        return
    assert _within_bounds(EXPERIMENTS[experiment].params[key], value)
    assert cfg.params[key] == value


def test_config_round_trip():
    for name in EXPERIMENTS:
        cfg = default_config(name)
        assert parse_config(cfg.to_dict()) == cfg
        # params left out take their canonical values
        bare = parse_config({"experiment": name, "seed": cfg.seed, "trials": cfg.trials})
        assert bare == cfg


def test_bundled_configs_cover_experiments():
    paths = sorted(CONFIG_DIR.glob("*.json"))
    assert len(paths) == len(EXPERIMENTS) == 9
    seen = set()
    for path in paths:
        cfg = load_config(path)
        assert cfg == default_config(cfg.experiment), path.name
        seen.add(cfg.experiment)
    assert seen == set(EXPERIMENTS)


def test_load_config_rejects_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)


def test_run_is_byte_deterministic():
    cfg = default_config("oracle_properties")
    first = run(cfg)
    second = run(cfg)
    assert first.all_passed
    assert report_json_bytes(first) == report_json_bytes(second)
    assert report_csv_bytes(first) == report_csv_bytes(second)
    # wall clock varies run to run but must stay out of the serialized bytes
    assert b"wall_clock" not in report_json_bytes(first)


def test_report_csv_schema():
    cfg = default_config("oracle_properties")
    lines = report_csv_bytes(run(cfg)).decode().splitlines()
    assert lines[0] == "schema_version,experiment,seed,check,passed,detail"
    assert all(line.split(",")[1] == "oracle_properties" for line in lines[1:])


def test_fit_bit_costs_recovers_synthetic():
    enc = EncodingSpec()
    k, m, n = 4, 16, 16
    w = enc.scalar_bits + 8  # log2(16 * 16)
    t_values = list(range(10, 200, 10))
    totals = [3 * k * w + 0.5 * t * w for t in t_values]
    fit = fit_bit_costs(k, t_values, totals, enc, m, n)
    assert fit["word_bits"] == w
    assert fit["c0"] == pytest.approx(3.0, abs=1e-9)
    assert fit["c1"] == pytest.approx(0.5, abs=1e-9)
    assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)


def test_cli_run(tmp_path, capsys):
    code = cli_main([
        "run", "--config", str(CONFIG_DIR / "09_oracle.json"), "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    report = json.loads((tmp_path / "oracle_properties_report.json").read_text())
    assert report["experiment"] == "oracle_properties"
    assert (tmp_path / "oracle_properties_summary.csv").exists()


def test_cli_run_seed_override(tmp_path):
    assert cli_main([
        "run", "--config", str(CONFIG_DIR / "09_oracle.json"),
        "--seed", "5", "--out", str(tmp_path),
    ]) == 0
    report = json.loads((tmp_path / "oracle_properties_report.json").read_text())
    assert report["seed"] == 5


def test_cli_config_errors_exit_with_one_line(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "oracle_properties", "seed": -3}))
    for argv in (["run", "--config", str(bad)],
                 ["run", "--config", str(CONFIG_DIR / "09_oracle.json"), "--seed", "-1"],
                 ["fit-bits", "--reduction", "generic", "--t-sweep", "10:20:5",
                  "--seed", "-1"]):
        with pytest.raises(SystemExit, match="^seed: must be an integer >= 0$"):
            cli_main(argv)


def test_cli_verify_suite(capsys):
    assert cli_main(["verify", "--suite", "oracle"]) == 0
    assert "suite oracle: all checks passed" in capsys.readouterr().out


def test_cli_fit_bits(capsys):
    assert cli_main(["fit-bits", "--reduction", "generic",
                     "--t-sweep", "10:100:30"]) == 0
    out = capsys.readouterr().out
    assert "t_accesses,total_bits" in out
    with pytest.raises(SystemExit):
        cli_main(["fit-bits", "--reduction", "generic", "--t-sweep", "10:100"])
    with pytest.raises(SystemExit):
        cli_main(["fit-bits", "--reduction", "generic", "--t-sweep", "50:10:5"])


@pytest.mark.parametrize("sweep, message", [
    # R^2 = 1 through one or two counts, whatever the bits
    ([1, 1, 1], "fewer than three counts"),
    ([10, 20, 10], "fewer than three counts"),
    # a partial cycle of the mix: FAILs the fit on working code at k = m = n = 1
    ([1, 3, 1], "5-access cycle"),
    ([10, 100, 12], "5-access cycle"),
])
def test_bit_fit_sweep_covers_whole_cycles(sweep, message):
    params = {"k": 1, "m": 1, "n": 1, "t_sweep": sweep}
    with pytest.raises(ConfigError, match=f"^params.t_sweep: .*{message}"):
        parse_config({"experiment": "bit_fit", "seed": 1, "params": params})
    with pytest.raises(SystemExit, match=message):
        cli_main(["fit-bits", "--reduction", "generic", "--t-sweep",
                  ":".join(map(str, sweep))])
    for canonical in (EXPERIMENTS["bit_fit"].params["t_sweep"].value, [10, 100, 30]):
        parse_config({"experiment": "bit_fit", "seed": 1, "params": {"t_sweep": canonical}})


def test_fit_bits_mixes_share_the_bit_fit_cycle():
    # one t_sweep rule serves `fit-bits` only while each of its mixes is as long
    b = np.ones(2)
    sessions = [open_session_blocks(2, [(0, np.ones((2, 2))), (1, np.ones((2, 2)))], b_blocks)
                for b_blocks in ([], [(0, b), (1, b)], [(0, b), (None, b)])]
    bit_fit = default_config("bit_fit").params
    sessions += [layout(bit_fit, np.random.default_rng(0))
                 for layout in harness.SWEEP_LAYOUTS.values()]
    for session in sessions:
        assert len(harness.access_mix(session)) == len(harness._BIT_FIT_MIX)


def test_cli_fit_bits_sweep_rule_matches_config():
    # --t-sweep goes through the t_sweep rule of the bit_fit config, cap included
    with pytest.raises(SystemExit, match="exceeds cap"):
        cli_main(["fit-bits", "--reduction", "generic", "--t-sweep", "1:1000000000:1"])
    with pytest.raises(SystemExit, match="is not a range"):
        cli_main(["fit-bits", "--reduction", "generic", "--t-sweep", "0:10:1"])
    with pytest.raises(SystemExit, match="wants A:B:S integers"):
        cli_main(["fit-bits", "--reduction", "generic", "--t-sweep", "1:x:1"])


# sha256 of the stdout of `sqcomm fit-bits --reduction <name> --t-sweep 10:100:30 --seed 3`
_FIT_BITS_STDOUT = {
    "clustering": "6ed56924f2882ba881f49fe231b7b8b3501797e5534612f77ee54d0f82fc11b0",
    "dense": "c0e01a4a4f7037169748d31775910110c4689fdc675fbd1c5d8ade46e953a1d9",
    "generic": "76d3166c572e507f23a313c9bd1b7323704c23d4b084ef6f6640640b964b358a",
    "hamiltonian": "c0e01a4a4f7037169748d31775910110c4689fdc675fbd1c5d8ade46e953a1d9",
    "pca": "e4878e015c967d3102a946b3844971d28bd9e975d414f9f647cb19318c926cf6",
    "sparse": "5ae94ccbc43de86ea4cb48c418cca450c5c542be2ee48abc5dd6e050e5f9d5a5",
}


def test_every_sweep_layout_has_a_pinned_stdout():
    assert set(_FIT_BITS_STDOUT) == set(harness.SWEEP_LAYOUTS)


@pytest.mark.parametrize("reduction", sorted(_FIT_BITS_STDOUT))
def test_cli_fit_bits_output_pinned(reduction, capsys):
    assert cli_main(["fit-bits", "--reduction", reduction,
                     "--t-sweep", "10:100:30", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _FIT_BITS_STDOUT[reduction]


def test_bit_fit_accesses_go_through_harness_globals(monkeypatch):
    # perfbench's tracer counts accesses by rebinding these names in
    # sqcomm.harness; bit_fit must look them up there at call time
    calls = Counter()
    for name in ("coord_b_setup", "coord_a_setup", "coord_b_sample", "coord_b_query",
                 "coord_a_access"):
        def counted(*args, _name=name, _fn=getattr(harness, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(harness, name, counted)
    opened = []
    real = harness.open_session_blocks
    monkeypatch.setattr(harness, "open_session_blocks",
                        lambda *args: opened.append(args) or real(*args))
    run(parse_config({"experiment": "bit_fit", "seed": 1,
                      "params": {"k": 2, "m": 8, "n": 4, "t_sweep": [5, 15, 5]}}))
    # T = 5, 10 and 15 read one session's running total: three cycles of the
    # five-access mix after one pair of setups
    assert len(opened) == 1
    assert calls == {"coord_b_setup": 1, "coord_a_setup": 1, "coord_b_sample": 3,
                     "coord_b_query": 3, "coord_a_access": 9}


def test_dense_condition_routes_agree():
    # 05 reads kappa and kappa_F from the singular values alone; `params`
    # takes the full SVD with vectors; on the dense builds the two agree
    rng = np.random.default_rng(5)
    for n in range(1, 7):
        build = reductions.build_regression_dense(reductions.gen_function_pair(n, rng))
        pr = params(build.matrix, build.rhs)
        kappa, kappa_F = harness._condition_numbers(build.matrix)
        assert abs(kappa - pr.kappa) <= 1e-12 and abs(kappa_F - pr.kappa_F) <= 1e-12, n
    # a singular matrix reads infinite, so 05's check fails instead of the run
    assert harness._condition_numbers(np.zeros((3, 3))) == (math.inf, math.inf)


def test_sparse_regression_opens_a_session_per_trial_only(monkeypatch):
    # the closed-form instances are stacked from their layouts; only the
    # metered decision trials open a session
    opened = []
    real = reductions.open_session_blocks
    monkeypatch.setattr(reductions, "open_session_blocks",
                        lambda *args: opened.append(args) or real(*args))
    report = run(parse_config({"experiment": "sparse_regression", "seed": 3, "trials": 4,
                               "params": {"k": 3, "n": 16, "closed_form_instances": 6}}))
    assert report.all_passed and len(opened) == 4
