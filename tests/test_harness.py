"""Statistics helpers, config parsing, report determinism, and the CLI."""

import hashlib
import json
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
from sqcomm import cli, harness, open_session_blocks
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
    with pytest.raises(ConfigError, match="^encoding:"):
        parse_config(dict(base, encoding={"scalar_bits": 4}))
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
    with pytest.raises(ConfigError, match="^encoding: opcode_bits"):
        parse_config(dict(base, encoding={"opcode_bits": -50}))
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


@pytest.mark.parametrize("encoding, message", [
    ({"scalar_bits": "32"}, "^encoding: scalar_bits must be an integer"),
    ({"opcode_bits": None}, "^encoding: opcode_bits must be an integer"),
    ({"opcode_bits": 2.5}, "^encoding: opcode_bits must be an integer"),
    ({"scalar_bits": True}, "^encoding: scalar_bits must be an integer"),
    ({"opcode_bit": 8}, "^encoding.opcode_bit: unknown field"),
])
def test_parse_config_rejects_bad_encoding(encoding, message):
    with pytest.raises(ConfigError, match=message):
        parse_config({"experiment": "bit_fit", "seed": 1, "encoding": encoding})


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


_FIELDS = ([(name, "params", key) for name, entry in EXPERIMENTS.items() for key in entry.params]
           + [("bit_fit", "encoding", key) for key in ("scalar_bits", "opcode_bits")])
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
    if section == "encoding":
        assert type(value) is int and value >= (8 if key == "scalar_bits" else 0)
        assert getattr(cfg.encoding, key) == value
    else:
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
    for b_blocks in ([], [(0, b), (1, b)], [(0, b), (None, b)]):
        session = open_session_blocks(2, [(0, np.ones((2, 2))), (1, np.ones((2, 2)))],
                                      b_blocks)
        assert len(cli._access_mix(session)) == len(harness._BIT_FIT_MIX)


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
    run(parse_config({"experiment": "bit_fit", "seed": 1,
                      "params": {"k": 2, "m": 8, "n": 4, "t_sweep": [5, 15, 5]}}))
    # T = 5, 10 and 15: six cycles of the five-access mix
    assert calls == {"coord_b_setup": 3, "coord_a_setup": 3, "coord_b_sample": 6,
                     "coord_b_query": 6, "coord_a_access": 18}
