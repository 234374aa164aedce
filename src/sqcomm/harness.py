"""Configuration-driven experiment runner.

A config (JSON file or dict) names an experiment, a mandatory seed, a trial
count, and experiment-specific parameters.  `run` executes the experiment and
returns a Report whose serialized form is a pure function of (config, seed):
wall-clock time is carried on the object for console display but excluded from
the bytes written to disk.

Experiments cover the protocol layer (exact law enumeration, bit-cost fits,
oversampled combinations) and the five reductions, plus a quick self-check of
the linear-algebra oracle.  Each experiment returns named checks; the CLI and
the acceptance tests consume the same results.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import stats as _scipy_stats

from . import comm_sim, reductions
from .comm_sim import (
    DimensionMismatch,
    EncodingSpec,
    Session,
    assemble_stacked,
    coord_a_access,
    coord_a_setup,
    coord_b_query,
    coord_b_sample,
    coord_b_setup,
    lincomb_b_access,
    lincomb_b_phi,
    meter_report,
    open_session_blocks,
    protocol_distribution,
)
from .linalg_oracle import (
    dsp_distribution,
    expm_hermitian,
    hadamard_apply,
    params,
    pinv_solve,
    pseudoinverse,
    svd_factors,
    threshold_svd,
    top_singular,
)
from .sq_access import (
    Timeout,
    build_sq_vector,
    exact_distribution,
    rejection_round_cap,
)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid configuration; the message starts with the offending field path."""


class TooFewSamples(ValueError):
    """Not enough samples for a meaningful goodness-of-fit test."""


# --- statistics ------------------------------------------------------------------

def tv_distance(p, q) -> float:
    """Total variation distance (half the l1 distance) between two laws."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise DimensionMismatch(f"shapes {p.shape} and {q.shape} differ")
    for name, arr in (("p", p), ("q", q)):
        if abs(arr.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} sums to {arr.sum()!r}, not 1")
    return 0.5 * float(np.abs(p - q).sum())


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    critical: float
    df: int
    passed: bool


def chi_square(counts, probs, significance: float = 0.001) -> ChiSquareResult:
    """Pearson goodness-of-fit test of observed counts against a law.

    Buckets with expected count below 5 are pooled into one; if the pool
    itself stays small it is merged into the smallest regular bucket.  With a
    single retained bucket the statistic is 0 and the test passes trivially.
    """
    counts = np.asarray(counts, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if counts.shape != probs.shape or counts.ndim != 1:
        raise DimensionMismatch("counts and probs must be equal-length 1-d")
    total = counts.sum()
    if total <= 0:
        raise TooFewSamples("no observations")
    expected = total * probs
    big = expected >= 5.0
    obs = list(counts[big])
    exp = list(expected[big])
    pool_obs = counts[~big].sum()
    pool_exp = expected[~big].sum()
    if pool_exp > 0:
        if pool_exp >= 5.0:
            obs.append(pool_obs)
            exp.append(pool_exp)
        elif exp:
            smallest = int(np.argmin(exp))
            obs[smallest] += pool_obs
            exp[smallest] += pool_exp
        else:
            raise TooFewSamples("every bucket has expected count below 5")
    if not exp:
        raise TooFewSamples("no buckets retained")
    obs_arr = np.asarray(obs)
    exp_arr = np.asarray(exp)
    df = exp_arr.size - 1
    if df > 4096:
        raise ValueError(f"df {df} above the supported range (4096)")
    if df == 0:
        return ChiSquareResult(statistic=0.0, critical=0.0, df=0, passed=True)
    statistic = float(((obs_arr - exp_arr) ** 2 / exp_arr).sum())
    critical = float(_scipy_stats.chi2.isf(significance, df))
    return ChiSquareResult(statistic=statistic, critical=critical, df=df,
                           passed=bool(statistic <= critical))


# --- configuration ----------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int
    trials: int
    params: dict
    encoding: EncodingSpec = field(default_factory=EncodingSpec)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "trials": self.trials,
            "params": dict(self.params),
            "encoding": {"scalar_bits": self.encoding.scalar_bits,
                         "opcode_bits": self.encoding.opcode_bits},
        }


# caps of trials, counts and sweep stops; of player counts; of rows, columns, lengths
MAX_COUNT, _PLAYERS, _ROWS = 100000, 64, 4096


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Param:
    """One experiment param: its canonical value and the values it accepts.

    kind "int" is an integer in [low, high] (odd only, with `odd`); "ints" a
    nonempty list of them; "real" a number in the open interval (low, high);
    "sweep" a [start, stop, step] range with low <= start <= stop <= high and
    step >= 1.
    """

    value: object
    low: float
    high: float
    kind: str = "int"
    odd: bool = False


@dataclass(frozen=True)
class Experiment:
    """One experiment: its runner, canonical seed and trials, its params, and
    an optional check across params that raises ConfigError."""

    runner: Callable
    seed: int
    trials: int
    params: dict
    check: Callable | None = None


def _check_int(path: str, value, low: int, high: int, odd: bool = False) -> None:
    if not _is_int(value) or value < low:
        raise ConfigError(f"{path}: must be a positive integer" if low == 1
                          else f"{path}: must be an integer >= {low}")
    if value > high:
        raise ConfigError(f"{path}: {value} exceeds cap {high}")
    if odd and value % 2 == 0:
        raise ConfigError(f"{path}: {value} is not odd")


def sweep_values(sweep) -> list:
    """The counts of a checked [start, stop, step] sweep."""
    start, stop, step = sweep
    return list(range(start, stop + 1, step))


def _check_param(path: str, spec: Param, value) -> None:
    if spec.kind == "sweep":
        if not (isinstance(value, list) and len(value) == 3 and all(map(_is_int, value))):
            raise ConfigError(f"{path}: must be [start, stop, step] integers")
        start, stop, step = value
        if start < spec.low or stop < start or step < 1:
            raise ConfigError(f"{path}: {value} is not a range with {spec.low} <= start "
                              f"<= stop and step >= 1")
        if stop > spec.high:
            raise ConfigError(f"{path}: stop {stop} exceeds cap {spec.high}")
    elif spec.kind == "real":
        if not ((_is_int(value) or isinstance(value, float)) and spec.low < value < spec.high):
            raise ConfigError(f"{path}: must be a number in the open interval "
                              f"({_fmt(spec.low)}, {_fmt(spec.high)})")
    else:
        entries = value if spec.kind == "ints" else [value]
        if not (isinstance(entries, list) and entries):
            raise ConfigError(f"{path}: must be a list of one or more integers")
        for entry in entries:
            _check_int(path, entry, spec.low, spec.high, spec.odd)


def parse_config(obj: dict) -> ExperimentConfig:
    """Validate a config object against its experiment's EXPERIMENTS entry:
    each supplied param must be one the entry lists and lie within its
    bounds; a param left out takes its canonical value."""
    if not isinstance(obj, dict):
        raise ConfigError("config: must be a JSON object")
    if "experiment" not in obj:
        raise ConfigError("experiment: required")
    name = obj["experiment"]
    if name not in EXPERIMENTS:
        raise ConfigError(f"experiment: unknown name {name!r}")
    if "seed" not in obj:
        raise ConfigError("seed: required")
    if not _is_int(obj["seed"]) or obj["seed"] < 0:     # numpy seeds are nonnegative
        raise ConfigError("seed: must be an integer >= 0")
    trials = obj.get("trials", 1)
    _check_int("trials", trials, 1, MAX_COUNT)
    raw_params = obj.get("params", {})
    if not isinstance(raw_params, dict):
        raise ConfigError("params: must be an object")
    entry = EXPERIMENTS[name]
    specs = entry.params
    for key, value in raw_params.items():
        if key not in specs:
            raise ConfigError(f"params.{key}: unknown field")
        _check_param(f"params.{key}", specs[key], value)
    enc_obj = obj.get("encoding", {})
    if not isinstance(enc_obj, dict):
        raise ConfigError("encoding: must be an object")
    for key in enc_obj:
        if key not in ("scalar_bits", "opcode_bits"):
            raise ConfigError(f"encoding.{key}: unknown field")
    try:
        encoding = EncodingSpec(**enc_obj)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"encoding: {err}") from err
    unknown = set(obj) - {"experiment", "seed", "trials", "params", "encoding"}
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown field")
    params = {key: copy.deepcopy(spec.value) for key, spec in specs.items()}
    params.update(raw_params)
    if entry.check is not None:
        entry.check(params)
    return ExperimentConfig(experiment=name, seed=obj["seed"], trials=trials,
                            params=params, encoding=encoding)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"config: invalid JSON ({err})") from err
    return parse_config(obj)


# --- reports ----------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class Report:
    schema_version: int
    experiment: str
    seed: int
    trials: int
    checks: list
    stats: dict
    per_trial: list
    accuracy: float | None = None
    bits_mean: float | None = None
    bits_max: int | None = None
    fit: dict | None = None
    wall_clock_s: float = 0.0     # display only, never serialized

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def report_json_bytes(report: Report) -> bytes:
    """Canonical serialization; a pure function of (config, seed)."""
    obj = {
        "schema_version": report.schema_version,
        "experiment": report.experiment,
        "seed": report.seed,
        "trials": report.trials,
        "accuracy": report.accuracy,
        "bits_mean": report.bits_mean,
        "bits_max": report.bits_max,
        "fit": report.fit,
        "stats": report.stats,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.checks
        ],
        "per_trial": report.per_trial,
    }
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def report_csv_bytes(report: Report) -> bytes:
    """One summary row per check; fixed, versioned column schema."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["schema_version", "experiment", "seed", "check", "passed", "detail"])
    for c in report.checks:
        writer.writerow([report.schema_version, report.experiment, report.seed,
                         c.name, int(c.passed), c.detail])
    return buf.getvalue().encode()


def write_report(report: Report, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{report.experiment}_report.json"), "wb") as fh:
        fh.write(report_json_bytes(report))
    with open(os.path.join(out_dir, f"{report.experiment}_summary.csv"), "wb") as fh:
        fh.write(report_csv_bytes(report))


def run(config: ExperimentConfig, out_dir=None) -> Report:
    """Execute one experiment; deterministic given (config, seed)."""
    runner = EXPERIMENTS[config.experiment].runner
    start = time.perf_counter()
    report = runner(config)
    report.wall_clock_s = time.perf_counter() - start
    if out_dir is not None:
        write_report(report, out_dir)
    return report


def _report(config: ExperimentConfig, checks, stats, per_trial, trials=None,
            **optional) -> Report:
    """The Report of one run; `trials` defaults to the config's."""
    return Report(schema_version=SCHEMA_VERSION, experiment=config.experiment,
                  seed=config.seed, trials=config.trials if trials is None else trials,
                  checks=checks, stats=stats, per_trial=per_trial, **optional)


def _trial_rngs(seed: int, count: int):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def _fmt(x: float) -> str:
    return f"{x:.6g}"


# --- experiment: protocol exactness (stacked access laws) ---------------------------

def _random_partitioned_session(rng, max_k: int, max_rows: int, max_cols: int,
                                encoding: EncodingSpec) -> Session:
    k = int(rng.integers(2, max_k + 1))
    m = int(rng.integers(2, max_rows + 1))
    n = int(rng.integers(1, max_cols + 1))
    A = rng.normal(size=(m, n))
    b = rng.normal(size=m)
    A[rng.random(m) < 0.05] = 0.0            # zero rows are legal
    b[rng.random(m) < 0.05] = 0.0
    if not A.any():
        A[0, 0] = 1.0
    if not b.any():
        b[0] = 1.0

    def cut(total, rows=False):
        pieces = int(rng.integers(1, min(6, total) + 1))
        points = np.sort(rng.choice(np.arange(1, total), size=pieces - 1, replace=False))
        bounds = np.concatenate([[0], points, [total]])
        blocks = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            owner = int(rng.integers(-1, k))
            data = A[lo:hi] if rows else b[lo:hi]
            blocks.append((None if owner < 0 else owner, data))
        return blocks

    return open_session_blocks(k, cut(m, rows=True), cut(m), encoding)


def _exactness_deviation(session: Session, rng) -> float:
    A, b = assemble_stacked(session)
    law = protocol_distribution(session, "b_sample")
    worst = float(np.abs(law - exact_distribution(build_sq_vector(b))).max())
    row_sq = np.abs(A) ** 2
    row_mass = row_sq.sum(axis=1)
    law = protocol_distribution(session, "row_norm_sample")
    worst = max(worst, float(np.abs(law - row_mass / row_mass.sum()).max()))
    nonzero_rows = np.flatnonzero(row_mass > 0)
    picks = rng.choice(nonzero_rows, size=min(3, nonzero_rows.size), replace=False)
    for i in picks:
        law = protocol_distribution(session, ("row_sample", int(i)))
        worst = max(worst, float(np.abs(law - row_sq[i] / row_mass[i]).max()))
    return worst


_EXACTNESS_TOL = 1e-12    # max abs deviation of a stacked law from the centralized one


def run_protocol_exactness(config: ExperimentConfig) -> Report:
    p = config.params
    max_k, max_rows, max_cols = p["max_players"], p["max_rows"], p["max_cols"]
    rngs = _trial_rngs(config.seed, config.trials)
    worst = 0.0
    per_trial = []
    for t, rng in enumerate(rngs):
        session = _random_partitioned_session(rng, max_k, max_rows, max_cols,
                                              config.encoding)
        dev = _exactness_deviation(session, rng)
        worst = max(worst, dev)
        per_trial.append({"trial": t, "deviation": dev})
    checks = [CheckResult(
        name="stacked_laws_match_centralized",
        passed=bool(worst <= _EXACTNESS_TOL),
        detail=(f"max abs deviation {_fmt(worst)} over {config.trials} partitions "
                f"(tol {_fmt(_EXACTNESS_TOL)})"),
    )]
    return _report(config, checks, {"max_deviation": worst}, per_trial)


# --- experiment: bit-cost law -------------------------------------------------------

_R2_FLOOR = 0.999   # pass rule of the bit-cost fit
_COEF_CAP = 4.0


def sweep_session(k: int, m: int, n: int, rng, encoding: EncodingSpec) -> Session:
    """The generic bit-fit session: k players split m rows of an m x n matrix
    and of a vector, all rows player-owned and nonzero, so every access costs
    the same."""
    bounds = np.linspace(0, m, k + 1).astype(int)
    a_blocks, b_blocks = [], []
    for i in range(k):
        lo, hi = bounds[i], bounds[i + 1]
        a_blocks.append((i, rng.normal(size=(hi - lo, n)) + 0.1))
        b_blocks.append((i, rng.normal(size=hi - lo) + 0.1))
    return open_session_blocks(k, a_blocks, b_blocks, encoding)


# The accesses whose bit cost is a constant of the session's layout.  Step i
# reads the player-owned row r[i % len(r)] and b index b[i % len(b)].  The
# lambdas look coord_* up in this module at call time, so a tracer that
# rebinds those names sees every access.
_ACCESSES = {
    "b_sample": lambda s, rng, i, r, b: coord_b_sample(s, rng),
    "b_query": lambda s, rng, i, r, b: coord_b_query(s, b[i % len(b)]),
    "b_query_next": lambda s, rng, i, r, b: coord_b_query(s, b[(i + 1) % len(b)]),
    "row_norm_sample": lambda s, rng, i, r, b: coord_a_access(s, "row_norm_sample", rng),
    "row_norm_query": lambda s, rng, i, r, b: coord_a_access(
        s, ("row_norm_query", r[i % len(r)]), rng),
    "row_sample": lambda s, rng, i, r, b: coord_a_access(
        s, ("row_sample", r[i % len(r)]), rng),
    "entry_query": lambda s, rng, i, r, b: coord_a_access(
        s, ("entry_query", r[i % len(r)], i % s.n), rng),
    "frobenius_query": lambda s, rng, i, r, b: coord_a_access(s, "frobenius_query", rng),
}


def bit_sweep(make_session, mix, t_values, seed: int, encoding: EncodingSpec):
    """For each T, the bits of T accesses on a fresh session `make_session(rng)`
    after its setups, step i making access mix[i % len(mix)]; then the fit.
    `mix` is a tuple of _ACCESSES names or a function of the session that
    returns one.  Returns (totals, fit, k)."""
    totals = []
    for t_accesses, rng in zip(t_values, _trial_rngs(seed, len(t_values))):
        session = make_session(rng)
        if session.b_blocks:
            coord_b_setup(session)
        if session.a_blocks:
            coord_a_setup(session)
        steps = [_ACCESSES[name] for name in (mix(session) if callable(mix) else mix)]
        rows = [int(bl.offset + i) for bl in session.a_blocks if bl.owner != comm_sim.PUBLIC
                for i in np.flatnonzero(np.abs(bl.data).sum(axis=1) > 0)]
        b_idx = [bl.offset + j for bl in session.b_blocks if bl.owner != comm_sim.PUBLIC
                 for j in range(len(bl.data))]
        for i in range(t_accesses):
            steps[i % len(steps)](session, rng, i, rows, b_idx)
        totals.append(session.meter.total_bits)
    fit = fit_bit_costs(session.k, t_values, totals, encoding,
                        session.m or session.a_rows, session.n or 1)
    return totals, fit, session.k


def fit_bit_costs(k: int, t_values, totals, encoding: EncodingSpec, m: int, n: int) -> dict:
    """Least-squares fit total_bits = c0*k*w + c1*T*w with w the word size."""
    w = encoding.scalar_bits + math.ceil(math.log2(m * n))
    t_arr = np.asarray(t_values, dtype=np.float64)
    y = np.asarray(totals, dtype=np.float64)
    design = np.column_stack([np.full_like(t_arr, k * w), t_arr * w])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    pred = design @ coef
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return {"c0": float(coef[0]), "c1": float(coef[1]),
            "r_squared": r_squared, "word_bits": w}


def fit_verdict(fit: dict):
    """The bit-fit pass rule: (R^2 above the floor, c0 and c1 both in [0, cap])."""
    return (bool(fit["r_squared"] > _R2_FLOOR),
            bool(0 <= fit["c0"] <= _COEF_CAP and 0 <= fit["c1"] <= _COEF_CAP))


# bit_fit's access mix.  Every mix of `sqcomm fit-bits` has as many accesses,
# so one t_sweep rule serves both: the bits grow by a constant per whole cycle
# of the mix, not per access.
_BIT_FIT_MIX = ("b_sample", "b_query", "row_norm_sample", "row_sample", "entry_query")


def _check_bit_fit(p: dict) -> None:
    if p["k"] > p["m"]:     # sweep_session gives each player at least one row
        raise ConfigError(f"params.k: {p['k']} players exceed m = {p['m']} rows")
    sweep = p["t_sweep"]
    start, _, step = sweep
    if len(sweep_values(sweep)) < 3:    # a line through two points fits exactly
        raise ConfigError(f"params.t_sweep: {sweep} gives fewer than three counts")
    cycle = len(_BIT_FIT_MIX)
    if start % cycle or step % cycle:
        raise ConfigError(f"params.t_sweep: {sweep} has a start or step that is not "
                          f"a multiple of the {cycle}-access cycle")


def run_bit_fit(config: ExperimentConfig) -> Report:
    p = config.params
    t_start, t_stop, _ = p["t_sweep"]
    t_values = sweep_values(p["t_sweep"])
    totals, fit, _ = bit_sweep(
        lambda rng: sweep_session(p["k"], p["m"], p["n"], rng, config.encoding),
        _BIT_FIT_MIX, t_values, config.seed, config.encoding)
    per_trial = [{"t": t, "total_bits": total} for t, total in zip(t_values, totals)]
    linear, bounded = fit_verdict(fit)
    checks = [
        CheckResult(
            name="bit_total_linear_in_accesses",
            passed=linear,
            detail=f"R^2 = {fit['r_squared']:.9f} over T in [{t_start}, {t_stop}]",
        ),
        CheckResult(
            name="fit_coefficients_bounded",
            passed=bounded,
            detail=f"c0 = {_fmt(fit['c0'])}, c1 = {_fmt(fit['c1'])} (cap {_COEF_CAP})",
        ),
    ]
    return _report(config, checks, {"t_values": t_values, "totals": totals}, per_trial,
                   trials=len(t_values), bits_mean=float(np.mean(totals)),
                   bits_max=int(max(totals)), fit=fit)


# --- experiment: oversampled linear combinations ------------------------------------

def _random_lincomb_session(rng, max_players: int, max_len: int,
                            encoding: EncodingSpec):
    k = int(rng.integers(2, max_players + 1))
    m = int(rng.integers(4, max_len + 1))
    parts = [rng.normal(size=m) for _ in range(k)]
    mu = rng.normal(size=k)
    if rng.random() < 0.2:
        mu[rng.integers(k)] = 0.0           # zero coefficients still fan out
    combined = sum(c * v for c, v in zip(mu, parts))
    if np.linalg.norm(combined) < 1e-6:
        heavy = int(np.argmax(np.abs(mu)))
        parts[heavy] = parts[heavy] + 1.0
    session = open_session_blocks(k, [], [(i, v) for i, v in enumerate(parts)],
                                  encoding)
    coord_b_setup(session)
    return session, np.asarray(mu), parts


_OVERSAMPLING_TOL = 1e-9       # norm identity and entrywise domination
_REJECTION_LAW_TOL = 1e-12     # enumerated rejection law against the target law
_PHI_CAP = 8.0                 # rounds are drawn only for combinations with phi <= cap


def run_oversampling(config: ExperimentConfig) -> Report:
    p = config.params
    max_players, max_len, rounds_draws = p["max_players"], p["max_len"], p["rounds_draws"]
    rngs = _trial_rngs(config.seed, config.trials)

    worst_norm_identity = 0.0
    worst_domination = 0.0
    worst_law = 0.0
    rounds_total = 0.0
    phi_total = 0.0
    qualifying = 0
    per_trial = []
    for t, rng in enumerate(rngs):
        session, mu, parts = _random_lincomb_session(rng, max_players, max_len,
                                                     config.encoding)
        k = session.k
        combined = sum(c * v for c, v in zip(mu, parts))
        dominator = np.sqrt(k * sum(np.abs(c * v) ** 2 for c, v in zip(mu, parts)))
        phi = lincomb_b_phi(session, mu)

        # norm identity and entrywise domination, against the protocol's phi
        lhs = float(dominator @ dominator)
        rhs = phi * float(combined @ combined)
        scale = max(lhs, 1.0)
        worst_norm_identity = max(worst_norm_identity, abs(lhs - rhs) / scale)
        slack = float((np.abs(combined) - dominator).max())
        worst_domination = max(worst_domination, slack)

        # enumerated rejection law: dominator law times acceptance ratios
        dom_law = protocol_distribution(session, ("lincomb_b_dominator", mu))
        ratios = np.zeros_like(dom_law)
        mask = dominator > 0
        ratios[mask] = np.abs(combined[mask]) ** 2 / dominator[mask] ** 2
        accept_law = dom_law * ratios
        accept_law = accept_law / accept_law.sum()
        target = exact_distribution(build_sq_vector(combined))
        worst_law = max(worst_law, float(np.abs(accept_law - target).max()))

        row = {"trial": t, "k": k, "phi": phi}
        if phi <= _PHI_CAP:
            qualifying += 1
            phi_total += phi * rounds_draws
            cap = rejection_round_cap(phi, comm_sim.DEFAULT_REJECTION_DELTA)
            spent = 0
            for _ in range(rounds_draws):
                try:
                    sample, _bits = lincomb_b_access(
                        session, mu, "sq_sample_via_rejection", rng)
                    spent += sample.rounds
                except Timeout:
                    spent += cap      # the draw still consumed every round
            rounds_total += spent
            row["mean_rounds"] = spent / rounds_draws
        per_trial.append(row)

    rounds_ratio = rounds_total / phi_total if phi_total else 1.0
    checks = [
        CheckResult(
            name="dominator_norm_identity",
            passed=bool(worst_norm_identity <= _OVERSAMPLING_TOL),
            detail=(f"max relative error {_fmt(worst_norm_identity)} "
                    f"(tol {_fmt(_OVERSAMPLING_TOL)})"),
        ),
        CheckResult(
            name="entrywise_domination",
            passed=bool(worst_domination <= _OVERSAMPLING_TOL),
            detail=f"max violation {_fmt(worst_domination)} (tol {_fmt(_OVERSAMPLING_TOL)})",
        ),
        CheckResult(
            name="rejection_law_exact",
            passed=bool(worst_law <= _REJECTION_LAW_TOL),
            detail=f"max abs deviation {_fmt(worst_law)} (tol {_fmt(_REJECTION_LAW_TOL)})",
        ),
        CheckResult(
            name="mean_rounds_tracks_phi",
            passed=bool(abs(rounds_ratio - 1.0) <= 0.10),
            detail=(f"observed/expected rounds = {rounds_ratio:.4f} over "
                    f"{qualifying} combinations with phi <= {_PHI_CAP}"),
        ),
    ]
    return _report(config, checks, {"rounds_ratio": rounds_ratio, "qualifying": qualifying},
                   per_trial)


# --- experiment: sparse regression / disjointness ------------------------------------

_CLOSED_FORM_TOL = 1e-9     # protocol x* against the pseudoinverse solve
_ACCURACY_FLOOR = 0.99      # share of disjointness decisions that must be correct


def run_sparse_regression(config: ExperimentConfig) -> Report:
    p = config.params
    k, n, num_samples = p["k"], p["n"], p["num_samples"]
    closed_form_instances = p["closed_form_instances"]
    rngs = _trial_rngs(config.seed, config.trials + closed_form_instances)

    worst_closed_form = 0.0
    for rng in rngs[:closed_form_instances]:
        kk = int(rng.integers(2, k + 1))
        nn = int(rng.integers(8, n + 1))
        inst = reductions.gen_disjointness(kk, nn, bool(rng.random() < 0.5), rng)
        build = reductions.build_regression_sparse(
            inst, beta_a=float(rng.uniform(0.5, 2.0)), beta_b=float(rng.uniform(0.5, 2.0)))
        A, b = assemble_stacked(build.session)
        dev = float(np.abs(pinv_solve(A, b) - build.x_star).max())
        worst_closed_form = max(worst_closed_form, dev)

    correct = 0
    per_trial = []
    bits = []
    for t, rng in enumerate(rngs[closed_form_instances:]):
        truth = bool(rng.random() < 0.5)
        inst = reductions.gen_disjointness(k, n, truth, rng)
        build = reductions.build_regression_sparse(inst)
        coord_b_setup(build.session)      # metered setup cost of the instance
        coord_a_setup(build.session)
        decision = reductions.decide_disjointness(build, num_samples, rng)
        correct += decision == truth
        bits.append(meter_report(build.session).total_bits)
        per_trial.append({"trial": t, "truth": truth, "decision": decision})
    accuracy = correct / config.trials

    checks = [
        CheckResult(
            name="closed_form_matches_pinv",
            passed=bool(worst_closed_form <= _CLOSED_FORM_TOL),
            detail=(f"max abs deviation {_fmt(worst_closed_form)} over "
                    f"{closed_form_instances} instances "
                    f"(tol {_fmt(_CLOSED_FORM_TOL)})"),
        ),
        CheckResult(
            name="disjointness_decision_accuracy",
            passed=bool(accuracy >= _ACCURACY_FLOOR),
            detail=f"{correct}/{config.trials} correct (accuracy {accuracy:.4f})",
        ),
    ]
    return _report(config, checks, {"worst_closed_form": worst_closed_form}, per_trial,
                   accuracy=accuracy, bits_mean=float(np.mean(bits)), bits_max=int(max(bits)))


# --- experiment: dense regression -----------------------------------------------------

_DENSE_LAW_TOL = 1e-9     # solution law against the sign-correlation law


def run_dense_regression(config: ExperimentConfig) -> Report:
    p = config.params
    exhaustive_n, random_ns = p["exhaustive_max_n"], p["random_ns"]
    params_max_n = p["params_max_n"]
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))

    def pairs():    # every pair up to exhaustive_n, then `trials` random pairs per n
        for n in range(1, exhaustive_n + 1):
            signs = reductions.all_sign_vectors(n)
            yield from (reductions.FunctionPair(n=n, f=f, g=g) for f in signs for g in signs)
        for n in random_ns:
            yield from (reductions.gen_function_pair(n, rng) for _ in range(config.trials))

    worst_law = worst_tv = 0.0
    count = 0
    for pair in pairs():
        build = reductions.build_regression_dense(pair)
        law = reductions.dense_solution_law(build)
        worst_law = max(worst_law, float(np.abs(law - build.target_law).max()))
        worst_tv = max(worst_tv, tv_distance(law, build.target_law))
        count += 1

    worst_kf = 0.0
    worst_kappa = 0.0
    for n in range(1, params_max_n + 1):
        build = reductions.build_regression_dense(reductions.gen_function_pair(n, rng))
        pr = params(build.matrix, build.rhs)
        worst_kf = max(worst_kf, abs(pr.kappa_F**2 - 2**n))
        worst_kappa = max(worst_kappa, abs(pr.kappa - 1.0))

    checks = [
        CheckResult(
            name="solution_law_matches_sign_correlation",
            passed=bool(worst_law <= _DENSE_LAW_TOL),
            detail=(f"max abs deviation {_fmt(worst_law)} over {count} pairs "
                    f"(TV max {_fmt(worst_tv)}, tol {_fmt(_DENSE_LAW_TOL)})"),
        ),
        CheckResult(
            name="condition_numbers",
            passed=bool(worst_kf <= 1e-9 and worst_kappa <= 1e-9),
            detail=(f"max |kappa_F^2 - 2^n| = {_fmt(worst_kf)}, "
                    f"max |kappa - 1| = {_fmt(worst_kappa)} for n <= {params_max_n}"),
        ),
    ]
    return _report(config, checks, {"tv_max": worst_tv, "pairs_checked": count}, [],
                   trials=count)


# --- experiment: clustering ------------------------------------------------------------

def run_clustering(config: ExperimentConfig) -> Report:
    p = config.params
    ks, ds = p["ks"], p["ds"]
    rngs = _trial_rngs(config.seed, config.trials)

    worst_dist = 0.0
    worst_fro = 0.0
    worst_b = 0.0
    correct = 0
    per_trial = []
    for t, rng in enumerate(rngs):
        k = int(rng.choice(ks))
        d = int(rng.choice(ds))
        sign = int(rng.choice((1, -1)))
        inst = reductions.gen_gap_hamming(k, d, sign, rng)
        build = reductions.build_clustering(inst)
        worst_dist = max(worst_dist, abs(build.bta_sq - build.distance_sq))
        worst_fro = max(worst_fro, abs(build.fro_sq - 2.0))
        worst_b = max(worst_b, abs(build.b_sq - 2.0 * build.alpha**2 * d))
        decision = reductions.decide_clustering(build)
        correct += decision == sign
        per_trial.append({"trial": t, "k": k, "d": d, "sign": sign,
                          "decision": decision})
    accuracy = correct / config.trials
    checks = [
        CheckResult(
            name="weighted_row_combination_is_centroid_distance",
            passed=bool(worst_dist <= 1e-10),
            detail=f"max abs deviation {_fmt(worst_dist)} (tol 1e-10)",
        ),
        CheckResult(
            name="norm_identities",
            passed=bool(worst_fro <= 1e-12 and worst_b <= 1e-12),
            detail=(f"max |fro^2 - 2| = {_fmt(worst_fro)}, "
                    f"max vector-norm error = {_fmt(worst_b)}"),
        ),
        CheckResult(
            name="threshold_separates_promise_branches",
            passed=bool(correct == config.trials),
            detail=f"{correct}/{config.trials} branches decided correctly",
        ),
    ]
    return _report(config, checks, {"worst_distance_error": worst_dist}, per_trial,
                   accuracy=accuracy)


# --- experiment: PCA and thresholded projection ------------------------------------------

def run_pca_recsys(config: ExperimentConfig) -> Report:
    p = config.params
    n, level = p["n"], p["level"]
    rngs = _trial_rngs(config.seed, config.trials)

    worst_sigma = 0.0
    rank_ok = True
    pca_correct = 0
    recsys_correct = 0
    recovered = 0
    rank1_count = 0
    per_trial = []
    for t, rng in enumerate(rngs):
        truth = bool(rng.random() < 0.5)
        inst = reductions.gen_disjointness(2, n, truth, rng)
        a_bits, b_bits = inst.sets[0], inst.sets[1]
        pca = reductions.build_pca(a_bits, b_bits)
        ts = top_singular(pca.matrix)
        expected_sigma = math.sqrt(2.0) if truth else 1.0
        worst_sigma = max(worst_sigma, abs(ts.sigma - expected_sigma))
        hit, idx = reductions.decide_pca(pca, rng, mode="sample")
        pca_correct += hit == truth
        if truth and hit:
            pca_correct -= 0 if idx == pca.truth else 1

        rec = reductions.build_recsys(a_bits, b_bits, level)
        rank_ok = rank_ok and rec.rank in (0, 1) and (rec.rank == 1) == truth
        decision, coord = reductions.decide_recsys(rec, rng)
        recsys_correct += decision == truth
        if rec.rank == 1:
            rank1_count += 1
            recovered += coord == rec.truth
        per_trial.append({"trial": t, "truth": truth, "sigma": ts.sigma,
                          "rank": rec.rank})

    checks = [
        CheckResult(
            name="top_singular_value_binary",
            passed=bool(worst_sigma <= 1e-9),
            detail=f"max |sigma - expected| = {_fmt(worst_sigma)} (tol 1e-9)",
        ),
        CheckResult(
            name="pca_sampling_decision",
            passed=bool(pca_correct == config.trials),
            detail=f"{pca_correct}/{config.trials} sampled decisions correct",
        ),
        CheckResult(
            name="truncation_rank_and_recovery",
            passed=bool(rank_ok and recovered == rank1_count
                        and recsys_correct == config.trials),
            detail=(f"rank in {{0,1}} matched truth on all trials; "
                    f"{recovered}/{rank1_count} coordinates recovered"),
        ),
    ]
    accuracy = (pca_correct + recsys_correct) / (2 * config.trials)
    return _report(config, checks, {"worst_sigma": worst_sigma}, per_trial,
                   accuracy=accuracy)


# --- experiment: Hamiltonian evolution ----------------------------------------------------

_IDENTITY_TOL = 1e-8     # Frobenius error of evolution against the signed Hadamard


def run_hamiltonian(config: ExperimentConfig) -> Report:
    p = config.params
    exhaustive_max_n, random_ns = p["exhaustive_max_n"], p["random_ns"]
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))

    worst_identity = 0.0
    checked = 0
    for n in range(1, exhaustive_max_n + 1):
        errors = reductions.hamiltonian_identity_errors_batch(
            n, reductions.all_sign_vectors(n))
        worst_identity = max(worst_identity, float(errors.max()))
        checked += errors.size
    for n in random_ns:
        fs = rng.choice((-1.0, 1.0), size=(config.trials, 2**n))
        errors = reductions.hamiltonian_identity_errors_batch(n, fs)
        worst_identity = max(worst_identity, float(errors.max()))
        checked += errors.size

    worst_op_norm = 0.0
    worst_fro = 0.0
    worst_law = 0.0
    for n in range(1, 9):
        build = reductions.build_hamiltonian(reductions.gen_function_pair(n, rng))
        sigma = float(np.linalg.norm(build.hamiltonian, 2))
        worst_op_norm = max(worst_op_norm, abs(sigma - 1.0))
        fro_sq = float(np.linalg.norm(build.hamiltonian) ** 2)
        expected_fro = 2.0 ** (n - 2) * (n + 1) / n
        worst_fro = max(worst_fro, abs(fro_sq - expected_fro))
        law = reductions.hamiltonian_evolved_law(build)
        worst_law = max(worst_law, float(np.abs(law - build.target_law).max()))

    checks = [
        CheckResult(
            name="evolution_equals_signed_hadamard",
            passed=bool(worst_identity <= _IDENTITY_TOL),
            detail=(f"max Frobenius error {_fmt(worst_identity)} over {checked} "
                    f"sign vectors (tol {_fmt(_IDENTITY_TOL)})"),
        ),
        CheckResult(
            name="generator_norms",
            passed=bool(worst_op_norm <= 1e-9 and worst_fro <= 1e-6),
            detail=(f"max |op norm - 1| = {_fmt(worst_op_norm)}, "
                    f"max Frobenius-sq error = {_fmt(worst_fro)}"),
        ),
        CheckResult(
            name="evolved_state_law",
            passed=bool(worst_law <= 1e-9),
            detail=f"max abs deviation from sign-correlation law {_fmt(worst_law)}",
        ),
    ]
    return _report(config, checks, {"instances_checked": checked}, [], trials=checked)


# --- experiment: oracle self-checks ---------------------------------------------------------

def run_oracle_properties(config: ExperimentConfig) -> Report:
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    checks = []

    worst = 0.0
    for _ in range(config.trials):
        m, n = int(rng.integers(3, 20)), int(rng.integers(3, 20))
        A = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        if rng.random() < 0.3:
            A[:, -1] = A[:, 0]              # force rank deficiency sometimes
        X = pseudoinverse(A)
        worst = max(
            worst,
            float(np.abs(A @ X @ A - A).max()),
            float(np.abs(X @ A @ X - X).max()),
            float(np.abs((A @ X).conj().T - A @ X).max()),
            float(np.abs((X @ A).conj().T - X @ A).max()),
        )
    checks.append(CheckResult(
        name="pseudoinverse_identities",
        passed=bool(worst <= 1e-8),
        detail=f"max Moore-Penrose residual {_fmt(worst)} (tol 1e-8)",
    ))

    worst = 0.0
    for n in range(1, 7):
        size = 2**n
        dense = reductions.hadamard_matrix(n)
        for _ in range(5):
            v = rng.normal(size=size)
            worst = max(worst, float(np.abs(hadamard_apply(n, v) - dense @ v).max()))
    checks.append(CheckResult(
        name="fast_transform_matches_dense",
        passed=bool(worst <= 1e-10),
        detail=f"max abs deviation {_fmt(worst)} for n <= 6 (tol 1e-10)",
    ))

    worst_unitary = 0.0
    worst_inverse = 0.0
    for _ in range(10):
        size = int(rng.integers(2, 24))
        M = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        H = (M + M.conj().T) / 2
        t = float(rng.uniform(0.1, 5.0))
        U = expm_hermitian(H, t)
        worst_unitary = max(worst_unitary,
                            float(np.abs(U @ U.conj().T - np.eye(size)).max()))
        worst_inverse = max(worst_inverse,
                            float(np.abs(expm_hermitian(H, -t) @ U - np.eye(size)).max()))
    checks.append(CheckResult(
        name="evolution_unitary_and_invertible",
        passed=bool(worst_unitary <= 1e-10 and worst_inverse <= 1e-10),
        detail=(f"max unitarity defect {_fmt(worst_unitary)}, "
                f"max inverse defect {_fmt(worst_inverse)}"),
    ))

    n = 5
    f = rng.choice((-1.0, 1.0), size=2**n)
    g = rng.choice((-1.0, 1.0), size=2**n)
    law = dsp_distribution(f, g)
    brute = np.empty(2**n)
    for y in range(2**n):
        acc = 0.0
        for x in range(2**n):
            acc += f[x] * g[x] * (-1) ** bin(x & y).count("1")
        brute[y] = (acc / 2**n) ** 2
    dev = float(np.abs(law - brute).max())
    checks.append(CheckResult(
        name="sign_correlation_law_brute_force",
        passed=bool(dev <= 1e-10 and abs(law.sum() - 1.0) <= 1e-9),
        detail=f"max abs deviation {_fmt(dev)}; total mass {law.sum():.12f}",
    ))

    diag = np.array([2.0, 1.2, 1.2, 0.5])
    A = np.diag(diag)
    kept = threshold_svd(A, 1.2)
    tie_ok = (np.linalg.matrix_rank(kept) == 3
              and float(np.abs(kept - np.diag([2.0, 1.2, 1.2, 0.0])).max()) <= 1e-12)
    ts = top_singular(np.diag([1.0, 1.0, 0.3]))
    sf = svd_factors(np.diag([3.0, 2.0, 0.0]))
    checks.append(CheckResult(
        name="truncation_ties_and_degeneracy",
        passed=bool(tie_ok and ts.degenerate and sf.rank == 2),
        detail="ties kept at the level; equal top values flagged; zero modes dropped",
    ))

    return _report(config, checks, {}, [])


# The one declaration of each experiment: runner, canonical seed and trials,
# and each param's canonical value and bounds (configs/*.json mirror it).
EXPERIMENTS = {
    "protocol_exactness": Experiment(run_protocol_exactness, 101, 50, {
        "max_players": Param(8, 2, _PLAYERS), "max_rows": Param(512, 2, _ROWS),
        "max_cols": Param(512, 1, _ROWS)}),
    "bit_fit": Experiment(run_bit_fit, 202, 1, {
        "k": Param(8, 1, _PLAYERS), "m": Param(256, 1, _ROWS), "n": Param(256, 1, _ROWS),
        "t_sweep": Param([10, 1000, 15], 1, MAX_COUNT, "sweep")}, _check_bit_fit),
    "oversampling": Experiment(run_oversampling, 303, 1000, {
        "max_players": Param(6, 2, _PLAYERS), "max_len": Param(64, 4, _ROWS),
        "rounds_draws": Param(10, 1, MAX_COUNT)}),
    "sparse_regression": Experiment(run_sparse_regression, 404, 200, {
        "k": Param(8, 2, _PLAYERS), "n": Param(64, 8, _ROWS),
        "num_samples": Param(10, 1, MAX_COUNT),
        "closed_form_instances": Param(100, 1, MAX_COUNT)}),
    "dense_regression": Experiment(run_dense_regression, 505, 25, {
        "exhaustive_max_n": Param(2, 1, 3),     # n = 4 would enumerate 2^32 pairs
        "random_ns": Param([3, 4, 5, 6, 7, 8], 1, reductions.DENSE_MAX_N, "ints"),
        "params_max_n": Param(10, 1, reductions.DENSE_MAX_N)}),
    "clustering": Experiment(run_clustering, 606, 500, {
        "ks": Param([1, 3, 5], 1, _PLAYERS, "ints", odd=True),
        "ds": Param([64, 256], 1, _ROWS, "ints")}),
    "pca_recsys": Experiment(run_pca_recsys, 707, 200, {
        "n": Param(64, 8, _ROWS),
        # strictly between the two possible top singular values
        "level": Param(1.2, 1.0, math.sqrt(2), "real")}),
    "hamiltonian": Experiment(run_hamiltonian, 808, 100, {
        "exhaustive_max_n": Param(4, 1, 4),     # at most 2^20 sign vectors
        "random_ns": Param([6, 8], 1, reductions.EVOLUTION_MAX_N, "ints")}),
    "oracle_properties": Experiment(run_oracle_properties, 909, 40, {}),
}


def default_config(name: str) -> ExperimentConfig:
    """Canonical config of each experiment, from its EXPERIMENTS entry."""
    if name not in EXPERIMENTS:
        raise ConfigError(f"experiment: unknown name {name!r}")
    entry = EXPERIMENTS[name]
    return parse_config({"experiment": name, "seed": entry.seed, "trials": entry.trials})
