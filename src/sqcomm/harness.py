"""Configuration-driven experiment runner.

A config (JSON file or dict) names an experiment, a mandatory seed, a trial
count, and experiment-specific parameters.  `run` executes the experiment and
returns a Report whose serialized form is a pure function of (config, seed):
wall-clock time is carried on the object for console display but excluded from
the bytes written to disk.

Experiments cover the protocol layer (exact law enumeration, bit-cost fits,
oversampled combinations) and the five reductions, plus a quick self-check of
the linear-algebra oracle.  Each experiment returns named checks; the CLI and
the acceptance tests consume the same results.  A check is a list of measured
terms, each a value against its bound, rendered by one `_check`: it passes iff
every term is met, and its detail prints the same values and bounds.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import operator
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _checks, comm_sim, reductions
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
    stack_layout,
)
from .linalg_oracle import (
    dsp_distribution,
    expm_hermitian,
    hadamard_apply,
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
)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid configuration; the message starts with the offending field path."""


class TooFewSamples(ValueError):
    """Not enough samples for a meaningful goodness-of-fit test."""


# --- statistics ------------------------------------------------------------------

def tv_distance(p, q) -> float:
    """Total variation distance (half the l1 distance) between two laws."""
    p = _checks.reals(p, "p")
    q = _checks.reals(q, "q")
    if p.shape != q.shape or p.ndim != 1:
        raise DimensionMismatch(f"shapes {p.shape} and {q.shape} differ")
    _check_law("p", p)
    _check_law("q", q)
    return 0.5 * float(np.abs(p - q).sum())


def _check_law(name: str, arr: np.ndarray) -> None:
    """A probability vector: finite, non-negative entries summing to 1."""
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has a non-finite entry")
    if (arr < 0).any():
        raise ValueError(f"{name} has a negative entry")
    if abs(arr.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} sums to {arr.sum()!r}, not 1")


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
    _checks.real(significance, 0, 1, "significance {!r} must lie in (0, 1)")
    counts = _checks.reals(counts, "counts")
    probs = _checks.reals(probs, "probs")
    if counts.shape != probs.shape or counts.ndim != 1:
        raise DimensionMismatch("counts and probs must be equal-length 1-d")
    _check_law("probs", probs)
    if not np.isfinite(counts).all():
        raise ValueError("counts has a non-finite entry")
    if (counts < 0).any():
        raise ValueError("counts has a negative entry")
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
    # chdtri(df, q) is the function scipy.stats.chi2.isf(q, df) evaluates;
    # imported here so that importing the package does not load scipy
    from scipy.special import chdtri

    statistic = float(((obs_arr - exp_arr) ** 2 / exp_arr).sum())
    critical = float(chdtri(df, significance))
    return ChiSquareResult(statistic=statistic, critical=critical, df=df,
                           passed=bool(statistic <= critical))


# --- configuration ----------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int
    trials: int
    params: dict

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "trials": self.trials,
            "params": dict(self.params),
        }


# caps of trials, counts and sweep stops; of player counts; of rows, columns, lengths
MAX_COUNT, _PLAYERS, _ROWS = 100000, 64, 4096


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
    an optional check of (params, trials) together that raises ConfigError."""

    runner: Callable
    seed: int
    trials: int
    params: dict
    check: Callable | None = None


def _check_int(path: str, value, low: int, high: int, odd: bool = False) -> int:
    value = _checks.count(value, low, high, f"{path}: must be a positive integer" if low == 1
                          else f"{path}: must be an integer >= {low}", ConfigError,
                          above=(ConfigError, f"{path}: {{}} exceeds cap {high}"))
    if odd and value % 2 == 0:
        raise ConfigError(f"{path}: {value} is not odd")
    return value


def sweep_values(sweep) -> list:
    """The counts of a checked [start, stop, step] sweep."""
    start, stop, step = sweep
    return list(range(start, stop + 1, step))


def _check_param(path: str, spec: Param, value):
    """The value of one supplied param, its integers as Python ints."""
    if spec.kind == "sweep":
        value = list(map(_checks.integer, value)) if isinstance(value, list) else []
        if len(value) != 3 or None in value:
            raise ConfigError(f"{path}: must be [start, stop, step] integers")
        start, stop, step = value
        if start < spec.low or stop < start or step < 1:
            raise ConfigError(f"{path}: {value} is not a range with {spec.low} <= start "
                              f"<= stop and step >= 1")
        if stop > spec.high:
            raise ConfigError(f"{path}: stop {stop} exceeds cap {spec.high}")
        return value
    if spec.kind == "real":
        _checks.real(value, spec.low, spec.high, f"{path}: must be a number in the open "
                     f"interval ({_fmt(spec.low)}, {_fmt(spec.high)})", ConfigError)
        return float(value)
    entries = value if spec.kind == "ints" else [value]
    if not (isinstance(entries, list) and entries):
        raise ConfigError(f"{path}: must be a list of one or more integers")
    entries = [_check_int(path, entry, spec.low, spec.high, spec.odd) for entry in entries]
    return entries if spec.kind == "ints" else entries[0]


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
    seed = _check_int("seed", obj["seed"], 0, math.inf)   # numpy seeds are nonnegative
    trials = _check_int("trials", obj.get("trials", 1), 1, MAX_COUNT)
    raw_params = obj.get("params", {})
    if not isinstance(raw_params, dict):
        raise ConfigError("params: must be an object")
    entry = EXPERIMENTS[name]
    specs = entry.params
    params = {key: copy.deepcopy(spec.value) for key, spec in specs.items()}
    for key, value in raw_params.items():
        if key not in specs:
            raise ConfigError(f"params.{key}: unknown field")
        params[key] = _check_param(f"params.{key}", specs[key], value)
    unknown = set(obj) - {"experiment", "seed", "trials", "params"}
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown field")
    if entry.check is not None:
        entry.check(params, trials)
    return ExperimentConfig(experiment=name, seed=seed, trials=trials, params=params)


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


_RULES = {"<=": operator.le, ">=": operator.ge, ">": operator.gt}


def _check(name: str, text: str, *terms, **fields) -> CheckResult:
    """The one constructor of a check.  A term is (value, bound), met when
    value <= bound, or (value, rule, bound) with rule ">=" or ">"; a nan
    meets no bound.  The check passes iff every term is met.  Its detail is
    `text.format` with term t's value and bound as {vt} and {bt} in _fmt
    form and `fields` verbatim (exact counts, and numbers with a format of
    their own)."""
    passed = True
    for t, term in enumerate(terms):
        value, rule, bound = term if len(term) == 3 else (term[0], "<=", term[1])
        passed &= bool(_RULES[rule](value, bound))
        fields[f"v{t}"], fields[f"b{t}"] = _fmt(value), _fmt(bound)
    return CheckResult(name=name, passed=passed, detail=text.format(**fields))


def _worst(*values) -> float:
    """The largest residual as a Python float, nan if any is nan: Python's
    max keeps a nan only in first place (max(0.0, nan) is 0.0), which would
    let a nan residual read PASS."""
    return math.nan if any(math.isnan(v) for v in values) else float(max(values))


# --- experiment: protocol exactness (stacked access laws) ---------------------------

def _random_partitioned_session(rng, max_k: int, max_rows: int, max_cols: int) -> Session:
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

    return open_session_blocks(k, cut(m, rows=True), cut(m))


def _exactness_deviation(session: Session, rng) -> float:
    A, b = assemble_stacked(session)
    law = protocol_distribution(session, "b_sample")
    worst = float(np.abs(law - exact_distribution(build_sq_vector(b))).max())
    row_sq = np.abs(A) ** 2
    row_mass = row_sq.sum(axis=1)
    law = protocol_distribution(session, "row_norm_sample")
    worst = _worst(worst, float(np.abs(law - row_mass / row_mass.sum()).max()))
    nonzero_rows = np.flatnonzero(row_mass > 0)
    picks = rng.choice(nonzero_rows, size=min(3, nonzero_rows.size), replace=False)
    for i in picks:
        law = protocol_distribution(session, ("row_sample", int(i)))
        worst = _worst(worst, float(np.abs(law - row_sq[i] / row_mass[i]).max()))
    return worst


_EXACTNESS_TOL = 1e-12    # max abs deviation of a stacked law from the centralized one


def run_protocol_exactness(config: ExperimentConfig) -> Report:
    p = config.params
    max_k, max_rows, max_cols = p["max_players"], p["max_rows"], p["max_cols"]
    rngs = _trial_rngs(config.seed, config.trials)
    worst = 0.0
    per_trial = []
    for t, rng in enumerate(rngs):
        # a trial's session is freed before the next one opens and builds its handles
        dev = _exactness_deviation(_random_partitioned_session(rng, max_k, max_rows, max_cols),
                                   rng)
        worst = _worst(worst, dev)
        per_trial.append({"trial": t, "deviation": dev})
    checks = [_check("stacked_laws_match_centralized",
                     "max abs deviation {v0} over {trials} partitions (tol {b0})",
                     (worst, _EXACTNESS_TOL), trials=config.trials)]
    return _report(config, checks, {"max_deviation": worst}, per_trial)


# --- experiment: bit-cost law -------------------------------------------------------

_R2_FLOOR = 0.999   # pass rule of the bit-cost fit
_COEF_CAP = 4.0


def sweep_session(k: int, m: int, n: int, rng) -> Session:
    """The generic bit-fit session: k players split m rows of an m x n matrix
    and of a vector, all rows player-owned and nonzero, so every access costs
    the same."""
    bounds = np.linspace(0, m, k + 1).astype(int)
    a_blocks, b_blocks = [], []
    for i in range(k):
        lo, hi = bounds[i], bounds[i + 1]
        a_blocks.append((i, rng.normal(size=(hi - lo, n)) + 0.1))
        b_blocks.append((i, rng.normal(size=hi - lo) + 0.1))
    return open_session_blocks(k, a_blocks, b_blocks)


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


def bit_sweep(make_session, mix, t_values, seed: int):
    """The running bit totals of one session `make_session(rng)`, read after
    its setups and first T accesses for each T of the ascending `t_values`,
    step i making access mix[i % len(mix)]; then the fit at the session's
    widths (`session.encoding`).  `mix` is a tuple of _ACCESSES names or a
    function of the session that returns one.  Returns (totals, fit, k)."""
    rng = _trial_rngs(seed, 1)[0]
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
    totals = []
    for done, t_accesses in zip([0, *t_values], t_values):
        for i in range(done, t_accesses):
            steps[i % len(steps)](session, rng, i, rows, b_idx)
        totals.append(session.meter.total_bits)
    fit = fit_bit_costs(session.k, t_values, totals, session.encoding,
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


def fit_checks(fit: dict, t_start: int, t_stop: int) -> list:
    """The bit-fit checks, of the experiment and of `sqcomm fit-bits`: R^2
    above the floor over T in [t_start, t_stop], and c0 and c1 in [0, cap]."""
    c0, c1 = fit["c0"], fit["c1"]
    return [
        _check("bit_total_linear_in_accesses", "R^2 = {r2:.9f} over T in [{start}, {stop}]",
               (fit["r_squared"], ">", _R2_FLOOR), r2=fit["r_squared"], start=t_start,
               stop=t_stop),
        _check("fit_coefficients_bounded", "c0 = {v0}, c1 = {v1} (cap {cap})",
               (c0, _COEF_CAP), (c1, _COEF_CAP), (c0, ">=", 0.0), (c1, ">=", 0.0),
               cap=_COEF_CAP),
    ]


# bit_fit's access mix.  Every mix of `sqcomm fit-bits` has as many accesses,
# so one t_sweep rule serves both: the bits grow by a constant per whole cycle
# of the mix, not per access.
_BIT_FIT_MIX = ("b_sample", "b_query", "row_norm_sample", "row_sample", "entry_query")


def access_mix(session) -> tuple:
    """Five accesses with a layout-constant bit cost, picked from the layout."""
    if not session.b_blocks:
        return ("entry_query", "row_norm_query", "row_sample", "frobenius_query",
                "row_norm_sample")
    public_b = any(bl.owner == comm_sim.PUBLIC for bl in session.b_blocks)
    return ("b_query", "entry_query", "row_norm_query", "row_sample",
            "b_query_next" if public_b else "b_sample")


# The layouts `sqcomm fit-bits --reduction` sweeps under `access_mix`: name ->
# session built from the bit_fit params and a Generator.  Only "generic" reads
# the params; each reduction is built at a fixed size.
SWEEP_LAYOUTS = {
    "generic": lambda p, rng: sweep_session(p["k"], p["m"], p["n"], rng),
    "sparse": lambda p, rng: reductions.build_regression_sparse(
        reductions.gen_disjointness(8, 64, True, rng)).session,
    "dense": lambda p, rng: reductions.build_regression_dense(
        reductions.gen_function_pair(6, rng)).session,
    "clustering": lambda p, rng: reductions.build_clustering(
        reductions.gen_gap_hamming(5, 64, 1, rng)).session,
    "pca": lambda p, rng: reductions.build_pca(
        *reductions.gen_disjointness(2, 64, True, rng).sets).session,
    "hamiltonian": lambda p, rng: reductions.build_hamiltonian(
        reductions.gen_function_pair(6, rng)).session,
}


def _check_bit_fit(p: dict, trials: int) -> None:
    if trials != 1:     # one sweep, whose T values are the report's trials
        raise ConfigError(f"trials: bit_fit runs one sweep, so trials must be 1, not {trials}")
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
    totals, fit, _ = bit_sweep(lambda rng: SWEEP_LAYOUTS["generic"](p, rng), _BIT_FIT_MIX,
                               t_values, config.seed)
    per_trial = [{"t": t, "total_bits": total} for t, total in zip(t_values, totals)]
    return _report(config, fit_checks(fit, t_start, t_stop),
                   {"t_values": t_values, "totals": totals}, per_trial,
                   trials=len(t_values), bits_mean=float(np.mean(totals)),
                   bits_max=int(max(totals)), fit=fit)


# --- experiment: oversampled linear combinations ------------------------------------

def _random_lincomb_session(rng, max_players: int, max_len: int):
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
    session = open_session_blocks(k, [], [(i, v) for i, v in enumerate(parts)])
    coord_b_setup(session)
    return session, np.asarray(mu), parts


_OVERSAMPLING_TOL = 1e-9       # norm identity and entrywise domination
_REJECTION_LAW_TOL = 1e-12     # enumerated rejection law against the target law
_PHI_CAP = 8.0                 # rounds are drawn only for combinations with phi <= cap
_ROUNDS_SLACK = 0.10           # relative error of the mean rounds against phi


def run_oversampling(config: ExperimentConfig) -> Report:
    p = config.params
    max_players, max_len, rounds_draws = p["max_players"], p["max_len"], p["rounds_draws"]
    rngs = _trial_rngs(config.seed, config.trials)

    worst_norm_identity = worst_domination = worst_law = 0.0
    rounds_total = phi_total = 0.0
    qualifying = 0
    per_trial = []
    for t, rng in enumerate(rngs):
        session, mu, parts = _random_lincomb_session(rng, max_players, max_len)
        k = session.k
        combined = sum(c * v for c, v in zip(mu, parts))
        dominator = np.sqrt(k * sum(np.abs(c * v) ** 2 for c, v in zip(mu, parts)))
        phi = lincomb_b_phi(session, mu)

        # norm identity and entrywise domination, against the protocol's phi
        lhs = float(dominator @ dominator)
        rhs = phi * float(combined @ combined)
        scale = max(lhs, 1.0)
        worst_norm_identity = _worst(worst_norm_identity, abs(lhs - rhs) / scale)
        slack = float((np.abs(combined) - dominator).max())
        worst_domination = _worst(worst_domination, slack)

        # enumerated rejection law: dominator law times acceptance ratios
        dom_law = protocol_distribution(session, ("lincomb_b_dominator", mu))
        ratios = np.zeros_like(dom_law)
        mask = dominator > 0
        ratios[mask] = np.abs(combined[mask]) ** 2 / dominator[mask] ** 2
        accept_law = dom_law * ratios
        accept_law = accept_law / accept_law.sum()
        target = exact_distribution(build_sq_vector(combined))
        worst_law = _worst(worst_law, float(np.abs(accept_law - target).max()))

        row = {"trial": t, "k": k, "phi": phi}
        if phi <= _PHI_CAP:
            qualifying += 1
            phi_total += phi * rounds_draws
            spent = 0
            for _ in range(rounds_draws):
                try:
                    sample, _bits = lincomb_b_access(
                        session, mu, "sq_sample_via_rejection", rng)
                    spent += sample.rounds
                except Timeout as err:
                    spent += err.rounds   # the draw still consumed every round
            rounds_total += spent
            row["mean_rounds"] = spent / rounds_draws
        per_trial.append(row)

    rounds_ratio = rounds_total / phi_total if phi_total else 1.0
    checks = [
        _check("dominator_norm_identity", "max relative error {v0} (tol {b0})",
               (worst_norm_identity, _OVERSAMPLING_TOL)),
        _check("entrywise_domination", "max violation {v0} (tol {b0})",
               (worst_domination, _OVERSAMPLING_TOL)),
        _check("rejection_law_exact", "max abs deviation {v0} (tol {b0})",
               (worst_law, _REJECTION_LAW_TOL)),
        # with no combination under the cap there are no rounds to compare,
        # and the check fails rather than pass over nothing
        _check("mean_rounds_tracks_phi", "observed/expected rounds = {ratio:.4f} over "
               "{qualifying} combinations with phi <= {cap}",
               (abs(rounds_ratio - 1.0), _ROUNDS_SLACK), (qualifying, ">", 0),
               ratio=rounds_ratio, qualifying=qualifying, cap=_PHI_CAP),
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
        A, b = stack_layout(*build.layout)     # no session: nothing here is metered
        dev = float(np.abs(pinv_solve(A, b) - build.x_star).max())
        worst_closed_form = _worst(worst_closed_form, dev)

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
        _check("closed_form_matches_pinv",
               "max abs deviation {v0} over {instances} instances (tol {b0})",
               (worst_closed_form, _CLOSED_FORM_TOL), instances=closed_form_instances),
        _check("disjointness_decision_accuracy",
               "{correct}/{trials} correct (accuracy {accuracy:.4f})",
               (accuracy, ">=", _ACCURACY_FLOOR), correct=correct, trials=config.trials,
               accuracy=accuracy),
    ]
    return _report(config, checks, {"worst_closed_form": worst_closed_form}, per_trial,
                   accuracy=accuracy, bits_mean=float(np.mean(bits)), bits_max=int(max(bits)))


# --- experiment: dense regression -----------------------------------------------------

_DENSE_LAW_TOL = 1e-9     # solution law against the sign-correlation law
_CONDITION_TOL = 1e-9     # kappa_F^2 against 2^n and kappa against 1


def _condition_numbers(A: np.ndarray) -> tuple[float, float]:
    """(kappa, kappa_F) of a square A from its singular values alone and its
    Frobenius norm: a generic route apart from `params`, which takes the full
    SVD with vectors and solves the system as well.  A singular A reads
    infinite, so its check fails instead of stopping the run."""
    s = np.linalg.svd(A, compute_uv=False)
    sigma_min = float(s[-1])
    if sigma_min == 0.0:
        return math.inf, math.inf
    return float(s[0]) / sigma_min, float(np.linalg.norm(A)) / sigma_min


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
        worst_law = _worst(worst_law, float(np.abs(law - build.target_law).max()))
        worst_tv = _worst(worst_tv, tv_distance(law, build.target_law))
        count += 1

    worst_kf = worst_kappa = 0.0
    for n in range(1, params_max_n + 1):
        build = reductions.build_regression_dense(reductions.gen_function_pair(n, rng))
        kappa, kappa_F = _condition_numbers(build.matrix)
        worst_kf = _worst(worst_kf, abs(kappa_F**2 - 2**n))
        worst_kappa = _worst(worst_kappa, abs(kappa - 1.0))

    checks = [
        # the TV distance is reported, not bounded
        _check("solution_law_matches_sign_correlation",
               "max abs deviation {v0} over {count} pairs (TV max {v1}, tol {b0})",
               (worst_law, _DENSE_LAW_TOL), (worst_tv, math.inf), count=count),
        _check("condition_numbers",
               "max |kappa_F^2 - 2^n| = {v0}, max |kappa - 1| = {v1} for n <= {max_n}",
               (worst_kf, _CONDITION_TOL), (worst_kappa, _CONDITION_TOL), max_n=params_max_n),
    ]
    return _report(config, checks, {"tv_max": worst_tv, "pairs_checked": count}, [],
                   trials=count)


# --- experiment: clustering ------------------------------------------------------------

_CENTROID_TOL = 1e-10     # weighted row combination against the centroid distance
_NORM_TOL = 1e-12         # Frobenius and vector norms against their closed forms

def run_clustering(config: ExperimentConfig) -> Report:
    p = config.params
    ks, ds = p["ks"], p["ds"]
    rngs = _trial_rngs(config.seed, config.trials)

    worst_dist = worst_fro = worst_b = 0.0
    correct = 0
    per_trial = []
    for t, rng in enumerate(rngs):
        k = int(rng.choice(ks))
        d = int(rng.choice(ds))
        sign = int(rng.choice((1, -1)))
        inst = reductions.gen_gap_hamming(k, d, sign, rng)
        build = reductions.build_clustering(inst)
        worst_dist = _worst(worst_dist, abs(build.bta_sq - build.distance_sq))
        worst_fro = _worst(worst_fro, abs(build.fro_sq - 2.0))
        worst_b = _worst(worst_b, abs(build.b_sq - 2.0 * build.alpha**2 * d))
        decision = reductions.decide_clustering(build)
        correct += decision == sign
        per_trial.append({"trial": t, "k": k, "d": d, "sign": sign,
                          "decision": decision})
    accuracy = correct / config.trials
    checks = [
        _check("weighted_row_combination_is_centroid_distance",
               "max abs deviation {v0} (tol {b0})", (worst_dist, _CENTROID_TOL)),
        _check("norm_identities", "max |fro^2 - 2| = {v0}, max vector-norm error = {v1}",
               (worst_fro, _NORM_TOL), (worst_b, _NORM_TOL)),
        _check("threshold_separates_promise_branches",
               "{correct}/{trials} branches decided correctly",
               (correct, ">=", config.trials), correct=correct, trials=config.trials),
    ]
    return _report(config, checks, {"worst_distance_error": worst_dist}, per_trial,
                   accuracy=accuracy)


# --- experiment: PCA and thresholded projection ------------------------------------------

_SIGMA_TOL = 1e-9     # top singular value against sqrt(2) or 1

def run_pca_recsys(config: ExperimentConfig) -> Report:
    p = config.params
    n, level = p["n"], p["level"]
    rngs = _trial_rngs(config.seed, config.trials)

    worst_sigma = 0.0
    rank_wrong = pca_correct = recsys_correct = recovered = rank1_count = 0
    per_trial = []
    for t, rng in enumerate(rngs):
        truth = bool(rng.random() < 0.5)
        inst = reductions.gen_disjointness(2, n, truth, rng)
        pca = reductions.build_pca(inst.sets[0], inst.sets[1])
        ts = pca.factors.top()
        expected_sigma = math.sqrt(2.0) if truth else 1.0
        worst_sigma = _worst(worst_sigma, abs(ts.sigma - expected_sigma))
        hit, idx = reductions.decide_pca(pca, rng)
        pca_correct += hit == truth and (not hit or idx == pca.truth)

        rec = reductions.build_recsys(pca, level)
        rank_wrong += not (rec.rank in (0, 1) and (rec.rank == 1) == truth)
        decision, coord = reductions.decide_recsys(rec, rng)
        recsys_correct += decision == truth
        if rec.rank == 1:
            rank1_count += 1
            recovered += coord == rec.truth
        per_trial.append({"trial": t, "truth": truth, "sigma": ts.sigma,
                          "rank": rec.rank})

    faults = ((rank_wrong, "rank mismatches"), (rank1_count - recovered, "coordinates missed"),
              (config.trials - recsys_correct, "wrong recsys decisions"))
    checks = [
        _check("top_singular_value_binary", "max |sigma - expected| = {v0} (tol 1e-9)",
               (worst_sigma, _SIGMA_TOL)),
        _check("pca_sampling_decision", "{correct}/{trials} sampled decisions correct",
               (pca_correct, ">=", config.trials), correct=pca_correct, trials=config.trials),
        _check("truncation_rank_and_recovery", "rank in {{0,1}} matched truth on all trials; "
               "{recovered}/{rank1} coordinates recovered{faults}",
               *((count, 0) for count, _ in faults), recovered=recovered, rank1=rank1_count,
               faults="".join(f"; {count} {what}" for count, what in faults if count)),
    ]
    accuracy = (pca_correct + recsys_correct) / (2 * config.trials)
    return _report(config, checks, {"worst_sigma": worst_sigma}, per_trial,
                   accuracy=accuracy)


# --- experiment: Hamiltonian evolution ----------------------------------------------------

_IDENTITY_TOL = 1e-8     # Frobenius error of evolution against the signed Hadamard
_IDENTITY_SAMPLE = 256   # sign vectors evolved one by one at each exhaustive n
# generator operator norm against 1, Frobenius norm squared against
# 2^(n-2)(n+1)/n, and the evolved law against the sign-correlation law
_OP_NORM_TOL, _FRO_SQ_TOL, _EVOLVED_LAW_TOL = 1e-9, 1e-6, 1e-9


def run_hamiltonian(config: ExperimentConfig) -> Report:
    """Check that evolving each sign vector's generator for time n*pi gives its
    signed Hadamard target, then the generator norms and the evolved law.

    Every sign vector at n = 1..exhaustive_max_n (65,812 of the canonical
    66,012, n <= 4) is certified by conjugation: its generator and target are
    checked to be exactly diag(f) conjugates of the unsigned ones, and one
    evolution of the unsigned generator gives the error they all share.  The
    independent per-instance route evolves every vector at n <= 3, 256 drawn
    without replacement at n = 4, and the trials random vectors at each of
    random_ns (100 each at n = 6 and 8).  The n = 4 draws come from a stream
    of their own, seeded (seed, 1), which leaves the config stream to the
    random_ns vectors and the function pairs.
    """
    p = config.params
    exhaustive_max_n, random_ns = p["exhaustive_max_n"], p["random_ns"]
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    sample_rng = np.random.default_rng([config.seed, 1])

    mismatches = checked = 0
    errors = []
    for n in range(1, exhaustive_max_n + 1):
        fs = reductions.all_sign_vectors(n)
        checked += len(fs)
        bad, residual = reductions.hamiltonian_conjugation_sweep(n, fs)
        mismatches += bad
        errors.append(residual)
        if len(fs) > _IDENTITY_SAMPLE:
            fs = fs[sample_rng.choice(len(fs), _IDENTITY_SAMPLE, replace=False)]
        errors.extend(reductions.hamiltonian_identity_errors_batch(n, fs))
    for n in random_ns:
        fs = rng.choice((-1.0, 1.0), size=(config.trials, 2**n))
        checked += len(fs)
        errors.extend(reductions.hamiltonian_identity_errors_batch(n, fs))
    worst_identity = _worst(*errors)

    worst_op_norm = worst_fro = worst_law = 0.0
    for n in range(1, 9):
        build = reductions.build_hamiltonian(reductions.gen_function_pair(n, rng))
        sigma = float(np.linalg.norm(build.hamiltonian, 2))
        worst_op_norm = _worst(worst_op_norm, abs(sigma - 1.0))
        fro_sq = float(np.linalg.norm(build.hamiltonian) ** 2)
        expected_fro = 2.0 ** (n - 2) * (n + 1) / n
        worst_fro = _worst(worst_fro, abs(fro_sq - expected_fro))
        law = reductions.hamiltonian_evolved_law(build)
        worst_law = _worst(worst_law, float(np.abs(law - build.target_law).max()))

    checks = [
        _check("evolution_equals_signed_hadamard",
               "max Frobenius error {v0} over {checked} sign vectors (tol {b0}){faults}",
               (worst_identity, _IDENTITY_TOL), (mismatches, 0), checked=checked,
               faults=(f"; {mismatches} generators or targets not the exact sign conjugates"
                       if mismatches else "")),
        _check("generator_norms", "max |op norm - 1| = {v0}, max Frobenius-sq error = {v1}",
               (worst_op_norm, _OP_NORM_TOL), (worst_fro, _FRO_SQ_TOL)),
        _check("evolved_state_law", "max abs deviation from sign-correlation law {v0}",
               (worst_law, _EVOLVED_LAW_TOL)),
    ]
    return _report(config, checks, {"instances_checked": checked}, [], trials=checked)


# --- experiment: oracle self-checks ---------------------------------------------------------

# Moore-Penrose residual; fast transform, evolution unitarity and inverse,
# and brute-force law; the law's total mass; a kept singular value at a tie
_PINV_TOL, _ORACLE_TOL, _MASS_TOL, _TIE_TOL = 1e-8, 1e-10, 1e-9, 1e-12

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
        worst = _worst(
            worst,
            float(np.abs(A @ X @ A - A).max()),
            float(np.abs(X @ A @ X - X).max()),
            float(np.abs((A @ X).conj().T - A @ X).max()),
            float(np.abs((X @ A).conj().T - X @ A).max()),
        )
    checks.append(_check("pseudoinverse_identities",
                         "max Moore-Penrose residual {v0} (tol 1e-8)", (worst, _PINV_TOL)))

    worst = 0.0
    for n in range(1, 7):
        size = 2**n
        dense = reductions.hadamard_matrix(n)
        for _ in range(5):
            v = rng.normal(size=size)
            worst = _worst(worst, float(np.abs(hadamard_apply(n, v) - dense @ v).max()))
    checks.append(_check("fast_transform_matches_dense",
                         "max abs deviation {v0} for n <= 6 (tol {b0})", (worst, _ORACLE_TOL)))

    worst_unitary = worst_inverse = 0.0
    for _ in range(10):
        size = int(rng.integers(2, 24))
        M = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        H = (M + M.conj().T) / 2
        t = float(rng.uniform(0.1, 5.0))
        U = expm_hermitian(H, t)
        worst_unitary = _worst(worst_unitary,
                               float(np.abs(U @ U.conj().T - np.eye(size)).max()))
        worst_inverse = _worst(worst_inverse,
                               float(np.abs(expm_hermitian(H, -t) @ U - np.eye(size)).max()))
    checks.append(_check("evolution_unitary_and_invertible",
                         "max unitarity defect {v0}, max inverse defect {v1}",
                         (worst_unitary, _ORACLE_TOL), (worst_inverse, _ORACLE_TOL)))

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
    checks.append(_check("sign_correlation_law_brute_force",
                         "max abs deviation {v0}; total mass {mass:.12f}",
                         (float(np.abs(law - brute).max()), _ORACLE_TOL),
                         (abs(law.sum() - 1.0), _MASS_TOL), mass=law.sum()))

    diag = np.array([2.0, 1.2, 1.2, 0.5])
    A = np.diag(diag)
    kept = threshold_svd(A, 1.2)
    tie_ok = (np.linalg.matrix_rank(kept) == 3
              and float(np.abs(kept - np.diag([2.0, 1.2, 1.2, 0.0])).max()) <= _TIE_TOL)
    ts = top_singular(np.diag([1.0, 1.0, 0.3]))
    sf = svd_factors(np.diag([3.0, 2.0, 0.0]))
    failed = [what for what, ok in (("tie", tie_ok), ("degeneracy", ts.degenerate),
                                    ("rank", sf.rank == 2)) if not ok]
    checks.append(_check("truncation_ties_and_degeneracy", "ties kept at the level; equal "
                         "top values flagged; zero modes dropped{faults}", (len(failed), 0),
                         faults=f"; failed: {', '.join(failed)}" if failed else ""))

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
