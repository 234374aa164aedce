"""Sampling-and-query (SQ) access to vectors and matrices.

An SQ handle on a vector v supports three operations: query an entry, query the
l2 norm, and draw an index i with probability |v_i|^2 / ||v||^2.  A matrix handle
is one 2-D table (entries, squared magnitudes, per-row cumulative sums) plus an
SQ handle on the vector of row norms; a row handle is a view into that table.
An oversampled handle relaxes sampling to a dominating vector and recovers the
true law by rejection; the one rejection loop here also serves comm_sim's
linear-combination access.

Complex entries are supported throughout; real input stays real.  All handles
are immutable after construction and hold no RNG state: every sampling operation
takes a caller-owned numpy Generator, or (`sq_sample_at`) a uniform already
drawn from one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class AllZero(ValueError):
    """Raised when an all-zero vector or matrix cannot carry an l2 sampling law."""


class IndexOutOfRange(IndexError):
    """Raised for an entry query outside [0, n)."""


class Timeout(RuntimeError):
    """Raised when rejection sampling exhausts its round budget."""


def _table(values, ndim: int):
    """A nonempty float64 (or complex128) copy of `values` with `ndim` axes,
    its squared magnitudes and their total; raises ValueError on a nan or
    infinite entry and when the total overflows."""
    arr = np.asarray(values)
    if arr.ndim != ndim or arr.size == 0:
        raise ValueError("expected a nonempty 1-d vector" if ndim == 1
                         else "expected a nonempty 2-d matrix")
    arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64)
    weights = np.abs(arr) ** 2
    total = float(weights.sum())   # finite iff every entry is and nothing overflows
    if not math.isfinite(total):
        if not np.isfinite(arr).all():
            raise ValueError("entries must be finite (found nan or inf)")
        raise ValueError("squared magnitudes overflow: their total is not finite")
    return arr, weights, total


@dataclass(frozen=True, eq=False)
class SqVector:
    """Immutable SQ handle: values, norm, and a cumulative-sum sampling table."""

    values: np.ndarray
    norm: float
    weights: np.ndarray          # exact bucket masses |v_i|^2
    cum: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.values.size


def build_sq_vector(values) -> SqVector:
    """Build an SQ handle in O(n). Raises AllZero for the zero vector and
    ValueError for a non-finite entry or an overflowing squared norm."""
    arr, weights, total = _table(values, 1)
    if total == 0.0:
        raise AllZero("cannot build an l2 sampling law on the zero vector")
    return SqVector(
        values=arr,
        norm=math.sqrt(total),
        weights=weights,
        cum=np.cumsum(weights),
    )


def sq_query(v: SqVector, i: int):
    """Entry query. 0-based; no negative indexing."""
    if not 0 <= i < v.n:
        raise IndexOutOfRange(f"index {i} outside [0, {v.n})")
    return v.values[i].item()


def sq_norm(v: SqVector) -> float:
    return v.norm


def _last_nonzero(weights: np.ndarray) -> int:
    return int(np.flatnonzero(weights)[-1])


def sq_sample_at(v: SqVector, r: float) -> int:
    """The index a uniform r in [0, 1) selects under v's l2 law: the first i
    whose cumulative mass exceeds r times the total.  A uniform r gives index
    i with probability weights[i] / sum(weights); zero-mass buckets are never
    returned."""
    if not 0.0 <= r < 1.0:
        raise ValueError(f"uniform {r!r} outside [0, 1)")
    u = r * v.cum[-1]
    idx = int(np.searchsorted(v.cum, u, side="right"))
    if idx >= v.n:
        # u rounded up onto the total mass; land in the last populated bucket
        idx = _last_nonzero(v.weights)
    return idx


def sq_sample(v: SqVector, rng: np.random.Generator) -> int:
    """Draw one index with probability weights[i] / sum(weights): one uniform
    from rng, mapped by sq_sample_at."""
    return sq_sample_at(v, rng.random())


def sq_sample_many(v: SqVector, size: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized sq_sample: `size` iid draws as an int array."""
    u = rng.random(size) * v.cum[-1]
    idx = np.searchsorted(v.cum, u, side="right")
    bad = idx >= v.n
    if bad.any():
        idx[bad] = _last_nonzero(v.weights)
    return idx.astype(np.int64)


def exact_distribution(v: SqVector) -> np.ndarray:
    """The sampling law as a probability vector (no RNG involved)."""
    return v.weights / v.weights.sum()


@dataclass(frozen=True, eq=False)
class SqMatrix:
    """SQ handle on a matrix: one m x n table plus the row-norm vector handle.

    `weights` holds |A_ij|^2 and `cum` its cumulative sums along each row, so
    row i is a ready sampling table.  Zero rows are legal inside a nonzero
    matrix; row_norm_vector gives them zero mass, so two-stage sampling never
    lands there.
    """

    values: np.ndarray
    weights: np.ndarray
    cum: np.ndarray = field(repr=False)
    row_norm_vector: SqVector

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def m(self) -> int:
        return self.shape[0]

    @property
    def n(self) -> int:
        return self.shape[1]


def build_sq_matrix(matrix) -> SqMatrix:
    """Build the table and the row-norm handle in O(mn). Raises AllZero if
    M = 0 and ValueError for a non-finite entry or an overflowing squared
    Frobenius norm."""
    arr, weights, total = _table(matrix, 2)
    if total == 0.0:
        raise AllZero("cannot build an l2 sampling law on the zero matrix")
    row_sq = weights.sum(axis=1)
    return SqMatrix(values=arr, weights=weights, cum=np.cumsum(weights, axis=1),
                    row_norm_vector=build_sq_vector(np.sqrt(row_sq)))


def sq_row(m: SqMatrix, i: int) -> SqVector:
    """Handle for row i, a view into the table. Raises AllZero for a zero row,
    IndexOutOfRange off the end."""
    if not 0 <= i < m.m:
        raise IndexOutOfRange(f"row {i} outside [0, {m.m})")
    norm = float(m.row_norm_vector.values[i])
    if norm == 0.0:
        raise AllZero(f"row {i} is identically zero")
    return SqVector(values=m.values[i], norm=norm, weights=m.weights[i], cum=m.cum[i])


# --- oversampled access -----------------------------------------------------

@dataclass(frozen=True, eq=False)
class OversampleAccess:
    """Exact queries to a target vector plus SQ access to a dominating vector.

    dominator entry magnitudes bound the target's entrywise, and
    dominator.norm^2 == phi * ||target||^2 by construction.
    """

    target: np.ndarray
    dominator: SqVector
    phi: float

    def query(self, i: int):
        if not 0 <= i < self.target.size:
            raise IndexOutOfRange(f"index {i} outside [0, {self.target.size})")
        return self.target[i].item()

    @property
    def n(self) -> int:
        return self.target.size


def build_oversample(target, dominator) -> OversampleAccess:
    """Validate entrywise domination and compute phi = ||dom||^2 / ||target||^2."""
    tgt, t_w, total = _table(target, 1)
    dom = build_sq_vector(dominator)
    if tgt.size != dom.n:
        raise ValueError("target and dominator lengths differ")
    if total == 0.0:
        raise AllZero("target vector is identically zero")
    # strict mathematical domination, with float slack for equality cases
    if np.any(t_w > dom.weights * (1 + 1e-9) + 1e-300):
        raise ValueError("dominator does not cover the target entrywise")
    phi = float(dom.norm**2 / total)
    return OversampleAccess(target=tgt, dominator=dom, phi=phi)


def rejection_round_cap(phi: float, delta: float) -> int:
    """Round budget guaranteeing failure probability <= delta.

    Per-round acceptance probability is exactly 1/phi, so
    (1 - 1/phi)^cap <= exp(-cap/phi) <= delta at cap = ceil(phi ln(1/delta)) + 1.
    """
    return int(math.ceil(phi * math.log(1.0 / delta))) + 1


@dataclass(frozen=True)
class RejectionSample:
    index: int
    rounds: int

    @property
    def dominator_samples(self) -> int:
        return self.rounds

    @property
    def target_queries(self) -> int:
        return self.rounds


def _check_delta(delta: float) -> None:
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")


def _rejection_loop(one_round, get_phi, delta: float, rng: np.random.Generator):
    """The one rejection loop behind every oversampled draw.

    one_round() draws a dominator index j and returns (j, |target_j|^2 /
    |dom_j|^2 or None where dom_j is zero, bits spent); each round with a
    ratio draws one accept uniform from rng.  get_phi() is called once delta
    is known to be valid, and its phi sets the round cap.  Returns (RejectionSample,
    bits); raises Timeout after the cap (probability <= delta).
    """
    _check_delta(delta)
    phi = get_phi()
    cap = rejection_round_cap(phi, delta)
    bits = 0
    for rounds in range(1, cap + 1):
        j, ratio, cost = one_round()
        bits += cost
        if ratio is not None and rng.random() < ratio:
            return RejectionSample(index=j, rounds=rounds), bits
    raise Timeout(f"no acceptance within {cap} rounds (phi={phi:.3g}, delta={delta:g})")


def rejection_sample(ov: OversampleAccess, delta: float, rng: np.random.Generator) -> RejectionSample:
    """Sample an index under the target's l2 law via the dominator.

    Each round draws from the dominator and accepts with |target_j|^2/|dom_j|^2;
    conditioned on acceptance the index follows the target law. Raises Timeout
    after the round cap (probability <= delta).
    """
    t_w = np.abs(ov.target) ** 2

    def one_round():
        j = sq_sample(ov.dominator, rng)
        return j, t_w[j] / ov.dominator.weights[j], 0

    return _rejection_loop(one_round, lambda: ov.phi, delta, rng)[0]


def _norm_estimate_draws(eps: float, delta: float, get_phi) -> int:
    """ceil(4 phi eps^-2 ln(1/delta)) dominator draws for a norm estimate
    within relative eps, failure probability <= delta.  The ratios lie in
    [0, 1] with mean 1/phi, so a Bernstein bound gives that failure
    probability.  get_phi() is called once eps and delta are known to be valid."""
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    _check_delta(delta)
    return max(1, int(math.ceil(4.0 * get_phi() * math.log(1.0 / delta) / eps**2)))


def _norm_from_ratios(dom_norm: float, mean_ratio: float) -> float:
    """||target|| = ||dom|| * sqrt(E|target_j|^2/|dom_j|^2), j under the dominator law."""
    return float(dom_norm * math.sqrt(max(mean_ratio, 0.0)))


def estimate_norm(ov: OversampleAccess, eps: float, delta: float, rng: np.random.Generator) -> float:
    """Estimate ||target|| within relative eps, failure probability <= delta.

    Returns dominator norm times the square root of the empirical mean of
    |target_j|^2/|dom_j|^2 over ceil(4 phi eps^-2 ln(1/delta)) dominator draws.
    """
    n_draws = _norm_estimate_draws(eps, delta, lambda: ov.phi)
    js = sq_sample_many(ov.dominator, n_draws, rng)
    t_w = np.abs(ov.target) ** 2
    ratios = t_w[js] / ov.dominator.weights[js]
    return _norm_from_ratios(ov.dominator.norm, ratios.mean())
