"""Sampling-and-query (SQ) access to vectors and matrices.

An SQ handle on a vector v supports three operations: query an entry, query the
l2 norm, and draw an index i with probability |v_i|^2 / ||v||^2.  A matrix handle
is one 2-D table (entries, squared magnitudes, per-row cumulative sums) plus an
SQ handle on the vector of row norms; a row handle is a view into that table.
Every l2 law is one `SqVector` from one builder, `_law`, drawn by one rule,
`sq_sample_at`: a vector handle, a matrix's row-norm vector, and comm_sim's
owner laws, which are known by their masses alone.

Oversampled access draws from a dominating vector instead: the one rejection
loop here recovers the target's law from those draws, and the one norm
estimator the target's norm from the mean acceptance ratio.  comm_sim's
linear-combination access feeds both one dominator round at a time.

Complex entries are supported throughout; real input stays real.  All handles
are immutable after construction, their arrays read-only, and hold no RNG
state.  A handle keeps a read-only float64 or complex128 input that no caller
can write as it is, and copies anything else, so a caller's later writes never
reach it.  Every sampling operation takes a caller-owned numpy Generator, or
(`sq_sample_at`) a uniform already drawn from one.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from . import _checks


class AllZero(ValueError):
    """Raised when an all-zero vector or matrix cannot carry an l2 sampling law."""


class IndexOutOfRange(IndexError):
    """Raised for an index that is not an integer in [0, n)."""


class Timeout(RuntimeError):
    """Raised when rejection sampling exhausts its round budget, `rounds`."""

    def __init__(self, message: str, rounds: int):
        super().__init__(message)
        self.rounds = rounds


def _check_index(i, n: int, what: str = "index") -> None:
    """The one index rule of every handle and request: `i` must be an integer
    in [0, n), or IndexOutOfRange; a Python int in range costs no call."""
    if i.__class__ is not int or not 0 <= i < n:
        _checks.count(i, 0, n - 1, f"{what} {{!r}} is not an integer", IndexOutOfRange,
                      (IndexOutOfRange, f"{what} {{}} outside [0, {n})"))


def _frozen(arr: np.ndarray) -> np.ndarray:
    """`arr` itself, made read-only."""
    arr.setflags(write=False)
    return arr


def _unwritable(arr: np.ndarray) -> bool:
    """True when neither `arr` nor any array it views is writeable, so no
    caller can change its entries; a view of another buffer object counts as
    writeable."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None


def _table(values, ndim: int):
    """A nonempty read-only float64 (or complex128) array of `values` with
    `ndim` axes and its read-only squared magnitudes; raises ValueError on a
    nan or infinite entry and when their total overflows, and AllZero when
    it is zero.  A float64 or complex128 array that no caller can write is
    taken as it is; anything else is copied."""
    arr, noun = np.asarray(values), "vector" if ndim == 1 else "matrix"
    if arr.ndim != ndim or arr.size == 0:
        raise ValueError(f"expected a nonempty {ndim}-d {noun}")
    arr = _checks.numeric_kind(arr, "entries")
    dtype = _checks.numeric_dtype(arr.dtype)
    if arr.dtype != dtype or not _unwritable(arr):
        arr = _frozen(arr.astype(dtype))
    mags = np.abs(arr) if arr.dtype.kind == "c" else arr   # a real entry squares as |x| does
    weights = np.square(mags, out=None if mags is arr else mags)   # no complex temporary
    total = float(weights.sum())   # finite iff every entry is and nothing overflows
    if not math.isfinite(total):
        if not np.isfinite(arr).all():
            raise ValueError("entries must be finite (found nan or inf)")
        raise ValueError("squared magnitudes overflow: their total is not finite")
    if total == 0.0:
        raise AllZero(f"cannot build an l2 sampling law on the zero {noun}")
    return arr, _frozen(weights)


@dataclass(frozen=True, eq=False)
class SqVector:
    """Immutable SQ handle: values (None for a law of masses alone), norm, cum table."""

    values: np.ndarray | None
    norm: float
    weights: np.ndarray          # exact bucket masses |v_i|^2
    cum: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.cum.size


def _law(weights: np.ndarray, values=None) -> SqVector:
    """The one l2 law builder: bucket masses `weights` (made read-only), their
    cumulative table and norm sqrt(total); raises ValueError when that total
    overflows.  A zero total is left to the caller."""
    total = float(weights.sum())
    if not math.isfinite(total):
        raise ValueError("l2 masses overflow: their total is not finite")
    return SqVector(values=values, norm=math.sqrt(total), weights=_frozen(weights),
                    cum=_frozen(weights.cumsum()))


def build_sq_vector(values) -> SqVector:
    """Build an SQ handle in O(n). Raises AllZero for the zero vector and
    ValueError for a non-finite entry or an overflowing squared norm."""
    arr, weights = _table(values, 1)
    return _law(weights, arr)


def sq_query(v: SqVector, i: int):
    """Entry query. 0-based; no negative indexing."""
    _check_index(i, v.n)
    return v.values[i].item()


def sq_sample_at(v: SqVector, r: float) -> int:
    """The index a uniform r in [0, 1) selects under v's l2 law: the first i
    whose cumulative mass exceeds r times the total.  A uniform r gives index
    i with probability weights[i] / sum(weights); zero-mass buckets are never
    returned."""
    if not 0.0 <= r < 1.0:
        raise ValueError(f"uniform {r!r} outside [0, 1)")
    cum = v.cum
    idx = bisect_right(cum, r * cum.item(-1))
    if idx >= cum.size:
        # r * total rounded up onto the total mass; land in the last populated bucket
        idx = int(np.flatnonzero(v.weights)[-1])
    return idx


def sq_sample(v: SqVector, rng: np.random.Generator) -> int:
    """Draw one index with probability weights[i] / sum(weights): one uniform
    from rng, mapped by sq_sample_at."""
    return sq_sample_at(v, rng.random())


def sq_sample_many(v: SqVector, size: int, rng: np.random.Generator) -> np.ndarray:
    """`size` iid draws as an int array: the uniforms of one rng.random(size),
    each mapped by sq_sample_at.  Raises ValueError unless `rng` is a numpy
    Generator."""
    size = _checks.count(size, 0, None, "size must be an integer >= 0, got size = {!r}")
    _checks.generator(rng, "sq_sample_many")
    return np.array([sq_sample_at(v, r) for r in rng.random(size).tolist()], dtype=np.int64)


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
    arr, weights = _table(matrix, 2)
    row_norms = _frozen(np.sqrt(weights.sum(axis=1)))
    return SqMatrix(values=arr, weights=weights, cum=_frozen(np.cumsum(weights, axis=1)),
                    row_norm_vector=_law(row_norms**2, row_norms))


def sq_row(m: SqMatrix, i: int) -> SqVector:
    """Handle for row i, a view into the table. Raises AllZero for a zero row,
    IndexOutOfRange off the end."""
    _check_index(i, len(m.values), "row")
    norm = m.row_norm_vector.values.item(i)
    if norm == 0.0:
        raise AllZero(f"row {i} is identically zero")
    return SqVector(m.values[i], norm, m.weights[i], m.cum[i])


# --- oversampled access: rejection and norm estimation ----------------------

MAX_ROUNDS = 2**53   # largest round or draw budget; every integer up to it is exact as a float


def _round_budget(rounds: float, what: str) -> int:
    """ceil(rounds), a budget computed as a float; a ValueError when it is not
    finite or exceeds MAX_ROUNDS, where a tiny eps or delta or a huge phi
    would otherwise end in a bare arithmetic error or a budget no loop ends."""
    if not rounds <= MAX_ROUNDS:          # written so that nan fails too
        raise ValueError(f"{what} {rounds!r} is not finite or exceeds MAX_ROUNDS = 2**53")
    return math.ceil(rounds)


def rejection_round_cap(phi: float, delta: float) -> int:
    """Round budget guaranteeing failure probability <= delta.

    Per-round acceptance probability is exactly 1/phi, so (1 - 1/phi)^cap
    <= exp(-cap/phi) <= delta at cap = ceil(phi ln(1/delta)) + 1, refused
    (ValueError) above MAX_ROUNDS."""
    _checks.real(phi, 0, math.inf, "phi must be finite and positive, got phi = {!r}")
    _checks.real(delta, *_DELTA)
    return _round_cap(phi, delta)


def _round_cap(phi: float, delta: float) -> int:
    """`rejection_round_cap` of a phi and a delta already checked."""
    return _round_budget(phi * math.log(1.0 / delta), "rejection round cap") + 1


_DELTA = (0, 1, "delta must lie in (0, 1), got delta = {!r}")   # a failure probability


@dataclass(frozen=True)
class RejectionSample:
    index: int
    rounds: int


def _rejection_loop(one_round, get_phi, delta: float, rng: np.random.Generator):
    """The one rejection loop behind every oversampled draw.

    one_round() draws a dominator index j and returns (j, |target_j|^2 /
    |dom_j|^2 or None where dom_j is zero, bits spent); each round with a
    ratio draws one accept uniform from rng.  Delta is checked here, once;
    the cap is `_round_cap` of it and get_phi()'s checked phi (comm_sim's
    record memoises it), refused above MAX_ROUNDS before any round.  Returns
    (RejectionSample, bits); raises Timeout, `rounds` the cap, at odds <= delta.
    """
    _checks.real(delta, *_DELTA)
    phi = get_phi()
    cap = _round_cap(phi, delta)
    bits = 0
    for rounds in range(1, cap + 1):
        j, ratio, cost = one_round()
        bits += cost
        if ratio is not None and rng.random() < ratio:
            return RejectionSample(j, rounds), bits
    raise Timeout(f"no acceptance within {cap} rounds (phi={phi:.3g}, delta={delta:g})", cap)


def _norm_estimate(one_round, dom_norm: float, get_phi, eps: float, delta: float):
    """The one norm estimator behind every oversampled access: ||target||
    within relative eps, failure probability <= delta.

    one_round and get_phi are as in `_rejection_loop`; get_phi() is called
    once eps and delta are known to be valid.  Returns (dom_norm times the
    square root of the mean ratio over ceil(4 phi eps^-2 ln(1/delta)) rounds,
    bits).  The ratios lie in [0, 1] with mean 1/phi, so a Bernstein bound
    gives that failure probability.  A draw count above MAX_ROUNDS is
    refused with a ValueError before any round.
    """
    _checks.real(eps, 0, 1, "eps must lie in (0, 1], got eps = {!r}", hi_closed=True)
    _checks.real(delta, *_DELTA)
    phi = get_phi()
    eps_sq = eps**2                       # 0.0 once eps is below about 1e-162
    rounds = 4.0 * phi * math.log(1.0 / delta) / eps_sq if eps_sq else math.inf
    n_draws = max(1, _round_budget(rounds, "norm estimate draw count"))
    total, bits = 0.0, 0
    for _ in range(n_draws):
        _, ratio, cost = one_round()
        bits += cost
        if ratio is not None:
            total += ratio
    return float(dom_norm * math.sqrt(total / n_draws)), bits
