"""Exact dense linear algebra used as ground truth by the protocol experiments.

Everything here is small-scale (dimensions <= 4096) and deliberately direct:
SVD-based pseudoinverse and thresholding, Hermitian matrix exponentials by
eigendecomposition, the normalized fast Walsh-Hadamard transform, and the
distributed-sign-product output law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _checks


class GammaUndefined(ValueError):
    """Raised when b = 0 leaves the residual ratio undefined."""


class NotHermitian(ValueError):
    """Raised when a matrix fails the Hermitian check."""


class BadDimension(ValueError):
    """Raised when a length is not the expected power of two."""


class ConditionUndefined(ValueError):
    """Raised when A = 0 leaves the condition numbers undefined."""


PINV_CUTOFF_REL = 1e-10          # singular values below cutoff * sigma_max are treated as zero
EXPM_HERMITIAN_TOL = 1e-10
EXPM_MAX_DIM = 4096
DEGENERACY_REL_GAP = 1e-9
_TIME = (-math.inf, math.inf, "evolution time must be finite and real, got t = {!r}")


@dataclass(frozen=True, eq=False)
class TopSingular:
    sigma: float
    vector: np.ndarray           # right singular vector, unit norm
    degenerate: bool


def _top_pair(s: np.ndarray, Vh: np.ndarray) -> TopSingular:
    degenerate = s.size >= 2 and s[1] >= s[0] * (1 - DEGENERACY_REL_GAP)
    return TopSingular(sigma=float(s[0]), vector=Vh[0].conj(), degenerate=bool(degenerate))


def _truncate(U: np.ndarray, s: np.ndarray, Vh: np.ndarray, delta: float) -> np.ndarray:
    """Reconstruction from the singular triples with sigma >= delta (ties
    included); the zero matrix when none is kept."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    r = _leading(s, delta)
    if not r:
        return np.zeros((U.shape[0], Vh.shape[1]), dtype=np.result_type(U, Vh))
    return (U[:, :r] * s[:r]) @ Vh[:r]


def _leading(s: np.ndarray, level: float) -> int:
    """How many of the singular values s, sorted in descending order as LAPACK
    returns them, are >= level: the kept triples are a prefix, so a slice
    keeps them without a mask copy."""
    return int(np.count_nonzero(s >= level))


@dataclass(frozen=True, eq=False)
class SvdFactors:
    """Thin SVD restricted to strictly positive singular values.

    One factorization serves every derived quantity: `top()` and `truncate()`
    read the factors instead of factorizing the matrix again.
    """

    U: np.ndarray
    s: np.ndarray
    Vh: np.ndarray

    @property
    def rank(self) -> int:
        return self.s.size

    def top(self) -> TopSingular:
        """The top singular pair, flagged as `top_singular` flags it."""
        if not self.rank:
            raise BadDimension("rank 0: the zero matrix has no positive singular pair")
        return _top_pair(self.s, self.Vh)

    def truncate(self, delta: float) -> np.ndarray:
        """`threshold_svd` of the factored matrix, for any delta above the
        dropped singular values (each at most 1e-14 sigma_max)."""
        return _truncate(self.U, self.s, self.Vh, delta)


def _finite(arr: np.ndarray, what: str) -> np.ndarray:
    """`arr`, not copied, or ValueError when it is not a numeric array or an
    entry is nan or infinite: LAPACK and the transforms would hand such an
    entry back as nan factors or a nan result, and a nan singular value reads
    as rank 0."""
    _checks.numeric_kind(arr, f"{what} entries")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} entries must be finite")
    return arr


def svd_factors(A) -> SvdFactors:
    arr = _finite(np.asarray(A), "matrix")
    U, s, Vh = np.linalg.svd(arr, full_matrices=False)
    r = int(np.count_nonzero(s > (s[0] * 1e-14 if s.size else 0.0)))
    return SvdFactors(U=U[:, :r], s=s[:r], Vh=Vh[:r])


def _pinv_factors(A):
    """The thin SVD factors (U, s, Vh) with s >= PINV_CUTOFF_REL * sigma_max;
    empty for the zero matrix."""
    f = svd_factors(A)
    r = _leading(f.s, f.s[0] * PINV_CUTOFF_REL if f.rank else 0.0)
    return f.U[:, :r], f.s[:r], f.Vh[:r]


def pseudoinverse(A) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the relative cutoff PINV_CUTOFF_REL."""
    U, s, Vh = _pinv_factors(A)
    return (Vh.conj().T / s) @ U.conj().T


def _solve(arr: np.ndarray, vec: np.ndarray, U, s, Vh) -> np.ndarray:
    """x* = pinv(A) b from the pinv factors (U, s, Vh) of A."""
    if arr.shape[0] != vec.shape[0]:
        raise ValueError("row count of A and length of b differ")
    return Vh.conj().T @ ((U.conj().T @ vec) / s)


def pinv_solve(A, b) -> np.ndarray:
    """Minimum-norm least-squares solution x* = pinv(A) b via the SVD route;
    zero for A = 0."""
    arr = np.asarray(A)
    return _solve(arr, _finite(np.asarray(b), "vector"), *_pinv_factors(arr))


@dataclass(frozen=True)
class ProblemParams:
    """Conditioning summary of a least-squares instance.

    kappa_F >= kappa >= 1 and kappa_F >= sqrt(rank); gamma = ||A x*|| / ||b||
    lies in [0, 1].
    """

    kappa_F: float
    kappa: float
    gamma: float
    sparsity: int


def params(A, b) -> ProblemParams:
    arr = np.asarray(A)
    vec = _finite(np.asarray(b), "vector")
    b_norm = float(np.linalg.norm(vec))
    if b_norm == 0.0:
        raise GammaUndefined("b = 0: residual ratio undefined")
    U, s, Vh = _pinv_factors(arr)
    if not s.size:
        raise ConditionUndefined("A = 0: condition numbers undefined")
    sigma_min = float(s[-1])
    fro = float(np.linalg.norm(arr))
    gamma = float(np.linalg.norm(arr @ _solve(arr, vec, U, s, Vh)) / b_norm)
    sparsity = int(np.max(np.count_nonzero(arr, axis=1)))
    return ProblemParams(
        kappa_F=fro / sigma_min,
        kappa=float(s[0]) / sigma_min,
        gamma=gamma,
        sparsity=sparsity,
    )


def threshold_svd(A, delta: float) -> np.ndarray:
    """Reconstruction from singular triples with sigma >= delta (ties
    included).  A non-finite entry is refused: its LAPACK factors are nan,
    which no level keeps, so it would read as the zero matrix."""
    arr = _finite(np.asarray(A), "matrix")
    return _truncate(*np.linalg.svd(arr, full_matrices=False), delta)


def top_singular(A) -> TopSingular:
    """Top singular value and a top right singular vector.

    Flags degeneracy when the relative gap to the second value is below
    DEGENERACY_REL_GAP; the returned vector is then one unit vector of the top
    space (any is acceptable).
    """
    arr = _checks.numeric_kind(np.asarray(A), "matrix entries")
    if arr.size == 0:
        raise BadDimension(f"shape {arr.shape}: an empty matrix has no singular pair")
    _, s, Vh = np.linalg.svd(arr, full_matrices=False)
    return _top_pair(s, Vh)


def _check_hermitian(arr: np.ndarray) -> None:
    _checks.numeric_kind(arr, "matrix entries")
    if arr.ndim < 2 or arr.shape[-2] != arr.shape[-1]:
        raise ValueError("expected a square matrix")
    if arr.shape[-1] > EXPM_MAX_DIM:
        raise ValueError(f"dimension {arr.shape[-1]} exceeds {EXPM_MAX_DIM}")
    with np.errstate(invalid="ignore"):     # inf - inf is a nan skew, refused below
        skew = np.linalg.norm(arr - np.swapaxes(arr.conj(), -1, -2), axis=(-2, -1))
    # written so that a nan skew fails too
    if not np.all(skew <= EXPM_HERMITIAN_TOL):
        raise NotHermitian("matrix is not Hermitian within tolerance")


def expm_hermitian(A, t: float) -> np.ndarray:
    """Unitary e^{i A t} for Hermitian A (or each of a stack), by eigendecomposition."""
    arr = np.asarray(A)
    _check_hermitian(arr)
    _checks.real(t, *_TIME)
    w, V = np.linalg.eigh(arr)
    phases = np.exp(1j * w * t)
    return (V * phases[..., None, :]) @ np.swapaxes(V.conj(), -1, -2)


def expm_apply(A, t: float, v) -> np.ndarray:
    """Apply e^{i A t} to one finite vector of A's dimension. Preserves the l2
    norm exactly up to rounding."""
    arr = np.asarray(A)
    if arr.ndim != 2:
        raise ValueError("expected a square matrix")
    _check_hermitian(arr)
    _checks.real(t, *_TIME)
    vec = _checks.numeric(v, "vector entries")
    if vec.shape != arr.shape[:1]:
        raise ValueError(f"expected one vector of length {arr.shape[0]}, got shape {vec.shape}")
    _finite(vec, "vector")
    w, V = np.linalg.eigh(arr)
    return V @ (np.exp(1j * w * t) * (V.conj().T @ vec))


def hadamard_apply(n: int, v) -> np.ndarray:
    """Normalized Walsh-Hadamard transform of a length-2^n vector, O(n 2^n).

    Orthogonal involution: applying twice returns the input.
    """
    # no array holds 2^64 entries; a larger n would only build a huge 1 << n
    n = _checks.count(n, 0, 63, "n must be an integer in [0, 63], got n = {!r}", BadDimension)
    size = 1 << n
    x = _checks.numeric(v, "vector entries")
    if x.ndim != 1 or x.size != size:
        raise BadDimension(f"expected a vector of length 2^{n} = {size}")
    _finite(x, "vector")
    h = 1
    while h < size:
        x = x.reshape(-1, 2 * h)
        top = x[:, :h].copy()
        x[:, :h] = top + x[:, h:]
        x[:, h:] = top - x[:, h:]
        x = x.reshape(-1)
        h *= 2
    x /= math.sqrt(size)
    return x


def _check_sign_vector(arr: np.ndarray, name: str) -> None:
    if not np.all(np.abs(arr) == 1):
        raise ValueError(f"{name} must have entries in {{-1, +1}}")


def dsp_distribution(f, g) -> np.ndarray:
    """Output law of the sign-product state: Pr(y) = ((1/2^n) sum_x f(x) g(x) (-1)^(x.y))^2.

    Computed through the Walsh-Hadamard transform of the pointwise product;
    sums to 1 by Parseval.
    """
    f_arr = _checks.reals(f, "f entries")
    g_arr = _checks.reals(g, "g entries")
    if f_arr.shape != g_arr.shape or f_arr.ndim != 1:
        raise BadDimension("f and g must be 1-d of equal length")
    size = f_arr.size
    n = size.bit_length() - 1
    if size == 0 or size != 1 << n:
        raise BadDimension("length must be a power of two")
    _check_sign_vector(f_arr, "f")
    _check_sign_vector(g_arr, "g")
    w = hadamard_apply(n, f_arr * g_arr)
    return np.real(w) ** 2 / size
