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


@dataclass(frozen=True, eq=False)
class SvdFactors:
    """Thin SVD restricted to strictly positive singular values."""

    U: np.ndarray
    s: np.ndarray
    Vh: np.ndarray

    @property
    def rank(self) -> int:
        return self.s.size


def svd_factors(A) -> SvdFactors:
    arr = np.asarray(A)
    U, s, Vh = np.linalg.svd(arr, full_matrices=False)
    if s.size and s[0] > 0:
        keep = s > s[0] * 1e-14
    else:
        keep = s > 0
    return SvdFactors(U=U[:, keep], s=s[keep], Vh=Vh[keep])


def _pinv_factors(A):
    """The thin SVD factors (U, s, Vh) with s >= PINV_CUTOFF_REL * sigma_max;
    empty for the zero matrix."""
    f = svd_factors(A)
    keep = f.s >= (f.s[0] * PINV_CUTOFF_REL if f.rank else 0.0)
    return f.U[:, keep], f.s[keep], f.Vh[keep]


def pseudoinverse(A) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the relative cutoff PINV_CUTOFF_REL."""
    U, s, Vh = _pinv_factors(A)
    return (Vh.conj().T / s) @ U.conj().T


def pinv_solve(A, b) -> np.ndarray:
    """Minimum-norm least-squares solution x* = pinv(A) b via the SVD route;
    zero for A = 0."""
    arr = np.asarray(A)
    vec = np.asarray(b)
    if arr.shape[0] != vec.shape[0]:
        raise ValueError("row count of A and length of b differ")
    U, s, Vh = _pinv_factors(arr)
    return Vh.conj().T @ ((U.conj().T @ vec) / s)


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
    vec = np.asarray(b)
    b_norm = float(np.linalg.norm(vec))
    if b_norm == 0.0:
        raise GammaUndefined("b = 0: residual ratio undefined")
    _, s, _ = _pinv_factors(arr)
    if not s.size:
        raise ConditionUndefined("A = 0: condition numbers undefined")
    sigma_min = float(s[-1])
    fro = float(np.linalg.norm(arr))
    x = pinv_solve(arr, vec)
    gamma = float(np.linalg.norm(arr @ x) / b_norm)
    sparsity = int(np.max(np.count_nonzero(arr, axis=1)))
    return ProblemParams(
        kappa_F=fro / sigma_min,
        kappa=float(s[0]) / sigma_min,
        gamma=gamma,
        sparsity=sparsity,
    )


def threshold_svd(A, delta: float) -> np.ndarray:
    """Reconstruction from singular triples with sigma >= delta (ties included)."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    arr = np.asarray(A)
    U, s, Vh = np.linalg.svd(arr, full_matrices=False)
    keep = s >= delta
    if not keep.any():
        return np.zeros_like(arr)
    return (U[:, keep] * s[keep]) @ Vh[keep]


@dataclass(frozen=True, eq=False)
class TopSingular:
    sigma: float
    vector: np.ndarray           # right singular vector, unit norm
    degenerate: bool


def top_singular(A) -> TopSingular:
    """Top singular value and a top right singular vector.

    Flags degeneracy when the relative gap to the second value is below
    DEGENERACY_REL_GAP; the returned vector is then one unit vector of the top
    space (any is acceptable).
    """
    arr = np.asarray(A)
    U, s, Vh = np.linalg.svd(arr, full_matrices=False)
    degenerate = s.size >= 2 and s[1] >= s[0] * (1 - DEGENERACY_REL_GAP)
    return TopSingular(sigma=float(s[0]), vector=Vh[0].conj(), degenerate=bool(degenerate))


def _check_hermitian(arr: np.ndarray) -> None:
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("expected a square matrix")
    if arr.shape[0] > EXPM_MAX_DIM:
        raise ValueError(f"dimension {arr.shape[0]} exceeds {EXPM_MAX_DIM}")
    if np.linalg.norm(arr - arr.conj().T) > EXPM_HERMITIAN_TOL:
        raise NotHermitian("matrix is not Hermitian within tolerance")


def expm_hermitian(A, t: float) -> np.ndarray:
    """Unitary e^{i A t} for Hermitian A, by eigendecomposition."""
    arr = np.asarray(A)
    _check_hermitian(arr)
    w, V = np.linalg.eigh(arr)
    phases = np.exp(1j * w * t)
    return (V * phases) @ V.conj().T


def expm_apply(A, t: float, v) -> np.ndarray:
    """Apply e^{i A t} to a vector. Preserves the l2 norm exactly up to rounding."""
    arr = np.asarray(A)
    _check_hermitian(arr)
    vec = np.asarray(v)
    if vec.shape[0] != arr.shape[0]:
        raise ValueError("vector length does not match the matrix dimension")
    w, V = np.linalg.eigh(arr)
    return V @ (np.exp(1j * w * t) * (V.conj().T @ vec))


def hadamard_apply(n: int, v) -> np.ndarray:
    """Normalized Walsh-Hadamard transform of a length-2^n vector, O(n 2^n).

    Orthogonal involution: applying twice returns the input.
    """
    if n < 0:
        raise BadDimension("n must be nonnegative")
    size = 1 << n
    arr = np.asarray(v)
    if arr.ndim != 1 or arr.size != size:
        raise BadDimension(f"expected a vector of length 2^{n} = {size}")
    x = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64, copy=True)
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
    f_arr = np.asarray(f, dtype=np.float64)
    g_arr = np.asarray(g, dtype=np.float64)
    if f_arr.shape != g_arr.shape or f_arr.ndim != 1:
        raise BadDimension("f and g must be 1-d of equal length")
    size = f_arr.size
    n = size.bit_length() - 1
    if size != 1 << n:
        raise BadDimension("length must be a power of two")
    _check_sign_vector(f_arr, "f")
    _check_sign_vector(g_arr, "g")
    w = hadamard_apply(n, f_arr * g_arr)
    return np.real(w) ** 2 / size
