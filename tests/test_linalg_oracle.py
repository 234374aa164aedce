"""Exact linear-algebra reference routines, checked against closed forms,
scipy, and brute force."""

import math

import numpy as np
import pytest
import scipy.linalg

from sqcomm import (
    BadDimension,
    ConditionUndefined,
    GammaUndefined,
    NotHermitian,
    dsp_distribution,
    expm_apply,
    expm_hermitian,
    hadamard_apply,
    params,
    pinv_solve,
    pseudoinverse,
    svd_factors,
    threshold_svd,
    top_singular,
)


def _moore_penrose_residual(A, X):
    return max(
        np.abs(A @ X @ A - A).max(),
        np.abs(X @ A @ X - X).max(),
        np.abs((A @ X).conj().T - A @ X).max(),
        np.abs((X @ A).conj().T - X @ A).max(),
    )


def test_pseudoinverse_identities():
    rng = np.random.default_rng(1)
    for shape in [(6, 4), (4, 6), (5, 5)]:
        A = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert _moore_penrose_residual(A, pseudoinverse(A)) < 1e-12


def test_pseudoinverse_rank_deficient_frozen():
    # A = [[1,1],[1,1]] has pinv A/4; the minimum-norm solution of Ax=(2,2) is (1,1)
    A = np.ones((2, 2))
    np.testing.assert_allclose(pseudoinverse(A), A / 4.0, atol=1e-14)
    np.testing.assert_allclose(pinv_solve(A, np.array([2.0, 2.0])), [1.0, 1.0],
                               atol=1e-14)
    # duplicated column: solver must split the weight evenly (minimum norm)
    B = np.array([[1.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(pinv_solve(B, np.array([1.0, 0.0])), [0.5, 0.5],
                               atol=1e-14)


def test_pinv_solve_matches_lstsq():
    rng = np.random.default_rng(2)
    for m, n in [(12, 5), (5, 12), (9, 9)]:
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        expected, *_ = np.linalg.lstsq(A, b, rcond=None)
        np.testing.assert_allclose(pinv_solve(A, b), expected, atol=1e-10)
    with pytest.raises(ValueError):
        pinv_solve(np.ones((3, 2)), np.ones(4))


def test_svd_factors_drops_zero_modes():
    f = svd_factors(np.diag([3.0, 2.0, 0.0]))
    assert f.rank == 2
    np.testing.assert_allclose(f.s, [3.0, 2.0], atol=1e-12)


def test_params_frozen():
    # diag(3, 4): ||A||_F = 5, sigma = (4, 3); b = e1 -> exact fit
    p = params(np.diag([3.0, 4.0]), np.array([1.0, 0.0]))
    assert p.kappa_F == pytest.approx(5.0 / 3.0, abs=1e-12)
    assert p.kappa == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert p.gamma == pytest.approx(1.0, abs=1e-12)
    assert p.sparsity == 1
    with pytest.raises(GammaUndefined):
        params(np.eye(2), np.zeros(2))


def test_params_partial_residual():
    # b has mass outside the column space: gamma = ||Ax*|| / ||b|| < 1
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    p = params(A, np.array([1.0, 1.0]))
    assert p.gamma == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_threshold_svd_keeps_ties():
    A = np.diag([2.0, 1.2, 1.2, 0.5])
    np.testing.assert_allclose(threshold_svd(A, 1.2),
                               np.diag([2.0, 1.2, 1.2, 0.0]), atol=1e-12)
    np.testing.assert_allclose(threshold_svd(A, 1.3), np.diag([2.0, 0.0, 0.0, 0.0]),
                               atol=1e-12)
    assert not threshold_svd(A, 3.0).any()
    with pytest.raises(ValueError):
        threshold_svd(A, 0.0)


def test_top_singular_and_degeneracy():
    ts = top_singular(np.diag([2.0, 1.0]))
    assert ts.sigma == pytest.approx(2.0, abs=1e-12)
    assert abs(ts.vector[0]) == pytest.approx(1.0, abs=1e-12)
    assert not ts.degenerate
    assert top_singular(np.eye(3)).degenerate


def test_expm_matches_scipy():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    H = (M + M.conj().T) / 2
    for t in (0.3, 1.0, 4.7):
        U = expm_hermitian(H, t)
        np.testing.assert_allclose(U, scipy.linalg.expm(1j * t * H), atol=1e-10)
        np.testing.assert_allclose(U @ U.conj().T, np.eye(8), atol=1e-12)
        v = rng.normal(size=8)
        np.testing.assert_allclose(expm_apply(H, t, v), U @ v, atol=1e-10)


def test_expm_single_qubit_identity():
    # e^{i (pi/2) (I - H)} = H: phases 1 and -1 on H's eigenspaces
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    U = expm_hermitian(np.eye(2) - h1, math.pi / 2.0)
    np.testing.assert_allclose(U, h1, atol=1e-12)


def test_expm_rejects_bad_input():
    with pytest.raises(NotHermitian):
        expm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
    with pytest.raises(ValueError):
        expm_hermitian(np.ones((2, 3)), 1.0)
    with pytest.raises(ValueError):
        expm_apply(np.eye(2), 1.0, np.ones(3))


def test_hadamard_apply_involution_and_dense():
    rng = np.random.default_rng(4)
    for n in range(0, 7):
        size = 2**n
        dense = scipy.linalg.hadamard(size) / math.sqrt(size)
        v = rng.normal(size=size)
        got = hadamard_apply(n, v)
        np.testing.assert_allclose(got, dense @ v, atol=1e-12)
        np.testing.assert_allclose(hadamard_apply(n, got), v, atol=1e-12)
    with pytest.raises(BadDimension):
        hadamard_apply(2, np.ones(3))


def test_dsp_distribution_frozen():
    # n=1, f=(1,-1), g=(1,1): product (1,-1) puts all transform mass at y=1
    law = dsp_distribution([1.0, -1.0], [1.0, 1.0])
    np.testing.assert_allclose(law, [0.0, 1.0], atol=1e-15)
    # equal vectors concentrate at y=0
    law = dsp_distribution([1.0, 1.0, -1.0, 1.0], [1.0, 1.0, -1.0, 1.0])
    np.testing.assert_allclose(law, [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_dsp_distribution_brute_force():
    rng = np.random.default_rng(5)
    n = 4
    f = rng.choice((-1.0, 1.0), size=2**n)
    g = rng.choice((-1.0, 1.0), size=2**n)
    law = dsp_distribution(f, g)
    brute = np.empty(2**n)
    for y in range(2**n):
        acc = sum(f[x] * g[x] * (-1) ** bin(x & y).count("1") for x in range(2**n))
        brute[y] = (acc / 2**n) ** 2
    np.testing.assert_allclose(law, brute, atol=1e-14)
    assert law.sum() == pytest.approx(1.0, abs=1e-12)


def test_dsp_distribution_validation():
    with pytest.raises(ValueError):
        dsp_distribution([1.0, 0.5], [1.0, 1.0])
    with pytest.raises(BadDimension):
        dsp_distribution([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(BadDimension):
        dsp_distribution([1.0, 1.0], [1.0, 1.0, -1.0, 1.0])


def test_zero_matrix_has_a_zero_solution_and_no_condition_numbers():
    A = np.zeros((3, 2))
    assert pseudoinverse(A).shape == (2, 3) and not pseudoinverse(A).any()
    x = pinv_solve(A, np.ones(3))
    assert x.shape == (2,) and not x.any()
    with pytest.raises(ConditionUndefined):
        params(A, np.ones(3))
    # nonzero input keeps the truncated-SVD route: rank-one A, b off its span
    x = pinv_solve(np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 0.0]]), np.ones(3))
    np.testing.assert_array_equal(x, [0.5, 0.0])
