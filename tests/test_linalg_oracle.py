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


def test_params_factors_once(monkeypatch):
    # one SVD serves the condition numbers and the solve behind gamma
    rng = np.random.default_rng(8)
    A, b = rng.normal(size=(6, 4)), rng.normal(size=6)
    want = params(A, b)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    assert params(A, b) == want
    assert len(calls) == 1
    assert want.gamma == float(np.linalg.norm(A @ pinv_solve(A, b)) / np.linalg.norm(b))
    with pytest.raises(ValueError, match="row count"):
        params(A, np.ones(5))


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


def test_threshold_svd_rejects_a_nan_level():
    # a nan level keeps no singular triple; it must not read as a zero matrix
    for bad in (math.nan, -math.inf, -1.0):
        with pytest.raises(ValueError, match="delta must be positive"):
            threshold_svd(np.eye(2), bad)


def test_oracles_refuse_non_finite_input():
    # a nan skew used to pass the Hermitian check, and an inf time or entry
    # came back as a nan unitary or a zero truncation
    for bad in (math.nan, math.inf):
        H = np.array([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(NotHermitian):
            expm_hermitian(H, 1.0)
        with pytest.raises(NotHermitian):
            expm_apply(H, 1.0, np.ones(2))
        with pytest.raises(NotHermitian):
            expm_hermitian(np.stack([np.eye(2), H]), 1.0)
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            threshold_svd(H, 0.5)
    # and a bool time was served as t = 1
    for t in (math.inf, -math.inf, math.nan, True):
        with pytest.raises(ValueError, match="evolution time must be finite"):
            expm_hermitian(np.eye(2), t)
        with pytest.raises(ValueError, match="evolution time must be finite"):
            expm_apply(np.eye(2), t, np.ones(2))


def test_vector_routes_refuse_what_is_not_one_finite_vector():
    # a matrix v came back as garbage, a 0-d v raised a bare IndexError, and a
    # nan or inf entry came back as a nan state, solution or gamma
    H = np.diag([1.0, 2.0])
    for v in (np.eye(2), np.float64(1.0), np.ones(3), np.ones((2, 1))):
        with pytest.raises(ValueError, match="expected one vector of length 2"):
            expm_apply(H, 1.0, v)
    with pytest.raises(ValueError, match="not dtype"):
        expm_apply(H, 1.0, [True, False])
    for bad in (math.nan, math.inf):
        v = np.array([1.0, bad])
        for route in (lambda: expm_apply(H, 1.0, v), lambda: hadamard_apply(1, v),
                      lambda: pinv_solve(np.eye(2), v), lambda: params(np.eye(2), v)):
            with pytest.raises(ValueError, match="vector entries must be finite"):
                route()
        # and a non-finite matrix read as rank 0: a zero pseudoinverse
        A = np.array([[1.0, bad], [0.0, 1.0]])
        for route in (svd_factors, pseudoinverse, lambda A: pinv_solve(A, np.ones(2)),
                      lambda A: params(A, np.ones(2))):
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                route(A)


@pytest.mark.parametrize("dtype", [bool, "U3", object])
def test_matrix_routes_refuse_bool_string_and_object(dtype):
    # a bool identity was its own pseudoinverse, and a string matrix (SVD
    # routes) or a bool one (evolution routes) ended in a bare numpy TypeError
    A = np.eye(2, dtype=int).astype(dtype)
    for route in (svd_factors, pseudoinverse, top_singular, lambda A: threshold_svd(A, 0.5),
                  lambda A: pinv_solve(A, np.ones(2)), lambda A: params(A, np.ones(2)),
                  lambda A: expm_hermitian(A, 1.0), lambda A: expm_hermitian(np.stack([A, A]), 1.0),
                  lambda A: expm_apply(A, 1.0, np.ones(2))):
        with pytest.raises(ValueError, match="^matrix entries must be .* not dtype"):
            route(A)
    b = np.ones(2, dtype=int).astype(dtype)
    for route in (pinv_solve, params):
        with pytest.raises(ValueError, match="^vector entries must be .* not dtype"):
            route(np.eye(2), b)


def test_svd_factors_serve_top_pair_and_truncation():
    rng = np.random.default_rng(4)
    for A in (np.diag([2.0, 1.2, 1.2, 0.5]), np.eye(3), rng.normal(size=(6, 4)),
              np.vstack([np.diag([1.0, 0.0, 1.0]), np.diag([0.0, 0.0, 1.0])])):
        f = svd_factors(A)
        top, want = f.top(), top_singular(A)
        assert (top.sigma, top.degenerate) == (want.sigma, want.degenerate)
        assert top.vector.tobytes() == want.vector.tobytes()
        for delta in (0.3, 1.2, 1.3, 5.0):
            assert f.truncate(delta).tobytes() == threshold_svd(A, delta).tobytes()
        with pytest.raises(ValueError, match="delta must be positive"):
            f.truncate(math.nan)
    with pytest.raises(BadDimension, match="rank 0"):
        svd_factors(np.zeros((2, 2))).top()


def test_empty_inputs_are_bad_dimensions():
    with pytest.raises(BadDimension, match="power of two"):
        dsp_distribution([], [])
    for shape in ((0, 3), (3, 0), (0, 0)):
        with pytest.raises(BadDimension, match="empty matrix"):
            top_singular(np.zeros(shape))


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
    # a stack evolves matrix by matrix, each exactly as on its own
    stack = np.stack([H, -H, H.real, np.eye(8)])
    U = expm_hermitian(stack, 0.3)
    assert U.shape == stack.shape
    for one, mat in zip(U, stack):
        np.testing.assert_array_equal(one, expm_hermitian(mat, 0.3))
        np.testing.assert_allclose(one, scipy.linalg.expm(0.3j * mat), atol=1e-10)


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
    # every matrix of a stack is held to the tolerance; expm_apply takes one
    skewed = np.stack([np.eye(2), np.array([[0.0, 1.0], [1e-9, 0.0]])])
    with pytest.raises(NotHermitian):
        expm_hermitian(skewed, 1.0)
    with pytest.raises(ValueError, match="square"):
        expm_hermitian(np.ones((3, 2, 3)), 1.0)
    with pytest.raises(ValueError, match="square"):
        expm_apply(np.stack([np.eye(2), np.eye(2)]), 1.0, np.ones(2))


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


def test_hadamard_apply_takes_an_integer_n():
    # True was served as n = 1, 2.0 ended in a bare TypeError from <<, and
    # n = 10**9 built a 125 MB 1 << n before its message failed to format it
    for n in (True, 2.0, -1, 64, 10**9, "2", None):
        with pytest.raises(BadDimension, match=rf"integer in \[0, 63\], got n = {n!r}$"):
            hadamard_apply(n, np.ones(2))
    np.testing.assert_array_equal(hadamard_apply(np.int64(1), np.ones(2)),
                                  hadamard_apply(1, np.ones(2)))


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
