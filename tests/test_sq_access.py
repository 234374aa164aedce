"""Centralized SQ primitives: frozen laws, sampling statistics, rejection."""

import math

import numpy as np
import pytest

from sqcomm import (
    AllZero,
    IndexOutOfRange,
    Timeout,
    build_oversample,
    build_sq_matrix,
    build_sq_vector,
    estimate_norm,
    exact_distribution,
    rejection_round_cap,
    rejection_sample,
    sq_norm,
    sq_query,
    sq_row,
    sq_sample,
    sq_sample_at,
    sq_sample_many,
)


def test_vector_handle_frozen_values():
    # |0.6|^2 = 0.36 and |-0.8|^2 = 0.64 sum to 1, so the law is the weights
    v = build_sq_vector([0.6, -0.8])
    assert sq_norm(v) == pytest.approx(1.0, abs=1e-15)
    assert sq_query(v, 0) == 0.6
    assert sq_query(v, 1) == -0.8
    np.testing.assert_allclose(exact_distribution(v), [0.36, 0.64], atol=1e-15)


def test_vector_handle_unnormalized_and_complex():
    v = build_sq_vector([3.0, 4.0])
    assert sq_norm(v) == pytest.approx(5.0, abs=1e-12)
    np.testing.assert_allclose(exact_distribution(v), [0.36, 0.64], atol=1e-15)

    w = build_sq_vector([1j, 1.0, -1j])
    assert sq_norm(w) == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert sq_query(w, 0) == 1j
    np.testing.assert_allclose(exact_distribution(w), np.full(3, 1 / 3), atol=1e-15)


def test_vector_handle_errors():
    with pytest.raises(AllZero):
        build_sq_vector(np.zeros(4))
    v = build_sq_vector([1.0, 2.0])
    with pytest.raises(IndexOutOfRange):
        sq_query(v, 2)
    with pytest.raises(IndexOutOfRange):
        sq_query(v, -1)
    with pytest.raises(ValueError):
        build_sq_vector(np.ones((2, 2)))
    with pytest.raises(ValueError):
        build_sq_vector([])
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            build_sq_vector([1.0, bad])
        with pytest.raises(ValueError, match="finite"):
            build_sq_matrix([[1.0, 2.0], [bad, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        build_oversample([1.0, np.nan], [2.0, 2.0])


def test_sample_never_returns_zero_mass():
    v = build_sq_vector([2.0, 0.0, 0.0])
    rng = np.random.default_rng(7)
    draws = sq_sample_many(v, 2000, rng)
    assert (draws == 0).all()
    # single draws agree with the vectorized path
    assert all(sq_sample(v, np.random.default_rng(s)) == 0 for s in range(20))


def test_sample_matches_law_statistically():
    v = build_sq_vector([0.6, -0.8])
    rng = np.random.default_rng(123)
    draws = sq_sample_many(v, 20000, rng)
    freq = np.bincount(draws, minlength=2) / draws.size
    np.testing.assert_allclose(freq, [0.36, 0.64], atol=0.015)


def test_sample_determinism():
    v = build_sq_vector(np.arange(1.0, 9.0))
    a = sq_sample_many(v, 100, np.random.default_rng(99))
    b = sq_sample_many(v, 100, np.random.default_rng(99))
    np.testing.assert_array_equal(a, b)


def test_sample_at_maps_uniforms():
    # weights 1, 0, 4, 9 have cumulative masses 1, 1, 5, 14: r * 14 lands in the
    # first bucket whose cumulative mass exceeds it, never in zero-mass index 1
    v = build_sq_vector([1.0, 0.0, 2.0, 3.0])
    assert [sq_sample_at(v, r) for r in (0.0, 0.05, 0.1, 0.3, 0.4, 0.999)] == [0, 0, 2, 2, 3, 3]
    # sq_sample maps the generator's next uniform
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    assert ([sq_sample(v, rng) for _ in range(50)]
            == [sq_sample_at(v, ref.random()) for _ in range(50)])
    for r in (-0.1, 1.0, float("nan")):
        with pytest.raises(ValueError, match="outside"):
            sq_sample_at(v, r)


def test_matrix_handle_and_zero_rows():
    m = build_sq_matrix([[3.0, 4.0], [0.0, 0.0]])
    assert m.shape == (2, 2)
    np.testing.assert_allclose(
        exact_distribution(m.row_norm_vector), [1.0, 0.0], atol=1e-15)
    row = sq_row(m, 0)
    np.testing.assert_allclose(exact_distribution(row), [0.36, 0.64], atol=1e-15)
    with pytest.raises(AllZero):
        sq_row(m, 1)
    with pytest.raises(IndexOutOfRange):
        sq_row(m, 5)
    with pytest.raises(AllZero):
        build_sq_matrix(np.zeros((3, 3)))

    # a row handle is the vector handle of that row, bit for bit
    rng = np.random.default_rng(17)
    for trial in range(40):
        m, n = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        A = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-5, 5, size=(m, 1))
        if trial % 2:
            A = A + 1j * rng.normal(size=(m, n))
        A[rng.random(m) < 0.2] = 0.0
        A[0, 0] = 1.0
        handle = build_sq_matrix(A)
        for i in range(m):
            if not A[i].any():
                with pytest.raises(AllZero):
                    sq_row(handle, i)
                continue
            row, want = sq_row(handle, i), build_sq_vector(A[i])
            for name in ("values", "weights", "cum"):
                np.testing.assert_array_equal(getattr(row, name), getattr(want, name))
            assert row.norm == want.norm
        # one column: the row-norm law is the column vector's own law
        law, want = build_sq_matrix(A[:, :1]).row_norm_vector, build_sq_vector(A[:, 0])
        np.testing.assert_array_equal(law.weights, want.weights)
        np.testing.assert_array_equal(law.cum, want.cum)
        assert law.norm == want.norm


def test_two_stage_matrix_sampling_law():
    # row choice by squared row norm, entry choice within the row
    A = np.array([[1.0, 2.0], [0.0, 5.0]])
    m = build_sq_matrix(A)
    rng = np.random.default_rng(11)
    counts = np.zeros((2, 2))
    for _ in range(20000):
        i = sq_sample(m.row_norm_vector, rng)
        j = sq_sample(sq_row(m, i), rng)
        counts[i, j] += 1
    law = counts / counts.sum()
    np.testing.assert_allclose(law, np.abs(A) ** 2 / 30.0, atol=0.02)


def test_oversample_build_and_phi():
    ov = build_oversample([1.0, 1.0], [1.0, 2.0])
    assert ov.phi == pytest.approx(2.5, abs=1e-12)
    assert ov.query(1) == 1.0
    with pytest.raises(IndexOutOfRange):
        ov.query(2)
    # equality is legal domination; phi = 1 means no oversampling
    assert build_oversample([1.0, 2.0], [1.0, 2.0]).phi == pytest.approx(1.0)
    with pytest.raises(ValueError):
        build_oversample([1.0, 1.0], [1.0, 0.5])
    with pytest.raises(AllZero):
        build_oversample([0.0, 0.0], [1.0, 1.0])


def test_rejection_round_cap_frozen():
    # ceil(2.5 * ln 1000) + 1 = ceil(17.269...) + 1 = 19
    assert rejection_round_cap(2.5, 1e-3) == 19
    assert rejection_round_cap(1.0, 0.5) == 1 + 1


def test_rejection_law_oracle():
    """Branch enumeration: dominator law times acceptance ratio, renormalized,
    must equal the target law; Monte Carlo agrees and rounds track phi."""
    target = np.array([1.0, 1.0])
    dominator = np.array([1.0, 2.0])
    ov = build_oversample(target, dominator)

    dom_law = exact_distribution(ov.dominator)                 # (1/5, 4/5)
    ratios = np.abs(target) ** 2 / ov.dominator.weights        # (1, 1/4)
    accept_law = dom_law * ratios
    accept_law /= accept_law.sum()
    np.testing.assert_allclose(accept_law, [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(
        accept_law, exact_distribution(build_sq_vector(target)), atol=1e-15)

    rng = np.random.default_rng(2024)
    hits = np.zeros(2)
    rounds = []
    for _ in range(4000):
        s = rejection_sample(ov, 1e-6, rng)
        hits[s.index] += 1
        rounds.append(s.rounds)
    np.testing.assert_allclose(hits / hits.sum(), [0.5, 0.5], atol=0.03)
    assert np.mean(rounds) == pytest.approx(ov.phi, rel=0.1)


def test_rejection_sample_determinism_and_validation():
    ov = build_oversample([1.0, 1.0], [1.0, 2.0])
    a = rejection_sample(ov, 1e-3, np.random.default_rng(5))
    b = rejection_sample(ov, 1e-3, np.random.default_rng(5))
    assert a == b
    with pytest.raises(ValueError):
        rejection_sample(ov, 0.0, np.random.default_rng(5))
    with pytest.raises(ValueError):
        rejection_sample(ov, 1.0, np.random.default_rng(5))


def test_rejection_timeout():
    # phi ~ 109 with a lax delta gives a tiny cap; some seed must time out
    ov = build_oversample([1.0, 0.0], [10.0, 3.0])
    cap = rejection_round_cap(ov.phi, 0.9)
    assert cap < 20
    timed_out = 0
    for seed in range(50):
        try:
            rejection_sample(ov, 0.9, np.random.default_rng(seed))
        except Timeout:
            timed_out += 1
    assert timed_out > 0


def test_estimate_norm():
    ov = build_oversample([1.0, 1.0], [1.0, 2.0])
    est = estimate_norm(ov, 0.1, 1e-3, np.random.default_rng(31))
    assert abs(est - math.sqrt(2.0)) <= 0.1 * math.sqrt(2.0)
    # tighter eps costs more draws but must stay within its own band
    est = estimate_norm(ov, 0.02, 1e-3, np.random.default_rng(32))
    assert abs(est - math.sqrt(2.0)) <= 0.02 * math.sqrt(2.0)
    with pytest.raises(ValueError):
        estimate_norm(ov, 0.0, 1e-3, np.random.default_rng(33))
    with pytest.raises(ValueError):
        estimate_norm(ov, 0.1, 2.0, np.random.default_rng(34))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_squared_magnitudes_are_rejected():
    # every entry is finite, but |v_i|^2 or their total is not
    with pytest.raises(ValueError, match="overflow"):
        build_sq_vector([1e200, 1.0, 1e-3])
    with pytest.raises(ValueError, match="overflow"):
        build_sq_vector([1.5e154, 1.5e154])
    with pytest.raises(ValueError, match="overflow"):
        build_sq_matrix([[1e200, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="overflow"):
        build_sq_matrix([[1.0, 1.0], [1.5e154, 1.5e154]])
    with pytest.raises(ValueError, match="overflow"):
        build_oversample([1.0, 1.0], [1e200, 1.0])
    with pytest.raises(ValueError, match="overflow"):
        build_oversample([1e200, 1.0], [1e200, 1.0])
    # squares near the top of the float range that still sum to a finite total
    v = build_sq_vector([1e154, 1e153])
    assert math.isfinite(v.norm) and exact_distribution(v).sum() == pytest.approx(1.0)
