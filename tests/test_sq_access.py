"""Centralized SQ primitives: frozen laws, sampling statistics, the rejection
round cap.  The rejection loop and the norm estimator are tested through the
linear-combination access that runs them, in test_comm_sim."""

import ast
import math
import re
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest

from sqcomm import (
    AllZero,
    IndexOutOfRange,
    build_sq_matrix,
    build_sq_vector,
    exact_distribution,
    rejection_round_cap,
    sq_query,
    sq_row,
    sq_sample,
    sq_sample_at,
    sq_sample_many,
)
from sqcomm.sq_access import MAX_ROUNDS, _law


def test_vector_handle_frozen_values():
    # |0.6|^2 = 0.36 and |-0.8|^2 = 0.64 sum to 1, so the law is the weights
    v = build_sq_vector([0.6, -0.8])
    assert v.norm == pytest.approx(1.0, abs=1e-15)
    assert sq_query(v, 0) == 0.6
    assert sq_query(v, 1) == -0.8
    np.testing.assert_allclose(exact_distribution(v), [0.36, 0.64], atol=1e-15)


def test_vector_handle_unnormalized_and_complex():
    v = build_sq_vector([3.0, 4.0])
    assert v.norm == pytest.approx(5.0, abs=1e-12)
    np.testing.assert_allclose(exact_distribution(v), [0.36, 0.64], atol=1e-15)

    w = build_sq_vector([1j, 1.0, -1j])
    assert w.norm == pytest.approx(math.sqrt(3.0), abs=1e-12)
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
        # the row-norm handle is the vector handle of the row norms, bit for bit
        norms = handle.row_norm_vector
        want = build_sq_vector(np.sqrt((np.abs(A) ** 2).sum(axis=1)))
        for name in ("values", "weights", "cum"):
            np.testing.assert_array_equal(getattr(norms, name), getattr(want, name))
        assert norms.norm == want.norm
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


def test_one_index_rule_for_every_handle():
    # an index is an integer in [0, n): a float or a bool is refused with
    # IndexOutOfRange, not numpy's bare IndexError; numpy integers serve
    v = build_sq_vector([1.0, 2.0])
    m = build_sq_matrix([[1.0, 0.0], [0.0, 2.0]])
    for handle_op in (lambda i: sq_query(v, i), lambda i: sq_row(m, i).norm):
        for bad in (1.0, 0.5, True, np.float64(0.0), "0", None):
            with pytest.raises(IndexOutOfRange, match="not an integer"):
                handle_op(bad)
        assert handle_op(np.int64(1)) == handle_op(1)
    assert sq_query(v, np.int32(0)) == 1.0


def test_rejection_round_cap_frozen():
    # ceil(2.5 * ln 1000) + 1 = ceil(17.269...) + 1 = 19
    assert rejection_round_cap(2.5, 1e-3) == 19
    assert rejection_round_cap(1.0, 0.5) == 1 + 1
    assert rejection_round_cap(np.float64(2.5), np.float32(1e-3)) == 19
    # phi = nan ended in a bare ValueError, inf in an OverflowError and
    # delta = 0 in a ZeroDivisionError
    for phi in (math.nan, math.inf, 0.0, -1.0, True, "2"):
        with pytest.raises(ValueError, match=r"^phi must be finite and positive, got phi = "):
            rejection_round_cap(phi, 0.5)
    for delta in (0, 0.0, 1.0, math.nan, math.inf, False):
        with pytest.raises(ValueError, match=r"^delta must lie in \(0, 1\), got delta = "):
            rejection_round_cap(2.0, delta)


def test_rejection_round_cap_refuses_an_overflowing_budget():
    # delta = 5e-324 ended in an OverflowError (1 / delta is inf), and a huge
    # phi returned a cap with hundreds of digits, which no loop ever ends
    for phi, delta in ((2.0, 5e-324), (1e306, 1e-3), (2.0**54, 0.5)):
        with pytest.raises(ValueError,
                           match=r"^rejection round cap .* exceeds MAX_ROUNDS = 2\*\*53$"):
            rejection_round_cap(phi, delta)
    cap = rejection_round_cap(2.0**52, 0.5)
    assert cap == math.ceil(2.0**52 * math.log(2.0)) + 1 and cap <= MAX_ROUNDS


def test_sq_sample_many_takes_a_count():
    # 2.0 and True ended in numpy's bare TypeError, -1 in its "negative
    # dimensions" ValueError
    v = build_sq_vector([1.0, 2.0])
    rng = np.random.default_rng(3)
    for size in (2.0, True, -1, "3", None):
        with pytest.raises(ValueError, match=f"^size must be an integer >= 0, got size = "
                                             f"{re.escape(repr(size))}$"):
            sq_sample_many(v, size, rng)
    assert sq_sample_many(v, 0, rng).shape == (0,)
    assert sq_sample_many(v, np.int64(3), rng).shape == (3,)


def test_sq_sample_many_takes_a_generator():
    # None ended in a bare AttributeError, and a RandomState was drawn from
    v = build_sq_vector([1.0, 2.0])
    for rng in (None, np.random.RandomState(3), 3):
        with pytest.raises(ValueError, match="^sq_sample_many needs a numpy Generator$"):
            sq_sample_many(v, 3, rng)


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
    # squares near the top of the float range that still sum to a finite total
    v = build_sq_vector([1e154, 1e153])
    assert math.isfinite(v.norm) and exact_distribution(v).sum() == pytest.approx(1.0)


def _handles(values):
    """A vector handle on `values` and every handle of a matrix built on
    them: the matrix, its row-norm vector and a row."""
    m = build_sq_matrix(np.stack([values, values]))
    return [build_sq_vector(values), m, m.row_norm_vector, sq_row(m, 1)]


def test_handle_arrays_are_read_only():
    # writing h.values[0] = 0.0 made sq_query read 0.0 while the law stayed [0.36, 0.64]
    for h in _handles([3.0, 4.0]) + _handles([3.0, 4.0j]):
        for name in ("values", "weights", "cum"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(h, name)[0] = 0.0
    h = build_sq_vector([3.0, 4.0])
    assert sq_query(h, 0) == 3.0
    np.testing.assert_allclose(exact_distribution(h), [0.36, 0.64], atol=1e-15)


@pytest.mark.parametrize("dtype", [np.float64, np.int64, np.complex128])
def test_later_writes_to_the_input_change_no_handle(dtype):
    vec, mat = np.array([3, 4], dtype=dtype), np.array([[3, 4], [0, 5]], dtype=dtype)
    v, m = build_sq_vector(vec), build_sq_matrix(mat)
    # a read-only view of a buffer the caller can still write is copied too
    frozen_view = vec[:]
    frozen_view.flags.writeable = False
    w = build_sq_vector(frozen_view)
    vec[:], mat[:] = 0, 0
    for h in (v, w):
        assert [sq_query(h, i) for i in range(2)] == [3, 4]
        np.testing.assert_allclose(exact_distribution(h), [0.36, 0.64], atol=1e-15)
    assert sq_query(sq_row(m, 1), 1) == 5
    assert m.row_norm_vector.norm == pytest.approx(50**0.5, abs=1e-12)


def test_an_input_no_caller_can_write_is_kept_as_it_is():
    for values in (np.array([3.0, 4.0]), np.array([[3.0, 4j]])):
        values.flags.writeable = False
        build = build_sq_vector if values.ndim == 1 else build_sq_matrix
        assert build(values).values is values


def _owner_law_pick(w, cum, total, r):
    """The stage-1 owner pick as the coordinator made it before every owner
    law became a `_law` drawn by `sq_sample_at`: a bisect over `cum`, the list
    `w.cumsum().tolist()`, at r times `total`, the pairwise `float(w.sum())`,
    and the last owner with mass when the search runs off the end."""
    owner = bisect_right(cum, r * total)
    return owner if owner < len(cum) else int(np.flatnonzero(w)[-1])


def test_owner_picks_by_sq_sample_at_match_the_old_stage_one_rule():
    rng = np.random.default_rng(30)
    edges = [0.0, float(np.nextafter(1.0, 0.0))]
    checked = 0
    for _ in range(2000):
        w = rng.random(int(rng.integers(2, 66))) * 10.0 ** rng.uniform(-150, 150)
        w[rng.random(w.size) < 0.2] = 0.0
        if not w.any():
            w[-1] = 1.0
        law, cum, total = _law(w), w.cumsum().tolist(), float(w.sum())
        bounds, last = set(cum), law.cum.item(-1)
        for r in rng.random(50).tolist():
            # the old rule scales r by the pairwise total, sq_sample_at by the
            # table's last entry; these can differ in the last bit, and where
            # one lands exactly on a cumulative boundary the two searches may
            # fall on either side of it, so such uniforms are not compared
            if r * total != r * last and (r * total in bounds or r * last in bounds):
                continue
            assert sq_sample_at(law, r) == _owner_law_pick(w, cum, total, r), (w, r)
            checked += 1
        for r in edges:   # always compared, a scaled edge landing on the total included
            assert sq_sample_at(law, r) == _owner_law_pick(w, cum, total, r), (w, r)
    assert checked >= 0.99 * 2000 * 50


def test_bisect_right_agrees_with_searchsorted_on_handle_tables():
    rng = np.random.default_rng(31)
    for size in [1, 2, 3, 5, 17, 64, 255, 256, 1000, 4096]:
        values = rng.standard_normal(size)
        values[rng.random(size) < 0.3] = 0.0
        values[0] = 0.0 if size > 1 else 1.0
        cum = build_sq_vector(values if values.any() else np.ones(size)).cum
        # points inside the table, its own entries (leading zeros included) and both ends
        points = ((rng.random(64) * cum[-1]).tolist() + cum[::max(1, size // 64)].tolist()
                  + [0.0, cum.item(-1)])
        for u in points:
            assert bisect_right(cum, u) == int(cum.searchsorted(u, side="right"))


_SEARCHES_ALLOWED = {("sq_access", "sq_sample_at"), ("comm_sim", "_Side.locate")}


def test_only_sq_sample_at_searches_a_cumulative_table():
    # one draw rule: every l2 law is drawn by sq_access.sq_sample_at; the only
    # other search, comm_sim._Side.locate, routes a global index to its block
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name.startswith("bisect") or name == "searchsorted":
                    found.add((module, inner))
            visit(child, module, inner)

    src = Path(__file__).resolve().parents[1] / "src" / "sqcomm"
    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    assert ("sq_access", "sq_sample_at") in found
    assert found <= _SEARCHES_ALLOWED, found - _SEARCHES_ALLOWED
