"""Coordinator protocol: bit accounting, routing, exact laws, linear
combinations, and transcript replay."""

import ast
import dataclasses
import gc
import hashlib
import math
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.array_utils import byte_bounds
from hypothesis import given, settings
from hypothesis import strategies as st

from sqcomm import comm_sim
from sqcomm import (
    AllZero,
    Annotation,
    AlreadySetup,
    Cancellation,
    DimensionMismatch,
    EncodingSpec,
    IndexOutOfRange,
    NoPlayerData,
    NotSetup,
    Session,
    Timeout,
    assemble_stacked,
    build_sq_matrix,
    coord_a_access,
    coord_a_setup,
    coord_b_query,
    coord_b_sample,
    coord_b_setup,
    lincomb_a_access,
    lincomb_a_phi,
    lincomb_b_access,
    lincomb_b_phi,
    make_replay_session,
    meter_report,
    open_session,
    open_session_blocks,
    protocol_distribution,
    rejection_round_cap,
    stack_layout,
)


def _mixed_session():
    # k=3, one public block on each side, a zero entry and a zero row mixed in
    b_blocks = [
        (0, [1.0, 2.0]),
        (None, [3.0]),
        (1, [0.0, 4.0]),
        (2, [-1.0]),
    ]
    a_blocks = [
        (1, [[1.0, 0.0, 2.0], [0.0, 0.0, 0.0]]),
        (None, [[0.0, 3.0, 0.0]]),
        (0, [[1.0, 1.0, 1.0], [2.0, 0.0, 1.0]]),
        (2, [[0.0, 0.0, 5.0]]),
    ]
    return open_session_blocks(3, a_blocks, b_blocks)


def _pair_session():
    # equal one-entry-per-player shares; handy for combination accesses
    return open_session_blocks(2, [], [(0, [1.0, 0.0]), (1, [0.0, 1.0])])


def _lincomb_session():
    # k=3 same-shape shares on both sides, with zero entries in every share
    b_blocks = [(0, [1.0, 2.0, 0.0]), (1, [0.0, 1.0, -1.0]), (2, [2.0, -1.0, 1.0])]
    a_blocks = [
        (0, [[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]),
        (1, [[0.0, 2.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
        (2, [[1.0, 1.0, 1.0], [2.0, 0.0, -1.0], [0.0, 3.0, 0.0]]),
    ]
    return open_session_blocks(3, a_blocks, b_blocks)


def test_index_bits_frozen():
    bits = EncodingSpec.index_bits
    assert [bits(1), bits(2), bits(4), bits(5), bits(512)] == [0, 1, 2, 3, 9]
    with pytest.raises(ValueError):
        EncodingSpec(scalar_bits=4)
    with pytest.raises(ValueError, match="opcode_bits"):
        EncodingSpec(opcode_bits=-50)
    assert EncodingSpec(opcode_bits=0).opcode_bits == 0
    # 2.5 was served as 2 bits
    for count in (2.5, True, 0, -1, "4", None):
        with pytest.raises(ValueError, match=rf"^index space size {re.escape(repr(count))} "
                                             rf"is not an integer >= 1$"):
            bits(count)
    assert bits(np.int64(5)) == 3


def test_encoding_widths_must_be_integers():
    for bad in ("32", None, 2.5, True):
        with pytest.raises(TypeError, match="scalar_bits must be an integer"):
            EncodingSpec(scalar_bits=bad)
        with pytest.raises(TypeError, match="opcode_bits must be an integer"):
            EncodingSpec(opcode_bits=bad)
    # a numpy integer is an integer, stored as a Python int
    spec = EncodingSpec(scalar_bits=np.int64(8), opcode_bits=np.int32(4))
    assert (spec.scalar_bits, spec.opcode_bits) == (8, 4)
    assert type(spec.scalar_bits) is int and type(spec.opcode_bits) is int


def test_setup_costs_frozen():
    s = open_session_blocks(2, [], [(0, [1.0, 2.0]), (1, [3.0, 4.0])])
    # k * (opcode + scalar + index_bits(m)) = 2 * (8 + 32 + 2)
    assert coord_b_setup(s) == 84
    assert s.meter.total_bits == 84
    assert meter_report(s).bits_by_player == {"P1": 42, "P2": 42}
    np.testing.assert_allclose(s.b_norms, [math.sqrt(5.0), 5.0])
    assert s.b_sizes == [2, 2]
    with pytest.raises(AlreadySetup):
        coord_b_setup(s)

    s3 = open_session_blocks(3, [], [(i, np.ones(2 + i)) for i in range(3)])
    assert s3.m == 9  # index_bits(9) = 4
    assert coord_b_setup(s3) == 3 * (8 + 32 + 4) == 132
    # each player is charged opcode + scalar + index_bits(rows), empty or not
    assert meter_report(s3).bits_by_player == {"P1": 44, "P2": 44, "P3": 44}


def test_setup_required_and_missing_blocks():
    s = _mixed_session()
    with pytest.raises(NotSetup):
        coord_b_sample(s, np.random.default_rng(0))
    with pytest.raises(NotSetup):
        coord_a_access(s, "row_norm_sample", np.random.default_rng(0))
    with pytest.raises(NotSetup):
        coord_a_access(s, "frobenius_query")
    empty_b = open_session_blocks(2, [(0, np.ones((2, 2))), (1, np.ones((2, 2)))], [])
    with pytest.raises(DimensionMismatch):
        coord_b_setup(empty_b)
    empty_a = open_session_blocks(2, [], [(0, [1.0]), (1, [1.0])])
    with pytest.raises(DimensionMismatch):
        coord_a_setup(empty_a)

    # every stacked access on a side the session does not hold is refused as
    # its setup is, before anything is metered or drawn
    coord_a_setup(empty_b)
    coord_b_setup(empty_a)
    missing = [
        (empty_b, "vector", lambda s, rng: coord_b_sample(s, rng)),
        (empty_b, "vector", lambda s, rng: coord_b_query(s, 0)),
        (empty_a, "matrix", lambda s, rng: coord_a_access(s, "row_norm_sample", rng)),
        (empty_a, "matrix", lambda s, rng: coord_a_access(s, "frobenius_query")),
        (empty_a, "matrix", lambda s, rng: coord_a_access(s, ("row_sample", 0), rng)),
        (empty_a, "matrix", lambda s, rng: coord_a_access(s, ("entry_query", 0, 0))),
        (empty_a, "matrix", lambda s, rng: coord_a_access(s, ("row_norm_query", 0))),
        # a combination of a missing side's shares is refused the same way
        (empty_b, "vector", lambda s, rng: lincomb_b_access(s, [1.0, 1.0], ("query", 0))),
        (empty_a, "matrix", lambda s, rng: lincomb_a_access(s, [1.0, 1.0], ("query", 0, 0))),
    ]
    for s, noun, access in missing:
        rows, bits = list(s.meter.rows), s.meter.total_bits
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(DimensionMismatch, match=f"session holds no {noun} blocks"):
            access(s, rng)
        assert (s.meter.rows, s.meter.total_bits) == (rows, bits)
        assert rng.bit_generator.state == state


def test_exact_laws_and_phi_on_a_missing_side_refuse_as_its_access_does():
    # protocol_distribution said AllZero, and a combination's phi and law that
    # shares "differ", on a side that holds no blocks at all
    no_a = open_session_blocks(2, [], [(0, [1.0, 2.0]), (1, [3.0])])
    no_b = open_session_blocks(2, [(0, [[1.0, 2.0]]), (1, [[3.0, 0.0]])], [])
    missing = [
        (no_a, "matrix", lambda s: protocol_distribution(s, "row_norm_sample")),
        (no_b, "vector", lambda s: protocol_distribution(s, "b_sample")),
        (no_b, "vector", lambda s: lincomb_b_phi(s, [1, 1])),
        (no_b, "vector", lambda s: protocol_distribution(s, ("lincomb_b_dominator", [1, 1]))),
        (no_a, "matrix", lambda s: lincomb_a_phi(s, [1, 1])),
    ]
    for s, noun, call in missing:
        with pytest.raises(DimensionMismatch, match=f"session holds no {noun} blocks"):
            call(s)


def test_b_query_costs_and_routing():
    s = open_session_blocks(
        2, [], [(0, [5.0, 6.0]), (None, [7.0]), (1, [8.0, 9.0, 10.0])]
    )
    stacked = [5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    for j, want in enumerate(stacked):
        value, bits = coord_b_query(s, j)
        assert value == want
        # public entries are free; player entries cost opcode+index down, scalar up
        assert bits == (0 if j == 2 else 8 + EncodingSpec.index_bits(6) + 32)
    with pytest.raises(IndexOutOfRange):
        coord_b_query(s, 6)
    with pytest.raises(IndexOutOfRange):
        coord_b_query(s, -1)


def test_row_norm_answers_are_numpy_norm_within_1e_15():
    # a row-norm answer, from a player or a public block, real or complex, is
    # within 1e-15 relative of np.linalg.norm (it is read off the owner's
    # row-norm law, not summed again)
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 7, 64, 257):
        rows = rng.standard_normal((20, n)) * 10.0 ** rng.integers(-100, 100, size=(20, 1))
        for block in (rows, rows + 1j * rng.standard_normal((20, n))):
            s = open_session_blocks(1, [(0, block), (None, block)], [])
            for g in range(40):
                answer, _ = coord_a_access(s, ("row_norm_query", g))
                want = float(np.linalg.norm(block[g % 20]))
                assert type(answer) is float and abs(answer - want) <= 1e-15 * want
    # a zero row, and every row of an owner holding no nonzero entry, answer 0.0
    s = open_session_blocks(2, [(0, [[0.0, 0.0, 0.0]]), (1, [[0.0, 0.0, 0.0], [1.0, 2.0, 2.0]])],
                            [])
    assert [coord_a_access(s, ("row_norm_query", g))[0] for g in range(3)] == [0.0, 0.0, 3.0]


def test_comm_sim_sums_no_norm_of_its_own():
    # one norm rule: comm_sim reads every norm it serves off the masses its
    # draws use, so it takes no dot product, and np.linalg.norm only in the
    # exact phi of a combination
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                name = ast.unparse(child.func)
                if child.func.attr == "dot" or name == "np.linalg.norm":
                    found.add((name, inner))
            visit(child, inner)

    visit(ast.parse(Path(comm_sim.__file__).read_text()), "")
    assert found == {("np.linalg.norm", "_Combination.phi")}, found


def _shares(rng, k, rows, cols, complex_):
    # k shares whose rows span many magnitudes, complex when asked
    out = []
    for _ in range(k):
        share = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-5, 5, size=(rows, 1))
        out.append(share + 1j * rng.standard_normal((rows, cols)) if complex_ else share)
    return out


@pytest.mark.parametrize("complex_", [False, True])
def test_row_norm_answers_are_the_row_norm_law_to_the_last_bit(complex_):
    # one norm rule: a row_norm_query answer squared is its row's mass in the
    # owner's row-norm law, bit for bit, and the combination's fan-out of a
    # row's norms answers the same floats
    k, rows = 4, 128
    shares = _shares(np.random.default_rng(32), k, rows, 64, complex_)
    s = open_session_blocks(k, list(enumerate(shares)), [])
    coord_a_setup(s)
    masses = [build_sq_matrix(share).row_norm_vector.weights for share in shares]
    answers = np.zeros((k, rows))
    for t in range(k):
        for i in range(rows):
            answers[t, i], _ = coord_a_access(s, ("row_norm_query", t * rows + i))
    np.testing.assert_array_equal(np.square(answers), masses)
    lam = [1.0, -0.5, 2.0, 0.25]
    for i in range(rows):
        lincomb_a_access(s, lam, ("dominator_row_norm_query", i))
        fanned = [row[6] for row in s.meter.rows[-k:]]
        assert fanned == answers[:, i].tolist()


def test_frobenius_query_is_the_owner_law_norm():
    # ||A||_F is the norm of the stage-1 owner law the draws use, not a second
    # sum; seven players and a public block make eight masses, which numpy
    # sums in another grouping than (players) + public
    rng = np.random.default_rng(33)
    for _ in range(400):
        blocks = [(t, rng.standard_normal((2, 3)) * 10.0 ** rng.uniform(-3, 3))
                  for t in range(7)] + [(None, rng.standard_normal((1, 3)))]
        s = open_session_blocks(7, blocks, [])
        coord_a_setup(s)
        fro, bits = coord_a_access(s, "frobenius_query")
        assert (fro, bits) == (s._a.owner_law.norm, 0)
        want = float(np.linalg.norm(assemble_stacked(s)[0]))
        assert abs(fro - want) <= 1e-15 * want


def test_dominator_row_norm_is_the_row_draws_weights(monkeypatch):
    # at k = 8 a row's dominator norm is sqrt(k sum) of the very weights the
    # draw of a column of that row uses
    k, rows = 8, 50
    rng = np.random.default_rng(34)
    s = open_session_blocks(k, list(enumerate(_shares(rng, k, rows, 4, False))), [])
    coord_a_setup(s)
    drawn = []
    real = comm_sim._owner_draw

    def spy(*args, **kwargs):
        drawn.append(kwargs["owner_law"].weights)
        return real(*args, **kwargs)

    monkeypatch.setattr(comm_sim, "_owner_draw", spy)
    for t in range(400):
        lam = rng.standard_normal(k) * 10.0 ** rng.uniform(-2, 2, size=k)
        norm, _ = lincomb_a_access(s, lam, ("dominator_row_norm_query", t % rows))
        lincomb_a_access(s, lam, ("dominator_row_sample", t % rows), rng)
        assert norm == math.sqrt(k * float(drawn[-1].sum()))


def test_b_query_frozen_42_bits():
    s = open_session_blocks(2, [], [(0, [1.0, 2.0]), (1, [3.0, 4.0])])
    _, bits = coord_b_query(s, 1)
    assert bits == 42  # (8 + 2) + 32 at m=4


def test_protocol_distribution_matches_centralized():
    s = _mixed_session()
    _, b = assemble_stacked(s)
    law = protocol_distribution(s, "b_sample")
    np.testing.assert_allclose(law, np.abs(b) ** 2 / np.sum(np.abs(b) ** 2),
                               atol=1e-15)

    A, _ = assemble_stacked(s)
    law = protocol_distribution(s, "row_norm_sample")
    row_sq = np.sum(np.abs(A) ** 2, axis=1)
    np.testing.assert_allclose(law, row_sq / row_sq.sum(), atol=1e-15)

    for i in (0, 2, 3, 5):
        law = protocol_distribution(s, ("row_sample", i))
        np.testing.assert_allclose(law, np.abs(A[i]) ** 2 / row_sq[i], atol=1e-15)
    with pytest.raises(AllZero):
        protocol_distribution(s, ("row_sample", 1))


def test_b_sample_statistics():
    s = _mixed_session()
    coord_b_setup(s)
    law = protocol_distribution(s, "b_sample")
    rng = np.random.default_rng(7)
    counts = np.zeros(s.m)
    for _ in range(20000):
        j, _ = coord_b_sample(s, rng)
        counts[j] += 1
    np.testing.assert_allclose(counts / 20000.0, law, atol=0.02)
    assert counts[3] == 0  # zero entry never drawn


def test_sample_determinism():
    def draws(seed):
        s = _mixed_session()
        coord_b_setup(s)
        rng = np.random.default_rng(seed)
        return [coord_b_sample(s, rng)[0] for _ in range(20)]

    assert draws(11) == draws(11)
    assert draws(11) != draws(12)


def test_a_access_values_and_costs():
    s = _mixed_session()
    coord_a_setup(s)
    A, _ = assemble_stacked(s)

    fro, bits = coord_a_access(s, "frobenius_query")
    assert bits == 0  # derived from setup norms, no new message
    assert fro == pytest.approx(np.linalg.norm(A), abs=1e-12)

    r, bits = coord_a_access(s, ("row_norm_query", 3))
    assert r == pytest.approx(np.linalg.norm(A[3]), abs=1e-12)
    assert bits == 8 + EncodingSpec.index_bits(6) + 32

    v, bits = coord_a_access(s, ("entry_query", 5, 2))
    assert v == 5.0
    assert bits == 8 + EncodingSpec.index_bits(6) + EncodingSpec.index_bits(3) + 32

    v, bits = coord_a_access(s, ("entry_query", 2, 1))
    assert (v, bits) == (3.0, 0)  # public row

    with pytest.raises(IndexOutOfRange):
        coord_a_access(s, ("entry_query", 0, 3))
    with pytest.raises(ValueError):
        coord_a_access(s, ("transpose_query", 0))

    rng = np.random.default_rng(3)
    i, bits = coord_a_access(s, "row_norm_sample", rng)
    assert 0 <= i < 6 and i != 1
    j, _ = coord_a_access(s, ("row_sample", 5), rng)
    assert j == 2  # row (0, 0, 5) has a single support point

    # every sampling kind names the missing generator, public rows included
    for request in (("row_sample", 0), ("row_sample", 2), "row_norm_sample"):
        with pytest.raises(ValueError, match="needs a numpy Generator"):
            coord_a_access(s, request)


def test_open_session_pairs():
    A1 = np.ones((2, 2))
    s = open_session([(A1, [1.0, 2.0]), (None, [3.0, 4.0]), (2 * A1, None)])
    assert s.k == 3 and s.m == 4 and s.a_rows == 4 and s.n == 2
    A, b = assemble_stacked(s)
    np.testing.assert_allclose(b, [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(A, np.vstack([A1, 2 * A1]))


def test_session_validation():
    with pytest.raises(DimensionMismatch):
        open_session_blocks(2, [(0, np.ones((1, 2))), (1, np.ones((1, 3)))], [])
    with pytest.raises(DimensionMismatch):
        open_session_blocks(1, [(0, np.ones((2, 2)))], [(0, np.ones(3))])
    with pytest.raises(ValueError):
        open_session_blocks(2, [], [(5, [1.0])])
    with pytest.raises(DimensionMismatch):
        open_session_blocks(1, [], [(0, [])])
    with pytest.raises(DimensionMismatch):
        open_session_blocks(1, [(0, np.ones(3))], [])
    with pytest.raises(ValueError):
        open_session_blocks(0, [], [(0, [1.0])])
    # a non-finite entry would give a nan norm and a skewed owner draw
    with pytest.raises(ValueError, match="finite"):
        open_session_blocks(2, [], [(0, [1.0, np.nan]), (1, [2.0, 3.0])])
    with pytest.raises(ValueError, match="finite"):
        open_session_blocks(2, [(None, [[1.0, np.inf]])], [])


def test_stack_layout_checks_a_layout_without_opening_it():
    # the stacked (A, b) a layout's session would assemble, byte for byte,
    # under the owner, shape and row-count checks of that session's opening
    a_blocks = [(None, [[1.0, 2.0]]), (1, np.ones((2, 2), dtype=np.int64))]
    b_blocks = [(0, [3.0]), (comm_sim.PUBLIC, [4.0, 5.0j])]
    A, b = stack_layout(2, a_blocks, b_blocks)
    want_A, want_b = assemble_stacked(open_session_blocks(2, a_blocks, b_blocks))
    assert A.tobytes() == want_A.tobytes() and b.tobytes() == want_b.tobytes()
    assert stack_layout(1, [], [(0, [1.0])])[0] is None
    for k, a, b in ((2, [(0, np.ones((1, 2))), (1, np.ones((1, 3)))], []),
                    (1, [(0, np.ones((2, 2)))], [(0, np.ones(3))]),
                    (1, [], [(0, [])]), (1, [(0, np.ones(3))], [])):
        with pytest.raises(DimensionMismatch):
            stack_layout(k, a, b)
    with pytest.raises(ValueError, match="^owner 5 is not None"):
        stack_layout(2, [], [(5, [1.0])])
    with pytest.raises(ValueError, match="^player count k = 0 "):
        stack_layout(0, [], [(0, [1.0])])


@pytest.mark.parametrize("k", [2.5, True, False, 0, -1, "2", None])
def test_session_refuses_a_player_count_that_is_not_an_integer(k):
    with pytest.raises(ValueError, match=f"^player count k = {k!r} is not an integer >= 1$"):
        open_session_blocks(k, [], [(0, [1.0])])
    with pytest.raises(ValueError, match="^player count"):
        Session(k, [], [(None, [1.0])])


@pytest.mark.parametrize("owner", [1.5, "x", True, False, 2, -1, np.int64(3), [0]])
def test_session_refuses_an_owner_that_is_not_a_player(owner):
    # a float owner used to end in a bare KeyError, a string in a TypeError,
    # and True became player 1
    for a_blocks, b_blocks in (([], [(owner, [1.0])]), ([(owner, [[1.0]])], [])):
        with pytest.raises(ValueError, match=rf"^owner {re.escape(repr(owner))} is not None"):
            open_session_blocks(2, a_blocks, b_blocks)


def test_session_takes_numpy_integer_counts_and_owners():
    s = open_session_blocks(np.int64(2), [(np.int32(1), [[1.0, 2.0], [0.0, 1.0]])],
                            [(np.int64(0), [3.0]), (comm_sim.PUBLIC, [4.0])])
    assert s.k == 2 and type(s.k) is int
    assert [bl.owner for bl in s.a_blocks] == [1]
    assert [bl.owner for bl in s.b_blocks] == [0, comm_sim.PUBLIC]
    assert all(type(bl.owner) is int for bl in s.a_blocks + s.b_blocks[:1])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_session_rejects_overflowing_masses():
    # one block whose squared magnitudes overflow
    with pytest.raises(ValueError, match="overflow"):
        open_session_blocks(2, [], [(0, [1e200, 1.0]), (1, [1.0])])
    with pytest.raises(ValueError, match="overflow"):
        open_session_blocks(2, [(0, [[1e200, 1.0]]), (1, [[1.0, 1.0]])], [])
    # finite per player, but the owner masses overflow once the coordinator adds them
    s = open_session_blocks(2, [], [(0, [1.3e154]), (1, [1.3e154])])
    with pytest.raises(ValueError, match="overflow"):
        coord_b_setup(s)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_exact_laws_and_phi_refuse_the_masses_setup_refuses():
    # owner masses whose total overflows, as coord_b_setup refuses them:
    # protocol_distribution returned an all-zero "law", and phi read nan
    # (inf / inf), or inf when the shares partly cancel
    s = open_session_blocks(2, [], [(0, [1.3e154]), (1, [1.3e154])])
    for access in ("b_sample", ("lincomb_b_dominator", [1.0, 1.0])):
        with pytest.raises(ValueError, match="overflow"):
            protocol_distribution(s, access)
    with pytest.raises(ValueError, match="overflow"):
        lincomb_b_phi(s, [1.0, 1.0])
    s = open_session_blocks(2, [], [(0, [1.3e154]), (1, [-0.65e154])])
    with pytest.raises(ValueError, match="overflow"):
        lincomb_b_phi(s, [1.0, 1.0])


def test_owner_views_build_their_handles_when_the_session_opens(monkeypatch):
    # a matrix view builds one SQ matrix handle, a vector view one table of
    # its column (`_table`), which its law is built on
    builds = []

    def counting(build):
        def counted(values, *args):
            builds.append(np.asarray(values).shape)
            return build(values, *args)
        return counted

    monkeypatch.setattr(comm_sim, "build_sq_matrix", counting(build_sq_matrix))
    monkeypatch.setattr(comm_sim, "_table", counting(comm_sim._table))
    a_blocks = [(0, [[1.0, 2.0]]), (1, [[0.0, 3.0]]), (None, [[4.0, 0.0]]), (1, [[0.0, 0.0]])]
    b_blocks = [(0, [1.0, 2.0]), (1, [0.0]), (0, [5.0])]
    s = open_session_blocks(2, a_blocks, b_blocks)
    # the b side first, then A, each in owner order; player 1's b view is
    # all zero and never built, and there is no public b block
    assert builds == [(3,), (1, 2), (2, 2), (1, 2)]
    assert s._b.views[1].law is None and s._b.views[0].handle is None
    # setups, draws and queries build nothing more
    coord_b_setup(s)
    coord_a_setup(s)
    rng = np.random.default_rng(0)
    for _ in range(5):
        coord_b_sample(s, rng)
        coord_b_query(s, 0)
        coord_a_access(s, "row_norm_sample", rng)
        coord_a_access(s, ("row_sample", 0), rng)
        coord_a_access(s, ("entry_query", 1, 1))
        coord_a_access(s, ("row_norm_query", 1))
    assert len(builds) == 4
    # a replay clone builds nothing: it shares the live public view
    del builds[:]
    clone = make_replay_session(s)
    coord_b_setup(clone)
    coord_a_setup(clone)
    assert builds == []
    # a squared total near the float64 limit is built and kept; a non-finite
    # entry is refused at open by the same build
    del builds[:]
    open_session_blocks(1, [], [(0, [1.3e154])])
    assert builds == [(1,)]
    with pytest.raises(ValueError, match="finite"):
        open_session_blocks(2, [], [(0, [1.0]), (1, [complex(np.inf, 0.0)])])


def test_lincomb_phi_frozen():
    s = open_session_blocks(2, [], [(0, [3.0, 0.0]), (1, [0.0, 4.0])])
    coord_b_setup(s)
    # combined (3, 4): phi = k * (9 + 16) / 25 = 2
    assert lincomb_b_phi(s, [1.0, 1.0]) == pytest.approx(2.0, abs=1e-12)
    law = protocol_distribution(s, ("lincomb_b_dominator", [1.0, 1.0]))
    np.testing.assert_allclose(law, [9.0 / 25.0, 16.0 / 25.0], atol=1e-15)
    dom, bits = lincomb_b_access(s, [1.0, 1.0], "dominator_norm")
    assert (dom, bits) == (pytest.approx(math.sqrt(50.0), abs=1e-12), 0)
    v, _ = lincomb_b_access(s, [1.0, 1.0], ("dominator_query", 0))
    assert v == pytest.approx(3.0 * math.sqrt(2.0), abs=1e-12)


def test_lincomb_query_fans_out():
    s = _pair_session()
    coord_b_setup(s)
    v, bits = lincomb_b_access(s, [1.0, -2.0], ("query", 1))
    assert v == -2.0
    assert bits == 2 * (8 + 1 + 32) == 82
    # zero coefficients still query every share
    v, bits = lincomb_b_access(s, [0.0, 1.0], ("query", 0))
    assert (v, bits) == (0.0, 82)
    with pytest.raises(IndexOutOfRange):
        lincomb_b_access(s, [1.0, 1.0], ("query", 2))


def test_lincomb_cancellation():
    s = open_session_blocks(2, [], [(0, [1.0, 2.0]), (1, [1.0, 2.0])])
    coord_b_setup(s)
    with pytest.raises(Cancellation):
        lincomb_b_phi(s, [1.0, -1.0])
    with pytest.raises(Cancellation):
        lincomb_b_access(s, [1.0, -1.0], "sq_sample_via_rejection",
                         np.random.default_rng(0))
    # plain queries do not need phi and still answer
    v, _ = lincomb_b_access(s, [1.0, -1.0], ("query", 0))
    assert v == 0.0


def test_lincomb_rejection_statistics():
    s = _pair_session()
    coord_b_setup(s)
    rng = np.random.default_rng(21)
    rounds_total = 0
    counts = np.zeros(2)
    n = 600
    for _ in range(n):
        rs, bits = lincomb_b_access(s, [1.0, 1.0], "sq_sample_via_rejection", rng)
        assert bits > 0 and rs.rounds >= 1
        counts[rs.index] += 1
        rounds_total += rs.rounds
    # combined vector is (1, 1): uniform law, phi = 2
    np.testing.assert_allclose(counts / n, [0.5, 0.5], atol=0.08)
    assert rounds_total / n == pytest.approx(2.0, rel=0.15)


def test_lincomb_norm_estimate_exact_ratios():
    s = _pair_session()
    coord_b_setup(s)
    est, bits = lincomb_b_access(s, [1.0, 1.0], ("norm_estimate", 0.1, 1e-3),
                                 np.random.default_rng(5))
    # every acceptance ratio is exactly 1/2, so the estimate is exact
    assert est == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert bits > 0


def _sample_requests(session, start=0):
    return sum(1 for m in session.meter.messages[start:]
               if m.kind == "lincomb_b_sample" and m.sender == "C")


def test_lincomb_norm_estimate_unequal_ratios():
    s = open_session_blocks(3, [], [(0, [1.0, 2.0, 0.0]), (1, [0.0, 1.0, -1.0]),
                                    (2, [2.0, -1.0, 1.0])])
    coord_b_setup(s)
    mu = [1.0, -0.5, 2.0]
    # combined (5, -0.5, 2.5) against squared dominator entries (51, 24.75, 12.75):
    # the acceptance ratios 25/51, 0.25/24.75 and 6.25/12.75 all differ
    combined, dom_sq = np.array([5.0, -0.5, 2.5]), np.array([51.0, 24.75, 12.75])
    phi = lincomb_b_phi(s, mu)
    assert phi == pytest.approx(dom_sq.sum() / 31.5, rel=1e-12)
    # the dominator law times the ratios, renormalized, is the target law
    accept = protocol_distribution(s, ("lincomb_b_dominator", mu)) * combined**2 / dom_sq
    np.testing.assert_allclose(accept / accept.sum(), combined**2 / 31.5, atol=1e-15)

    eps, delta = 0.1, 1e-2
    start = len(s.meter.messages)
    est, _ = lincomb_b_access(s, mu, ("norm_estimate", eps, delta), np.random.default_rng(3))
    assert abs(est - math.sqrt(31.5)) <= eps * math.sqrt(31.5)
    assert _sample_requests(s, start) == math.ceil(4 * phi * math.log(1 / delta) / eps**2)


def test_lincomb_rejection_determinism():
    # one seed fixes the draw, its bits, its transcript and the Generator's state
    runs = []
    for _ in range(2):
        s = _lincomb_session()
        coord_b_setup(s)
        rng = np.random.default_rng(5)
        got = lincomb_b_access(s, [1.0, -0.5, 2.0], ("sq_sample_via_rejection", 1e-3), rng)
        runs.append((got, meter_report(s), rng.bit_generator.state))
    assert runs[0] == runs[1]


def test_lincomb_rejection_times_out_at_the_cap():
    # combined (1, 0) under squared dominator (2, 36): phi 38, and delta 0.9
    # caps a draw at 6 rounds, so most seeds time out
    timeouts = 0
    for seed in range(50):
        s = open_session_blocks(2, [], [(0, [1.0, 3.0]), (1, [0.0, 3.0])])
        coord_b_setup(s)
        cap = rejection_round_cap(lincomb_b_phi(s, [1.0, -1.0]), 0.9)
        assert cap == 6
        try:
            lincomb_b_access(s, [1.0, -1.0], ("sq_sample_via_rejection", 0.9),
                             np.random.default_rng(seed))
        except Timeout as err:
            timeouts += 1
            assert _sample_requests(s) == cap
            assert err.rounds == cap
    assert timeouts > 0


def test_lincomb_bounds_validated():
    # eps in (0, 1] and delta in (0, 1), checked before anything is metered
    s = _lincomb_session()
    coord_b_setup(s)
    coord_a_setup(s)
    entries = len(s.meter.entries)
    rng = np.random.default_rng(0)
    mu = [1.0, -0.5, 2.0]
    for request in (("norm_estimate", 0.0, 0.1), ("norm_estimate", 1.5, 0.1),
                    ("norm_estimate", 0.1, 2.0), ("norm_estimate", 0.1, 0.0),
                    ("sq_sample_via_rejection", 0.0), ("sq_sample_via_rejection", 1.5)):
        with pytest.raises(ValueError, match="must lie in"):
            lincomb_b_access(s, mu, request, rng)
    for delta in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match="must lie in"):
            lincomb_a_access(s, [0.5, 1.0, -1.0],
                             ("sq_row_sample_via_rejection", 0, delta), rng)
    assert len(s.meter.entries) == entries


def test_round_budgets_that_overflow_are_refused():
    # eps = 1e-170 ended in a ZeroDivisionError (eps**2 is 0.0), eps = 1e-160
    # and delta = 5e-324 in an OverflowError from ceil(inf); each is now a
    # named ValueError, raised before any round is exchanged
    s = _lincomb_session()
    coord_b_setup(s)
    coord_a_setup(s)
    before = meter_report(s)
    rng = np.random.default_rng(0)
    for request in (("norm_estimate", 1e-170, 0.1), ("norm_estimate", 1e-160, 0.1),
                    ("sq_sample_via_rejection", 5e-324)):
        with pytest.raises(ValueError, match=r" inf is not finite or exceeds MAX_ROUNDS"):
            lincomb_b_access(s, [1.0, -0.5, 2.0], request, rng)
    with pytest.raises(ValueError, match=r"^rejection round cap inf is not finite"):
        lincomb_a_access(s, [0.5, 1.0, -1.0], ("sq_row_sample_via_rejection", 0, 5e-324), rng)
    after = meter_report(s)
    assert (after.n_messages, after.total_bits) == (before.n_messages, before.total_bits)


def test_lincomb_matrix_access():
    s = open_session_blocks(
        2,
        [(0, [[1.0, 0.0], [0.0, 2.0]]), (1, [[0.0, 1.0], [2.0, 0.0]])],
        [],
    )
    coord_a_setup(s)
    lam = [1.0, 1.0]
    # combined [[1,1],[2,2]] has squared norm 10 = share sum, so phi = k = 2
    assert lincomb_a_phi(s, lam) == pytest.approx(2.0, abs=1e-12)

    v, bits = lincomb_a_access(s, lam, ("query", 0, 1))
    assert v == 1.0
    assert bits == 2 * (8 + 1 + 1 + 32)
    v, _ = lincomb_a_access(s, lam, ("dominator_query", 0, 0))
    assert v == pytest.approx(math.sqrt(2.0), abs=1e-12)
    v, bits = lincomb_a_access(s, lam, "dominator_fro_norm")
    assert (v, bits) == (pytest.approx(math.sqrt(20.0), abs=1e-12), 0)
    v, _ = lincomb_a_access(s, lam, ("dominator_row_norm_query", 0))
    assert v == pytest.approx(2.0, abs=1e-12)

    law = protocol_distribution(s, ("lincomb_A_row_norm", lam))
    np.testing.assert_allclose(law, [0.2, 0.8], atol=1e-15)
    law = protocol_distribution(s, ("lincomb_A_row", lam, 0))
    np.testing.assert_allclose(law, [0.5, 0.5], atol=1e-15)

    rng = np.random.default_rng(9)
    i, _ = lincomb_a_access(s, lam, "dominator_row_norm_sample", rng)
    assert i in (0, 1)
    j, _ = lincomb_a_access(s, lam, ("dominator_row_sample", 1), rng)
    assert j in (0, 1)
    rs, bits = lincomb_a_access(s, lam, ("sq_row_sample_via_rejection", 1), rng)
    assert rs.index in (0, 1) and rs.rounds >= 1 and bits > 0
    entries = len(s.meter.entries)
    with pytest.raises(DimensionMismatch):
        lincomb_a_access(s, [1.0], ("query", 0, 0))
    with pytest.raises(IndexOutOfRange, match="column 2"):
        lincomb_a_access(s, lam, ("query", 0, 2))
    assert len(s.meter.entries) == entries

    # shares of different shapes: no combination, nothing metered
    for a_blocks, b_blocks, request in (
            ([(0, [[1.0, 0.0]]), (1, [[0.0, 1.0], [1.0, 1.0]])], [], ("query", 0, 0)),
            ([], [(0, [1.0]), (1, [0.0, 1.0])], ("query", 0))):
        t = open_session_blocks(2, a_blocks, b_blocks)
        (coord_a_setup if a_blocks else coord_b_setup)(t)
        entries = len(t.meter.entries)
        access = lincomb_a_access if a_blocks else lincomb_b_access
        with pytest.raises(DimensionMismatch, match="shares differ"):
            access(t, lam, request)
        assert len(t.meter.entries) == entries


def _scripted_run(session, seed):
    """Fixed access sequence used to compare a live run against its replay."""
    rng = np.random.default_rng(seed)
    out = [coord_b_setup(session), coord_a_setup(session)]
    for _ in range(5):
        out.append(coord_b_sample(session, rng))
    out.append(coord_b_query(session, 0))
    out.append(coord_b_query(session, 2))
    out.append(coord_a_access(session, ("entry_query", 3, 1)))
    out.append(coord_a_access(session, "row_norm_sample", rng))
    out.append(coord_a_access(session, ("row_sample", 4), rng))
    out.append(coord_a_access(session, "frobenius_query"))
    return out


def test_replay_reproduces_transcript():
    live = _mixed_session()
    want = _scripted_run(live, seed=40)
    total = live.meter.total_bits

    clone = make_replay_session(live)
    with pytest.raises(NoPlayerData, match="replay session"):
        assemble_stacked(clone)
    # the public blocks survive: the query of public b entry 2 and the
    # Frobenius norm (public A row 2 included) come out as they did live
    got = _scripted_run(clone, seed=40)
    assert got == want
    assert clone.meter.total_bits == total


def test_replay_lincomb_with_annotations():
    def script(session, seed):
        rng = np.random.default_rng(seed)
        out = [coord_b_setup(session)]
        for _ in range(3):
            rs, bits = lincomb_b_access(session, [1.0, 1.0],
                                        "sq_sample_via_rejection", rng)
            out.append((rs.index, rs.rounds, bits))
        out.append(lincomb_b_access(session, [1.0, 1.0],
                                    ("norm_estimate", 0.5, 0.1), rng))
        return out

    live = _pair_session()
    want = script(live, seed=13)
    clone = make_replay_session(live)
    assert script(clone, seed=13) == want
    assert clone.meter.total_bits == live.meter.total_bits


def test_replay_detects_divergence():
    live = open_session_blocks(2, [], [(0, [1.0, 2.0]), (1, [3.0, 4.0])])
    coord_b_setup(live)
    coord_b_query(live, 0)
    clone = make_replay_session(live)
    coord_b_setup(clone)
    with pytest.raises(RuntimeError, match="transcript"):
        coord_b_sample(clone, np.random.default_rng(0))

    clone2 = make_replay_session(live)
    coord_b_setup(clone2)
    coord_b_query(clone2, 0)
    with pytest.raises(RuntimeError, match="exhausted"):
        coord_b_query(clone2, 1)

    # a replay that stops early leaves entries, and its report says how many
    clone3 = make_replay_session(live)
    coord_b_setup(clone3)
    with pytest.raises(RuntimeError, match="2 transcript entries unconsumed"):
        meter_report(clone3)
    coord_b_query(clone3, 0)
    assert meter_report(clone3) == meter_report(live)

    # same kind and bits, but index 3 belongs to another player
    live = open_session_blocks(3, [], [(0, [1.0]), (1, [1.0, 5.0]), (2, [7.0, 9.0])])
    coord_b_query(live, 0)
    with pytest.raises(RuntimeError, match="transcript mismatch"):
        coord_b_query(make_replay_session(live), 3)


def test_replay_raises_recorded_cancellation():
    # a phi that cancels live is recorded as a zero-bit annotation holding the
    # Cancellation, and the replay raises it at the same point
    def script(session):
        rng = np.random.default_rng(1)
        out = [coord_b_setup(session)]
        for mu in ([1.0, -1.0], [1.0, 1.0]):
            try:
                rs, bits = lincomb_b_access(session, mu, "sq_sample_via_rejection", rng)
                out.append((rs.index, rs.rounds, bits))
            except Cancellation as err:
                out.append(type(err))
        return out

    live = open_session_blocks(2, [], [(0, [1.0, 2.0]), (1, [1.0, 2.0])])
    want = script(live)
    assert want[1:] == [Cancellation, (1, 1, 91)]
    assert [(e.kind, type(e.value)) for e in live.meter.entries
            if isinstance(e, Annotation)] == [("phi_b", Cancellation), ("phi_b", float)]
    clone = make_replay_session(live)
    assert script(clone) == want
    assert meter_report(clone) == meter_report(live)

    # an entry of the wrong type is checked before it is consumed: a request
    # that meets the annotation fails and leaves it for the right one
    clone = make_replay_session(live)
    coord_b_setup(clone)
    with pytest.raises(RuntimeError, match="out of order"):
        lincomb_b_access(clone, [1.0, -1.0], ("query", 0))
    with pytest.raises(Cancellation):
        lincomb_b_access(clone, [1.0, -1.0], "sq_sample_via_rejection",
                         np.random.default_rng(1))


def test_replay_rerecords_annotations():
    # a replay's transcript keeps the annotations it reads, so it replays too
    def script(session):
        rng = np.random.default_rng(7)
        coord_b_setup(session)
        return [lincomb_b_access(session, [1.0, 1.0], "sq_sample_via_rejection", rng)
                for _ in range(3)]

    live = open_session_blocks(2, [], [(0, [1.0, 2.0, 0.5]), (1, [3.0, -1.0, 2.0])])
    want = script(live)
    clone = make_replay_session(live)
    assert script(clone) == want
    assert len(live.meter.entries) == 55
    assert clone.meter.entries == live.meter.entries
    again = make_replay_session(clone)
    assert script(again) == want
    assert meter_report(again) == meter_report(live)


def test_replay_binds_request_arguments():
    # same kind, receiver and widths as the recorded round, another index
    live = open_session_blocks(2, [], [(0, [1.0, 2.0, 3.0]), (1, [4.0, 5.0])])
    coord_b_query(live, 0)
    with pytest.raises(RuntimeError, match="transcript mismatch"):
        coord_b_query(make_replay_session(live), 2)

    live = open_session_blocks(2, [], [(0, [1.0, 2.0]), (1, [3.0, 4.0])])
    coord_b_setup(live)
    lincomb_b_access(live, [1.0, 1.0], ("query", 0))
    clone = make_replay_session(live)
    coord_b_setup(clone)
    with pytest.raises(RuntimeError, match="transcript mismatch"):
        lincomb_b_access(clone, [1.0, 1.0], ("query", 1))
    # the arguments ride on the request entries at no extra bits
    assert [m.payload for m in live.meter.messages[-4::2]] == [(0, 0), (0, 0)]
    assert meter_report(live).bits_by_kind["lincomb_b_query"] == 2 * (8 + 1 + 32)


def test_replay_mismatch_consumes_nothing():
    # a request is compared with the recorded entries before they are
    # consumed, so after a mismatch the right request still replays
    live = open_session_blocks(2, [], [(0, [1.0, 2.0, 3.0]), (1, [4.0, 5.0])])
    want = [coord_b_query(live, 0), coord_b_query(live, 1)]
    clone = make_replay_session(live)
    with pytest.raises(RuntimeError, match="transcript mismatch"):
        coord_b_query(clone, 1)
    assert not clone.meter.entries
    assert coord_b_query(clone, 0) == want[0] == (1.0, 43)
    assert coord_b_query(clone, 1) == want[1]
    assert meter_report(clone) == meter_report(live)

    # an annotation of another kind is left in place too
    def script(session, side):
        rng = np.random.default_rng(3)
        coord_b_setup(session)
        coord_a_setup(session)
        if side == "a":
            return lincomb_a_access(session, [1.0, 1.0, 1.0],
                                    ("sq_row_sample_via_rejection", 0), rng)
        return lincomb_b_access(session, [1.0, 1.0, 1.0], "sq_sample_via_rejection", rng)

    live = _lincomb_session()
    want = script(live, "b")
    clone = make_replay_session(live)
    with pytest.raises(RuntimeError, match="transcript mismatch"):
        script(clone, "a")
    assert lincomb_b_access(clone, [1.0, 1.0, 1.0], "sq_sample_via_rejection",
                            np.random.default_rng(3)) == want
    assert meter_report(clone) == meter_report(live)


def test_replay_fan_out_checks_every_row_first():
    # a fan-out is replayed as one batch: all k rows are checked before any
    # is consumed, so a mismatch in the last player's row consumes nothing
    mu = [1.0, 1.0, 1.0]
    live = _lincomb_session()
    coord_b_setup(live)
    want = lincomb_b_access(live, mu, ("query", 0))
    clone = make_replay_session(live)
    coord_b_setup(clone)
    queue = clone._replay_queue
    recorded = queue[2]
    queue[2] = recorded[:5] + ((1, 0),) + recorded[6:]  # P3's row now asks for entry 1
    bits = clone.meter.total_bits
    # query 1 fails on P1's row, query 0 only on P3's
    for request in (("query", 1), ("query", 0)):
        with pytest.raises(RuntimeError, match="transcript mismatch"):
            lincomb_b_access(clone, mu, request)
        assert len(queue) == 3 and clone.meter.total_bits == bits
        with pytest.raises(RuntimeError, match="replay left 6 transcript entries unconsumed"):
            meter_report(clone)
    queue[2] = recorded
    assert lincomb_b_access(clone, mu, ("query", 0)) == want
    assert meter_report(clone) == meter_report(live)


def test_combination_coefficients_must_be_finite():
    # one check in the combination record covers every metered request, the
    # exact phi and the exact laws; nothing is metered
    s = _lincomb_session()
    coord_b_setup(s)
    coord_a_setup(s)
    rng = np.random.default_rng(0)
    bits, entries = s.meter.total_bits, len(s.meter.entries)
    for bad in ([np.nan, 1.0, 1.0], [1.0, np.inf, 0.0], [complex(0.0, np.nan), 1.0, 1.0]):
        for request in (("query", 0), ("dominator_query", 0), "dominator_norm",
                        "dominator_sample", "sq_sample_via_rejection",
                        ("norm_estimate", 0.5, 0.1)):
            with pytest.raises(ValueError, match="coefficients must be finite"):
                lincomb_b_access(s, bad, request, rng)
        for request in (("query", 0, 0), ("dominator_query", 0, 0), "dominator_fro_norm",
                        ("dominator_row_norm_query", 0), "dominator_row_norm_sample",
                        ("dominator_row_sample", 0), ("sq_row_sample_via_rejection", 0)):
            with pytest.raises(ValueError, match="coefficients must be finite"):
                lincomb_a_access(s, bad, request, rng)
        for compute in (lambda: lincomb_b_phi(s, bad), lambda: lincomb_a_phi(s, bad),
                        lambda: protocol_distribution(s, ("lincomb_b_dominator", bad)),
                        lambda: protocol_distribution(s, ("lincomb_A_row_norm", bad)),
                        lambda: protocol_distribution(s, ("lincomb_A_row", bad, 0))):
            with pytest.raises(ValueError, match="coefficients must be finite"):
                compute()
    assert (s.meter.total_bits, len(s.meter.entries)) == (bits, entries)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_one_index_rule_for_every_request():
    # a non-integer index is refused before anything is metered; numpy
    # integers are served as Python ints are
    s = _lincomb_session()
    coord_b_setup(s)
    coord_a_setup(s)
    rng = np.random.default_rng(0)
    bits, entries = s.meter.total_bits, len(s.meter.entries)
    mu = [1.0, -0.5, 2.0]
    requests = [
        lambda: coord_b_query(s, 1.0),
        lambda: coord_b_query(s, True),
        lambda: coord_a_access(s, ("entry_query", 0, 1.0)),
        lambda: coord_a_access(s, ("entry_query", 0.0, 1)),
        lambda: coord_a_access(s, ("row_sample", 0.0), rng),
        lambda: coord_a_access(s, ("row_norm_query", 0.5)),
        lambda: lincomb_b_access(s, mu, ("query", 1.0)),
        lambda: lincomb_a_access(s, mu, ("query", 0, 1.0)),
        lambda: lincomb_a_access(s, mu, ("dominator_row_norm_query", 1.0)),
        lambda: lincomb_a_access(s, mu, ("dominator_row_sample", 1.0), rng),
        lambda: lincomb_a_access(s, mu, ("sq_row_sample_via_rejection", 1.0), rng),
        lambda: protocol_distribution(s, ("row_sample", 1.0)),
        lambda: protocol_distribution(s, ("lincomb_A_row", mu, 1.0)),
        lambda: protocol_distribution(s, ("lincomb_A_row", mu, 5)),
    ]
    for request in requests:
        with pytest.raises(IndexOutOfRange):
            request()
    assert (s.meter.total_bits, len(s.meter.entries)) == (bits, entries)
    assert coord_b_query(s, np.int64(1)) == coord_b_query(s, 1)
    assert (lincomb_a_access(s, mu, ("query", np.int32(0), np.int64(2)))
            == lincomb_a_access(s, mu, ("query", 0, 2)))
    np.testing.assert_array_equal(protocol_distribution(s, ("lincomb_A_row", mu, np.int64(1))),
                                  protocol_distribution(s, ("lincomb_A_row", mu, 1)))


_MU = [1.0, -0.5, 2.0]

# the four request dispatchers, and for each kind its arguments at their most
# and the fewest it takes
_DISPATCHERS = {
    "coord_a_access": lambda s, request, rng: coord_a_access(s, request, rng),
    "protocol_distribution": lambda s, request, rng: protocol_distribution(s, request),
    "lincomb_b_access": lambda s, request, rng: lincomb_b_access(s, _MU, request, rng),
    "lincomb_a_access": lambda s, request, rng: lincomb_a_access(s, _MU, request, rng),
}
_REQUEST_KINDS = [
    ("coord_a_access", "frobenius_query", (), 0),
    ("coord_a_access", "row_norm_sample", (), 0),
    ("coord_a_access", "row_sample", (0,), 1),
    ("coord_a_access", "entry_query", (0, 1), 2),
    ("coord_a_access", "row_norm_query", (0,), 1),
    ("protocol_distribution", "b_sample", (), 0),
    ("protocol_distribution", "row_norm_sample", (), 0),
    ("protocol_distribution", "row_sample", (0,), 1),
    ("protocol_distribution", "lincomb_b_dominator", (_MU,), 1),
    ("protocol_distribution", "lincomb_A_row_norm", (_MU,), 1),
    ("protocol_distribution", "lincomb_A_row", (_MU, 0), 2),
    ("lincomb_b_access", "query", (0,), 1),
    ("lincomb_b_access", "dominator_query", (0,), 1),
    ("lincomb_b_access", "dominator_norm", (), 0),
    ("lincomb_b_access", "dominator_sample", (), 0),
    ("lincomb_b_access", "sq_sample_via_rejection", (0.5,), 0),
    ("lincomb_b_access", "norm_estimate", (0.5, 0.1), 2),
    ("lincomb_a_access", "query", (0, 1), 2),
    ("lincomb_a_access", "dominator_query", (0, 1), 2),
    ("lincomb_a_access", "dominator_fro_norm", (), 0),
    ("lincomb_a_access", "dominator_row_norm_query", (0,), 1),
    ("lincomb_a_access", "dominator_row_norm_sample", (), 0),
    ("lincomb_a_access", "dominator_row_sample", (0,), 1),
    ("lincomb_a_access", "sq_row_sample_via_rejection", (0, 0.5), 1),
]


@pytest.mark.parametrize("dispatcher,kind,args,fewest", _REQUEST_KINDS)
def test_request_shape_is_checked_first(dispatcher, kind, args, fewest):
    # a request with one argument too many or too few, an empty tuple and
    # None are refused with a ValueError before anything is metered or drawn
    s = _lincomb_session()
    coord_b_setup(s)
    coord_a_setup(s)
    serve = _DISPATCHERS[dispatcher]
    serve(s, (kind, *args), np.random.default_rng(1))   # well formed: served
    rng = np.random.default_rng(0)
    entries, state = len(s.meter.entries), rng.bit_generator.state
    wrong_count = [(kind, *args, 9)] + ([(kind, *args[:fewest - 1])] if fewest else [])
    for request in wrong_count:
        with pytest.raises(ValueError, match=f"kind '{kind}' takes"):
            serve(s, request, rng)
    for request in ((), None):
        with pytest.raises(ValueError, match="request is a kind string"):
            serve(s, request, rng)
    assert len(s.meter.entries) == entries
    assert rng.bit_generator.state == state


def test_replay_session_refuses_assemble_stacked():
    # a clone holds no private block, so the stacked (A, b) is not served from it
    live = open_session([([[1.0, 2.0]], [3.0]), ([[4.0, 5.0]], [6.0])])
    coord_b_setup(live)
    clone = make_replay_session(live)
    with pytest.raises(NoPlayerData, match="assemble_stacked reads player data"):
        assemble_stacked(clone)
    A, b = assemble_stacked(live)
    np.testing.assert_array_equal(A, [[1.0, 2.0], [4.0, 5.0]])
    np.testing.assert_array_equal(b, [3.0, 6.0])


def test_failed_player_response_replays():
    # rows 1 and 2 are zero, so their draws fail at the player; player 1 holds
    # nothing but its zero row
    def script(session, seed):
        rng = np.random.default_rng(seed)
        out = [coord_a_setup(session)]
        for i in (1, 2):
            with pytest.raises(AllZero):
                coord_a_access(session, ("row_sample", i), rng)
        out.append(coord_a_access(session, ("row_sample", 0), rng))
        out.append(coord_a_access(session, "row_norm_sample", rng))
        out.append(rng.bit_generator.state)
        return out

    live = open_session_blocks(2, [(0, [[1.0, 2.0], [0.0, 0.0]]), (1, [[0.0, 0.0]])], [])
    want = script(live, seed=5)
    # a failed round is metered at the widths of a served one: 10 down, 1 up
    assert meter_report(live).bits_by_kind["a_row_sample"] == 3 * (10 + 1)
    clone = make_replay_session(live)
    assert script(clone, seed=5) == want
    assert meter_report(clone) == meter_report(live)


def test_replay_session_holds_no_player_data():
    live = _lincomb_session()
    coord_b_setup(live)
    clone = make_replay_session(live)
    for access in ("b_sample", "row_norm_sample", ("row_sample", 0),
                   ("lincomb_b_dominator", [1.0, 1.0, 1.0])):
        with pytest.raises(NoPlayerData, match="replay session"):
            protocol_distribution(clone, access)
    with pytest.raises(NoPlayerData, match="replay session"):
        lincomb_b_phi(clone, [1.0, -0.5, 2.0])
    with pytest.raises(NoPlayerData, match="replay session"):
        lincomb_a_phi(clone, [1.0, -0.5, 2.0])


@pytest.mark.parametrize("seed", range(12))
def test_vector_combination_is_the_one_column_matrix_combination(seed):
    # b-side requests and their a-side twins on the same shares stored as
    # (m, 1) blocks: index_bits(1) == 0, so results, bits and draws agree
    gen = np.random.default_rng(seed)
    k, m = int(gen.integers(1, 5)), int(gen.integers(1, 6))
    shares = [gen.choice([0.0, 0.0, 1.0, -2.0, 0.5], size=m) for _ in range(k)]
    coeffs = gen.choice([0.0, 1.0, -0.5, 2.0], size=k)
    vec = open_session_blocks(k, [], [(i, v) for i, v in enumerate(shares)])
    mat = open_session_blocks(k, [(i, v[:, None]) for i, v in enumerate(shares)], [])
    assert coord_b_setup(vec) == coord_a_setup(mat)
    pairs = [(("query", j), ("query", j, 0)) for j in range(m)]
    pairs += [(("dominator_query", j), ("dominator_query", j, 0)) for j in range(m)]
    pairs += [("dominator_norm", "dominator_fro_norm")] + [
        ("dominator_sample", "dominator_row_norm_sample")] * 4
    vec_rng, mat_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for b_request, a_request in pairs:
        got = []
        for access, session, request, rng in (
                (lincomb_b_access, vec, b_request, vec_rng),
                (lincomb_a_access, mat, a_request, mat_rng)):
            try:
                got.append(access(session, coeffs, request, rng))
            except AllZero as err:
                got.append(type(err))
        assert got[0] == got[1]
        vec_report, mat_report = meter_report(vec), meter_report(mat)
        assert vec_report.total_bits == mat_report.total_bits
        assert vec_report.n_messages == mat_report.n_messages
        assert vec_rng.bit_generator.state == mat_rng.bit_generator.state


def _stacked_requests(session, steps):
    """A fixed mix of every stacked access, `steps` long."""
    out = []
    for t in range(steps):
        i, j = t % session.a_rows, t % session.n
        out.append([("b_sample",), ("b_query", t % session.m), ("row_norm_sample",),
                    ("row_sample", i), ("entry_query", i, j), ("row_norm_query", i),
                    ("frobenius_query",)][t % 7])
    return out


def _serve_all(session, rng, requests):
    """Serve each stacked request in turn; returns the results (a failed access
    kept as its exception type) and the transcript entries each one added."""
    out, added = [], []
    for request in requests:
        before = len(session.meter.entries)
        try:
            if request[0] == "b_sample":
                out.append(coord_b_sample(session, rng))
            elif request[0] == "b_query":
                out.append(coord_b_query(session, request[1]))
            else:
                out.append(coord_a_access(session, request, rng))
        except AllZero as err:
            out.append(type(err))
        added.append(len(session.meter.entries) - before)
    return out, added


def _stacked_script(session, rng, steps=60):
    """Setups, then `_stacked_requests`."""
    out = [coord_b_setup(session), coord_a_setup(session)]
    return out + _serve_all(session, rng, _stacked_requests(session, steps))[0]


def test_coordinator_stream_ignores_player_data():
    # one layout with public blocks on both sides, two sets of private data;
    # the second holds a zero row, so some of its row draws fail at the player
    def session(scale, zero_row):
        rows = np.arange(1.0, 13.0).reshape(4, 3) * scale
        if zero_row:
            rows[1] = 0.0
        b_blocks = [(0, rows[:2, 0] + 1.0), (None, [3.0]), (1, rows[2:, 1] - 20.0)]
        a_blocks = [(0, rows[:2]), (None, [[0.0, 3.0, 1.0]]), (1, rows[2:])]
        return open_session_blocks(2, a_blocks, b_blocks)

    rngs, results = [], []
    for scale, zero_row in ((1.0, False), (-7.0, True)):
        rng = np.random.default_rng(31)
        results.append(_stacked_script(session(scale, zero_row), rng))
        rngs.append(rng)
    assert results[0] != results[1] and AllZero in results[1]
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    live, live_rng = session(1.0, True), np.random.default_rng(32)
    want = _stacked_script(live, live_rng)
    replay_rng = np.random.default_rng(32)
    assert _stacked_script(make_replay_session(live), replay_rng) == want
    assert replay_rng.bit_generator.state == live_rng.bit_generator.state


_small_values = st.sampled_from([0.0, 0.0, 1.0, -2.0, 0.5, 3.0])


@st.composite
def _small_sessions(draw):
    """A session of 1-3 players over 1-4 row blocks, each block owned by a
    player or public on each side; zero entries and zero rows are common."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    owners = st.sampled_from([None] + list(range(k)))
    a_blocks, b_blocks = [], []
    for _ in range(draw(st.integers(1, 4))):
        rows = draw(st.integers(1, 3))
        a_blocks.append((draw(owners), draw(st.lists(
            st.lists(_small_values, min_size=n, max_size=n), min_size=rows, max_size=rows))))
        b_blocks.append((draw(owners), draw(st.lists(_small_values, min_size=rows,
                                                     max_size=rows))))
    return open_session_blocks(k, a_blocks, b_blocks)


def _perturbed(session, requests, added, mutation, at):
    """`requests` with one metered op changed by `mutation`: another index,
    another row, another kind, the op dropped, or an extra copy of it.  Only
    ops whose random draws do not depend on the change are picked, so the
    rest of the stream is served as live; None when no op qualifies."""
    queries = ("b_query", "entry_query", "row_norm_query")

    def replacement(request):
        kind, args = request[0], request[1:]
        if mutation == "drop" and kind in queries:
            return []
        if mutation == "extra" and kind in queries:
            return [request, request]
        if mutation == "kind" and kind in queries:
            i = args[0] % session.a_rows
            return [("entry_query", i, 0) if kind == "row_norm_query" else ("row_norm_query", i)]
        if mutation == "index" and kind in queries:
            size = (session.m, session.n, session.a_rows)[queries.index(kind)]
            new = (kind,) + args[:-1] + ((args[-1] + 1) % size,)
        elif mutation == "row" and kind in ("entry_query", "row_norm_query", "row_sample"):
            new = (kind, (args[0] + 1) % session.a_rows) + args[1:]
        else:
            return None
        return [new] if new != request else None

    spots = [(t, ops) for t, (request, n_added) in enumerate(zip(requests, added))
             if n_added and (ops := replacement(request)) is not None]
    if not spots:
        return None
    t, ops = spots[at % len(spots)]
    return requests[:t] + ops + requests[t + 1:]


@settings(derandomize=True, max_examples=50, deadline=None)
@given(session=_small_sessions(), seed=st.integers(0, 2**32 - 1),
       steps=st.integers(1, 30), at=st.integers(0, 29))
def test_replay_matches_live(session, seed, steps, at):
    requests = _stacked_requests(session, steps)
    live_rng = np.random.default_rng(seed)
    setups = [coord_b_setup(session), coord_a_setup(session)]
    want, added = _serve_all(session, live_rng, requests)
    # queries answer with the stacked data: routing agrees with the layout
    A, b = assemble_stacked(session)
    for t, result in enumerate(want):
        if t % 7 == 1:
            assert result[0] == b[t % session.m]
        elif t % 7 == 4:
            assert result[0] == A[t % session.a_rows, t % session.n]
    replay_rng = np.random.default_rng(seed)
    clone = make_replay_session(session)
    assert [coord_b_setup(clone), coord_a_setup(clone)] == setups
    assert _serve_all(clone, replay_rng, requests)[0] == want
    assert replay_rng.bit_generator.state == live_rng.bit_generator.state
    assert meter_report(clone) == meter_report(session)

    # any single perturbed metered op raises, at the op or at the report
    for mutation in ("index", "row", "kind", "drop", "extra"):
        perturbed = _perturbed(session, requests, added, mutation, at)
        if perturbed is None:
            continue
        clone = make_replay_session(session)
        with pytest.raises(RuntimeError, match="transcript"):
            coord_b_setup(clone)
            coord_a_setup(clone)
            _serve_all(clone, np.random.default_rng(seed), perturbed)
            meter_report(clone)


_coefficient_values = st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5, 2.0])


@st.composite
def _combination_runs(draw):
    """k = 1-4 players, each holding a same-shape vector share and matrix
    share (zero rows and zero coefficients common), the coefficients of both
    combinations, and a sequence of every kind of combination request."""
    k, rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    row = st.one_of(st.just([0.0] * cols), st.lists(_small_values, min_size=cols, max_size=cols))
    a_shares = [draw(st.lists(row, min_size=rows, max_size=rows)) for _ in range(k)]
    b_shares = [draw(st.lists(_small_values, min_size=rows, max_size=rows)) for _ in range(k)]
    coefficients = st.lists(_coefficient_values, min_size=k, max_size=k)
    mu, lam = draw(coefficients), draw(coefficients)
    i, j = st.integers(0, rows - 1), st.integers(0, cols - 1)
    # deltas near 1 keep the round caps and draw counts small at any phi
    delta = st.sampled_from([0.99, 0.999])
    request = st.one_of(
        st.tuples(st.just("b"), st.one_of(
            st.tuples(st.sampled_from(["query", "dominator_query"]), i),
            st.sampled_from(["dominator_sample", "dominator_norm"]),
            st.tuples(st.just("sq_sample_via_rejection"), delta),
            st.tuples(st.just("norm_estimate"), st.just(1.0), delta))),
        st.tuples(st.just("a"), st.one_of(
            st.tuples(st.sampled_from(["query", "dominator_query"]), i, j),
            st.sampled_from(["dominator_fro_norm", "dominator_row_norm_sample"]),
            st.tuples(st.sampled_from(["dominator_row_norm_query", "dominator_row_sample"]), i),
            st.tuples(st.just("sq_row_sample_via_rejection"), i, delta))))
    session = open_session_blocks(k, list(enumerate(a_shares)), list(enumerate(b_shares)))
    return session, mu, lam, draw(st.lists(request, min_size=1, max_size=12))


def _serve_combinations(session, mu, lam, requests, rng):
    """Setups, then each combination request; a failed one kept as its type."""
    out = [coord_b_setup(session), coord_a_setup(session)]
    for side, request in requests:
        access, coeffs = (lincomb_b_access, mu) if side == "b" else (lincomb_a_access, lam)
        try:
            out.append(access(session, coeffs, request, rng))
        except (AllZero, Cancellation, Timeout) as err:
            out.append(type(err))
    return out


def _law_or_error(compute):
    try:
        return compute()
    except (AllZero, Cancellation) as err:
        return type(err)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(run=_combination_runs(), seed=st.integers(0, 2**32 - 1))
def test_combination_replay_and_laws(run, seed):
    session, mu, lam, requests = run
    live_rng = np.random.default_rng(seed)
    want = _serve_combinations(session, mu, lam, requests, live_rng)
    replay_rng = np.random.default_rng(seed)
    clone = make_replay_session(session)
    assert _serve_combinations(clone, mu, lam, requests, replay_rng) == want
    assert replay_rng.bit_generator.state == live_rng.bit_generator.state
    assert meter_report(clone) == meter_report(session)

    # the exact laws and phis against numpy on the assembled shares
    k, rows = session.k, session.m // session.k
    A, b = assemble_stacked(session)
    shares = {"b": b.reshape(k, rows, 1), "a": A.reshape(k, rows, -1)}
    coeffs = {"b": np.asarray(mu), "a": np.asarray(lam)}
    dom_sq = {s: k * (np.abs(coeffs[s][:, None, None] * shares[s]) ** 2).sum(axis=0)
              for s in "ab"}
    combined = {s: (coeffs[s][:, None, None] * shares[s]).sum(axis=0) for s in "ab"}

    def normalized(w):
        return w / w.sum() if w.sum() > 0 else AllZero

    expected = [(("lincomb_b_dominator", mu), normalized(dom_sq["b"].sum(axis=1))),
                (("lincomb_A_row_norm", lam), normalized(dom_sq["a"].sum(axis=1)))]
    expected += [(("lincomb_A_row", lam, i), normalized(dom_sq["a"][i])) for i in range(rows)]
    for access, law in expected:
        got = _law_or_error(lambda: protocol_distribution(session, access))
        if law is AllZero:
            assert got is AllZero
        else:
            np.testing.assert_allclose(got, law, rtol=0, atol=1e-12)
    for s, phi in (("b", lincomb_b_phi), ("a", lincomb_a_phi)):
        c_sq = float((np.abs(combined[s]) ** 2).sum())
        got = _law_or_error(lambda: phi(session, coeffs[s]))
        if c_sq <= 1e-18:
            assert got is Cancellation
        else:
            assert got == pytest.approx(float(dom_sq[s].sum()) / c_sq, rel=1e-12)


def test_meter_report_consistency():
    s = _mixed_session()
    _scripted_run(s, seed=2)
    rep = meter_report(s)
    msgs = s.meter.messages
    assert rep.total_bits == s.meter.total_bits == sum(m.bits for m in msgs)
    assert rep.n_messages == len(msgs)
    assert rep.n_messages % 2 == 0  # request/response pairs
    assert sum(rep.bits_by_kind.values()) == rep.total_bits
    assert sum(rep.bits_by_phase.values()) == rep.total_bits
    assert sum(rep.bits_by_player.values()) == rep.total_bits
    assert list(rep.bits_by_player) == ["P1", "P2", "P3"]
    assert set(rep.bits_by_phase) <= {"setup", "access"}
    assert rep.bits_by_phase["setup"] == 129 + 129  # 3 * (8 + 32 + 3) per side



def test_combination_query_messages_pinned():
    # the Message views of one k=3 fan-out, in player order: each player's
    # request carries (i, j), its response that player's entry as a float
    s = _lincomb_session()
    coord_a_setup(s)
    assert lincomb_a_access(s, [0.5, 1.0, -1.0], ("query", 2, 1)) == (-2.5, 3 * (12 + 32))
    messages = s.meter.messages[6:]
    assert [(m.round, m.sender, m.receiver, m.kind, m.bits, m.phase, m.payload)
            for m in messages] == [
        (4, "C", "P1", "lincomb_a_query", 12, "access", (2, 1)),
        (4, "P1", "C", "lincomb_a_query", 32, "access", 1.0),
        (5, "C", "P2", "lincomb_a_query", 12, "access", (2, 1)),
        (5, "P2", "C", "lincomb_a_query", 32, "access", 0.0),
        (6, "C", "P3", "lincomb_a_query", 12, "access", (2, 1)),
        (6, "P3", "C", "lincomb_a_query", 32, "access", 3.0),
    ]
    assert [type(m.payload) for m in messages[1::2]] == [float, float, float]

    # a real and a complex share: each player still answers its own scalar type
    s = open_session_blocks(2, [], [(0, [1.0, 2.0]), (1, [0.5j, 0.0])])
    coord_b_setup(s)
    assert lincomb_b_access(s, [1.0, 2.0], ("query", 0)) == (1.0 + 1.0j, 2 * (8 + 1 + 32))
    assert [(type(m.payload), m.payload) for m in s.meter.messages[-3::2]] == [
        (float, 1.0), (complex, 0.5j)]


def _transcript_bytes(op, calls: int) -> float:
    """Traced memory kept per call of `op`, after one untimed call (which
    builds anything lazy).  CPython reuses freed small tuples from a free
    list that tracemalloc does not see; holding a few thousand 7-tuples
    empties it, so every transcript row is a traced allocation."""
    held = [tuple(range(t, t + 7)) for t in range(4000)]
    op()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(calls):
            op()
        return (tracemalloc.get_traced_memory()[0] - before) / calls
    finally:
        tracemalloc.stop()
        del held


def test_transcript_memory_per_access():
    # one row per exchange: about 105 B per metered stacked draw and 1,150 B
    # per k=8 fan-out (372 B and 3,306 B as two Message objects per exchange)
    g = np.random.default_rng(0)
    s = open_session_blocks(8, [], [(t, g.standard_normal(64)) for t in range(8)])
    coord_b_setup(s)
    rng = np.random.default_rng(1)
    mu = [1.0, -0.5, 2.0, 0.25, 1.0, 1.0, -1.0, 0.5]
    assert _transcript_bytes(lambda: coord_b_sample(s, rng), 2000) <= 128
    assert _transcript_bytes(lambda: lincomb_b_access(s, mu, ("query", 5)), 500) <= 1280


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_later_writes_to_the_blocks_change_no_access(dtype):
    # the session copies the caller's blocks once, when it opens
    def opened(b, A):
        cut = [slice(0, 2), slice(2, 3), slice(3, 4)]
        return open_session_blocks(2, [(t % 2, A[c]) for t, c in enumerate(cut)],
                                   [(t % 2, b[c]) for t, c in enumerate(cut)])

    b = np.array([1, -2, 3, 4], dtype=dtype)
    A = np.array([[1, 2], [3, 0], [-5, 6], [7, 8]], dtype=dtype)
    s, twin = opened(b, A), opened(b.copy(), A.copy())
    coord_b_setup(s)
    b[:], A[:] = 0, 0
    coord_a_setup(s)
    coord_b_setup(twin)
    coord_a_setup(twin)

    def script(session):
        rng = np.random.default_rng(3)
        return ([coord_b_sample(session, rng) for _ in range(8)]
                + [coord_b_query(session, j) for j in range(4)]
                + [coord_a_access(session, req, rng) for req in (
                    "row_norm_sample", ("row_sample", 2), ("entry_query", 3, 1),
                    ("row_norm_query", 1), "frobenius_query")])

    assert script(s) == script(twin)
    np.testing.assert_array_equal(assemble_stacked(s)[0], assemble_stacked(twin)[0])


def test_an_owner_holds_its_data_once():
    # each owner's blocks are rows of one read-only array, which a matrix
    # view's handle keeps; a vector view keeps the array and its law's
    # masses, |b_j|^2 byte for byte, and no handle
    live = _mixed_session()
    mixed = open_session_blocks(1, [], [(0, [1.0, 2.0]), (0, [1j])])
    for s in (live, mixed):
        if s.b_blocks:
            coord_b_setup(s)
        if s.a_blocks:
            coord_a_setup(s)
        for side, blocks in ((s._b, s.b_blocks), (s._a, s.a_blocks)):
            for owner, view in side.views.items():
                mine = [bl.data for bl in blocks if bl.owner == owner]
                if not mine:
                    continue
                assert not view.data.flags.writeable and view.data.flags.c_contiguous
                assert all(np.shares_memory(d, view.data) for d in mine)
                if side is s._a:
                    assert np.shares_memory(view.handle.values, view.data)
                    continue
                assert view.handle is None and view.law.values is None
                column = np.concatenate(mine)[:, 0]
                assert view.law.weights.tobytes() == (np.abs(column) ** 2).tobytes()
    assert mixed._b.views[0].data.dtype == np.complex128
    assert assemble_stacked(mixed)[1].tolist() == [1.0, 2.0, 1j]


def test_replay_clone_private_blocks_hold_no_bytes():
    live = _mixed_session()
    clone = make_replay_session(live)
    for mine, theirs in ((clone.b_blocks, live.b_blocks), (clone.a_blocks, live.a_blocks)):
        for bl, was in zip(mine, theirs, strict=True):
            assert (bl.owner, bl.offset, bl.data.shape) == (was.owner, was.offset, was.data.shape)
            if bl.owner == comm_sim.PUBLIC:
                np.testing.assert_array_equal(bl.data, was.data)
            else:   # every entry is one stored zero
                lo, hi = byte_bounds(bl.data)
                assert hi - lo == bl.data.itemsize and not bl.data.any()


def test_replay_clone_shares_the_live_public_array():
    live = _mixed_session()
    clone = make_replay_session(live)
    for side, was in ((clone._b, live._b), (clone._a, live._a)):
        assert np.shares_memory(side.views[comm_sim.PUBLIC].data, was.views[comm_sim.PUBLIC].data)
        assert all(view.data is None and view.handle is None for view in side.players)


def test_replay_clone_shares_the_live_public_view():
    # the live public view never changes once the session opens, so a clone
    # holds that view, not a second SQ table over the array it shares: on a
    # session whose rows are half public the clone held about 1.1x the data
    live = _mixed_session()
    clone = make_replay_session(live)
    for side, was in ((clone._b, live._b), (clone._a, live._a)):
        assert side.views[comm_sim.PUBLIC] is was.views[comm_sim.PUBLIC]
    g = np.random.default_rng(7)
    A, b = g.standard_normal((2048, 64)), g.standard_normal(2048)
    owners = [t // 2 if t % 2 == 0 else None for t in range(8)]
    live = open_session_blocks(4, [(o, A[t * 256:(t + 1) * 256]) for t, o in enumerate(owners)],
                               [(o, b[t * 256:(t + 1) * 256]) for t, o in enumerate(owners)])
    coord_b_setup(live)
    coord_a_setup(live)
    tracemalloc.start()
    try:
        clone = make_replay_session(live)
        coord_b_setup(clone)
        coord_a_setup(clone)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < (A.nbytes + b.nbytes) / 20


def test_replay_clone_opens_without_checking_blocks_again(monkeypatch):
    # a clone opens on the live session's checked layout, not down the path
    # of the caller's blocks
    live = _mixed_session()
    want = _scripted_run(live, seed=41)

    def refuse(*args):
        raise AssertionError("a replay clone stacked its blocks again")

    monkeypatch.setattr(comm_sim, "_stack_blocks", refuse)
    clone = make_replay_session(live)
    assert _scripted_run(clone, seed=41) == want
    assert meter_report(clone) == meter_report(live)


def test_a_session_holds_its_data_about_three_times():
    # the owner arrays, their squared magnitudes and the row sums of those;
    # a session held about 5x its data (a copy per block, the owner view's
    # concatenation and the handle's own copy) and a replay clone about 1x
    g = np.random.default_rng(4)
    k, rows, n = 8, 64, 64
    A, b = g.standard_normal((2 * k * rows, n)), g.standard_normal(2 * k * rows)
    cut = [slice(t * rows, (t + 1) * rows) for t in range(2 * k)]
    a_blocks = [(t % k, A[c]) for t, c in enumerate(cut)]
    b_blocks = [(t % k, b[c]) for t, c in enumerate(cut)]
    data = A.nbytes + b.nbytes
    tracemalloc.start()
    try:
        s = open_session_blocks(k, a_blocks, b_blocks)
        coord_b_setup(s)
        coord_a_setup(s)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        clone = make_replay_session(s)
        coord_b_setup(clone)
        coord_a_setup(clone)
        clone_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    # slack: per-row layout (global indices, row-norm laws) and Python objects
    assert held < 3 * data + 2**18
    assert clone_peak < data / 4


def test_a_vector_session_holds_about_four_times_its_data():
    # one player's 4096-entry b: its owner array, its law's masses and
    # cumulative table, and its global index table; a one-column SQ matrix
    # per owner held about 7.2x
    b = np.random.default_rng(6).standard_normal(4096)
    tracemalloc.start()
    try:
        s = open_session_blocks(1, [], [(0, b)])
        coord_b_setup(s)
        after_setup = tracemalloc.get_traced_memory()[0]
        coord_b_sample(s, np.random.default_rng(0))
        after_draw = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after_setup <= 4.5 * b.nbytes and after_draw <= 4.5 * b.nbytes


def test_a_combination_entry_copies_no_share():
    # a fanned-out entry reads each player's owner array in place; a stack of
    # the k shares would add about 1x that side's shares
    g = np.random.default_rng(5)
    k, rows, n = 8, 256, 64
    s = open_session([(g.standard_normal((rows, n)), g.standard_normal(rows))
                      for _ in range(k)])
    coord_b_setup(s)
    coord_a_setup(s)
    for access, request, shares in (
            (lincomb_a_access, ("query", 3, 5), k * rows * n * 8),
            (lincomb_b_access, ("query", 3), k * rows * 8)):
        tracemalloc.start()
        try:
            value, _ = access(s, [1.0] * k, request)
            added = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(value)
        # slack: the k transcript rows, the request record and Python objects
        assert added < shares / 10 + 2**12


def _rejection(result):
    rs, bits = result
    return (rs.index, rs.rounds), bits


def test_golden_stacked_transcript():
    # literal draws and costs for fixed seeds: any change to the RNG draw
    # order, the owner mixture or the bit widths shows up here
    s = _mixed_session()
    coord_b_setup(s)
    coord_a_setup(s)
    rng = np.random.default_rng(101)
    assert [coord_b_sample(s, rng) for _ in range(12)] == [
        (2, 0), (2, 0), (4, 11), (2, 0), (2, 0), (2, 0),
        (4, 11), (2, 0), (4, 11), (4, 11), (4, 11), (1, 11),
    ]
    assert [coord_a_access(s, "row_norm_sample", rng) for _ in range(12)] == [
        (2, 0), (5, 11), (2, 0), (0, 11), (2, 0), (5, 11),
        (5, 11), (5, 11), (5, 11), (5, 11), (3, 11), (0, 11),
    ]
    assert [coord_a_access(s, ("row_sample", i), rng)
            for i in (0, 2, 3, 4, 5, 0, 2, 3)] == [
        (0, 13), (1, 0), (1, 13), (2, 13), (2, 13), (2, 13), (1, 0), (1, 13),
    ]
    assert dataclasses.asdict(meter_report(s)) == {
        "total_bits": 501, "n_messages": 54, "n_rounds": 27,
        "bits_by_kind": {"a_row_norm_sample": 99, "a_row_sample": 78,
                         "a_setup": 129, "b_sample": 66, "b_setup": 129},
        "bits_by_phase": {"access": 243, "setup": 258},
        "messages_by_kind": {"a_row_norm_sample": 18, "a_row_sample": 12,
                             "a_setup": 6, "b_sample": 12, "b_setup": 6},
        "bits_by_player": {"P1": 147, "P2": 189, "P3": 165},
    }


def test_golden_lincomb_transcript():
    s = _lincomb_session()
    coord_b_setup(s)
    coord_a_setup(s)
    mu = [1.0, -0.5, 2.0]
    lam = [0.5, 1.0, -1.0]
    rng = np.random.default_rng(202)
    assert [lincomb_b_access(s, mu, "dominator_sample", rng) for _ in range(6)] == [
        (0, 10), (1, 10), (0, 10), (2, 10), (2, 10), (1, 10),
    ]
    assert [_rejection(lincomb_b_access(s, mu, "sq_sample_via_rejection", rng))
            for _ in range(6)] == [
        ((0, 2), 272), ((0, 1), 136), ((0, 3), 408),
        ((2, 1), 136), ((0, 2), 272), ((0, 1), 136),
    ]
    assert lincomb_b_access(s, mu, ("norm_estimate", 0.5, 0.1), rng) == (
        5.687856108975769, 14144)
    assert [lincomb_a_access(s, lam, "dominator_row_norm_sample", rng)
            for _ in range(6)] == [
        (0, 10), (2, 10), (0, 10), (2, 10), (2, 10), (1, 10),
    ]
    assert [lincomb_a_access(s, lam, ("dominator_row_sample", i), rng)
            for i in (0, 1, 2)] == [(1, 138), (0, 138), (1, 138)]
    assert [_rejection(lincomb_a_access(s, lam, ("sq_row_sample_via_rejection", i), rng))
            for i in (0, 1, 2, 1)] == [
        ((1, 2), 540), ((2, 5), 1350), ((1, 4), 1080), ((1, 2), 540),
    ]
    assert dataclasses.asdict(meter_report(s)) == {
        "total_bits": 19812, "n_messages": 1154, "n_rounds": 577,
        "bits_by_kind": {"a_setup": 132, "b_setup": 132,
                         "lincomb_a_query": 1716, "lincomb_a_row_norm": 2016,
                         "lincomb_a_row_norm_sample": 60,
                         "lincomb_a_row_sample": 192,
                         "lincomb_b_query": 14364, "lincomb_b_sample": 1200},
        "bits_by_phase": {"access": 19548, "setup": 264},
        "messages_by_kind": {"a_setup": 6, "b_setup": 6,
                             "lincomb_a_query": 78, "lincomb_a_row_norm": 96,
                             "lincomb_a_row_norm_sample": 12,
                             "lincomb_a_row_sample": 32,
                             "lincomb_b_query": 684, "lincomb_b_sample": 240},
        "bits_by_player": {"P1": 6282, "P2": 6230, "P3": 7300},
    }


# --- the lean rejection round ---------------------------------------------------

_LAM = [0.5, 1.0, -1.0]
_SAMPLING_REQUESTS = [
    (lincomb_b_access, _MU, "dominator_sample"),
    (lincomb_b_access, _MU, "sq_sample_via_rejection"),
    (lincomb_b_access, _MU, ("norm_estimate", 0.5, 0.1)),
    (lincomb_a_access, _LAM, "dominator_row_norm_sample"),
    (lincomb_a_access, _LAM, ("dominator_row_sample", 0)),
    (lincomb_a_access, _LAM, ("sq_row_sample_via_rejection", 0)),
]


# each metered stacked kind: the recorded request, then a wrong one in its place
_ONE_ROW_REQUESTS = {
    "b_sample": (lambda s, rng: coord_b_sample(s, rng),
                 lambda s, rng: coord_a_access(s, "row_norm_sample", rng)),
    "b_query": (lambda s, rng: coord_b_query(s, 0), lambda s, rng: coord_b_query(s, 1)),
    "row_norm_sample": (lambda s, rng: coord_a_access(s, "row_norm_sample", rng),
                        lambda s, rng: coord_b_sample(s, rng)),
    "row_sample": (lambda s, rng: coord_a_access(s, ("row_sample", 0), rng),
                   lambda s, rng: coord_a_access(s, ("row_sample", 1), rng)),
    "entry_query": (lambda s, rng: coord_a_access(s, ("entry_query", 0, 1)),
                    lambda s, rng: coord_a_access(s, ("entry_query", 0, 0))),
    "row_norm_query": (lambda s, rng: coord_a_access(s, ("row_norm_query", 0)),
                       lambda s, rng: coord_a_access(s, ("row_norm_query", 1))),
}


@pytest.mark.parametrize("kind", sorted(_ONE_ROW_REQUESTS))
def test_replay_mismatch_consumes_nothing_for_each_stacked_kind(kind):
    # one player holds every row, so each request is one metered exchange
    right, wrong = _ONE_ROW_REQUESTS[kind]
    live = open_session_blocks(2, [(1, [[1.0, 2.0], [3.0, 4.0]])], [(1, [1.0, 2.0])])
    coord_b_setup(live)
    coord_a_setup(live)
    want = right(live, np.random.default_rng(5))
    clone = make_replay_session(live)
    coord_b_setup(clone)
    coord_a_setup(clone)
    rows, bits, left = list(clone.meter.rows), clone.meter.total_bits, len(clone._replay_queue)
    with pytest.raises(RuntimeError, match="transcript mismatch"):
        wrong(clone, np.random.default_rng(5))
    assert (clone.meter.rows, clone.meter.total_bits) == (rows, bits)
    assert len(clone._replay_queue) == left
    assert right(clone, np.random.default_rng(5)) == want
    assert meter_report(clone) == meter_report(live)


@pytest.mark.parametrize("access,coeffs,request_", _SAMPLING_REQUESTS)
def test_combination_sampling_checks_the_generator_first(access, coeffs, request_):
    # without a Generator a sampling request is refused before its phi is
    # annotated or any row norm is fanned out
    s = _lincomb_session()
    coord_b_setup(s)
    coord_a_setup(s)
    rows, bits = list(s.meter.rows), s.meter.total_bits
    for rng in (None, 7, np.random.RandomState(0)):
        with pytest.raises(ValueError, match="needs a numpy Generator"):
            access(s, coeffs, request_, rng)
    assert (s.meter.rows, s.meter.total_bits) == (rows, bits)


def _mixed_share_session():
    # _lincomb_session with one complex share per side: the share stacks are
    # object arrays, and each player answers its own scalar type
    s = _lincomb_session()
    b_blocks = [(bl.owner, bl.data[:, 0]) for bl in s.b_blocks]
    a_blocks = [(bl.owner, bl.data) for bl in s.a_blocks]
    b_blocks[1] = (1, [0.5j, 1.0, -1.0 + 0.25j])
    a_blocks[2] = (2, [[1.0j, 1.0, 0.0], [2.0, 0.0, -1.0 + 1.0j], [0.0, 3.0j, 0.5]])
    return open_session_blocks(3, a_blocks, b_blocks)


# SHA-256 over repr of every transcript row, and the Generator's final state,
# taken before the rejection round was rewritten
_ROUND_PINS = {
    "golden": (_lincomb_session, _MU, _LAM, 202,
               "f9cea0ce1d6aa663d1e6829fe46948169204e900139cfc60a8af7bcde021be6e",
               203044089133525513547595965040573595419, 24682),
    "complex_coefficients": (_lincomb_session, [1.0 + 1.0j, -0.5, 2.0j],
                             [0.5j, 1.0, -1.0 - 0.5j], 203,
                             "17a130b7d8a769d05787451dcd577280bbaf8693b08910497685f28370d724bc",
                             112058084589984373722744847458777879305, 30104),
    "mixed_shares": (_mixed_share_session, _MU, _LAM, 204,
                     "3c42119d13f79316a2c13d3ef4f2059c66743f37d6265cb8089c43d479f81695",
                     217759427107866059060486178576634390689, 27388),
}


@pytest.mark.parametrize("case", sorted(_ROUND_PINS))
def test_rejection_rounds_pinned_bit_for_bit(case):
    make, mu, lam, seed, digest, state, bits = _ROUND_PINS[case]
    s = make()
    coord_b_setup(s)
    coord_a_setup(s)
    rng = np.random.default_rng(seed)
    for _ in range(8):
        lincomb_b_access(s, mu, "sq_sample_via_rejection", rng)
    lincomb_b_access(s, mu, ("norm_estimate", 0.5, 0.1), rng)
    for i in (0, 1, 2, 1, 0):
        lincomb_a_access(s, lam, ("sq_row_sample_via_rejection", i), rng)
    rows = "".join(repr(row) for row in s.meter.rows)
    assert hashlib.sha256(rows.encode()).hexdigest() == digest
    assert rng.bit_generator.state["state"]["state"] == state
    assert s.meter.total_bits == bits


def _stacked_stream(session, rng):
    """All seven stacked kinds over every row of `_mixed_session`: public
    rows and public-owner draws are free, and row 1 is a zero row, so its
    row draws fail (recorded, then raised) and show as "AllZero"."""
    coord_b_setup(session)
    coord_a_setup(session)
    out = []

    def attempt(access, *args):
        try:
            out.append(access(session, *args))
        except AllZero as err:
            out.append(type(err).__name__)

    for rep in range(6):
        attempt(coord_b_sample, rng)
        attempt(coord_a_access, "row_norm_sample", rng)
        for i in range(6):
            attempt(coord_b_query, i)
            attempt(coord_a_access, ("row_sample", i), rng)
            attempt(coord_a_access, ("entry_query", i, (i + rep) % 3))
            attempt(coord_a_access, ("row_norm_query", i))
        attempt(coord_a_access, "frobenius_query")
    return out


def test_stacked_stream_pinned_bit_for_bit():
    # SHA-256 over repr of every transcript row, the Generator's final state
    # and the bit total, taken before the stacked access path was made lean
    s = _mixed_session()
    rng = np.random.default_rng(206)
    out = _stacked_stream(s, rng)
    rows = "".join(repr(row) for row in s.meter.rows)
    assert hashlib.sha256(rows.encode()).hexdigest() == (
        "6ebc635b768dea1c76d85fabf7604627ca28f1f5b64a6fcc73cc403a3fb52b70")
    assert rng.bit_generator.state["state"]["state"] == 146909978881889780732333398197744566420
    assert s.meter.total_bits == 4666
    assert out.count("AllZero") == 6 and (1, 0) in out   # a failure and a free draw
    clone = make_replay_session(s)
    replay_rng = np.random.default_rng(206)
    assert _stacked_stream(clone, replay_rng) == out
    assert replay_rng.bit_generator.state == rng.bit_generator.state
    assert meter_report(clone) == meter_report(s)   # every row consumed


_complex_values = st.sampled_from([0.0, 1.0, -2.0, 0.5j, 1.0 - 1.0j])


@st.composite
def _rejection_runs(draw):
    """k = 1-3 players, each holding same-shape vector and matrix shares, a
    share complex at random (so a stack may mix real and complex), real or
    complex coefficients, and one rejection or norm-estimate request."""
    k, rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    a_shares, b_shares = [], []
    for _ in range(k):
        values = _complex_values if draw(st.booleans()) else _small_values
        a_shares.append(draw(st.lists(st.lists(values, min_size=cols, max_size=cols),
                                      min_size=rows, max_size=rows)))
        b_shares.append(draw(st.lists(values, min_size=rows, max_size=rows)))
    coefficient = _complex_values if draw(st.booleans()) else _coefficient_values
    coeffs = draw(st.lists(coefficient, min_size=k, max_size=k))
    delta = draw(st.sampled_from([0.99, 0.999]))
    request = draw(st.sampled_from([
        ("b", ("sq_sample_via_rejection", delta)),
        ("b", ("norm_estimate", 1.0, delta)),
        ("a", ("sq_row_sample_via_rejection", draw(st.integers(0, rows - 1)), delta))]))
    session = open_session_blocks(k, list(enumerate(a_shares)), list(enumerate(b_shares)))
    return session, coeffs, request


@settings(derandomize=True, max_examples=60, deadline=None)
@given(run=_rejection_runs(), seed=st.integers(0, 2**32 - 1))
def test_rejection_request_consumes_pick_coin_and_accept_uniforms(run, seed):
    # each round takes the owner-pick and the local-coin uniforms, and a
    # rejection round one more accept uniform when its dominator entry is
    # nonzero; nothing else draws from the caller's Generator
    session, coeffs, (side, request) = run
    coord_b_setup(session)
    coord_a_setup(session)
    access = lincomb_b_access if side == "b" else lincomb_a_access
    start = len(session.meter.rows)
    rng = np.random.default_rng(seed)
    try:
        access(session, coeffs, request, rng)
    except (AllZero, Cancellation, Timeout):
        pass
    queries = [row for row in session.meter.rows[start:]
               if not isinstance(row, Annotation) and row[1].endswith("_query")]
    k = session.k
    rounds = [queries[t:t + k] for t in range(0, len(queries), k)]
    spent = 2 * len(rounds)
    if request[0] != "norm_estimate":
        spent += sum(any(c * row[6] != 0 for c, row in zip(coeffs, rnd)) for rnd in rounds)
    reference = np.random.default_rng(seed)
    reference.random(spent)
    assert rng.bit_generator.state == reference.bit_generator.state


def test_phi_is_memoised_per_side(monkeypatch):
    calls = []
    exact = comm_sim._Combination.phi

    def counted(self, row=None):
        calls.append(row)
        return exact(self, row)

    monkeypatch.setattr(comm_sim._Combination, "phi", counted)
    s = _lincomb_session()
    coord_b_setup(s)
    coord_a_setup(s)
    vector, row = "sq_sample_via_rejection", "sq_row_sample_via_rejection"
    # (access, coefficients, request, the rows whose phi it computes)
    script = [
        # equal coefficients, in any container: phi once, one annotation each
        (lincomb_b_access, _MU, vector, [None]),
        (lincomb_b_access, np.array(_MU), vector, []),
        (lincomb_b_access, tuple(_MU), vector, []),
        # changed values, then the complex dtype of equal values
        (lincomb_b_access, [1.0, -0.5, 2.5], vector, [None]),
        (lincomb_b_access, [1.0 + 0j, -0.5, 2.5], vector, [None]),
        # the A side keeps its own slot; another row recomputes
        (lincomb_a_access, _LAM, (row, 0), [0]),
        (lincomb_a_access, _LAM, (row, 0), []),
        (lincomb_a_access, _LAM, (row, 1), [1]),
        (lincomb_a_access, _LAM, (row, 0), [0]),
    ]
    rng = np.random.default_rng(9)
    live = []
    for access, coeffs, request, computed in script:
        before = len(calls)
        live.append(access(s, coeffs, request, rng))
        assert calls[before:] == computed
    annotations = [r for r in s.meter.rows if isinstance(r, Annotation)]
    assert [a.kind for a in annotations] == ["phi_b"] * 5 + ["phi_row"] * 4
    assert annotations[0] == annotations[1] == annotations[2]

    # a replay clone reproduces every annotation and computes no phi
    clone = make_replay_session(s)
    coord_b_setup(clone)
    coord_a_setup(clone)
    rng = np.random.default_rng(9)
    before = len(calls)
    assert [access(clone, coeffs, request, rng)
            for access, coeffs, request, _ in script] == live
    assert [r for r in clone.meter.rows if isinstance(r, Annotation)] == annotations
    assert len(calls) == before

    # a cancelling combination raises on every request, never memoised
    s = open_session_blocks(2, [], [(0, [1.0, 2.0]), (1, [1.0, 2.0])])
    coord_b_setup(s)
    before = len(calls)
    for _ in range(3):
        with pytest.raises(Cancellation):
            lincomb_b_access(s, [1.0, -1.0], vector, np.random.default_rng(0))
    assert calls[before:] == [None] * 3
    assert [type(r.value) for r in s.meter.rows if isinstance(r, Annotation)] == (
        [Cancellation] * 3)


def test_each_side_keeps_its_last_combination_in_one_slot(monkeypatch):
    # the slot holds the record of the last checked coefficients (dtype and
    # bytes) with its phi and its dominator row-norm law, built once for
    # every request it answers
    phis, laws = [], []
    exact, build = comm_sim._Combination.phi, comm_sim._law

    def counted_phi(self, row=None):
        phis.append(row)
        return exact(self, row)

    def counted_law(weights, *args):
        laws.append(weights.size)
        return build(weights, *args)

    s = _lincomb_session()
    coord_b_setup(s)
    coord_a_setup(s)
    monkeypatch.setattr(comm_sim._Combination, "phi", counted_phi)
    monkeypatch.setattr(comm_sim, "_law", counted_law)
    vector = "sq_sample_via_rejection"
    # (access, coefficients, request, whether it takes a new record); every
    # new record of a row-free draw builds one row-norm law, and a draw
    # within a row fans out its owner law per round
    script = [(lincomb_b_access, _MU, vector, True)]
    script += [(lincomb_b_access, coeffs, vector, False)
               for coeffs in [_MU] * 7 + [np.array(_MU), tuple(_MU)]]
    script += [
        (lincomb_b_access, [1.0, -0.5, 2.5], vector, True),
        (lincomb_b_access, [1.0 + 0j, -0.5, 2.5], vector, True),
        (lincomb_a_access, _LAM, "dominator_row_norm_sample", True),
        (lincomb_a_access, _LAM, ("sq_row_sample_via_rejection", 1), False),
        (lincomb_b_access, [1.0 + 0j, -0.5, 2.5], "dominator_sample", False),
    ]
    assert s._b.slot is None and s._a.slot is None
    rng = np.random.default_rng(9)
    live, records = [], []
    for access, coeffs, request, new in script:
        side = s._b if access is lincomb_b_access else s._a
        before, built = side.slot, len(laws)
        live.append(access(s, coeffs, request, rng))
        assert (side.slot is not before) == new
        if "sq_row_sample_via_rejection" not in request:
            assert len(laws) - built == new
        records.append(side.slot)
    # ten requests with equal coefficients share one record and one phi
    assert records[:10] == [records[0]] * 10
    assert phis == [None, None, None, 1]
    assert s._b.slot is records[11] and s._a.slot is records[12]

    # a replay clone starts with empty slots, reproduces every answer and
    # computes no phi
    clone = make_replay_session(s)
    assert clone._b.slot is None and clone._a.slot is None
    coord_b_setup(clone)
    coord_a_setup(clone)
    rng = np.random.default_rng(9)
    assert [access(clone, coeffs, request, rng) for access, coeffs, request, _ in script] == live
    assert len(phis) == 4

    # a Cancellation is raised on every request and never stored
    s = open_session_blocks(2, [], [(0, [1.0, 2.0]), (1, [1.0, 2.0])])
    coord_b_setup(s)
    del phis[:]
    for _ in range(3):
        with pytest.raises(Cancellation):
            lincomb_b_access(s, [1.0, -1.0], vector, np.random.default_rng(0))
        assert s._b.slot.phi_memo is None
    assert phis == [None] * 3


def test_a_session_is_freed_without_the_cycle_collector():
    # the slot's record refers to its session and side weakly: a strong
    # reference back made every session that answered a combination request
    # cyclic garbage, which only the collector freed (in 03 that took about
    # 60 ms of collector time, against about 1 ms without it)
    def run(s):
        coord_b_setup(s)
        coord_a_setup(s)
        rng = np.random.default_rng(3)
        for request in ("dominator_sample", "sq_sample_via_rejection", ("query", 1)):
            lincomb_b_access(s, _MU, request, rng)
        lincomb_a_access(s, _LAM, ("sq_row_sample_via_rejection", 0), rng)
        assert s._b.slot is not None and s._a.slot is not None

    gc.collect()
    gc.disable()
    try:
        live = _lincomb_session()
        run(live)
        clone = make_replay_session(live)
        run(clone)
        dead = weakref.ref(clone)
        del clone
        assert dead() is None
        dead = weakref.ref(live)
        del live
        assert dead() is None
    finally:
        gc.enable()
