"""Coordinator protocol: bit accounting, routing, exact laws, linear
combinations, and transcript replay."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqcomm import (
    AllZero,
    AlreadySetup,
    Cancellation,
    DimensionMismatch,
    EncodingSpec,
    IndexOutOfRange,
    NoPlayerData,
    NotSetup,
    Session,
    assemble_stacked,
    coord_a_access,
    coord_a_setup,
    coord_b_query,
    coord_b_sample,
    coord_b_setup,
    export_summary_csv,
    export_transcript_jsonl,
    lincomb_a_access,
    lincomb_a_phi,
    lincomb_b_access,
    lincomb_b_phi,
    make_replay_session,
    meter_report,
    open_session,
    open_session_blocks,
    protocol_distribution,
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


def test_encoding_widths_must_be_integers():
    for bad in ("32", None, 2.5, True, np.int64(8)):
        with pytest.raises(TypeError, match="scalar_bits must be an integer"):
            EncodingSpec(scalar_bits=bad)
        with pytest.raises(TypeError, match="opcode_bits must be an integer"):
            EncodingSpec(opcode_bits=bad)


def test_setup_costs_frozen():
    s = open_session_blocks(2, [], [(0, [1.0, 2.0]), (1, [3.0, 4.0])])
    # k * (opcode + scalar + index_bits(m)) = 2 * (8 + 32 + 2)
    assert coord_b_setup(s) == 84
    assert s.meter.total_bits == 84
    np.testing.assert_allclose(s.b_norms, [math.sqrt(5.0), 5.0])
    assert s.b_sizes == [2, 2]
    with pytest.raises(AlreadySetup):
        coord_b_setup(s)

    s3 = open_session_blocks(3, [], [(i, np.ones(2 + i)) for i in range(3)])
    assert s3.m == 9  # index_bits(9) = 4
    assert coord_b_setup(s3) == 3 * (8 + 32 + 4) == 132


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
    with pytest.raises(DimensionMismatch):
        lincomb_a_access(s, [1.0], ("query", 0, 0))


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
    A, b = assemble_stacked(clone)
    np.testing.assert_allclose(b, [0.0, 0.0, 3.0, 0.0, 0.0, 0.0])  # public survives
    assert np.all(A[[0, 1, 3, 4, 5]] == 0.0) and np.all(A[2] == [0.0, 3.0, 0.0])

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

    # same kind and bits, but index 3 belongs to another player
    live = open_session_blocks(3, [], [(0, [1.0]), (1, [1.0, 5.0]), (2, [7.0, 9.0])])
    coord_b_query(live, 0)
    with pytest.raises(RuntimeError, match="transcript mismatch"):
        coord_b_query(make_replay_session(live), 3)


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


def _stacked_script(session, rng, steps=60):
    """Setups, then a fixed mix of every stacked access; a failed access is
    kept as its exception type."""
    out = [coord_b_setup(session), coord_a_setup(session)]
    for t in range(steps):
        i, j = t % session.a_rows, t % session.n
        request = ["b_sample", ("b_query", t % session.m), "row_norm_sample",
                   ("row_sample", i), ("entry_query", i, j), ("row_norm_query", i),
                   "frobenius_query"][t % 7]
        try:
            if request == "b_sample":
                out.append(coord_b_sample(session, rng))
            elif request[0] == "b_query":
                out.append(coord_b_query(session, request[1]))
            else:
                out.append(coord_a_access(session, request, rng))
        except AllZero as err:
            out.append(type(err))
    return out


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


@settings(derandomize=True, max_examples=50, deadline=None)
@given(session=_small_sessions(), seed=st.integers(0, 2**32 - 1),
       steps=st.integers(1, 30))
def test_replay_matches_live(session, seed, steps):
    live_rng = np.random.default_rng(seed)
    want = _stacked_script(session, live_rng, steps)
    # queries answer with the stacked data: routing agrees with the layout
    A, b = assemble_stacked(session)
    for t, result in enumerate(want[2:]):
        if t % 7 == 1:
            assert result[0] == b[t % session.m]
        elif t % 7 == 4:
            assert result[0] == A[t % session.a_rows, t % session.n]
    replay_rng = np.random.default_rng(seed)
    got = _stacked_script(make_replay_session(session), replay_rng, steps)
    assert got == want
    assert replay_rng.bit_generator.state == live_rng.bit_generator.state


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
    assert set(rep.bits_by_phase) <= {"setup", "access"}
    assert rep.bits_by_phase["setup"] == 129 + 129  # 3 * (8 + 32 + 3) per side


def test_transcript_exports(tmp_path):
    s = _mixed_session()
    _scripted_run(s, seed=2)

    jl = tmp_path / "transcript.jsonl"
    export_transcript_jsonl(s, jl)
    rows = [json.loads(line) for line in jl.read_text().splitlines()]
    assert len(rows) == len(s.meter.messages)
    names = {"C"} | {f"P{i}" for i in (1, 2, 3)} | {"PUB"}
    for row in rows:
        assert set(row) == {"round", "from", "to", "kind", "bits"}
        assert row["from"] in names and row["to"] in names
    assert sum(r["bits"] for r in rows) == s.meter.total_bits

    cs = tmp_path / "summary.csv"
    export_summary_csv(s, cs)
    with open(cs, newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == ["kind", "phase", "messages", "bits"]
    assert sum(int(r[3]) for r in table[1:]) == s.meter.total_bits
    assert [r[0] for r in table[1:]] == sorted(r[0] for r in table[1:])


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
    }
