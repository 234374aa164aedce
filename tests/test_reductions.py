"""Instance generators and the five constructions, checked against closed
forms and the exact oracles."""

import dataclasses
import hashlib
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from sqcomm import (
    BadDimension,
    DisjointnessInstance,
    FunctionPair,
    GapHammingInstance,
    PromiseViolation,
    SingularSystem,
    ZeroMatrix,
    assemble_stacked,
    build_clustering,
    build_hamiltonian,
    build_pca,
    build_recsys,
    build_regression_dense,
    build_regression_sparse,
    decide_clustering,
    decide_disjointness,
    decide_pca,
    decide_recsys,
    dense_solution_law,
    dsp_distribution,
    gen_disjointness,
    gen_function_pair,
    gen_gap_hamming,
    hamiltonian_evolved_law,
    hamiltonian_identity_error,
    pinv_solve,
    top_singular,
)
from sqcomm import Session, reductions
from sqcomm.harness import _ROWS, parse_config, run
from sqcomm.reductions import (
    DENSE_MAX_N,
    EVOLUTION_MAX_N,
    GAP_C1,
    GAP_C2,
    _band_targets,
    _mixing_generator,
    _sign_conjugate,
    _split_signs,
    all_sign_vectors,
    hadamard_matrix,
    hamiltonian_conjugation_sweep,
    hamiltonian_identity_errors_batch,
)


def _frozen_intersecting():
    sets = np.array([
        [1, 1, 1, 1, 0, 0, 0, 0],
        [0, 0, 0, 1, 1, 1, 1, 0],
    ])
    return DisjointnessInstance(k=2, n=8, sets=sets, intersection=(1, 3))


def _frozen_disjoint():
    sets = np.array([
        [1, 1, 1, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 1, 1, 1],
    ])
    return DisjointnessInstance(k=2, n=8, sets=sets, intersection=None)


# --- disjointness instances ---


def test_disjointness_verify_rejects():
    good = _frozen_intersecting()
    good.verify()
    with pytest.raises(PromiseViolation, match="weights"):
        DisjointnessInstance(2, 8, np.ones((2, 8), dtype=int), (1, 0)).verify()
    two_hits = np.array([
        [1, 1, 0, 0, 1, 1, 0, 0],
        [1, 1, 0, 0, 0, 0, 1, 1],
    ])
    with pytest.raises(PromiseViolation, match="intersecting pairs"):
        DisjointnessInstance(2, 8, two_hits, (1, 0)).verify()
    with pytest.raises(PromiseViolation, match="recorded truth"):
        DisjointnessInstance(2, 8, good.sets, None).verify()
    with pytest.raises(PromiseViolation, match="shape"):
        DisjointnessInstance(3, 8, good.sets, (1, 3)).verify()


def test_promise_checks_refuse_non_bits():
    # the 0/1 test is two comparisons: 2, 0.5 and nan fail both, -0.0 == 0
    for bad in (2.0, 0.5, np.nan):
        sets = _frozen_intersecting().sets.astype(np.float64)
        sets[0, 5] = bad
        with pytest.raises(PromiseViolation, match="entries must be 0/1"):
            DisjointnessInstance(2, 8, sets, (1, 3)).verify()
        with pytest.raises(PromiseViolation, match="entries must be 0/1"):
            build_pca([1.0, 0.0, bad], [0.0, 1.0, 0.0])
        with pytest.raises(PromiseViolation, match="entries must be 0/1"):
            build_pca([1.0, 0.0, 0.0], [0.0, 1.0, bad])
    sets = _frozen_intersecting().sets.astype(np.float64)
    sets[sets == 0] = -0.0
    DisjointnessInstance(2, 8, sets, (1, 3)).verify()
    assert build_pca([1.0, -0.0, 1.0], [-0.0, -0.0, 1.0]).truth == 2


def test_gen_disjointness_honors_request():
    rng = np.random.default_rng(1)
    for k in (2, 4, 8):
        for want in (False, True):
            for _ in range(10):
                inst = gen_disjointness(k, 32, want, rng)
                inst.verify()
                assert (inst.intersection is not None) == want
    with pytest.raises(ValueError):
        gen_disjointness(1, 32, True, rng)
    with pytest.raises(ValueError):
        gen_disjointness(2, 4, True, rng)


def test_generators_refuse_non_integer_counts():
    # a float or bool count used to end in numpy's bare TypeError
    rng = np.random.default_rng(11)
    for call, name in ((lambda: gen_gap_hamming(3.0, 16, 1, rng), "k"),
                       (lambda: gen_gap_hamming(True, 16, 1, rng), "k"),
                       (lambda: gen_gap_hamming(3, True, 1, rng), "d"),
                       (lambda: gen_disjointness(2.0, 8, True, rng), "k"),
                       (lambda: gen_disjointness(True, 8, True, rng), "k"),
                       (lambda: gen_disjointness(2, 8.5, True, rng), "n"),
                       (lambda: gen_disjointness(2, 8.0, False, rng), "n")):
        with pytest.raises(ValueError, match=f"got {name} = "):
            call()
    assert gen_disjointness(np.int64(3), np.int64(16), True, rng).k == 3


def _scan_hits(inst):
    """The (player, coordinate) pairs sharing a 1 with player 1, by the k*n scan."""
    sets = np.asarray(inst.sets)
    return [(j, l) for j in range(1, inst.k) for l in range(inst.n)
            if sets[0, l] == 1 and sets[j, l] == 1]


def _verify_outcome(inst):
    try:
        inst.verify()
    except PromiseViolation as err:
        return str(err)
    return None


def test_disjointness_verify_matches_the_scan():
    rng = np.random.default_rng(12)
    cases = []
    for k in (2, 3, 5, 8):
        for n in (8, 9, 17, 40):
            for want in (False, True):
                inst = gen_disjointness(k, n, want, rng)
                hits = _scan_hits(inst)
                assert inst.intersection == (hits[0] if hits else None) and len(hits) <= 1
                assert _verify_outcome(inst) is None
                cases.append(inst)
    # hand-made violations: several hits, a hit at a later player than the
    # recorded one, a recorded hit where there is none, and a missed hit
    for trial in range(200):
        k, n = int(rng.integers(2, 6)), int(rng.integers(8, 24))
        sets = np.zeros((k, n), dtype=np.int64)
        for j in range(k):
            sets[j, rng.choice(n, size=int(rng.integers(-(-n // 4), 3 * n // 4 + 1)),
                               replace=False)] = 1
        hits = _scan_hits(DisjointnessInstance(k, n, sets, None))
        recorded = [None, (1, 0), hits[0] if hits else None, hits[-1] if hits else (k - 1, 3)]
        cases += [DisjointnessInstance(k, n, sets, r) for r in recorded]
    outcomes = Counter()
    for inst in cases:
        hits = _scan_hits(inst)
        if len(hits) > 1:
            want = f"{len(hits)} intersecting pairs, promise allows 1"
        elif (hits[0] if hits else None) != inst.intersection:
            want = f"recorded truth {inst.intersection}, scan found {hits[0] if hits else None}"
        else:
            want = None
        assert _verify_outcome(inst) == want
        outcomes[want.split()[1] if want else "ok"] += 1
    assert outcomes["intersecting"] and outcomes["truth"] and outcomes["ok"]


def test_gen_disjointness_draws_each_instance_once(monkeypatch):
    # every draw keeps the promise, so a verifier failure is raised, not retried
    calls = []
    real = DisjointnessInstance.verify

    def fail_once(inst):
        calls.append(inst)
        if len(calls) == 1:
            raise PromiseViolation("planted")
        real(inst)

    monkeypatch.setattr(DisjointnessInstance, "verify", fail_once)
    with pytest.raises(PromiseViolation, match="planted"):
        gen_disjointness(3, 16, True, np.random.default_rng(0))
    assert len(calls) == 1


# --- sparse regression ---


def test_sparse_regression_frozen_example():
    build = build_regression_sparse(_frozen_intersecting())
    # head solves to beta_b/beta_a = 1; the planted overlap gives n <t1|t2> / (alpha1 alpha2) = 8/4
    np.testing.assert_allclose(build.x_star, [1.0, 2.0], atol=1e-12)
    A, b = assemble_stacked(build.session)
    assert A.shape == (16, 2) and b.shape == (16,)
    np.testing.assert_allclose(pinv_solve(A, b), build.x_star, atol=1e-10)
    law = build.x_star**2 / (build.x_star**2).sum()
    np.testing.assert_allclose(law, [0.2, 0.8], atol=1e-12)

    plain = build_regression_sparse(_frozen_disjoint())
    np.testing.assert_allclose(plain.x_star, [1.0, 0.0], atol=1e-12)


def test_sparse_regression_closed_form_random():
    rng = np.random.default_rng(2)
    for _ in range(20):
        k = int(rng.integers(2, 9))
        inst = gen_disjointness(k, 16, bool(rng.integers(2)), rng)
        build = build_regression_sparse(inst, beta_a=1.5, beta_b=0.5)
        A, b = assemble_stacked(build.session)
        np.testing.assert_allclose(pinv_solve(A, b), build.x_star, atol=1e-9)
        assert build.x_star[0] == pytest.approx(0.5 / 1.5, abs=1e-12)
        # exactly one tail coordinate is nonzero iff the instance intersects
        assert np.count_nonzero(build.x_star[1:] > 1e-12) == (
            1 if inst.intersection else 0
        )


def test_sparse_regression_validation():
    with pytest.raises(ValueError):
        build_regression_sparse(_frozen_intersecting(), beta_a=0.0)
    with pytest.raises(ValueError):
        build_regression_sparse(_frozen_intersecting(), beta_b=-1.0)
    # a nan or infinite scale was served
    for beta in (math.nan, math.inf, True):
        with pytest.raises(ValueError, match="scale parameters"):
            build_regression_sparse(_frozen_intersecting(), beta_a=beta)


def test_decide_disjointness():
    rng = np.random.default_rng(3)
    hit = build_regression_sparse(_frozen_intersecting())
    miss = build_regression_sparse(_frozen_disjoint())
    # disjoint solutions are supported on index 0 only: never a false positive
    assert not any(decide_disjointness(miss, 10, rng) for _ in range(50))
    assert sum(decide_disjointness(hit, 25, rng) for _ in range(50)) == 50


def test_decide_disjointness_refuses_no_samples():
    # no draws used to read as "disjoint" on an intersecting instance
    rng = np.random.default_rng(12)
    hit = build_regression_sparse(_frozen_intersecting())
    state = rng.bit_generator.state
    for num_samples in (0, -1, 2.0, True):
        with pytest.raises(ValueError, match="num_samples"):
            decide_disjointness(hit, num_samples, rng)
    assert rng.bit_generator.state == state


# --- dense regression ---


def test_dense_regression_frozen_law():
    pair = FunctionPair(n=1, f=np.array([1.0, -1.0]), g=np.array([1.0, 1.0]))
    build = build_regression_dense(pair)
    np.testing.assert_allclose(build.target_law, [0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(dense_solution_law(build), [0.0, 1.0], atol=1e-12)


def test_dense_regression_matches_transform_law():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 4):
        for _ in range(10):
            pair = gen_function_pair(n, rng)
            build = build_regression_dense(pair)
            want = dsp_distribution(pair.f, pair.g)
            np.testing.assert_allclose(build.target_law, want, atol=1e-12)
            np.testing.assert_allclose(dense_solution_law(build), want, atol=1e-10)


def test_dense_solution_law_refuses_a_singular_build():
    # the zero matrix used to divide 0/0 into a nan law; a singular system,
    # or a zero solution, now raises a named error
    build = build_regression_dense(gen_function_pair(2, np.random.default_rng(4)))
    for matrix in (np.zeros((4, 4)), np.ones((4, 4))):
        with pytest.raises(SingularSystem, match="no unique solution"):
            dense_solution_law(dataclasses.replace(build, matrix=matrix))
    with pytest.raises(SingularSystem, match="squared norm 0.0; no l2 law"):
        dense_solution_law(dataclasses.replace(build, rhs=np.zeros(4)))


def test_dense_regression_layout_and_caps():
    pair = gen_function_pair(3, np.random.default_rng(5))
    build = build_regression_dense(pair)
    assert build.session.k == 2
    assert [bl.owner for bl in build.session.a_blocks] == [0]
    assert [bl.owner for bl in build.session.b_blocks] == [1]
    assert np.linalg.norm(build.rhs) == pytest.approx(1.0, abs=1e-12)
    # matrix rows are unit-norm sign patterns: Frobenius norm sqrt(2^n)
    assert np.linalg.norm(build.matrix) == pytest.approx(math.sqrt(8.0), abs=1e-12)
    big = FunctionPair(n=11, f=np.ones(2048), g=np.ones(2048))
    with pytest.raises(BadDimension):
        build_regression_dense(big)


def test_hadamard_matrix_is_scipy_bytes():
    for n in range(11):
        want = scipy.linalg.hadamard(2**n).astype(np.float64) / math.sqrt(2**n)
        got = hadamard_matrix(n)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_function_pair_validation():
    with pytest.raises(PromiseViolation):
        FunctionPair(n=2, f=np.ones(3), g=np.ones(4)).verify()
    with pytest.raises(PromiseViolation):
        FunctionPair(n=1, f=np.array([1.0, 0.5]), g=np.ones(2)).verify()


def test_negative_n_is_a_bad_dimension():
    with pytest.raises(BadDimension, match="n = -1"):
        gen_function_pair(-1, np.random.default_rng(6))
    with pytest.raises(BadDimension, match="n = -1"):
        all_sign_vectors(-1)
    with pytest.raises(BadDimension, match="n = -1"):
        hadamard_matrix(-1)


def test_sign_function_sizes_are_checked():
    rng = np.random.default_rng(6)
    helpers = {"gen_function_pair": lambda n: gen_function_pair(n, rng),
               "all_sign_vectors": all_sign_vectors, "hadamard_matrix": hadamard_matrix}
    for name, helper in helpers.items():
        # a float used to end in numpy's bare TypeError, and a bool read as n = 1
        for n in (2.0, True, False, "2", None):
            with pytest.raises(ValueError, match=f"integer >= 0, got n = {n!r}$") as info:
                helper(n)
            assert not isinstance(info.value, BadDimension), name
        helper(np.int64(1))     # a numpy integer is an integer
    # above the largest n any construction takes: refused before anything is
    # allocated (n = 40 asked numpy for 8 TiB)
    for n in (reductions.DENSE_MAX_N + 1, 40):
        for helper in helpers.values():
            with pytest.raises(BadDimension, match=f"n = {n} exceeds"):
                helper(n)
    assert gen_function_pair(reductions.DENSE_MAX_N, rng).f.size == 2**reductions.DENSE_MAX_N


# --- gap-Hamming instances ---


def test_band_targets_frozen():
    # sqrt(64) = 8 and inner products share the parity of d, so even values only
    np.testing.assert_array_equal(_band_targets(64), [8, 10, 12, 14, 16])


def test_band_holds_a_target_for_every_dimension():
    # backs gen_gap_hamming drawing from the band with no empty-band branch,
    # for every d a clustering config may ask for
    for d in range(1, _ROWS + 1):
        targets = _band_targets(d)
        assert targets.size > 0, d
        assert np.all(GAP_C1 * math.sqrt(d) <= targets)
        assert np.all(targets <= GAP_C2 * math.sqrt(d))
        assert np.all((targets - d) % 2 == 0)


def test_gen_gap_hamming_properties():
    rng = np.random.default_rng(7)
    for k in (1, 3, 5):
        for d in (16, 64):
            for sign in (1, -1):
                inst = gen_gap_hamming(k, d, sign, rng)
                inst.verify()
                total = np.asarray(inst.players).sum(axis=0)
                assert np.all(np.abs(total) == 1)
                assert 1.0 * math.sqrt(d) <= sign * inst.gap <= 2.0 * math.sqrt(d)


def test_gen_gap_hamming_validation():
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError):
        gen_gap_hamming(2, 64, 1, rng)
    with pytest.raises(ValueError):
        gen_gap_hamming(3, 64, 0, rng)


def _split_per_column(total, k, rng):
    """The per-column split `_split_signs` replaces, kept as its reference."""
    players = np.empty((k, total.size))
    half = (k + 1) // 2
    for col in range(total.size):
        signs = np.full(k, -total[col])
        signs[rng.permutation(k)[:half]] = total[col]
        players[:, col] = signs
    return players


def test_split_signs_matches_per_column_permutations():
    # same players and same stream position, so every instance is unchanged
    for k in (1, 3, 5, 7):
        for d in (1, 2, 3, 64, 256):
            for seed in range(4):
                total = np.random.default_rng([seed, k, d]).choice((-1.0, 1.0), size=d)
                fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                got = _split_signs(total, k, fast)
                want = _split_per_column(total, k, ref)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                assert fast.bit_generator.state == ref.bit_generator.state
                np.testing.assert_array_equal(got.sum(axis=0), total)


def test_gap_hamming_verify_rejects():
    rng = np.random.default_rng(9)
    good = gen_gap_hamming(3, 16, 1, rng)
    with pytest.raises(PromiseViolation, match="odd"):
        GapHammingInstance(2, 16, good.players[:2], good.probe, 1).verify()
    with pytest.raises(PromiseViolation, match="sum to a sign vector"):
        GapHammingInstance(3, 16, np.ones((3, 16)), good.probe, 1).verify()
    probe = np.asarray(good.players[0])  # gap d is far above the band
    with pytest.raises(PromiseViolation, match="gap"):
        GapHammingInstance(1, 16, good.players[:1], probe, 1).verify()
    with pytest.raises(PromiseViolation, match="sign"):
        GapHammingInstance(3, 16, good.players, good.probe, 0).verify()


def test_gap_hamming_dimension_below_one_rejected():
    # the clustering scale d^(-1/4) and the band need a positive integer d
    rng = np.random.default_rng(10)
    for d in (0, -1, 2.5, 16.0):
        with pytest.raises(ValueError, match=f"got d = {d!r}"):
            gen_gap_hamming(1, d, 1, rng)
    with pytest.raises(PromiseViolation, match="d = 0"):
        GapHammingInstance(1, 0, np.ones((1, 0)), np.ones(0), 1).verify()
    assert gen_gap_hamming(1, np.int64(16), 1, rng).d == 16


def test_gap_hamming_sign_is_an_integer():
    # True and 1.0 were both served as sign +1
    rng = np.random.default_rng(10)
    for sign in (True, False, 1.0, -1.0, 0, 2, "1", None):
        with pytest.raises(ValueError, match="^sign must be [+]1 or -1$"):
            gen_gap_hamming(3, 4, sign, rng)
    inst = gen_gap_hamming(3, 4, np.int64(-1), rng)
    assert inst.sign == -1 and type(inst.sign) is int
    inst.verify()


# --- clustering ---


def test_clustering_frozen_example():
    inst = GapHammingInstance(
        k=1, d=4,
        players=np.array([[1.0, 1.0, -1.0, 1.0]]),
        probe=np.array([1.0, 1.0, 1.0, 1.0]),
        sign=1,
    )
    build = build_clustering(inst)
    assert build.alpha == pytest.approx(4.0**-0.25, abs=1e-15)
    assert build.distance_sq == pytest.approx(2.0, abs=1e-12)
    assert build.bta_sq == pytest.approx(2.0, abs=1e-12)
    assert build.threshold == pytest.approx(4.0, abs=1e-12)
    assert build.margin == pytest.approx(2.0, abs=1e-12)
    assert build.fro_sq == pytest.approx(2.0, abs=1e-12)
    assert build.b_sq == pytest.approx(4.0, abs=1e-12)
    assert decide_clustering(build) == 1
    # probe block is listed first and held by the extra player
    assert build.session.k == 2
    assert [bl.owner for bl in build.session.a_blocks] == [1, 0]


def test_clustering_identities_random():
    rng = np.random.default_rng(11)
    for k in (1, 3, 5):
        for d in (16, 64):
            for sign in (1, -1):
                inst = gen_gap_hamming(k, d, sign, rng)
                build = build_clustering(inst)
                assert build.bta_sq == pytest.approx(build.distance_sq, abs=1e-10)
                assert build.fro_sq == pytest.approx(2.0, abs=1e-12)
                assert build.b_sq == pytest.approx(
                    2.0 * build.alpha**2 * d, abs=1e-12)
                assert decide_clustering(build) == sign
                # the band promise shows up as a margin around the threshold
                assert sign * (build.threshold - build.bta_sq) >= build.margin - 1e-9


# --- principal component and projection decisions ---


def test_pca_frozen_intersecting():
    build = build_pca([1, 0, 1], [0, 0, 1])
    assert build.truth == 2
    ts = top_singular(build.matrix)
    assert ts.sigma == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert not ts.degenerate
    assert decide_pca(build, np.random.default_rng(0)) == (True, 2)


def test_pca_frozen_disjoint():
    build = build_pca([1, 0], [0, 1])
    assert build.truth is None
    ts = top_singular(build.matrix)
    assert ts.sigma == pytest.approx(1.0, abs=1e-12)
    assert ts.degenerate
    hit, _ = decide_pca(build, np.random.default_rng(1))
    assert not hit
    for rng in (None, 7):
        with pytest.raises(ValueError, match="needs a numpy Generator"):
            decide_pca(build, rng)


@pytest.mark.parametrize("rng", [None, 7, np.random.RandomState(0)],
                         ids=["None", "int", "RandomState"])
def test_every_reduction_entry_point_needs_a_generator(rng):
    # a non-Generator raised a bare AttributeError, was drawn from (a
    # RandomState has `choice`), or went unread on an all-zero truncation
    sparse = build_regression_sparse(gen_disjointness(3, 16, True, np.random.default_rng(0)))
    pca = build_pca([1, 0], [0, 1])
    calls = {
        "gen_disjointness": lambda: gen_disjointness(3, 16, True, rng),
        "gen_gap_hamming": lambda: gen_gap_hamming(3, 16, 1, rng),
        "gen_function_pair": lambda: gen_function_pair(3, rng),
        "decide_disjointness": lambda: decide_disjointness(sparse, 4, rng),
        "decide_pca": lambda: decide_pca(pca, rng),
        "decide_recsys": lambda: decide_recsys(build_recsys(pca, 1.2), rng),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=f"^{name} needs a numpy Generator$"):
            call()


def test_pca_bit_pair_validation():
    with pytest.raises(PromiseViolation):
        build_pca([1, 1], [1, 1])
    with pytest.raises(PromiseViolation):
        build_pca([1, 0], [1, 0, 0])
    with pytest.raises(PromiseViolation):
        build_pca([2, 0], [1, 0])
    with pytest.raises(ZeroMatrix):
        build_pca([0, 0], [0, 0])


def test_pca_random_instances():
    rng = np.random.default_rng(13)
    for want in (False, True):
        for _ in range(20):
            inst = gen_disjointness(2, 16, want, rng)
            build = build_pca(inst.sets[0], inst.sets[1])
            hit, idx = decide_pca(build, rng)
            assert hit == want
            if want:
                assert idx == build.truth == inst.intersection[1]


def test_recsys_rank_certifies():
    build = build_recsys(build_pca([1, 0, 1], [0, 0, 1]), 1.2)
    assert build.rank == 1 and build.truth == 2
    assert decide_recsys(build, np.random.default_rng(0)) == (True, 2)

    empty = build_recsys(build_pca([1, 0], [0, 1]), 1.2)
    assert empty.rank == 0 and not empty.truncated.any()
    assert decide_recsys(empty, np.random.default_rng(0)) == (False, None)

    for level in (1.0, math.sqrt(2.0), 0.9, 1.5):
        with pytest.raises(ValueError):
            build_recsys(build_pca([1, 0, 1], [0, 0, 1]), level=level)


def test_recsys_random_instances():
    rng = np.random.default_rng(14)
    for want in (False, True):
        for _ in range(20):
            inst = gen_disjointness(2, 16, want, rng)
            build = build_recsys(build_pca(inst.sets[0], inst.sets[1]), 1.2)
            assert build.rank == (1 if want else 0)
            hit, idx = decide_recsys(build, rng)
            assert hit == want
            if want:
                assert idx == inst.intersection[1]


# --- evolution construction ---


def test_hamiltonian_frozen_single_qubit():
    pair = FunctionPair(n=1, f=np.array([1.0, 1.0]), g=np.array([1.0, -1.0]))
    build = build_hamiltonian(pair)
    assert hamiltonian_identity_error(build) < 1e-12
    assert np.linalg.norm(build.hamiltonian) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert build.time == pytest.approx(math.pi, abs=1e-15)
    assert build.session.k == 2
    assert [bl.owner for bl in build.session.a_blocks] == [0]
    assert [bl.owner for bl in build.session.b_blocks] == [1]
    assert np.linalg.norm(build.state) == pytest.approx(1.0, abs=1e-12)


def test_hamiltonian_evolved_law_matches_transform():
    rng = np.random.default_rng(15)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            pair = gen_function_pair(n, rng)
            build = build_hamiltonian(pair)
            assert hamiltonian_identity_error(build) < 1e-9
            want = dsp_distribution(pair.f, pair.g)
            np.testing.assert_allclose(build.target_law, want, atol=1e-12)
            np.testing.assert_allclose(hamiltonian_evolved_law(build), want,
                                       atol=1e-9)


def test_hamiltonian_batch_agrees_with_single():
    rng = np.random.default_rng(16)
    n = 3
    fs = np.stack([gen_function_pair(n, rng).f for _ in range(6)])
    batch = hamiltonian_identity_errors_batch(n, fs)
    g = np.ones(2**n)
    for err, f in zip(batch, fs):
        single = hamiltonian_identity_error(
            build_hamiltonian(FunctionPair(n=n, f=f, g=g)))
        assert err == pytest.approx(single, abs=1e-10)
    with pytest.raises(BadDimension):
        hamiltonian_identity_errors_batch(2, np.ones((3, 3)))


def test_hamiltonian_batch_stacks_follow_the_matrix_size(monkeypatch):
    # a fixed budget of matrix entries per evolved stack: 512 sign vectors at
    # n = 4, 2 at n = 8; the errors do not depend on how the batch is cut
    stacks = []
    evolve = reductions.expm_hermitian
    monkeypatch.setattr(reductions, "expm_hermitian",
                        lambda mats, t: stacks.append(len(mats)) or evolve(mats, t))
    rng = np.random.default_rng(17)
    for n, count, want in ((4, 513, [512, 1]), (8, 20, [2] * 10)):
        stacks.clear()
        fs = rng.choice((-1.0, 1.0), size=(count, 2**n))
        errors = hamiltonian_identity_errors_batch(n, fs)
        assert stacks == want
        assert errors.max() < 1e-9
        picks = [0, count - 1]
        np.testing.assert_array_equal(
            errors[picks], [hamiltonian_identity_errors_batch(n, fs[[i]])[0] for i in picks])


def test_build_hamiltonian_signs_through_sign_conjugate():
    # one signing route: the per-instance build and the sweeps sign alike
    rng = np.random.default_rng(18)
    for n in range(1, 9):
        pair = gen_function_pair(n, rng)
        build = build_hamiltonian(pair)
        for got, unsigned in ((build.hamiltonian, _mixing_generator(n)),
                              (build.target_unitary, hadamard_matrix(n))):
            assert got.tobytes() == _sign_conjugate(pair.f[None], unsigned)[0].tobytes()


def test_conjugation_sweep_agrees_with_per_instance_errors():
    for n in (1, 2, 3):
        fs = all_sign_vectors(n)
        mismatches, residual = hamiltonian_conjugation_sweep(n, fs)
        assert mismatches == 0
        assert residual < 1e-13
        # LAPACK promises no bitwise agreement between the two routes
        np.testing.assert_allclose(hamiltonian_identity_errors_batch(n, fs), residual,
                                   rtol=0, atol=1e-13)


def test_conjugation_sweep_counts_wrongly_signed_vectors(monkeypatch):
    # a fault that signs with the wrong vector still yields a true conjugate,
    # so only the second route, matmul by diag(f), can see it
    fs = all_sign_vectors(4)
    wrong = fs[[3, 511, 512, 65535]]        # across the first stack boundary
    stacks = []
    real = reductions._sign_conjugate

    def flipped(part, X):
        stacks.append(len(part))
        part = part.copy()
        part[(part[:, None, :] == wrong).all(axis=2).any(axis=1), 5] *= -1
        return real(part, X)

    monkeypatch.setattr(reductions, "_sign_conjugate", flipped)
    mismatches, residual = hamiltonian_conjugation_sweep(4, fs)
    assert mismatches == 4
    assert residual < 1e-13
    # 65,536 vectors in stacks of 512, each signed twice (generator, target)
    assert stacks == [512] * 256


def test_sign_table_and_evolution_stacks_stay_small():
    # all_sign_vectors(4) peaked at 24 MiB for its 8 MiB table, and 20 n = 8
    # evolutions at 40 MiB, in stacks of 8 whose complex temporaries add up
    fs = np.random.default_rng(19).choice((-1.0, 1.0), size=(20, 256))
    hamiltonian_identity_errors_batch(8, fs[:1])     # builds the cached operators
    for route in (lambda: all_sign_vectors(4), lambda: hamiltonian_identity_errors_batch(8, fs)):
        tracemalloc.start()
        try:
            route()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


@pytest.mark.parametrize("dtype", ["U2", bool, object, complex])
def test_sign_stacks_and_bit_pairs_refuse_what_is_not_real_numbers(dtype):
    # each was parsed: ["1", "-1"] and [True, True] were evolved as sign
    # vectors, ["1", "-1"] gave the law [0, 1], and ["1", "0"] built a PCA matrix
    def bad(values):
        return np.array(values).astype(dtype)

    for route in (hamiltonian_identity_errors_batch, hamiltonian_conjugation_sweep):
        with pytest.raises(ValueError, match="^sign vector entries must be .* not dtype"):
            route(1, [bad([1, -1])])
    with pytest.raises(ValueError, match="^f entries must be .* not dtype"):
        dsp_distribution(bad([1, -1]), [1, 1])
    with pytest.raises(ValueError, match="^g entries must be .* not dtype"):
        dsp_distribution([1, 1], bad([1, -1]))
    for a, b in ((bad([1, 0]), [0, 1]), ([1, 0], bad([0, 1]))):
        with pytest.raises(ValueError, match="^bit string entries must be .* not dtype"):
            build_pca(a, b)
    # [True, True] built a Hamiltonian; ["1", "-1"] ended in a bare UFuncTypeError
    for name, f, g in (("f", bad([1, -1]), [1.0, -1.0]), ("g", [1.0, -1.0], bad([1, 1]))):
        for route in (FunctionPair.verify, build_hamiltonian, build_regression_dense):
            with pytest.raises(ValueError, match=f"^{name} entries must be .* not dtype"):
                route(FunctionPair(n=1, f=f, g=g))


@pytest.mark.parametrize("route", [hamiltonian_identity_errors_batch,
                                   hamiltonian_conjugation_sweep])
def test_identity_routes_reject_what_they_cannot_serve(route):
    for bad in (0.5, np.nan, 0.0, 2.0):
        fs = np.ones((3, 4))
        fs[1, 2] = bad
        with pytest.raises(PromiseViolation, match="entries must be"):
            route(2, fs)
    for n in (0, 9, -1):
        with pytest.raises(BadDimension, match="1 <= n <= 8"):
            route(n, np.ones((1, 2 ** max(n, 0))))
    with pytest.raises(BadDimension, match="length 4"):
        route(2, np.ones((3, 3)))


def test_hamiltonian_caps():
    for n in (0, 9):
        pair = FunctionPair(n=n, f=np.ones(2**n), g=np.ones(2**n))
        with pytest.raises(BadDimension, match="1 <= n <= 8"):
            build_hamiltonian(pair)


def test_all_sign_vectors():
    rows = all_sign_vectors(2)
    assert rows.shape == (16, 4)
    assert np.all(np.abs(rows) == 1)
    assert len({tuple(r) for r in rows}) == 16
    with pytest.raises(BadDimension):
        all_sign_vectors(5)


# --- constant operators built once, sessions opened on read, one SVD per trial ---


def _kron_mixing_generator(n):
    """The mixing generator as its kron sum, built afresh on every call."""
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    gap = np.eye(2) - h1
    total = np.zeros((2**n, 2**n))
    for j in range(n):
        total += np.kron(np.kron(np.eye(2**j), gap), np.eye(2 ** (n - j - 1)))
    return total / (2.0 * n)


def test_constant_operators_are_built_once_and_read_only():
    for n in range(DENSE_MAX_N + 1):
        h = hadamard_matrix(n)
        assert hadamard_matrix(np.int64(n)) is h
        want = scipy.linalg.hadamard(2**n).astype(np.float64) / math.sqrt(2**n)
        assert h.tobytes() == want.tobytes()
    for n in range(1, EVOLUTION_MAX_N + 1):
        g = _mixing_generator(n)
        assert _mixing_generator(n) is g
        assert g.dtype == np.float64 and g.tobytes() == _kron_mixing_generator(n).tobytes()
    for op in (hadamard_matrix(3), _mixing_generator(3)):
        before = op.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            op[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            op *= -1.0
        with pytest.raises(ValueError, match="read-only"):
            np.asarray(op)[1, 1] = 5.0
        assert op.tobytes() == before
    # a float n is refused rather than served the integer n's operator
    with pytest.raises(BadDimension, match="integer 1 <= n <= 8, got n = 3.0"):
        hamiltonian_identity_errors_batch(3.0, np.ones((1, 8)))


def _counted_opens(monkeypatch):
    opened = []
    real = reductions.open_session_blocks

    def counting(*args):
        opened.append(real(*args))
        return opened[-1]

    monkeypatch.setattr(reductions, "open_session_blocks", counting)
    return opened


def _layout(session):
    A, b = assemble_stacked(session)
    return (session.k, [(bl.owner, bl.offset) for bl in session.a_blocks],
            [(bl.owner, bl.offset) for bl in session.b_blocks], A, b)


def test_sessions_open_only_when_read(monkeypatch):
    opened = _counted_opens(monkeypatch)
    rng = np.random.default_rng(21)
    pair = gen_function_pair(3, rng)
    inst = gen_gap_hamming(3, 16, -1, rng)
    bits = gen_disjointness(2, 16, True, rng).sets
    pca = build_pca(bits[0], bits[1])
    builds = {"dense": build_regression_dense(pair), "clustering": build_clustering(inst),
              "pca": pca, "recsys": build_recsys(pca, 1.2)}
    assert opened == []
    stacked = np.vstack([np.diag(bits[0]), np.diag(bits[1])]).astype(np.float64)
    want = {
        "dense": (2, [(0, 0)], [(1, 0)], builds["dense"].matrix, builds["dense"].rhs),
        # the probe's block first, held by the extra player
        "clustering": (4, [(3, 0), (0, 1), (1, 2), (2, 3)],
                       [(3, 0), (0, 1), (1, 2), (2, 3)], None, None),
        "pca": (2, [(0, 0), (1, 16)], [], stacked, None),
        "recsys": (2, [(0, 0), (1, 16)], [], stacked, None),
    }
    for name, build in builds.items():
        session = build.session
        assert isinstance(session, Session) and opened[-1] is session, name
        got = _layout(session)
        assert got[:3] == want[name][:3], name
        for have, expect in zip(got[3:], want[name][3:]):
            if expect is not None:
                assert have.tobytes() == expect.tobytes(), name
        assert build.session is session
    assert len(opened) == len(builds)
    # a replaced build keeps its layout and opens a session of its own
    other = dataclasses.replace(builds["recsys"], rank=2)
    assert other.rank == 2 and len(opened) == len(builds)
    assert other.session is not builds["recsys"].session
    assert _layout(other.session)[:3] == want["recsys"][:3]


def test_pca_recsys_takes_one_svd_per_trial(monkeypatch):
    calls = []
    real = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    report = run(parse_config({"experiment": "pca_recsys", "seed": 3, "trials": 4,
                               "params": {"n": 16, "level": 1.2}}))
    assert report.all_passed
    assert calls == [(32, 16)] * 4


def test_pca_and_recsys_decisions_are_pinned():
    # the seeded sweep's decisions, and the Generator state after it, as the
    # three-SVD route gave them
    rng = np.random.default_rng(2020)
    out = []
    for _ in range(40):
        truth = bool(rng.random() < 0.5)
        inst = gen_disjointness(2, 16, truth, rng)
        pca = build_pca(inst.sets[0], inst.sets[1])
        out.append(decide_pca(pca, rng))
        out.append(decide_recsys(build_recsys(pca, 1.2), rng))
    assert out[:6] == [(True, 8), (True, 8), (False, 4), (False, None), (False, 5),
                       (False, None)]
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "23cceacf236b0c15d975fbc05c9bb70803015e94d03baec8db751b0cbb1e953d")
    assert rng.bit_generator.state["state"]["state"] == (
        216905922861797502519351827353305463275)
