"""Hard-instance generators and the five matrix-problem constructions built on
top of them, each packaged as a partitioned coordinator session.

The constructions map communication problems to linear-algebra tasks:

* set-disjointness -> row-sparse regression whose solution's l2 law reveals
  the intersecting player;
* sign-correlation sampling -> dense regression against a signed Hadamard
  matrix, whose solution law is the squared-correlation distribution;
* gap-Hamming -> supervised clustering, where a centroid distance crosses a
  threshold depending on the promise branch;
* 2-party disjointness -> top-singular-pair extraction and thresholded
  low-rank projection (recommendation-style row sampling);
* sign-correlation sampling again -> Hamiltonian evolution whose final state
  has the same law.

Each builder returns the session's layout plus closed-form expected values so
tests can check the construction against the independent linear-algebra
oracle; the session itself opens on the first read of `.session`.  The
decision procedures are granted direct SQ access to oracle-computed solutions
where the task's output is itself an SQ structure; that stand-in is the
strongest case for any algorithm producing such output.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _checks
from .comm_sim import Session, assemble_stacked, open_session_blocks
from .linalg_oracle import (
    BadDimension,
    SvdFactors,
    dsp_distribution,
    expm_apply,
    expm_hermitian,
    pinv_solve,
    svd_factors,
)
from .sq_access import (
    AllZero,
    build_sq_matrix,
    build_sq_vector,
    sq_row,
    sq_sample,
    sq_sample_many,
    _frozen,
)

DENSE_MAX_N = 10        # largest n any construction takes (dense regression's)
EVOLUTION_MAX_N = 8     # largest n of the Hamiltonian evolution construction
GAP_C1, GAP_C2 = 1.0, 2.0   # the gap-Hamming band [c1 sqrt(d), c2 sqrt(d)]


class PromiseViolation(ValueError):
    """An instance fails its promise verifier."""


class ZeroMatrix(ValueError):
    """A construction degenerated to an all-zero matrix."""


class SingularSystem(ValueError):
    """A square system has no unique, finite and nonzero solution."""


# the `_checks.count` rules of a sign-function size n and of the evolution's n
# (at n = 0 its mixing generator would divide by zero)
_SIGN_SIZE = (0, DENSE_MAX_N, "sign-function size n must be an integer >= 0, got n = {!r}",
              ValueError, (BadDimension, "n = {} must be nonnegative"),
              (BadDimension, f"n = {{}} exceeds DENSE_MAX_N = {DENSE_MAX_N}"))
_EVOLUTION_N = (1, EVOLUTION_MAX_N, f"evolution construction needs an integer 1 <= n <= "
                f"{EVOLUTION_MAX_N}, got n = {{!r}}", BadDimension)


class _OpensOnRead:
    """A build whose session opens on the first read of `session`, from its
    `layout` (the k, A blocks and b blocks given to `open_session_blocks`);
    every later read returns that same session, and a build whose session is
    never read opens none."""

    @functools.cached_property
    def session(self) -> Session:
        return open_session_blocks(*self.layout)


# --- set-disjointness instances -------------------------------------------------

@dataclass(frozen=True)
class DisjointnessInstance:
    """k bit strings of length n.  The question: does player 1's string share
    a 1-coordinate with any other player's?

    Promise: every Hamming weight lies in [n/4, 3n/4], and at most one
    (player, coordinate) pair intersects player 1's string.
    """

    k: int
    n: int
    sets: np.ndarray                      # (k, n) entries in {0, 1}
    intersection: tuple | None            # (player index >= 1, coordinate) or None

    def verify(self) -> None:
        sets = np.asarray(self.sets)
        if sets.shape != (self.k, self.n):
            raise PromiseViolation(f"shape {sets.shape} != ({self.k}, {self.n})")
        if not ((sets == 0) | (sets == 1)).all():
            raise PromiseViolation("entries must be 0/1")
        weights = sets.sum(axis=1)
        lo, hi = math.ceil(self.n / 4), math.floor(3 * self.n / 4)
        if not ((weights >= lo) & (weights <= hi)).all():
            raise PromiseViolation(f"weights {weights} outside [{lo}, {hi}]")
        # the (player, coordinate) pairs that share a 1 with player 1, in
        # player then coordinate order
        hits = np.argwhere((sets[0] == 1) & (sets[1:] == 1))
        if len(hits) > 1:
            raise PromiseViolation(f"{len(hits)} intersecting pairs, promise allows 1")
        truth = (int(hits[0, 0]) + 1, int(hits[0, 1])) if len(hits) else None
        if truth != self.intersection:
            raise PromiseViolation(f"recorded truth {self.intersection}, scan found {truth}")


def gen_disjointness(k: int, n: int, want_intersection: bool,
                     rng: np.random.Generator) -> DisjointnessInstance:
    """Sample a promise-respecting instance; the intersecting pair, when
    requested, is planted at a uniformly random (player, coordinate).

    Every draw keeps the promise, so one draw suffices: player 1's weight lies
    in [n/4, n/2], every other support is drawn outside player 1's (weight at
    most 3n/4), and only the planted pair can intersect.
    """
    k = _checks.count(k, 2, None, "player count k must be an integer >= 2, got k = {!r}")
    n = _checks.count(n, 8, None, "length n must be an integer >= 8, got n = {!r}")
    _checks.generator(rng, "gen_disjointness")
    lo = math.ceil(n / 4)
    sets = np.zeros((k, n), dtype=np.int64)
    w1 = int(rng.integers(lo, n // 2 + 1))
    if want_intersection:
        j_star = int(rng.integers(1, k))
        l_star = int(rng.integers(0, n))
        rest = np.delete(np.arange(n), l_star)
        supp1 = np.append(rng.choice(rest, size=w1 - 1, replace=False), l_star)
    else:
        supp1 = rng.choice(n, size=w1, replace=False)
    sets[0, supp1] = 1
    outside = np.flatnonzero(sets[0] == 0)
    for j in range(1, k):
        wj = int(rng.integers(lo, outside.size + 1))
        if want_intersection and j == j_star:
            supp = np.append(rng.choice(outside, size=wj - 1, replace=False), l_star)
        else:
            supp = rng.choice(outside, size=wj, replace=False)
        sets[j, supp] = 1
    inst = DisjointnessInstance(
        k=k, n=n, sets=sets,
        intersection=(j_star, l_star) if want_intersection else None,
    )
    inst.verify()
    return inst


# --- sparse regression from disjointness ----------------------------------------

@dataclass(frozen=True)
class SparseRegressionBuild(_OpensOnRead):
    layout: tuple
    x_star: np.ndarray        # closed-form least-squares solution, length k
    beta_a: float
    beta_b: float


def build_regression_sparse(inst: DisjointnessInstance, beta_a: float = 1.0,
                            beta_b: float = 1.0) -> SparseRegressionBuild:
    """Row-sparse kn x k system whose solution is beta_b/beta_a on index 0 and
    n <t_1|t_j> on index j for the remaining players.

    Layout: the first n-row block of both sides is public; block j of the
    matrix belongs to player j; every non-public block of the vector belongs
    to player 1.
    """
    for beta in (beta_a, beta_b):
        _checks.real(beta, 0, math.inf, "scale parameters must be positive reals, got {!r}")
    inst.verify()
    k, n = inst.k, inst.n
    t = np.asarray(inst.sets, dtype=np.float64)
    alpha = np.linalg.norm(t, axis=1)

    head_a = np.zeros((n, k))
    head_a[0, 0] = beta_a
    a_blocks = [(None, head_a)]
    for j in range(1, k):
        block = np.zeros((n, k))
        block[:, j] = t[j] / alpha[j]
        a_blocks.append((j, block))

    head_b = np.zeros(n)
    head_b[0] = beta_b
    tail = np.tile(n * t[0] / alpha[0], k - 1)
    b_blocks = [(None, head_b), (0, tail)]

    x_star = np.zeros(k)
    x_star[0] = beta_b / beta_a
    for j in range(1, k):
        x_star[j] = n * float(t[0] @ t[j]) / (alpha[0] * alpha[j])

    return SparseRegressionBuild(layout=(k, a_blocks, b_blocks), x_star=x_star,
                                 beta_a=beta_a, beta_b=beta_b)


def decide_disjointness(build: SparseRegressionBuild, num_samples: int,
                        rng: np.random.Generator) -> bool:
    """Declare "intersecting" iff any of num_samples l2 draws from the solved
    system lands outside index 0.

    The solution is computed by the oracle from the assembled system and
    exposed to the decision as an SQ vector; see the module docstring for why
    this stand-in is the strongest case.  A decision on no draws is refused.
    """
    num_samples = _checks.count(num_samples, 1, None, "sample count num_samples must be an "
                                "integer >= 1, got num_samples = {!r}")
    _checks.generator(rng, "decide_disjointness")
    A, b = assemble_stacked(build.session)
    x = pinv_solve(A, b)
    draws = sq_sample_many(build_sq_vector(x), num_samples, rng)
    return bool(np.any(draws != 0))


# --- dense regression from sign functions ----------------------------------------

@dataclass(frozen=True)
class FunctionPair:
    """Two sign vectors of length 2**n, one per party."""

    n: int
    f: np.ndarray
    g: np.ndarray

    def verify(self) -> None:
        size = 2**self.n
        for name, arr in (("f", self.f), ("g", self.g)):
            a = _checks.reals(arr, f"{name} entries")
            if a.shape != (size,):
                raise PromiseViolation(f"{name} must have length {size}")
            if not np.all(np.abs(a) == 1):
                raise PromiseViolation(f"{name} entries must be +1 or -1")


def gen_function_pair(n: int, rng: np.random.Generator) -> FunctionPair:
    n = _checks.count(n, *_SIGN_SIZE)
    _checks.generator(rng, "gen_function_pair")
    size = 2**n
    f = rng.choice((-1.0, 1.0), size=size)
    g = rng.choice((-1.0, 1.0), size=size)
    return FunctionPair(n=n, f=f, g=g)


def hadamard_matrix(n: int) -> np.ndarray:
    """Orthonormal 2^n x 2^n Hadamard matrix (Sylvester ordering), built by
    doubling [[1]] n times into [[H, H], [H, -H]]; built once per n and
    returned read-only."""
    return _hadamard(_checks.count(n, *_SIGN_SIZE))


@functools.cache
def _hadamard(n: int) -> np.ndarray:
    h = np.ones((1, 1))
    for _ in range(n):
        h = np.block([[h, h], [h, -h]])
    return _frozen(h / math.sqrt(2**n))


@dataclass(frozen=True)
class DenseRegressionBuild(_OpensOnRead):
    layout: tuple
    matrix: np.ndarray        # signed Hadamard, held by player 1
    rhs: np.ndarray           # unit sign vector, held by player 2
    target_law: np.ndarray    # squared-correlation distribution


def build_regression_dense(pair: FunctionPair) -> DenseRegressionBuild:
    """Full-rank orthogonal system: sampling its solution reproduces the
    squared-correlation law of the two sign vectors."""
    pair.verify()
    f = np.asarray(pair.f, dtype=np.float64)
    g = np.asarray(pair.g, dtype=np.float64)
    A = f[:, None] * hadamard_matrix(pair.n)
    b = g / math.sqrt(g.size)
    return DenseRegressionBuild(layout=(2, [(0, A)], [(1, b)]), matrix=A, rhs=b,
                                target_law=dsp_distribution(f, g))


def dense_solution_law(build: DenseRegressionBuild) -> np.ndarray:
    """Exact l2 law (a probability vector) of the solution x* = A^-1 b, solved
    by LU (`np.linalg.solve`): a generic route that knows nothing of the
    Hadamard construction.  A singular system raises SingularSystem, as does
    a zero or non-finite solution, rather than returning a nan law."""
    try:
        x = np.linalg.solve(build.matrix, build.rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"dense system has no unique solution ({exc})") from None
    p = np.abs(x) ** 2
    total = p.sum()
    if not (0.0 < total < math.inf):
        raise SingularSystem(f"dense solution has squared norm {total}; no l2 law")
    return p / total


# --- gap-Hamming instances --------------------------------------------------------

@dataclass(frozen=True)
class GapHammingInstance:
    """k sign vectors summing to a sign vector, plus a probe vector; the inner
    product of the sum with the probe is promised to sit in the band
    [GAP_C1*sqrt(d), GAP_C2*sqrt(d)] on one side of zero."""

    k: int
    d: int
    players: np.ndarray       # (k, d) entries +-1
    probe: np.ndarray         # (d,) entries +-1
    sign: int                 # promised side, +1 or -1

    @property
    def gap(self) -> int:
        return int(np.asarray(self.players).sum(axis=0) @ np.asarray(self.probe))

    def verify(self) -> None:
        players = np.asarray(self.players)
        probe = np.asarray(self.probe)
        if self.k % 2 == 0:
            raise PromiseViolation("player count must be odd")
        if self.d < 1:
            raise PromiseViolation(f"dimension d = {self.d} must be at least 1")
        if players.shape != (self.k, self.d) or probe.shape != (self.d,):
            raise PromiseViolation("shape mismatch")
        if not (np.all(np.abs(players) == 1) and np.all(np.abs(probe) == 1)):
            raise PromiseViolation("entries must be +1 or -1")
        total = players.sum(axis=0)
        if not np.all(np.abs(total) == 1):
            raise PromiseViolation("player vectors must sum to a sign vector")
        if _checks.integer(self.sign) not in (1, -1):
            raise PromiseViolation("sign must be +1 or -1")
        gap = self.gap
        root = math.sqrt(self.d)
        if not GAP_C1 * root <= self.sign * gap <= GAP_C2 * root:
            raise PromiseViolation(
                f"gap {gap} outside {self.sign}*[{GAP_C1 * root}, {GAP_C2 * root}]"
            )


def _band_targets(d: int) -> np.ndarray:
    """Inner-product values in [GAP_C1*sqrt(d), GAP_C2*sqrt(d)] reachable for
    dim d.

    An inner product of two sign vectors of length d has parity d mod 2.  For
    d >= 1 the band is never empty: [1, 2], [sqrt 2, 2 sqrt 2] and
    [sqrt 3, 2 sqrt 3] hold 1, 2 and 3, and from d = 4 on it is at least 2
    wide, so it holds an integer of either parity.
    """
    lo = math.ceil(GAP_C1 * math.sqrt(d))
    hi = math.floor(GAP_C2 * math.sqrt(d))
    return np.array([v for v in range(lo, hi + 1) if (v - d) % 2 == 0])


def _split_signs(total: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Split a sign vector into k (odd) sign vectors summing to it, column by
    column: a +1 column gets (k+1)/2 positive entries at uniformly random
    players, a -1 column (k+1)/2 negative ones.  Row col of `perms` is the
    permutation rng.permutation(k) would give for column col, drawn from the
    same stream in the same order."""
    d = total.size
    perms = rng.permuted(np.tile(np.arange(k), (d, 1)), axis=1)
    players = np.tile(-total, (k, 1))
    players[perms[:, :(k + 1) // 2], np.arange(d)[:, None]] = total[:, None]
    return players


def gen_gap_hamming(k: int, d: int, sign: int, rng: np.random.Generator) -> GapHammingInstance:
    """Sample an instance on the requested promise side.

    The probe is flipped one coordinate at a time (each flip moves the inner
    product by +-2) until it reaches a uniformly chosen value in the band.
    """
    k = _checks.count(k, 1, None, "player count k must be an integer >= 1, got k = {!r}")
    if k % 2 == 0:
        raise ValueError("player count must be odd and positive")
    sign = _checks.integer(sign)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    d = _checks.count(d, 1, None, "dimension d must be an integer >= 1, got d = {!r}")
    _checks.generator(rng, "gen_gap_hamming")
    targets = _band_targets(d)
    total = rng.choice((-1.0, 1.0), size=d)
    probe = rng.choice((-1.0, 1.0), size=d)
    goal = sign * int(targets[rng.integers(targets.size)])
    ip = int(total @ probe)
    while ip != goal:
        if ip < goal:
            # flipping a disagreeing coordinate raises the inner product by 2
            candidates = np.flatnonzero(total * probe < 0)
        else:
            candidates = np.flatnonzero(total * probe > 0)
        pos = int(candidates[rng.integers(candidates.size)])
        probe[pos] = -probe[pos]
        ip += 2 if ip < goal else -2

    players = _split_signs(total, k, rng)
    inst = GapHammingInstance(k=k, d=d, players=players, probe=probe, sign=sign)
    inst.verify()
    return inst


# --- clustering from gap-Hamming ---------------------------------------------------

@dataclass(frozen=True)
class ClusteringBuild(_OpensOnRead):
    layout: tuple
    alpha: float
    distance_sq: float        # exact ||p - centroid||^2 via direct arithmetic
    bta_sq: float             # exact ||b^T A||^2 from the assembled system
    threshold: float          # decision boundary alpha^2 d (1 + 1/k^2)
    margin: float             # guaranteed gap (2 alpha^2 / k) GAP_C1 sqrt(d)
    fro_sq: float             # ||A||_F^2, equals 2 by construction
    b_sq: float               # ||b||^2, equals 2 alpha^2 d


def build_clustering(inst: GapHammingInstance) -> ClusteringBuild:
    """Point-to-centroid distance task: row 0 carries the negated probe point,
    the remaining k rows carry the cluster points scaled so that the weighted
    row combination b^T A equals centroid - point."""
    inst.verify()
    k, d = inst.k, inst.d
    alpha = d ** -0.25              # normalizes alpha^2 sqrt(d) to 1
    p = alpha * np.asarray(inst.probe, dtype=np.float64)
    q = alpha * np.asarray(inst.players, dtype=np.float64)
    q_norms = np.linalg.norm(q, axis=1)
    p_norm = float(np.linalg.norm(p))
    root_k = math.sqrt(k)

    rows = [(-p / p_norm)[None, :]]
    b_vals = [p_norm]
    for i in range(k):
        rows.append((q[i] / (q_norms[i] * root_k))[None, :])
        b_vals.append(q_norms[i] / root_k)

    # the probe's holder is the extra (k+1)-th player, listed last
    a_blocks = [(k, rows[0])] + [(i, rows[1 + i]) for i in range(k)]
    b_blocks = [(k, np.array([b_vals[0]]))] + [
        (i, np.array([b_vals[1 + i]])) for i in range(k)
    ]

    centroid = q.mean(axis=0)
    distance_sq = float(np.linalg.norm(p - centroid) ** 2)
    A = np.vstack(rows)
    b = np.asarray(b_vals)
    bta_sq = float(np.linalg.norm(b @ A) ** 2)
    return ClusteringBuild(
        layout=(k + 1, a_blocks, b_blocks),
        alpha=float(alpha),
        distance_sq=distance_sq,
        bta_sq=bta_sq,
        threshold=alpha**2 * d * (1.0 + 1.0 / k**2),
        margin=(2.0 * alpha**2 / k) * GAP_C1 * math.sqrt(d),
        fro_sq=float(np.linalg.norm(A) ** 2),
        b_sq=float(b @ b),
    )


def decide_clustering(build: ClusteringBuild) -> int:
    """Return the promise branch: +1 when the point sits below the distance
    threshold (large positive correlation), -1 otherwise."""
    return 1 if build.bta_sq < build.threshold else -1


# --- PCA and thresholded projection from 2-party disjointness ----------------------

@dataclass(frozen=True)
class PcaBuild(_OpensOnRead):
    layout: tuple
    matrix: np.ndarray
    truth: int | None         # intersection coordinate or None

    @functools.cached_property
    def factors(self) -> SvdFactors:
        """The one SVD of `matrix`: the PCA decision's top singular pair and
        every truncation `build_recsys` takes are read from it."""
        return svd_factors(self.matrix)


def _check_bit_pair(a_bits, b_bits):
    a = _checks.reals(a_bits, "bit string entries")
    b = _checks.reals(b_bits, "bit string entries")
    if a.ndim != 1 or a.shape != b.shape:
        raise PromiseViolation("bit strings must be 1-d and equal length")
    if not (((a == 0) | (a == 1)).all() and ((b == 0) | (b == 1)).all()):
        raise PromiseViolation("entries must be 0/1")
    common = np.flatnonzero((a == 1) & (b == 1))
    if common.size > 1:
        raise PromiseViolation(f"{common.size} intersections, promise allows 1")
    if not a.any() and not b.any():
        raise ZeroMatrix("both strings are all-zero")
    truth = int(common[0]) if common.size else None
    return a, b, truth


def build_pca(a_bits, b_bits) -> PcaBuild:
    """Stack the two diagonal 0/1 matrices; the top singular value is sqrt(2)
    exactly when the strings intersect and 1 otherwise."""
    a, b, truth = _check_bit_pair(a_bits, b_bits)
    a_blocks = [(0, np.diag(a)), (1, np.diag(b))]
    return PcaBuild(layout=(2, a_blocks, []), matrix=np.vstack([d for _, d in a_blocks]),
                    truth=truth)


def decide_pca(build: PcaBuild, rng: np.random.Generator):
    """Decide intersection from the top singular pair: draw one index from the
    top right singular vector and test it against both bit strings.

    Returns (intersects, sampled index).
    """
    _checks.generator(rng, "decide_pca")
    ts = build.factors.top()
    idx = int(sq_sample(build_sq_vector(ts.vector), rng))
    n = build.matrix.shape[1]
    a = np.real(np.diag(build.matrix[:n]))
    b = np.real(np.diag(build.matrix[n:]))
    return bool(a[idx] == 1 and b[idx] == 1), idx


@dataclass(frozen=True)
class RecsysBuild(_OpensOnRead):
    layout: tuple
    matrix: np.ndarray
    truncated: np.ndarray     # SVD truncation at the chosen level
    rank: int
    truth: int | None


def build_recsys(pca: PcaBuild, level: float) -> RecsysBuild:
    """The PCA build's stacked matrix, truncated at a level strictly between
    the two possible top singular values; rank 1 certifies an intersection.

    The truncation reads the PCA build's one SVD; the rank is `matrix_rank`
    of the truncation, a route of its own.
    """
    _checks.real(level, 1, math.sqrt(2), "truncation level must lie in (1, sqrt(2)), got {!r}")
    truncated = pca.factors.truncate(level)
    rank = int(np.linalg.matrix_rank(truncated)) if truncated.any() else 0
    return RecsysBuild(layout=pca.layout, matrix=pca.matrix, truncated=truncated,
                       rank=rank, truth=pca.truth)


def decide_recsys(build: RecsysBuild, rng: np.random.Generator):
    """Row-sample the truncated matrix: a successful draw certifies an
    intersection and the sampled column is its coordinate; an all-zero
    truncation surfaces as "disjoint"."""
    _checks.generator(rng, "decide_recsys")
    try:
        sm = build_sq_matrix(build.truncated)
    except AllZero:
        return False, None
    i = sq_sample(sm.row_norm_vector, rng)
    j = sq_sample(sq_row(sm, i), rng)
    return True, int(j)


# --- Hamiltonian evolution from sign functions -------------------------------------

@functools.cache
def _mixing_generator(n: int) -> np.ndarray:
    """(1/2n) * sum over positions of (I - H) acting on one qubit; built once
    per n and returned read-only."""
    size = 2**n
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    gap = np.eye(2) - h1
    total = np.zeros((size, size))
    for j in range(n):
        total += np.kron(np.kron(np.eye(2**j), gap), np.eye(2 ** (n - j - 1)))
    return _frozen(total / (2.0 * n))


def _sign_conjugate(fs: np.ndarray, X: np.ndarray) -> np.ndarray:
    """diag(f) @ X @ diag(f) for each row f of fs; exact, as each entry is
    only multiplied by +-1.  The column signs are applied in place, which
    saves a second stack-sized temporary."""
    out = fs[:, :, None] * X
    out *= fs[:, None, :]
    return out


@dataclass(frozen=True)
class HamiltonianBuild(_OpensOnRead):
    layout: tuple
    hamiltonian: np.ndarray   # held by player 1
    state: np.ndarray         # unit start vector, held by player 2
    time: float               # evolution time n*pi
    target_unitary: np.ndarray
    target_law: np.ndarray


def build_hamiltonian(pair: FunctionPair) -> HamiltonianBuild:
    """Hermitian generator whose evolution for time n*pi equals the signed
    Hadamard conjugation; evolving the signed uniform state reproduces the
    squared-correlation law."""
    pair.verify()
    n = _checks.count(pair.n, *_EVOLUTION_N)
    f = np.asarray(pair.f, dtype=np.float64)
    g = np.asarray(pair.g, dtype=np.float64)
    A = _sign_conjugate(f[None], _mixing_generator(n))[0]
    target = _sign_conjugate(f[None], hadamard_matrix(n))[0]
    v = g / math.sqrt(g.size)
    return HamiltonianBuild(
        layout=(2, [(0, A)], [(1, v)]), hamiltonian=A, state=v, time=n * math.pi,
        target_unitary=target, target_law=dsp_distribution(f, g),
    )


def hamiltonian_identity_error(build: HamiltonianBuild) -> float:
    """Frobenius distance between the evolved unitary and its closed form."""
    U = expm_hermitian(build.hamiltonian, build.time)
    return float(np.linalg.norm(U - build.target_unitary))


def hamiltonian_evolved_law(build: HamiltonianBuild) -> np.ndarray:
    """Exact l2 law of the evolved state (probability vector)."""
    u = expm_apply(build.hamiltonian, build.time, build.state)
    p = np.abs(u) ** 2
    return p / p.sum()


def _check_sign_stack(n: int, fs) -> tuple[int, np.ndarray]:
    """An evolvable n as an int, and fs as a float stack of +-1 rows of length 2^n."""
    n = _checks.count(n, *_EVOLUTION_N)
    fs = _checks.reals(fs, "sign vector entries")
    size = 2**n
    if fs.ndim != 2 or fs.shape[1] != size:
        raise BadDimension(f"sign vectors must have length {size}")
    if not np.all(np.abs(fs) == 1):
        raise PromiseViolation("sign vector entries must be +1 or -1")
    return n, fs


# matrix entries per stack: the per-instance route evolves 2 sign vectors at a
# time at n = 8 and 32 at n = 6, and the conjugation sweep checks 512 at a
# time at n = 4; a stack's complex temporaries then stay at a few MiB
_IDENTITY_BUDGET = 512 * 16 * 16


def _stacks(fs: np.ndarray):
    size = fs.shape[1]
    chunk = max(1, _IDENTITY_BUDGET // size**2)
    for start in range(0, fs.shape[0], chunk):
        yield start, fs[start:start + chunk]


def hamiltonian_identity_errors_batch(n: int, fs: np.ndarray) -> np.ndarray:
    """Identity-check errors, one per sign vector, each from its own evolution.

    Builds the shared generator once and evolves the signed ones through
    `expm_hermitian` in stacks of `_IDENTITY_BUDGET` matrix entries (2
    matrices at n = 8); per-instance calls would crawl.
    """
    n, fs = _check_sign_stack(n, fs)
    base = _mixing_generator(n)
    h = hadamard_matrix(n)
    t = n * math.pi
    out = np.empty(fs.shape[0])
    for start, part in _stacks(fs):
        diff = expm_hermitian(_sign_conjugate(part, base), t) - _sign_conjugate(part, h)
        out[start:start + len(part)] = np.linalg.norm(diff, axis=(1, 2))
    return out


def hamiltonian_conjugation_sweep(n: int, fs: np.ndarray) -> tuple[int, float]:
    """Certify the identity for every sign vector with one evolution.

    exp(i t D A D) = D exp(i t A) D for D = diag(f), and ||D X D||_F = ||X||_F,
    so every f's identity error equals the unsigned residual
    ||expm_hermitian(A, n pi) - H||_F once its generator and target are shown
    to be exactly D A D and D H D.  That is checked here against a second
    exact route, matmul by diag(f), one stack of sign vectors at a time; the
    two are compared by value, since a matmul may sum a -0.0 entry to 0.0.
    Returns (number of sign vectors whose generator or target differs, the
    shared residual).
    """
    n, fs = _check_sign_stack(n, fs)
    base = _mixing_generator(n)
    h = hadamard_matrix(n)
    eye = np.eye(2**n)
    mismatches = 0
    for _, part in _stacks(fs):
        d = part[:, :, None] * eye
        bad = np.zeros(len(part), dtype=bool)
        for X in (base, h):
            bad |= (_sign_conjugate(part, X) != d @ X @ d).any(axis=(1, 2))
        mismatches += int(bad.sum())
    residual = float(np.linalg.norm(expm_hermitian(base, n * math.pi) - h))
    return mismatches, residual


def all_sign_vectors(n: int) -> np.ndarray:
    """Every +-1 vector of length 2^n, one per row (2^(2^n) rows)."""
    n = _checks.count(n, *_SIGN_SIZE)
    size = 2**n
    count = 2**size
    if count > 1 << 20:
        raise BadDimension("exhaustive enumeration capped at 2^20 vectors")
    # bit j of row i is (i >> j) & 1, held in the smallest integer dtype
    # that counts the rows; the one float64 result is then shifted in place
    index = np.min_scalar_type(count - 1)
    bits = np.arange(count, dtype=index)[:, None] >> np.arange(size, dtype=index)
    bits &= 1
    out = bits * -2.0
    out += 1.0
    return out
