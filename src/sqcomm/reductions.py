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

Each builder returns the session plus closed-form expected values so tests can
check the construction against the independent linear-algebra oracle.  The
decision procedures are granted direct SQ access to oracle-computed solutions
where the task's output is itself an SQ structure; that stand-in is the
strongest case for any algorithm producing such output.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import hadamard as _hadamard_unscaled

from .comm_sim import Session, assemble_stacked, open_session_blocks
from .linalg_oracle import (
    BadDimension,
    dsp_distribution,
    expm_apply,
    expm_hermitian,
    pinv_solve,
    threshold_svd,
    top_singular,
)
from .sq_access import (
    AllZero,
    build_sq_matrix,
    build_sq_vector,
    sq_row,
    sq_sample,
    sq_sample_many,
)

DENSE_MAX_N = 10        # largest n of the dense regression construction
EVOLUTION_MAX_N = 8     # largest n of the Hamiltonian evolution construction


class PromiseViolation(ValueError):
    """An instance fails its promise verifier."""


class InfeasiblePromise(ValueError):
    """No instance satisfies the requested promise parameters."""


class ZeroMatrix(ValueError):
    """A construction degenerated to an all-zero matrix."""


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
        if not np.isin(sets, (0, 1)).all():
            raise PromiseViolation("entries must be 0/1")
        weights = sets.sum(axis=1)
        lo, hi = math.ceil(self.n / 4), math.floor(3 * self.n / 4)
        if not ((weights >= lo) & (weights <= hi)).all():
            raise PromiseViolation(f"weights {weights} outside [{lo}, {hi}]")
        hits = [
            (j, l)
            for j in range(1, self.k)
            for l in range(self.n)
            if sets[0, l] == 1 and sets[j, l] == 1
        ]
        if len(hits) > 1:
            raise PromiseViolation(f"{len(hits)} intersecting pairs, promise allows 1")
        truth = hits[0] if hits else None
        if truth != self.intersection:
            raise PromiseViolation(f"recorded truth {self.intersection}, scan found {truth}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "type": "disjointness",
                "k": self.k,
                "n": self.n,
                "sets": [_pack_bits(row) for row in np.asarray(self.sets)],
                "intersection": list(self.intersection) if self.intersection else None,
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "DisjointnessInstance":
        obj = json.loads(text)
        sets = np.stack([_unpack_bits(s, obj["n"]) for s in obj["sets"]])
        inter = tuple(obj["intersection"]) if obj["intersection"] else None
        inst = DisjointnessInstance(k=obj["k"], n=obj["n"], sets=sets, intersection=inter)
        inst.verify()
        return inst


def _pack_bits(row: np.ndarray) -> str:
    return base64.b64encode(np.packbits(row.astype(np.uint8)).tobytes()).decode("ascii")


def _unpack_bits(text: str, n: int) -> np.ndarray:
    raw = np.frombuffer(base64.b64decode(text), dtype=np.uint8)
    return np.unpackbits(raw)[:n].astype(np.int64)


def gen_disjointness(k: int, n: int, want_intersection: bool,
                     rng: np.random.Generator) -> DisjointnessInstance:
    """Sample a promise-respecting instance; the intersecting pair, when
    requested, is planted at a uniformly random (player, coordinate)."""
    if n < 8 or k < 2:
        raise ValueError("need n >= 8 and k >= 2")
    lo = math.ceil(n / 4)
    while True:
        sets = np.zeros((k, n), dtype=np.int64)
        w1 = int(rng.integers(lo, n // 2 + 1))
        if want_intersection:
            j_star = int(rng.integers(1, k))
            l_star = int(rng.integers(0, n))
            rest = np.setdiff1d(np.arange(n), [l_star])
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
        try:
            inst.verify()
        except PromiseViolation:
            continue
        return inst


# --- sparse regression from disjointness ----------------------------------------

@dataclass(frozen=True)
class SparseRegressionBuild:
    session: Session
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
    if beta_a <= 0 or beta_b <= 0:
        raise ValueError("scale parameters must be positive")
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

    session = open_session_blocks(k, a_blocks, b_blocks)
    return SparseRegressionBuild(session=session, x_star=x_star,
                                 beta_a=beta_a, beta_b=beta_b)


def decide_disjointness(build: SparseRegressionBuild, num_samples: int,
                        rng: np.random.Generator) -> bool:
    """Declare "intersecting" iff any of num_samples l2 draws from the solved
    system lands outside index 0.

    The solution is computed by the oracle from the assembled system and
    exposed to the decision as an SQ vector; see the module docstring for why
    this stand-in is the strongest case.
    """
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
            a = np.asarray(arr)
            if a.shape != (size,):
                raise PromiseViolation(f"{name} must have length {size}")
            if not np.all(np.abs(a) == 1):
                raise PromiseViolation(f"{name} entries must be +1 or -1")

    def to_json(self) -> str:
        return json.dumps(
            {"type": "function_pair", "n": self.n,
             "f": np.asarray(self.f).astype(int).tolist(),
             "g": np.asarray(self.g).astype(int).tolist()},
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "FunctionPair":
        obj = json.loads(text)
        pair = FunctionPair(n=obj["n"], f=np.asarray(obj["f"], dtype=np.float64),
                            g=np.asarray(obj["g"], dtype=np.float64))
        pair.verify()
        return pair


def gen_function_pair(n: int, rng: np.random.Generator) -> FunctionPair:
    size = 2**n
    f = rng.choice((-1.0, 1.0), size=size)
    g = rng.choice((-1.0, 1.0), size=size)
    return FunctionPair(n=n, f=f, g=g)


def hadamard_matrix(n: int) -> np.ndarray:
    """Orthonormal 2^n x 2^n Hadamard matrix (Sylvester ordering)."""
    return _hadamard_unscaled(2**n).astype(np.float64) / math.sqrt(2**n)


@dataclass(frozen=True)
class DenseRegressionBuild:
    session: Session
    matrix: np.ndarray        # signed Hadamard, held by player 1
    rhs: np.ndarray           # unit sign vector, held by player 2
    target_law: np.ndarray    # squared-correlation distribution


def build_regression_dense(pair: FunctionPair) -> DenseRegressionBuild:
    """Full-rank orthogonal system: sampling its solution reproduces the
    squared-correlation law of the two sign vectors."""
    pair.verify()
    if pair.n > DENSE_MAX_N:
        raise BadDimension(f"dense construction capped at n = {DENSE_MAX_N}")
    f = np.asarray(pair.f, dtype=np.float64)
    g = np.asarray(pair.g, dtype=np.float64)
    A = f[:, None] * hadamard_matrix(pair.n)
    b = g / math.sqrt(g.size)
    session = open_session_blocks(2, [(0, A)], [(1, b)])
    return DenseRegressionBuild(session=session, matrix=A, rhs=b,
                                target_law=dsp_distribution(f, g))


def dense_solution_law(build: DenseRegressionBuild) -> np.ndarray:
    """Exact l2 law of the oracle-computed solution (probability vector)."""
    x = pinv_solve(build.matrix, build.rhs)
    p = np.abs(x) ** 2
    return p / p.sum()


# --- gap-Hamming instances --------------------------------------------------------

@dataclass(frozen=True)
class GapHammingInstance:
    """k sign vectors summing to a sign vector, plus a probe vector; the inner
    product of the sum with the probe is promised to sit in a band of width
    [c1*sqrt(d), c2*sqrt(d)] on one side of zero."""

    k: int
    d: int
    players: np.ndarray       # (k, d) entries +-1
    probe: np.ndarray         # (d,) entries +-1
    sign: int                 # promised side, +1 or -1
    c1: float
    c2: float

    @property
    def gap(self) -> int:
        return int(np.asarray(self.players).sum(axis=0) @ np.asarray(self.probe))

    def verify(self) -> None:
        players = np.asarray(self.players)
        probe = np.asarray(self.probe)
        if self.k % 2 == 0:
            raise PromiseViolation("player count must be odd")
        if players.shape != (self.k, self.d) or probe.shape != (self.d,):
            raise PromiseViolation("shape mismatch")
        if not (np.all(np.abs(players) == 1) and np.all(np.abs(probe) == 1)):
            raise PromiseViolation("entries must be +1 or -1")
        total = players.sum(axis=0)
        if not np.all(np.abs(total) == 1):
            raise PromiseViolation("player vectors must sum to a sign vector")
        if self.sign not in (1, -1):
            raise PromiseViolation("sign must be +1 or -1")
        gap = self.gap
        root = math.sqrt(self.d)
        if not self.c1 * root <= self.sign * gap <= self.c2 * root:
            raise PromiseViolation(
                f"gap {gap} outside {self.sign}*[{self.c1 * root}, {self.c2 * root}]"
            )

    def to_json(self) -> str:
        return json.dumps(
            {"type": "gap_hamming", "k": self.k, "d": self.d,
             "players": np.asarray(self.players).astype(int).tolist(),
             "probe": np.asarray(self.probe).astype(int).tolist(),
             "sign": self.sign, "c1": self.c1, "c2": self.c2},
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "GapHammingInstance":
        obj = json.loads(text)
        inst = GapHammingInstance(
            k=obj["k"], d=obj["d"],
            players=np.asarray(obj["players"], dtype=np.float64),
            probe=np.asarray(obj["probe"], dtype=np.float64),
            sign=obj["sign"], c1=obj["c1"], c2=obj["c2"],
        )
        inst.verify()
        return inst


def _band_targets(d: int, c1: float, c2: float) -> np.ndarray:
    """Inner-product values in [c1*sqrt(d), c2*sqrt(d)] reachable for dim d.

    An inner product of two sign vectors of length d has parity d mod 2.
    """
    lo = math.ceil(c1 * math.sqrt(d))
    hi = math.floor(c2 * math.sqrt(d))
    targets = np.array([v for v in range(lo, hi + 1) if (v - d) % 2 == 0])
    return targets


def gen_gap_hamming(k: int, d: int, sign: int, rng: np.random.Generator,
                    c1: float = 1.0, c2: float = 2.0) -> GapHammingInstance:
    """Sample an instance on the requested promise side.

    The probe is flipped one coordinate at a time (each flip moves the inner
    product by +-2) until it reaches a uniformly chosen value in the band.
    """
    if k % 2 == 0 or k < 1:
        raise ValueError("player count must be odd and positive")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not 1 <= c1 < c2:
        raise ValueError("need 1 <= c1 < c2")
    targets = _band_targets(d, c1, c2)
    if targets.size == 0:
        raise InfeasiblePromise(f"no reachable inner product in the band for d={d}")
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

    # split the sum into k sign vectors coordinatewise: a +1 column gets
    # (k+1)/2 positive entries, a -1 column gets (k+1)/2 negative ones
    players = np.empty((k, d))
    half = (k + 1) // 2
    for col in range(d):
        signs = np.full(k, -total[col])
        signs[rng.permutation(k)[:half]] = total[col]
        players[:, col] = signs
    inst = GapHammingInstance(k=k, d=d, players=players, probe=probe,
                              sign=sign, c1=c1, c2=c2)
    inst.verify()
    return inst


# --- clustering from gap-Hamming ---------------------------------------------------

@dataclass(frozen=True)
class ClusteringBuild:
    session: Session
    alpha: float
    distance_sq: float        # exact ||p - centroid||^2 via direct arithmetic
    bta_sq: float             # exact ||b^T A||^2 from the assembled system
    threshold: float          # decision boundary alpha^2 d (1 + 1/k^2)
    margin: float             # guaranteed gap (2 alpha^2 / k) c1 sqrt(d)
    fro_sq: float             # ||A||_F^2, equals 2 by construction
    b_sq: float               # ||b||^2, equals 2 alpha^2 d


def build_clustering(inst: GapHammingInstance, alpha: float | None = None) -> ClusteringBuild:
    """Point-to-centroid distance task: row 0 carries the negated probe point,
    the remaining k rows carry the cluster points scaled so that the weighted
    row combination b^T A equals centroid - point."""
    inst.verify()
    k, d = inst.k, inst.d
    if alpha is None:
        alpha = d ** -0.25          # normalizes alpha^2 sqrt(d) to 1
    p = alpha * np.asarray(inst.probe, dtype=np.float64)
    q = alpha * np.asarray(inst.players, dtype=np.float64)
    q_norms = np.linalg.norm(q, axis=1)
    if np.any(q_norms == 0):
        raise ZeroMatrix("a cluster point is zero")
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
    session = open_session_blocks(k + 1, a_blocks, b_blocks)

    centroid = q.mean(axis=0)
    distance_sq = float(np.linalg.norm(p - centroid) ** 2)
    A = np.vstack(rows)
    b = np.asarray(b_vals)
    bta_sq = float(np.linalg.norm(b @ A) ** 2)
    return ClusteringBuild(
        session=session,
        alpha=float(alpha),
        distance_sq=distance_sq,
        bta_sq=bta_sq,
        threshold=alpha**2 * d * (1.0 + 1.0 / k**2),
        margin=(2.0 * alpha**2 / k) * inst.c1 * math.sqrt(d),
        fro_sq=float(np.linalg.norm(A) ** 2),
        b_sq=float(b @ b),
    )


def decide_clustering(build: ClusteringBuild) -> int:
    """Return the promise branch: +1 when the point sits below the distance
    threshold (large positive correlation), -1 otherwise."""
    return 1 if build.bta_sq < build.threshold else -1


# --- PCA and thresholded projection from 2-party disjointness ----------------------

@dataclass(frozen=True)
class PcaBuild:
    session: Session
    matrix: np.ndarray
    truth: int | None         # intersection coordinate or None


def _check_bit_pair(a_bits, b_bits):
    a = np.asarray(a_bits, dtype=np.float64)
    b = np.asarray(b_bits, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise PromiseViolation("bit strings must be 1-d and equal length")
    if not (np.isin(a, (0, 1)).all() and np.isin(b, (0, 1)).all()):
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
    A = np.vstack([np.diag(a), np.diag(b)])
    session = open_session_blocks(2, [(0, np.diag(a)), (1, np.diag(b))], [])
    return PcaBuild(session=session, matrix=A, truth=truth)


def decide_pca(build: PcaBuild, rng: np.random.Generator | None = None,
               mode: str = "sigma"):
    """Decide intersection from the top singular pair.

    mode "sigma": threshold the top singular value at sqrt(2) - 0.1.
    mode "sample": draw one index from the top right singular vector and test
    it against both bit strings (needs rng).
    Returns (intersects, index), where index is the sampled or argmax support.
    """
    ts = top_singular(build.matrix)
    if mode == "sigma":
        hit = ts.sigma >= math.sqrt(2) - 0.1
        idx = int(np.argmax(np.abs(ts.vector)))
        return bool(hit), idx
    if mode == "sample":
        idx = int(sq_sample(build_sq_vector(ts.vector), rng))
        n = build.matrix.shape[1]
        a = np.real(np.diag(build.matrix[:n]))
        b = np.real(np.diag(build.matrix[n:]))
        return bool(a[idx] == 1 and b[idx] == 1), idx
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class RecsysBuild:
    session: Session
    matrix: np.ndarray
    truncated: np.ndarray     # SVD truncation at the chosen level
    rank: int
    truth: int | None


def build_recsys(a_bits, b_bits, level: float = 1.2) -> RecsysBuild:
    """Same stacked matrix, truncated at a level strictly between the two
    possible top singular values; rank 1 certifies an intersection."""
    if not 1.0 < level < math.sqrt(2):
        raise ValueError("truncation level must lie in (1, sqrt(2))")
    a, b, truth = _check_bit_pair(a_bits, b_bits)
    A = np.vstack([np.diag(a), np.diag(b)])
    truncated = threshold_svd(A, level)
    rank = int(np.linalg.matrix_rank(truncated)) if truncated.any() else 0
    session = open_session_blocks(2, [(0, np.diag(a)), (1, np.diag(b))], [])
    return RecsysBuild(session=session, matrix=A, truncated=truncated,
                       rank=rank, truth=truth)


def decide_recsys(build: RecsysBuild, rng: np.random.Generator):
    """Row-sample the truncated matrix: a successful draw certifies an
    intersection and the sampled column is its coordinate; an all-zero
    truncation surfaces as "disjoint"."""
    try:
        sm = build_sq_matrix(build.truncated)
    except AllZero:
        return False, None
    i = sq_sample(sm.row_norm_vector, rng)
    j = sq_sample(sq_row(sm, i), rng)
    return True, int(j)


# --- Hamiltonian evolution from sign functions -------------------------------------

def _mixing_generator(n: int) -> np.ndarray:
    """(1/2n) * sum over positions of (I - H) acting on one qubit."""
    size = 2**n
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    gap = np.eye(2) - h1
    total = np.zeros((size, size))
    for j in range(n):
        total += np.kron(np.kron(np.eye(2**j), gap), np.eye(2 ** (n - j - 1)))
    return total / (2.0 * n)


@dataclass(frozen=True)
class HamiltonianBuild:
    session: Session
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
    if pair.n > EVOLUTION_MAX_N:
        raise BadDimension(f"evolution construction capped at n = {EVOLUTION_MAX_N}")
    n = pair.n
    f = np.asarray(pair.f, dtype=np.float64)
    g = np.asarray(pair.g, dtype=np.float64)
    signs = np.outer(f, f)
    A = signs * _mixing_generator(n)
    target = signs * hadamard_matrix(n)
    v = g / math.sqrt(g.size)
    session = open_session_blocks(2, [(0, A)], [(1, v)])
    return HamiltonianBuild(
        session=session, hamiltonian=A, state=v, time=n * math.pi,
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


_IDENTITY_CHUNK = 2048    # sign vectors per batched eigendecomposition


def hamiltonian_identity_errors_batch(n: int, fs: np.ndarray) -> np.ndarray:
    """Identity-check errors for many sign vectors at once.

    Builds the shared generator once and runs batched eigendecompositions;
    used for exhaustive small-n sweeps where per-instance calls would crawl.
    """
    fs = np.asarray(fs, dtype=np.float64)
    size = 2**n
    if fs.ndim != 2 or fs.shape[1] != size:
        raise BadDimension(f"sign vectors must have length {size}")
    base = _mixing_generator(n)
    h = hadamard_matrix(n)
    t = n * math.pi
    out = np.empty(fs.shape[0])
    for start in range(0, fs.shape[0], _IDENTITY_CHUNK):
        part = fs[start:start + _IDENTITY_CHUNK]
        signs = part[:, :, None] * part[:, None, :]
        mats = signs * base
        w, V = np.linalg.eigh(mats)
        phases = np.exp(1j * w * t)
        evolved = (V * phases[:, None, :]) @ np.conj(np.swapaxes(V, 1, 2))
        diff = evolved - signs * h
        out[start:start + _IDENTITY_CHUNK] = np.linalg.norm(diff, axis=(1, 2))
    return out


def all_sign_vectors(n: int) -> np.ndarray:
    """Every +-1 vector of length 2^n, one per row (2^(2^n) rows)."""
    size = 2**n
    count = 2**size
    if count > 1 << 20:
        raise BadDimension("exhaustive enumeration capped at 2^20 vectors")
    bits = (np.arange(count)[:, None] >> np.arange(size)[None, :]) & 1
    return 1.0 - 2.0 * bits
