"""Coordinator-model simulation of SQ access to distributed data, with exact
bit accounting.

k players each hold private row blocks of a matrix A and/or a vector b; a
coordinator talks to each player over a two-way channel and serves SQ requests
against the stacked data.  Blocks may also be public (known to the coordinator,
charged zero bits) or owned by any single player regardless of stack position.
Every message is charged per an EncodingSpec, and the full transcript is kept
for reporting, export, and replay.

Two access families share a session:

* stacked access - the coordinator composes a player-choice stage with a local
  sampling stage, reproducing the l2 law of the stacked vector/matrix exactly;
* linear-combination access - every player holds a same-shape share, the
  coordinator serves queries by fanning out to all k players and serves samples
  through a dominating vector (oversampled access + rejection).  Vector and
  matrix requests run one combination path, `_Combination`: a vector share is
  stored as one column, so the vector side is its one-column case.

Every sampling access of both families is one owner-mixture draw,
`_owner_draw`: the coordinator picks an owner by squared norm and that owner
makes one local l2 draw; `_mixture_law` gives its exact law.  Every rejection
draw runs through the one rejection loop in `sq_access`.  Each request records
the indices it carries, so a replay checks them as well as kind and widths.

Randomness is caller-owned and public-coin: every draw takes uniforms from
the Generator passed to each operation.  The coordinator draws the owner pick
and then one more uniform for the owner's local draw, which that owner maps
through its own law (`sq_sample_at`); the uniform is never sent and costs no
bits.  Each access thus consumes a fixed number of uniforms whatever the
players hold, so a transcript replay (with player data deleted) reproduces
every coordinator decision bit for bit.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .sq_access import (
    AllZero,
    IndexOutOfRange,
    SqVector,
    build_sq_matrix,
    exact_distribution,
    sq_row,
    sq_sample,
    _norm_estimate_draws,
    _norm_from_ratios,
    _rejection_loop,
)

PUBLIC = "public"


class DimensionMismatch(ValueError):
    """Raised when block shapes cannot form a consistent session."""


class AlreadySetup(RuntimeError):
    """Raised when a one-time setup runs twice on a session."""


class NotSetup(RuntimeError):
    """Raised when an access runs before its one-time setup."""


class Cancellation(RuntimeError):
    """Raised when a linear combination cancels below tolerance."""


class NoPlayerData(RuntimeError):
    """Raised when simulation-side code asks a replay session for the player
    data it does not hold."""


CANCELLATION_TOL = 1e-9
DEFAULT_REJECTION_DELTA = 1e-3


@dataclass(frozen=True)
class EncodingSpec:
    """Bit widths for protocol messages.

    Scalars are charged a fixed width, indices the global width of the space
    they address, and every coordinator request carries one opcode.
    """

    scalar_bits: int = 32
    opcode_bits: int = 8

    def __post_init__(self):
        for name in ("scalar_bits", "opcode_bits"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, not {type(value).__name__}")
        if self.scalar_bits < 8:
            raise ValueError("scalar_bits must be at least 8")
        if self.opcode_bits < 0:
            raise ValueError("opcode_bits must be nonnegative")

    @staticmethod
    def index_bits(count: int) -> int:
        if count < 1:
            raise ValueError("index space must be nonempty")
        return math.ceil(math.log2(count)) if count > 1 else 0


@dataclass(frozen=True)
class Message:
    round: int
    sender: str
    receiver: str
    kind: str
    bits: int
    phase: str
    payload: object = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Annotation:
    """Zero-bit transcript entry recording a simulation-side scalar (e.g. phi)."""

    kind: str
    value: object


class BitMeter:
    """Append-only transcript with the running bit total."""

    def __init__(self):
        self.entries: list = []
        self.total_bits: int = 0

    @property
    def messages(self) -> list:
        return [e for e in self.entries if isinstance(e, Message)]

    def add(self, entry) -> None:
        self.entries.append(entry)
        if isinstance(entry, Message):
            self.total_bits += entry.bits


@dataclass(frozen=True, eq=False)
class _Block:
    owner: object            # player index or PUBLIC
    offset: int              # global row offset
    data: np.ndarray         # a 2-d matrix block; a vector block is one column


def _stack_blocks(k: int, blocks, ndim: int):
    """Validate (owner, data) pairs and stack them in order, a vector block as
    one column; returns (blocks, rows)."""
    out, off = [], 0
    for owner, data in blocks:
        owner = PUBLIC if owner is None else owner
        if owner != PUBLIC and not 0 <= owner < k:
            raise ValueError(f"owner {owner} outside [0, {k})")
        arr = np.asarray(data)
        arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64)
        if arr.ndim != ndim or arr.size == 0:
            noun = "vector" if ndim == 1 else "matrix"
            raise DimensionMismatch(f"{noun} blocks must be nonempty {ndim}-d")
        arr = arr.reshape(arr.shape[0], -1)
        if out and arr.shape[1] != out[0].data.shape[1]:
            raise DimensionMismatch("matrix blocks disagree on column count")
        out.append(_Block(owner, off, arr))
        off += arr.shape[0]
    return out, off


class _OwnerView:
    """One owner's stacked blocks on one side as one SQ matrix handle; stage 2
    samples its row-norm vector (for a one-column vector side, |b_j|), or the
    law of one of its rows."""

    def __init__(self, blocks):
        self.globals = np.concatenate(
            [np.arange(b.offset, b.offset + len(b.data)) for b in blocks]
        ) if blocks else np.zeros(0, dtype=np.int64)
        self.data = np.concatenate([b.data for b in blocks]) if blocks else None
        nonzero = self.data is not None and np.any(self.data != 0)
        self.handle = build_sq_matrix(self.data) if nonzero else None
        self.law = self.handle.row_norm_vector if nonzero else None
        self.norm = self.law.norm if nonzero else 0.0
        self.size = int(self.globals.size)

    def sample_law(self, row=None) -> SqVector:
        """The view's own law, or the law of one row of its matrix."""
        if self.handle is None:
            raise AllZero("the owner's blocks are identically zero")
        return self.law if row is None else sq_row(self.handle, row)


class _OwnerLaw:
    """Stage 1 of an owner-mixture draw: owners chosen with probability
    proportional to `weights`, with the total and cumulative sums computed
    once, so each pick is one uniform and one bisect.  Raises ValueError when
    the total overflows."""

    def __init__(self, weights):
        self.weights = weights
        self.total = float(weights.sum())
        if not math.isfinite(self.total):
            raise ValueError("owner masses overflow: their total is not finite")
        self.cum = np.cumsum(weights).tolist()

    def pick(self, rng) -> int:
        if self.total <= 0.0:
            raise AllZero("no sampling mass anywhere")
        owner = bisect_right(self.cum, rng.random() * self.total)
        if owner >= len(self.cum):
            # the uniform rounded up onto the total; take the last owner with mass
            owner = int(np.flatnonzero(self.weights)[-1])
        return owner


class _Side:
    """One stacked side of a session (vector b or matrix A): the owner views,
    the layout-only routing tables, and the coordinator's setup knowledge."""

    def __init__(self, name: str, k: int, blocks, rows: int):
        self.name = name                    # "b" or "a", as in coord_b_setup
        self.noun = "vector" if name == "b" else "matrix"
        self.blocks = blocks
        self.rows = rows
        self.cols = blocks[0].data.shape[1] if blocks else None
        self.views = {o: _OwnerView([bl for bl in blocks if bl.owner == o])
                      for o in list(range(k)) + [PUBLIC]}
        # owner-local index -> global index; layout only, so a replay clone
        # keeps it after its private views are dropped
        self.globals = {o: v.globals for o, v in self.views.items()}
        # routing table: block start -> (owner, index local to the owner's view)
        self.starts = [bl.offset for bl in blocks]
        self.route = []
        used = dict.fromkeys(self.views, 0)
        for bl in blocks:
            self.route.append((bl.owner, used[bl.owner]))
            used[bl.owner] += len(bl.data)
        # rows per player share, when all k are equal and nonempty (the
        # precondition of linear-combination access)
        shares = {self.views[i].size for i in range(k)}
        self.share_rows = shares.pop() if len(shares) == 1 and 0 not in shares else None
        self.share_mismatch = ("vector shares differ in length" if name == "b"
                               else "matrix shares differ in shape")
        self.norms: np.ndarray | None = None    # filled by the one-time setup
        self.counts: list | None = None
        self.owner_law: _OwnerLaw | None = None  # stage 1 of a stacked draw

    def locate(self, g: int):
        if not 0 <= g < self.rows:
            raise IndexOutOfRange(f"index {g} outside the stacked range")
        t = bisect_right(self.starts, g) - 1
        owner, local = self.route[t]
        return owner, local + (g - self.starts[t])

    def require_setup(self) -> None:
        if self.norms is None:
            raise NotSetup(f"run coord_{self.name}_setup first")


class Session:
    """Protocol state: block layout (public metadata), player data (private),
    coordinator knowledge, and the metered transcript."""

    def __init__(self, k: int, a_blocks, b_blocks, encoding: EncodingSpec | None = None):
        if k < 1:
            raise ValueError("need at least one player")
        self.k = int(k)
        self.encoding = encoding if encoding is not None else EncodingSpec()
        self.meter = BitMeter()
        self._round = 0
        self._replay_queue: deque | None = None

        self.b_blocks, self.m = _stack_blocks(self.k, b_blocks, 1)
        self.a_blocks, self.a_rows = _stack_blocks(self.k, a_blocks, 2)
        if self.a_blocks and self.b_blocks and self.a_rows != self.m:
            raise DimensionMismatch(
                f"stacked row counts disagree: A has {self.a_rows}, b has {self.m}"
            )
        self._b = _Side("b", self.k, self.b_blocks, self.m)
        self._a = _Side("a", self.k, self.a_blocks, self.a_rows)
        self.n = self._a.cols

    # coordinator knowledge, filled by the one-time setups
    b_norms = property(lambda self: self._b.norms)
    b_sizes = property(lambda self: self._b.counts)
    b_setup_done = property(lambda self: self._b.norms is not None)
    a_fro_norms = property(lambda self: self._a.norms)
    a_row_counts = property(lambda self: self._a.counts)
    a_setup_done = property(lambda self: self._a.norms is not None)

    # --- transcript plumbing -------------------------------------------------

    def _exchange(self, owner: int, kind: str, phase: str, req_bits: int,
                  resp_bits: int, respond, args=()):
        """One round: coordinator request to a player, player response back.

        `args` are the indices the request carries (a global index, a row, a
        column), recorded on the request entry at no extra bits; a replay
        checks them along with kind, receiver and both widths.

        A player whose local step fails (say, a draw from its zero row) answers
        with that failure at the same widths: the round is recorded with the
        exception as payload, then the exception is raised, and a replay
        raises the same type at the same point.
        """
        name = "PUB" if owner == PUBLIC else f"P{owner + 1}"
        replaying = self._replay_queue is not None
        if replaying:
            req = self._pop(Message)
            resp = self._pop(Message)
            want = (kind, name, args, req_bits, resp_bits)
            seen = (req.kind, req.receiver, req.payload, req.bits, resp.bits)
            if resp.kind != kind or seen != want:
                raise RuntimeError(f"transcript mismatch: expected {want}, saw {seen}")
            payload = resp.payload
        else:
            try:
                payload = respond()
            except (ValueError, IndexError) as err:
                payload = err
        self._round += 1
        self.meter.add(Message(self._round, "C", name, kind, req_bits, phase, args))
        self.meter.add(Message(self._round, name, "C", kind, resp_bits, phase, payload))
        if isinstance(payload, Exception):
            raise type(payload)(*payload.args) if replaying else payload
        return payload, req_bits + resp_bits

    def _annotate(self, kind: str, compute):
        """Record (or replay) a simulation-side scalar as a zero-bit entry."""
        if self._replay_queue is not None:
            entry = self._pop(Annotation)
            if entry.kind != kind:
                raise RuntimeError(f"transcript mismatch: expected {kind}, saw {entry.kind}")
            return entry.value
        value = compute()
        self.meter.add(Annotation(kind, value))
        return value

    def _pop(self, cls):
        if not self._replay_queue:
            raise RuntimeError("replay transcript exhausted")
        entry = self._replay_queue.popleft()
        if not isinstance(entry, cls):
            raise RuntimeError("replay transcript out of order")
        return entry

    @property
    def replaying(self) -> bool:
        return self._replay_queue is not None


def open_session(parts, encoding: EncodingSpec | None = None) -> Session:
    """Open a session from per-player (A_part, b_part) pairs, stacked in order.

    Either side of a pair may be None (the player holds nothing there).
    """
    parts = list(parts)
    a_blocks = [(i, a) for i, (a, _) in enumerate(parts) if a is not None]
    b_blocks = [(i, b) for i, (_, b) in enumerate(parts) if b is not None]
    return Session(len(parts), a_blocks, b_blocks, encoding)


def open_session_blocks(k: int, a_blocks, b_blocks, encoding: EncodingSpec | None = None) -> Session:
    """Open a session from explicit (owner, data) blocks; owner None means public."""
    return Session(k, a_blocks, b_blocks, encoding)


def make_replay_session(session: Session) -> Session:
    """Clone the session layout with private data deleted; responses come from
    the recorded transcript.  Public blocks stay (the coordinator knows them);
    simulation-side reads of player data raise NoPlayerData."""
    def stripped(blocks):
        return [(bl.owner, bl.data if bl.owner == PUBLIC else np.zeros_like(bl.data))
                for bl in blocks]

    # b blocks are stored as one column; a session takes them as 1-d vectors
    clone = Session(session.k, stripped(session.a_blocks),
                    [(o, d[:, 0]) for o, d in stripped(session.b_blocks)], session.encoding)
    # drop the private views entirely; only the layout and public data remain
    for side in (clone._b, clone._a):
        for o in range(clone.k):
            side.views[o] = None
    clone._replay_queue = deque(session.meter.entries)
    return clone


def assemble_stacked(session: Session):
    """Simulation-side view of the stacked (A, b); None for an absent side.

    Not a protocol operation: used by oracles, validators, and the output
    stand-ins, never by coordinator logic.
    """
    A = np.vstack([bl.data for bl in session.a_blocks]) if session.a_blocks else None
    b = np.concatenate([bl.data[:, 0] for bl in session.b_blocks]) if session.b_blocks else None
    return A, b


def _require_player_data(session: Session, what: str) -> None:
    """Simulation-side reads of player data fail on a replay session."""
    if session.replaying:
        raise NoPlayerData(f"{what} reads player data, which a replay session "
                           f"does not hold")


def _split(request):
    """A request as (kind, args); a bare string is a kind without arguments."""
    if isinstance(request, str):
        request = (request,)
    return request[0], request[1:]


# --- protocol primitives ------------------------------------------------------

def _setup(session: Session, side: _Side, kind: str) -> int:
    """One-time norm/size broadcast for one side; returns bits charged.

    Every player answers (empty holdings answer zero), so the cost is exactly
    k * (opcode_bits + scalar_bits + index_bits(rows)).
    """
    if side.norms is not None:
        raise AlreadySetup(f"{side.noun} setup already ran on this session")
    if not side.blocks:
        raise DimensionMismatch(f"session holds no {side.noun} blocks")
    enc = session.encoding
    resp_bits = enc.scalar_bits + enc.index_bits(side.rows)
    norms, counts = [], []
    for i in range(session.k):
        payload, _ = session._exchange(
            i, kind, "setup", enc.opcode_bits, resp_bits,
            lambda v=side.views[i]: (v.norm, v.size),
        )
        norms.append(float(payload[0]))
        counts.append(int(payload[1]))
    side.norms, side.counts = np.asarray(norms), counts
    # stage 1 of every stacked draw: player masses, then the public view's
    side.owner_law = _OwnerLaw(np.append(side.norms**2, side.views[PUBLIC].norm**2))
    return session.k * (enc.opcode_bits + resp_bits)


class _Coin:
    """The one uniform the coordinator drew for an owner's local draw, served
    as a one-draw stream: the owner samples with `sq_sample` as usual, which
    maps it through `sq_sample_at`, and every local draw stays a `sq_sample`
    call (the sampling layer perfbench's tracer counts)."""

    __slots__ = ("r",)

    def __init__(self, r: float):
        self.r = r

    def random(self) -> float:
        return self.r


def _owner_draw(session: Session, side: _Side, kind: str, rng, req_bits: int,
                resp_bits: int, owner_law=None, owner=None, row=None, args=()):
    """The coordinator's one sampling move; returns (owner, local index, bits).

    Stage 1 picks an owner from `owner_law` (an `_OwnerLaw` with one squared
    norm per player, plus a last entry for the public view when public blocks
    take part), unless `owner` is given.  Stage 2 is one l2 draw from that
    owner's view, its own law or the law of its row `row`, at one more uniform
    from rng: public coin, drawn on every stage 2, live or replayed, so the
    coordinator's stream never depends on player data.  The public view draws
    for free.
    """
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"{kind} needs a numpy Generator")
    if owner is None:
        owner = owner_law.pick(rng)
        if owner == session.k:
            owner = PUBLIC
    coin = _Coin(rng.random())
    view = side.views[owner]
    if owner == PUBLIC:
        return owner, sq_sample(view.sample_law(row), coin), 0
    local, bits = session._exchange(owner, kind, "access", req_bits, resp_bits,
                                    lambda: sq_sample(view.sample_law(row), coin), args)
    return owner, local, bits


def _stacked_sample(session: Session, side: _Side, kind: str, rng):
    """Draw a global index under the stacked side's l2 law; returns (j, bits).

    Players are weighted by their setup norms, public mass by the
    coordinator's own view; the owner's local index maps back to the stacked
    space through the public layout.
    """
    side.require_setup()
    enc = session.encoding
    owner, local, bits = _owner_draw(session, side, kind, rng, enc.opcode_bits,
                                     enc.index_bits(side.rows), owner_law=side.owner_law)
    return int(side.globals[owner][local]), bits


def _owner_query(session: Session, side: _Side, kind: str, g: int, read, column=None):
    """One scalar read off stacked row g (at `column` for a matrix entry) by the
    row's owner; returns (value, bits).  Public rows are answered for free."""
    owner, local = side.locate(g)
    enc = session.encoding
    req_bits = enc.opcode_bits + enc.index_bits(side.rows)
    if column is not None:
        if not 0 <= column < session.n:
            raise IndexOutOfRange(f"column {column} outside [0, {session.n})")
        req_bits += enc.index_bits(session.n)
    view = side.views[owner]
    if owner == PUBLIC:
        return read(view.data[local]), 0
    return session._exchange(owner, kind, "access", req_bits, enc.scalar_bits,
                             lambda: read(view.data[local]),
                             (g,) if column is None else (g, column))


def _mixture_law(size: int, weights, views, empty: str, row=None, stacked=False) -> np.ndarray:
    """Exact law of an owner mixture: the sum of (w / total) * exact_distribution
    over the views' stage-2 laws, placed at each view's global indices when
    `stacked`; the shares of a combination all index one space."""
    weights = np.array(weights)
    total = weights.sum()
    if total <= 0:
        raise AllZero(empty)
    p = np.zeros(size)
    for w, view in zip(weights, views):
        if w > 0:
            p[view.globals if stacked else slice(None)] += (
                (w / total) * exact_distribution(view.sample_law(row)))
    return p


# --- stacked-access protocol ops ---------------------------------------------

def coord_b_setup(session: Session) -> int:
    """One-time norm/size broadcast for the vector side; returns bits charged."""
    return _setup(session, session._b, "b_setup")


def coord_a_setup(session: Session) -> int:
    """One-time Frobenius-norm/row-count broadcast for the matrix side."""
    return _setup(session, session._a, "a_setup")


def coord_b_sample(session: Session, rng: np.random.Generator):
    """Draw a global index under the stacked vector's l2 law; returns (j, bits).

    Stage 1 picks an owner from the setup norms (public mass sampled locally
    for free); stage 2 delegates one local draw to that owner.
    """
    return _stacked_sample(session, session._b, "b_sample", rng)


def coord_b_query(session: Session, j: int):
    """Entry query against the stacked vector; returns (value, bits)."""
    return _owner_query(session, session._b, "b_query", j, lambda row: row[0].item())


def coord_a_access(session: Session, request, rng: np.random.Generator | None = None):
    """Serve one matrix access; returns (result, bits).

    Request kinds: "row_norm_sample", ("row_sample", i), ("entry_query", i, j),
    "frobenius_query", ("row_norm_query", i).
    """
    kind, args = _split(request)
    side = session._a
    enc = session.encoding

    if kind == "frobenius_query":
        side.require_setup()
        total = float((side.norms**2).sum() + side.views[PUBLIC].norm**2)
        return math.sqrt(total), 0

    if kind == "row_norm_sample":
        return _stacked_sample(session, side, "a_row_norm_sample", rng)

    if kind == "row_sample":
        (i,) = args
        owner, local = side.locate(i)
        _, j, bits = _owner_draw(session, side, "a_row_sample", rng,
                                 enc.opcode_bits + enc.index_bits(session.a_rows),
                                 enc.index_bits(session.n), owner=owner, row=local, args=(i,))
        return j, bits

    if kind == "entry_query":
        i, j = args
        return _owner_query(session, side, "a_entry_query", i, lambda row: row[j].item(),
                            column=j)

    if kind == "row_norm_query":
        (i,) = args
        return _owner_query(session, side, "a_row_norm_query", i,
                            lambda row: float(np.linalg.norm(row)))

    raise ValueError(f"unknown matrix access kind: {kind!r}")


# --- exact law enumeration ----------------------------------------------------

def protocol_distribution(session: Session, access) -> np.ndarray:
    """Exact induced law of a sampling access, by branch enumeration.

    Expands the two-stage randomness (owner choice, then local draw) into the
    exact probability vector; no RNG is consumed and no bits are charged.  This
    is a verification aid and reads block data directly.
    """
    _require_player_data(session, "protocol_distribution")
    kind, args = _split(access)

    if kind in ("b_sample", "row_norm_sample"):
        side = session._b if kind == "b_sample" else session._a
        views = list(side.views.values())
        return _mixture_law(side.rows, [v.norm**2 for v in views], views,
                            f"stacked {side.noun} is identically zero", stacked=True)

    if kind == "row_sample":
        (i,) = args
        owner, local = session._a.locate(i)
        return exact_distribution(session._a.views[owner].sample_law(local))

    if kind in ("lincomb_b_dominator", "lincomb_A_row_norm"):
        side = session._b if kind == "lincomb_b_dominator" else session._a
        (coeffs,) = args
        views = _combination_views(session, side, coeffs)
        return _mixture_law(views[0][1].size, [abs(c) ** 2 * v.norm**2 for c, v in views],
                            [v for _, v in views], "all combination shares are zero")

    if kind == "lincomb_A_row":
        lambdas, i = args
        views = _combination_views(session, session._a, lambdas)
        weights = [abs(c) ** 2 * float(np.linalg.norm(v.data[i]) ** 2) for c, v in views]
        return _mixture_law(session.n, weights, [v for _, v in views],
                            f"dominator row {i} is identically zero", row=i)

    raise ValueError(f"unknown access kind: {kind!r}")


# --- linear-combination access -------------------------------------------------

def _coefficients(session: Session, coeffs) -> np.ndarray:
    c = np.asarray(coeffs)
    if c.shape != (session.k,):
        raise DimensionMismatch(f"need {session.k} coefficients, got {c.shape}")
    return c


def _combination_views(session: Session, side: _Side, coeffs):
    """(coefficient, player view) pairs over all k same-shape shares."""
    _require_player_data(session, "the exact phi of a combination")
    c = _coefficients(session, coeffs)
    views = []
    for i in range(session.k):
        view = side.views[i]
        if view.data is None:
            raise DimensionMismatch(f"player {i} holds no {side.noun} share")
        if views and view.data.shape != views[0][1].data.shape:
            raise DimensionMismatch(side.share_mismatch)
        views.append((complex(c[i]) if np.iscomplexobj(c) else float(c[i]), view))
    return views


def _phi(session: Session, side: _Side, coeffs, row=None) -> float:
    """Exact oversampling ratio k sum_i |c_i|^2 ||share_i||^2 / ||combined||^2
    of a combination, or of its row `row` (simulation-side)."""
    views = _combination_views(session, side, coeffs)
    if row is None:
        shares = [v.data for _, v in views]
        share_sq = [v.norm**2 for _, v in views]
        what = "combination"
    else:
        shares = [v.data[row] for _, v in views]
        share_sq = [float(np.linalg.norm(s) ** 2) for s in shares]
        what = f"combined row {row}"
    combined = sum(c * s for (c, _), s in zip(views, shares))
    c_norm2 = float(np.linalg.norm(combined) ** 2)
    if c_norm2 <= CANCELLATION_TOL**2:
        raise Cancellation(f"{what} cancels below tolerance")
    return session.k * sum(abs(c) ** 2 * q for (c, _), q in zip(views, share_sq)) / c_norm2


def lincomb_b_phi(session: Session, mu) -> float:
    """Exact oversampling ratio phi for the combined vector (simulation-side)."""
    return _phi(session, session._b, mu)


def lincomb_a_phi(session: Session, lambdas) -> float:
    """Exact oversampling ratio phi for the combined matrix (simulation-side)."""
    return _phi(session, session._a, lambdas)


class _Combination:
    """One request against sum_t c_t S^(t) over one side's k same-shape
    shares, each a (rows, cols) block; a vector is the one-column case and
    reads entry (j, 0).  The dominator has entries sqrt(k sum_t |c_t S^(t)_ij|^2).
    The constructor runs the checks every request shares, before anything is
    metered.  Only a matrix is asked for row norms or a draw within a row."""

    def __init__(self, session: Session, side: _Side, coeffs, query_kind: str,
                 sample_kind: str):
        side.require_setup()
        self.coeffs = _coefficients(session, coeffs)
        if side.share_rows is None:
            raise DimensionMismatch(side.share_mismatch)
        self.session, self.side = session, side
        self.rows, self.cols = side.share_rows, side.cols
        self.query_kind, self.sample_kind = query_kind, sample_kind
        self.row_req = session.encoding.opcode_bits + session.encoding.index_bits(self.rows)

    def weights(self) -> np.ndarray:
        """Owner weights of the dominator's row-norm law, known to the
        coordinator at no cost: |c_t|^2 * (setup norm of share t)^2."""
        return np.abs(self.coeffs) ** 2 * self.side.norms**2

    def dominator_norm(self) -> float:
        return math.sqrt(self.session.k * float(self.weights().sum()))

    def check_row(self, i) -> None:
        if not 0 <= i < self.rows:
            raise IndexOutOfRange(f"row {i} outside [0, {self.rows})")

    def _fan_out(self, kind: str, req_bits: int, read, args):
        """Ask all k players for one scalar of their share; returns (values, bits)."""
        values, bits = [], 0
        for t in range(self.session.k):
            value, cost = self.session._exchange(
                t, kind, "access", req_bits, self.session.encoding.scalar_bits,
                lambda v=self.side.views[t]: read(v.data), args,
            )
            values.append(value)
            bits += cost
        return values, bits

    def entry(self, i, j):
        """Fan out entry (i, j) to all k players, zero coefficients included;
        returns (combined entry, squared dominator entry, bits)."""
        self.check_row(i)
        if not 0 <= j < self.cols:
            raise IndexOutOfRange(f"column {j} outside [0, {self.cols})")
        values, bits = self._fan_out(
            self.query_kind, self.row_req + self.session.encoding.index_bits(self.cols),
            lambda d: d[i, j].item(), (i, j))
        terms = list(zip(self.coeffs, values))
        return (sum(c * v for c, v in terms),
                self.session.k * sum(abs(c * v) ** 2 for c, v in terms), bits)

    def row_norms(self, i):
        """Fan out the norms of row i of every share; returns (norms, bits)."""
        self.check_row(i)
        return self._fan_out("lincomb_a_row_norm", self.row_req,
                             lambda d: float(np.linalg.norm(d[i])), (i,))

    def draw(self, rng, law: _OwnerLaw | None = None, row=None):
        """One dominator draw; returns (index, bits).  Without `row`, a row
        under the row-norm law `law`; with it, a column of that row, the owner
        weighted by |c_t|^2 times the fanned-out norm of its share's row."""
        enc = self.session.encoding
        if row is None:
            kind, req_bits, resp_bits, bits, args = (
                self.sample_kind, enc.opcode_bits, enc.index_bits(self.rows), 0, ())
        else:
            norms, bits = self.row_norms(row)
            law = _OwnerLaw(np.abs(self.coeffs) ** 2 * np.asarray(norms) ** 2)
            kind, req_bits, resp_bits, args = (
                "lincomb_a_row_sample", self.row_req, enc.index_bits(self.cols), (row,))
        _, j, cost = _owner_draw(self.session, self.side, kind, rng, req_bits, resp_bits,
                                 owner_law=law, row=row, args=args)
        return j, bits + cost

    def rejection_round(self, rng, law: _OwnerLaw | None = None, row=None):
        """A dominator draw as in `draw`, then its entry fanned out; returns
        (index, |combined|^2 / dominator^2 or None where the dominator is
        zero, bits)."""
        j, bits = self.draw(rng, law, row)
        combined, dom_sq, cost = self.entry(j, 0) if row is None else self.entry(row, j)
        return j, (abs(combined) ** 2 / dom_sq if dom_sq > 0 else None), bits + cost


def lincomb_b_access(session: Session, mu, request, rng: np.random.Generator | None = None):
    """Serve one access against b = sum_i mu_i b^(i); returns (result, bits).

    Request kinds: ("query", j), ("dominator_query", j), "dominator_sample",
    "dominator_norm", ("sq_sample_via_rejection"[, delta]),
    ("norm_estimate", eps, delta).  Queries fan out to all k players; samples
    go through the dominating vector with entries sqrt(k sum_i |mu_i b_j^(i)|^2).
    """
    kind, args = _split(request)
    comb = _Combination(session, session._b, mu, "lincomb_b_query", "lincomb_b_sample")

    if kind in ("query", "dominator_query"):
        (j,) = args
        combined, dom_sq, bits = comb.entry(j, 0)
        return (combined if kind == "query" else math.sqrt(dom_sq)), bits

    if kind == "dominator_norm":
        return comb.dominator_norm(), 0

    # every kind below samples the dominator: one row-norm law per request
    law = _OwnerLaw(comb.weights())
    phi = functools.partial(session._annotate, "phi_b",
                            lambda: lincomb_b_phi(session, comb.coeffs))

    if kind == "dominator_sample":
        return comb.draw(rng, law)

    if kind == "sq_sample_via_rejection":
        delta = args[0] if args else DEFAULT_REJECTION_DELTA
        return _rejection_loop(lambda: comb.rejection_round(rng, law), phi, delta, rng)

    if kind == "norm_estimate":
        eps, delta = args
        n_draws = _norm_estimate_draws(eps, delta, phi)
        bits = 0
        total_ratio = 0.0
        for _ in range(n_draws):
            _, ratio, cost = comb.rejection_round(rng, law)
            bits += cost
            if ratio is not None:
                total_ratio += ratio
        return _norm_from_ratios(comb.dominator_norm(), total_ratio / n_draws), bits

    raise ValueError(f"unknown combination access kind: {kind!r}")


def lincomb_a_access(session: Session, lambdas, request, rng: np.random.Generator | None = None):
    """Serve one access against A = sum_t lambda_t A^(t); returns (result, bits).

    Request kinds: ("query", i, j), ("dominator_query", i, j),
    "dominator_fro_norm", ("dominator_row_norm_query", i),
    "dominator_row_norm_sample", ("dominator_row_sample", i),
    ("sq_row_sample_via_rejection", i[, delta]).
    """
    kind, args = _split(request)
    comb = _Combination(session, session._a, lambdas, "lincomb_a_query",
                        "lincomb_a_row_norm_sample")

    if kind in ("query", "dominator_query"):
        i, j = args
        combined, dom_sq, bits = comb.entry(i, j)
        return (combined if kind == "query" else math.sqrt(dom_sq)), bits

    if kind == "dominator_fro_norm":
        return comb.dominator_norm(), 0

    if kind == "dominator_row_norm_sample":
        return comb.draw(rng, _OwnerLaw(comb.weights()))

    if kind == "dominator_row_norm_query":
        (i,) = args
        norms, bits = comb.row_norms(i)
        return math.sqrt(session.k * sum(abs(c) ** 2 * r**2
                                         for c, r in zip(comb.coeffs, norms))), bits

    if kind == "dominator_row_sample":
        (i,) = args
        return comb.draw(rng, row=i)

    if kind == "sq_row_sample_via_rejection":
        i = args[0]
        comb.check_row(i)
        delta = args[1] if len(args) > 1 else DEFAULT_REJECTION_DELTA
        phi = functools.partial(session._annotate, "phi_row",
                                lambda: _phi(session, session._a, comb.coeffs, row=i))
        return _rejection_loop(lambda: comb.rejection_round(rng, row=i), phi, delta, rng)

    raise ValueError(f"unknown combination access kind: {kind!r}")


# --- reporting -----------------------------------------------------------------

@dataclass(frozen=True)
class MeterReport:
    total_bits: int
    n_messages: int
    n_rounds: int
    bits_by_kind: dict
    bits_by_phase: dict
    messages_by_kind: dict


def meter_report(session: Session) -> MeterReport:
    """Aggregate the transcript: totals overall, by message kind, and by phase."""
    by_kind: dict = {}
    by_phase: dict = {}
    count_kind: dict = {}
    rounds = 0
    messages = session.meter.messages
    for msg in messages:
        by_kind[msg.kind] = by_kind.get(msg.kind, 0) + msg.bits
        by_phase[msg.phase] = by_phase.get(msg.phase, 0) + msg.bits
        count_kind[msg.kind] = count_kind.get(msg.kind, 0) + 1
        rounds = max(rounds, msg.round)
    return MeterReport(
        total_bits=session.meter.total_bits,
        n_messages=len(messages),
        n_rounds=rounds,
        bits_by_kind=dict(sorted(by_kind.items())),
        bits_by_phase=dict(sorted(by_phase.items())),
        messages_by_kind=dict(sorted(count_kind.items())),
    )


def export_transcript_jsonl(session: Session, path) -> None:
    """Write one JSON object per message: round, from, to, kind, bits."""
    with open(path, "w") as fh:
        for msg in session.meter.messages:
            fh.write(json.dumps(
                {"round": msg.round, "from": msg.sender, "to": msg.receiver,
                 "kind": msg.kind, "bits": msg.bits},
                sort_keys=True,
            ))
            fh.write("\n")


def export_summary_csv(session: Session, path) -> None:
    """Write per-kind totals: kind, phase, messages, bits (sorted, stable)."""
    rows: dict = {}
    for msg in session.meter.messages:
        key = (msg.kind, msg.phase)
        msgs, bits = rows.get(key, (0, 0))
        rows[key] = (msgs + 1, bits + msg.bits)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "phase", "messages", "bits"])
        for (kind, phase), (msgs, bits) in sorted(rows.items()):
            writer.writerow([kind, phase, msgs, bits])
