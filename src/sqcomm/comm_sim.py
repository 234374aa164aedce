"""Coordinator-model simulation of SQ access to distributed data, with exact
bit accounting.

k players each hold private row blocks of a matrix A and/or a vector b; a
coordinator talks to each player over a two-way channel and serves SQ requests
against the stacked data.  Blocks may also be public (known to the coordinator,
charged zero bits) or owned by any single player regardless of stack position.
Every message is charged per an EncodingSpec, and the full transcript is kept
for reporting and replay.

The transcript (`BitMeter`) keeps one plain row per exchange, request and
response together, with the session's interned player name; a simulation-side
scalar is an `Annotation` row of its own.  `Message` is only a read-only view,
built on demand, two per exchange row.  A k-player fan-out is one batched
exchange that records its k rows at once; live, a combination entry reads
each player's value from that player's owner array, with no copy of the
shares.  A replay checks a whole exchange, every row of it, by indexing its
queue, then consumes it; `meter_report` is one pass over the rows.

Each player's data is held once.  Stacking (`_stack_blocks`) checks the
caller's owners, dtypes and shapes without a copy and copies the blocks
once: each owner's blocks on a side, in stack order, become one read-only
float64 array (complex128 when any is complex), each block its rows of that
array.  The owner's view then builds its l2 law there, the builder refusing
a nan or inf entry or an overflowing squared total: a matrix owner's SQ
handle keeps the array as its entries, a vector owner's law only its
column's masses.  A block whose squares all underflow has no mass, as an
all-zero one; every owner with no block on a side shares one empty view.  A
caller's later writes change nothing.  A replay clone opens by the same step
from the live session's checked layout: its private views hold no array and
build no law, and the public view is the live one.  Index widths are fixed
at the open and each Frobenius total at its setup; a stacked access on a
side the session does not hold is refused as that side's setup is, with
`DimensionMismatch`.

One norm rule: every norm the coordinator serves is read off the masses its
draws use, so sq_access's handle builder alone decides how a norm of player
data is computed.  A row norm is the owner handle's row-norm law value
(`_OwnerView.row_norm`), ||A||_F the stage-1 owner law's norm, and a
dominator's norm, whole or of one row, sqrt(k sum) of its draw's owner weights.

Two access families share a session:

* stacked access - the coordinator composes a player-choice stage with a local
  sampling stage, reproducing the l2 law of the stacked vector/matrix exactly;
* linear-combination access - every player holds a same-shape share, the
  coordinator serves queries by fanning out to all k players and serves samples
  through a dominating vector (oversampled access + rejection).  One record,
  `_Combination`, serves vector and matrix requests, the exact phi and the
  exact dominator laws; a vector share is one column of its owner array, so
  the record reads entry (j, 0).

Every sampling access of both families is one owner-mixture draw,
`_owner_draw`: the coordinator picks an owner under an `SqVector` that
sq_access's one builder (`_law`) makes of the owners' squared norms, and that
owner makes one local l2 draw, both stages by `sq_sample_at`; `_mixture_law`
gives its exact law from the same builder.  Every rejection draw runs through
the one rejection loop in `sq_access`, and every norm estimate through its one
norm estimator, one round at a time.  A round is that owner draw of a
dominator index, then one fan-out of the drawn entry, folded in player order
with the coefficients the record prepared once as Python scalars; it does not
re-check the indices it drew.  A request's kind, argument count (`_split`),
indices and Generator are checked before anything is metered or drawn.  Each
side keeps its last record in one slot, with its dominator row-norm law and
the phi of the last row asked; a request's coefficients are compared with
the record's as they are, and copied and checked only for a new record.  A
rejection request checks its delta once and takes its cap from that memoised
phi, still recorded as an annotation on each request, and every request
records the indices it carries, for a replay to check.

Randomness is caller-owned and public-coin: every draw takes uniforms from
the Generator passed to each operation, one for the owner pick and one more
for the owner's local draw, never sent and costing no bits.  Each access
thus consumes a fixed number of uniforms whatever the players hold, so a
transcript replay (with player data deleted) reproduces every coordinator
decision bit for bit.
"""

from __future__ import annotations

import cmath
import functools
import math
import weakref
from bisect import bisect_right
from collections import Counter, deque
from dataclasses import dataclass, field, replace

import numpy as np

from . import _checks
from .sq_access import (
    AllZero,
    SqVector,
    build_sq_matrix,
    exact_distribution,
    sq_row,
    sq_sample,
    sq_sample_at,
    _check_index,
    _frozen,
    _law,
    _table,
    _norm_estimate,
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
        for name, lo, below in (("scalar_bits", 8, "scalar_bits must be at least 8"),
                                ("opcode_bits", 0, "opcode_bits must be nonnegative")):
            value = getattr(self, name)
            object.__setattr__(self, name, _checks.count(
                value, lo, None, f"{name} must be an integer, not {type(value).__name__}",
                TypeError, (ValueError, below)))

    @staticmethod
    def index_bits(count: int) -> int:
        count = _checks.count(count, 1, None, "index space size {!r} is not an integer >= 1")
        return math.ceil(math.log2(count)) if count > 1 else 0


@dataclass(frozen=True)
class Message:
    """One direction of one exchange, as a read-only view of its transcript
    row: the request (sender "C") carries the request's indices as payload,
    the response the player's answer."""

    round: int
    sender: str
    receiver: str
    kind: str
    bits: int
    phase: str
    payload: object = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Annotation:
    """Zero-bit transcript entry recording a simulation-side scalar (e.g.
    phi), or the Cancellation raised in its place."""

    kind: str
    value: object


class BitMeter:
    """Append-only transcript with the running bit total.

    `rows` holds one plain tuple per exchange, (player name, kind, phase,
    request bits, response bits, args, payload), and each `Annotation` as a
    row of its own.  An exchange's round is its ordinal among the exchange
    rows.  `entries` and `messages` are built on demand: two `Message` views
    per exchange row (request, then response) and the annotations as they are.
    """

    def __init__(self):
        self.rows: list = []
        self.total_bits: int = 0

    @property
    def entries(self) -> tuple:
        out, rnd = [], 0
        for row in self.rows:
            if isinstance(row, Annotation):
                out.append(row)
                continue
            rnd += 1
            name, kind, phase, req_bits, resp_bits, args, payload = row
            out.append(Message(rnd, "C", name, kind, req_bits, phase, args))
            out.append(Message(rnd, name, "C", kind, resp_bits, phase, payload))
        return tuple(out)

    @property
    def messages(self) -> tuple:
        return tuple(e for e in self.entries if isinstance(e, Message))


@dataclass(frozen=True, eq=False)
class _Block:
    owner: object            # player index or PUBLIC
    offset: int              # global row offset
    start: int               # the row of the owner's array where the block begins
    data: np.ndarray         # its rows of the owner's array; a vector block is one column


def _owner_array(parts) -> np.ndarray:
    """One owner's checked 2-d blocks, in stack order, as one new read-only
    array: float64, or complex128 when any block is complex."""
    dtype = _checks.numeric_dtype(np.result_type(*parts))
    return _frozen(np.concatenate(parts, dtype=dtype))


def _stack_blocks(k: int, blocks, ndim: int):
    """Validate (owner, data) pairs and stack them in order, a vector block as
    one column; returns (blocks, rows, arrays), where `arrays` maps each
    owner to its `_owner_array` and each block's data is its rows of that
    array.  The caller's arrays are checked without a copy and copied once,
    into the owner arrays."""
    checked, parts = [], {}
    for owner, data in blocks:
        if owner is None or (isinstance(owner, str) and owner == PUBLIC):
            owner = PUBLIC
        elif owner.__class__ is not int or not 0 <= owner < k:   # an int in range: no call
            owner = _checks.count(owner, 0, k - 1, f"owner {{!r}} is not None, {PUBLIC!r} "
                                                   f"or an integer in [0, {k})")
        arr = _checks.numeric_kind(np.asarray(data), "block entries")
        if arr.ndim != ndim or arr.size == 0:
            noun = "vector" if ndim == 1 else "matrix"
            raise DimensionMismatch(f"{noun} blocks must be nonempty {ndim}-d")
        arr = arr.reshape(arr.shape[0], -1)
        if checked and arr.shape[1] != checked[0][1].shape[1]:
            raise DimensionMismatch("matrix blocks disagree on column count")
        checked.append((owner, arr))
        parts.setdefault(owner, []).append(arr)
    arrays = {owner: _owner_array(mine) for owner, mine in parts.items()}
    out, off, used = [], 0, dict.fromkeys(arrays, 0)
    for owner, arr in checked:
        start, rows = used[owner], len(arr)
        out.append(_Block(owner, off, start, arrays[owner][start:start + rows]))
        used[owner] += rows
        off += rows
    return out, off, arrays


def _stack_layout(k: int, a_blocks, b_blocks):
    """The player count and both sides' stacked blocks of a layout, checked as
    a session opening checks them; returns (k, a, b), each side the
    (blocks, rows, arrays) of `_stack_blocks`."""
    k = _checks.count(k, 1, None, "player count k = {!r} is not an integer >= 1")
    b = _stack_blocks(k, b_blocks, 1)
    a = _stack_blocks(k, a_blocks, 2)
    if a[0] and b[0] and a[1] != b[1]:
        raise DimensionMismatch(f"stacked row counts disagree: A has {a[1]}, b has {b[1]}")
    return k, a, b


def _assembled(a_blocks, b_blocks):
    """The stacked (A, b) of checked blocks; None for an absent side."""
    A = np.vstack([bl.data for bl in a_blocks]) if a_blocks else None
    b = np.concatenate([bl.data[:, 0] for bl in b_blocks]) if b_blocks else None
    return A, b


class _OwnerView:
    """One owner's stacked blocks on one side, its owner array `data` (None
    when it holds no block or the session is a replay clone) and the l2 `law`
    stage 2 samples, or one of whose rows it samples, built at the open (None
    without mass: no nonzero entry, or every square underflows): a matrix
    view's row-norm law of the SQ `handle` sharing its array, a vector view's
    masses alone, |b_j|^2 rooted and squared again as a row norm's are."""

    def __init__(self, blocks, data, vector: bool):
        spans = [np.arange(b.offset, b.offset + len(b.data)) for b in blocks] or [np.arange(0)]
        self.globals = spans[0] if len(spans) == 1 else np.concatenate(spans)
        self.data, self.handle, self.law = data, None, None
        self.size = len(self.globals)
        if data is not None and np.count_nonzero(data):
            try:
                if vector:
                    masses = np.sqrt(_table(data[:, 0], 1)[1])
                    self.law = _law(np.square(masses, out=masses))   # rooted, squared again
                else:
                    self.handle = build_sq_matrix(data)
                    self.law = self.handle.row_norm_vector
            except AllZero:   # every square underflows: no mass, as an all-zero view
                pass
        self.norm = 0.0 if self.law is None else self.law.norm

    def row_norm(self, i: int) -> float:
        """Row i's norm, the root of its mass in `law` (0.0 with no nonzero entry)."""
        return 0.0 if self.law is None else self.law.values.item(i)

    def sample_law(self, row=None) -> SqVector:
        """The view's own law, or the law of one row of its matrix."""
        if self.law is None:
            raise AllZero("the owner's blocks are identically zero")
        return self.law if row is None else sq_row(self.handle, row)


class _Side:
    """One stacked side of a session (vector b or matrix A): the owner views,
    the layout-only routing tables, the index widths of its spaces (fixed
    when it opens), the coordinator's setup knowledge and the combination slot."""
    no_blocks = _OwnerView([], None, False)   # the one view of each owner holding no block

    def __init__(self, name: str, k: int, blocks, rows: int, arrays: dict,
                 encoding: EncodingSpec):
        self.name = name                    # "b" or "a", as in coord_b_setup
        self.noun = "vector" if name == "b" else "matrix"
        self.blocks = blocks
        self.rows = rows
        self.cols = blocks[0].data.shape[1] if blocks else None
        owned = {o: [] for o in list(range(k)) + [PUBLIC]}
        for bl in blocks:
            owned[bl.owner].append(bl)
        self.views = {o: _OwnerView(mine, arrays.get(o), name == "b") if mine else self.no_blocks
                      for o, mine in owned.items()}
        self.players = [self.views[t] for t in range(k)]
        # routing table: block offset -> (owner, shift), where global index g
        # of the block is index g + shift of the owner's view
        self.starts = [bl.offset for bl in blocks]
        self.route = [(bl.owner, bl.start - bl.offset) for bl in blocks]
        # rows per player share, when all k are equal and nonempty (the
        # precondition of linear-combination access)
        shares = {view.size for view in self.players}
        self.share_rows = shares.pop() if len(shares) == 1 and 0 not in shares else None
        # index widths of the stacked rows, a share's rows and the columns;
        # None where the side holds no such space
        width = encoding.index_bits
        self.row_bits = width(rows) if rows else None
        self.share_bits = width(self.share_rows) if self.share_rows else None
        self.col_bits = width(self.cols) if blocks else None
        # a request naming a stacked row: one opcode and one row index
        self.row_req = encoding.opcode_bits + self.row_bits if rows else None
        self.norms: np.ndarray | None = None    # filled by the one-time setup
        self.counts: list | None = None
        self.owner_law: SqVector | None = None   # stage 1 of a stacked draw; norm ||side||_F
        self.slot: _Combination | None = None   # filled by `_Combination.of`

    def require_blocks(self) -> None:
        if not self.blocks:
            raise DimensionMismatch(f"session holds no {self.noun} blocks")

    def locate(self, g: int):
        if g.__class__ is not int or not 0 <= g < self.rows:
            self.require_blocks()   # a side the session does not hold says so
            _check_index(g, self.rows)
        owner, shift = self.route[bisect_right(self.starts, g) - 1]
        return owner, g + shift

    def require_setup(self) -> None:
        if self.norms is None:
            self.require_blocks()
            raise NotSetup(f"run coord_{self.name}_setup first")


class Session:
    """Protocol state: block layout (public metadata), player data (private),
    coordinator knowledge, and the metered transcript."""
    _default_encoding = EncodingSpec()   # one frozen instance for every session

    def __init__(self, k: int, a_blocks, b_blocks, encoding: EncodingSpec | None = None):
        self._open(*_stack_layout(k, a_blocks, b_blocks), encoding)

    def _open(self, k: int, a, b, encoding: EncodingSpec | None) -> None:
        """Open on checked sides, each the (blocks, rows, arrays) of
        `_stack_blocks`; an owner with no array gets a view with no data."""
        self.k = k
        self.encoding = encoding if encoding is not None else self._default_encoding
        self.meter = BitMeter()
        self.player_names = tuple(f"P{t + 1}" for t in range(self.k))
        self._replay_queue: deque | None = None

        self._b = _Side("b", self.k, *b, self.encoding)
        self._a = _Side("a", self.k, *a, self.encoding)
        self.b_blocks, self.m = self._b.blocks, self._b.rows
        self.a_blocks, self.a_rows = self._a.blocks, self._a.rows
        self.n = self._a.cols

    # coordinator knowledge, filled by the one-time setups
    b_norms = property(lambda self: self._b.norms)
    b_sizes = property(lambda self: self._b.counts)

    # --- transcript plumbing -------------------------------------------------

    def _exchange(self, names, kind: str, phase: str, req_bits: int, resp_bits: int,
                  respond, args=()):
        """One round with each named player, recorded as one row each:
        coordinator request, player response.  `respond()` gives the answers
        in `names` order and runs only live; returns (answers, bits).

        `args` are the indices the request carries (a global index, a row, a
        column), recorded on every row at no extra bits.  A replay checks
        every row (receiver, kind, phase, args, both widths) before it
        consumes any, so a mismatch leaves the replay where it was.

        A player whose local step fails (say, a draw from its zero row) answers
        with that failure at the same widths: `respond()` fails as a whole, the
        round is recorded with the exception as every payload, then the
        exception is raised, and a replay raises the same type at the same
        point.
        """
        meter, queue = self.meter, self._replay_queue
        if queue is None:
            failure = None
            try:
                answers = respond()
            except (ValueError, IndexError) as err:
                answers, failure = [err] * len(names), err
            rows = meter.rows
            for t, name in enumerate(names):
                rows.append((name, kind, phase, req_bits, resp_bits, args, answers[t]))
        else:
            # check the whole exchange by indexing the queue, then consume it
            answers = []
            for t, name in enumerate(names):
                try:
                    row = queue[t]
                except IndexError:
                    raise RuntimeError("replay transcript exhausted") from None
                if not isinstance(row, tuple):
                    raise RuntimeError("replay transcript out of order")
                want = (name, kind, phase, req_bits, resp_bits, args)
                if row[:6] != want:
                    raise RuntimeError(f"transcript mismatch: expected {want}, saw {row[:6]}")
                answers.append(row[6])
            rows = meter.rows
            for _ in names:
                rows.append(queue.popleft())
            failure = answers[0] if isinstance(answers[0], Exception) else None
        bits = len(names) * (req_bits + resp_bits)
        meter.total_bits += bits
        if failure is not None:
            raise failure if queue is None else type(failure)(*failure.args)
        return answers, bits

    def _annotate(self, kind: str, compute):
        """Record (or replay) a simulation-side scalar as a zero-bit entry; a
        Cancellation is recorded in its place and raised, live and replayed."""
        queue = self._replay_queue
        if queue is not None:
            if not queue:
                raise RuntimeError("replay transcript exhausted")
            entry = queue[0]
            if not isinstance(entry, Annotation):
                raise RuntimeError("replay transcript out of order")
            if entry.kind != kind:
                raise RuntimeError(f"transcript mismatch: expected {kind}, saw {entry.kind}")
            queue.popleft()
        else:
            try:
                entry = Annotation(kind, compute())
            except Cancellation as err:
                entry = Annotation(kind, err)
        self.meter.rows.append(entry)
        if isinstance(entry.value, Exception):
            raise type(entry.value)(*entry.value.args) if queue is not None else entry.value
        return entry.value

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
    simulation-side reads of player data raise NoPlayerData.

    The clone opens by the session's own step on the live, already checked
    layout: a private block keeps its owner, offset, start and shape as a
    zero-stride view of one zero, which holds no bytes, and the public owner
    view, with its array and its law, is the live one, shared."""
    def layout(side):
        blocks = [bl if bl.owner == PUBLIC else replace(
            bl, data=np.broadcast_to(bl.data.dtype.type(0), bl.data.shape)) for bl in side.blocks]
        return blocks, side.rows, {}

    clone = Session.__new__(Session)
    clone._open(session.k, layout(session._a), layout(session._b), session.encoding)
    for mine, live in ((clone._a, session._a), (clone._b, session._b)):
        mine.views[PUBLIC] = live.views[PUBLIC]
    clone._replay_queue = deque(session.meter.rows)
    return clone


def assemble_stacked(session: Session):
    """Simulation-side view of the stacked (A, b); None for an absent side.

    Not a protocol operation: used by oracles, validators, and the output
    stand-ins, never by coordinator logic.  A replay session raises
    NoPlayerData.
    """
    _require_player_data(session, "assemble_stacked")
    return _assembled(session.a_blocks, session.b_blocks)


def stack_layout(k: int, a_blocks, b_blocks):
    """The stacked (A, b) that `assemble_stacked` gives for the session these
    (owner, data) blocks would open, with the owners, shapes and row counts
    checked as that opening checks them, but without opening it: no owner
    views, norms or finiteness tests.  Simulation-side, like `assemble_stacked`."""
    _, a, b = _stack_layout(k, a_blocks, b_blocks)
    return _assembled(a[0], b[0])


def _require_player_data(session: Session, what: str) -> None:
    """Simulation-side reads of player data fail on a replay session."""
    if session.replaying:
        raise NoPlayerData(f"{what} reads player data, which a replay session "
                           f"does not hold")


def _split(request, kinds: dict, what: str):
    """A request as (kind, args), checked against `kinds` (kind -> fewest and
    most arguments) before anything is metered or drawn; a bare string is a
    kind without arguments."""
    if isinstance(request, str):
        kind, args = request, ()
    elif isinstance(request, (tuple, list)) and request:
        kind, args = request[0], tuple(request[1:])
    else:
        raise ValueError(f"a {what} request is a kind string or a (kind, *args) "
                         f"tuple, got {request!r}")
    try:
        lo, hi = kinds[kind]
    except (KeyError, TypeError):   # TypeError: an unhashable kind
        raise ValueError(f"unknown {what} kind: {kind!r}") from None
    if not lo <= len(args) <= hi:
        count = lo if lo == hi else f"{lo} to {hi}"
        raise ValueError(f"{what} kind {kind!r} takes {count} arguments, got {len(args)}")
    return kind, args


# --- protocol primitives ------------------------------------------------------

def _setup(session: Session, side: _Side, kind: str) -> int:
    """One-time norm/size broadcast for one side; returns bits charged.

    Every player answers (empty holdings answer zero), so the cost is exactly
    k * (opcode_bits + scalar_bits + index_bits(rows)).  The coordinator then
    knows the side's masses; the norm of their owner law is its Frobenius norm.
    """
    if side.norms is not None:
        raise AlreadySetup(f"{side.noun} setup already ran on this session")
    side.require_blocks()
    enc = session.encoding
    values, bits = session._exchange(session.player_names, kind, "setup", enc.opcode_bits,
                                     enc.scalar_bits + side.row_bits,
                                     lambda: [(v.norm, v.size) for v in side.players])
    side.norms = np.asarray([float(norm) for norm, _ in values])
    side.counts = [int(size) for _, size in values]
    # stage 1 of every stacked draw: player masses, then the public view's
    side.owner_law = _law(np.concatenate((side.norms**2, [side.views[PUBLIC].norm**2])))
    return bits


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

    Stage 1 picks an owner from `owner_law` (a `_law` on one squared norm per
    player, then the public view's when public blocks take part; a zero total
    is refused), unless `owner` is given; stage 2 draws from that owner's
    view, its own law or its row `row`'s.  Each maps one uniform from rng
    through `sq_sample_at`; stage 2's is public coin, drawn live or replayed,
    so the coordinator's stream never depends on player data.  The public view
    draws for free.  The caller has checked rng with `_checks.generator`.
    """
    if owner is None:
        if owner_law.norm == 0.0:
            raise AllZero("no sampling mass anywhere")
        owner = sq_sample_at(owner_law, rng.random())
        if owner == session.k:
            owner = PUBLIC
    r = rng.random()
    view = side.views[owner]
    if owner == PUBLIC:
        return owner, sq_sample(view.sample_law(row), _Coin(r)), 0
    (local,), bits = session._exchange((session.player_names[owner],), kind, "access",
                                       req_bits, resp_bits,
                                       lambda: [sq_sample(view.sample_law(row), _Coin(r))], args)
    return owner, local, bits


def _stacked_sample(session: Session, side: _Side, kind: str, rng):
    """Draw a global index under the stacked side's l2 law; returns (j, bits).

    Players are weighted by their setup norms, public mass by the
    coordinator's own view; the owner's local index maps back to the stacked
    space through the public layout.
    """
    side.require_setup()
    _checks.generator(rng, kind)
    owner, local, bits = _owner_draw(session, side, kind, rng, session.encoding.opcode_bits,
                                     side.row_bits, side.owner_law)
    return side.views[owner].globals.item(local), bits


def _owner_query(session: Session, side: _Side, kind: str, args: tuple, column=None):
    """One scalar read off stacked row args[0] by the row's owner: entry
    (row, column), or its `_OwnerView.row_norm` when `column` is None; returns
    (value, bits).  The request carries `args`, and a second argument is a
    column index, checked and charged.  Public rows are answered for free."""
    owner, local = side.locate(args[0])
    req_bits = side.row_req
    if len(args) == 2:
        _check_index(column, side.cols, "column")
        req_bits += side.col_bits
    view = side.views[owner]

    def read():   # runs only live for a private owner, whose data a replay lacks
        return view.row_norm(local) if column is None else view.data.item(local, column)

    if owner == PUBLIC:
        return read(), 0
    (value,), bits = session._exchange((session.player_names[owner],), kind, "access",
                                       req_bits, session.encoding.scalar_bits,
                                       lambda: [read()], args)
    return value, bits


def _mixture_law(size: int, weights, views, empty: str, row=None, stacked=False) -> np.ndarray:
    """Exact law of an owner mixture: each owner's share of the `_law` on
    `weights` times the exact law of its view's stage 2, placed at the view's
    global indices when `stacked`; the shares of a combination index one space."""
    owner_law = _law(np.array(weights))
    if owner_law.norm == 0.0:
        raise AllZero(empty)
    p = np.zeros(size)
    for share, view in zip(exact_distribution(owner_law).tolist(), views):
        if share > 0:
            p[view.globals if stacked else slice(None)] += (
                share * exact_distribution(view.sample_law(row)))
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
    return _owner_query(session, session._b, "b_query", (j,), 0)


# request kind -> (fewest, most) arguments, one table per dispatcher
_MATRIX_KINDS = {"frobenius_query": (0, 0), "row_norm_sample": (0, 0), "row_sample": (1, 1),
                 "entry_query": (2, 2), "row_norm_query": (1, 1)}


def coord_a_access(session: Session, request, rng: np.random.Generator | None = None):
    """Serve one matrix access; returns (result, bits).

    Request kinds: "row_norm_sample", ("row_sample", i), ("entry_query", i, j),
    "frobenius_query", ("row_norm_query", i).
    """
    kind, args = _split(request, _MATRIX_KINDS, "matrix access")
    side = session._a
    if kind == "entry_query":
        return _owner_query(session, side, "a_entry_query", args, args[1])
    if kind == "row_norm_query":
        return _owner_query(session, side, "a_row_norm_query", args)
    if kind == "row_norm_sample":
        return _stacked_sample(session, side, "a_row_norm_sample", rng)
    if kind == "row_sample":
        owner, local = side.locate(args[0])
        _checks.generator(rng, "a_row_sample")
        _, j, bits = _owner_draw(session, side, "a_row_sample", rng, side.row_req,
                                 side.col_bits, owner=owner, row=local, args=args)
        return j, bits
    side.require_setup()   # frobenius_query
    return side.owner_law.norm, 0


# --- exact law enumeration ----------------------------------------------------

_LAW_KINDS = {"b_sample": (0, 0), "row_norm_sample": (0, 0), "row_sample": (1, 1),
              "lincomb_b_dominator": (1, 1), "lincomb_A_row_norm": (1, 1),
              "lincomb_A_row": (2, 2)}


def protocol_distribution(session: Session, access) -> np.ndarray:
    """Exact induced law of a sampling access, by branch enumeration.

    Expands the two-stage randomness (owner choice, then local draw) into the
    exact probability vector; no RNG is consumed and no bits are charged.  This
    is a verification aid and reads block data directly.
    """
    _require_player_data(session, "protocol_distribution")
    kind, args = _split(access, _LAW_KINDS, "access")

    if kind in ("b_sample", "row_norm_sample"):
        side = session._b if kind == "b_sample" else session._a
        side.require_blocks()
        views = list(side.views.values())
        return _mixture_law(side.rows, [v.norm**2 for v in views], views,
                            f"stacked {side.noun} is identically zero", stacked=True)

    if kind == "row_sample":
        owner, local = session._a.locate(args[0])
        return exact_distribution(session._a.views[owner].sample_law(local))

    # a combination's dominator law: the row-norm law, or that of a row's columns
    side = session._b if kind == "lincomb_b_dominator" else session._a
    return _Combination.of(session, side, args[0]).law(*args[1:])


# --- linear-combination access -------------------------------------------------

class _Combination:
    """The linear combination sum_t c_t S^(t) of one side's k same-shape
    shares, each a (rows, cols) block; a vector is the one-column case and
    reads entry (j, 0).  The dominator has entries sqrt(k sum_t |c_t S^(t)_ij|^2).
    `of` checks the coefficients and the shares once, before anything is
    metered, and the record prepares what every round of its requests reuses:
    the coefficients as Python scalars, the message kinds, the bit widths and
    the player names.  It then serves the metered requests and the exact phi
    and dominator laws; a fanned-out entry reads each owner array in place by
    its bound `item` (`readers`), copying no share.  Only a matrix is asked for
    row norms or a draw within a row."""

    @classmethod
    def of(cls, session: Session, side: _Side, coeffs) -> _Combination:
        """The side's slot, or a new record unless the slot's coefficients
        equal `coeffs` (dtype and bytes), as given or else once checked."""
        c = np.asarray(coeffs)
        if c.shape != (session.k,):
            raise DimensionMismatch(f"need {session.k} coefficients, got {c.shape}")
        key = None if side.slot is None else side.slot.key
        if (c.dtype, c.tobytes()) != key:
            c = _checks.numeric(c, "coefficients")
            if (c.dtype, c.tobytes()) != key:
                side.slot = cls(session, side, c)
        return side.slot

    def __init__(self, session: Session, side: _Side, coeffs: np.ndarray):
        self.coeffs, self.key = coeffs, (coeffs.dtype, coeffs.tobytes())
        self.terms = coeffs.tolist()
        if not all(map(cmath.isfinite, self.terms)):
            raise ValueError(f"coefficients must be finite, got {self.terms!r}")
        side.require_blocks()
        if side.share_rows is None:
            raise DimensionMismatch("vector shares differ in length" if side.name == "b"
                                    else "matrix shares differ in shape")
        # weak, so the side's slot holding the record makes no reference cycle
        self.session, self.side = weakref.proxy(session), weakref.proxy(side)
        self.rows, self.cols = side.share_rows, side.cols
        self.names = session.player_names
        enc = session.encoding
        self.opcode_bits, self.scalar_bits = enc.opcode_bits, enc.scalar_bits
        self.row_bits, self.col_bits = side.share_bits, side.col_bits
        self.row_req = self.opcode_bits + self.row_bits
        self.query_kind = f"lincomb_{side.name}_query"
        self.sample_kind = "lincomb_b_sample" if side.name == "b" else "lincomb_a_row_norm_sample"
        self.readers = None if session.replaying else [v.data.item for v in side.players]
        self.phi_memo: tuple | None = None   # (row, phi) of the last row asked

    def _terms(self, row=None):
        """Simulation-side: the k player views, their shares (or the shares'
        row `row`) and those squared norms."""
        _require_player_data(self.session, "the exact phi or law of a combination")
        if row is not None:
            self.check_row(row)
        views = self.side.players
        shares = [v.data if row is None else v.data[row] for v in views]
        sq = [(v.norm if row is None else v.row_norm(row)) ** 2 for v in views]
        return views, shares, sq

    def phi(self, row=None) -> float:
        """Exact oversampling ratio k sum_t |c_t|^2 ||S^(t)||^2 / ||combined||^2,
        or that of row `row` alone."""
        _, shares, sq = self._terms(row)
        c_norm2 = float(np.linalg.norm(sum(c * s for c, s in zip(self.terms, shares))) ** 2)
        if c_norm2 <= CANCELLATION_TOL**2:
            what = "combination" if row is None else f"combined row {row}"
            raise Cancellation(f"{what} cancels below tolerance")
        phi = self.session.k * sum(abs(c) ** 2 * q for c, q in zip(self.terms, sq)) / c_norm2
        if not math.isfinite(phi):
            raise ValueError("share masses overflow: phi is not finite")
        return phi

    def cached_phi(self, row=None) -> float:
        """`phi` of the last row asked, memoised; a Cancellation is never memoised."""
        if self.phi_memo is None or self.phi_memo[0] != row:
            self.phi_memo = (row, self.phi(row))
        return self.phi_memo[1]

    def law(self, row=None) -> np.ndarray:
        """Exact law of a dominator draw: the row-norm law, or with `row` the
        law of a column within that row."""
        views, _, sq = self._terms(row)
        size, empty = ((self.rows, "all combination shares are zero") if row is None
                       else (self.cols, f"dominator row {row} is identically zero"))
        return _mixture_law(size, [abs(c) ** 2 * q for c, q in zip(self.terms, sq)], views,
                            empty, row=row)

    @functools.cached_property
    def owner_law(self) -> SqVector:
        """The owner law of a dominator row draw, on the setup norms' `weights`."""
        return _law(self.weights(self.side.norms))

    def weights(self, norms) -> np.ndarray:
        """Owner weights of a dominator draw, |c_t|^2 * norms[t]^2: with the
        setup norms, those of its row-norm law, known at no cost; with the
        fanned-out norms of the shares' row i, those of a column of row i."""
        return np.abs(self.coeffs) ** 2 * np.asarray(norms) ** 2

    def dominator_norm(self, norms) -> float:
        """sqrt(k sum(weights(norms))): the dominator's norm, or its row's."""
        return math.sqrt(self.session.k * float(self.weights(norms).sum()))

    def check_row(self, i) -> None:
        _check_index(i, self.rows, "row")

    # The metered steps below take indices the dispatcher has checked or the
    # protocol itself drew, and do not check them again.

    def entry(self, i, j):
        """Fan out entry (i, j) to all k players, zero coefficients included,
        and fold the answers term by term in player order; returns (combined
        entry, squared dominator entry, bits)."""
        values, bits = self.session._exchange(
            self.names, self.query_kind, "access", self.row_req + self.col_bits,
            self.scalar_bits, lambda: [read(i, j) for read in self.readers], (i, j))
        combined = dom_sq = 0
        for c, v in zip(self.terms, values):
            term = c * v
            combined += term
            dom_sq += abs(term) ** 2
        return combined, self.session.k * dom_sq, bits

    def row_norms(self, i):
        """Fan out the norms of row i of every share; returns (norms, bits)."""
        return self.session._exchange(
            self.names, "lincomb_a_row_norm", "access", self.row_req, self.scalar_bits,
            lambda: [v.row_norm(i) for v in self.side.players], (i,))

    def draw(self, rng, row=None):
        """One dominator draw, the one `_owner_draw`; returns (row, column,
        bits).  Without `row`, a row under the record's row-norm law (column
        0); with it, a column of that row, the owner weighted by |c_t|^2 times
        the fanned-out norm of its share's row."""
        if row is None:
            _, i, bits = _owner_draw(self.session, self.side, self.sample_kind, rng,
                                     self.opcode_bits, self.row_bits, self.owner_law)
            return i, 0, bits
        norms, bits = self.row_norms(row)
        law = _law(self.weights(norms))
        _, j, cost = _owner_draw(self.session, self.side, "lincomb_a_row_sample", rng,
                                 self.row_req, self.col_bits, owner_law=law, row=row,
                                 args=(row,))
        return row, j, bits + cost

    def rejection_round(self, rng, row=None):
        """A dominator draw as in `draw`, then its entry fanned out; returns
        (the drawn index, |combined|^2 / dominator^2 or None where the
        dominator is zero, bits)."""
        i, j, bits = self.draw(rng, row)
        combined, dom_sq, cost = self.entry(i, j)
        return (i if row is None else j), (abs(combined) ** 2 / dom_sq if dom_sq > 0
                                           else None), bits + cost


def lincomb_b_phi(session: Session, mu) -> float:
    """Exact oversampling ratio phi for the combined vector (simulation-side)."""
    return _Combination.of(session, session._b, mu).cached_phi()


def lincomb_a_phi(session: Session, lambdas) -> float:
    """Exact oversampling ratio phi for the combined matrix (simulation-side)."""
    return _Combination.of(session, session._a, lambdas).cached_phi()


# request kind -> (fewest, most) arguments on each side; a vector request
# names an entry by j alone
_COMBINATION_KINDS = {
    "b": {"query": (1, 1), "dominator_query": (1, 1), "dominator_norm": (0, 0),
          "dominator_sample": (0, 0), "sq_sample_via_rejection": (0, 1),
          "norm_estimate": (2, 2)},
    "a": {"query": (2, 2), "dominator_query": (2, 2), "dominator_fro_norm": (0, 0),
          "dominator_row_norm_query": (1, 1), "dominator_row_norm_sample": (0, 0),
          "dominator_row_sample": (1, 1), "sq_row_sample_via_rejection": (1, 2)},
}


def _combination_access(session: Session, side: _Side, coeffs, request, rng):
    """Serve one access against the combination of `side`'s shares; returns
    (result, bits).  The vector side's kinds are the matrix side's on one
    column: "dominator_norm" is "dominator_fro_norm", "dominator_sample" is
    "dominator_row_norm_sample".  Every index the caller names, and the
    Generator of a sampling kind, is checked here, before anything is
    metered."""
    kind, args = _split(request, _COMBINATION_KINDS[side.name], "combination access")
    side.require_setup()
    comb = _Combination.of(session, side, coeffs)

    if kind in ("query", "dominator_query"):
        i, j = args if len(args) == 2 else (args[0], 0)
        comb.check_row(i)
        _check_index(j, comb.cols, "column")
        combined, dom_sq, bits = comb.entry(i, j)
        return (combined if kind == "query" else math.sqrt(dom_sq)), bits

    if kind in ("dominator_norm", "dominator_fro_norm"):
        return comb.dominator_norm(side.norms), 0

    if kind == "dominator_row_norm_query":
        comb.check_row(args[0])
        norms, bits = comb.row_norms(args[0])
        return comb.dominator_norm(norms), bits

    # every other kind samples
    _checks.generator(rng, kind)
    row = None   # a dominator row, under the record's one row-norm law
    if kind in ("dominator_row_sample", "sq_row_sample_via_rejection"):
        row, args = args[0], args[1:]   # a column of row i: its law is fanned out per draw
        comb.check_row(row)
    if kind.startswith("dominator_"):
        i, j, bits = comb.draw(rng, row)
        return (i if row is None else j), bits

    one_round = functools.partial(comb.rejection_round, rng, row)
    phi = functools.partial(session._annotate, "phi_b" if row is None else "phi_row",
                            functools.partial(comb.cached_phi, row))
    if kind == "norm_estimate":
        return _norm_estimate(one_round, comb.dominator_norm(side.norms), phi, *args)
    return _rejection_loop(one_round, phi, args[0] if args else DEFAULT_REJECTION_DELTA, rng)


def lincomb_b_access(session: Session, mu, request, rng: np.random.Generator | None = None):
    """Serve one access against b = sum_i mu_i b^(i); returns (result, bits).

    Request kinds: ("query", j), ("dominator_query", j), "dominator_sample",
    "dominator_norm", ("sq_sample_via_rejection"[, delta]),
    ("norm_estimate", eps, delta).  Queries fan out to all k players; samples
    go through the dominating vector with entries sqrt(k sum_i |mu_i b_j^(i)|^2).
    """
    return _combination_access(session, session._b, mu, request, rng)


def lincomb_a_access(session: Session, lambdas, request, rng: np.random.Generator | None = None):
    """Serve one access against A = sum_t lambda_t A^(t); returns (result, bits).

    Request kinds: ("query", i, j), ("dominator_query", i, j),
    "dominator_fro_norm", ("dominator_row_norm_query", i),
    "dominator_row_norm_sample", ("dominator_row_sample", i),
    ("sq_row_sample_via_rejection", i[, delta]).
    """
    return _combination_access(session, session._a, lambdas, request, rng)


# --- reporting -----------------------------------------------------------------

@dataclass(frozen=True)
class MeterReport:
    total_bits: int
    n_messages: int
    n_rounds: int
    bits_by_kind: dict
    bits_by_phase: dict
    messages_by_kind: dict
    bits_by_player: dict     # player name -> bits, both directions, in player order


def meter_report(session: Session) -> MeterReport:
    """Aggregate the transcript in one pass over its rows: totals overall, by
    message kind, by phase and by player."""
    queue = session._replay_queue
    if queue:
        left = sum(1 if isinstance(row, Annotation) else 2 for row in queue)
        raise RuntimeError(f"replay left {left} transcript entries unconsumed")
    by_kind, by_phase, by_player, count_kind = Counter(), Counter(), Counter(), Counter()
    rounds = 0
    for row in session.meter.rows:
        if isinstance(row, Annotation):
            continue
        name, kind, phase, req_bits, resp_bits = row[:5]
        bits = req_bits + resp_bits
        by_kind[kind] += bits
        by_phase[phase] += bits
        by_player[name] += bits
        count_kind[kind] += 2
        rounds += 1
    return MeterReport(
        total_bits=session.meter.total_bits,
        n_messages=2 * rounds,
        n_rounds=rounds,
        bits_by_kind=dict(sorted(by_kind.items())),
        bits_by_phase=dict(sorted(by_phase.items())),
        messages_by_kind=dict(sorted(count_kind.items())),
        bits_by_player={name: by_player[name] for name in session.player_names},
    )
