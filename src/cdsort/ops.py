"""The two context-directed sorting operations, cdr and cds.

cdr (context-directed reversal) acts at one pointer (i, i+1): it is applicable
exactly when the entries of absolute value i and i+1 carry opposite signs, and
it reverses and negates the entries strictly between the pointer's two flank
cuts.  The entry on whose flank a cut falls lands inside the reversed block
when the flank faces it, which reproduces the usual left/left and right/right
case pictures without branching.

cds (context-directed swap) acts at a pair of distinct pointers p, q: it is
applicable exactly when the four occurrences alternate p..q..p..q in position
and each pointer's two occurrences sit on same-sign entries.  It exchanges the
segment between the first two cuts with the segment between the last two, with
no sign changes.

Both operations raise NotApplicableError when their context is absent; the
try_apply_* wrappers instead return the input unchanged plus a flag, for
simulation loops where silent no-ops are wanted.  Applying a no-op silently by
default would corrupt step counting, so it is never the default.  The
strict step (cdr_step, _apply_cds) states each applicability rule;
cdr_applicable and cds_applicable ask it, while the kernels cdr_moves,
_cdr_children_bytes and _cds_pairs restate the rules for speed.

The kernels work on raw entries tuples and skip validation; the search and
sweep code runs on them.  Those that other modules run are public, so that
only this module reads the cds arc table and the state layout:

- cdr_moves (the applicable pointers) and cdr_step (cdr at one of them);
- greedy_cds_run, the greedy cds run;
- cdr_states and cds_states, which hand an exhaustive search over the cdr or
  cds move graph its states and their children kernel.

The others are prefixed with an underscore.  Up to n = 127 a cdr state is
bytes and _cdr_children_bytes, the one one-pass kernel for all of a state's
cdr children, gives them, reading each magnitude's index from one translate
table; from n = 128 on a state is the entries tuple and _cdr_children gives
them as the single step, cdr_step at each pointer cdr_moves lists.  A cds
state is the entries tuple, with _cds_children.  A public operation wraps a
kernel's result with SignedPermutation._of, which does not validate it
again.  Every trace, by contrast, takes the strict public step: _apply_move
applies one ("cdr", i) or ("cds", (i, j)) move with full checks.  CdrOrbits,
also on bytes states, holds the maps R and CN that commute with cdr, and the
canonical states and children kernels of an exhaustive sweep that folds one
state per orbit of them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .perm import Entries, SignedPermutation, as_entries, format_entries

Pointer = int                      # pointer (i, i+1) named by its low value i
CdrMove = Pointer
CdsMove = tuple[Pointer, Pointer]  # canonical order: lower pointer first


class NotApplicableError(Exception):
    """The requested operation's context is not present in the permutation."""


def _check_pointer(n: int, i: int) -> None:
    if not 1 <= i <= n - 1:
        raise ValueError(f"pointer {i} out of range 1..{n - 1}")


# ---------------------------------------------------------------------------
# kernels on raw entries tuples


def cdr_moves(entries: Sequence[int]) -> list[int]:
    """The pointers at which cdr applies, in increasing order."""
    sign = [False] * (len(entries) + 1)  # by absolute value: positive?
    for v in entries:
        sign[abs(v)] = v > 0
    return [i for i in range(1, len(entries)) if sign[i] != sign[i + 1]]


def cdr_step(entries: Entries, i: int) -> Entries:
    """Apply cdr at pointer i; assumes i is in range.

    Pointer i applies when the entries of values i and i+1 differ in sign,
    which is (lo ^ hi) < 0 on the two entries.  Then the low entry is the
    head of a positive entry exactly when the high one is the tail of a
    negative entry, so both cuts sit after their entries when the low entry
    is positive and before them otherwise: each cut is index + (lo > 0).
    """
    lo_idx = entries.index(i if i in entries else -i)
    hi_idx = entries.index(i + 1 if i + 1 in entries else -i - 1)
    lo = entries[lo_idx]
    hi = entries[hi_idx]
    if (lo ^ hi) >= 0:
        raise NotApplicableError(
            f"cdr at pointer ({i},{i + 1}) needs opposite signs on entries {lo} and {hi}"
        )
    pos = lo > 0
    g1 = lo_idx + pos
    g2 = hi_idx + pos
    if g1 > g2:
        g1, g2 = g2, g1
    # a list, not a generator: tuple() of a generator is allocated at length
    # 10 and resized, so it is freed onto another length's free list, and over
    # long runs those lists fill up and raise the peak RSS
    return entries[:g1] + tuple([-v for v in reversed(entries[g1:g2])]) + entries[g2:]


def _cdr_children(entries: Entries) -> Iterator[Entries]:
    """The result of cdr at each applicable pointer, in increasing pointer
    order, one at a time: the entries-tuple kernel of cdr_states."""
    return (cdr_step(entries, i) for i in cdr_moves(entries))


# cdr_states gives states of n <= 127 entries as bytes, one byte per entry:
# its magnitude, plus 0x80 when it is negative.  A bytes object caches its
# hash and is sliced by memcpy, where a tuple rehashes all n entries at every
# set or memo lookup and takes a reference per entry per slice.  Only this
# module reads the layout.
_NEG = bytes(b ^ 0x80 for b in range(256))              # negates each entry
_ABS = bytes(b & 0x7F for b in range(256))              # each entry's magnitude
_POS = bytes(range(0x80))                               # the indices 0..127
_VALUE = tuple(b if b < 0x80 else 0x80 - b for b in range(256))


def cdr_states(entries: Entries):
    """(root, children, decode) for an exhaustive search over the cdr move
    graph of ``entries``: the root state, the kernel giving a state's
    children in increasing pointer order, and the map from a state back to
    its entries.  Bytes states for n <= 127, the entries tuples otherwise."""
    if len(entries) < 0x80:
        return bytes([v if v > 0 else 0x80 - v for v in entries]), _cdr_children_bytes, _decode
    return entries, _cdr_children, tuple


def _decode(state: bytes) -> Entries:
    return tuple([_VALUE[b] for b in state])


# Two maps of signed permutations commute with cdr: R, the other strand,
# (-p[n-1], ..., -p[0]), and CN, which maps each entry v to
# -sign(v) * (n + 1 - |v|).  cdr at pointer i of p is cdr at pointer i of R(p)
# and at pointer n - i of CN(p), so the children of R(p) in pointer order are
# the images of p's children in the same order, and those of CN(p) are their
# images in reverse order.  With CNR = CN R and the identity they form a Klein
# four-group: the maps commute and each is its own inverse.  So every state of
# an orbit has the same move graph up to the map, and an exhaustive sweep can
# fold one state per orbit, the least of its images.  On bytes states R is
# one reversed slice and one translate, CN one translate, and CNR both.


class CdrOrbits:
    """The orbits of bytes states of n < 128 entries under a group of the
    maps above: all four, or only the identity and CNR (which keeps each
    entry's sign, and fixes the identity, where R and CN swap it with the
    reverse identity).

    maps      -- the group's maps on states, identity first;
    least     -- a state -> the least of its images, its orbit's canonical
                 state;
    children  -- a state -> the least image of each cdr child, in pointer
                 order;
    states    -- entries -> (least root, children, decode), the triple of
                 cdr_states over canonical states;

    and under all four maps, for folds whose values move with the map:

    locate    -- a state -> (least, k), where maps[k] takes the state to
                 least and least back to the state;
    edges     -- a state -> locate(child) for each cdr child, in pointer
                 order.
    """

    def __init__(self, n: int, cnr_only: bool = False):
        if not 0 < n < 0x80:
            raise ValueError(f"orbits of bytes states need 1 <= n <= 127, got {n}")
        cnr = bytes(b if b & 0x7F > n or not b & 0x7F else (n + 1 - (b & 0x7F)) | (b & 0x80)
                    for b in range(256))
        if cnr_only:
            self.maps = (_same, lambda state: state[::-1].translate(cnr))

            def least(state):
                image = state[::-1].translate(cnr)
                return image if image < state else state
        else:
            cn = cnr.translate(_NEG)
            self.maps = (_same, lambda state: state[::-1].translate(_NEG),
                         lambda state: state.translate(cn),
                         lambda state: state[::-1].translate(cnr))

            def locate(state):
                back = state[::-1]
                images = (state, back.translate(_NEG), state.translate(cn), back.translate(cnr))
                low = min(images)
                return low, images.index(low)

            def least(state):
                back = state[::-1]
                return min(state, back.translate(_NEG), state.translate(cn), back.translate(cnr))

            self.locate = locate
            self.edges = lambda state: map(locate, _cdr_children_bytes(state))
        self.least = least
        self.children = lambda state: map(least, _cdr_children_bytes(state))

    def states(self, entries: Entries):
        return self.least(cdr_states(entries)[0]), self.children, _decode


def _same(state: bytes) -> bytes:
    return state


def _cdr_children_bytes(state: bytes) -> Iterator[bytes]:
    """The result of cdr at each applicable pointer of a bytes state, in
    increasing pointer order, from one pass.

    The index of each magnitude i is at[i], one translate table built in C
    by bytes.maketrans from the state's magnitudes to its indices.  Pointer
    i applies when the entries of values i and i+1 differ in sign,
    (lo ^ hi) & 0x80, and each cut is index + (lo > 0), as in cdr_step.
    At the first applicable pointer one translate negates the reversed
    state, so a fixed point builds nothing more; each child is then three
    slices, because the block a cdr reverses and negates is a slice of that
    negated reversal.

    A generator on purpose: fold and walk keep one children iterator open per
    level of a run, and a permutation of n entries has about n/2 children of
    n entries per state, so building them eagerly would hold about n^2 / 2
    entries per level (for n = 2000 and a run of a thousand levels, some
    2 * 10^9) where a generator holds a few arrays of n.  _cdr_children, the
    kernel from n = 128 on, is a generator for the same reason.
    """
    n = len(state)
    if n < 2:
        return
    at = bytes.maketrans(state.translate(_ABS), _POS[:n])
    flipped = None
    lo_at = at[1]
    lo = state[lo_at]
    for hi_at in at[2:n + 1]:
        hi = state[hi_at]
        if (lo ^ hi) & 0x80:
            if flipped is None:
                flipped = state[::-1].translate(_NEG)
            pos = lo < 0x80
            g1 = lo_at + pos
            g2 = hi_at + pos
            if g1 > g2:
                g1, g2 = g2, g1
            yield state[:g1] + flipped[n - g2:n - g1] + state[g2:]
        lo_at = hi_at
        lo = hi


def _arcs(entries: Sequence[int]) -> list[tuple[int, int, bool]]:
    """Per pointer i (at index i-1): (key_lo, key_hi, homogeneous), its two
    occurrence keys (0-based, see perm) in increasing order, and whether both
    sit on same-sign entries.  Value i's head is on its right flank when the
    entry is positive; value i+1's tail is, when the entry is negative."""
    n = len(entries)
    if n < 2:
        return []
    at = [0] * (n + 1)
    for j, v in enumerate(entries):
        at[v if v > 0 else -v] = j
    arcs = []
    lo = entries[at[1]]
    k1 = 2 * at[1] + (lo > 0)
    for i in range(2, n + 1):
        hi_at = at[i]
        hi = entries[hi_at]
        k2 = 2 * hi_at + (hi < 0)
        homogeneous = (lo ^ hi) >= 0
        arcs.append((k1, k2, homogeneous) if k1 < k2 else (k2, k1, homogeneous))
        lo = hi
        k1 = k2 ^ 1  # value i's head is on the flank opposite its tail
    return arcs


def _cds_pairs(arcs: list) -> Iterator[CdsMove]:
    """The applicable cds pointer pairs, in canonical order, from _arcs."""
    homogeneous = [(i, k1, k2) for i, (k1, k2, homog) in enumerate(arcs, 1) if homog]
    for a, (p, k1, k2) in enumerate(homogeneous):
        for q, l1, l2 in homogeneous[a + 1:]:
            if k1 < l1 < k2 < l2 or l1 < k1 < l2 < k2:
                yield p, q


def _apply_cds(entries: Entries, p: int, q: int) -> Entries:
    """Apply cds at pointers p < q; assumes both in range and p != q."""
    arcs = _arcs(entries)
    k1, k2, homog_p = arcs[p - 1]
    l1, l2, homog_q = arcs[q - 1]
    if not (k1 < l1 < k2 < l2 or l1 < k1 < l2 < k2):  # the arcs strictly cross
        raise NotApplicableError(
            f"cds at pointers ({p},{p + 1}),({q},{q + 1}): occurrences do not alternate"
        )
    if not (homog_p and homog_q):
        raise NotApplicableError(
            f"cds at pointers ({p},{p + 1}),({q},{q + 1}): a pointer sits on opposite-sign entries"
        )
    return _swap(entries, arcs[p - 1], arcs[q - 1])


def _swap(entries: Entries, arc_p: tuple, arc_q: tuple) -> Entries:
    """cds at two crossing arcs: exchange the segment between the first two
    cuts with the segment between the last two."""
    k1, k2, _ = arc_p
    l1, l2, _ = arc_q
    if l1 < k1:
        k1, k2, l1, l2 = l1, l2, k1, k2
    # the arcs cross, so their keys alternate: k1 < l1 < k2 < l2
    g1, g2, g3, g4 = (k1 + 1) >> 1, (l1 + 1) >> 1, (k2 + 1) >> 1, (l2 + 1) >> 1
    return entries[:g1] + entries[g3:g4] + entries[g2:g3] + entries[g1:g2] + entries[g4:]


def _cds_children(entries: Entries) -> Iterator[Entries]:
    """The result of cds at each applicable pointer pair, in canonical order,
    from one _arcs pass (a generator, as the cdr kernels are)."""
    arcs = _arcs(entries)
    for p, q in _cds_pairs(arcs):
        yield _swap(entries, arcs[p - 1], arcs[q - 1])


def cds_states(entries: Entries):
    """(root, children, decode) for an exhaustive search over the cds move
    graph of ``entries``, as cdr_states gives for cdr: the entries tuples
    and the kernel giving a state's children in canonical move order."""
    return entries, _cds_children, tuple


def greedy_cds_run(entries: Entries, spend=lambda: None) -> tuple[Entries, int, list]:
    """Apply the first applicable cds (canonical order) until none remains.
    Returns (end state, step count, moves taken); calls spend() once per
    position, before looking for its move, so a budget's spend stops the run
    early."""
    taken = []
    while True:
        spend()
        arcs = _arcs(entries)
        pq = next(_cds_pairs(arcs), None)
        if pq is None:
            return entries, len(taken), taken
        entries = _swap(entries, arcs[pq[0] - 1], arcs[pq[1] - 1])
        taken.append(pq)


# ---------------------------------------------------------------------------
# public operations


def cdr_applicable(p, i: int) -> bool:
    """True when the entries of absolute value i and i+1 have opposite signs.

    >>> cdr_applicable((-2, 1, -4, 3), 2)
    True
    >>> cdr_applicable((1, 2), 1)
    False
    """
    return try_apply_cdr(p, i)[1]


def apply_cdr(p, i: int) -> SignedPermutation:
    """Reverse and negate the block delimited by pointer (i, i+1).

    >>> apply_cdr((-2, 1, -4, 3), 2).entries
    (4, -1, 2, 3)
    """
    entries = as_entries(p)
    _check_pointer(len(entries), i)
    return SignedPermutation._of(cdr_step(entries, i))


def try_apply_cdr(p, i: int) -> tuple[SignedPermutation, bool]:
    """Lenient cdr: (result, True) when applicable, (input, False) otherwise."""
    perm = SignedPermutation._of(as_entries(p))
    try:
        return apply_cdr(perm, i), True
    except NotApplicableError:
        return perm, False


def cds_applicable(p, i: int, j: int) -> bool:
    """True when the four occurrences of pointers i and j alternate and each
    pointer sits on same-sign entries.

    >>> cds_applicable((3, 6, 5, 2, 4, 8, 1, 7), 3, 6)
    True
    >>> cds_applicable((1, 2, 3, 4), 1, 3)
    False
    """
    return try_apply_cds(p, i, j)[1]


def apply_cds(p, i: int, j: int) -> SignedPermutation:
    """Exchange the two blocks delimited by the alternating pointers i and j.

    >>> apply_cds((3, 6, 5, 2, 4, 8, 1, 7), 3, 6).entries
    (3, 4, 8, 1, 5, 2, 6, 7)
    """
    entries = as_entries(p)
    _check_pointer(len(entries), i)
    _check_pointer(len(entries), j)
    if i == j:
        raise ValueError(f"cds needs two distinct pointers, got {i} twice")
    return SignedPermutation._of(_apply_cds(entries, min(i, j), max(i, j)))


def try_apply_cds(p, i: int, j: int) -> tuple[SignedPermutation, bool]:
    """Lenient cds: (result, True) when applicable, (input, False) otherwise."""
    perm = SignedPermutation._of(as_entries(p))
    try:
        return apply_cds(perm, i, j), True
    except NotApplicableError:
        return perm, False


def applicable_cdr_moves(p) -> tuple[CdrMove, ...]:
    """All pointers at which cdr applies, in increasing order."""
    return tuple(cdr_moves(as_entries(p)))


def applicable_cds_moves(p) -> tuple[CdsMove, ...]:
    """All unordered pointer pairs at which cds applies, lower pointer first,
    sorted lexicographically."""
    return tuple(_cds_pairs(_arcs(as_entries(p))))


def is_cdr_fixed_point(p) -> bool:
    return not cdr_moves(as_entries(p))


def is_cds_fixed_point(p) -> bool:
    return next(_cds_pairs(_arcs(as_entries(p))), None) is None


# ---------------------------------------------------------------------------
# traces


def _apply_move(current: SignedPermutation, kind: str, move) -> SignedPermutation:
    """The strict step every trace takes: ("cdr", i) or ("cds", (i, j))."""
    if kind == "cdr":
        return apply_cdr(current, move)
    if kind == "cds":
        return apply_cds(current, *move)
    raise ValueError(f"unknown move kind {kind!r}")


@dataclass(frozen=True)
class TraceStep:
    kind: str                       # "cdr" | "cds"
    move: CdrMove | CdsMove
    result: SignedPermutation

    def describe_move(self) -> str:
        if self.kind == "cdr":
            i = self.move
            return f"({i},{i + 1})"
        i, j = self.move
        return f"({i},{i + 1}),({j},{j + 1})"


@dataclass(frozen=True)
class SortTrace:
    """An ordered record of applied operations, replayable from the initial
    permutation."""

    initial: SignedPermutation
    steps: tuple[TraceStep, ...]

    @classmethod
    def from_moves(cls, initial, moves) -> "SortTrace":
        """Build a trace by applying ("cdr", i) / ("cds", (i, j)) moves in order."""
        current = SignedPermutation._of(as_entries(initial))
        start = current
        steps = []
        for kind, move in moves:
            current = _apply_move(current, kind, move)
            steps.append(TraceStep(kind, move, current))
        return cls(start, tuple(steps))

    @property
    def final(self) -> SignedPermutation:
        return self.steps[-1].result if self.steps else self.initial

    def moves(self) -> list[tuple[str, CdrMove | CdsMove]]:
        return [(s.kind, s.move) for s in self.steps]

    def replays(self) -> bool:
        """Re-apply every move and confirm each recorded intermediate state."""
        current = self.initial
        for step in self.steps:
            current = _apply_move(current, step.kind, step.move)
            if current != step.result:
                return False
        return True

    def __str__(self) -> str:
        lines = [f"initial {format_entries(self.initial.entries)}"]
        for k, step in enumerate(self.steps, 1):
            lines.append(
                f"step {k} {step.kind} {step.describe_move()} "
                f"{format_entries(step.result.entries)}"
            )
        lines.append(f"final {format_entries(self.final.entries)}")
        return "\n".join(lines)
