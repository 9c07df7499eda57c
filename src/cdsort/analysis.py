"""Sortability decisions, sequence machinery, and executable theorem checks.

cdr-sortability is decided in polynomial time from the overlap graph: play
greedy-safe moves to a total terminal and replay them as cdr moves (see
cdr_sortable_search for why this is exact).  Every sorting run has one
length, so the sorting lengths are the length of that witness.  The
exhaustive searches over the move graphs stay as the oracle, in two forms:
walk, an iterative pre-order walk, for the queries that need only which
fixed points are reachable and at what depth, and fold, a memoized
recursion, for the others.  Each runs on the states that ops.cdr_states or
ops.cds_states hands it, so none reads a state's layout: it encodes its
input once, at the boundary, and decodes only the fixed points it reads.
Every maximal cds run has one length, so cds_maximal_lengths reads the
greedy run.  The overlap-graph
criterion ("no unoriented component") is exposed separately: it is silent
about isolated unoriented vertices whose arc is not an adjacency -- [2, 1]
has no component at all, no applicable move, and is not the identity -- so
criterion and search can disagree.  Disagreements are reported, never
hidden.

Every Tracker comes from a caller's budget, and every search spends it one
unit per state or position: for the sortability decision and the sorting
lengths, the positions of the witness run (for the cds run lengths, of the
greedy run); for the exhaustive searches and the sweeps' folds, the
distinct states expanded; for the commutation sweep, the overlap-graph
positions built; for the games, the positions solved.  Running out raises
BudgetExceededError.  Two public wrappers turn it into a value, because a
partial answer is meaningful there: cdr_sortable_search (and its reverse)
returns (None, None) for "undecided", and enumerate_cdr_fixed_points lists
the fixed points it reached before the budget ran out, flagged incomplete.

TheoremViolationError marks outcomes the structure theory rules out (a cdr
fixed point of a sortable permutation that greedy cds cannot finish, a missing
safe vertex, a failed total extension).  Hitting one means a bug, not bad
input.
"""
from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import NamedTuple, Sequence

from . import graph as graphmod
from . import ops
from .graph import build_overlap_graph, has_unoriented_component
from .perm import (
    Entries,
    SignedPermutation,
    all_signed_permutations,
    as_entries,
    identity_entries,
    is_identity,
    reverse_identity_entries,
)

logger = logging.getLogger(__name__)

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """The configured search budget ran out before the question was decided."""


class TheoremViolationError(RuntimeError):
    """A structurally guaranteed outcome failed to materialize."""


class Tracker:
    """The package's one budget: states (or game positions) a search may
    visit, one unit each, shared by the searches of one query or sweep."""

    __slots__ = ("remaining",)

    def __init__(self, budget: int):
        self.remaining = budget

    def spend(self) -> None:
        if self.remaining <= 0:
            raise BudgetExceededError("search budget exhausted")
        self.remaining -= 1


# ---------------------------------------------------------------------------
# the memoized fold and the reachability walk over a move graph (the
# exhaustive oracles; the sweep runner shares the fold's memo tables between
# inputs)
#
# Sets of run lengths are int bitmasks: bit k set means a run of length k.


def fold(state, memo: dict, tracker: Tracker, children, leaf, combine):
    """Memoized post-order fold over the states reachable from ``state``.

    A state not in ``memo`` spends one unit of ``tracker``, then resolves to
    combine(results of its children, in the order children(state) yields
    them), or to leaf(state) when it has none.  Children are visited depth
    first, one interpreter frame per move, so a run longer than the
    interpreter's recursion limit allows ends in RecursionError.  Each state
    is looked up in ``memo`` once: a child found there is read without a
    call, so no result may be None.  A leaf that reads a fixed point
    decodes it first, so no leaf reads a state's layout and no result holds
    a state.
    """
    res = memo.get(state)
    if res is None:
        res = _fold(state, memo, tracker.spend, children, leaf, combine)
    return res


def _fold(state, memo: dict, spend, children, leaf, combine):
    """fold at a state not in ``memo``: a plain loop, not a comprehension,
    which would be a frame of its own."""
    spend()
    results = []
    for child in children(state):
        res = memo.get(child)
        if res is None:
            res = _fold(child, memo, spend, children, leaf, combine)
        results.append(res)
    res = memo[state] = combine(results) if results else leaf(state)
    return res


def walk(state, tracker: Tracker, children, leaves: dict) -> None:
    """Depth-first pre-order walk over the states reachable from ``state``.

    Each state spends one unit of ``tracker`` when the walk first enters it,
    and a state without children is recorded in ``leaves`` as
    state -> depth.  Children are entered in the order children(state) yields
    them and a state already entered is skipped, so the walk spends, and
    calls children, in the same order as fold on an empty memo.  The stack
    holds one children iterator per level instead of one interpreter frame,
    so a long run needs no recursion.  ``leaves`` belongs to the caller,
    which can still read it after BudgetExceededError.  Its users are the
    fixed-point queries: enumerate_cdr_fixed_points, on the states of
    ops.cdr_states, and cds_reachable_fixed_points, on entries tuples.

    In the cdr move graph, every run from p to a state s has length
    rank(M_p) - rank(M_s) (see parity), so the depth of a cdr fixed point
    is the length of every run reaching it.
    """
    spend = tracker.spend
    spend()
    seen = {state}
    path = [state]
    stack = [children(state)]
    fresh = True  # the top iterator has yielded nothing yet
    while stack:
        for child in stack[-1]:
            fresh = False
            if child not in seen:
                spend()
                seen.add(child)
                path.append(child)
                stack.append(children(child))
                fresh = True
                break
        else:
            if fresh:
                leaves[path[-1]] = len(path) - 1
            path.pop()
            stack.pop()
            fresh = False


def _extend_lengths(results: list) -> int:
    return reduce(or_, results) << 1


def maximal_length_mask(entries: Entries, memo: dict, tracker: Tracker,
                        states=ops.cdr_states) -> int:
    """Length mask of all maximal runs from ``entries``, folded over the
    states of ``states``: ops.cdr_states for cdr runs, ops.cds_states for cds
    runs, or in an exhaustive cdr sweep the canonical states of
    ops.CdrOrbits.states, since the mask is the same on every state of an
    orbit."""
    root, children, _ = states(entries)
    return fold(root, memo, tracker, children, lambda _: 1, _extend_lengths)


def sorting_length_mask(entries: Entries, memo: dict, tracker: Tracker,
                        states=ops.cdr_states) -> int:
    """Length mask of the cdr runs from ``entries`` to the identity, 0 when
    none reaches it: maximal_length_mask's fold with a leaf of 1 at the
    identity and 0 at every other fixed point, which it decodes to tell.  It
    visits the same states in the same order, and keeps one int per state.
    An exhaustive sweep passes the canonical states of ops.CdrOrbits.states
    under the identity and CNR alone: CNR fixes the identity, so the mask is
    the same on both states of an orbit, and a canonical fixed point is the
    identity only if it is."""
    root, children, decode = states(entries)
    return fold(root, memo, tracker, children, lambda fp: int(is_identity(decode(fp))),
                _extend_lengths)


def mask_lengths(mask: int) -> tuple[int, ...]:
    """The lengths in a length mask, in increasing order."""
    return tuple(k for k in range(mask.bit_length()) if mask >> k & 1)


# ---------------------------------------------------------------------------
# sortability


def cdr_sortable_search(p, budget: int = DEFAULT_BUDGET, *, reduce_adjacencies: bool = False):
    """Decide cdr-sortability to the identity in polynomial time.

    Returns (True, witness pointer tuple), (False, None), or (None, None) when
    the budget ran out undecided.  The budget counts the positions of the
    witness run, its start and end included.  reduce_adjacencies drops the
    witness: the answer is the same, and None is returned in its place.

    The decision is exact.  An unoriented component of the overlap graph is
    never touched by gcdr, and the identity's graph has no edge, so such a
    permutation is not sortable.  Otherwise play greedy-safe moves to a total
    terminal (every vertex isolated and unoriented) and replay them as cdr
    moves; gcdr mirrors cdr, so the replay is legal.  Its end state has no
    oriented pointer and no pair of crossing same-sign pointers, so it is a
    fixed point of both cdr and cds.  When p is cdr-sortable, the rescue
    theorem makes every cdr fixed point reachable from p cds-sortable, and a
    cds fixed point that is cds-sortable is the identity itself.  So the
    replay ends at the identity exactly when p is sortable, and then the
    replayed moves are the witness.
    """
    try:
        witness = _sorting_witness(as_entries(p), Tracker(budget))
    except BudgetExceededError:
        return None, None
    if witness is None:
        return False, None
    return True, None if reduce_adjacencies else witness


def _sorting_witness(entries: Entries, tracker: Tracker) -> tuple[int, ...] | None:
    """The witness of cdr_sortable_search, or None when entries is not
    cdr-sortable; spends once per position of the witness run."""
    tracker.spend()
    g = build_overlap_graph(entries)
    if has_unoriented_component(g):
        return None
    witness = graphmod.labels_at(g, _safe_ranks(g, tracker.spend))
    end = entries
    for i in witness:
        end = ops.cdr_step(end, i)
    return witness if is_identity(end) else None


def reverse_cdr_sortable_search(p, budget: int = DEFAULT_BUDGET, *,
                                reduce_adjacencies: bool = False):
    """As cdr_sortable_search, with the reverse identity as target.

    Reading p on the other strand, R(p) = (-p[n-1], ..., -p[0]), maps the
    identity to the reverse identity, keeps the applicable cdr pointers, and
    commutes with cdr at every pointer.  So a move sequence takes p to the
    reverse identity exactly when it takes R(p) to the identity, and the
    answer and witness for R(p) are the answer and witness for p.
    """
    other_strand = tuple(-v for v in reversed(as_entries(p)))
    return cdr_sortable_search(other_strand, budget, reduce_adjacencies=reduce_adjacencies)


def cdr_sorting_lengths(p, budget: int = DEFAULT_BUDGET) -> frozenset[int]:
    """Lengths of all cdr move sequences sorting p to the identity (empty when
    p is not cdr-sortable).

    Every run from p to the identity has length rank(M_p) (see parity), so
    the answer is the length of the cdr_sortable_search witness, and the
    budget counts the positions of the witness run as it does there."""
    witness = _sorting_witness(as_entries(p), Tracker(budget))
    return frozenset() if witness is None else frozenset((len(witness),))


def cdr_sortable_criterion(p) -> bool:
    """The overlap-graph test: no unoriented component.  Sufficient-direction
    screen only; see criterion_discrepancies for where it and the search
    disagree."""
    return not has_unoriented_component(build_overlap_graph(p))


def criterion_discrepancies(n: int, budget: int = DEFAULT_BUDGET):
    """All length-n permutations where the graph criterion and the search
    disagree, as (SignedPermutation, criterion, sortable) triples.  Each hit is
    also logged.  Exhaustive: intended for small n.  The search is the
    identity fold of sorting_length_mask, on one memo shared by the inputs."""
    out = []
    memo: dict = {}
    tracker = Tracker(budget)
    for entries in all_signed_permutations(n):
        crit = cdr_sortable_criterion(entries)
        sortable = sorting_length_mask(entries, memo, tracker) != 0
        if crit != sortable:
            logger.info("criterion/search disagreement at %s: criterion=%s search=%s",
                        entries, crit, sortable)
            out.append((SignedPermutation._of(entries), crit, sortable))
    return out


# ---------------------------------------------------------------------------
# fixed points and maximal sequences


@dataclass(frozen=True)
class FixedPointEnumeration:
    """Reachable cdr fixed points with the lengths of the runs reaching them.
    When incomplete (the budget ran out), only the fixed points the search
    had reached are listed, each with its exact run length."""

    by_fixed_point: dict
    complete: bool


def enumerate_cdr_fixed_points(p, budget: int = DEFAULT_BUDGET) -> FixedPointEnumeration:
    """The cdr fixed points reachable from p, each with the lengths of the
    runs reaching it, after one walk of at most ``budget`` states.

    Every cdr run from p to s has length rank(M_p) - rank(M_s) (see parity:
    each move lowers the rank by one), so each fixed point has one run
    length, the depth at which the walk met it.  When the budget runs out,
    the fixed points met so far are listed, each with that exact length.
    """
    return _fixed_point_enumeration(as_entries(p), Tracker(budget))


def _fixed_point_enumeration(entries: Entries, tracker: Tracker) -> FixedPointEnumeration:
    """enumerate_cdr_fixed_points on a tracker the caller may have spent."""
    root, children, decode = ops.cdr_states(entries)
    leaves: dict = {}
    try:
        walk(root, tracker, children, leaves)
        complete = True
    except BudgetExceededError:
        complete = False
    return FixedPointEnumeration(
        {SignedPermutation._of(decode(fp)): (length,) for fp, length in leaves.items()},
        complete)


def maximal_sequence_lengths(p, budget: int = DEFAULT_BUDGET) -> Counter:
    """Multiset of lengths over all maximal cdr move sequences from p, as a
    Counter mapping length -> number of sequences, in increasing length.

    The fold carries one int per state, sum of count_k << (k * W) over the
    lengths k of the maximal runs from it: a leaf is 1 and a state is the sum
    of its children shifted by W.  The counts never carry into each other
    with W = bit_length((n - 1)!).  A cdr move leaves its pointer isolated and
    unoriented for good (see greedy_safe_total_sequence), so a run plays each
    of the n - 1 pointers at most once, and no maximal run is a prefix of
    another; so a state has at most (n - 1)! maximal runs, each one the
    prefix of a different ordering of the pointers.  The fold still sums
    every path: nothing here reads a lemma about the lengths.
    """
    root, children, _ = ops.cdr_states(as_entries(p))
    width = math.factorial(len(root) - 1).bit_length()
    packed = fold(root, {}, Tracker(budget), children, lambda _: 1,
                  lambda results: sum(results) << width)
    counts = Counter()
    field = (1 << width) - 1
    length = 0
    while packed:
        if packed & field:
            counts[length] = packed & field
        packed >>= width
        length += 1
    return counts


def parity(p) -> str:
    """Parity ("even"/"odd") of the length of every maximal cdr sequence from
    p, read off one rank over GF(2).

    Let M = A + D be the adjacency matrix of p's overlap graph with the
    orientation flags on its diagonal.  cdr at pointer v is gcdr at the
    oriented vertex v, and over GF(2) gcdr is a pivot on the entry
    M[v][v] = 1: with r the row of v (the closed neighbourhood of v), it
    makes M + r r^T, which complements the edges and flags inside that
    neighbourhood and leaves row and column v zero.  Such a pivot lowers the
    rank by exactly one.  A maximal sequence ends with no oriented vertex,
    where M has a zero diagonal; a symmetric matrix with a zero diagonal has
    even rank over GF(2).  So every maximal sequence has length rank(M) minus
    an even number, and the parity is rank(M) mod 2.
    """
    return "odd" if graphmod.gf2_rank(*graphmod.overlap_masks(as_entries(p))) % 2 else "even"


# ---------------------------------------------------------------------------
# indiscriminate and greedy runs


def indiscriminate_cdr_trace(p, *, prefix_moves: Sequence[int] = (), rng=None) -> ops.SortTrace:
    """Run cdr to a fixed point, choosing the lowest applicable pointer at each
    step (or a seeded random one when rng is given).  prefix_moves are applied
    first, strictly, and count as ordinary steps."""
    trace = ops.SortTrace.from_moves(p, [("cdr", i) for i in prefix_moves])
    steps = list(trace.steps)
    current = trace.final
    while moves := ops.applicable_cdr_moves(current):
        i = moves[0] if rng is None else rng.choice(moves)
        current = ops.apply_cdr(current, i)
        steps.append(ops.TraceStep("cdr", i, current))
    return ops.SortTrace(trace.initial, tuple(steps))


def cds_sortable_greedy(p, target: str = "identity") -> tuple[bool, int]:
    """Repeatedly apply the first applicable cds until quiescent.  Returns
    (reached target, step count).  target: "identity" or "reverse_identity".
    Greedy suffices for the YES answer: when a permutation is cds-sortable,
    every maximal cds run sorts it, and all such runs have one length."""
    entries = as_entries(p)
    goal = _target_entries(target, len(entries))
    end, steps, _ = ops.greedy_cds_run(entries)
    return end == goal, steps


def greedy_cds_trace(p, target: str = "identity") -> tuple[ops.SortTrace, bool]:
    entries = as_entries(p)
    goal = _target_entries(target, len(entries))
    end, _, taken = ops.greedy_cds_run(entries)
    trace = ops.SortTrace.from_moves(entries, [("cds", pq) for pq in taken])
    return trace, end == goal


def _target_entries(target: str, n: int) -> Entries:
    if target == "identity":
        return identity_entries(n)
    if target == "reverse_identity":
        return reverse_identity_entries(n)
    raise ValueError(f"unknown target {target!r}")


# ---------------------------------------------------------------------------
# rescue and step counting


@dataclass(frozen=True)
class RescuedFixedPoint:
    permutation: SignedPermutation
    cdr_step_lengths: tuple[int, ...]  # lengths of the cdr runs reaching it
    cds_steps: int                     # greedy cds steps from it
    rescued: bool                      # greedy cds reached the identity


@dataclass(frozen=True)
class RescueReport:
    input: SignedPermutation
    fixed_points: tuple[RescuedFixedPoint, ...]
    complete: bool

    @property
    def all_rescued(self) -> bool:
        return all(fp.rescued for fp in self.fixed_points)


def verify_rescue(p, budget: int = DEFAULT_BUDGET) -> RescueReport:
    """For a cdr-sortable permutation, check that greedy cds finishes every
    reachable cdr fixed point.  The witness and the walk spend one budget:
    the report is complete when it covers the witness's positions and every
    state the walk expands."""
    perm = SignedPermutation._of(as_entries(p))
    tracker = Tracker(budget)
    if _sorting_witness(perm.entries, tracker) is None:
        raise ValueError(f"{perm} is not cdr-sortable; the rescue property does not apply")
    enum = _fixed_point_enumeration(perm.entries, tracker)
    goal = identity_entries(len(perm))
    rescued = []
    for fp, lengths in sorted(enum.by_fixed_point.items(), key=lambda kv: (kv[1], kv[0].entries)):
        end, steps, _ = ops.greedy_cds_run(fp.entries)
        rescued.append(RescuedFixedPoint(fp, lengths, steps, end == goal))
    return RescueReport(perm, tuple(rescued), enum.complete)


class StepCounts(NamedTuple):
    k: int      # cdr steps of the indiscriminate run to a fixed point
    m: int      # greedy cds steps from that fixed point to the identity
    total: int  # k + 2m, the invariant cdr sorting length


def cdr_steps(p, *, prefix_moves: Sequence[int] = (), budget: int = DEFAULT_BUDGET) -> StepCounts:
    """Count k cdr steps to a fixed point plus m cds steps to finish; k + 2m
    is checked against the invariant sorting length, the length of the
    sortability witness (all sorting runs have one length), before
    returning."""
    entries = as_entries(p)
    witness = _sorting_witness(entries, Tracker(budget))
    if witness is None:
        raise ValueError(f"{SignedPermutation(entries)} is not cdr-sortable")
    sorting_length = len(witness)
    trace = indiscriminate_cdr_trace(entries, prefix_moves=prefix_moves)
    k = len(trace.steps)
    end, m, _ = ops.greedy_cds_run(trace.final.entries)
    if not is_identity(end):
        raise TheoremViolationError(
            f"greedy cds failed to rescue fixed point {SignedPermutation(trace.final.entries)}"
        )
    total = k + 2 * m
    if total != sorting_length:
        raise TheoremViolationError(
            f"k + 2m = {total} but every sorting run has length {sorting_length}"
        )
    return StepCounts(k, m, total)


# ---------------------------------------------------------------------------
# oriented sequences on the overlap graph


def classify_sequence(p, seq: Sequence[int]) -> str:
    """Classify a pointer sequence against p's overlap graph: "invalid" (some
    pointer not oriented at its turn), else "total" / "maximal" / "oriented"
    by the end state."""
    g = build_overlap_graph(p)
    ranks = graphmod.ranks_of(g, seq)
    return _end_kind(None if ranks is None else graphmod.play_ranks(*graphmod.masks(g), ranks))


def _end_kind(end) -> str:
    """classify_sequence's answer for the end position, None when invalid."""
    if end is None:
        return "invalid"
    rows, ori = end
    if ori:
        return "oriented"
    return "maximal" if any(rows) else "total"


def greedy_safe_total_sequence(p) -> tuple[int, ...]:
    """A total sequence of oriented vertices, built by always playing the
    lowest vertex whose gcdr leaves no unoriented component.  Requires the
    overlap graph of p to have no unoriented component."""
    g = build_overlap_graph(p)
    if has_unoriented_component(g):
        raise ValueError("overlap graph has an unoriented component; no total sequence exists")
    return graphmod.labels_at(g, _safe_ranks(g, lambda: None))


def _safe_ranks(g: graphmod.OrientedGraph, spend) -> list[int]:
    """Ranks of the greedy-safe moves from g, which has no unoriented
    component, to a total terminal, played in place on one copy of g's rows;
    calls spend() once per move."""
    rows, ori = graphmod.masks(g)
    rows = list(rows)
    ranks = []
    while ori:
        step = graphmod.safe_move(rows, ori)
        if step is None:
            raise TheoremViolationError("no safe oriented vertex found")
        i, ori = step
        ranks.append(i)
        spend()
    if any(rows):  # pragma: no cover - safety net
        raise TheoremViolationError("safe play ended in a non-total terminal")
    return ranks


def extend_to_total(p, maxseq: Sequence[int], budget: int = DEFAULT_BUDGET) -> tuple[int, ...]:
    """Extend a maximal-but-not-total pointer sequence to a total one by
    inserting one even-length run of vertices before a suffix.  Every total
    sequence has length rank(M) (see parity), so the run has rank(M) minus
    len(maxseq) vertices.  Searches insertion points left-first, vertex
    choices in increasing order; the first extension found is returned.  A
    total input is returned unchanged.  A graph with an unoriented component
    has no total sequence, and raises ValueError as greedy_safe_total_sequence
    does."""
    maxseq = tuple(maxseq)
    g0 = build_overlap_graph(p)
    ranks = graphmod.ranks_of(g0, maxseq)
    prefixes = None if ranks is None else _prefixes(*graphmod.masks(g0), ranks)
    kind = _end_kind(None if prefixes is None else prefixes[-1])
    if kind == "total":
        return maxseq
    if kind != "maximal":
        raise ValueError(f"sequence {maxseq} is {kind}, not maximal, for {SignedPermutation(as_entries(p))}")
    if not maxseq:
        # maximal-and-empty means no oriented vertex at all, yet edges remain:
        # an unoriented component, outside this operation's remit
        raise ValueError("graph has no oriented vertex; nothing can extend the empty sequence")
    if has_unoriented_component(g0):
        raise ValueError("overlap graph has an unoriented component; no total sequence exists")
    tracker = Tracker(budget)
    depth = graphmod.gf2_rank(*prefixes[0]) - len(maxseq)
    for cut_at in range(len(maxseq)):
        inserted = _insertion_dfs(*prefixes[cut_at], depth, ranks[cut_at:], tracker)
        if inserted is not None:
            return maxseq[:cut_at] + graphmod.labels_at(g0, inserted) + maxseq[cut_at:]
    raise TheoremViolationError(
        f"no even insertion extends {maxseq} to a total sequence"
    )


def _prefixes(rows: tuple, ori: int, ranks: tuple) -> list | None:
    """The position before each move of ``ranks`` and after the last; None
    when a rank is not oriented at its turn."""
    prefixes = [(rows, ori)]
    for i in ranks:
        if not ori >> i & 1:
            return None
        rows, ori = graphmod.move(rows, ori, i)
        prefixes.append((rows, ori))
    return prefixes


def _insertion_dfs(rows: tuple, ori: int, depth: int, suffix: tuple, tracker: Tracker):
    """Ranks of depth oriented vertices after which the suffix ranks replay to
    a total terminal, first in increasing order; None when there are none.

    Depth first in one loop over an explicit stack, as games._minimax: an
    insertion may be as long as the graph has vertices.  A position above
    the insertion's depth pushes a frame [rows, ori, mask of the moves not
    yet tried, rank of the child last entered]; one at that depth replays
    the suffix, and the frames' last ranks are the insertion.  Each child
    entered spends one unit of tracker, lowest rank first."""
    spend = tracker.spend
    frames: list[list] = []
    while True:  # (rows, ori) was just entered, len(frames) moves deep
        if len(frames) == depth:
            end = graphmod.play_ranks(rows, ori, suffix)
            if end is not None and not end[1] and not any(end[0]):
                return tuple(f[3] for f in frames)
        else:
            frames.append([rows, ori, ori, None])
        while frames and not frames[-1][2]:
            frames.pop()
        if not frames:
            return None
        frame = frames[-1]
        untried = frame[2]
        low = untried & -untried
        frame[2] = untried ^ low
        frame[3] = i = low.bit_length() - 1
        spend()
        rows, ori = graphmod.move(frame[0], frame[1], i)


# ---------------------------------------------------------------------------
# cds runs


def cds_maximal_lengths(p, budget: int = DEFAULT_BUDGET) -> frozenset[int]:
    """Lengths of all maximal cds move sequences from p: every maximal cds run
    has one length (a known result the paper cites), so the greedy run's.  The
    budget counts the greedy run's positions, as in cdr_sorting_lengths, and
    the run stops at the first position past it."""
    _, steps, _ = ops.greedy_cds_run(as_entries(p), Tracker(budget).spend)
    return frozenset((steps,))


def cds_reachable_fixed_points(p, budget: int = DEFAULT_BUDGET) -> frozenset[SignedPermutation]:
    """All cds fixed points reachable from p by any cds move sequence."""
    root, children, decode = ops.cds_states(as_entries(p))
    leaves: dict = {}
    walk(root, Tracker(budget), children, leaves)
    return frozenset(SignedPermutation._of(decode(fp)) for fp in leaves)
