"""Independent brute-force oracles, and the inputs the test modules share.

The oracles deliberately avoid the memoized dynamic programming used by the
package: they enumerate entire move trees path by path, so they stay
trustworthy as a cross-check even if the production search logic changes.
The cds move tree and the overlap graph are read off perm.pointer_occurrences
pointer by pointer, not from the ops kernels they check.  The cdr move tree
reads ops.cdr_moves and ops.cdr_step, which test_kernels.check_kernels
ties to the same occurrence oracle.  Only usable at toy sizes.

The fold section keeps the memoized fold's answers to the queries now served
by analysis.walk, budget behaviour included, as the reference for the walk.
It stays the fold as before: over entries tuples with ops._cdr_children, not
over the states of ops.cdr_states, because its incomplete listing reads the
memo's keys as entries.  ops._cdr_children is the single step, cdr_step
at each pointer cdr_moves lists, so this reference shares no code with the
bytes kernel the walk runs below n = 128.
The last five sections keep earlier versions verbatim as the reference for
their rewrites:

- minimax_closure: the game-tree search;
- to_text_edge_list, graph_from_text_sets, to_dot_edge_list: the text and
  DOT forms;
- is_oriented_sequence_by_gcdr: the oriented-sequence check;
- extend_to_total_by_sizes: the total extension, with the recursive
  insertion search it ran on;
- fold_by_comprehension: the fold;
- fixed_point_masks: the fixed-point tables on analysis.fold, keyed by
  entries tuples, the reference for verify's fixed-point fold;
- maximal_sequence_lengths_by_dicts: the run counts as one dict per state
  (it folds over ops._cdr_children, the single step, so below n = 128 it
  checks the bytes kernel as well as the count packing);
- all_signed_permutations_by_masks: the exhaustive input generator;
- format_entries_by_generator: the text form of a permutation;
- graph_lines_by_bits, to_dot_by_bits: the row writer behind to_text and
  to_dot, one edge line per bits step;
- safe_move_by_copies, safe_ranks_by_copies: greedy-safe play with a copy
  of the rows per candidate move;
- plain_sweep_records and the _check_* functions: the property checks of
  the exhaustive sweeps on the plain fold, one state per signed permutation,
  with each record's detail built per input (the cds check folds
  maximal_length_mask on ops.cds_states, which replaced cds_length_mask).
"""
from __future__ import annotations

import functools
import itertools
from collections import Counter
from types import SimpleNamespace
from typing import Iterator, Sequence

from hypothesis import strategies as st

from cdsort import analysis, ops
from cdsort import graph as graphmod
from cdsort.analysis import (
    TheoremViolationError,
    Tracker,
    classify_sequence,
    fold,
    mask_lengths,
)
from cdsort.graph import (
    OrientedGraph,
    _gcdr_masks,
    _has_unoriented_component,
    _label,
    _parse_label,
    bits,
    build_overlap_graph,
    gcdr,
    gf2_rank,
    overlap_masks,
)
from cdsort.ops import cdr_moves, cdr_step
from cdsort.perm import (
    Entries,
    SignedPermutation,
    all_signed_permutations,
    as_entries,
    format_entries,
    identity_entries,
    pointer_occurrences,
)
from cdsort.verify import CheckRecord


# ---------------------------------------------------------------------------
# shared inputs


@st.composite
def signed_perms(draw, min_n, max_n):
    """A signed permutation of a length drawn from min_n..max_n."""
    n = draw(st.integers(min_n, max_n))
    values = draw(st.permutations(list(range(1, n + 1))))
    signs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return tuple(v if s else -v for v, s in zip(values, signs))


# [1, -2, 3, -4, ..., -2000]: every pointer oriented, cdr runs of length ~n
DEEP = tuple(v if v % 2 else -v for v in range(1, 2001))

# labels far apart and out of step with their ranks, so a mix-up of label and
# rank, or a mask sized by label, shows
LABELS = (2, 3, 7, 40, 1_000_000_000)


def all_oriented_graphs(k):
    """Every oriented graph on the first k of LABELS, as frozenset triples."""
    verts = LABELS[:k]
    pairs = list(itertools.combinations(verts, 2))
    for edge_mask in range(1 << len(pairs)):
        edges = frozenset(p for b, p in enumerate(pairs) if edge_mask >> b & 1)
        for ori_mask in range(1 << k):
            oriented = frozenset(v for b, v in enumerate(verts) if ori_mask >> b & 1)
            yield frozenset(verts), edges, oriented


# ---------------------------------------------------------------------------
# cdr and cds read off perm.pointer_occurrences, pointer by pointer, with no
# ops kernel: the reference for the kernels and for the move-tree oracles


def occurrence_pairs(entries):
    """Per pointer i (at index i-1), its two occurrences in key order."""
    pairs = [[] for _ in range(len(entries) - 1)]
    for o in pointer_occurrences(entries):
        pairs[o.pointer - 1].append(o)
    return pairs


def crossing(a, b):
    """Do the occurrence pairs a and b alternate in key order?"""
    (a1, a2), (b1, b2) = (a[0].key, a[1].key), (b[0].key, b[1].key)
    return a1 < b1 < a2 < b2 or b1 < a1 < b2 < a2


def cdr_moves_by_occurrences(entries):
    """(pointer, child) for each pointer whose occurrences sit on
    opposite-sign entries: the child reverses and negates the entries between
    the two cuts."""
    out = []
    for i, (o1, o2) in enumerate(occurrence_pairs(entries), 1):
        if o1.entry_sign != o2.entry_sign:
            g1, g2 = o1.cut, o2.cut
            block = tuple(-v for v in reversed(entries[g1:g2]))
            out.append((i, entries[:g1] + block + entries[g2:]))
    return out


def cds_moves_by_occurrences(entries):
    """((p, q), child) for each pair p < q whose occurrences alternate, each
    pointer on same-sign entries: the child exchanges the entries between the
    first two cuts with those between the last two."""
    pairs = occurrence_pairs(entries)
    out = []
    for p, q in itertools.combinations(range(1, len(pairs) + 1), 2):
        a, b = pairs[p - 1], pairs[q - 1]
        if a[0].entry_sign == a[1].entry_sign and b[0].entry_sign == b[1].entry_sign \
                and crossing(a, b):
            g1, g2, g3, g4 = sorted((o.cut for o in a + b))
            child = entries[:g1] + entries[g3:g4] + entries[g2:g3] + entries[g1:g2] + entries[g4:]
            out.append(((p, q), child))
    return out


def all_maximal_cdr_runs(entries):
    """Every maximal cdr move sequence, as (moves tuple, final entries)."""
    moves = cdr_moves(entries)
    if not moves:
        yield (), entries
        return
    for i in moves:
        for rest, final in all_maximal_cdr_runs(cdr_step(entries, i)):
            yield (i,) + rest, final


def all_maximal_cds_runs(entries):
    moves = cds_moves_by_occurrences(entries)
    if not moves:
        yield (), entries
        return
    for pq, child in moves:
        for rest, final in all_maximal_cds_runs(child):
            yield (pq,) + rest, final


def cdr_children(entries):
    """The states one cdr move away, in increasing pointer order."""
    return [cdr_step(entries, i) for i in cdr_moves(entries)]


def cds_children(entries):
    """The states one cds move away, in canonical move order."""
    return [child for _, child in cds_moves_by_occurrences(entries)]


def reachable_states(entries, children):
    """Every state reachable from entries, entries included, breadth first."""
    seen = {entries}
    frontier = [entries]
    while frontier:
        nxt = []
        for state in frontier:
            for child in children(state):
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
        frontier = nxt
    return seen


def parity_by_playout(entries):
    """Parity ("even"/"odd") of the length of the maximal cdr run that always
    takes the lowest applicable pointer."""
    length = 0
    while moves := cdr_moves(entries):
        entries = cdr_step(entries, moves[0])
        length += 1
    return "odd" if length % 2 else "even"


def cdr_sorting_run_lengths(entries):
    """Set of lengths of all cdr runs that end at the identity."""
    target = tuple(range(1, len(entries) + 1))
    return {len(run) for run, final in all_maximal_cdr_runs(entries) if final == target}


def cdr_run_lengths_to(entries, target):
    return {len(run) for run, final in all_maximal_cdr_runs(entries) if final == target}


# ---------------------------------------------------------------------------
# the fixed-point tables on analysis.fold, as the plain rescue and steps
# sweeps folded them before every sweep ran verify's fixed-point fold: the
# reference for that fold, and the tables the plain checks below read


def _extend_fixed_points(results: list) -> dict:
    acc: dict = {}
    for res in results:
        for fp, mask in res.items():
            acc[fp] = acc.get(fp, 0) | mask << 1
    return acc


def fixed_point_masks(entries: Entries, memo: dict, tracker: Tracker) -> dict:
    """fixed point -> length mask of all cdr runs from ``entries`` ending
    there.  Every maximal run ends at some fixed point, so this covers every
    run without enumerating paths.  The fold runs on the states of
    ops.cdr_states, so ``memo`` is keyed by them, and a fixed point is
    decoded once, at its leaf: the result is keyed by entries tuples."""
    root, children, decode = ops.cdr_states(entries)
    return fold(root, memo, tracker, children, lambda fp: {decode(fp): 1},
                _extend_fixed_points)


# ---------------------------------------------------------------------------
# the queries that moved from analysis.fold onto analysis.walk, answered by
# the fold as before the move: the reference the walk is checked against,
# spending the same budget over the same states


def fold_fixed_points(entries, budget=analysis.DEFAULT_BUDGET):
    """enumerate_cdr_fixed_points by the fold over entries tuples.  When the
    budget runs out, it lists the fixed points resolved in the fold's memo (a
    memo entry s is one exactly when s is among its own fixed points), each
    at length rank(M_p) - rank(M_s)."""
    memo = {}
    try:
        fps = analysis.fold(entries, memo, Tracker(budget), ops._cdr_children,
                            lambda fp: {fp: 1}, _extend_fixed_points)
    except analysis.BudgetExceededError:
        rank = gf2_rank(*overlap_masks(entries))
        return analysis.FixedPointEnumeration(
            {SignedPermutation(s): (rank - gf2_rank(*overlap_masks(s)),)
             for s, res in memo.items() if s in res},
            complete=False,
        )
    return analysis.FixedPointEnumeration(
        {SignedPermutation(fp): analysis.mask_lengths(mask) for fp, mask in fps.items()},
        complete=True,
    )


def fold_cds_fixed_points(entries, budget=analysis.DEFAULT_BUDGET):
    """cds_reachable_fixed_points by the fold."""
    return frozenset(
        SignedPermutation(e)
        for e in analysis.fold(entries, {}, analysis.Tracker(budget), ops._cds_children,
                               lambda fp: frozenset((fp,)),
                               lambda results: frozenset().union(*results))
    )


# ---------------------------------------------------------------------------
# overlap graphs as plain frozensets: (vertices, edges with u < v, oriented),
# with the pairwise and set-based algorithms, as the reference for the
# graph module's bitmask kernels.


def graph_sets(g):
    """The (vertices, edges, oriented) frozenset triple of an OrientedGraph."""
    return g.vertices, g.edges, g.oriented


def overlap_graph_sets(entries):
    """Overlap graph by the pairwise arc-crossing test."""
    pairs = occurrence_pairs(entries)
    m = len(pairs)
    edges = frozenset((p, q) for p, q in itertools.combinations(range(1, m + 1), 2)
                      if crossing(pairs[p - 1], pairs[q - 1]))
    oriented = frozenset(i for i, (o1, o2) in enumerate(pairs, 1)
                         if o1.entry_sign != o2.entry_sign)
    return frozenset(range(1, m + 1)), edges, oriented


def neighbors_sets(graph, v):
    _, edges, _ = graph
    return frozenset(u if w == v else w for u, w in edges if v in (u, w))


def local_complement_sets(graph, s):
    vertices, edges, oriented = graph
    s = frozenset(s) & vertices
    inside = sorted(s)
    new_edges = {e for e in edges if not (e[0] in s and e[1] in s)}
    for a in range(len(inside)):
        for b in range(a + 1, len(inside)):
            e = (inside[a], inside[b])
            if e not in edges:
                new_edges.add(e)
    return vertices, frozenset(new_edges), oriented ^ s


def gcdr_sets(graph, v):
    assert v in graph[2], "gcdr needs an oriented vertex"
    return local_complement_sets(graph, neighbors_sets(graph, v) | {v})


def component_report_sets(graph):
    """(components as (vertex frozenset, oriented) sorted by least vertex,
    isolated vertices as (vertex, oriented))."""
    vertices, edges, oriented = graph
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = set()
    components = []
    isolated = []
    for v in sorted(vertices):
        if v in seen:
            continue
        if not adj[v]:
            isolated.append((v, v in oriented))
            continue
        comp = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        components.append((frozenset(comp), bool(comp & oriented)))
    components.sort(key=lambda c: min(c[0]))
    return tuple(components), tuple(isolated)


def has_unoriented_component_sets(graph):
    return any(not ori for _, ori in component_report_sets(graph)[0])


def greedy_safe_total_sequence_sets(entries):
    """Lowest oriented vertex whose gcdr leaves no unoriented component, each
    step checked on the whole graph; None when the graph starts with an
    unoriented component."""
    g = overlap_graph_sets(entries)
    if has_unoriented_component_sets(g):
        return None
    seq = []
    while g[2]:
        for v in sorted(g[2]):
            nxt = gcdr_sets(g, v)
            if not has_unoriented_component_sets(nxt):
                seq.append(v)
                g = nxt
                break
        else:
            raise AssertionError("no safe oriented vertex")
    return tuple(seq)


def playout_length_sets(graph):
    """Length of the playout that always takes the lowest oriented vertex."""
    length = 0
    while graph[2]:
        graph = gcdr_sets(graph, min(graph[2]))
        length += 1
    return length


# ---------------------------------------------------------------------------
# the game-tree search and the text form as they were before their flat
# rewrites, kept verbatim: minimax with an enter closure and a bits iterator
# per frame, to_text through the edge list, graph_from_text through sets


def minimax_closure(rows: tuple, ori: int, rule: str, memo: dict, tracker: Tracker) -> bool:
    """Does the player to move win?  Depth-first over positions in increasing
    move order, stopping at the first winning move, with an explicit stack:
    a game lasts up to one move per vertex."""
    stack = []  # (position key, iterator over the moves not yet tried)

    def enter(rows: tuple, ori: int) -> bool | None:
        """The known outcome of a position, or None after pushing its frame."""
        key = (rows, ori, rule)
        hit = memo.get(key)
        if hit is not None:
            return hit
        tracker.spend()
        if not ori:
            memo[key] = res = rule == "misere"
            return res
        stack.append((key, graphmod.bits(ori)))
        return None

    res = enter(rows, ori)
    while stack:
        key, moves = stack[-1]
        # a move into a lost position wins, so the first one ends the search
        i = None if res is False else next(moves, None)
        if i is None:
            memo[key] = res = res is False
            stack.pop()
            continue
        res = enter(*graphmod.move(key[0], key[1], i))
    return res


def to_text_edge_list(g: OrientedGraph) -> str:
    """Line-oriented form: one vertex line then one edge line per element,
    deterministically ordered.  Parsed back by graph_from_text."""
    ori = g._ori
    name = {v: _label(v) for v in g._labels}
    lines = [
        f"vertex {name[v]} {'oriented' if ori >> i & 1 else 'unoriented'}"
        for i, v in enumerate(g._labels)
    ]
    lines += [f"edge {name[u]} {name[v]}" for u, v in g._edge_list()]
    return "\n".join(lines) + ("\n" if lines else "")


def graph_from_text_sets(text: str) -> OrientedGraph:
    """Parse the to_text form.  Blank lines and '#' comments are ignored."""
    vertices = set()
    edges = set()
    oriented = set()
    parsed: dict[str, int] = {}  # each distinct label is parsed once

    def label(token: str) -> int:
        v = parsed.get(token)
        if v is None:
            v = parsed[token] = _parse_label(token)
        return v

    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex" and len(parts) == 3 and parts[2] in ("oriented", "unoriented"):
            v = label(parts[1])
            vertices.add(v)
            if parts[2] == "oriented":
                oriented.add(v)
        elif parts[0] == "edge" and len(parts) == 3:
            edges.add((label(parts[1]), label(parts[2])))
        else:
            raise ValueError(f"line {ln}: cannot parse graph line {raw!r}")
    return OrientedGraph(frozenset(vertices), frozenset(edges), frozenset(oriented))


# ---------------------------------------------------------------------------
# DOT through the edge list, the oriented-sequence check through one graph
# per step, and the total extension over every even insertion size, kept
# verbatim as they were before the public layer dropped its second paths


def to_dot_edge_list(g: OrientedGraph) -> str:
    """Graphviz form; oriented vertices get style=filled."""
    lines = ["graph overlap {", "  node [shape=circle];"]
    ori = g._ori
    for i, v in enumerate(g._labels):
        attr = " [style=filled]" if ori >> i & 1 else ""
        lines.append(f'  "{_label(v)}"{attr};')
    for u, v in g._edge_list():
        lines.append(f'  "{_label(u)}" -- "{_label(v)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def is_oriented_sequence_by_gcdr(g: OrientedGraph, seq) -> bool:
    """True when each vertex of seq is oriented at its turn."""
    for v in seq:
        if not g.is_oriented(v):
            return False
        g = gcdr(g, v)
    return True


def extend_to_total_by_sizes(p, maxseq, budget=analysis.DEFAULT_BUDGET):
    """Extend a maximal-but-not-total pointer sequence to a total one by
    inserting one even-length run of vertices before a suffix.  Searches
    insertion sizes small-first, insertion points left-first, vertex choices
    in increasing order; the first extension found is returned.  A total input
    is returned unchanged."""
    maxseq = tuple(maxseq)
    kind = classify_sequence(p, maxseq)
    if kind == "total":
        return maxseq
    if kind != "maximal":
        raise ValueError(f"sequence {maxseq} is {kind}, not maximal, for {SignedPermutation(as_entries(p))}")
    if not maxseq:
        # maximal-and-empty means no oriented vertex at all, yet edges remain:
        # an unoriented component, outside this operation's remit
        raise ValueError("graph has no oriented vertex; nothing can extend the empty sequence")
    g0 = build_overlap_graph(p)
    ranks = graphmod.ranks_of(g0, maxseq)
    position = graphmod.masks(g0)
    prefixes = [position]
    for i in ranks:
        position = graphmod.move(*position, i)
        prefixes.append(position)
    tracker = Tracker(budget)
    n_vertices = len(g0.vertices)
    m = len(maxseq)
    for k in range(1, (n_vertices - m) // 2 + 1):
        for cut_at in range(m):
            inserted = _insertion_dfs(*prefixes[cut_at], 2 * k, ranks[cut_at:], tracker)
            if inserted is not None:
                return maxseq[:cut_at] + graphmod.labels_at(g0, inserted) + maxseq[cut_at:]
    raise TheoremViolationError(
        f"no even insertion extends {maxseq} to a total sequence"
    )


def _insertion_dfs(rows: tuple, ori: int, depth: int, suffix: tuple, tracker: Tracker):
    """Ranks of depth oriented vertices after which the suffix ranks replay to
    a total terminal, first in increasing order; None when there are none."""
    if depth == 0:
        end = graphmod.play_ranks(rows, ori, suffix)
        return () if end is not None and not end[1] and not any(end[0]) else None
    for i in graphmod.bits(ori):
        tracker.spend()
        rest = _insertion_dfs(*graphmod.move(rows, ori, i), depth - 1, suffix, tracker)
        if rest is not None:
            return (i,) + rest
    return None


# ---------------------------------------------------------------------------
# the exhaustive engine and the sweep inputs and records as they were before
# their per-state and per-record costs were cut, kept verbatim: the fold with
# a comprehension per state and a memo lookup on each side of the call, the
# run counts as one dict per state, the input generator with a sign mask per
# input, and the text form through a generator


def fold_by_comprehension(entries: Entries, memo: dict, tracker: Tracker, children, leaf,
                          combine):
    """Memoized post-order fold over the states reachable from ``entries``."""
    res = memo.get(entries)
    if res is None:
        tracker.spend()
        results = [memo.get(child) or fold_by_comprehension(child, memo, tracker, children,
                                                            leaf, combine)
                   for child in children(entries)]
        res = memo[entries] = combine(results) if results else leaf(entries)
    return res


def _extend_count_dicts(results: list) -> dict:
    acc: dict = {}
    for res in results:
        for length, count in res.items():
            acc[length + 1] = acc.get(length + 1, 0) + count
    return acc


def maximal_sequence_lengths_by_dicts(p, budget: int = analysis.DEFAULT_BUDGET) -> Counter:
    """Multiset of lengths over all maximal cdr move sequences from p, as a
    Counter mapping length -> number of sequences."""
    return Counter(fold_by_comprehension(as_entries(p), {}, Tracker(budget),
                                         ops._cdr_children, lambda _: {0: 1},
                                         _extend_count_dicts))


def all_signed_permutations_by_masks(n: int) -> Iterator[Entries]:
    """All 2^n * n! signed permutations of length n, in a fixed order."""
    for perm in itertools.permutations(range(1, n + 1)):
        for mask in range(1 << n):
            yield tuple(-v if (mask >> k) & 1 else v for k, v in enumerate(perm))


def format_entries_by_generator(entries: Sequence[int]) -> str:
    """Bracketed, comma-separated text form; inverse of parse_entries."""
    return "[" + ", ".join(str(v) for v in entries) + "]"


# ---------------------------------------------------------------------------
# the graph rows written one edge line per bits step, and greedy-safe play
# with a copy of the rows per candidate move, kept verbatim as they were
# before rows were written in C and moves played in place


def graph_lines_by_bits(g: OrientedGraph, name: str, vertex: tuple[str, str], edge: str,
                        end: str = "") -> list[str]:
    """The vertex lines of g, then one line per edge (u, v) with u < v, both
    in increasing label order.  Each label is formatted once, into name.  A
    vertex line is vertex[1] (oriented) or vertex[0] (unoriented) with its
    name; an edge line is edge with u's name, then v's name and end, so a
    row's edge lines share one prefix."""
    ori = g._ori
    names = [name.format(_label(v)) for v in g._labels]
    lines = [vertex[ori >> i & 1].format(nm) for i, nm in enumerate(names)]
    for i, row in enumerate(g._rows):
        above = row >> (i + 1) << (i + 1)
        if above:
            prefix = edge.format(names[i])
            lines += [prefix + names[j] + end for j in bits(above)]
    return lines


def to_dot_by_bits(g: OrientedGraph) -> str:
    """Graphviz form; oriented vertices get style=filled."""
    lines = graph_lines_by_bits(g, '"{}"', ("  {};", "  {} [style=filled];"), "  {} -- ", ";")
    return "\n".join(["graph overlap {", "  node [shape=circle];", *lines, "}\n"])


def safe_move_by_copies(rows: tuple, ori: int) -> tuple[int, tuple[int, ...], int] | None:
    """The lowest oriented rank whose gcdr leaves no unoriented component,
    with the position it leads to; None when there is none.  Assumes the
    position has no unoriented component."""
    for i in bits(ori):
        moved = list(rows)
        moved_ori = _gcdr_masks(moved, ori, i)
        # gcdr only rewires the component of i, so with no unoriented
        # component before the move only the old neighbours need a look
        if not _has_unoriented_component(moved, moved_ori, rows[i]):
            return i, tuple(moved), moved_ori
    return None


def safe_ranks_by_copies(g: OrientedGraph, spend) -> list[int]:
    """Ranks of the greedy-safe moves from g, which has no unoriented
    component, to a total terminal; calls spend() once per move."""
    rows, ori = graphmod.masks(g)
    ranks = []
    while ori:
        step = safe_move_by_copies(rows, ori)
        if step is None:
            raise TheoremViolationError("no safe oriented vertex found")
        i, rows, ori = step
        ranks.append(i)
        spend()
    if any(rows):  # pragma: no cover - safety net
        raise TheoremViolationError("safe play ended in a non-total terminal")
    return ranks


# ---------------------------------------------------------------------------
# the plain sweep checks, kept verbatim as they were before the exhaustive
# sweeps folded one state per orbit and built each detail once per mask: the
# reference for verify's canonical sweeps.  plain_sweep_records runs them
# over every input of length n on one plain fold memo, as the sweep did.


def plain_sweep_records(prop: str, n: int, budget: int = analysis.DEFAULT_BUDGET) -> list:
    """The exhaustive sweep's records of a plain check, in input order."""
    check = {"parity": _check_parity, "same-length": _check_same_length,
             "rescue": _check_rescue, "steps": _check_steps,
             "cds-same-length": _check_cds_same_length}[prop]
    ctx = _SweepContext(memo={}, tracker=Tracker(budget),
                        greedy_cds=functools.cache(ops.greedy_cds_run))
    return [CheckRecord(prop, format_entries(entries), *check(entries, ctx))
            for entries in all_signed_permutations(n)]


# the one memo, budget and greedy-cds cache the plain checks read
_SweepContext = SimpleNamespace


def _check_parity(entries: Entries, ctx: _SweepContext) -> tuple[bool, str]:
    lengths = mask_lengths(analysis.maximal_length_mask(entries, ctx.memo, ctx.tracker))
    ok = len({length % 2 for length in lengths}) == 1
    return ok, "lengths=" + ",".join(map(str, lengths))


def _check_same_length(entries: Entries, ctx: _SweepContext) -> tuple[bool, str]:
    mask = analysis.sorting_length_mask(entries, ctx.memo, ctx.tracker)
    if not mask:
        return True, "not-cdr-sortable"
    lengths = mask_lengths(mask)
    return len(lengths) == 1, "sorting-lengths=" + ",".join(map(str, lengths))


def _check_rescue(entries: Entries, ctx: _SweepContext) -> tuple[bool, str]:
    target = identity_entries(len(entries))
    fps = fixed_point_masks(entries, ctx.memo, ctx.tracker)
    if target not in fps:
        return True, "not-cdr-sortable"
    bad = 0
    for fp in fps:
        end, _, _ = ctx.greedy_cds(fp)
        if end != target or any(v < 0 for v in fp):
            bad += 1
    return bad == 0, f"fixed-points={len(fps)} unrescued={bad}"


def _check_steps(entries: Entries, ctx: _SweepContext) -> tuple[bool, str]:
    target = identity_entries(len(entries))
    fps = fixed_point_masks(entries, ctx.memo, ctx.tracker)
    if target not in fps:
        return True, "not-cdr-sortable"
    sort_lengths = mask_lengths(fps[target])
    if len(sort_lengths) != 1:
        return False, "sorting-lengths=" + ",".join(map(str, sort_lengths))
    sorting_length = sort_lengths[0]
    pairs = 0
    bad = 0
    for fp, mask in fps.items():
        ks = mask_lengths(mask)
        end, m, _ = ctx.greedy_cds(fp)
        if end != target:
            bad += len(ks)
            pairs += len(ks)
            continue
        for k in ks:
            pairs += 1
            if k + 2 * m != sorting_length:
                bad += 1
    return bad == 0, f"runs={pairs} violations={bad} sorting-length={sorting_length}"


def _check_cds_same_length(entries: Entries, ctx: _SweepContext) -> tuple[bool, str]:
    lengths = mask_lengths(analysis.maximal_length_mask(entries, ctx.memo, ctx.tracker,
                                                        ops.cds_states))
    return len(lengths) == 1, "lengths=" + ",".join(map(str, lengths))
