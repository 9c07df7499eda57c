"""Oriented overlap graphs, local complementation, and the graph move gcdr.

The overlap graph of a signed permutation has one vertex per internal pointer.
Two vertices share an edge exactly when their occurrence arcs strictly cross
by position key (nesting and disjointness give no edge).  A vertex is oriented
when its two occurrences sit on opposite-sign entries -- precisely the
condition for cdr to apply there.

Local complementation at a vertex set S complements all edges inside S and
flips every orientation flag in S.  gcdr at an oriented vertex v is local
complementation at the closed neighborhood of v; it mirrors cdr at v through
the overlap-graph construction, leaving v unoriented and isolated.

Vertices are labeled by their pointer's low value, an int; graph equality is
label-sensitive exact equality, not isomorphism.

A graph is stored as bitmasks over the ranks of its labels in sorted order:
one adjacency row per vertex and one orientation mask.  Local
complementation is then XOR over GF(2): toggling the edges inside S is
``row[j] ^= S`` minus the own bit for each j in S, and flipping the flags is
``ori ^= S``.  The analysis and sweep code runs its hot loops on such
positions through the position helpers below (masks, move, play_ranks,
safe_move, playout_length, gf2_rank), which skip validation.  move and
play_ranks return a new rows tuple, while safe_move plays in place on the
caller's rows list and undoes a rejected move by the same complementation.
The game code reads positions only in winner_by_parity and _minimax.  Only
this module builds and moves positions; ori is read as the mask of the
oriented ranks, and any(rows) as "an edge is left", also by analysis
(_end_kind, _prefixes, _safe_ranks, _insertion_dfs), games._minimax and
verify.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator

from .ops import NotApplicableError
from .perm import Entries, as_entries, parse_pointer_label, pointer_label


# ---------------------------------------------------------------------------
# positions: (rows, ori), a tuple of adjacency masks indexed by rank and an
# orientation mask.  ori is 0 exactly when no vertex is oriented, and every
# row is 0 exactly when no edge is left.


def bits(mask: int) -> Iterator[int]:
    """Ranks of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _gcdr_masks(rows: list, ori: int, i: int) -> int:
    """gcdr at rank i, in place on rows; returns the new orientation mask.
    Assumes i is oriented."""
    nb = rows[i]
    closed = nb | (1 << i)
    while nb:
        low = nb & -nb
        rows[low.bit_length() - 1] ^= closed ^ low
        nb ^= low
    rows[i] = 0
    return ori ^ closed


def _component(rows, seed: int) -> int:
    """Mask of the component containing the vertex bit seed, by bit BFS."""
    comp = frontier = seed
    while frontier:
        reach = 0
        for j in bits(frontier):
            reach |= rows[j]
        frontier = reach & ~comp
        comp |= frontier
    return comp


def _has_unoriented_component(rows, ori: int, seeds: int) -> bool:
    """Does a component (size >= 2) meeting the vertex mask seeds have no
    oriented vertex?  Stops at the first such component.

    A bit search from a seed stops as soon as it reaches an oriented vertex
    or a vertex an earlier search tied to one, and what it saw joins that
    stop mask; so no vertex is expanded twice over the whole check, and a
    long path with one oriented end vertex costs one pass, not one per seed.
    """
    stop = ori
    seeds &= ~ori
    while seeds:
        low = seeds & -seeds
        if not rows[low.bit_length() - 1]:
            seeds ^= low
            continue
        seen = frontier = low
        while True:
            reach = 0
            for j in bits(frontier):
                reach |= rows[j]
            if reach & stop:
                break
            frontier = reach & ~seen
            if not frontier:
                return True
            seen |= frontier
        stop |= seen | reach
        seeds &= ~stop
    return False


def overlap_masks(entries: Entries) -> tuple[tuple[int, ...], int]:
    """The position of the overlap graph of entries, pointer i+1 at rank i, by
    one left-to-right sweep over the entry flanks.  Two arcs cross when
    exactly one endpoint of either lies inside the other, so the row of an
    arc is the set of arcs open at its start XOR those open at its end."""
    m = len(entries) - 1
    rows = [0] * m
    open_at_start = [0] * m
    open_now = opened_on_positive = ori = 0
    for v in entries:
        # a positive entry carries its tail pointer (v-1, v) on the left
        # flank and its head (v, v+1) on the right; a negative one swaps them
        for p in ((v - 1, v) if v > 0 else (-v, -v - 1)):
            if 0 < p <= m:
                bit = 1 << (p - 1)
                if open_now & bit:
                    open_now ^= bit
                    rows[p - 1] = open_now ^ open_at_start[p - 1]
                    if (v > 0) != bool(opened_on_positive & bit):
                        ori |= bit
                else:
                    open_at_start[p - 1] = open_now
                    open_now |= bit
                    if v > 0:
                        opened_on_positive |= bit
    return tuple(rows), ori


def move(rows: tuple, ori: int, i: int) -> tuple[tuple[int, ...], int]:
    """The position after gcdr at the oriented rank i.  A move at an
    isolated vertex only flips its own flag, so that position shares rows."""
    if not rows[i]:
        return rows, ori ^ (1 << i)
    moved = list(rows)
    ori = _gcdr_masks(moved, ori, i)
    return tuple(moved), ori


def play_ranks(rows: tuple, ori: int, ranks: Iterable[int]) -> tuple[tuple[int, ...], int] | None:
    """The position after gcdr at each rank in turn; None when a rank is not
    oriented at its turn."""
    rows = list(rows)
    for i in ranks:
        if not ori >> i & 1:
            return None
        ori = _gcdr_masks(rows, ori, i)
    return tuple(rows), ori


def safe_move(rows: list, ori: int) -> tuple[int, int] | None:
    """The lowest oriented rank whose gcdr leaves no unoriented component,
    played in place on rows; returns that rank and the new orientation mask,
    or None with rows unchanged when there is none.  Assumes the position has
    no unoriented component."""
    for i in bits(ori):
        nb = rows[i]
        moved_ori = _gcdr_masks(rows, ori, i)
        # gcdr only rewires the component of i, so with no unoriented
        # component before the move only the old neighbours need a look
        if not _has_unoriented_component(rows, moved_ori, nb):
            return i, moved_ori
        # a reject: gcdr at i again from the old row i complements the same
        # closed neighbourhood, which undoes the move but for row i itself
        rows[i] = nb
        _gcdr_masks(rows, ori, i)
        rows[i] = nb
    return None


def playout_length(rows: tuple, ori: int) -> int:
    """The number of moves of the play that always takes the lowest oriented
    rank, played in place on one copy of rows."""
    rows = list(rows)
    length = 0
    while ori:
        ori = _gcdr_masks(rows, ori, (ori & -ori).bit_length() - 1)
        length += 1
    return length


def gf2_rank(rows: tuple, ori: int) -> int:
    """The rank over GF(2) of the position's matrix M = A + D: the adjacency
    rows with bit k of ori on row k's diagonal.  Eliminates over the row
    masks, keeping one basis row per leading bit.

    gcdr at an oriented rank is a pivot on M, so it lowers the rank by
    exactly one; see analysis.parity.

    >>> triangle = (0b110, 0b101, 0b011)
    >>> gf2_rank(triangle, 0b001), gf2_rank(*move(triangle, 0b001, 0))
    (3, 2)
    >>> gf2_rank(triangle, 0)  # no oriented vertex: a zero diagonal, even rank
    2
    """
    basis: dict[int, int] = {}
    for k, row in enumerate(rows):
        row |= (ori >> k & 1) << k
        while row:
            lead = row.bit_length()
            pivot = basis.get(lead)
            if pivot is None:
                basis[lead] = row
                break
            row ^= pivot
    return len(basis)


# ---------------------------------------------------------------------------
# the graph value


class OrientedGraph:
    """A finite graph with a per-vertex oriented/unoriented flag.

    Immutable and hashable (the game solver keys its memo on the masks, as
    (rows, ori, rule)).  ``vertices``, ``edges`` and ``oriented`` are
    frozenset views of the masks, built on each read; edges are (u, v) pairs
    with u < v.
    """

    __slots__ = ("_labels", "_index", "_rows", "_ori")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]],
                 oriented: Iterable[int]):
        labels = tuple(sorted(frozenset(vertices)))
        index = {v: i for i, v in enumerate(labels)}
        rows = [0] * len(labels)
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            iu, iv = index.get(u), index.get(v)
            if iu is None or iv is None:
                raise ValueError(f"edge ({u}, {v}) leaves the vertex set")
            rows[iu] |= 1 << iv
            rows[iv] |= 1 << iu
        ori = 0
        for v in oriented:
            i = index.get(v)
            if i is None:
                raise ValueError("oriented flags on unknown vertices")
            ori |= 1 << i
        self._labels, self._index, self._rows, self._ori = labels, index, tuple(rows), ori

    @classmethod
    def _from_masks(cls, labels: tuple, index: dict, rows: tuple, ori: int) -> "OrientedGraph":
        """Internal construction from masks that are already consistent."""
        g = cls.__new__(cls)
        g._labels, g._index, g._rows, g._ori = labels, index, rows, ori
        return g

    def _edge_list(self) -> list[tuple[int, int]]:
        """Edges (u, v) with u < v, in increasing order."""
        return [(u, v) for i, (u, row) in enumerate(zip(self._labels, self._rows))
                for v in labels_at(self, bits(row >> (i + 1) << (i + 1)))]

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self._labels)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self._edge_list())

    @property
    def oriented(self) -> frozenset[int]:
        return frozenset(labels_at(self, bits(self._ori)))

    def __eq__(self, other):
        if not isinstance(other, OrientedGraph):
            return NotImplemented
        return (self._ori == other._ori and self._rows == other._rows
                and self._labels == other._labels)

    def __hash__(self) -> int:
        return hash((self._labels, self._rows, self._ori))

    def __repr__(self) -> str:
        return (f"OrientedGraph(vertices={self.vertices!r}, edges={self.edges!r}, "
                f"oriented={self.oriented!r})")

    def is_oriented(self, v: int) -> bool:
        i = self._index.get(v)
        return i is not None and bool(self._ori >> i & 1)

    def neighbors(self, v: int) -> frozenset[int]:
        i = self._index.get(v)
        return frozenset() if i is None else frozenset(labels_at(self, bits(self._rows[i])))

    def closed_neighborhood(self, v: int) -> frozenset[int]:
        return self.neighbors(v) | {v}

    def oriented_vertices(self) -> tuple[int, ...]:
        return labels_at(self, bits(self._ori))

    def isolated_vertices(self) -> tuple[int, ...]:
        return tuple(v for v, row in zip(self._labels, self._rows) if not row)


def build_overlap_graph(p) -> OrientedGraph:
    """The oriented overlap graph of a signed permutation.

    >>> g = build_overlap_graph((1, -5, -2, 4, -3, 6))
    >>> sorted(g.oriented)
    [1, 3, 4, 5]
    """
    rows, ori = overlap_masks(as_entries(p))
    labels = tuple(range(1, len(rows) + 1))
    return OrientedGraph._from_masks(labels, {v: v - 1 for v in labels}, rows, ori)


def masks(g: OrientedGraph) -> tuple[tuple[int, ...], int]:
    """The position (rows, ori) of g; labels_at maps its ranks back to
    vertices."""
    return g._rows, g._ori


def labels_at(g: OrientedGraph, ranks: Iterable[int]) -> tuple[int, ...]:
    """The vertices of g at the given ranks."""
    labels = g._labels
    return tuple(labels[i] for i in ranks)


def ranks_of(g: OrientedGraph, vertices: Iterable[int]) -> tuple[int, ...] | None:
    """The ranks of the given vertices of g; None when one is not a vertex."""
    index = g._index
    ranks = tuple(index.get(v) for v in vertices)
    return None if None in ranks else ranks


def local_complement(g: OrientedGraph, s: Iterable[int]) -> OrientedGraph:
    """Complement the edges inside s and flip orientation flags on s.
    Vertices of s outside the graph are ignored, so a disjoint s is a no-op.
    An involution for fixed s."""
    index = g._index
    mask = 0
    for v in frozenset(s):
        i = index.get(v)
        if i is not None:
            mask |= 1 << i
    rows = list(g._rows)
    for j in bits(mask):
        rows[j] ^= mask ^ (1 << j)
    return OrientedGraph._from_masks(g._labels, index, tuple(rows), g._ori ^ mask)


def gcdr(g: OrientedGraph, v: int) -> OrientedGraph:
    """Local complementation at the closed neighborhood of the oriented vertex
    v.  Afterwards v is unoriented and isolated.  Raises NotApplicableError on
    an unoriented v; see try_gcdr for the lenient form."""
    i = g._index.get(v)
    if i is None:
        raise ValueError(f"vertex {v} not in graph")
    if not g._ori >> i & 1:
        raise NotApplicableError(f"gcdr at {v}: vertex is not oriented")
    return OrientedGraph._from_masks(g._labels, g._index, *move(g._rows, g._ori, i))


def try_gcdr(g: OrientedGraph, v: int) -> tuple[OrientedGraph, bool]:
    """Lenient gcdr: unoriented vertices leave the graph unchanged."""
    try:
        return gcdr(g, v), True
    except NotApplicableError:
        return g, False


@dataclass(frozen=True)
class Component:
    vertices: frozenset[int]
    oriented: bool  # contains at least one oriented vertex


@dataclass(frozen=True)
class ComponentReport:
    """Connected classes of size >= 2 ("components") and isolated vertices,
    each tagged with its orientation status.  Together they partition the
    vertex set."""

    components: tuple[Component, ...]
    isolated: tuple[tuple[int, bool], ...]   # (vertex, oriented flag)


def component_report(g: OrientedGraph) -> ComponentReport:
    rows, ori, labels = g._rows, g._ori, g._labels
    components = []
    isolated = []
    todo = (1 << len(rows)) - 1
    while todo:  # lowest rank first, so components come in order of their least vertex
        low = todo & -todo
        i = low.bit_length() - 1
        if not rows[i]:
            isolated.append((labels[i], bool(ori & low)))
            todo ^= low
            continue
        comp = _component(rows, low)
        components.append(Component(frozenset(labels_at(g, bits(comp))), bool(comp & ori)))
        todo &= ~comp
    return ComponentReport(tuple(components), tuple(isolated))


def has_unoriented_component(g: OrientedGraph) -> bool:
    """A component (size >= 2) with no oriented vertex exists.  Isolated
    unoriented vertices do not count."""
    return _has_unoriented_component(g._rows, g._ori, (1 << len(g._rows)) - 1)


def is_terminal(g: OrientedGraph) -> bool:
    """No oriented vertex remains (the end state of a maximal sequence)."""
    return not g._ori


def is_total_terminal(g: OrientedGraph) -> bool:
    """Only isolated, unoriented vertices remain."""
    return not g._ori and not any(g._rows)


# ---------------------------------------------------------------------------
# serialization


# a row's bits, lowest first, as itertools.compress selectors
_SELECT = bytes.maketrans(b"0", b"\0")


def _graph_lines(g: OrientedGraph, name: str, vertex: tuple[str, str], edge: str,
                 end: str = "") -> list[str]:
    """The vertex lines of g, then one line per edge (u, v) with u < v, both
    in increasing label order; joined with newlines they are the body of
    to_text or to_dot.  Each label is formatted once, into name.  A vertex
    line is vertex[1] (oriented) or vertex[0] (unoriented) with its name; an
    edge line is edge with u's name, then v's name and end, so a row's edge
    lines share one prefix.

    A row dense over its span gives its edge lines as one string: compress
    picks the names by the row's binary digits and one join writes them, in
    C.  A row with few edges over a wide span, where formatting and slicing
    the whole span would cost more, gives one string per edge, one bits step
    each.
    """
    ori = g._ori
    names = [name.format(pointer_label(v)) for v in g._labels]
    lines = [vertex[ori >> i & 1].format(nm) for i, nm in enumerate(names)]
    for i, row in enumerate(g._rows):
        above = row >> (i + 1)
        if above:
            prefix = edge.format(names[i])
            span = above.bit_length()
            # the C path costs about five edges' worth per row, plus about a
            # sixteenth of an edge per bit of span
            if above.bit_count() * 16 > span + 80:
                selectors = format(above, "b")[::-1].encode().translate(_SELECT)
                picked = compress(names[i + 1:i + 1 + span], selectors)
                lines.append(prefix + (end + "\n" + prefix).join(picked) + end)
            else:
                lines += [prefix + names[i + 1 + j] + end for j in bits(above)]
    return lines


def to_text(g: OrientedGraph) -> str:
    """Line-oriented form: one vertex line per vertex, then one edge line per
    edge (u, v) with u < v, both in increasing label order.  Parsed back by
    graph_from_text."""
    lines = _graph_lines(g, "{}", ("vertex {} unoriented", "vertex {} oriented"), "edge {} ")
    return "\n".join(lines) + ("\n" if lines else "")


def graph_from_text(text: str) -> OrientedGraph:
    """Parse the to_text form.  Blank lines and '#' comments are ignored; the
    lines may come in any order and may repeat, and a vertex is oriented when
    any of its lines says so.

    A line that is not "vertex LABEL oriented|unoriented" or
    "edge LABEL LABEL", or a malformed label, raises ValueError at the first
    such line, its message starting "line N: ".  Then an edge that is a
    self-loop or names an undeclared vertex raises ValueError naming the
    first such edge in text order.

    One pass over the lines; each distinct label token is parsed once, on
    first sight, into a plain dict of token -> vertex."""
    vertices = set()
    oriented = set()
    edges = []
    vertex_of: dict[str, int] = {}
    get = vertex_of.get
    for ln, raw in enumerate(text.splitlines(), 1):
        parts = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        try:
            if len(parts) == 3:
                kind, a, b = parts
                if kind == "edge":
                    u = get(a)
                    if u is None:  # label 0 is a vertex too, so test for None
                        u = vertex_of[a] = parse_pointer_label(a)
                    v = get(b)
                    if v is None:
                        v = vertex_of[b] = parse_pointer_label(b)
                    edges.append((u, v))
                    continue
                if kind == "vertex" and b in ("oriented", "unoriented"):
                    v = get(a)
                    if v is None:
                        v = vertex_of[a] = parse_pointer_label(a)
                    vertices.add(v)
                    if b == "oriented":
                        oriented.add(v)
                    continue
            elif not parts:
                continue
        except ValueError as exc:  # a malformed label
            raise ValueError(f"line {ln}: {exc}") from None
        raise ValueError(f"line {ln}: cannot parse graph line {raw!r}")
    return OrientedGraph(vertices, edges, oriented)


def to_dot(g: OrientedGraph) -> str:
    """Graphviz form; oriented vertices get style=filled."""
    lines = _graph_lines(g, '"{}"', ("  {};", "  {} [style=filled];"), "  {} -- ", ";")
    return "\n".join(["graph overlap {", "  node [shape=circle];", *lines, "}\n"])


def random_oriented_graph(rng: random.Random, n_vertices: int,
                          edge_probability: float = 0.5) -> OrientedGraph:
    """Erdos-Renyi graph on vertices 1..n with independent orientation flags."""
    verts = range(1, n_vertices + 1)
    edges = frozenset(
        (u, v) for u in verts for v in verts
        if u < v and rng.random() < edge_probability
    )
    oriented = frozenset(v for v in verts if rng.random() < 0.5)
    return OrientedGraph(frozenset(verts), edges, oriented)
