"""Differential tests: the bitmask graph layer against the frozenset
reference implementations in oracles.py."""
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdsort.analysis import (
    TheoremViolationError,
    _safe_ranks,
    classify_sequence,
    greedy_safe_total_sequence,
)
from cdsort.graph import (
    OrientedGraph,
    build_overlap_graph,
    random_oriented_graph,
    component_report,
    gcdr,
    graph_from_text,
    has_unoriented_component,
    is_oriented_sequence,
    local_complement,
    masks,
    move,
    playout_length,
    safe_move,
    to_dot,
    to_text,
)
from cdsort.perm import all_signed_permutations, random_signed_permutation

from oracles import (
    LABELS,
    all_oriented_graphs,
    component_report_sets,
    gcdr_sets,
    graph_sets,
    greedy_safe_total_sequence_sets,
    has_unoriented_component_sets,
    local_complement_sets,
    neighbors_sets,
    overlap_graph_sets,
    graph_from_text_sets,
    is_oriented_sequence_by_gcdr,
    playout_length_sets,
    safe_move_by_copies,
    safe_ranks_by_copies,
    to_dot_by_bits,
    to_dot_edge_list,
    to_text_edge_list,
)

def report_sets(g):
    report = component_report(g)
    return tuple((c.vertices, c.oriented) for c in report.components), report.isolated


def test_build_matches_pair_loop_exhaustive_n6():
    for n in range(1, 7):
        for entries in all_signed_permutations(n):
            assert graph_sets(build_overlap_graph(entries)) == overlap_graph_sets(entries), entries


@pytest.mark.parametrize("k", [*range(5), pytest.param(5, marks=pytest.mark.slow)])
def test_graph_layer_matches_sets_on_every_graph(k):
    for sets in all_oriented_graphs(k):
        g = OrientedGraph(*sets)
        assert graph_sets(g) == sets
        assert report_sets(g) == component_report_sets(sets)
        assert has_unoriented_component(g) == has_unoriented_component_sets(sets)
        for v in sets[0]:
            assert g.neighbors(v) == neighbors_sets(sets, v)
        for v in sets[2]:
            moved = gcdr(g, v)
            assert graph_sets(moved) == gcdr_sets(sets, v)
            assert moved == OrientedGraph(*gcdr_sets(sets, v))


@pytest.mark.parametrize("k", range(5))
def test_local_complement_matches_sets_on_every_subset(k):
    subsets = [set(s) | {99} for r in range(k + 1) for s in itertools.combinations(LABELS[:k], r)]
    for sets in all_oriented_graphs(k):
        g = OrientedGraph(*sets)
        for s in subsets:
            assert graph_sets(local_complement(g, s)) == local_complement_sets(sets, s)


def test_equal_graphs_hash_alike_across_constructions():
    for entries in all_signed_permutations(4):
        g = build_overlap_graph(entries)
        rebuilt = OrientedGraph(g.vertices, {(v, u) for u, v in g.edges}, g.oriented)
        assert rebuilt == g and hash(rebuilt) == hash(g)


@given(st.integers(2, 60), st.randoms(use_true_random=False))
def test_masks_match_sets_on_larger_permutations(n, rnd):
    entries = random_signed_permutation(rnd, n)
    g = build_overlap_graph(entries)
    sets = overlap_graph_sets(entries)
    assert graph_sets(g) == sets
    assert graph_from_text(to_text(g)) == g
    assert report_sets(g) == component_report_sets(sets)
    assert playout_length(*masks(g)) == playout_length_sets(sets)
    expected = greedy_safe_total_sequence_sets(entries)
    if expected is None:
        with pytest.raises(ValueError, match="unoriented component"):
            greedy_safe_total_sequence(entries)
    else:
        assert greedy_safe_total_sequence(entries) == expected
        assert classify_sequence(entries, expected) == "total"


# ---------------------------------------------------------------------------
# the text form against the versions it replaced (to_text through the edge
# list, graph_from_text through sets)


def random_graph(rng):
    """A random graph on a random subset of LABELS and 0, on 1..k, or an
    overlap graph."""
    kind = rng.randrange(3)
    if kind == 0:
        verts = rng.sample(LABELS + (0,), rng.randint(0, len(LABELS) + 1))
        edges = [(u, v) for u, v in itertools.combinations(verts, 2) if rng.random() < 0.5]
        return OrientedGraph(verts, edges, [v for v in verts if rng.random() < 0.5])
    if kind == 1:
        return random_oriented_graph(rng, rng.randint(0, 8), rng.random())
    return build_overlap_graph(random_signed_permutation(rng, rng.randint(1, 12)))


def large_graphs():
    """Overlap graphs at n = 100..149, dense enough that most rows take the
    compress path, and two sparse graphs on 1,500 vertices whose rows take
    the bits path: the path (v, v+1) and the matching (v, v+750)."""
    rng = random.Random(47)
    graphs = [build_overlap_graph(random_signed_permutation(rng, n)) for n in range(100, 150, 10)]
    n = 1500
    graphs.append(OrientedGraph(range(1, n + 1), [(v, v + 1) for v in range(1, n)], [1]))
    matching = [(v, v + n // 2) for v in range(1, n // 2 + 1)]
    graphs.append(OrientedGraph(range(1, n + 1), matching, range(1, n + 1, 3)))
    return graphs


def test_to_text_matches_edge_list_version():
    rng = random.Random(41)
    assert to_text(OrientedGraph((), (), ())) == to_text_edge_list(OrientedGraph((), (), ())) == ""
    for _ in range(500):
        g = random_graph(rng)
        assert to_text(g) == to_text_edge_list(g)
    for g in large_graphs():
        assert to_text(g) == to_text_edge_list(g)
        assert to_dot(g) == to_dot_by_bits(g)


def test_to_dot_matches_edge_list_version():
    empty = OrientedGraph((), (), ())
    assert to_dot(empty) == to_dot_edge_list(empty) == "graph overlap {\n  node [shape=circle];\n}\n"
    for k in range(1, 5):
        for sets in all_oriented_graphs(k):
            g = OrientedGraph(*sets)
            assert to_dot(g) == to_dot_edge_list(g)
    rng = random.Random(44)
    for _ in range(500):
        g = random_graph(rng)
        assert to_dot(g) == to_dot_edge_list(g) == to_dot_by_bits(g)


def test_is_oriented_sequence_matches_gcdr_version():
    # half the sequences are legal plays, some of them with one more vertex,
    # a non-vertex or a repeat; the rest are random draws with both
    rng = random.Random(45)
    answers = []
    for _ in range(3000):
        g = random_graph(rng)
        pool = sorted(g.vertices) + [-1, 0, 10**9 + 1]
        seq = []
        if rng.random() < 0.5:
            h = g
            while h.oriented and rng.random() < 0.8:
                seq.append(rng.choice(sorted(h.oriented)))
                h = gcdr(h, seq[-1])
            if seq and rng.random() < 0.5:
                seq.append(rng.choice(pool + seq))
        else:
            seq = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
        answer = is_oriented_sequence(g, seq)
        assert answer == is_oriented_sequence_by_gcdr(g, seq), (g, seq)
        answers.append(answer)
    assert 500 < sum(answers) < 2500


def _name(v):
    return f"({v},{v + 1})"


def _bad_line(rng, g):
    """A line with exactly one bad element."""
    verts = sorted(g.vertices) or [5]
    a, b = _name(rng.choice(verts)), _name(rng.choice(verts))
    stray = _name(rng.choice([v for v in (1, 4, 8, 41, 999) if v not in g.vertices]))
    bad_label = rng.choice(("(1,3)", "(x,2)", "1,2", "(2,3", "(-1,0)", "()", "(1,2)(2,3)"))
    return rng.choice((
        ("vertex", bad_label, rng.choice(("oriented", "unoriented"))),
        ("edge", bad_label, a), ("edge", a, bad_label),                # bad label
        ("vertex", a), ("edge", a), ("vertex", a, "oriented", "x"),     # token count
        ("edge", a, b, a), ("edge",), ("oriented",),
        ("node", a, "oriented"), ("Vertex", a, "oriented"), ("edges", a, b),  # keyword
        ("vertex", a, "Oriented"), ("vertex", a, "odd"), ("vertex", a, a),    # orientation
        ("edge", a, a),                                                 # self-loop
        ("edge", a, stray), ("edge", stray, a),                         # undeclared vertex
    ))


def graph_text(rng, g, bad):
    """The lines of g in random order, edges either way round, some repeated
    (a repeated vertex line may say unoriented), with comments, blank and
    whitespace-only lines, mixed separators and line ends, and with one bad
    line when bad is set."""
    oriented = g.oriented
    lines = [("vertex", _name(v), "oriented" if v in oriented else "unoriented")
             for v in g.vertices]
    lines += [("edge", _name(u), _name(v)) if rng.random() < 0.5 else ("edge", _name(v), _name(u))
              for u, v in g.edges]
    lines += rng.sample(lines, min(len(lines), rng.randint(0, 3)))
    lines += [("vertex", _name(v), "unoriented") for v in oriented if rng.random() < 0.2]
    if bad:
        lines.append(_bad_line(rng, g))
    lines += [()] * rng.randint(0, 3)
    rng.shuffle(lines)
    out = []
    for tokens in lines:
        line = rng.choice((" ", "\t", "  ", "\xa0")).join(tokens)
        if tokens and rng.random() < 0.3:
            line = rng.choice(("", " ", "\t")) + line + rng.choice(("", " ", "\t "))
        if rng.random() < 0.2:
            line += rng.choice(("#", " # note", "\t#edge (1,2) (1,2)", "# vertex (0,1) odd"))
        out.append(line + rng.choice(("\n", "\n", "\r\n", "\r")))
    text = "".join(out)
    return text if rng.random() < 0.8 else text.rstrip("\r\n")


def _parse(parser, text):
    try:
        return parser(text)
    except ValueError as exc:
        return type(exc), str(exc)


def _bad_label_line(text):
    """The number of the first line of text that is a bad-label error on its
    own, by the oracle parser; None when there is none."""
    for ln, line in enumerate(text.splitlines(), 1):
        error = _parse(graph_from_text_sets, line)
        if isinstance(error, tuple) and error[1].startswith("bad vertex label"):
            return ln
    return None


def test_graph_from_text_matches_sets_version():
    # the same graph or the same error as the oracle parser, except that a
    # bad-label error also names the line that carries the bad token
    rng = random.Random(43)
    labelled = zero = 0
    for case in range(3000):
        g = random_graph(rng)
        zero += 0 in g.vertices  # "(0,1)": label 0 is falsy, yet a vertex
        bad = case % 2 == 1
        text = graph_text(rng, g, bad)
        parsed = _parse(graph_from_text, text)
        expected = _parse(graph_from_text_sets, text)
        if isinstance(expected, tuple) and expected[1].startswith("bad vertex label"):
            expected = ValueError, f"line {_bad_label_line(text)}: {expected[1]}"
            labelled += 1
        assert parsed == expected, text
        if bad:
            assert isinstance(parsed, tuple), text
        else:
            assert parsed == g, text
    assert labelled > 100 and zero > 100


# ---------------------------------------------------------------------------
# greedy-safe play in place against the copy-per-move version it replaced


def _safe_play(play, g):
    """The ranks and spend count of play from g, or the error it raised."""
    spent = []
    try:
        return play(g, lambda: spent.append(None)), len(spent)
    except TheoremViolationError as exc:
        return str(exc), len(spent)


def _check_safe_moves(g):
    """Step safe_move in place beside the copy-per-move version; the number
    of moves whose lowest oriented candidate was rejected."""
    rows, ori = masks(g)
    moved_rows = list(rows)
    rejected = 0
    while True:
        step = safe_move(moved_rows, ori)
        expected = safe_move_by_copies(rows, ori)
        if expected is None:
            assert step is None and tuple(moved_rows) == rows
            return rejected
        i, rows, moved_ori = expected
        assert step == (i, moved_ori) and tuple(moved_rows) == rows
        rejected += ori & -ori != 1 << i
        ori = moved_ori


def test_safe_play_matches_copy_per_move_version_on_small_graphs():
    rng = random.Random(48)
    checked = rejected = 0
    while checked < 3000:
        g = random_oriented_graph(rng, rng.randint(1, 12), rng.choice((0.2, 0.5, 0.8)))
        if has_unoriented_component(g):
            continue
        checked += 1
        rejected += _check_safe_moves(g)
        assert _safe_play(_safe_ranks, g) == _safe_play(safe_ranks_by_copies, g)
    assert rejected > 500


def test_safe_play_matches_copy_per_move_version_off_its_precondition():
    # with an unoriented component, play ends with edges left; both versions
    # raise the same error after the same spends.  A move is checked only
    # around its old neighbours, so an unoriented component elsewhere never
    # turns a move down, and each oriented component has a safe vertex
    rng = random.Random(49)
    errors = set()
    for _ in range(1000):
        g = random_oriented_graph(rng, rng.randint(2, 10), rng.choice((0.2, 0.5)))
        if has_unoriented_component(g):
            _check_safe_moves(g)
            result = _safe_play(_safe_ranks, g)
            assert result == _safe_play(safe_ranks_by_copies, g)
            if isinstance(result[0], str):
                errors.add(result[0])
    assert errors == {"safe play ended in a non-total terminal"}


def test_safe_play_matches_copy_per_move_version_on_overlap_graphs():
    rng = random.Random(50)
    for n in range(100, 150, 7):
        g = build_overlap_graph(random_signed_permutation(rng, n))
        _check_safe_moves(g)
        assert _safe_play(_safe_ranks, g) == _safe_play(safe_ranks_by_copies, g)


def test_safe_move_rejects_an_unsafe_lowest_vertex():
    # the path 1 - 2 - 3 with 1 and 2 oriented: gcdr at 1 leaves 2 - 3 with
    # no oriented vertex, so the move is undone and 2 is played instead
    g = OrientedGraph((1, 2, 3), ((1, 2), (2, 3)), (1, 2))
    rows, ori = masks(g)
    moved_rows = list(rows)
    assert safe_move(moved_rows, ori) == (1, move(rows, ori, 1)[1])
    assert tuple(moved_rows) == move(rows, ori, 1)[0]
    assert _safe_ranks(g, lambda: None)[0] == 1
