"""Differential tests: the bitmask graph layer against the frozenset
reference implementations in oracles.py."""
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdsort.analysis import classify_sequence, greedy_safe_total_sequence
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
    playout_length,
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


@pytest.mark.parametrize("k", range(6))
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
    """A random graph on a random subset of LABELS, on 1..k, or an overlap
    graph."""
    kind = rng.randrange(3)
    if kind == 0:
        verts = rng.sample(LABELS, rng.randint(0, len(LABELS)))
        edges = [(u, v) for u, v in itertools.combinations(verts, 2) if rng.random() < 0.5]
        return OrientedGraph(verts, edges, [v for v in verts if rng.random() < 0.5])
    if kind == 1:
        return random_oriented_graph(rng, rng.randint(0, 8), rng.random())
    return build_overlap_graph(random_signed_permutation(rng, rng.randint(1, 12)))


def test_to_text_matches_edge_list_version():
    rng = random.Random(41)
    assert to_text(OrientedGraph((), (), ())) == to_text_edge_list(OrientedGraph((), (), ())) == ""
    for _ in range(500):
        g = random_graph(rng)
        assert to_text(g) == to_text_edge_list(g)


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
        assert to_dot(g) == to_dot_edge_list(g)


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
    labelled = 0
    for case in range(3000):
        g = random_graph(rng)
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
    assert labelled > 100
