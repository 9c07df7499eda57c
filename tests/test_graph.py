import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdsort.graph import (
    OrientedGraph,
    build_overlap_graph,
    component_report,
    gcdr,
    graph_from_text,
    has_unoriented_component,
    is_terminal,
    is_total_terminal,
    local_complement,
    overlap_masks,
    random_oriented_graph,
    to_dot,
    to_text,
    try_gcdr,
)
from cdsort.ops import NotApplicableError, applicable_cdr_moves, applicable_cds_moves
from cdsort.perm import all_signed_permutations, random_signed_permutation, sigma, tau

# The worked six- and ten-entry examples: test_acceptance's criterion 1 checks
# their overlap graphs against hand-enumerated edges and orientations.
PERM6 = (1, -5, -2, 4, -3, 6)
PERM10 = (-6, 3, -4, 2, 5, -1, 7, 9, 8, 10)

ONOVA = (3, 5, 4, 6, 8, -2, 1, 7)
ONOVA_EDGES = {(2, 7), (6, 7), (2, 6), (3, 4), (4, 5), (3, 5)}
ONOVA_ORIENTED = {1, 2}


def graphs_of_all(n):
    """Each distinct overlap graph of a signed permutation of length n, once,
    in first-seen order.  All have the labels 1..n-1, so two are equal exactly
    when their masks are."""
    first = {}
    for entries in all_signed_permutations(n):
        first.setdefault(overlap_masks(entries), entries)
    for entries in first.values():
        yield build_overlap_graph(entries)


# ---------------------------------------------------------------------------
# construction


def test_overlap_graph_actin_precursor():
    g = build_overlap_graph(ONOVA)
    assert g.edges == frozenset(ONOVA_EDGES)
    assert g.oriented == frozenset(ONOVA_ORIENTED)


def test_overlap_graph_identity():
    g = build_overlap_graph(tuple(range(1, 8)))
    assert g.vertices == frozenset(range(1, 7))
    assert not g.edges and not g.oriented
    assert is_total_terminal(g)


def test_overlap_graph_singleton():
    g = build_overlap_graph((1,))
    assert g.vertices == frozenset() and not g.edges


@given(st.integers(2, 10), st.randoms(use_true_random=False))
def test_vertex_count_and_orientation_rule(n, rnd):
    entries = random_signed_permutation(rnd, n)
    g = build_overlap_graph(entries)
    assert g.vertices == frozenset(range(1, n))
    # a vertex is oriented iff cdr applies at that pointer
    assert g.oriented_vertices() == applicable_cdr_moves(entries)
    # cds moves are exactly the edges joining two unoriented vertices
    unoriented_edges = tuple(
        e for e in sorted(g.edges) if e[0] not in g.oriented and e[1] not in g.oriented
    )
    assert unoriented_edges == applicable_cds_moves(entries)


# ---------------------------------------------------------------------------
# graph value semantics


def test_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        OrientedGraph(frozenset({1}), frozenset({(1, 1)}), frozenset())
    with pytest.raises(ValueError, match="leaves the vertex set"):
        OrientedGraph(frozenset({1}), frozenset({(1, 2)}), frozenset())
    with pytest.raises(ValueError, match="unknown vertices"):
        OrientedGraph(frozenset({1}), frozenset(), frozenset({2}))


def test_graph_equality_is_label_sensitive():
    a = OrientedGraph(frozenset({1, 2}), frozenset({(1, 2)}), frozenset({1}))
    b = OrientedGraph(frozenset({1, 2}), frozenset({(2, 1)}), frozenset({1}))
    c = OrientedGraph(frozenset({1, 2}), frozenset({(1, 2)}), frozenset({2}))
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_neighborhood_and_isolation_queries():
    g = build_overlap_graph(PERM10)
    assert g.neighbors(3) == frozenset({4})
    assert g.closed_neighborhood(3) == frozenset({3, 4})
    assert g.isolated_vertices() == (6,)
    assert g.is_oriented(6) and not g.is_oriented(2)


# ---------------------------------------------------------------------------
# local complementation


def seven_vertex_example():
    edges = {(1, 5), (1, 4), (2, 3), (2, 7), (3, 4), (3, 5), (3, 6), (4, 7), (4, 5), (4, 6),
             (5, 7), (5, 6)}
    return OrientedGraph(frozenset(range(1, 8)), frozenset(edges), frozenset({1, 2, 6}))


def test_local_complement_seven_vertex_example():
    g2 = local_complement(seven_vertex_example(), {3, 4, 5, 6})
    assert g2.edges == frozenset({(1, 5), (5, 7), (2, 7), (1, 4), (2, 3), (4, 7)})
    assert g2.oriented == frozenset({1, 2, 3, 4, 5})


def test_local_complement_empty_and_disjoint_sets():
    g = seven_vertex_example()
    assert local_complement(g, set()) == g
    assert local_complement(g, {100, 200}) == g


# ---------------------------------------------------------------------------
# gcdr


def eight_pointer_example():
    # overlap graph of (3, -8, -2, 5, 1, -7, 4, 6), checked below against the
    # direct construction
    edges = {(1, 4), (1, 5), (2, 3), (2, 7), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (4, 7),
             (5, 6), (5, 7)}
    return OrientedGraph(frozenset(range(1, 8)), frozenset(edges), frozenset({1, 2, 6}))


def test_eight_pointer_example_matches_construction():
    assert build_overlap_graph((3, -8, -2, 5, 1, -7, 4, 6)) == eight_pointer_example()


def test_gcdr_eight_pointer_example():
    g2 = gcdr(eight_pointer_example(), 6)
    assert g2.edges == frozenset({(1, 4), (1, 5), (2, 3), (2, 7), (4, 7), (5, 7)})
    assert g2.oriented == frozenset({1, 2, 3, 4, 5})


def test_gcdr_single_oriented_vertex():
    g = OrientedGraph(frozenset({1}), frozenset(), frozenset({1}))
    g2 = gcdr(g, 1)
    assert g2.oriented == frozenset() and not g2.edges


def test_gcdr_rejects_unoriented_vertex():
    g = eight_pointer_example()
    with pytest.raises(NotApplicableError):
        gcdr(g, 3)
    same, applied = try_gcdr(g, 3)
    assert same == g and not applied
    with pytest.raises(ValueError, match="not in graph"):
        gcdr(g, 99)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_gcdr_isolates_and_unorients_its_vertex(rnd):
    g = random_oriented_graph(rnd, rnd.randint(1, 10))
    if not g.oriented:
        return
    v = min(g.oriented)
    outside = g.vertices - g.closed_neighborhood(v)
    g2 = gcdr(g, v)
    assert v not in g2.oriented and not g2.neighbors(v)
    # vertices outside the closed neighborhood keep their orientation flag
    assert g2.oriented & outside == g.oriented & outside


# ---------------------------------------------------------------------------
# components and terminal predicates


def test_component_report_ten_entry_example():
    report = component_report(build_overlap_graph(PERM10))
    comps = {(c.vertices, c.oriented) for c in report.components}
    assert comps == {
        (frozenset({1, 2, 3, 4, 5}), True),
        (frozenset({7, 8, 9}), False),
    }
    assert report.isolated == ((6, True),)
    assert has_unoriented_component(build_overlap_graph(PERM10))


def test_sigma_graphs_are_isolated_oriented():
    for n in (1, 2, 5, 50):
        g = build_overlap_graph(sigma(n))
        assert not g.edges
        assert g.oriented == g.vertices and len(g.vertices) == 2 * n
        report = component_report(g)
        assert not report.components and len(report.isolated) == 2 * n
    for n in (1, 2, 5, 50):
        g = build_overlap_graph(tau(n))
        assert not g.edges and g.oriented == g.vertices and len(g.vertices) == 2 * n - 1


def test_terminal_predicates():
    ident = build_overlap_graph(tuple(range(1, 6)))
    assert is_terminal(ident) and is_total_terminal(ident)
    swapped = build_overlap_graph((2, 1))
    assert is_terminal(swapped) and is_total_terminal(swapped)
    assert not has_unoriented_component(swapped)
    onova = build_overlap_graph(ONOVA)
    assert not is_terminal(onova) and not is_total_terminal(onova)
    # terminal but not total: an unoriented component remains
    fp = build_overlap_graph((1, 3, 5, 6, 2, 4))
    assert is_terminal(fp) and not is_total_terminal(fp)


# ---------------------------------------------------------------------------
# single-vertex maximality and its three-term extension property


def _maximality_matches_neighborhood(g):
    for w in g.oriented:
        is_max = not gcdr(g, w).oriented
        assert is_max == (g.oriented == g.closed_neighborhood(w)), (g, w)
        if is_max:
            for u in sorted(g.oriented):
                g1 = gcdr(g, u)
                for v in sorted(g1.oriented):
                    g2 = gcdr(g1, v)
                    if w in g2.oriented:
                        assert not gcdr(g2, w).oriented, (g, (u, v, w))


def test_single_vertex_maximality_exhaustive_small():
    for n in range(1, 7):
        for g in graphs_of_all(n):
            _maximality_matches_neighborhood(g)


@pytest.mark.slow
def test_single_vertex_maximality_exhaustive_n7():
    visited = 0
    for visited, g in enumerate(graphs_of_all(7), 1):
        _maximality_matches_neighborhood(g)
    # 645,120 signed permutations, about 14 per distinct graph
    assert visited == 46_080


# ---------------------------------------------------------------------------
# serialization


def test_text_round_trip():
    g = build_overlap_graph(PERM6)
    assert graph_from_text(to_text(g)) == g


def test_text_round_trip_random():
    rng = random.Random(3)
    for _ in range(50):
        g = random_oriented_graph(rng, rng.randint(1, 9))
        assert graph_from_text(to_text(g)) == g


def test_text_parse_rejects_garbage():
    with pytest.raises(ValueError, match="cannot parse"):
        graph_from_text("vertex (1,2) odd\n")
    with pytest.raises(ValueError, match="bad vertex label"):
        graph_from_text("vertex (1,3) oriented\n")


@pytest.mark.parametrize("edge", ["edge (1,2) (2,4)", "edge (2,4) (1,2)", "edge (1,2) (x,3)"])
def test_text_parse_rejects_bad_edge_label_after_good_ones(edge):
    text = f"vertex (1,2) oriented\nvertex (2,3) unoriented\nedge (1,2) (2,3)\n{edge}\n"
    bad = next(t for t in edge.split()[1:] if t not in ("(1,2)", "(2,3)"))
    with pytest.raises(ValueError) as info:
        graph_from_text(text)
    assert str(info.value) == f"line 4: bad vertex label {bad!r}, expected \"(i,i+1)\""


def test_text_parse_names_the_first_bad_edge_in_text_order():
    loop, stray = "edge (2,3) (2,3)\n", "edge (1,2) (9,10)\n"
    vertices = "vertex (1,2) oriented\nvertex (2,3) unoriented\n"
    for text, message in [(loop + stray, "self-loop at vertex 2"),
                          (stray + loop, "edge (1, 9) leaves the vertex set")]:
        for placed in (vertices + text, text + vertices):
            with pytest.raises(ValueError) as info:
                graph_from_text(placed)
            assert str(info.value) == message


def test_text_parse_skips_comments():
    g = graph_from_text("# comment\nvertex (1,2) oriented\n\nvertex (2,3) unoriented\nedge (1,2) (2,3)\n")
    assert g.vertices == frozenset({1, 2})
    assert g.oriented == frozenset({1})


def test_dot_output_shape():
    dot = to_dot(build_overlap_graph(PERM6))
    assert dot.startswith("graph overlap {")
    assert '"(1,2)" [style=filled];' in dot
    assert '"(2,3)";' in dot
    assert '"(1,2)" -- "(2,3)";' in dot
    assert dot.rstrip().endswith("}")


def test_serializations_are_deterministic():
    g1 = build_overlap_graph(PERM10)
    g2 = OrientedGraph(g1.vertices, frozenset(sorted(g1.edges, reverse=True)), g1.oriented)
    assert to_text(g1) == to_text(g2)
    assert to_dot(g1) == to_dot(g2)
