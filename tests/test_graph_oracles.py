"""Differential tests: the bitmask graph layer against the frozenset
reference implementations in oracles.py."""
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdsort import games
from cdsort.analysis import classify_sequence, greedy_safe_total_sequence
from cdsort.graph import (
    OrientedGraph,
    build_overlap_graph,
    component_report,
    gcdr,
    graph_from_text,
    has_unoriented_component,
    local_complement,
    to_text,
)
from cdsort.perm import all_signed_permutations, random_signed_permutation

from oracles import (
    component_report_sets,
    gcdr_sets,
    graph_sets,
    greedy_safe_total_sequence_sets,
    has_unoriented_component_sets,
    local_complement_sets,
    neighbors_sets,
    overlap_graph_sets,
    playout_length_sets,
)

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
    assert games._playout_length(g) == playout_length_sets(sets)
    expected = greedy_safe_total_sequence_sets(entries)
    if expected is None:
        with pytest.raises(ValueError, match="unoriented component"):
            greedy_safe_total_sequence(entries)
    else:
        assert greedy_safe_total_sequence(entries) == expected
        assert classify_sequence(entries, expected) == "total"
