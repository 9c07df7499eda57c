"""The rank lemma and the checks built on it.

Over GF(2), gcdr at an oriented vertex is a pivot on M = A + D, the
adjacency matrix with the orientation flags on its diagonal, so each move
lowers rank(M) by exactly one.  analysis.parity reads the parity of every
maximal cdr run off that rank; the path-by-path playout in oracles.py stays
the reference.  That the sortability witness has length rank(M) follows on
every n <= 6 input from test_fold.py's graded move graph and
test_sortability.py's DP oracle.
"""
import random

from hypothesis import given
from hypothesis import strategies as st

from cdsort.analysis import parity
from cdsort.graph import (
    OrientedGraph,
    component_report,
    gcdr,
    gf2_rank,
    has_unoriented_component,
    masks,
    random_oriented_graph,
)
from cdsort.perm import all_signed_permutations, random_signed_permutation

from oracles import DEEP, all_oriented_graphs, parity_by_playout


def rank(g):
    return gf2_rank(*masks(g))


def test_gcdr_lowers_the_rank_by_one_on_every_small_graph():
    for k in range(6):
        for sets in all_oriented_graphs(k):
            g = OrientedGraph(*sets)
            r = rank(g)
            if not sets[2]:
                assert r % 2 == 0, sets
            for v in sets[2]:
                assert rank(gcdr(g, v)) == r - 1, (sets, v)


def test_parity_matches_playout_exhaustive_n6():
    for n in range(1, 7):
        for entries in all_signed_permutations(n):
            assert parity(entries) == parity_by_playout(entries), entries


@given(st.integers(1, 200), st.randoms(use_true_random=False))
def test_parity_matches_playout_on_larger_permutations(n, rnd):
    entries = random_signed_permutation(rnd, n)
    assert parity(entries) == parity_by_playout(entries)


def test_parity_on_the_deep_input():
    assert parity(DEEP) == parity_by_playout(DEEP)


def test_path_with_one_oriented_end_has_no_unoriented_component():
    n = 3000
    edges = [(v, v + 1) for v in range(n - 1)]
    for end in (0, n - 1):
        assert not has_unoriented_component(OrientedGraph(range(n), edges, [end]))
    assert has_unoriented_component(OrientedGraph(range(n), edges, []))


@given(st.integers(1, 80), st.floats(0.0, 0.1), st.integers(0, 2 ** 32))
def test_unoriented_component_check_matches_component_report(n, p, seed):
    g = random_oriented_graph(random.Random(seed), n, p)
    expected = any(not c.oriented for c in component_report(g).components)
    assert has_unoriented_component(g) == expected
