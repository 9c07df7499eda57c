"""The ops kernels against cdr and cds read off perm.pointer_occurrences.

tests/oracles.py builds each move pointer by pointer from the public
occurrence list, with no ops kernel: a pointer's two occurrences, their keys,
cuts and entry signs.  Every kernel must agree with it: _arcs on the keys
and homogeneity (ops keys are the 1-based occurrence keys minus 2, and a
key's cut is (key + 1) >> 1), applicable_cds_moves, is_cds_fixed_point,
_cds_children and _apply_cds on which pairs apply and what they give, and
cdr_moves, cdr_step and _cdr_children on the same for cdr (_cdr_children
lazily, as a generator).  Exhaustive for n <= 6, by hypothesis up to
n = 60.  cds_applicable is _apply_cds through apply_cds, and test_ops.py
ties it to applicable_cds_moves.  The kernel that ops.cdr_states hands out
must give the same cdr children once decoded, also lazily: exhaustive for
n <= 6, by hypothesis up to n = 160, across n = 127, the last length it
stores as bytes, and against _cdr_children at n = 1, 2 and 127, with +-127
at either end.
"""
import inspect
import itertools

import pytest
from hypothesis import given

from cdsort import ops
from cdsort.ops import NotApplicableError, greedy_cds_run
from cdsort.perm import all_signed_permutations

from oracles import (
    cdr_moves_by_occurrences,
    cds_moves_by_occurrences,
    occurrence_pairs,
    signed_perms,
)


def applied(kernel, entries, *move):
    """The kernel's result, or None when it raises NotApplicableError."""
    try:
        return kernel(entries, *move)
    except NotApplicableError:
        return None


def check_kernels(entries):
    pairs = occurrence_pairs(entries)
    arcs = ops._arcs(entries)
    assert arcs == [(o1.key - 2, o2.key - 2, o1.entry_sign == o2.entry_sign)
                    for o1, o2 in pairs]
    assert [((k1 + 1) >> 1, (k2 + 1) >> 1) for k1, k2, _ in arcs] == [
        (o1.cut, o2.cut) for o1, o2 in pairs]

    cds = dict(cds_moves_by_occurrences(entries, pairs))
    assert ops.applicable_cds_moves(entries) == tuple(cds)
    assert ops.is_cds_fixed_point(entries) == (not cds)
    assert list(ops._cds_children(entries)) == list(cds.values())
    for p, q in itertools.combinations(range(1, len(entries)), 2):
        assert applied(ops._apply_cds, entries, p, q) == cds.get((p, q))

    cdr = dict(cdr_moves_by_occurrences(entries, pairs))
    assert ops.cdr_moves(entries) == list(cdr)
    children = ops._cdr_children(entries)
    assert inspect.isgenerator(children)
    assert list(children) == list(cdr.values())
    for i in range(1, len(entries)):
        assert applied(ops.cdr_step, entries, i) == cdr.get(i)
    check_cdr_states(entries, list(cdr.values()))


def check_cdr_states(entries, expected):
    """The states of ops.cdr_states decode to ``entries`` and, one cdr move
    on, to ``expected``, in order, from a generator."""
    root, children, decode = ops.cdr_states(entries)
    assert decode(root) == entries
    states = children(root)
    assert inspect.isgenerator(states)
    assert [decode(state) for state in states] == expected


@pytest.mark.slow
def test_kernels_match_occurrences_exhaustively():
    for n in range(1, 7):
        for entries in all_signed_permutations(n):
            check_kernels(entries)


@given(signed_perms(1, 60))
def test_kernels_match_occurrences(entries):
    check_kernels(entries)


@given(signed_perms(61, 160))
def test_cdr_states_match_occurrences(entries):
    pairs = occurrence_pairs(entries)
    check_cdr_states(entries, [child for _, child in cdr_moves_by_occurrences(entries, pairs)])


def test_cdr_states_at_the_edges():
    # the shortest states, and n = 127, the last length stored as bytes, with
    # +-127 at the first and the last index, so that the translate table
    # maps the largest magnitude to either end
    cases = list(all_signed_permutations(1)) + list(all_signed_permutations(2))
    for rest in (tuple(v if v % 2 else -v for v in range(1, 127)),
                 tuple(-v if v % 3 else v for v in range(126, 0, -1))):
        for top in (127, -127):
            cases += [(top,) + rest, rest + (top,)]
    for entries in cases:
        assert isinstance(ops.cdr_states(entries)[0], bytes)
        check_cdr_states(entries, list(ops._cdr_children(entries)))


def greedy_run_by_occurrences(entries):
    """The first applicable cds, in canonical order, until none remains."""
    taken = []
    while moves := cds_moves_by_occurrences(entries, occurrence_pairs(entries)):
        pq, entries = moves[0]
        taken.append(pq)
    return entries, len(taken), taken


@given(signed_perms(1, 60))
def test_greedy_cds_run_matches_occurrences(entries):
    assert greedy_cds_run(entries) == greedy_run_by_occurrences(entries)
