"""The polynomial sortability decision against the exhaustive DP oracle.

cdr_sortable_search and reverse_cdr_sortable_search decide by replaying a
greedy-safe total sequence; the memoized move-graph DP in analysis stays the
ground truth.  The exhaustive checks stop at n = 6 so that they fit in tier-1;
hypothesis covers n = 7..10.
"""
import pytest
from hypothesis import given

from cdsort import analysis, ops
from cdsort.analysis import (
    cdr_sortable_search,
    cdr_sorting_lengths,
    cdr_steps,
    reverse_cdr_sortable_search,
)
from cdsort.cli import main
from cdsort.perm import (
    all_signed_permutations,
    fixtures,
    format_entries,
    identity_entries,
    reverse_identity_entries,
)

from oracles import DEEP, signed_perms


def other_strand(entries):
    return tuple(-v for v in reversed(entries))


def replay(entries, witness):
    for i in witness:
        entries = ops._apply_cdr(entries, i)
    return entries


def dp_fixed_points(entries, memo, tracker):
    """The DP's table: fixed point -> frozenset of the lengths of the runs
    reaching it."""
    return {fp: frozenset(analysis.mask_lengths(mask))
            for fp, mask in analysis.fixed_point_masks(entries, memo, tracker).items()}


def check_against_oracle(entries, fixed_points):
    """Both targets agree with the DP's fixed-point table of entries; every
    witness replays to its target with a length the DP also finds.  The
    reverse answer is the answer for the other strand."""
    n = len(entries)
    reverse = reverse_cdr_sortable_search(entries)
    assert reverse == cdr_sortable_search(other_strand(entries))
    for (sortable, witness), target in ((cdr_sortable_search(entries), identity_entries(n)),
                                        (reverse, reverse_identity_entries(n))):
        lengths = fixed_points.get(target)
        assert sortable is (lengths is not None), (entries, target)
        if sortable:
            assert replay(entries, witness) == target
            assert len(witness) in lengths
        else:
            assert witness is None
    if identity_entries(n) in fixed_points:
        assert {cdr_steps(entries).total} == fixed_points[identity_entries(n)]


def test_other_strand_keeps_moves_and_commutes_with_cdr_exhaustively():
    for n in range(1, 7):
        for entries in all_signed_permutations(n):
            strand = other_strand(entries)
            moves = ops._cdr_moves(entries)
            assert ops._cdr_moves(strand) == moves
            for i in moves:
                assert ops._apply_cdr(strand, i) == other_strand(ops._apply_cdr(entries, i))


@pytest.mark.slow
def test_search_matches_dp_oracle_exhaustively():
    memo: dict = {}
    tracker = analysis.Tracker(analysis.DEFAULT_BUDGET)
    for n in range(1, 7):
        for entries in all_signed_permutations(n):
            check_against_oracle(entries, dp_fixed_points(entries, memo, tracker))


@given(signed_perms(7, 10))
def test_search_matches_dp_oracle_on_larger_permutations(entries):
    fixed_points = dp_fixed_points(entries, {}, analysis.Tracker(analysis.DEFAULT_BUDGET))
    check_against_oracle(entries, fixed_points)
    assert cdr_sorting_lengths(entries) == fixed_points.get(identity_entries(len(entries)),
                                                            frozenset())


def test_family_fixtures_are_decided():
    table = fixtures()
    for name, length in (("sigma_16", 32), ("sigma_20", 40), ("sigma_21", 42)):
        sortable, witness = cdr_sortable_search(table[name])
        assert sortable and len(witness) == length
        assert replay(table[name].entries, witness) == identity_entries(len(table[name]))
    assert cdr_sortable_search(table["tau_21"]) == (False, None)


def test_deep_input_is_decided_without_recursion():
    sortable, witness = cdr_sortable_search(DEEP, budget=100_000)
    assert sortable and len(witness) == 1000
    assert replay(DEEP, witness) == identity_entries(len(DEEP))


def test_deep_input_under_small_budget_is_undecided():
    # the witness run visits 1001 positions
    assert cdr_sortable_search(DEEP, budget=500) == (None, None)


def test_cli_sorts_deep_input(capsys):
    code = main(["sort", format_entries(DEEP), "--budget", "100000"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[-1] == "status sorted steps=1000"
