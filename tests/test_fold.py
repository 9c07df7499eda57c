"""The move-graph fold and the reachability walk against brute force and
against each other.

Every query built on analysis.fold or analysis.walk must match the
path-by-path enumeration of tests/oracles.py, and both must spend their
budget once per distinct reachable state.  cdr_sorting_lengths answers
from the sortability witness instead; it must match the same enumeration and
spend once per position of the witness run.  An enumeration that runs out
of budget lists only fixed points of the complete answer, with their exact
lengths, after expanding at most budget states.

The walk reports each cdr fixed point at the depth it first reached it, which
is exact only because the cdr move graph is graded: every run from p to a
fixed point s has length rank(M_p) - rank(M_s).  That lemma is checked here
on every small input.  The walk must also expand the same states in the same
order as the fold, so that its answers, its incomplete listings and its
budget boundaries are the fold's (tests/oracles.py keeps the fold's answers).
"""
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdsort import analysis, ops, verify
from cdsort.analysis import (
    BudgetExceededError,
    Tracker,
    cdr_sorting_lengths,
    cds_maximal_lengths,
    cds_reachable_fixed_points,
    enumerate_cdr_fixed_points,
    maximal_sequence_lengths,
)
from cdsort.graph import gf2_rank, overlap_masks
from cdsort.perm import (
    SignedPermutation,
    all_signed_permutations,
    fixtures,
    identity_entries,
    is_identity,
)

from oracles import (
    _extend_fixed_points,
    all_maximal_cdr_runs,
    all_maximal_cds_runs,
    cdr_children,
    cds_children,
    fold_by_comprehension,
    fold_cds_fixed_points,
    fold_fixed_points,
    maximal_sequence_lengths_by_dicts,
    reachable_states,
    signed_perms,
)


def sweep_fixed_points(entries, memo: dict, tracker: Tracker) -> dict:
    """The fixed-point table of a sample-mode rescue or steps sweep, on
    ``memo`` and ``tracker``: verify's fixed-point fold over the group of
    the identity alone, with the table's keys decoded to entries."""
    group = ops.CdrOrbits(len(entries), 1)
    state, k = group.locate(ops.cdr_states(entries)[0])
    assert k == 0
    table = memo.get(state)
    if table is None:
        table = verify._fixed_point_states(state, memo, tracker.spend, group)
    decode = ops.cdr_states(entries)[2]
    return {decode(fp): mask for fp, mask in table.items()}


def test_every_fold_target_matches_brute_force_runs():
    fp_memo: dict = {}
    mask_memo: dict = {}
    sorting_memo: dict = {}
    tracker = Tracker(analysis.DEFAULT_BUDGET)
    for n in range(1, 6):
        for entries in all_signed_permutations(n):
            runs = list(all_maximal_cdr_runs(entries))
            by_end: dict = {}
            for run, end in runs:
                by_end.setdefault(SignedPermutation(end), set()).add(len(run))
            sorting = {len(run) for run, end in runs if is_identity(end)}
            enum = enumerate_cdr_fixed_points(entries)
            assert enum.complete
            assert enum.by_fixed_point == {fp: tuple(sorted(ks)) for fp, ks in by_end.items()}
            assert maximal_sequence_lengths(entries) == Counter(len(run) for run, _ in runs)
            assert cdr_sorting_lengths(entries) == sorting
            # the sweeps' entry points, on memo tables shared across inputs
            shared = sweep_fixed_points(entries, fp_memo, tracker)
            assert {SignedPermutation(fp): analysis.mask_lengths(mask)
                    for fp, mask in shared.items()} == enum.by_fixed_point
            assert analysis.mask_lengths(
                analysis.maximal_length_mask(entries, mask_memo, tracker)
            ) == tuple(sorted({len(run) for run, _ in runs}))
            assert analysis.mask_lengths(
                analysis.sorting_length_mask(entries, sorting_memo, tracker)
            ) == tuple(sorted(sorting))

            cds_runs = list(all_maximal_cds_runs(entries))
            assert cds_maximal_lengths(entries) == frozenset(len(run) for run, _ in cds_runs)
            assert cds_reachable_fixed_points(entries) == frozenset(
                SignedPermutation(end) for _, end in cds_runs)


BUDGET_CASES = [
    fixtures()["u_pisces_1"].entries,
    (1, -5, -2, 4, -3, 6),
    (3, 6, 5, 2, 4, 8, 1, 7),
    (-2, -4, 1, 3),
]


@pytest.mark.parametrize("entries", BUDGET_CASES)
def test_budget_is_one_unit_per_reachable_state(entries):
    states = len(reachable_states(entries, cdr_children))
    maximal_sequence_lengths(entries, budget=states)
    with pytest.raises(BudgetExceededError):
        maximal_sequence_lengths(entries, budget=states - 1)
    assert enumerate_cdr_fixed_points(entries, budget=states).complete
    assert not enumerate_cdr_fixed_points(entries, budget=states - 1).complete
    cds_states = len(reachable_states(entries, cds_children))
    cds_reachable_fixed_points(entries, budget=cds_states)
    with pytest.raises(BudgetExceededError):
        cds_reachable_fixed_points(entries, budget=cds_states - 1)
    # the cds run lengths come from the greedy run: its positions, not the
    # states, are the budget
    steps = ops.greedy_cds_run(entries)[1]
    assert cds_maximal_lengths(entries, budget=steps + 1) == frozenset((steps,))
    with pytest.raises(BudgetExceededError):
        cds_maximal_lengths(entries, budget=steps)


def test_cds_budget_stops_the_greedy_run(monkeypatch):
    # a random all-positive permutation of 600 has a greedy cds run of
    # hundreds of steps; the budget stops it at the first position past it,
    # one arc table per position spent, instead of after the whole run
    entries = tuple(random.Random(6).sample(range(1, 601), 600))
    tables = []

    def counting_arcs(entries):
        tables.append(None)
        return arcs(entries)

    arcs = ops._arcs
    monkeypatch.setattr(ops, "_arcs", counting_arcs)
    for budget in (1, 2):
        tables.clear()
        with pytest.raises(BudgetExceededError):
            cds_maximal_lengths(entries, budget=budget)
        assert len(tables) == budget


@pytest.mark.parametrize("n, state", [(127, bytes), (128, tuple)])
def test_cdr_states_are_bytes_up_to_127_entries(n, state):
    # one oriented pointer, (1, 2): one run, of one move, to the identity
    entries = (-1,) + identity_entries(n)[1:]
    assert type(ops.cdr_states(entries)[0]) is state
    enum = enumerate_cdr_fixed_points(entries)
    assert enum.complete
    assert enum.by_fixed_point == {SignedPermutation(identity_entries(n)): (1,)}
    assert maximal_sequence_lengths(entries) == Counter({1: 1})
    # the sweeps' entry points: the memo holds states, the result entries;
    # the fixed-point fold's tables hold states too
    for query, expected in ((sweep_fixed_points, {identity_entries(n): 0b10}),
                            (analysis.maximal_length_mask, 0b10),
                            (analysis.sorting_length_mask, 0b10)):
        memo: dict = {}
        tracker = Tracker(2)
        assert query(entries, memo, tracker) == expected
        assert tracker.remaining == 0
        assert [type(key) for key in memo] == [state, state]
        tables = [res for res in memo.values() if isinstance(res, dict)]
        assert all(type(fp) is state for table in tables for fp in table)


def _cds_fold_lengths(entries) -> frozenset:
    """The maximal cds run lengths by the fold over the cds move graph."""
    return frozenset(analysis.mask_lengths(
        analysis.maximal_length_mask(entries, {}, Tracker(analysis.DEFAULT_BUDGET),
                                     ops.cds_states)))


@given(signed_perms(1, 10))
def test_cds_maximal_lengths_match_fold(entries):
    assert cds_maximal_lengths(entries) == _cds_fold_lengths(entries)


@pytest.mark.parametrize("name", sorted(fixtures()))
def test_cds_maximal_lengths_match_fold_on_fixtures(name):
    entries = fixtures()[name].entries
    assert cds_maximal_lengths(entries) == _cds_fold_lengths(entries)


def test_sorting_lengths_spend_one_unit_per_witness_position():
    # the sorting lengths come from the sortability witness: a witness of
    # length k answers at budget k + 1 (its run's positions) and not at k
    cases = [*BUDGET_CASES, *(p.entries for p in fixtures().values())]
    cases += [e for n in range(1, 6) for e in all_signed_permutations(n)]
    for entries in cases:
        found, witness = analysis.cdr_sortable_search(entries)
        if not found:
            continue
        k = len(witness)
        assert cdr_sorting_lengths(entries, budget=k + 1) == frozenset((k,))
        with pytest.raises(BudgetExceededError):
            cdr_sorting_lengths(entries, budget=k)


@pytest.fixture
def expanded(monkeypatch):
    """The states expanded, as entries: each call of a cdr kernel that walk
    and fold can run, in order, a bytes state decoded.  _cdr_children calls
    cdr_moves once per state, so counting both would count it twice.  The
    test fails when no call was counted at all, so a kernel missing here
    cannot pass unseen."""
    calls = []
    by_kernel = Counter()
    for name, decode in (("cdr_moves", None), ("_cdr_children_bytes", ops._decode)):
        kernel = getattr(ops, name)

        def counted(state, kernel=kernel, name=name, decode=decode):
            calls.append(state if decode is None else decode(state))
            by_kernel[name] += 1
            return kernel(state)

        monkeypatch.setattr(ops, name, counted)
    yield calls
    assert by_kernel, "no cdr kernel call was counted"


@pytest.mark.parametrize("entries, budget", [
    *((fixtures()["u_pisces_1"].entries, budget) for budget in (50, 1_000, 4_099)),
    *((entries, len(reachable_states(entries, cdr_children)) - 1) for entries in BUDGET_CASES),
])
def test_incomplete_enumeration_lists_exact_fixed_points(entries, budget, expanded):
    complete = enumerate_cdr_fixed_points(entries).by_fixed_point
    expanded.clear()
    enum = enumerate_cdr_fixed_points(entries, budget=budget)
    assert not enum.complete
    assert len(expanded) <= budget
    for fp, lengths in enum.by_fixed_point.items():
        assert lengths == complete[fp]
    if budget == 50:
        assert enum.by_fixed_point


def _listing(enum) -> tuple:
    """An enumeration as its completeness and its items in order."""
    return enum.complete, list(enum.by_fixed_point.items())


def test_cdr_move_graph_is_graded():
    memo: dict = {}
    tracker = Tracker(analysis.DEFAULT_BUDGET)
    # the identity fold reads the identity's entry of this table, at the
    # same spend, on a memo of its own
    sorting_memo: dict = {}
    sorting_tracker = Tracker(analysis.DEFAULT_BUDGET)
    for n in range(1, 7):
        for entries in all_signed_permutations(n):
            rank = gf2_rank(*overlap_masks(entries))
            fps = sweep_fixed_points(entries, memo, tracker)
            for fp, mask in fps.items():
                assert mask == 1 << rank - gf2_rank(*overlap_masks(fp)), (entries, fp)
            sorting = analysis.sorting_length_mask(entries, sorting_memo, sorting_tracker)
            assert sorting == fps.get(identity_entries(n), 0), entries
            assert sorting_tracker.remaining == tracker.remaining, entries


def _fold_sorting_lengths(fold_enum, n) -> frozenset:
    """cdr_sorting_lengths as the fold answers it: the run lengths of the
    identity among the fold's fixed points."""
    return frozenset(fold_enum.by_fixed_point.get(SignedPermutation(identity_entries(n)), ()))


@pytest.mark.slow
def test_walk_queries_match_fold_exhaustively(expanded):
    for n in range(1, 7):
        for entries in all_signed_permutations(n):
            expanded.clear()
            expected = fold_fixed_points(entries)
            fold_order = expanded[:]
            expanded.clear()
            assert _listing(enumerate_cdr_fixed_points(entries)) == _listing(expected)
            assert expanded == fold_order


@pytest.mark.parametrize("entries", BUDGET_CASES[1:])
def test_partial_listing_matches_fold_at_every_budget(entries):
    for budget in range(1, len(reachable_states(entries, cdr_children)) + 1):
        assert _listing(enumerate_cdr_fixed_points(entries, budget)) == _listing(
            fold_fixed_points(entries, budget))


@pytest.mark.parametrize("budget", [10, 50, 100, 1_000, 4_099, 8_197])
def test_partial_listing_matches_fold_on_u_pisces(budget):
    entries = fixtures()["u_pisces_1"].entries
    enum = enumerate_cdr_fixed_points(entries, budget)
    assert not enum.complete
    assert _listing(enum) == _listing(fold_fixed_points(entries, budget))


@given(signed_perms(1, 10), st.integers(1, 3_000))
def test_walk_queries_match_fold(entries, budget):
    assert _listing(enumerate_cdr_fixed_points(entries, budget)) == _listing(
        fold_fixed_points(entries, budget))
    assert cdr_sorting_lengths(entries) == _fold_sorting_lengths(
        fold_fixed_points(entries), len(entries))
    assert cds_reachable_fixed_points(entries) == fold_cds_fixed_points(entries)


# ---------------------------------------------------------------------------
# the one-frame fold and the packed run counts against the fold and the
# counts they replaced (tests/oracles.py keeps those verbatim)


@pytest.mark.slow
def test_run_counts_match_dict_fold_exhaustively():
    for n in range(1, 7):
        for entries in all_signed_permutations(n):
            counts = maximal_sequence_lengths(entries)
            assert counts == maximal_sequence_lengths_by_dicts(entries), entries
            assert list(counts) == sorted(counts)


@given(signed_perms(1, 10))
def test_run_counts_match_dict_fold(entries):
    assert maximal_sequence_lengths(entries) == maximal_sequence_lengths_by_dicts(entries)


@pytest.mark.parametrize("name", ["u_pisces_1", "u_pisces_2"])
def test_run_counts_match_dict_fold_on_fixtures(name):
    entries = fixtures()[name].entries
    assert maximal_sequence_lengths(entries) == maximal_sequence_lengths_by_dicts(entries)


FOLD_TARGETS = {
    "fixed points": (ops._cdr_children, lambda fp: {fp: 1}, _extend_fixed_points),
    "cdr lengths": (ops._cdr_children, lambda _: 1, analysis._extend_lengths),
    "sorting lengths": (ops._cdr_children, lambda s: int(is_identity(s)), analysis._extend_lengths),
    "cds lengths": (ops._cds_children, lambda _: 1, analysis._extend_lengths),
}


@pytest.mark.parametrize("target", FOLD_TARGETS)
def test_fold_matches_comprehension_fold_on_shared_memos(target):
    # the same results, the same memo items in the same insertion order, and
    # the same budget spent, input after input on one shared memo
    children, leaf, combine = FOLD_TARGETS[target]
    memo: dict = {}
    old_memo: dict = {}
    tracker = Tracker(analysis.DEFAULT_BUDGET)
    old_tracker = Tracker(analysis.DEFAULT_BUDGET)
    for n in range(1, 6):
        for entries in all_signed_permutations(n):
            res = analysis.fold(entries, memo, tracker, children, leaf, combine)
            old = fold_by_comprehension(entries, old_memo, old_tracker, children, leaf, combine)
            assert res == old, entries
            assert tracker.remaining == old_tracker.remaining, entries
    assert list(memo.items()) == list(old_memo.items())


def _fold_budgets() -> list:
    """(entries, budget) pairs: every budget up to one past the reachable
    states on the small budget cases, and some around u_pisces_1's 8,198."""
    cases = [(entries, budget) for entries in BUDGET_CASES[1:]
             for budget in range(1, len(reachable_states(entries, cdr_children)) + 2)]
    return cases + [(BUDGET_CASES[0], budget) for budget in (10, 50, 4_099, 8_197, 8_198)]


@pytest.mark.parametrize("entries, budget", _fold_budgets())
def test_fold_matches_comprehension_fold_at_budget(entries, budget):
    # an exhausted budget leaves the same partial memo, in the same order
    children, leaf, combine = FOLD_TARGETS["fixed points"]
    outcomes = []
    for fold in (analysis.fold, fold_by_comprehension):
        memo: dict = {}
        tracker = Tracker(budget)
        try:
            res = fold(entries, memo, tracker, children, leaf, combine)
        except BudgetExceededError:
            res = None
        outcomes.append((res, tracker.remaining, list(memo.items())))
    assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# the sweeps' entry points, which fold over the states of ops.cdr_states or
# ops.cds_states, against analysis.fold over entries tuples on their
# FOLD_TARGETS entry: (entry point, the states it folds over)


SWEEP_QUERIES = {
    "fixed points": (sweep_fixed_points, ops.cdr_states),
    "cdr lengths": (analysis.maximal_length_mask, ops.cdr_states),
    "sorting lengths": (analysis.sorting_length_mask, ops.cdr_states),
    "cds lengths": (lambda entries, memo, tracker: analysis.maximal_length_mask(
        entries, memo, tracker, ops.cds_states), ops.cds_states),
}


def _decoded(memo: dict, states, entries) -> list:
    """A memo's items in insertion order, decoded as the states of
    states(entries): its keys, and a fixed-point table's keys."""
    decode = states(entries)[2]
    return [(decode(state), {decode(fp): mask for fp, mask in res.items()}
             if isinstance(res, dict) else res) for state, res in memo.items()]


def _check_result_keys(res) -> None:
    if isinstance(res, dict):
        assert all(type(fp) is tuple for fp in res), res


@pytest.mark.parametrize("query", SWEEP_QUERIES)
def test_sweep_queries_match_tuple_fold_on_shared_memos(query):
    # input after input on one shared memo: the same result, the same budget
    # left, and as many memo items; with the same items in the same order at
    # the end, each input inserted the same states in the same order
    entry_point, states = SWEEP_QUERIES[query]
    children, leaf, combine = FOLD_TARGETS[query]
    memo: dict = {}
    old_memo: dict = {}
    tracker = Tracker(analysis.DEFAULT_BUDGET)
    old_tracker = Tracker(analysis.DEFAULT_BUDGET)
    for n in range(1, 7):
        for entries in all_signed_permutations(n):
            res = entry_point(entries, memo, tracker)
            old = analysis.fold(entries, old_memo, old_tracker, children, leaf, combine)
            assert res == old, entries
            _check_result_keys(res)
            assert tracker.remaining == old_tracker.remaining, entries
            assert len(memo) == len(old_memo), entries
    assert _decoded(memo, states, (1,)) == list(old_memo.items())


@given(st.sampled_from(sorted(SWEEP_QUERIES)), signed_perms(7, 12), st.integers(1, 3_000))
def test_sweep_queries_match_tuple_fold(query, entries, budget):
    # a cold memo, at a budget that may run out: the same outcome, the same
    # budget left, and the same memo items in the same order
    entry_point, states = SWEEP_QUERIES[query]
    children, leaf, combine = FOLD_TARGETS[query]
    outcomes = []
    for run in (lambda memo, tracker: entry_point(entries, memo, tracker),
                lambda memo, tracker: analysis.fold(entries, memo, tracker,
                                                    children, leaf, combine)):
        memo: dict = {}
        tracker = Tracker(budget)
        try:
            res = run(memo, tracker)
        except BudgetExceededError:
            res = None
        _check_result_keys(res)
        outcomes.append((res, tracker.remaining, memo))
    (res, remaining, memo), (old, old_remaining, old_memo) = outcomes
    assert res == old
    assert remaining == old_remaining
    assert _decoded(memo, states, entries) == list(old_memo.items())
