import random
from collections import Counter

import pytest

from cdsort import ops
from cdsort.analysis import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    TheoremViolationError,
    Tracker,
    cdr_sortable_criterion,
    cdr_sortable_search,
    cdr_sorting_lengths,
    cdr_steps,
    cds_maximal_lengths,
    cds_reachable_fixed_points,
    cds_sortable_greedy,
    classify_sequence,
    criterion_discrepancies,
    enumerate_cdr_fixed_points,
    extend_to_total,
    greedy_cds_trace,
    greedy_safe_total_sequence,
    indiscriminate_cdr_trace,
    maximal_sequence_lengths,
    parity,
    reverse_cdr_sortable_search,
    verify_rescue,
)
from cdsort.games import GameState, winner_by_minimax
from cdsort.graph import build_overlap_graph, gcdr, has_unoriented_component
from cdsort.ops import SortTrace, is_cdr_fixed_point
from cdsort.perm import (
    SignedPermutation,
    all_signed_permutations,
    fixtures,
    identity_entries,
    random_signed_permutation,
    sigma,
    tau,
)
from cdsort.verify import probe_total_sequence_lengths, run_sweep

from oracles import (
    all_maximal_cdr_runs,
    cdr_run_lengths_to,
    cdr_sorting_run_lengths,
    extend_to_total_by_sizes,
    fixed_point_masks,
)

U1 = fixtures()["u_pisces_1"]
ONOVA = fixtures()["o_nova_actin1"]
ATBP = fixtures()["alpha_tbp"]
PI6 = (1, 3, 5, -2, -6, 4)
GAMMA6 = (1, 3, 5, 6, 2, 4)

# the worked 14-pointer sorting run for u_pisces_1, low-index form
U1_SORTING_RUN = (4, 3, 2, 5, 6, 1, 7, 8, 9, 11, 12, 13, 14, 10)
# same run deviating to pointer (10,11) right after (12,13)
U1_DEVIATED_RUN = U1_SORTING_RUN[:11] + (10,)
U1_DEVIATED_FP = tuple(range(1, 14)) + (15, 14)


# ---------------------------------------------------------------------------
# sortability search


def test_search_identity_trivially_sortable():
    assert cdr_sortable_search((1, 2, 3)) == (True, ())


def test_search_swapped_pair_not_sortable():
    assert cdr_sortable_search((2, 1)) == (False, None)


def test_search_u_pisces_witness():
    sortable, witness = cdr_sortable_search(U1)
    assert sortable and len(witness) == 14
    trace = SortTrace.from_moves(U1, [("cdr", i) for i in witness])
    assert trace.final.is_identity()


def test_search_undecided_on_tiny_budget():
    assert cdr_sortable_search(U1, budget=3) == (None, None)


def test_second_precursor_is_sortable_too():
    u2 = fixtures()["u_pisces_2"]
    sortable, witness = cdr_sortable_search(u2)
    assert sortable and len(witness) == 14
    assert cdr_sorting_lengths(u2) == frozenset({14})


def test_search_matches_brute_force_exhaustively():
    for n in range(1, 5):
        for entries in all_signed_permutations(n):
            expected = bool(cdr_sorting_run_lengths(entries))
            assert cdr_sortable_search(entries)[0] is expected
            assert cdr_sortable_search(entries, reduce_adjacencies=True)[0] is expected


def test_reduced_search_on_large_fixture():
    assert cdr_sortable_search(U1, reduce_adjacencies=True) == (True, None)


def test_reverse_search_tau_family():
    assert reverse_cdr_sortable_search(tau(1)) == (True, (1,))
    sortable, witness = reverse_cdr_sortable_search(tau(2))
    assert sortable and len(witness) == 3
    # brute force: every maximal run on tau(2) ends at the reverse identity in 3 moves
    assert cdr_run_lengths_to(tau(2).entries, (-4, -3, -2, -1)) == {3}


def test_reverse_search_identity_has_no_moves():
    assert reverse_cdr_sortable_search((1, 2)) == (False, None)


def test_sorting_lengths():
    assert cdr_sorting_lengths(U1) == frozenset({14})
    assert cdr_sorting_lengths(PI6) == frozenset({5})
    assert cdr_sorting_lengths((2, 1)) == frozenset()
    assert cdr_sorting_lengths((1, 2, 3)) == frozenset({0})


# ---------------------------------------------------------------------------
# graph criterion vs search


def test_criterion_examples():
    assert cdr_sortable_criterion(U1)
    assert not cdr_sortable_criterion(ONOVA)
    assert not cdr_sortable_criterion((-6, 3, -4, 2, 5, -1, 7, 9, 8, 10))


def test_criterion_disagrees_on_swapped_pair():
    # [2, 1]: an isolated unoriented vertex, no component, no move, not sorted
    assert cdr_sortable_criterion((2, 1))
    assert cdr_sortable_search((2, 1))[0] is False
    found = {p.entries for p, _, _ in criterion_discrepancies(2)}
    # every length-2 stuck case: a lone arc that is not a positive adjacency
    assert found == {(2, 1), (2, -1), (-2, 1), (-2, -1), (-1, -2)}


def test_criterion_discrepancies_are_one_sided():
    # search never says yes where the criterion says no
    for n in range(1, 5):
        for _, crit, sortable in criterion_discrepancies(n):
            assert crit and not sortable


def _discrepancies_by_fixed_points(n, budget):
    """criterion_discrepancies as the fixed-point fold answers it, sortable
    when the identity is among the fixed points, on one shared memo; with
    the budget it spent."""
    memo: dict = {}
    tracker = Tracker(budget)
    out = []
    for entries in all_signed_permutations(n):
        crit = cdr_sortable_criterion(entries)
        sortable = identity_entries(n) in fixed_point_masks(entries, memo, tracker)
        if crit != sortable:
            out.append((SignedPermutation(entries), crit, sortable))
    return out, budget - tracker.remaining


def test_criterion_discrepancies_match_fixed_point_fold():
    # the same hits, at exactly the budget the fixed-point fold spends
    for n in range(1, 6):
        expected, spent = _discrepancies_by_fixed_points(n, DEFAULT_BUDGET)
        assert criterion_discrepancies(n) == expected
        assert criterion_discrepancies(n, budget=spent) == expected
        with pytest.raises(BudgetExceededError):
            criterion_discrepancies(n, budget=spent - 1)


# ---------------------------------------------------------------------------
# fixed points and maximal sequences


def test_enumerate_fixed_points_on_six_entry_example():
    enum = enumerate_cdr_fixed_points(PI6)
    assert enum.complete
    table = {fp.entries: lengths for fp, lengths in enum.by_fixed_point.items()}
    assert table[GAMMA6] == (1,)
    assert table[(1, 2, 3, 4, 5, 6)] == (5,)
    assert table[(1, 2, 3, 5, 6, 4)] == (3,)
    assert all(is_cdr_fixed_point(fp) for fp in table)


def test_enumerate_fixed_points_identity():
    enum = enumerate_cdr_fixed_points((1, 2, 3))
    assert enum.complete
    assert {fp.entries: lengths for fp, lengths in enum.by_fixed_point.items()} == {
        (1, 2, 3): (0,)
    }


def test_enumerate_fixed_points_u_pisces():
    enum = enumerate_cdr_fixed_points(U1)
    assert enum.complete
    table = {fp.entries: lengths for fp, lengths in enum.by_fixed_point.items()}
    assert table[tuple(range(1, 16))] == (14,)
    assert U1_DEVIATED_FP in table


def test_enumerate_fixed_points_partial_budget():
    enum = enumerate_cdr_fixed_points(U1, budget=50)
    assert not enum.complete


def test_maximal_lengths_match_brute_force():
    expected = Counter(len(run) for run, _ in all_maximal_cdr_runs(PI6))
    got = maximal_sequence_lengths(PI6)
    assert got == expected
    assert set(got) == {1, 3, 5}


def test_maximal_lengths_identity_and_sigma():
    assert maximal_sequence_lengths((1, 2, 3, 4)) == Counter({0: 1})
    got = maximal_sequence_lengths(sigma(2))
    assert set(got) == {4}
    assert got[4] == 24  # all orders of the four isolated oriented vertices


def test_parity_examples():
    assert parity(PI6) == "odd"
    assert parity((1, 2, 3)) == "even"
    for n in range(1, 7):
        assert parity(sigma(n)) == "even"
        assert parity(tau(n)) == "odd"


# ---------------------------------------------------------------------------
# indiscriminate and greedy runs


def test_indiscriminate_run_on_actin_precursor():
    trace = indiscriminate_cdr_trace(ONOVA)
    assert trace.final.entries == (-8, -7, -6, -4, -5, -3, -2, -1)
    assert is_cdr_fixed_point(trace.final)


def test_indiscriminate_run_respects_prefix():
    trace = indiscriminate_cdr_trace(U1, prefix_moves=U1_DEVIATED_RUN)
    assert len(trace.steps) == 12
    assert trace.final.entries == U1_DEVIATED_FP


def test_u_pisces_listed_run_sorts():
    trace = SortTrace.from_moves(U1, [("cdr", i) for i in U1_SORTING_RUN])
    assert trace.final.is_identity()


def test_indiscriminate_run_random_policy_is_seeded():
    import random

    a = indiscriminate_cdr_trace(PI6, rng=random.Random(0))
    b = indiscriminate_cdr_trace(PI6, rng=random.Random(0))
    assert a.moves() == b.moves()
    assert is_cdr_fixed_point(a.final)
    assert len(a.steps) in {1, 3, 5}


def test_indiscriminate_run_applies_each_move_once(monkeypatch):
    calls = []
    kernel = ops.cdr_step

    def counted(entries, i):
        calls.append(i)
        return kernel(entries, i)

    monkeypatch.setattr(ops, "cdr_step", counted)
    trace = indiscriminate_cdr_trace(U1)
    assert len(trace.steps) == 12
    assert calls == [step.move for step in trace.steps]


@pytest.mark.parametrize("run, p", [
    (indiscriminate_cdr_trace, (-2, 1)),
    (indiscriminate_cdr_trace, (3, -1, 4, -2, 5, 6)),
    (cdr_steps, (3, -1, 4, -2, 5, 6)),
])
@pytest.mark.parametrize("at_end", [False, True])
def test_prefix_pointer_out_of_range(run, p, at_end):
    n = len(p)
    pointer = n if at_end else 0
    with pytest.raises(ValueError, match=rf"^pointer {pointer} out of range 1\.\.{n - 1}$"):
        run(p, prefix_moves=[pointer])


def test_cds_greedy_examples():
    assert cds_sortable_greedy(GAMMA6) == (True, 2)
    assert cds_sortable_greedy((2, 1)) == (False, 0)
    assert cds_sortable_greedy(ATBP)[0] is True


def test_cds_greedy_alpha_tbp_against_move_tree_oracle():
    ok, m = cds_sortable_greedy(ATBP)
    assert ok
    # every maximal cds run from the precursor sorts it, in the same number of steps
    assert cds_maximal_lengths(ATBP) == frozenset({m})
    assert cds_reachable_fixed_points(ATBP) == frozenset({SignedPermutation.identity(12)})


def test_cds_greedy_reverse_target():
    fp = indiscriminate_cdr_trace(ONOVA).final
    assert cds_sortable_greedy(fp, target="reverse_identity") == (True, 1)
    trace, reached = greedy_cds_trace(fp, target="reverse_identity")
    assert reached and len(trace.steps) == 1
    assert trace.final.is_reverse_identity()


def test_cds_greedy_rejects_unknown_target():
    with pytest.raises(ValueError, match="unknown target"):
        cds_sortable_greedy((1, 2), target="elsewhere")


# ---------------------------------------------------------------------------
# rescue and step counts


def test_rescue_six_entry_example():
    report = verify_rescue(PI6)
    assert report.complete and report.all_rescued
    by_entries = {fp.permutation.entries: fp for fp in report.fixed_points}
    assert by_entries[GAMMA6].cds_steps == 2
    assert by_entries[(1, 2, 3, 4, 5, 6)].cds_steps == 0


def test_rescue_u_pisces_deviated_fixed_point():
    report = verify_rescue(U1)
    assert report.complete and report.all_rescued
    by_entries = {fp.permutation.entries: fp for fp in report.fixed_points}
    assert by_entries[U1_DEVIATED_FP].cds_steps == 1
    assert by_entries[U1_DEVIATED_FP].rescued


def test_rescue_identity():
    report = verify_rescue((1, 2, 3))
    assert report.all_rescued
    assert [fp.cds_steps for fp in report.fixed_points] == [0]


def test_rescue_spends_one_budget():
    # a 14-move witness (15 positions) and a walk of 8,198 states share it
    assert not verify_rescue(U1, budget=15 + 8198 - 1).complete
    assert verify_rescue(U1, budget=15 + 8198).complete
    with pytest.raises(BudgetExceededError):
        verify_rescue(U1, budget=14)


def test_rescue_requires_sortable_input():
    with pytest.raises(ValueError, match="not cdr-sortable"):
        verify_rescue((2, 1))


def test_cdr_steps_identity():
    assert cdr_steps((1, 2, 3)) == (0, 0, 0)


def test_cdr_steps_u_pisces_deviated():
    counts = cdr_steps(U1, prefix_moves=U1_DEVIATED_RUN)
    assert counts == (12, 1, 14)


def test_cdr_steps_u_pisces_canonical():
    assert cdr_steps(U1).total == 14


def test_cdr_steps_six_entry_example_via_short_fixed_point():
    assert cdr_steps(PI6, prefix_moves=(5,)) == (1, 2, 5)


def test_cdr_steps_rejects_unsortable():
    with pytest.raises(ValueError, match="not cdr-sortable"):
        cdr_steps((2, 1))


# ---------------------------------------------------------------------------
# oriented sequences


def test_classify_sequence():
    assert classify_sequence(PI6, (5,)) == "maximal"
    assert classify_sequence(PI6, (1, 2)) == "oriented"
    assert classify_sequence(PI6, (1, 3, 4, 2, 5)) == "total"
    assert classify_sequence(PI6, (3,)) == "invalid"
    assert classify_sequence((1, 2, 3), ()) == "total"
    # terminal with crossing arcs left over: maximal but not total
    assert classify_sequence(GAMMA6, ()) == "maximal"
    # all arcs nested: total-terminal even though the permutation is unsorted
    assert classify_sequence((3, 4, 1, 2), ()) == "total"


def test_greedy_safe_total_sequence():
    seq = greedy_safe_total_sequence(U1)
    assert len(seq) == 14
    assert classify_sequence(U1, seq) == "total"
    trace = SortTrace.from_moves(U1, [("cdr", i) for i in seq])
    assert trace.final.is_identity()


def test_greedy_safe_small_cases():
    assert len(greedy_safe_total_sequence(sigma(1))) == 2
    assert greedy_safe_total_sequence((1, 2, 3)) == ()
    # both orders of sigma(1)'s two isolated oriented vertices are total
    assert classify_sequence(sigma(1), (1, 2)) == "total"
    assert classify_sequence(sigma(1), (2, 1)) == "total"


def test_greedy_safe_rejects_unoriented_component():
    with pytest.raises(ValueError, match="unoriented component"):
        greedy_safe_total_sequence(ONOVA)


def test_extend_to_total_from_three_term_sequence():
    extended = extend_to_total(PI6, (1, 3, 5))
    assert extended == (1, 3, 4, 2, 5)
    assert classify_sequence(PI6, extended) == "total"


def test_extend_to_total_from_single_maximal_vertex():
    extended = extend_to_total(PI6, (5,))
    assert len(extended) == 5
    assert extended[-1] == 5
    assert (len(extended) - 1) % 2 == 0
    assert classify_sequence(PI6, extended) == "total"


def test_extend_to_total_keeps_sequence_order():
    maxseq = (2, 1, 5)
    assert classify_sequence(PI6, maxseq) == "maximal"
    extended = extend_to_total(PI6, maxseq)
    assert classify_sequence(PI6, extended) == "total"
    it = iter(extended)
    assert all(v in it for v in maxseq)  # original pointers appear in order


def test_extend_to_total_passes_through_total_input():
    assert extend_to_total(PI6, (1, 3, 4, 2, 5)) == (1, 3, 4, 2, 5)


def test_extend_to_total_rejects_non_maximal():
    with pytest.raises(ValueError, match="not maximal"):
        extend_to_total(PI6, (1,))
    with pytest.raises(ValueError, match="not maximal"):
        extend_to_total(PI6, (3,))


def test_extend_to_total_rejects_unoriented_terminal_graph():
    # gamma's graph has crossing arcs but no oriented vertex: the empty
    # sequence is maximal yet nothing can be inserted
    with pytest.raises(ValueError, match="no oriented vertex"):
        extend_to_total(GAMMA6, ())


def test_extend_to_total_rejects_unoriented_component():
    # a maximal sequence cannot become total while an unoriented component,
    # which no move touches, remains
    entries = (-5, -3, 1, 2, -6, -4)
    assert classify_sequence(entries, (2,)) == "maximal"
    with pytest.raises(ValueError, match="unoriented component; no total sequence exists"):
        extend_to_total(entries, (2,))


def test_extend_to_total_length_matches_total_length():
    # over all length-4 inputs without unoriented components: any greedily
    # reached maximal sequence extends to a total one of the invariant length
    from cdsort.graph import build_overlap_graph, gcdr, has_unoriented_component

    for entries in all_signed_permutations(4):
        g = build_overlap_graph(entries)
        if has_unoriented_component(g):
            continue
        total_length = len(greedy_safe_total_sequence(entries))
        seq = []
        h = g
        while h.oriented:
            v = min(h.oriented)
            seq.append(v)
            h = gcdr(h, v)
        if classify_sequence(entries, tuple(seq)) != "maximal":
            continue
        extended = extend_to_total(entries, tuple(seq))
        assert classify_sequence(entries, extended) == "total"
        assert len(extended) == total_length
        assert (len(extended) - len(seq)) % 2 == 0


def _terminal_sequences(g, prefix=()):
    """Every sequence of g's vertices, each oriented at its turn, that ends
    with no oriented vertex left (maximal or total)."""
    if not g.oriented:
        yield prefix
    for v in sorted(g.oriented):
        yield from _terminal_sequences(gcdr(g, v), prefix + (v,))


def _random_terminal_sequence(rng, g):
    seq = []
    while g.oriented:
        seq.append(rng.choice(sorted(g.oriented)))
        g = gcdr(g, seq[-1])
    return tuple(seq)


def _extend_outcome(extend, entries, seq):
    try:
        return extend(entries, seq)
    except Exception as exc:
        return type(exc)


def _counted_extensions(monkeypatch):
    """Count the budget units spent by each call, through Tracker.spend."""
    spent = []
    spend = Tracker.spend

    def counted(self):
        spent.append(None)
        spend(self)

    monkeypatch.setattr(Tracker, "spend", counted)
    return spent


def _check_extension(entries, seq, spent):
    """The outcome of extend_to_total, checked against the size loop's: the
    same, except a ValueError where the size loop reports a theorem violation
    on a graph with an unoriented component."""
    spent.clear()
    old = _extend_outcome(extend_to_total_by_sizes, entries, seq)
    old_spent = len(spent)
    if old is TheoremViolationError and has_unoriented_component(build_overlap_graph(entries)):
        old = ValueError
    spent.clear()
    new = _extend_outcome(extend_to_total, entries, seq)
    assert new == old, (entries, seq)
    assert len(spent) <= old_spent, (entries, seq)
    return new


def test_extend_to_total_matches_size_loop_exhaustive_n5(monkeypatch):
    # every terminal sequence, and the empty one, of every input with n <= 5:
    # the same extension or the same exception type, at no more budget, and
    # never a theorem violation
    spent = _counted_extensions(monkeypatch)
    extended = 0
    for n in range(1, 6):
        for entries in all_signed_permutations(n):
            g = build_overlap_graph(entries)
            for seq in {(), *_terminal_sequences(g)}:
                result = _check_extension(entries, seq, spent)
                assert result is not TheoremViolationError, (entries, seq)
                extended += isinstance(result, tuple) and result != seq
    assert extended > 1000


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_extend_to_total_matches_size_loop_sampled(n, monkeypatch):
    # random maximal sequences, drawn from random plays to a terminal
    spent = _counted_extensions(monkeypatch)
    rng = random.Random(n)
    maximal = extended = 0
    while maximal < 300:
        entries = random_signed_permutation(rng, n)
        seq = _random_terminal_sequence(rng, build_overlap_graph(entries))
        if seq and classify_sequence(entries, seq) == "maximal":
            extended += isinstance(_check_extension(entries, seq, spent), tuple)
            maximal += 1
    assert extended > 200


def test_extend_to_total_on_a_deep_insertion_needs_no_recursion():
    # 500 copies of PI6, copy j shifted by 6j: rank 2,500 against a maximal
    # sequence of 500, so the insertion is 2,000 vertices deep, past the
    # recursion limit; the search runs out of budget instead
    entries = tuple(v + 6 * j if v > 0 else v - 6 * j for j in range(500) for v in PI6)
    with pytest.raises(BudgetExceededError):
        extend_to_total(entries, range(5, 3000, 6), budget=10_000)


def test_budget_errors_are_loud():
    # every budgeted entry point but the two wrappers that report exhaustion
    # as a value (the sortability searches, enumerate_cdr_fixed_points)
    with pytest.raises(BudgetExceededError):
        cdr_sorting_lengths(U1, budget=5)
    with pytest.raises(BudgetExceededError):
        maximal_sequence_lengths(U1, budget=5)
    with pytest.raises(BudgetExceededError):
        verify_rescue(U1, budget=5)
    with pytest.raises(BudgetExceededError):
        # U1's greedy cds run is 4 steps, 5 positions
        cds_maximal_lengths(U1, budget=4)
    with pytest.raises(BudgetExceededError):
        cds_reachable_fixed_points(U1, budget=5)
    with pytest.raises(BudgetExceededError):
        criterion_discrepancies(3, budget=5)
    with pytest.raises(BudgetExceededError):
        cdr_steps(U1, budget=5)
    with pytest.raises(BudgetExceededError):
        extend_to_total(PI6, (5,), budget=1)
    with pytest.raises(BudgetExceededError):
        winner_by_minimax(GameState(build_overlap_graph(PI6)), budget=1)
    with pytest.raises(BudgetExceededError):
        run_sweep("parity", 3, exhaustive=True, budget=5)
    with pytest.raises(BudgetExceededError):
        probe_total_sequence_lengths(5, 6, seed=0, budget=1)


# ---------------------------------------------------------------------------
# cds move-tree invariant, exhaustively at the largest affordable size


def test_cds_same_length_exhaustive_n6():
    from cdsort.analysis import Tracker, mask_lengths, maximal_length_mask

    memo: dict = {}
    tracker = Tracker(10_000_000)
    for entries in all_signed_permutations(6):
        lengths = mask_lengths(maximal_length_mask(entries, memo, tracker, ops.cds_states))
        assert len(lengths) == 1
        # so cds_maximal_lengths may answer from the greedy run
        assert cds_maximal_lengths(entries) == frozenset(lengths)
