import random
from collections import Counter

import pytest
from hypothesis import given

from cdsort.ops import (
    NotApplicableError,
    SortTrace,
    applicable_cdr_moves,
    applicable_cds_moves,
    apply_cdr,
    apply_cds,
    cdr_applicable,
    cds_applicable,
    is_cdr_fixed_point,
    is_cds_fixed_point,
    try_apply_cdr,
    try_apply_cds,
)
from cdsort.graph import build_overlap_graph, gcdr, try_gcdr
from cdsort.perm import SignedPermutation, all_signed_permutations, random_signed_permutation

from oracles import signed_perms


# ---------------------------------------------------------------------------
# cdr


def test_cdr_applicable_cases():
    assert cdr_applicable((-2, 1, -4, 3), 2)
    assert not cdr_applicable((1, 2), 1)
    assert cdr_applicable((1, 3, 5, -2, -6, 4), 5)


def test_cdr_pointer_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        cdr_applicable((1, 2), 2)
    with pytest.raises(ValueError, match="out of range"):
        apply_cdr((1, 2), 0)


def test_apply_cdr_worked_examples():
    assert apply_cdr((-2, 1, -4, 3), 2).entries == (4, -1, 2, 3)
    assert apply_cdr((1, 3, 5, -2, -6, 4), 5).entries == (1, 3, 5, 6, 2, 4)


def test_apply_cdr_negative_chain():
    # two-step hand run: cdr at (1,2) then (2,3) sorts [-2, 1, 3]
    mid = apply_cdr((-2, 1, 3), 1)
    assert mid.entries == (-2, -1, 3)
    assert apply_cdr(mid, 2).entries == (1, 2, 3)


def test_apply_cdr_not_applicable_is_strict():
    with pytest.raises(NotApplicableError):
        apply_cdr((1, 2), 1)
    result, applied = try_apply_cdr((1, 2), 1)
    assert result.entries == (1, 2) and not applied


def test_try_apply_happy_paths():
    result, applied = try_apply_cdr((-2, 1, -4, 3), 2)
    assert applied and result.entries == (4, -1, 2, 3)
    result, applied = try_apply_cds((3, 6, 5, 2, 4, 8, 1, 7), 6, 3)
    assert applied and result.entries == (3, 4, 8, 1, 5, 2, 6, 7)


def test_cdr_left_left_schematic():
    # both pointer flanks on the left: the block runs from the first carrier
    # up to just before the second
    assert apply_cdr((1, 3, 5, -2, 4), 2).entries == (1, -5, -3, -2, 4)


def test_cdr_right_right_schematic():
    # both flanks on the right: the block starts just after the first carrier
    # and includes the second
    assert apply_cdr((2, 4, -3, 1), 2).entries == (2, 3, -4, 1)


def test_cdr_mixed_flanks_means_equal_signs():
    # flanks facing each other occur exactly when the carriers agree in sign
    for entries, i in (((3, 1, 2), 2), ((1, 2), 1), ((-1, -2), 1)):
        assert not cdr_applicable(entries, i)


# ---------------------------------------------------------------------------
# cds


def test_cds_applicable_cases():
    assert cds_applicable((3, 6, 5, 2, 4, 8, 1, 7), 3, 6)
    assert not any(
        cds_applicable((1, 2, 3, 4), i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j
    )
    assert cds_applicable((-8, -7, -6, -4, -5, -3, -2, -1), 4, 5)


def test_cds_rejects_equal_pointers():
    with pytest.raises(ValueError, match="distinct"):
        cds_applicable((1, 2, 3), 1, 1)


def test_cds_pointer_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        cds_applicable((1, 2, 3), 1, 5)
    with pytest.raises(ValueError, match="out of range"):
        apply_cds((1, 2, 3), 0, 2)


def test_apply_cds_worked_examples():
    assert apply_cds((3, 6, 5, 2, 4, 8, 1, 7), 3, 6).entries == (3, 4, 8, 1, 5, 2, 6, 7)
    assert apply_cds((1, 3, 5, 6, 2, 4), 1, 2).entries == (1, 2, 3, 5, 6, 4)


def test_apply_cds_empty_first_block():
    # one exchanged block is empty; the swap still creates both adjacencies
    assert apply_cds((-8, -7, -6, -4, -5, -3, -2, -1), 4, 5).entries == tuple(range(-8, 0))


def test_apply_cds_is_symmetric_in_pointer_order():
    assert apply_cds((3, 6, 5, 2, 4, 8, 1, 7), 6, 3).entries == (3, 4, 8, 1, 5, 2, 6, 7)


def test_apply_cds_not_applicable_is_strict():
    with pytest.raises(NotApplicableError, match="alternate"):
        apply_cds((2, 1, 4, 3), 1, 3)
    result, applied = try_apply_cds((2, 1, 4, 3), 1, 3)
    assert result.entries == (2, 1, 4, 3) and not applied


def test_cds_requires_sign_homogeneous_pointers():
    # in [1, -3, 2, 4] the occurrences of pointers 1 and 2 alternate, but
    # pointer 2 sits on entries -3 and 2 of opposite sign
    assert not cds_applicable((1, -3, 2, 4), 1, 2)
    with pytest.raises(NotApplicableError, match="opposite-sign"):
        apply_cds((1, -3, 2, 4), 1, 2)


# schematic instances with every segment of length 1; expected outputs are
# hand-derived from the four-cut exchange


def test_cds_schematic_second_case():
    assert apply_cds((6, 2, 5, 3, 7, 1, 8, 4), 1, 3).entries == (6, 8, 7, 1, 2, 5, 3, 4)


def test_cds_schematic_third_case():
    assert apply_cds((6, 1, 5, 3, 7, 2, 8, 4), 1, 3).entries == (6, 1, 2, 8, 7, 5, 3, 4)


def test_cds_schematic_fourth_case():
    assert apply_cds((6, 1, 5, 4, 7, 2, 8, 3), 1, 3).entries == (6, 1, 2, 8, 3, 4, 7, 5)


def test_cds_schematic_fifth_case():
    assert apply_cds((6, 2, 5, 4, 7, 1, 8, 3), 1, 3).entries == (6, 8, 3, 4, 7, 1, 2, 5)


# ---------------------------------------------------------------------------
# move enumeration and fixed points


def test_identity_has_no_moves():
    for n in (1, 2, 5):
        ident = tuple(range(1, n + 1))
        assert applicable_cdr_moves(ident) == ()
        assert applicable_cds_moves(ident) == ()
        assert is_cdr_fixed_point(ident) and is_cds_fixed_point(ident)


def test_cdr_move_enumeration():
    assert applicable_cdr_moves((1, 3, 5, -2, -6, 4)) == (1, 2, 5)
    assert not is_cdr_fixed_point((-2, 1, -4, 3))


def test_cds_move_enumeration():
    assert applicable_cdr_moves((1, 3, 5, 6, 2, 4)) == ()
    assert is_cdr_fixed_point((1, 3, 5, 6, 2, 4))
    moves = applicable_cds_moves((1, 3, 5, 6, 2, 4))
    assert (1, 2) in moves
    assert moves == tuple(sorted(moves))
    assert all(p < q for p, q in moves)


@given(signed_perms(2, 10))
def test_move_enumeration_matches_predicates(entries):
    n = len(entries)
    cdr = applicable_cdr_moves(entries)
    assert cdr == tuple(i for i in range(1, n) if cdr_applicable(entries, i))
    cds = applicable_cds_moves(entries)
    assert cds == tuple(
        (i, j) for i in range(1, n) for j in range(i + 1, n) if cds_applicable(entries, i, j)
    )


# ---------------------------------------------------------------------------
# conservation and adjacency-creation invariants over bulk random applications


def _is_run_pair(entries, a):
    """abs values a, a+1 sit side by side with equal signs."""
    for j in range(len(entries) - 1):
        lo, hi = entries[j], entries[j + 1]
        if {abs(lo), abs(hi)} == {a, a + 1}:
            return hi == lo + 1
    return False


def test_bulk_random_cdr_and_cds_applications():
    rng = random.Random(20240817)
    cdr_checked = cds_checked = 0
    while cdr_checked + cds_checked < 100_000:
        entries = random_signed_permutation(rng, rng.randint(2, 12))
        cdr_moves = applicable_cdr_moves(entries)
        if cdr_moves:
            i = rng.choice(cdr_moves)
            out = apply_cdr(entries, i).entries
            assert sorted(map(abs, out)) == sorted(map(abs, entries))
            assert _is_run_pair(out, i)
            assert not cdr_applicable(out, i)
            cdr_checked += 1
        cds_moves = applicable_cds_moves(entries)
        if cds_moves:
            p, q = rng.choice(cds_moves)
            out = apply_cds(entries, p, q).entries
            assert sorted(out) == sorted(entries)  # signed multiset preserved
            assert _is_run_pair(out, p) and _is_run_pair(out, q)
            cds_checked += 1
    assert cdr_checked and cds_checked


# ---------------------------------------------------------------------------
# traces


def test_trace_from_moves_and_replay():
    trace = SortTrace.from_moves(
        (1, 3, 5, -2, -6, 4),
        [("cdr", 5), ("cds", (1, 2)), ("cds", (3, 4))],
    )
    assert [s.result.entries for s in trace.steps] == [
        (1, 3, 5, 6, 2, 4),
        (1, 2, 3, 5, 6, 4),
        (1, 2, 3, 4, 5, 6),
    ]
    assert trace.final.is_identity()
    assert trace.replays()
    text = str(trace)
    assert "step 1 cdr (5,6) [1, 3, 5, 6, 2, 4]" in text
    assert "step 2 cds (1,2),(2,3) [1, 2, 3, 5, 6, 4]" in text


def test_trace_rejects_inapplicable_moves():
    with pytest.raises(NotApplicableError):
        SortTrace.from_moves((1, 2), [("cdr", 1)])
    with pytest.raises(ValueError, match="unknown move kind"):
        SortTrace.from_moves((-2, 1), [("swap", 1)])


def test_trace_replay_detects_corruption():
    from cdsort.ops import TraceStep
    from cdsort.perm import SignedPermutation

    honest = SortTrace.from_moves((-2, 1, -4, 3), [("cdr", 2)])
    assert honest.replays()
    forged = SortTrace(
        honest.initial,
        (TraceStep("cdr", 2, SignedPermutation((3, 2, -1, 4))),),
    )
    assert not forged.replays()


def test_trace_replay_rejects_unknown_kind():
    from cdsort.ops import TraceStep

    honest = SortTrace.from_moves((3, 6, 5, 2, 4, 8, 1, 7), [("cds", (3, 6))])
    forged = SortTrace(honest.initial, (TraceStep("swap", (3, 6), honest.final),))
    with pytest.raises(ValueError, match="unknown move kind 'swap'"):
        forged.replays()


def test_empty_trace():
    trace = SortTrace.from_moves((1, 2), [])
    assert trace.final.entries == (1, 2)
    assert str(trace) == "initial [1, 2]\nfinal [1, 2]"


def test_raw_input_is_validated_once_and_results_never(monkeypatch):
    from cdsort import analysis, perm

    calls = []
    validate = perm.validate_entries

    def counted(values):
        calls.append(values)
        return validate(values)

    monkeypatch.setattr(perm, "validate_entries", counted)
    p = SignedPermutation((1, 3, 5, -2, -6, 4))
    assert len(calls) == 1
    steps = [("cdr", 5), ("cds", (1, 2)), ("cds", (3, 4))]
    for call in (lambda q: apply_cdr(q, 5), lambda q: apply_cds(q, 4, 3),
                 lambda q: try_apply_cdr(q, 3), lambda q: try_apply_cds(q, 1, 2),
                 lambda q: SortTrace.from_moves(q, steps).replays(),
                 analysis.enumerate_cdr_fixed_points, analysis.cds_reachable_fixed_points):
        calls.clear()
        call(p)
        assert calls == []
        call(list(p))
        assert calls == [list(p)]
    with pytest.raises(perm.PermutationError):
        apply_cdr([1, 3, 5, -2, -6, 3], 5)


# ---------------------------------------------------------------------------
# the lenient forms against the strict forms they wrap


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _check_lenient(lenient, strict, unchanged, *args):
    """lenient(*args) is (strict(*args), True), or (unchanged, False) exactly
    when strict raises NotApplicableError; any other error keeps its type and
    message.  Returns the strict outcome's kind."""
    kind, value = _outcome(strict, *args)
    got = _outcome(lenient, *args)
    if kind == "ok":
        assert got == ("ok", (value, True)), args
    elif kind is NotApplicableError:
        assert got == ("ok", (unchanged, False)), args
    else:
        assert got == (kind, value), args
    return kind


def test_lenient_forms_are_strict_forms_plus_a_catch_exhaustive_n4():
    seen = Counter()
    for n in range(1, 5):
        for entries in all_signed_permutations(n):
            same = SignedPermutation(entries)
            g = build_overlap_graph(entries)
            for i in range(n + 1):
                seen["gcdr", _check_lenient(try_gcdr, gcdr, g, g, i)] += 1
                for p in (entries, same):
                    seen["cdr", _check_lenient(try_apply_cdr, apply_cdr, same, p, i)] += 1
                    for j in range(n + 1):
                        seen["cds", _check_lenient(try_apply_cds, apply_cds, same, p, i, j)] += 1
    # every form meets a result, a refusal and a bad argument
    assert {(form, kind) for form in ("cdr", "cds", "gcdr")
            for kind in ("ok", NotApplicableError, ValueError)} <= set(seen)
