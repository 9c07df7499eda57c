import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdsort.perm import (
    PermutationError,
    SignedPermutation,
    all_signed_permutations,
    collapse_adjacencies,
    find_adjacencies,
    fixtures,
    format_entries,
    is_identity,
    is_reverse_identity,
    parse_entries,
    pointer_occurrences,
    random_signed_permutation,
    sigma,
    tau,
    validate_entries,
)

from oracles import all_signed_permutations_by_masks, format_entries_by_generator, signed_perms


# ---------------------------------------------------------------------------
# parsing and formatting


def test_parse_bracketed():
    assert parse_entries("[1, -5, -2, 4, -3, 6]") == (1, -5, -2, 4, -3, 6)


def test_parse_singleton():
    assert parse_entries("1") == (1,)


def test_parse_mixed_separators():
    assert parse_entries("1 -3,2") == (1, -3, 2)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[1, 1]", "duplicate absolute value 1"),
        ("[1, 3]", "out of range"),
        ("[0, 1]", "zero entry"),
        ("", "empty"),
        ("[ ]", "empty"),
        ("[1, x]", "'x'"),
        ("[1, 2", "unbalanced brackets"),
    ],
)
def test_parse_rejects(text, fragment):
    with pytest.raises(PermutationError, match=fragment):
        parse_entries(text)


@given(signed_perms(1, 10))
def test_parse_format_round_trip(entries):
    assert parse_entries(format_entries(entries)) == entries


def test_validate_rejects_bool():
    with pytest.raises(PermutationError):
        validate_entries((True,))


# ---------------------------------------------------------------------------
# identity predicates


def test_identity_predicates():
    assert is_identity((1, 2, 3))
    assert not is_identity((-2, 1))
    assert is_reverse_identity((-8, -7, -6, -5, -4, -3, -2, -1))
    assert not is_reverse_identity((-2, 1))
    assert SignedPermutation.identity(3).is_identity()
    assert SignedPermutation.reverse_identity(4).is_reverse_identity()


# ---------------------------------------------------------------------------
# pointer occurrences


def test_occurrences_of_four_entry_example():
    # in [-2, 1, -4, 3] the pointer (2,3) is the head of -2 (left flank,
    # entry 1) and the tail of 3 (left flank, entry 4)
    occs = [o for o in pointer_occurrences((-2, 1, -4, 3)) if o.pointer == 2]
    assert [(o.entry_index, o.side, o.kind, o.entry_sign) for o in occs] == [
        (1, "left", "head", -1),
        (4, "left", "tail", 1),
    ]


def test_occurrence_arcs_of_six_entry_example():
    # hand enumeration by the flank rule for [1, -5, -2, 4, -3, 6]
    spans = {}
    for o in pointer_occurrences((1, -5, -2, 4, -3, 6)):
        spans.setdefault(o.pointer, []).append(o.key)
    assert spans == {1: [3, 7], 2: [6, 11], 3: [8, 10], 4: [5, 9], 5: [4, 12]}


def test_singleton_has_no_occurrences():
    assert pointer_occurrences((1,)) == []


def test_occurrence_cuts_delimit_the_reversal_block():
    # reversing-and-negating between the two cuts of pointer (2,3) reproduces
    # the cdr step on [-2, 1, -4, 3]
    entries = (-2, 1, -4, 3)
    occs = [o for o in pointer_occurrences(entries) if o.pointer == 2]
    lo, hi = sorted(o.cut for o in occs)
    assert (lo, hi) == (0, 3)
    rebuilt = entries[:lo] + tuple(-v for v in reversed(entries[lo:hi])) + entries[hi:]
    assert rebuilt == (4, -1, 2, 3)


@given(signed_perms(1, 10))
def test_occurrence_counts_and_keys(entries):
    occs = pointer_occurrences(entries)
    n = len(entries)
    assert len(occs) == 2 * (n - 1)
    keys = [o.key for o in occs]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    per_pointer = {}
    for o in occs:
        per_pointer.setdefault(o.pointer, []).append(o.kind)
    assert set(per_pointer) == set(range(1, n))
    assert all(sorted(kinds) == ["head", "tail"] for kinds in per_pointer.values())


# ---------------------------------------------------------------------------
# adjacencies and collapse


def test_full_chain_collapses_to_singleton():
    assert find_adjacencies((1, 2, 3)) == (1, 2)
    assert collapse_adjacencies((1, 2, 3)) == (1,)


def test_collapse_two_runs():
    assert collapse_adjacencies((3, 4, 1, 2)) == (2, 1)


def test_no_adjacencies_unchanged():
    assert find_adjacencies((-2, 1, -4, 3)) == ()
    assert collapse_adjacencies((-2, 1, -4, 3)) == (-2, 1, -4, 3)


def test_reverse_identity_is_one_negative_chain():
    assert find_adjacencies((-3, -2, -1)) == (1, 2)
    assert collapse_adjacencies((-3, -2, -1)) == (-1,)


def test_mixed_sign_neighbors_are_not_adjacent():
    assert find_adjacencies((-1, 2)) == ()


@given(signed_perms(1, 10))
def test_collapse_is_valid_and_adjacency_free(entries):
    collapsed = collapse_adjacencies(entries)
    validate_entries(collapsed)
    assert find_adjacencies(collapsed) == ()
    assert collapse_adjacencies(collapsed) == collapsed


# ---------------------------------------------------------------------------
# generators and fixtures


def test_sigma_tau_small_instances():
    assert sigma(1).entries == (-2, 1, 3)
    assert tau(1).entries == (-2, 1)
    assert sigma(2).entries == (-4, -2, 1, 3, 5)


def test_sigma_tau_reject_zero():
    with pytest.raises(ValueError):
        sigma(0)
    with pytest.raises(ValueError):
        tau(0)


def test_sigma_tau_validate_across_range():
    # construction validates; cover the whole supported sweep range
    for n in range(1, 1001):
        assert len(sigma(n)) == 2 * n + 1
        assert len(tau(n)) == 2 * n


def test_fixture_contents():
    fx = fixtures()
    assert fx["o_nova_actin1"].entries == (3, 5, 4, 6, 8, -2, 1, 7)
    assert fx["u_pisces_1"].entries == (1, 3, -7, -5, 14, 2, 4, 6, 9, 12, -11, -8, 13, 15, -10)
    assert fx["u_pisces_2"].entries == (2, 4, 6, 9, 12, -11, -8, 13, 15, -10, 1, 3, -7, -5, 14)
    assert fx["alpha_tbp"].entries == (1, 3, 5, 7, 9, 11, 2, 4, 6, 8, 10, 12)
    assert fx["sigma_16"] == sigma(16)
    assert fx["sigma_20"] == sigma(20)
    assert fx["sigma_21"] == sigma(21)
    assert fx["tau_21"] == tau(21)


def test_enumeration_count_and_uniqueness():
    perms = list(all_signed_permutations(3))
    assert len(perms) == 48 and len(set(perms)) == 48
    for entries in perms:
        validate_entries(entries)


def test_enumeration_order_matches_sign_masks():
    # the sweeps' records come out in this order, so it must not move
    for n in range(7):
        assert list(all_signed_permutations(n)) == list(all_signed_permutations_by_masks(n))


@given(st.lists(st.one_of(st.integers(), st.booleans(), st.floats())))
def test_format_entries_matches_generator_form(values):
    # every element goes through str(), bools and floats too, whatever holds it
    expected = format_entries_by_generator(values)
    assert format_entries(values) == expected
    assert format_entries(tuple(values)) == expected
    assert format_entries(v for v in values) == expected


@pytest.mark.parametrize("values", [
    (), [], range(0), range(1, 8), range(5, -6, -2), (True, False, 1), (1.5, -0.0, float("inf")),
    tuple((-1) ** (v + 1) * v for v in range(1, 2001)),
], ids=["tuple-empty", "list-empty", "range-empty", "range", "range-step", "bool", "float",
        "alternating-2000"])
def test_format_entries_on_ranges_generators_and_long_inputs(values):
    expected = format_entries_by_generator(values)
    assert format_entries(values) == expected
    assert format_entries(v for v in values) == expected


def test_random_permutation_is_seeded():
    import random

    a = random_signed_permutation(random.Random(5), 8)
    b = random_signed_permutation(random.Random(5), 8)
    assert a == b
    validate_entries(a)
