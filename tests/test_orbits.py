"""The symmetries of the cdr move graph, and the exhaustive sweeps that fold
one state per orbit of them.

R, the other strand, maps p to (-p[n-1], ..., -p[0]), and CN maps each entry
v to -sign(v) * (n + 1 - |v|).  Both commute with cdr: the bytes kernel's
children of R(p) are the R images of p's children in the same pointer order,
and those of CN(p) are the CN images of p's children in reverse order
(pointer i becomes n - i).  The exhaustive parity, same-length, rescue and
steps sweeps fold over canonical states, the least image of each state under
ops.CdrOrbits, and rely on that lemma, so it is checked here with R and CN
written on entries: exhaustively for n <= 6 and by hypothesis up to
n = 127, the last length stored as bytes.  Each canonical sweep must spend
one unit per canonical state, and give the records of the plain sweep
(tests/oracles.py keeps its checks; test_verify.py compares them for every
n <= 6).
"""
import math

import pytest
from hypothesis import given

from cdsort import ops
from cdsort.analysis import BudgetExceededError
from cdsort.perm import all_signed_permutations, identity_entries
from cdsort.verify import run_sweep

from oracles import signed_perms


def other_strand(entries):
    return tuple(-v for v in reversed(entries))


def complement(entries):
    n = len(entries)
    return tuple(v - n - 1 if v > 0 else v + n + 1 for v in entries)


def check_symmetry_lemma(entries) -> None:
    """The children of R(p) and CN(p), decoded, against p's children mapped
    on entries, and their pointers against p's."""
    n = len(entries)
    root, kernel, decode = ops.cdr_states(entries)
    assert type(root) is bytes
    children = [decode(child) for child in kernel(root)]
    moves = ops.applicable_cdr_moves(entries)
    assert len(children) == len(moves)
    for image, expected, pointers in (
            (other_strand, children, moves),
            (complement, children[::-1], tuple(n - i for i in reversed(moves)))):
        mapped = image(entries)
        assert [decode(c) for c in kernel(ops.cdr_states(mapped)[0])] == [
            image(child) for child in expected], (image.__name__, entries)
        assert ops.applicable_cdr_moves(mapped) == pointers, (image.__name__, entries)


def test_bytes_kernel_commutes_with_r_and_cn_exhaustively():
    for n in range(1, 7):
        for entries in all_signed_permutations(n):
            check_symmetry_lemma(entries)


@given(signed_perms(1, 127))
def test_bytes_kernel_commutes_with_r_and_cn(entries):
    check_symmetry_lemma(entries)


@pytest.mark.parametrize("n", [1, 2, 5, 127])
def test_maps_are_r_cn_and_cnr_and_form_a_klein_four_group(n):
    orbits = ops.CdrOrbits(n)
    cases = (all_signed_permutations(n) if n <= 5
             else [identity_entries(n), other_strand(identity_entries(n)),
                   tuple(v if v % 3 else -v for v in range(n, 0, -1))])
    for entries in cases:
        state, _, decode = ops.cdr_states(entries)
        same, r, cn, cnr = (image(state) for image in orbits.maps)
        assert same == state
        assert decode(r) == other_strand(entries)
        assert decode(cn) == complement(entries)
        assert decode(cnr) == complement(other_strand(entries))
        for image in orbits.maps:
            assert image(image(state)) == state
        assert orbits.maps[1](cn) == orbits.maps[2](r) == cnr
    # CNR fixes the identity; R and CN swap it with the reverse identity
    identity, _, decode = ops.cdr_states(identity_entries(n))
    assert orbits.maps[3](identity) == identity
    assert decode(orbits.maps[1](identity)) == decode(orbits.maps[2](identity)) == other_strand(
        identity_entries(n))


@pytest.mark.parametrize("order", [4, 2, 1])
def test_orbit_kernels_give_least_images(order):
    for n in range(1, 6):
        orbits = ops.CdrOrbits(n, order)
        assert len(orbits.maps) == order
        if order == 1:
            assert orbits.states is ops.cdr_states
        for entries in all_signed_permutations(n):
            state, kernel, _ = ops.cdr_states(entries)
            least = min(image(state) for image in orbits.maps)
            assert orbits.least(state) == least
            children = list(kernel(state))
            assert list(orbits.children(state)) == [orbits.least(c) for c in children]
            assert orbits.states(entries) == (least, orbits.children, ops.cdr_states(entries)[2])
            if order != 2:
                low, k = orbits.locate(state)
                assert low == least
                assert orbits.maps[k](state) == least and orbits.maps[k](least) == state
                assert list(orbits.edges(state)) == [orbits.locate(c) for c in children]
            if order == 1:
                assert orbits.maps[0](state) is state
                assert orbits.locate(state) == (state, 0)
                assert list(orbits.edges(state)) == [(c, 0) for c in children]


@pytest.mark.parametrize("n", [128, 200])
@pytest.mark.parametrize("order", [4, 2, 1])
def test_tuple_states_give_the_identity_alone(n, order):
    orbits = ops.CdrOrbits(n, order)
    assert len(orbits.maps) == 1 and orbits.states is ops.cdr_states
    entries = (-1,) + identity_entries(n)[1:]
    state, kernel, _ = orbits.states(entries)
    assert state == entries and orbits.maps[0](state) is state
    assert orbits.locate(state) == (state, 0)
    assert list(orbits.edges(state)) == [(identity_entries(n), 0)]
    assert list(orbits.edges(state)) == [(c, 0) for c in kernel(state)]


@pytest.mark.parametrize("n, order", [(0, 4), (-1, 1), (5, 0), (5, 3), (200, 8)])
def test_orbits_need_n_at_least_1_and_order_1_2_or_4(n, order):
    with pytest.raises(ValueError, match="n >= 1 and order 1, 2 or 4"):
        ops.CdrOrbits(n, order)


def canonical_states(n: int, order: int) -> int:
    least = ops.CdrOrbits(n, order).least
    return len({least(ops.cdr_states(entries)[0]) for entries in all_signed_permutations(n)})


@pytest.mark.parametrize("prop, n, boundary", [
    # one unit per canonical state: every state of length n is an input
    *((prop, n, boundary) for prop in ("parity", "rescue", "steps")
      for n, boundary in ((5, 976), (6, 11_616))),
    ("same-length", 5, 1_952),
    ("same-length", 6, 23_232),
])
def test_canonical_sweeps_spend_one_unit_per_canonical_state(prop, n, boundary):
    assert canonical_states(n, order=2 if prop == "same-length" else 4) == boundary
    result = run_sweep(prop, n, exhaustive=True, budget=boundary)
    assert (result.cases, result.failures) == (2 ** n * math.factorial(n), 0)
    with pytest.raises(BudgetExceededError):
        run_sweep(prop, n, exhaustive=True, budget=boundary - 1)
