"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line and enforcing its runtime bound.

Run with:  pytest tests/test_acceptance.py -v -s
"""
import functools
import random
import time
from pathlib import Path

import pytest

from cdsort import analysis, games, verify
from cdsort.cli import main as cli_main
from cdsort.graph import (
    OrientedGraph,
    build_overlap_graph,
    gcdr,
    local_complement,
    random_oriented_graph,
)
from cdsort.ops import SortTrace, apply_cdr, apply_cds, _apply_cdr, _cdr_moves
from cdsort.perm import all_signed_permutations, fixtures, random_signed_permutation, sigma, tau

GOLDEN = Path(__file__).parent / "golden"

PERM6 = "[1, -5, -2, 4, -3, 6]"
PERM10 = "[-6, 3, -4, 2, 5, -1, 7, 9, 8, 10]"

U1 = fixtures()["u_pisces_1"]
U1_RUN = (4, 3, 2, 5, 6, 1, 7, 8, 9, 11, 12, 13, 14, 10)
U1_DEVIATED = U1_RUN[:11] + (10,)


def criterion(number, title, limit_seconds):
    """Time the body, enforce the budget, and print one PASS/FAIL line."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} {title}: FAIL")
                raise
            elapsed = time.perf_counter() - start
            print(f"ACCEPTANCE {number} {title}: PASS ({elapsed:.1f}s, limit {limit_seconds}s)")
            assert elapsed < limit_seconds, f"criterion {number} took {elapsed:.1f}s"

        return run

    return wrap


@criterion(1, "worked-example overlap graphs match goldens", 1.0)
def test_criterion_1_graph_goldens(capsys):
    expected = {
        PERM6: ({(1, 2), (2, 4), (3, 4), (1, 4), (1, 5)}, {1, 3, 4, 5}),
        PERM10: ({(1, 2), (2, 4), (3, 4), (1, 4), (1, 5), (7, 8), (7, 9), (8, 9)},
                 {1, 3, 4, 5, 6}),
    }
    for literal, (edges, oriented) in expected.items():
        g = build_overlap_graph(tuple(int(t) for t in literal.strip("[]").split(",")))
        assert g.edges == frozenset(edges)
        assert g.oriented == frozenset(oriented)
    for literal, stem in ((PERM6, "graph_perm6"), (PERM10, "graph_perm10")):
        for fmt, suffix in (("dot", "dot"), ("text", "txt")):
            assert cli_main(["graph", literal, "--format", fmt]) == 0
            out = capsys.readouterr().out
            assert out == (GOLDEN / f"{stem}.{suffix}").read_text()


@criterion(2, "published step examples replay", 1.0)
def test_criterion_2_step_examples():
    assert apply_cdr((-2, 1, -4, 3), 2).entries == (4, -1, 2, 3)
    assert apply_cds((3, 6, 5, 2, 4, 8, 1, 7), 3, 6).entries == (3, 4, 8, 1, 5, 2, 6, 7)
    chain = SortTrace.from_moves(
        (1, 3, 5, -2, -6, 4), [("cdr", 5), ("cds", (1, 2)), ("cds", (3, 4))]
    )
    assert [s.result.entries for s in chain.steps] == [
        (1, 3, 5, 6, 2, 4),
        (1, 2, 3, 5, 6, 4),
        (1, 2, 3, 4, 5, 6),
    ]
    assert chain.replays()


@criterion(3, "u_pisces_1 sorting, deviation, rescue, steps", 10.0)
def test_criterion_3_u_pisces():
    listed = SortTrace.from_moves(U1, [("cdr", i) for i in U1_RUN])
    assert listed.final.is_identity()
    assert analysis.cdr_sorting_lengths(U1) == frozenset({14})
    deviated = SortTrace.from_moves(U1, [("cdr", i) for i in U1_DEVIATED])
    fp = deviated.final
    assert fp.entries == tuple(range(1, 14)) + (15, 14)
    assert apply_cds(fp, 13, 14).is_identity()
    assert analysis.cdr_steps(U1).total == 14
    assert analysis.cdr_steps(U1, prefix_moves=U1_DEVIATED) == (12, 1, 14)


@criterion(4, "actin precursor needs both operations", 1.0)
def test_criterion_4_actin_precursor():
    onova = fixtures()["o_nova_actin1"]
    assert not analysis.cdr_sortable_criterion(onova)
    trace = analysis.indiscriminate_cdr_trace(onova)
    assert trace.final.entries == (-8, -7, -6, -4, -5, -3, -2, -1)
    assert analysis.cds_sortable_greedy(trace.final, target="reverse_identity") == (True, 1)


@pytest.mark.slow
@criterion(5, "theorem sweeps exhaustive n=5 plus samples n=6..8", 600.0)
def test_criterion_5_theorem_sweeps():
    properties = ("parity", "rescue", "steps", "same-length", "cds-same-length")
    for prop in properties:
        result = verify.run_sweep(prop, 5, exhaustive=True)
        assert result.cases == 3840, prop
        assert result.failures == 0, prop
    for n in (6, 7, 8):
        for prop in properties:
            result = verify.run_sweep(prop, n, samples=10_000, seed=n)
            assert result.cases == 10_000
            assert result.failures == 0, (prop, n)


@criterion(6, "cdr/gcdr commutation on random permutations", 60.0)
def test_criterion_6_commutation():
    rng = random.Random(1)
    checked = 0
    for _ in range(10_000):
        entries = random_signed_permutation(rng, rng.randint(2, 10))
        g = build_overlap_graph(entries)
        for i in _cdr_moves(entries):
            assert build_overlap_graph(_apply_cdr(entries, i)) == gcdr(g, i)
            checked += 1
    assert checked > 10_000


@criterion(7, "sigma/tau families", 60.0)
def test_criterion_7_sigma_tau():
    for n in range(1, 51):
        gs = build_overlap_graph(sigma(n))
        assert not gs.edges and gs.oriented == gs.vertices and len(gs.vertices) == 2 * n
        gt = build_overlap_graph(tau(n))
        assert not gt.edges and gt.oriented == gt.vertices and len(gt.vertices) == 2 * n - 1
    for n in range(1, 5):
        enum = analysis.enumerate_cdr_fixed_points(sigma(n))
        assert enum.complete
        assert {fp.entries: lengths for fp, lengths in enum.by_fixed_point.items()} == {
            tuple(range(1, 2 * n + 2)): (2 * n,)
        }
        enum = analysis.enumerate_cdr_fixed_points(tau(n))
        assert {fp.entries: lengths for fp, lengths in enum.by_fixed_point.items()} == {
            tuple(range(-2 * n, 0)): (2 * n - 1,)
        }


@criterion(8, "game winners: parity solver vs minimax oracle", 300.0)
def test_criterion_8_games():
    memo = {}
    for n in range(1, 6):
        for entries in all_signed_permutations(n):
            g = build_overlap_graph(entries)
            for rule in ("normal", "misere"):
                state = games.GameState(g, games.ONE, rule)
                assert games.winner_by_parity(state) == games.winner_by_minimax(state, memo=memo)
    rng = random.Random(2024)
    for _ in range(500):
        g = random_oriented_graph(rng, rng.randint(1, 8))
        for rule in ("normal", "misere"):
            state = games.GameState(g, games.ONE, rule)
            assert games.winner_by_parity(state) == games.winner_by_minimax(state, memo=memo)


@criterion(9, "local complementation: worked instance and involution", 10.0)
def test_criterion_9_local_complementation():
    g = OrientedGraph(
        frozenset(range(1, 8)),
        frozenset({(1, 5), (1, 4), (2, 3), (2, 7), (3, 4), (3, 5), (3, 6), (4, 7), (4, 5),
                   (4, 6), (5, 7), (5, 6)}),
        frozenset({1, 2, 6}),
    )
    g2 = local_complement(g, {3, 4, 5, 6})
    assert g2.edges == frozenset({(1, 5), (5, 7), (2, 7), (1, 4), (2, 3), (4, 7)})
    assert g2.oriented == frozenset({1, 2, 3, 4, 5})
    rng = random.Random(7)
    for _ in range(10_000):
        h = random_oriented_graph(rng, rng.randint(1, 10))
        s = {v for v in h.vertices if rng.random() < 0.5}
        assert local_complement(local_complement(h, s), s) == h
