import random

import pytest

from cdsort import graph as graphmod
from cdsort.analysis import BudgetExceededError, Tracker
from cdsort.games import (
    ONE,
    TWO,
    GameState,
    IllegalMoveError,
    _minimax,
    legal_moves,
    play,
    playout,
    state_from_permutation,
    winner_by_minimax,
    winner_by_parity,
)
from cdsort.graph import (
    OrientedGraph,
    build_overlap_graph,
    gcdr,
    random_oriented_graph,
)
from cdsort.perm import all_signed_permutations, sigma

from oracles import LABELS, minimax_closure

PI6 = (1, 3, 5, -2, -6, 4)


def test_state_validation():
    g = build_overlap_graph(PI6)
    with pytest.raises(ValueError, match="rule"):
        GameState(g, ONE, "reverse")
    with pytest.raises(ValueError, match="to_move"):
        GameState(g, "THREE", "normal")


def test_legal_moves():
    assert legal_moves(state_from_permutation(PI6)) == (1, 2, 5)
    assert legal_moves(state_from_permutation((1, 2, 3, 4))) == ()
    assert legal_moves(state_from_permutation(sigma(1))) == (1, 2)


def test_play_flips_mover_and_applies_gcdr():
    state = state_from_permutation(sigma(1))
    for v in legal_moves(state):
        nxt = play(state, v)
        assert nxt.to_move == TWO
        assert len(nxt.graph.oriented) == 1
        assert nxt.graph == gcdr(state.graph, v)


def test_play_rejects_illegal_moves():
    terminal = state_from_permutation((1, 2, 3))
    with pytest.raises(IllegalMoveError):
        play(terminal, 1)
    state = state_from_permutation(PI6)  # legal moves (1, 2, 5)
    for v in (3, 99):  # a vertex that is unoriented, then one not in the graph
        with pytest.raises(IllegalMoveError,
                           match=f"vertex {v} is not an oriented vertex of the current graph"):
            play(state, v)


def test_play_matches_graph_module_on_eight_pointer_example():
    state = state_from_permutation((3, -8, -2, 5, 1, -7, 4, 6))
    nxt = play(state, 6)
    assert nxt.graph.edges == frozenset({(1, 4), (1, 5), (2, 3), (2, 7), (4, 7), (5, 7)})
    assert nxt.graph.oriented == frozenset({1, 2, 3, 4, 5})


def test_winner_by_parity_examples():
    assert winner_by_parity(state_from_permutation(PI6, "normal")) == ONE
    terminal = state_from_permutation((1, 2, 3))
    assert winner_by_parity(terminal) == TWO
    assert winner_by_parity(GameState(terminal.graph, ONE, "misere")) == ONE
    for n in range(1, 5):
        assert winner_by_parity(state_from_permutation(sigma(n), "normal")) == TWO


def test_winner_accounts_for_player_to_move():
    g = build_overlap_graph(PI6)
    assert winner_by_parity(GameState(g, TWO, "normal")) == TWO
    assert winner_by_parity(GameState(g, TWO, "misere")) == ONE


def test_minimax_budget_is_enforced():
    from cdsort.analysis import BudgetExceededError

    state = state_from_permutation(PI6)
    with pytest.raises(BudgetExceededError):
        winner_by_minimax(state, budget=0)


def test_minimax_on_deep_graphs():
    from cdsort.analysis import BudgetExceededError

    n = 1500
    isolated = OrientedGraph(range(1, n + 1), (), range(1, n + 1))
    with pytest.raises(BudgetExceededError):
        winner_by_minimax(GameState(isolated), budget=2000)
    # a path oriented only at its end: the one playout has a move per vertex
    path = OrientedGraph(range(1, n + 1), [(v, v + 1) for v in range(1, n)], {1})
    for rule in ("normal", "misere"):
        state = GameState(path, ONE, rule)
        assert winner_by_minimax(state) == winner_by_parity(state)
    assert len(playout(GameState(path))) == n


def test_playout_records_and_replays():
    state = state_from_permutation(PI6)
    records = playout(state)
    assert [r.player for r in records] == [ONE, TWO, ONE]
    assert records[-1].remaining == 0
    assert records[0].line().startswith("ply 1 ONE (")
    # replaying the recorded vertices through the graph module reproduces
    # every intermediate state reached through play()
    g = state.graph
    for record in records:
        state = play(state, record.vertex)
        g = gcdr(g, record.vertex)
        assert state.graph == g
        assert len(g.oriented) == record.remaining


def test_playout_length_parity_is_invariant_across_play():
    # exhaustive over all playouts of a small position
    def all_lengths(graph):
        if not graph.oriented:
            return {0}
        out = set()
        for v in graph.oriented:
            out |= {1 + k for k in all_lengths(gcdr(graph, v))}
        return out

    for entries in all_signed_permutations(4):
        lengths = all_lengths(build_overlap_graph(entries))
        assert len({k % 2 for k in lengths}) == 1


def test_playout_with_explicit_moves():
    state = state_from_permutation(PI6)
    records = playout(state, moves=[2, 1, 5])
    assert [r.vertex for r in records] == [2, 1, 5]
    with pytest.raises(IllegalMoveError, match="ended before"):
        playout(state, moves=[2, 1])
    with pytest.raises(IllegalMoveError, match="after the game"):
        playout(state, moves=[2, 1, 5, 4])
    for v in (3, 99):  # not oriented at its turn; not a vertex
        with pytest.raises(IllegalMoveError, match=f"vertex {v} is not an oriented vertex"):
            playout(state, moves=[v])


def test_playout_matches_play_on_sparse_labels():
    # labels far from their ranks, so a rank/label mix-up shows
    rng = random.Random(5)
    labels = (2, 3, 7, 40, 10**9)
    for _ in range(100):
        edges = [(u, v) for u in labels for v in labels if u < v and rng.random() < 0.5]
        oriented = [v for v in labels if rng.random() < 0.6]
        state = GameState(OrientedGraph(labels, edges, oriented), rng.choice((ONE, TWO)))
        for greedy in (True, False):
            expected = []
            position = state
            while position.graph.oriented:
                v = min(position.graph.oriented) if greedy else rng.choice(
                    legal_moves(position))
                player = position.to_move
                position = play(position, v)
                expected.append((player, v, len(position.graph.oriented)))
            moves = None if greedy else [v for _, v, _ in expected]
            got = [(r.player, r.vertex, r.remaining) for r in playout(state, moves)]
            assert got == expected


def test_playout_plays_through_play_on_labels_not_1_to_n():
    # the path 2 - 7 - 40 - 10**9, oriented everywhere but at 7
    a, b, c, d = LABELS[0], LABELS[2], LABELS[3], LABELS[4]
    g = OrientedGraph((a, b, c, d), [(a, b), (b, c), (c, d)], (a, c, d))
    state = GameState(g)
    records = playout(state)
    assert [r.player for r in records] == [ONE, TWO, ONE, TWO]
    assert len(records) == graphmod.playout_length(*graphmod.masks(g))
    replay = g
    for record in records:
        assert record.vertex == min(replay.oriented)
        replay = gcdr(replay, record.vertex)
        assert record.remaining == len(replay.oriented)
    assert not replay.oriented

    moves = [r.vertex for r in records]
    assert playout(state, moves) == records
    for v in (None, 5, b):  # not a label; absent; unoriented
        with pytest.raises(IllegalMoveError,
                           match=f"^vertex {v} is not an oriented vertex of the current graph$"):
            playout(state, [v])
    with pytest.raises(IllegalMoveError, match="^move list ended before the game did$"):
        playout(state, moves[:-1])
    with pytest.raises(IllegalMoveError, match="^moves remain after the game ended$"):
        playout(state, moves + [None])


# ---------------------------------------------------------------------------
# the flat minimax loop against the closure-based search it replaced


def _solve(search, g, rule, memo, budget):
    """(outcome or None on BudgetExceededError, budget left, memo items in
    insertion order)."""
    tracker = Tracker(budget)
    try:
        res = search(*graphmod.masks(g), rule, memo, tracker)
    except BudgetExceededError:
        res = None
    return res, tracker.remaining, list(memo.items())


def test_minimax_matches_closure_search_on_random_graphs():
    rng = random.Random(17)
    shared_new, shared_old = {}, {}
    for _ in range(300):
        g = random_oriented_graph(rng, rng.randint(0, 9), rng.choice((0.2, 0.5, 0.8)))
        for rule in ("normal", "misere"):
            fresh = _solve(_minimax, g, rule, {}, 10**6)
            assert fresh == _solve(minimax_closure, g, rule, {}, 10**6)
            assert fresh[0] is not None
            assert (_solve(_minimax, g, rule, shared_new, 10**6)
                    == _solve(minimax_closure, g, rule, shared_old, 10**6))


def test_minimax_budget_boundaries_match_closure_search():
    graphs = [build_overlap_graph((3, -8, -2, 5, 1, -7, 4, 6)),
              random_oriented_graph(random.Random(5), 9),
              OrientedGraph(range(1, 10), (), range(1, 10))]
    for g in graphs:
        for rule in ("normal", "misere"):
            positions = len(_solve(_minimax, g, rule, {}, 10**6)[2])
            outcomes = [_solve(_minimax, g, rule, {}, budget)
                        for budget in range(positions + 1)]
            assert outcomes == [_solve(minimax_closure, g, rule, {}, budget)
                                for budget in range(positions + 1)]
            # the budget counts the positions solved: one fewer is too few
            assert outcomes[-1][0] is not None and outcomes[-1][1] == 0
            assert outcomes[-2][0] is None
