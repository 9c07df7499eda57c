"""Two-player gcdr games on oriented graphs, normal and misere play.

Players alternate selecting an oriented vertex and replacing the graph by its
gcdr there; the game ends when no oriented vertex remains.  Under the normal
rule the player who makes the last move wins; under misere, loses.  A player
whose turn arrives with no legal move has made no last move: they lose under
normal play and win under misere.

Every playout from a position has the same length parity: each gcdr lowers
the GF(2) rank of the adjacency matrix with the orientation flags on its
diagonal by one, and a terminal's rank is even (see analysis.parity, which
reads the parity off that rank).  So the winner is forced regardless of
strategy.  winner_by_parity plays one greedy line, in place, and reads the
answer off its length; it stays a playout rather than a rank, so that it and
analysis.parity are two independent computations that can check each other.
winner_by_minimax is the independent game-tree oracle used to validate that
shortcut.

Only those two solvers read positions, the graph module's (rows, ori) masks;
a recorded game (playout) is play in a loop, on GameStates.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import graph as graphmod
from .analysis import Tracker
from .graph import OrientedGraph, build_overlap_graph, gcdr

ONE = "ONE"
TWO = "TWO"
RULES = ("normal", "misere")
DEFAULT_MINIMAX_BUDGET = 1_000_000


class IllegalMoveError(ValueError):
    """The chosen vertex is not a legal move in this state."""


def _other(player: str) -> str:
    return TWO if player == ONE else ONE


@dataclass(frozen=True)
class GameState:
    graph: OrientedGraph
    to_move: str = ONE
    rule: str = "normal"

    def __post_init__(self):
        if self.to_move not in (ONE, TWO):
            raise ValueError(f"to_move must be ONE or TWO, got {self.to_move!r}")
        if self.rule not in RULES:
            raise ValueError(f"rule must be one of {RULES}, got {self.rule!r}")


def state_from_permutation(p, rule: str = "normal") -> GameState:
    return GameState(build_overlap_graph(p), ONE, rule)


def legal_moves(state: GameState) -> tuple[int, ...]:
    """The oriented vertices, in increasing label order."""
    return state.graph.oriented_vertices()


def play(state: GameState, v: int) -> GameState:
    if not state.graph.is_oriented(v):
        raise IllegalMoveError(f"vertex {v} is not an oriented vertex of the current graph")
    return GameState(gcdr(state.graph, v), _other(state.to_move), state.rule)


def winner_by_parity(state: GameState) -> str:
    """Winner under optimal play, decided by the parity of one playout.

    Playout length parity from a fixed position is play-independent, so the
    mover makes the last move iff the length is odd; normal play rewards that,
    misere punishes it (and a zero-length game means the mover cannot move at
    all: a normal-play loss, a misere win).
    """
    length = graphmod.playout_length(*graphmod.masks(state.graph))
    mover_wins = (length % 2 == 1) if state.rule == "normal" else (length % 2 == 0)
    return state.to_move if mover_wins else _other(state.to_move)


def winner_by_minimax(state: GameState, budget: int = DEFAULT_MINIMAX_BUDGET,
                      memo: dict | None = None) -> str:
    """Exact winner by full game-tree traversal with memoization.  Intended
    for small graphs; the budget caps distinct (graph, rule) positions.  A
    memo may be shared between calls: positions are keyed by their masks,
    and the outcome does not depend on the labels."""
    if memo is None:
        memo = {}
    mover_wins = _minimax(*graphmod.masks(state.graph), state.rule, memo, Tracker(budget))
    return state.to_move if mover_wins else _other(state.to_move)


def _minimax(rows: tuple, ori: int, rule: str, memo: dict, tracker: Tracker) -> bool:
    """Does the player to move win?  Depth-first over positions in increasing
    move order, stopping at the first winning move, in one loop over an
    explicit stack: a game lasts up to one move per vertex.

    A position not in memo spends one unit of tracker when it is first
    reached.  A terminal is stored at once; any other position pushes a frame
    [key, rows, ori, mask of the moves not yet tried] and is stored when its
    frame pops.  The key (rows, ori, rule) is built once per position and
    serves both the memo lookup and the store."""
    misere = rule == "misere"
    spend = tracker.spend
    move = graphmod.move
    stack = []
    key = (rows, ori, rule)
    res = memo.get(key)
    while True:
        if res is None:  # a position reached for the first time
            spend()
            if ori:
                stack.append([key, rows, ori, ori])
            else:
                memo[key] = res = misere
        if not stack:
            return res
        frame = stack[-1]
        untried = frame[3]
        # a move into a lost position wins, so the first one ends the search
        if res is False or not untried:
            memo[frame[0]] = res = res is False
            stack.pop()
            continue
        low = untried & -untried
        frame[3] = untried ^ low
        rows, ori = move(frame[1], frame[2], low.bit_length() - 1)
        key = (rows, ori, rule)
        res = memo.get(key)


@dataclass(frozen=True)
class PlyRecord:
    ply: int
    player: str
    vertex: int
    remaining: int  # oriented vertices left after the move

    def line(self) -> str:
        v = self.vertex
        return f"ply {self.ply} {self.player} ({v},{v + 1}) remaining={self.remaining}"


def playout(state: GameState, moves: Sequence[int] | None = None) -> tuple[PlyRecord, ...]:
    """Play a full game and record it, one line-ready record per ply.  With
    moves=None both players greedily take the lowest legal vertex; otherwise
    the given vertices are played in order and must end the game.  Each ply
    is a play on the GameState, so a recorded game obeys the same move rule
    as any other; only winner_by_parity and _minimax read positions."""
    records = []
    chosen = iter(moves) if moves is not None else None
    legal = legal_moves(state)
    while legal:
        if chosen is None:
            v = legal[0]
        else:
            try:
                v = next(chosen)
            except StopIteration:
                raise IllegalMoveError("move list ended before the game did") from None
        player = state.to_move
        state = play(state, v)
        legal = legal_moves(state)
        records.append(PlyRecord(len(records) + 1, player, v, len(legal)))
    if chosen is not None:
        for _ in chosen:  # any move left, None included, is one too many
            raise IllegalMoveError("moves remain after the game ended")
    return tuple(records)
