"""The three workloads: seeded request lists, request handlers and answer checks.

A workload is a list of requests made once from ``--seed`` (a "cycle").  The
runner sends the cycle's requests one at a time, each after the previous one
returns, and repeats the cycle while time remains.  A handler makes the
request's calls into the library through a :class:`tracing.Calls` object,
checks the answer, and returns ``(units, label, fields)``:

* ``units``: work completed (answered queries, sweep records, graph tasks);
* ``label``: the sweep property or the outcome ("ok", "undecided", "agree");
* ``fields``: the answer as far as the mathematics fixes it.  Its digest is
  compared with the recorded one; witness sequences are left out so that a
  different valid witness does not count as a change.

A failed check raises :class:`WrongAnswer`.  The library sees only the
inputs made here, never the seed.
"""
from __future__ import annotations

import contextlib
import io
import math
import random
from typing import NamedTuple

from cdsort import analysis, cli, games, graph, ops, perm, verify

from spec import SWEEP_PROPERTIES
from tracing import is_documented_refusal

SEARCH_BUDGET = 10_000_000


class WrongAnswer(Exception):
    """An answer failed one of the benchmark's checks."""


class Request(NamedTuple):
    kind: str
    arg: object


class Cycle(NamedTuple):
    requests: list
    warmup: list


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


def random_entries(rng: random.Random, n: int) -> tuple[int, ...]:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(v if rng.random() < 0.5 else -v for v in values)


def alternating_entries(n: int) -> tuple[int, ...]:
    """[1, -2, 3, -4, ...]: every pointer oriented, maximal cdr runs of length ~n."""
    return tuple(v if v % 2 else -v for v in range(1, n + 1))


# ---------------------------------------------------------------------------
# queries


class QueryContext:
    """Answers shared between requests of one cycle: the witness length of
    every permutation a search request decided, keyed by entries."""

    def __init__(self):
        self.witness_length: dict = {}


def _entries(calls, arg):
    """Requests arrive as text (CLI-style) or as a list of ints (API-style)."""
    if isinstance(arg, str):
        return calls(perm.parse_entries, arg)
    return calls(perm.validate_entries, arg)


def _replay(calls, entries, witness, target) -> None:
    trace = calls.named("from_moves", ops.SortTrace.from_moves, entries,
                        [("cdr", i) for i in witness])
    _require(calls(trace.replays), "witness trace does not replay")
    _require(trace.final.entries == target, f"witness ends at {trace.final}, not the target")


def q_search(calls, ctx, arg, *, reverse=False, budget=SEARCH_BUDGET):
    entries = _entries(calls, arg)
    n = len(entries)
    if reverse:
        found, witness = calls(analysis.reverse_cdr_sortable_search, entries, budget)
        target = tuple(range(-n, 0))
    else:
        found, witness = calls(analysis.cdr_sortable_search, entries, budget)
        target = tuple(range(1, n + 1))
    if found is None:
        _require(witness is None, "undecided search returned a witness")
        return 1, "undecided", ("undecided",)
    if not found:
        _require(witness is None, "unsortable answer carries a witness")
        if not reverse:
            ctx.witness_length[entries] = None
        return 1, "ok", ("not-sortable",)
    _replay(calls, entries, witness, target)
    if not reverse:
        ctx.witness_length[entries] = len(witness)
    return 1, "ok", ("sortable", len(witness))


def q_reverse_search(calls, ctx, arg):
    return q_search(calls, ctx, arg, reverse=True)


def q_fixed_points(calls, ctx, arg):
    entries = _entries(calls, arg)
    enum = calls(analysis.enumerate_cdr_fixed_points, entries, SEARCH_BUDGET)
    _require(enum.complete, "fixed-point enumeration incomplete within the budget")
    lines = []
    parities = set()
    for fp, lengths in enum.by_fixed_point.items():
        # cdr applies wherever values i and i+1 differ in sign, so a fixed
        # point carries one sign throughout
        _require(len({v > 0 for v in fp.entries}) == 1, f"{fp} is not a cdr fixed point")
        _require(lengths and list(lengths) == sorted(set(lengths)), f"bad run lengths {lengths}")
        parities.update(length % 2 for length in lengths)
        lines.append((calls(perm.format_entries, fp.entries), lengths))
    _require(len(parities) == 1, "maximal runs of both parities")
    return 1, "ok", tuple(sorted(lines))


def q_maximal_lengths(calls, ctx, arg, *, budget=SEARCH_BUDGET):
    entries = _entries(calls, arg)
    try:
        counts = calls(analysis.maximal_sequence_lengths, entries, budget)
    except analysis.BudgetExceededError:
        return 1, "undecided", ("budget-exceeded",)
    _require(counts and all(c > 0 for c in counts.values()), "empty length multiset")
    _require(len({length % 2 for length in counts}) == 1, "maximal runs of both parities")
    return 1, "ok", tuple(sorted(counts.items()))


def q_steps(calls, ctx, arg):
    entries = _entries(calls, arg)
    known = ctx.witness_length.get(entries, "unknown")
    try:
        steps = calls(analysis.cdr_steps, entries, budget=SEARCH_BUDGET)
    except ValueError as exc:
        if not is_documented_refusal(exc):
            raise
        _require(known in (None, "unknown"), "cdr_steps refused a sortable permutation")
        return 1, "ok", ("not-sortable",)
    _require(steps.total == steps.k + 2 * steps.m, f"{steps}: total is not k + 2m")
    _require(known in (steps.total, "unknown"), f"{steps} but the witness has {known} moves")
    return 1, "ok", tuple(steps)


def q_parity(calls, ctx, arg):
    entries = _entries(calls, arg)
    answer = calls(analysis.parity, entries)
    # An independent maximal run, always taking the highest pointer: every
    # maximal run has the same length parity.
    current, length = entries, 0
    while moves := calls(ops.applicable_cdr_moves, current):
        current = calls(ops.apply_cdr, current, moves[-1]).entries
        length += 1
    _require(answer == ("odd" if length % 2 else "even"),
             f"parity {answer} but a maximal run of length {length}")
    return 1, "ok", (answer,)


def q_greedy_safe(calls, ctx, arg):
    entries = _entries(calls, arg)
    try:
        seq = calls(analysis.greedy_safe_total_sequence, entries)
    except ValueError as exc:
        if not is_documented_refusal(exc):
            raise
        return 1, "ok", ("unoriented-component",)
    kind = calls(analysis.classify_sequence, entries, seq)
    _require(kind == "total", f"greedy-safe sequence is {kind}, not total")
    return 1, "ok", ("total",)


def q_cds_greedy(calls, ctx, arg):
    entries = _entries(calls, arg)
    reached, steps = calls(analysis.cds_sortable_greedy, entries)
    # An independent maximal cds run taking the last move: all maximal cds
    # runs have one length, and reach the identity together or not at all.
    current, length = entries, 0
    while moves := calls(ops.applicable_cds_moves, current):
        current = calls(ops.apply_cds, current, *moves[-1]).entries
        length += 1
    _require(length == steps, f"greedy cds took {steps} steps, another run {length}")
    _require(reached == (current == tuple(range(1, len(entries) + 1))),
             "greedy cds and another maximal run disagree on sorting")
    return 1, "ok", (reached, steps)


def q_graph_text(calls, ctx, arg):
    entries = _entries(calls, arg)
    g = calls(graph.build_overlap_graph, entries)
    text = calls(graph.to_text, g)
    sign = {abs(v): v > 0 for v in entries}
    oriented = {i for i in range(1, len(entries)) if sign[i] != sign[i + 1]}
    _require(g.vertices == frozenset(range(1, len(entries))), "wrong vertex set")
    _require(g.oriented == oriented, "orientation differs from the cdr applicability")
    return 1, "ok", (text,)


def q_game_parity(calls, ctx, arg):
    entries = _entries(calls, arg)
    g = calls(graph.build_overlap_graph, entries)
    winner = calls(games.winner_by_parity, games.GameState(g, games.ONE, "normal"))
    # gcdr mirrors cdr, so the game lasts as long as a maximal cdr run
    odd = calls(analysis.parity, entries) == "odd"
    _require(winner == (games.ONE if odd else games.TWO), f"winner {winner} contradicts the parity")
    return 1, "ok", (winner,)


def q_reduced(calls, ctx, arg):
    entries = _entries(calls, arg)
    collapsed = calls(perm.collapse_adjacencies, entries)
    found, witness = calls.named("cdr_sortable_search.reduced", analysis.cdr_sortable_search,
                                 entries, SEARCH_BUDGET, reduce_adjacencies=True)
    rfound, rwitness = calls.named("reverse_cdr_sortable_search.reduced",
                                   analysis.reverse_cdr_sortable_search,
                                   entries, SEARCH_BUDGET, reduce_adjacencies=True)
    _require(witness is None and rwitness is None, "reduced search returned a witness")
    _require(found is not None and rfound is not None, "reduced search undecided")
    return 1, "ok", (len(collapsed), found, rfound)


def q_cli(calls, ctx, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = calls(cli.main, list(argv))
    except SystemExit as exc:
        raise WrongAnswer(f"cdsort {' '.join(argv)}: argument error {exc.code}") from None
    text = out.getvalue()
    _require(code == 0 and not err.getvalue(), f"cdsort {' '.join(argv)} exited {code}")
    lines = text.splitlines()
    command = argv[0]
    if command == "sort":
        status = lines[-1]
        if argv[-1] == "search":
            # the trace shows one witness; only its status and length are fixed
            steps = [ln for ln in lines if ln.startswith("step ")]
            if status != "status not-cdr-sortable":
                n = len(calls(perm.parse_entries, lines[0].removeprefix("initial ")))
                _require(status == f"status sorted steps={len(steps)}", f"bad status {status!r}")
                _require(lines[-2] == f"final {calls(perm.format_entries, range(1, n + 1))}",
                         "search trace does not end at the identity")
            return 1, "ok", (command, argv[-1], status)
        _require(status.startswith("status sorted"), f"bad status {status!r}")
    elif command == "graph":
        _require(lines[0] == "graph overlap {" and lines[-1] == "}", "malformed DOT output")
    elif command == "parity":
        _require(lines in (["parity: even"], ["parity: odd"]), f"bad parity output {lines}")
    elif command == "fixed-points":
        _require(lines[-1] == "complete", "fixed-point listing incomplete")
    elif command == "game":
        _require(lines[1].endswith("(agree)"), f"minimax disagrees: {lines[1]!r}")
    return 1, "ok", (tuple(argv), text)


QUERY_KINDS = {
    "search": q_search,
    "reverse_search": q_reverse_search,
    "fixed_points": q_fixed_points,
    "maximal_lengths": q_maximal_lengths,
    "cdr_steps": q_steps,
    "parity": q_parity,
    "greedy_safe": q_greedy_safe,
    "cds_greedy": q_cds_greedy,
    "graph_text": q_graph_text,
    "game_parity": q_game_parity,
    "reduced": q_reduced,
    "cli": q_cli,
    "deep_search": lambda calls, ctx, arg: q_search(calls, ctx, arg, budget=3000),
    "deep_maximal_lengths": lambda calls, ctx, arg: q_maximal_lengths(calls, ctx, arg,
                                                                      budget=3000),
}

# Per block of random permutations of one length: the requests asked, in
# groups; a cdr_steps request follows a search on the same permutation so
# that its total can be checked against the witness length.
_BLOCK = (
    [("search", "cdr_steps")] * 3
    + [("reverse_search",)] * 2 + [("fixed_points",)] * 2 + [("maximal_lengths",)] * 2
    + [("parity",)] * 2 + [("greedy_safe",)] * 2 + [("cds_greedy",)] * 2
    + [("graph_text",), ("game_parity",), ("cli",), ("cli",)]
)
_CLI_COMMANDS = (
    ("graph", "{p}", "--format", "dot"),
    ("sort", "{p}", "--strategy", "search"),
    ("parity", "{p}"),
    ("fixed-points", "{p}"),
    ("game", "{p}", "--rule", "normal", "--oracle"),
)
_BLOCKS = {"full": {8: 40, 9: 40, 10: 40, 11: 40, 12: 28, 13: 14},
           "smoke": {6: 1, 7: 1, 8: 1}}
_SMALL_FIXTURES = ("u_pisces_1", "u_pisces_2", "o_nova_actin1", "alpha_tbp")
_FAMILY_FIXTURES = ("sigma_16", "sigma_20", "sigma_21", "tau_21")
_CHEAP_KINDS = ("reduced", "parity", "greedy_safe", "cds_greedy", "graph_text", "game_parity")


def queries(seed: int, scale: str, deep: bool) -> Cycle:
    rng = random.Random(seed)
    # blocks per length: fewer of the costly lengths, so that no few inputs
    # dominate a cycle's time
    blocks = _BLOCKS[scale]
    groups = []
    cli_turn = 0
    for n, count in blocks.items():
        for _ in range(count):
            for group in _BLOCK:
                entries = random_entries(rng, n)
                # half the permutations arrive as text, half as lists
                arg = perm.format_entries(entries) if rng.random() < 0.5 else list(entries)
                out = []
                for kind in group:
                    if kind == "cli":
                        argv = _CLI_COMMANDS[cli_turn % len(_CLI_COMMANDS)]
                        cli_turn += 1
                        out.append(Request("cli", tuple(a.format(p=perm.format_entries(entries))
                                                        for a in argv)))
                    else:
                        out.append(Request(kind, arg))
                groups.append(out)
    table = perm.fixtures()
    for name in _SMALL_FIXTURES + _FAMILY_FIXTURES:
        text = str(table[name])
        kinds = _CHEAP_KINDS + (("search",) if name in _SMALL_FIXTURES else ())
        if scale == "smoke" and name.startswith("u_pisces"):
            kinds = _CHEAP_KINDS
        groups += [[Request(kind, text)] for kind in kinds]
    groups += [
        [Request("cli", ("sort", "--fixture", "u_pisces_1", "--strategy", "indiscriminate",
                         "--allow-cds"))],
        [Request("cli", ("sort", "--fixture", "sigma_16", "--strategy", "greedy-safe"))],
        [Request("cli", ("fixtures",))],
    ]
    if deep:
        deep_input = list(alternating_entries(2000))
        groups += [[Request("deep_search", deep_input)],
                     [Request("deep_maximal_lengths", deep_input)]]
    rng.shuffle(groups)
    warmup = [Request(kind, "[3, -1, 4, -2, 5, 6]") for kind in QUERY_KINDS
              if kind != "cli" and not kind.startswith("deep")]
    warmup.append(Request("cli", ("parity", "[3, -1, 4, -2, 5, 6]")))
    return Cycle([r for s in groups for r in s], warmup)


# ---------------------------------------------------------------------------
# sweep


def s_sweep(calls, ctx, arg):
    prop, n, samples, seed = arg
    if samples:
        result = calls.named(f"run_sweep.{prop}", verify.run_sweep, prop, n,
                             samples=samples, seed=seed)
    else:
        result = calls.named(f"run_sweep.{prop}", verify.run_sweep, prop, n, exhaustive=True)
    expected = samples or 2 ** n * math.factorial(n)
    _require(result.cases == expected, f"{result.cases} records, expected {expected}")
    _require(result.failures == 0, result.summary())
    lines = "\n".join(r.line() for r in result.records) + "\n" + result.summary()
    return result.cases, prop, (lines,)


def sweep(seed: int, scale: str, deep: bool) -> Cycle:
    rng = random.Random(seed)
    exhaustive_n = (5, 6) if scale == "full" else (3, 4)
    sample_n, per_n, samples = ((8, 9), 40, 20) if scale == "full" else ((6,), 1, 5)
    requests = [Request("sweep", (prop, n, 0, 0)) for prop in SWEEP_PROPERTIES
                for n in exhaustive_n]
    requests += [Request("sweep", (prop, n, samples, rng.randrange(2 ** 31)))
                 for prop in SWEEP_PROPERTIES for n in sample_n for _ in range(per_n)]
    rng.shuffle(requests)
    return Cycle(requests, [Request("sweep", (prop, 4, 0, 0)) for prop in SWEEP_PROPERTIES])


# ---------------------------------------------------------------------------
# graphs


def g_overlap(calls, ctx, arg):
    entries = _entries(calls, arg)
    g = calls(graph.build_overlap_graph, entries)
    report = calls(graph.component_report, g)
    unoriented = any(not c.oriented for c in report.components)
    covered = sum(len(c.vertices) for c in report.components) + len(report.isolated)
    _require(covered == len(g.vertices), "component report does not partition the vertices")
    try:
        seq = calls(analysis.greedy_safe_total_sequence, entries)
    except ValueError as exc:
        if not is_documented_refusal(exc):
            raise
        _require(unoriented, "greedy-safe refused a graph without an unoriented component")
        seq = None
    if seq is not None:
        _require(not unoriented, "total sequence on a graph with an unoriented component")
        kind = calls(analysis.classify_sequence, entries, seq)
        _require(kind == "total", f"greedy-safe sequence is {kind}, not total")
    text = calls(graph.to_text, g)
    _require(calls(graph.graph_from_text, text) == g, "text round trip changed the graph")
    winner = calls(games.winner_by_parity, games.GameState(g, games.ONE, "normal"))
    odd = calls(analysis.parity, entries) == "odd"
    _require(winner == (games.ONE if odd else games.TWO), f"winner {winner} contradicts the parity")
    shape = tuple(sorted((len(c.vertices), c.oriented) for c in report.components))
    return 1, "ok", (shape, len(report.isolated), seq is not None, text, winner)


def g_minimax(calls, ctx, arg):
    """Solve a batch of small games exactly and check each against parity."""
    rule, specs = arg
    winners = []
    for n_vertices, edges, oriented in specs:
        g = graph.OrientedGraph(frozenset(range(1, n_vertices + 1)), frozenset(edges),
                                frozenset(oriented))
        state = games.GameState(g, games.ONE, rule)
        exact = calls(games.winner_by_minimax, state)
        fast = calls(games.winner_by_parity, state)
        _require(exact == fast, f"minimax says {exact}, parity says {fast}")
        # playout length parity does not depend on the moves: play the highest vertex
        length = 0
        while g.oriented:
            g = calls(graph.gcdr, g, max(g.oriented))
            length += 1
        mover_wins = (length % 2 == 1) == (rule == "normal")
        _require(exact == (games.ONE if mover_wins else games.TWO),
                 f"winner {exact} but a playout of length {length}")
        winners.append(exact)
    return 1, "agree", (tuple(winners),)


def g_probe(calls, ctx, arg):
    hits = calls(verify.probe_total_sequence_lengths, *arg)
    _require(hits == [], f"total-length probe found {hits[:1]}")
    return 1, "ok", (len(hits),)


def _random_graph(rng: random.Random, n_vertices: int):
    edges = tuple((u, v) for u in range(1, n_vertices + 1) for v in range(u + 1, n_vertices + 1)
                  if rng.random() < 0.5)
    oriented = tuple(v for v in range(1, n_vertices + 1) if rng.random() < 0.5)
    return n_vertices, edges, oriented


def graphs(seed: int, scale: str, deep: bool) -> Cycle:
    rng = random.Random(seed)
    if scale == "full":
        # n = 100..149: the overlap tasks' cost grows about as n**3, so a
        # wider range puts latency_p90_ms on a steep slope, where the few
        # inputs drawn around it move it by more than a tenth
        overlap_n = [100 + 50 * k // 48 for k in range(48)]
        game_sizes, batches, probes = (10, 11, 12), 200, 6
    else:
        overlap_n, game_sizes, batches, probes = (20, 30), (6, 7), 4, 2
    requests = [Request("overlap", list(random_entries(rng, n))) for n in overlap_n]
    # one game of each size per request, so requests cost about the same
    requests += [Request("minimax", ("normal" if k % 2 else "misere",
                                     tuple(_random_graph(rng, size) for size in game_sizes)))
                 for k in range(batches)]
    requests += [Request("probe", (6, 9, rng.randrange(2 ** 31))) for _ in range(probes)]
    rng.shuffle(requests)
    warmup = [Request("overlap", list(random_entries(random.Random(0), 30))),
              Request("minimax", ("normal", ((4, ((1, 2), (2, 3)), (1, 3)),))),
              Request("probe", (2, 5, 0))]
    return Cycle(requests, warmup)


HANDLERS = {**QUERY_KINDS, "sweep": s_sweep, "overlap": g_overlap, "minimax": g_minimax,
            "probe": g_probe}
WORKLOADS = {"queries": queries, "sweep": sweep, "graphs": graphs}
