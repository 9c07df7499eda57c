"""Command-line interface.

Subcommands: graph, apply, sort, verify, game, fixed-points, fixtures, parity.
Permutations come from a positional literal like "[1, -3, 2]", from --file
(first non-comment line of a one-permutation-per-line file), or from --fixture
NAME.  All output is deterministic for fixed arguments and seed, so goldens
diff cleanly.  Exit status: 0 on success, 1 with an "error: ..." diagnostic on
stderr for bad input, an inapplicable operation or running out of memory
(verify also exits 1 when a property sweep records failures).
"""
from __future__ import annotations

import argparse
import functools
import sys

from . import analysis, games, verify
from .graph import build_overlap_graph, gf2_rank, graph_from_text, masks, to_dot, to_text
from .ops import NotApplicableError, SortTrace, TraceStep, apply_cdr, apply_cds
from .perm import PermutationError, SignedPermutation, fixtures


def _add_perm_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("perm", nargs="?", help='permutation literal, e.g. "[1, -3, 2]"')
    parser.add_argument("--file", help="read the permutation from this file")
    parser.add_argument("--fixture", help="use a named fixture (see the fixtures command)")


def _resolve_perm(args) -> SignedPermutation:
    sources = [s for s in (args.perm, args.file, args.fixture) if s is not None]
    if len(sources) != 1:
        raise PermutationError("supply exactly one of: permutation literal, --file, --fixture")
    if args.perm is not None:
        return SignedPermutation.parse(args.perm)
    if args.fixture is not None:
        table = fixtures()
        if args.fixture not in table:
            known = ", ".join(sorted(table))
            raise PermutationError(f"unknown fixture {args.fixture!r}; known: {known}")
        return table[args.fixture]
    with open(args.file, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                return SignedPermutation.parse(line)
    raise PermutationError(f"no permutation found in {args.file}")


def cmd_graph(args) -> int:
    g = build_overlap_graph(_resolve_perm(args))
    text = to_dot(g) if args.format == "dot" else to_text(g)
    sys.stdout.write(text)
    return 0


def cmd_apply(args) -> int:
    perm = _resolve_perm(args)
    if args.op == "cdr":
        if args.pointer is None:
            raise PermutationError("--op cdr needs --pointer I")
        move = args.pointer
        result = apply_cdr(perm, move)
    else:
        if args.pointers is None:
            raise PermutationError("--op cds needs --pointers I,J")
        try:
            i, j = (int(t) for t in args.pointers.split(","))
        except ValueError:
            raise PermutationError(f"--pointers expects two integers, got {args.pointers!r}") from None
        move = (min(i, j), max(i, j))
        result = apply_cds(perm, i, j)
    print(SortTrace(perm, (TraceStep(args.op, move, result),)))
    return 0


def cmd_sort(args) -> int:
    perm = _resolve_perm(args)
    if args.allow_cds and args.strategy != "indiscriminate":
        raise PermutationError("--allow-cds requires --strategy indiscriminate")
    if args.strategy == "search":
        sortable, witness = analysis.cdr_sortable_search(perm, args.budget)
        if sortable is None:
            print(f"initial {perm}")
            print("status undecided (budget exhausted)")
            return 1
        if not sortable:
            print(SortTrace(perm, ()))
            print("status not-cdr-sortable")
            return 0
        trace = SortTrace.from_moves(perm, [("cdr", i) for i in witness])
    elif args.strategy == "greedy-safe":
        seq = analysis.greedy_safe_total_sequence(perm)
        trace = SortTrace.from_moves(perm, [("cdr", i) for i in seq])
    else:
        trace = analysis.indiscriminate_cdr_trace(perm)
        k = len(trace.steps)
        if args.allow_cds:
            cds_trace, _ = analysis.greedy_cds_trace(trace.final)
            m = len(cds_trace.steps)
            trace = SortTrace(perm, trace.steps + cds_trace.steps)
            print(trace)
            print(f"k={k}, m={m}, k+2m={k + 2 * m}")
            print(f"status {'sorted' if trace.final.is_identity() else 'not-sorted'}")
            return 0
    print(trace)
    status = "sorted" if trace.final.is_identity() else "not-sorted"
    print(f"status {status} steps={len(trace.steps)}")
    return 0


def cmd_verify(args) -> int:
    """Writes each record as the sweep gives it, so it holds none of them; a
    sweep that fails part-way has written its header and the records before
    the failure when main writes the error line."""
    records = verify.sweep_records(
        args.property, args.n,
        exhaustive=args.exhaustive, samples=args.samples or 0,
        seed=args.seed, budget=args.budget,
    )
    mode, seed = ("exhaustive", None) if args.exhaustive else ("samples", args.seed)
    print(verify.header_line(args.property, args.n, mode, seed, args.budget))
    write = sys.stdout.write
    cases = failures = 0
    for record in records:
        write(record.line() + "\n")
        cases += 1
        failures += not record.ok
    print(verify.summary_line(args.property, args.n, mode, seed, cases, failures))
    return 0 if failures == 0 else 1


def cmd_game(args) -> int:
    if args.graph_file is not None:
        if args.perm or args.file or args.fixture:
            raise PermutationError("give either a permutation or --graph-file, not both")
        with open(args.graph_file, encoding="utf-8") as fh:
            g = graph_from_text(fh.read())
    else:
        g = build_overlap_graph(_resolve_perm(args))
    state = games.GameState(g, games.ONE, args.rule)
    winner = games.winner_by_parity(state)
    # every playout's length has the parity of the position's rank over GF(2)
    # (see analysis.parity), so only --trace plays the game out
    parity_word = "odd" if gf2_rank(*masks(g)) % 2 else "even"
    print(f"winner: {winner} (parity {parity_word})")
    if args.oracle:
        oracle = games.winner_by_minimax(state)
        verdict = "agree" if oracle == winner else "DISAGREE"
        print(f"oracle: {oracle} ({verdict})")
    if args.trace:
        for record in games.playout(state):
            print(record.line())
    return 0


def cmd_fixed_points(args) -> int:
    perm = _resolve_perm(args)
    enum = analysis.enumerate_cdr_fixed_points(perm, args.budget)
    items = sorted(enum.by_fixed_point.items(), key=lambda kv: (kv[1], kv[0].entries))
    for fp, lengths in items:
        print(f"{fp} steps={','.join(map(str, lengths))}")
    print("complete" if enum.complete else "incomplete (budget exhausted)")
    return 0


def cmd_fixtures(_args) -> int:
    for name, perm in sorted(fixtures().items()):
        print(f"{name} {perm}")
    return 0


def cmd_parity(args) -> int:
    print(f"parity: {analysis.parity(_resolve_perm(args))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdsort",
        description="Context-directed sorting of signed permutations: operations, "
                    "overlap graphs, verification sweeps, and gcdr games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="print the oriented overlap graph")
    _add_perm_source(p)
    p.add_argument("--format", choices=("dot", "text"), default="dot")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("apply", help="apply one cdr or cds operation")
    _add_perm_source(p)
    p.add_argument("--op", choices=("cdr", "cds"), required=True)
    p.add_argument("--pointer", type=int, help="cdr pointer: low value i of (i,i+1)")
    p.add_argument("--pointers", help="cds pointers: I,J (low values)")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("sort", help="sort by cdr (optionally finishing with cds)")
    _add_perm_source(p)
    p.add_argument("--strategy", choices=("search", "greedy-safe", "indiscriminate"),
                   default="search")
    p.add_argument("--allow-cds", action="store_true",
                   help="after the indiscriminate cdr run, finish with greedy cds")
    p.add_argument("--budget", type=int, default=analysis.DEFAULT_BUDGET)
    p.set_defaults(func=cmd_sort)

    p = sub.add_parser("verify", help="run a property sweep")
    p.add_argument("--property", required=True, choices=verify.PROPERTIES)
    p.add_argument("--n", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=analysis.DEFAULT_BUDGET)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("game", help="solve the gcdr game")
    _add_perm_source(p)
    p.add_argument("--graph-file", help="oriented graph in the text format")
    p.add_argument("--rule", choices=games.RULES, default="normal")
    p.add_argument("--oracle", action="store_true", help="cross-check with minimax")
    p.add_argument("--trace", action="store_true", help="print one record per ply")
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("fixed-points", help="list reachable cdr fixed points")
    _add_perm_source(p)
    p.add_argument("--budget", type=int, default=analysis.DEFAULT_BUDGET)
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("fixtures", help="list the named study permutations")
    p.set_defaults(func=cmd_fixtures)

    p = sub.add_parser("parity", help="parity of the maximal cdr run length")
    _add_perm_source(p)
    p.set_defaults(func=cmd_parity)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs more than most
    commands do, and parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # ValueError covers PermutationError and games.IllegalMoveError too
    try:
        return args.func(args)
    except (ValueError, OSError, NotApplicableError, RecursionError, MemoryError,
            analysis.BudgetExceededError, analysis.TheoremViolationError) as exc:
        # verify's folds recurse once per move of a run, so a long enough
        # run raises RecursionError; no other command recurses per move.
        # MemoryError is a last resort, raised when an allocation fails, as
        # under `ulimit -v`; a process the kernel kills for want of memory
        # cannot catch anything.  Its str() is empty.
        if isinstance(exc, RecursionError):
            message = "cdr runs from this input are too long for the exhaustive search"
        elif isinstance(exc, MemoryError):
            message = "out of memory"
        else:
            message = exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
