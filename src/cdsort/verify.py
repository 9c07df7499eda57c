"""Bulk verification sweeps over signed permutations.

Each sweep checks one structural property on many inputs and emits a header,
one record per input and a summary, as diff-stable text:

    header  := "# sweep property=<p> n=<n> mode=<exhaustive|samples> "
               "seed=<s> budget=<b>"
    record  := <property> TAB <PASS|FAIL> TAB <permutation> TAB <detail>
    summary := "# summary property=<p> n=<n> mode=<exhaustive|samples> "
               "cases=<c> failures=<f> seed=<s>"

An exhaustive sweep has no seed, written "-".

Exhaustive mode visits all 2^n * n! signed permutations of length n in a fixed
order.  Sample mode draws permutations of length n uniformly at random from a
seeded generator, so a (seed, n, samples) triple always reproduces the same
records.

sweep_records gives a sweep's records one at a time, as it checks each
input, so a caller that writes each as it comes holds none of them;
run_sweep collects them into a SweepResult.  A sweep that runs out of budget
raises BudgetExceededError after the records it has already given.  Besides
its fold memo, a sweep keeps one object per distinct value its records
repeat: one (ok, detail) pair per distinct set of the numbers a detail
prints, and, exhaustive, one overlap-graph position per distinct position
the commutation sweep builds.

The parity, same-length, rescue and steps sweeps fold one state per orbit
of a group of the symmetries of the cdr move graph, an ops.CdrOrbits, the
least of its images, and spend one unit of the budget per canonical state:
their records are the plain fold's.  One table, _PROPERTIES, gives each
property its check and the order of the group its sweep folds over, and
says why; rescue and steps run one fixed-point fold in every mode.

Properties:

* parity           -- all maximal cdr run lengths share one parity.
* same-length      -- all cdr runs sorting the input have one length.
* rescue           -- every reachable cdr fixed point of a cdr-sortable input
                      is finished by greedy cds, and is all-positive.
* steps            -- k + 2m equals the sorting length for every reachable
                      (fixed point, run length) pair of a cdr-sortable input.
* cds-same-length  -- all maximal cds run lengths are equal.
* commutation      -- building the overlap graph commutes with cdr/gcdr at
                      every applicable pointer.
"""
from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

from . import analysis, ops
from . import graph as graphmod
from .analysis import DEFAULT_BUDGET, Tracker, mask_lengths
from .graph import random_oriented_graph
from .perm import (
    Entries,
    all_signed_permutations,
    format_entries,
    identity_entries,
    random_signed_permutation,
)

class CheckRecord(NamedTuple):
    """One input's verdict; line() is its text.  A NamedTuple, so that a
    sweep's many records cost a tuple each."""

    prop: str
    subject: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"{self.prop}\t{'PASS' if self.ok else 'FAIL'}\t{self.subject}\t{self.detail}"


@dataclass(frozen=True)
class SweepResult:
    prop: str
    n: int
    mode: str
    seed: int | None
    records: tuple[CheckRecord, ...]

    @property
    def cases(self) -> int:
        return len(self.records)

    @property
    def failures(self) -> int:
        return sum(1 for r in self.records if not r.ok)

    def summary(self) -> str:
        return summary_line(self.prop, self.n, self.mode, self.seed, self.cases, self.failures)


def header_line(prop: str, n: int, mode: str, seed: int | None, budget: int) -> str:
    """The opening line of a sweep's text, from its arguments.

    >>> header_line("parity", 3, "exhaustive", None, 10_000_000)
    '# sweep property=parity n=3 mode=exhaustive seed=- budget=10000000'
    """
    return f"# sweep property={prop} n={n} mode={mode} seed={_seed_text(seed)} budget={budget}"


def summary_line(prop: str, n: int, mode: str, seed: int | None, cases: int,
                 failures: int) -> str:
    """The closing line of a sweep's text, from its counts."""
    return (f"# summary property={prop} n={n} mode={mode} "
            f"cases={cases} failures={failures} seed={_seed_text(seed)}")


def _seed_text(seed: int | None) -> str:
    """A seed as a sweep's text writes it: "-" for an exhaustive sweep's."""
    return "-" if seed is None else str(seed)


class _SweepContext:
    """One sweep's budget, its one memo, its verdicts, its overlap-graph
    positions and its greedy-cds cache, shared across its inputs: a sweep
    checks one property, which folds one way.

    The parity, same-length, rescue and steps sweeps fold over the canonical
    states of ``group``, the ops.CdrOrbits of the order _PROPERTIES says.
    They spend one unit per canonical state, and their records are those of
    the plain fold.  cds-same-length folds on ops.cds_states.
    ``targets[k]`` is the identity's state, taken by the k-th map of
    ``group``.  The commutation sweep folds nothing: it spends one unit per
    overlap-graph position it builds and, exhaustive, keeps each state's in
    the memo, one object per distinct position."""

    def __init__(self, prop: str, n: int, budget: int, exhaustive: bool):
        self.tracker = Tracker(budget)
        self.memo: dict = {}
        self.verdicts: dict = {}
        self.positions: dict = {}
        self.exhaustive = exhaustive
        self.identity = identity_entries(n)
        target, _, decode = ops.cdr_states(self.identity)
        self.group = ops.CdrOrbits(n, _PROPERTIES[prop][1] if exhaustive else 1)
        maps = self.group.maps
        self.targets = tuple(image(target) for image in maps)

        @functools.cache
        def cds_finish(fp):
            """Per map k: (the entries of the k-th image of a fixed point's
            state, greedy cds's end state from there, and its step count)."""
            finish = []
            for image in maps:
                entries = decode(image(fp))
                end, steps, _ = ops.greedy_cds_run(entries)
                finish.append((entries, end, steps))
            return finish

        self.cds_finish = cds_finish

    def verdict(self, judge, key) -> tuple[bool, str]:
        """judge(key), the (ok, detail) of a record, built once per distinct
        key in the sweep: a length mask, or the numbers the detail prints.
        Records with equal details share one string."""
        hit = self.verdicts.get(key)
        if hit is None:
            hit = self.verdicts[key] = judge(key)
        return hit

    def fixed_points(self, entries: Entries) -> tuple[dict, int]:
        """(table, k): fixed point -> length mask of the cdr runs ending
        there, for the orbit of the input's state, and the index of the map
        that took the input's state to that orbit's (each map is its own
        inverse).  The table is keyed by states: targets[k] is the identity
        and cds_finish(fp)[k] reads the fixed point, in the table's keys."""
        state, k = self.group.locate(ops.cdr_states(entries)[0])
        table = self.memo.get(state)
        if table is None:
            table = _fixed_point_states(state, self.memo, self.tracker.spend, self.group)
        return table, k

    def overlap_masks(self, state, decode):
        """The overlap-graph position of a state of ops.cdr_states.  In an
        exhaustive sweep every child is also an input, so the memo, keyed by
        state, builds each position once.  Many states share a position (at
        n = 7, 645,120 states have 46,080 positions), so the memo holds one
        object per distinct position, through ``positions``.  Sampled inputs
        share almost no states, so there a memo would only grow: at n = 130 it
        held about 9 KB per state."""
        if not self.exhaustive:
            self.tracker.spend()
            return graphmod.overlap_masks(decode(state))
        hit = self.memo.get(state)
        if hit is None:
            self.tracker.spend()
            position = graphmod.overlap_masks(decode(state))
            hit = self.memo[state] = self.positions.setdefault(position, position)
        return hit


def _fixed_point_states(state, memo: dict, spend, group) -> dict:
    """The fixed-point fold at a state not in ``memo``, over the orbits of
    ``group``, an ops.CdrOrbits of order 4 or 1: each orbit's state holds
    its fixed points, as states, with the length masks of the cdr runs
    ending there.  Every maximal run ends at some fixed point, so this
    covers every run without enumerating paths.  A child's table is its
    orbit's taken back by the map that took the child there, so nothing is
    decoded here.  Each state spends one unit, and is folded, in the order
    and with the frames of analysis.fold."""
    spend()
    table: dict = {}
    maps = group.maps
    for child, k in group.edges(state):
        res = memo.get(child)
        if res is None:
            res = _fixed_point_states(child, memo, spend, group)
        if k:
            image = maps[k]
            for fp, mask in res.items():
                fp = image(fp)
                table[fp] = table.get(fp, 0) | mask << 1
        else:  # map 0, the identity, on every edge at order 1: no call per entry
            for fp, mask in res.items():
                table[fp] = table.get(fp, 0) | mask << 1
    table = memo[state] = table or {state: 1}
    return table


def _parity(mask: int) -> tuple[bool, str]:
    lengths = mask_lengths(mask)
    return len({length % 2 for length in lengths}) == 1, "lengths=" + ",".join(map(str, lengths))


def _check_parity(entries: Entries, ctx: _SweepContext) -> tuple[bool, str]:
    return ctx.verdict(_parity, analysis.maximal_length_mask(entries, ctx.memo, ctx.tracker,
                                                             ctx.group.states))


def _same_length(mask: int) -> tuple[bool, str]:
    if not mask:
        return True, "not-cdr-sortable"
    lengths = mask_lengths(mask)
    return len(lengths) == 1, "sorting-lengths=" + ",".join(map(str, lengths))


def _check_same_length(entries: Entries, ctx: _SweepContext) -> tuple[bool, str]:
    return ctx.verdict(_same_length, analysis.sorting_length_mask(entries, ctx.memo, ctx.tracker,
                                                                  ctx.group.states))


def _rescue(key: tuple[int, int]) -> tuple[bool, str]:
    fixed_points, bad = key
    return bad == 0, f"fixed-points={fixed_points} unrescued={bad}"


def _check_rescue(entries: Entries, ctx: _SweepContext) -> tuple[bool, str]:
    fps, k = ctx.fixed_points(entries)
    if ctx.targets[k] not in fps:
        return True, "not-cdr-sortable"
    bad = 0
    for fp in fps:
        fp, end, _ = ctx.cds_finish(fp)[k]
        if end != ctx.identity or any(v < 0 for v in fp):
            bad += 1
    return ctx.verdict(_rescue, (len(fps), bad))


def _steps(key: tuple[int, int, int]) -> tuple[bool, str]:
    pairs, bad, sorting_length = key
    return bad == 0, f"runs={pairs} violations={bad} sorting-length={sorting_length}"


def _check_steps(entries: Entries, ctx: _SweepContext) -> tuple[bool, str]:
    fps, k = ctx.fixed_points(entries)
    target = ctx.targets[k]
    if target not in fps:
        return True, "not-cdr-sortable"
    sort_lengths = mask_lengths(fps[target])
    if len(sort_lengths) != 1:
        return ctx.verdict(_same_length, fps[target])
    sorting_length = sort_lengths[0]
    pairs = 0
    bad = 0
    for fp, mask in fps.items():
        ks = mask_lengths(mask)
        _, end, m = ctx.cds_finish(fp)[k]
        if end != ctx.identity:
            bad += len(ks)
            pairs += len(ks)
            continue
        for length in ks:
            pairs += 1
            if length + 2 * m != sorting_length:
                bad += 1
    return ctx.verdict(_steps, (pairs, bad, sorting_length))


def _cds_same_length(mask: int) -> tuple[bool, str]:
    lengths = mask_lengths(mask)
    return len(lengths) == 1, "lengths=" + ",".join(map(str, lengths))


def _check_cds_same_length(entries: Entries, ctx: _SweepContext) -> tuple[bool, str]:
    return ctx.verdict(_cds_same_length, analysis.maximal_length_mask(
        entries, ctx.memo, ctx.tracker, ops.cds_states))


def _commutation(key: tuple[int, int]) -> tuple[bool, str]:
    pointers, bad = key
    return bad == 0, f"pointers={pointers} violations={bad}"


def _check_commutation(entries: Entries, ctx: _SweepContext) -> tuple[bool, str]:
    moves = ops.cdr_moves(entries)
    # the children of the kernel the exhaustive searches run at this n
    root, kernel, decode = ops.cdr_states(entries)
    rows, ori = ctx.overlap_masks(root, decode)
    children = list(kernel(root))
    # one child per listed pointer, in order, and pointer i at rank i - 1: a
    # child too few or too many, and a pointer listed xor oriented, count once
    bad = abs(len(children) - len(moves)) + (ori ^ sum(1 << (i - 1) for i in moves)).bit_count()
    for i, child in zip(moves, children):
        if ctx.overlap_masks(child, decode) != graphmod.move(rows, ori, i - 1):
            bad += 1
    return ctx.verdict(_commutation, (len(moves), bad))


# each property's check, and the order of the ops.CdrOrbits group its
# exhaustive sweep folds over: 4, all four maps, for parity, rescue and steps
# (about a quarter of the states); 2, the identity and CNR, the maps that fix
# the identity, for same-length (about half); and 1, the identity alone, one
# state per signed permutation, for the sweeps that fold plainly
# (cds-same-length's fold is on ops.cds_states, and commutation checks the
# kernel itself, so it must see every state).  Sample mode takes order 1:
# canonicalising each input costs more than the few states sampled inputs
# share save.  On tuple states ops gives order 1 whatever order is asked.
_PROPERTIES: dict[str, tuple[Callable[[Entries, _SweepContext], tuple[bool, str]], int]] = {
    "parity": (_check_parity, 4),
    "same-length": (_check_same_length, 2),
    "rescue": (_check_rescue, 4),
    "steps": (_check_steps, 4),
    "cds-same-length": (_check_cds_same_length, 1),
    "commutation": (_check_commutation, 1),
}

PROPERTIES = tuple(sorted(_PROPERTIES))


def sweep_records(prop: str, n: int, *, exhaustive: bool = False, samples: int = 0,
                  seed: int = 0, budget: int = DEFAULT_BUDGET) -> Iterator[CheckRecord]:
    """One property sweep's records, in input order, each checked as it is
    asked for.  Exactly one of exhaustive/samples selects the input set;
    sample mode draws permutations of length n from random.Random(seed), so
    its seed must be an int.  The arguments are checked here, before the
    first record; an error from a check, such as BudgetExceededError, comes
    from the iterator, after the records before it."""
    if prop not in _PROPERTIES:
        raise ValueError(f"unknown property {prop!r}; known: {', '.join(PROPERTIES)}")
    if n < 1 or samples < 0:
        raise ValueError(f"a sweep needs n >= 1 and samples >= 0, got n={n}, samples={samples}")
    if exhaustive == bool(samples):
        raise ValueError("choose exactly one of exhaustive or samples")
    if samples and not isinstance(seed, int):
        raise ValueError(f"a sampled sweep needs an int seed, got {seed!r}")
    check = _PROPERTIES[prop][0]
    ctx = _SweepContext(prop, n, budget, exhaustive)
    if exhaustive:
        inputs: Iterable[Entries] = all_signed_permutations(n)
    else:
        rng = random.Random(seed)
        inputs = (random_signed_permutation(rng, n) for _ in range(samples))
    return _records(prop, check, ctx, inputs)


def _records(prop: str, check, ctx: _SweepContext,
             inputs: Iterable[Entries]) -> Iterator[CheckRecord]:
    """The generator sweep_records returns: apart from it, so that
    sweep_records checks its arguments when it is called."""
    for entries in inputs:
        ok, detail = check(entries, ctx)
        yield CheckRecord(prop, format_entries(entries), ok, detail)


def run_sweep(prop: str, n: int, *, exhaustive: bool = False, samples: int = 0,
              seed: int = 0, budget: int = DEFAULT_BUDGET) -> SweepResult:
    """Run one property sweep to the end and keep its records: sweep_records,
    collected."""
    records = tuple(sweep_records(prop, n, exhaustive=exhaustive, samples=samples, seed=seed,
                                  budget=budget))
    if exhaustive:
        return SweepResult(prop, n, "exhaustive", None, records)
    return SweepResult(prop, n, "samples", seed, records)


def probe_total_sequence_lengths(num_graphs: int, max_vertices: int, seed: int,
                                 budget: int = DEFAULT_BUDGET) -> list[str]:
    """On random oriented graphs, do all total sequences have one length?
    Returns descriptions of the graphs where they do not; expected empty.

    Each gcdr lowers the GF(2) rank of the adjacency matrix with the
    orientation flags on its diagonal by exactly one (graph.gf2_rank), and a
    total terminal's matrix is zero, so every total sequence has length equal
    to that rank.  The probe is therefore a cross-check of the move kernel
    against that lemma, not an open question.

    Layer 0 holds the graph's position and layer d + 1 every position one
    gcdr from layer d; a length is a depth whose layer holds the total
    terminal.  Each layer is a set of its own, so a position reached at two
    depths sits in two layers: the pass does not assume the lemma, and a
    kernel reaching the total terminal at two depths gives a hit."""
    rng = random.Random(seed)
    tracker = Tracker(budget)
    hits = []
    for _ in range(num_graphs):
        g = random_oriented_graph(rng, rng.randint(1, max_vertices))
        lengths = _total_lengths(*graphmod.masks(g), tracker)
        if len(lengths) > 1:
            hits.append(f"total lengths {sorted(lengths)} on {g}")
    return hits


def _total_lengths(rows: tuple, ori: int, tracker: Tracker) -> frozenset[int]:
    """The probe's layered pass from a position.  A position spends one unit
    of ``tracker`` as it first enters a layer, so the budget bounds the
    positions held, not only the moves tried."""
    total = ((0,) * len(rows), 0)
    tracker.spend()
    layer = {(rows, ori)}
    lengths = []
    depth = 0
    while layer:
        if total in layer:
            lengths.append(depth)
        below = set()
        for rows, ori in layer:
            for i in graphmod.bits(ori):
                child = graphmod.move(rows, ori, i)
                if child not in below:
                    tracker.spend()
                    below.add(child)
        layer = below
        depth += 1
    return frozenset(lengths)
