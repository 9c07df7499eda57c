"""Bulk verification sweeps over signed permutations.

Each sweep checks one structural property on many inputs and emits one record
per input plus a summary, as diff-stable text:

    record  := <property> TAB <PASS|FAIL> TAB <permutation> TAB <detail>
    summary := "# summary property=<p> n=<n> mode=<exhaustive|samples> "
               "cases=<c> failures=<f> seed=<s>"

Exhaustive mode visits all 2^n * n! signed permutations of length n in a fixed
order.  Sample mode draws permutations of length n uniformly at random from a
seeded generator, so a (seed, n, samples) triple always reproduces the same
records.

The exhaustive parity, same-length, rescue and steps sweeps fold one state
per orbit of the symmetries of the cdr move graph (ops.CdrOrbits), the least
of its images, and spend one unit of the budget per canonical state: their
records are the plain fold's, in about a quarter of the states (half for
same-length, whose group is the identity and CNR, the maps that fix the
identity).  Sample mode, tuple states (n >= 128), cds-same-length and
commutation fold plainly, one state per signed permutation; rescue and steps
run the same fixed-point fold there, over the group of the identity alone.

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
from itertools import repeat
from typing import Callable, Iterable

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

@dataclass(frozen=True)
class CheckRecord:
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
        seed = "-" if self.seed is None else str(self.seed)
        return (f"# summary property={self.prop} n={self.n} mode={self.mode} "
                f"cases={self.cases} failures={self.failures} seed={seed}")


# the properties whose exhaustive sweeps fold over one state per orbit (see
# ops.CdrOrbits), and whether their group is only the identity and CNR
_ORBITS = {"parity": False, "same-length": True, "rescue": False, "steps": False}


class _SweepContext:
    """One sweep's budget, its one memo, its verdicts by length mask and its
    greedy-cds cache, shared across its inputs: a sweep checks one property,
    which folds one way.

    The exhaustive parity, same-length, rescue and steps sweeps fold over the
    canonical states of ``group``, an ops.CdrOrbits, spending one unit per
    canonical state; their records are those of the plain fold.  The other
    sweeps fold plainly, on the states of ops.cdr_states (or of
    ops.cds_states, for cds-same-length), and rescue and steps there fold
    over ``group`` as the group of the identity alone, _OneMap, where each
    state is its own orbit.  ``targets[k]`` is the identity's state, taken
    by the k-th map of ``group``.  The commutation sweep folds nothing: it
    spends one unit per overlap-graph position it builds and, exhaustive,
    keeps each state's in the memo."""

    def __init__(self, prop: str, n: int, budget: int, exhaustive: bool):
        self.tracker = Tracker(budget)
        self.memo: dict = {}
        self.verdicts: dict = {}
        self.exhaustive = exhaustive
        self.identity = identity_entries(n)
        target, kernel, decode = ops.cdr_states(self.identity)
        if exhaustive and prop in _ORBITS and n <= 127:  # bytes states
            self.group = ops.CdrOrbits(n, cnr_only=_ORBITS[prop])
            self.states = self.group.states
        else:
            self.group = _OneMap(kernel)
            self.states = ops.cdr_states
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

    def verdict(self, judge, mask: int) -> tuple[bool, str]:
        """judge(mask), the (ok, detail) of a record, built once per distinct
        length mask in the sweep."""
        hit = self.verdicts.get(mask)
        if hit is None:
            hit = self.verdicts[mask] = judge(mask)
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
        state, builds each position once.  Sampled inputs share almost no
        states, so there a memo would only grow: at n = 130 it held about
        9 KB per state."""
        if not self.exhaustive:
            self.tracker.spend()
            return graphmod.overlap_masks(decode(state))
        hit = self.memo.get(state)
        if hit is None:
            self.tracker.spend()
            hit = self.memo[state] = graphmod.overlap_masks(decode(state))
        return hit


def _same(x):
    return x


class _OneMap:
    """The group of the identity alone on the states of a cdr children
    kernel, shaped as ops.CdrOrbits for _fixed_point_states: each state is
    its own orbit, and every child is reached by map 0."""

    maps = (_same,)

    def __init__(self, kernel):
        self.edges = lambda state: zip(kernel(state), repeat(0))

    @staticmethod
    def locate(state):
        return state, 0


def _fixed_point_states(state, memo: dict, spend, group) -> dict:
    """The fixed-point fold at a state not in ``memo``, over the orbits of
    ``group`` (ops.CdrOrbits or _OneMap): each orbit's state holds its fixed
    points, as states, with the length masks of the cdr runs ending there.
    Every maximal run ends at some fixed point, so this covers every run
    without enumerating paths.  A child's table is its orbit's taken back by
    the map that took the child there, so nothing is decoded here.  Each
    state spends one unit, and is folded, in the order and with the frames
    of analysis.fold."""
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
        else:  # map 0, the identity, on every edge of _OneMap: no call per entry
            for fp, mask in res.items():
                table[fp] = table.get(fp, 0) | mask << 1
    table = memo[state] = table or {state: 1}
    return table


def _parity(mask: int) -> tuple[bool, str]:
    lengths = mask_lengths(mask)
    return len({length % 2 for length in lengths}) == 1, "lengths=" + ",".join(map(str, lengths))


def _check_parity(entries: Entries, ctx: _SweepContext) -> tuple[bool, str]:
    return ctx.verdict(_parity, analysis.maximal_length_mask(entries, ctx.memo, ctx.tracker,
                                                             ctx.states))


def _same_length(mask: int) -> tuple[bool, str]:
    if not mask:
        return True, "not-cdr-sortable"
    lengths = mask_lengths(mask)
    return len(lengths) == 1, "sorting-lengths=" + ",".join(map(str, lengths))


def _check_same_length(entries: Entries, ctx: _SweepContext) -> tuple[bool, str]:
    return ctx.verdict(_same_length, analysis.sorting_length_mask(entries, ctx.memo, ctx.tracker,
                                                                  ctx.states))


def _check_rescue(entries: Entries, ctx: _SweepContext) -> tuple[bool, str]:
    fps, k = ctx.fixed_points(entries)
    if ctx.targets[k] not in fps:
        return True, "not-cdr-sortable"
    bad = 0
    for fp in fps:
        fp, end, _ = ctx.cds_finish(fp)[k]
        if end != ctx.identity or any(v < 0 for v in fp):
            bad += 1
    return bad == 0, f"fixed-points={len(fps)} unrescued={bad}"


def _check_steps(entries: Entries, ctx: _SweepContext) -> tuple[bool, str]:
    fps, k = ctx.fixed_points(entries)
    target = ctx.targets[k]
    if target not in fps:
        return True, "not-cdr-sortable"
    sort_lengths = mask_lengths(fps[target])
    if len(sort_lengths) != 1:
        return False, "sorting-lengths=" + ",".join(map(str, sort_lengths))
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
    return bad == 0, f"runs={pairs} violations={bad} sorting-length={sorting_length}"


def _cds_same_length(mask: int) -> tuple[bool, str]:
    lengths = mask_lengths(mask)
    return len(lengths) == 1, "lengths=" + ",".join(map(str, lengths))


def _check_cds_same_length(entries: Entries, ctx: _SweepContext) -> tuple[bool, str]:
    return ctx.verdict(_cds_same_length, analysis.maximal_length_mask(
        entries, ctx.memo, ctx.tracker, ops.cds_states))


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
    return bad == 0, f"pointers={len(moves)} violations={bad}"


_CHECKS: dict[str, Callable[[Entries, _SweepContext], tuple[bool, str]]] = {
    "parity": _check_parity,
    "same-length": _check_same_length,
    "rescue": _check_rescue,
    "steps": _check_steps,
    "cds-same-length": _check_cds_same_length,
    "commutation": _check_commutation,
}

PROPERTIES = tuple(sorted(_CHECKS))


def run_sweep(prop: str, n: int, *, exhaustive: bool = False, samples: int = 0,
              seed: int = 0, budget: int = DEFAULT_BUDGET) -> SweepResult:
    """Run one property sweep.  Exactly one of exhaustive/samples selects the
    input set; sample mode draws permutations of length n."""
    if prop not in _CHECKS:
        raise ValueError(f"unknown property {prop!r}; known: {', '.join(PROPERTIES)}")
    if n < 1 or samples < 0:
        raise ValueError(f"a sweep needs n >= 1 and samples >= 0, got n={n}, samples={samples}")
    if exhaustive == bool(samples):
        raise ValueError("choose exactly one of exhaustive or samples")
    check = _CHECKS[prop]
    ctx = _SweepContext(prop, n, budget, exhaustive)
    if exhaustive:
        inputs: Iterable[Entries] = all_signed_permutations(n)
        mode, used_seed = "exhaustive", None
    else:
        rng = random.Random(seed)
        inputs = (random_signed_permutation(rng, n) for _ in range(samples))
        mode, used_seed = "samples", seed
    records = []
    for entries in inputs:
        ok, detail = check(entries, ctx)
        records.append(CheckRecord(prop, format_entries(entries), ok, detail))
    return SweepResult(prop, n, mode, used_seed, tuple(records))


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
