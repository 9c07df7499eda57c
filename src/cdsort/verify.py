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

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

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


class _SweepContext:
    """Shared memo tables for one sweep; reused across its inputs."""

    def __init__(self, budget: int):
        self.tracker = Tracker(budget)
        self.fp_memo: dict = {}
        self.maximal_memo: dict = {}
        self.cds_memo: dict = {}
        self.greedy_cache: dict = {}

    def fixed_points(self, entries: Entries) -> dict:
        """fixed point -> length mask of the cdr runs reaching it."""
        return analysis.fixed_point_masks(entries, self.fp_memo, self.tracker)

    def maximal_lengths(self, entries: Entries) -> tuple[int, ...]:
        return mask_lengths(analysis.maximal_length_mask(entries, self.maximal_memo, self.tracker))

    def cds_lengths(self, entries: Entries) -> tuple[int, ...]:
        return mask_lengths(analysis.cds_length_mask(entries, self.cds_memo, self.tracker))

    def greedy_cds(self, entries: Entries):
        hit = self.greedy_cache.get(entries)
        if hit is None:
            end, steps, _ = ops.greedy_cds_run(entries)
            hit = (end, steps)
            self.greedy_cache[entries] = hit
        return hit


def _check_parity(entries: Entries, ctx: _SweepContext) -> tuple[bool, str]:
    lengths = ctx.maximal_lengths(entries)
    ok = len({length % 2 for length in lengths}) == 1
    return ok, "lengths=" + ",".join(map(str, lengths))


def _check_same_length(entries: Entries, ctx: _SweepContext) -> tuple[bool, str]:
    mask = ctx.fixed_points(entries).get(identity_entries(len(entries)))
    if mask is None:
        return True, "not-cdr-sortable"
    lengths = mask_lengths(mask)
    return len(lengths) == 1, "sorting-lengths=" + ",".join(map(str, lengths))


def _check_rescue(entries: Entries, ctx: _SweepContext) -> tuple[bool, str]:
    target = identity_entries(len(entries))
    fps = ctx.fixed_points(entries)
    if target not in fps:
        return True, "not-cdr-sortable"
    bad = 0
    for fp in fps:
        end, _ = ctx.greedy_cds(fp)
        if end != target or any(v < 0 for v in fp):
            bad += 1
    return bad == 0, f"fixed-points={len(fps)} unrescued={bad}"


def _check_steps(entries: Entries, ctx: _SweepContext) -> tuple[bool, str]:
    target = identity_entries(len(entries))
    fps = ctx.fixed_points(entries)
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
        end, m = ctx.greedy_cds(fp)
        if end != target:
            bad += len(ks)
            pairs += len(ks)
            continue
        for k in ks:
            pairs += 1
            if k + 2 * m != sorting_length:
                bad += 1
    return bad == 0, f"runs={pairs} violations={bad} sorting-length={sorting_length}"


def _check_cds_same_length(entries: Entries, ctx: _SweepContext) -> tuple[bool, str]:
    lengths = ctx.cds_lengths(entries)
    return len(lengths) == 1, "lengths=" + ",".join(map(str, lengths))


def _check_commutation(entries: Entries, ctx: _SweepContext) -> tuple[bool, str]:
    rows, ori = graphmod.overlap_masks(entries)
    moves = ops._cdr_moves(entries)
    children = list(ops._cdr_children(entries))
    # one child per listed pointer, in order, and pointer i at rank i - 1: a
    # child too few or too many, and a pointer listed xor oriented, count once
    bad = abs(len(children) - len(moves)) + (ori ^ sum(1 << (i - 1) for i in moves)).bit_count()
    for i, child in zip(moves, children):
        if graphmod.overlap_masks(child) != graphmod.move(rows, ori, i - 1):
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


def _sample_inputs(n: int, samples: int, seed: int) -> Iterator[Entries]:
    rng = random.Random(seed)
    for _ in range(samples):
        yield random_signed_permutation(rng, n)


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
    ctx = _SweepContext(budget)
    if exhaustive:
        inputs: Iterable[Entries] = all_signed_permutations(n)
        mode, used_seed = "exhaustive", None
    else:
        inputs = _sample_inputs(n, samples, seed)
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
