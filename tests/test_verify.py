import math
import random
import tracemalloc

import pytest

from cdsort import graph as graphmod
from cdsort import ops, verify
from cdsort.analysis import DEFAULT_BUDGET, BudgetExceededError, Tracker
from cdsort.graph import OrientedGraph, masks, random_oriented_graph
from cdsort.perm import all_signed_permutations
from cdsort.verify import (
    PROPERTIES,
    CheckRecord,
    _total_lengths,
    probe_total_sequence_lengths,
    run_sweep,
)

from oracles import gcdr_sets, graph_sets, plain_sweep_records


def test_known_properties():
    assert set(PROPERTIES) == {
        "parity", "same-length", "rescue", "steps", "cds-same-length", "commutation",
    }


@pytest.mark.parametrize("prop", PROPERTIES)
@pytest.mark.parametrize("n", range(1, 7))
def test_exhaustive_sweeps_give_the_plain_records(prop, n):
    result = run_sweep(prop, n, exhaustive=True)
    assert (result.cases, result.failures) == (2 ** n * math.factorial(n), 0)
    assert result.mode == "exhaustive" and result.seed is None
    details: dict = {}
    for record in result.records:
        assert type(record) is CheckRecord
        # records with equal details share one string
        assert details.setdefault(record.detail, record.detail) is record.detail
    # at n = 6 the plain commutation fold takes about eight times as long as
    # the sweep
    if prop != "commutation" or n < 6:
        assert result.records == tuple(plain_sweep_records(prop, n))


@pytest.mark.parametrize("prop", PROPERTIES)
def test_sampled_sweeps_pass(prop):
    result = run_sweep(prop, 7, samples=300, seed=11)
    assert result.cases == 300
    assert result.failures == 0


def test_sampled_sweeps_are_reproducible():
    a = run_sweep("parity", 6, samples=50, seed=3)
    b = run_sweep("parity", 6, samples=50, seed=3)
    c = run_sweep("parity", 6, samples=50, seed=4)
    assert a.records == b.records
    assert a.records != c.records


@pytest.mark.parametrize("prop, n, inputs, boundary", [
    # one unit per state of the plain folds: the fixed-point fold over the
    # group of the identity alone, and the cds fold on ops.cds_states
    ("rescue", 9, {"samples": 20, "seed": 5}, 1_722),
    ("steps", 9, {"samples": 20, "seed": 5}, 1_722),
    ("cds-same-length", 5, {"exhaustive": True}, 3_840),
])
def test_plain_sweeps_spend_one_unit_per_state(prop, n, inputs, boundary):
    assert run_sweep(prop, n, budget=boundary, **inputs).failures == 0
    with pytest.raises(BudgetExceededError):
        run_sweep(prop, n, budget=boundary - 1, **inputs)


EXHAUSTIVE_ORDERS = {"parity": 4, "same-length": 2, "rescue": 4, "steps": 4,
                     "cds-same-length": 1, "commutation": 1}


@pytest.mark.parametrize("prop", PROPERTIES)
@pytest.mark.parametrize("n", [5, 127, 128])
@pytest.mark.parametrize("exhaustive", [True, False])
def test_each_sweep_folds_over_its_rows_order(prop, n, exhaustive):
    # the table's order when exhaustive on bytes states, else the identity alone
    group = verify._SweepContext(prop, n, 1, exhaustive).group
    expected = EXHAUSTIVE_ORDERS[prop] if exhaustive and n < 128 else 1
    assert len(group.maps) == expected
    assert (group.states is ops.cdr_states) == (expected == 1)


def test_record_and_summary_format():
    result = run_sweep("parity", 3, exhaustive=True)
    line = result.records[0].line()
    prop, verdict, subject, detail = line.split("\t")
    assert prop == "parity" and verdict == "PASS"
    assert subject.startswith("[") and subject.endswith("]")
    assert detail.startswith("lengths=")
    assert result.summary() == (
        "# summary property=parity n=3 mode=exhaustive cases=48 failures=0 seed=-"
    )


def test_failing_record_renders_fail():
    rec = CheckRecord("parity", "[1]", False, "lengths=0,1")
    assert rec.line() == "parity\tFAIL\t[1]\tlengths=0,1"


def test_check_record_contract():
    # a NamedTuple: its fields in order, immutable, equal and hashed by value
    assert CheckRecord._fields == ("prop", "subject", "ok", "detail")
    rec = CheckRecord("rescue", "[2, -1]", True, "fixed-points=1 unrescued=0")
    assert rec.line() == "rescue\tPASS\t[2, -1]\tfixed-points=1 unrescued=0"
    assert rec._replace(ok=False).line() == "rescue\tFAIL\t[2, -1]\tfixed-points=1 unrescued=0"
    with pytest.raises(AttributeError):
        rec.ok = False
    twin = CheckRecord("".join(["res", "cue"]), "[2, -1]", True, "fixed-points=1 unrescued=0")
    assert twin == rec and hash(twin) == hash(rec)
    assert twin != rec._replace(detail="fixed-points=1 unrescued=1")
    assert repr(rec) == ("CheckRecord(prop='rescue', subject='[2, -1]', ok=True, "
                         "detail='fixed-points=1 unrescued=0')")


def test_run_sweep_argument_validation():
    with pytest.raises(ValueError, match="unknown property"):
        run_sweep("nope", 3, exhaustive=True)
    with pytest.raises(ValueError, match="exactly one"):
        run_sweep("parity", 3)
    with pytest.raises(ValueError, match="exactly one"):
        run_sweep("parity", 3, exhaustive=True, samples=10)


@pytest.mark.parametrize("prop", PROPERTIES)
def test_every_sweep_spends_its_budget(prop):
    with pytest.raises(BudgetExceededError):
        run_sweep(prop, 5, exhaustive=True, budget=3)


@pytest.mark.parametrize("n, samples, seed, boundary", [
    # exhaustive, one unit per signed permutation: each is one state
    (5, 0, 0, 2 ** 5 * 120),
    (6, 0, 0, 2 ** 6 * 720),
    # sampled, one unit for each input and one for each of its children
    (6, 5, 1, 12),
])
def test_commutation_sweep_spends_one_unit_per_position(n, samples, seed, boundary):
    mode = dict(samples=samples, seed=seed) if samples else dict(exhaustive=True)
    assert run_sweep("commutation", n, budget=boundary, **mode).failures == 0
    with pytest.raises(BudgetExceededError):
        run_sweep("commutation", n, budget=boundary - 1, **mode)


def test_commutation_sweep_detail_counts_pointers():
    result = run_sweep("commutation", 5, exhaustive=True)
    assert result.failures == 0
    assert all(r.detail.startswith("pointers=") for r in result.records)


def test_commutation_counts_a_missing_child(monkeypatch):
    # the sweep checks the kernel the searches run at n = 3, the bytes one
    children = ops._cdr_children_bytes
    monkeypatch.setattr(ops, "_cdr_children_bytes", lambda state: list(children(state))[:-1])
    result = run_sweep("commutation", 3, exhaustive=True)
    assert result.failures > 0
    for record in result.records:
        pointers = int(record.detail.split()[0].removeprefix("pointers="))
        assert record.ok == (pointers == 0)
        assert record.detail == f"pointers={pointers} violations={min(pointers, 1)}"


@pytest.mark.parametrize("n, positions", [(5, 384), (6, 3_840)])
def test_commutation_memo_holds_one_object_per_position(n, positions):
    distinct = {graphmod.overlap_masks(entries) for entries in all_signed_permutations(n)}
    assert len(distinct) == positions
    ctx = verify._SweepContext("commutation", n, DEFAULT_BUDGET, exhaustive=True)
    for entries in all_signed_permutations(n):
        assert verify._check_commutation(entries, ctx)[0]
    assert len(ctx.memo) == 2 ** n * math.factorial(n)
    assert len({id(value) for value in ctx.memo.values()}) == positions
    assert set(ctx.memo.values()) == distinct


def test_total_length_probe_finds_no_counterexamples():
    assert probe_total_sequence_lengths(60, 7, seed=9) == []


def test_total_lengths_on_deep_graphs():
    n = 1500
    path = OrientedGraph(range(1, n + 1), [(v, v + 1) for v in range(1, n)], {1})
    assert _total_lengths(*masks(path), Tracker(10 ** 6)) == frozenset({n})
    # spending as a position enters its layer stops the pass inside layer 2,
    # about 0.6 MiB; spending as it leaves would build all C(1500, 2) first
    isolated = OrientedGraph(range(1, n + 1), (), range(1, n + 1))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            _total_lengths(*masks(isolated), Tracker(2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def _positions_sets(graph) -> int:
    """Distinct positions reachable from a frozenset graph by gcdr."""
    seen = {graph}
    stack = [graph]
    while stack:
        g = stack.pop()
        for v in g[2]:
            child = gcdr_sets(g, v)
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return len(seen)


def test_total_lengths_spend_one_unit_per_position():
    rng = random.Random(16)
    for _ in range(20):
        g = random_oriented_graph(rng, rng.randint(1, 8))
        positions = _positions_sets(graph_sets(g))
        tracker = Tracker(positions)
        assert len(_total_lengths(*masks(g), tracker)) == 1
        assert tracker.remaining == 0
        with pytest.raises(BudgetExceededError):
            _total_lengths(*masks(g), Tracker(positions - 1))


def test_total_lengths_do_not_assume_the_rank_lemma(monkeypatch):
    # an oriented edge 1 - 2 and an oriented isolated vertex 3: rank 3
    rows, ori = masks(OrientedGraph({1, 2, 3}, {(1, 2)}, {1, 3}))
    assert graphmod.gf2_rank(rows, ori) == 3
    assert _total_lengths(rows, ori, Tracker(100)) == frozenset({3})
    move = graphmod.move

    def one_jump(r, o, i):
        # gcdr at vertex 1 of the root lands on the total terminal at once
        return ((0,) * len(r), 0) if (r, o, i) == (rows, ori, 0) else move(r, o, i)

    monkeypatch.setattr(graphmod, "move", one_jump)
    assert _total_lengths(rows, ori, Tracker(100)) == frozenset({1, 3})
