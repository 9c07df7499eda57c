import pytest

from cdsort.verify import (
    PROPERTIES,
    CheckRecord,
    probe_total_sequence_lengths,
    run_sweep,
)


def test_known_properties():
    assert set(PROPERTIES) == {
        "parity", "same-length", "rescue", "steps", "cds-same-length", "commutation",
    }


@pytest.mark.parametrize("prop", PROPERTIES)
def test_exhaustive_small_sweeps_pass(prop):
    result = run_sweep(prop, 4, exhaustive=True)
    assert result.cases == 2 ** 4 * 24
    assert result.failures == 0
    assert result.mode == "exhaustive" and result.seed is None


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


def test_run_sweep_argument_validation():
    with pytest.raises(ValueError, match="unknown property"):
        run_sweep("nope", 3, exhaustive=True)
    with pytest.raises(ValueError, match="exactly one"):
        run_sweep("parity", 3)
    with pytest.raises(ValueError, match="exactly one"):
        run_sweep("parity", 3, exhaustive=True, samples=10)


def test_commutation_sweep_detail_counts_pointers():
    result = run_sweep("commutation", 5, exhaustive=True)
    assert result.failures == 0
    assert all(r.detail.startswith("pointers=") for r in result.records)


def test_total_length_probe_finds_no_counterexamples():
    assert probe_total_sequence_lengths(60, 7, seed=9) == []


def test_total_lengths_on_deep_graphs():
    from cdsort.analysis import BudgetExceededError, Tracker
    from cdsort.graph import OrientedGraph, masks
    from cdsort.verify import _total_lengths

    n = 1500
    path = OrientedGraph(range(1, n + 1), [(v, v + 1) for v in range(1, n)], {1})
    assert _total_lengths(*masks(path), Tracker(10 ** 6)) == frozenset({n})
    isolated = OrientedGraph(range(1, n + 1), (), range(1, n + 1))
    with pytest.raises(BudgetExceededError):
        _total_lengths(*masks(isolated), Tracker(2000))
