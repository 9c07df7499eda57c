"""Spans around the benchmark's calls into the library, and the per-layer
metrics derived from them.

Every call the benchmark makes into a public cdsort function goes through a
:class:`Calls` object.  Untraced, it only forwards the call.  Traced, it
records one span per call: the request it belongs to, the layer (the cdsort
module that defines the function), the span name, start, end and the
exception it raised, if any.  Spans are taken at the benchmark's call sites,
so a span's busy time includes every lower layer the call enters.
"""
from __future__ import annotations

import json
import math
from time import perf_counter

from spec import LAYERS, PER_LAYER, SWEEP_PROPERTIES

# The span error of a documented refusal, told apart from any other ValueError.
REFUSAL = "ValueError (documented refusal)"

# Exceptions that a valid answer may carry: the budget ran out, or the
# documented "not cdr-sortable" / "unoriented component" refusal.
_VALID_ERRORS = {"BudgetExceededError", REFUSAL}


def is_documented_refusal(exc: BaseException) -> bool:
    text = str(exc)
    return type(exc) is ValueError and ("is not cdr-sortable" in text
                                        or "unoriented component" in text)


class Calls:
    """Forwards calls into the library, recording a span per call when traced."""

    def __init__(self, traced: bool, clock=perf_counter):
        self.spans: list | None = [] if traced else None
        self.clock = clock
        self.request_id = -1

    def __call__(self, fn, *args, **kwargs):
        return self.named(fn.__name__, fn, *args, **kwargs)

    def named(self, name: str, fn, *args, **kwargs):
        if self.spans is None:
            return fn(*args, **kwargs)
        error = None
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            error = REFUSAL if is_documented_refusal(exc) else type(exc).__name__
            raise
        finally:
            layer = fn.__module__.rpartition(".")[2]
            self.spans.append((self.request_id, layer, name, start, self.clock(), error))


def quantile(xs, q: float) -> float:
    """Nearest-rank quantile; 0.0 for an empty sample."""
    if not xs:
        return 0.0
    return sorted(xs)[max(0, math.ceil(len(xs) * q) - 1)]


def layer_metrics(spans, requests, cycles: int, overhead_ratio: float, scale) -> dict:
    """Per-layer metrics from the spans of ``cycles`` traced cycles.

    ``requests`` maps the id of each traced request to (kind, label, units),
    where label is the request's property (sweeps) or outcome.  Counts and
    busy times are per cycle; per-call times are medians over all spans of
    that name; a metric of a layer or function the workload never calls is 0.
    Each span's duration is multiplied by ``scale(start, end)``.
    """
    calls = {layer: 0 for layer in LAYERS}
    busy = {layer: 0.0 for layer in LAYERS}
    by_name: dict[str, list[float]] = {}
    analysis_failed = 0
    for _rid, layer, name, start, end, error in spans:
        seconds = (end - start) * scale(start, end)
        calls[layer] += 1
        busy[layer] += seconds
        by_name.setdefault(f"{layer}.{name}", []).append(seconds)
        if layer == "analysis" and error is not None and error not in _VALID_ERRORS:
            analysis_failed += 1

    def med(name, scale):
        return quantile(by_name.get(name, ()), 0.5) * scale

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer] / cycles
        out[f"{layer}.busy_s"] = busy[layer] / cycles
    replay = by_name.get("ops.from_moves", []) + by_name.get("ops.replays", [])
    n_replays = len(by_name.get("ops.replays", ()))
    searches = by_name.get("analysis.cdr_sortable_search", []) + by_name.get(
        "analysis.reverse_cdr_sortable_search", [])
    undecided = sum(1 for kind, label, _ in requests.values() if label == "undecided")
    games_checked = sum(1 for kind, _, _ in requests.values() if kind == "minimax")
    games_agreed = sum(1 for kind, label, _ in requests.values()
                       if kind == "minimax" and label == "agree")
    out.update({
        "ops.apply_cdr_us": med("ops.apply_cdr", 1e6),
        "ops.cds_moves_us": med("ops.applicable_cds_moves", 1e6),
        "ops.trace_replay_ms": sum(replay) / n_replays * 1e3 if n_replays else 0.0,
        "graph.build_ms": med("graph.build_overlap_graph", 1e3),
        "graph.gcdr_us": med("graph.gcdr", 1e6),
        "graph.component_report_us": med("graph.component_report", 1e6),
        "analysis.search_ms": quantile(searches, 0.5) * 1e3,
        "analysis.search_p90_ms": quantile(searches, 0.9) * 1e3,
        "analysis.fixed_points_ms": med("analysis.enumerate_cdr_fixed_points", 1e3),
        "analysis.steps_ms": med("analysis.cdr_steps", 1e3),
        "analysis.greedy_safe_ms": med("analysis.greedy_safe_total_sequence", 1e3),
        "analysis.undecided": undecided / cycles,
        "analysis.failed": analysis_failed / cycles,
        "games.minimax_ms": med("games.winner_by_minimax", 1e3),
        "games.parity_us": med("games.winner_by_parity", 1e6),
        "games.agree_ratio": games_agreed / games_checked if games_checked else 0.0,
        "cli.main_ms": med("cli.main", 1e3),
        "trace.overhead_ratio": overhead_ratio,
    })
    for prop in SWEEP_PROPERTIES:
        durations = by_name.get(f"verify.run_sweep.{prop}", [])
        cases = sum(units for kind, label, units in requests.values()
                    if kind == "sweep" and label == prop)
        out[f"verify.{prop}.cases_s"] = cases / sum(durations) if durations else 0.0
    assert set(out) == set(PER_LAYER)
    return out


def write_spans(path, spans, request_spans) -> None:
    """Write the spans of a traced run as JSON lines, request spans first."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for rid, kind, start, end in request_spans:
            fh.write(json.dumps({"id": rid, "span": f"request.{kind}",
                                 "start": start, "end": end}) + "\n")
        for rid, layer, name, start, end, error in spans:
            fh.write(json.dumps({"id": rid, "parent": f"request:{rid}", "span": f"{layer}.{name}",
                                 "start": start, "end": end, "error": error}) + "\n")
