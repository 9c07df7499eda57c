#!/usr/bin/env python3
"""Closed-loop benchmark of cdsort: one client, one request at a time.

Run one workload (this is what BENCHMARK.json names):

    python3 perfbench/run.py --workload queries --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` sends every
request once untraced and once traced and prints the per-layer metrics,
writing the spans to ``perfbench/out/``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every reported time is scaled to a nominal host speed measured all through
the run (see ``calibrate.py``); the lines before the result also print the
raw figures.

Other modes:

    python3 perfbench/run.py --workload all --seed 1    # each workload in a fresh process
    python3 perfbench/run.py --smoke                    # tiny sizes; checks names, units, checker
    python3 perfbench/run.py --workload sweep --seed 1 --record   # record answer digests

The benchmark builds the library from ``src/`` next to this directory and
exits with status 1, printing no result, when those sources are missing.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import spec
from calibrate import NOMINAL_S, Calibration
from tracing import Calls, layer_metrics, quantile, write_spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
SETUP_RUNS = {"full": 15, "smoke": 2}


def load_library() -> None:
    if not (SRC / "cdsort" / "__init__.py").is_file():
        sys.exit(f"error: no cdsort sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cdsort
    if Path(cdsort.__file__).resolve().parent != SRC / "cdsort":
        sys.exit(f"error: imported cdsort from {cdsort.__file__}, not from {SRC}")


def digest(request, fields) -> str:
    return hashlib.sha256(repr((request.kind, request.arg, fields)).encode()).hexdigest()[:4]


def digest_key(args) -> str:
    return f"{args.workload}/{args.scale}/{args.seed}" + ("/deep" if args.deep else "")


def recorded_digests(args) -> list | None:
    if not DIGESTS.is_file():
        return None
    text = json.loads(DIGESTS.read_text()).get(digest_key(args))
    return None if text is None else [text[i:i + 4] for i in range(0, len(text), 4)]


class Runner:
    """Sends one cycle's requests in a closed loop and keeps the outcomes."""

    def __init__(self, requests, expected, clock=perf_counter):
        from workloads import HANDLERS, QueryContext
        self.requests = requests
        self.expected = expected          # recorded digests, or None
        self.handlers = HANDLERS
        self.context = QueryContext
        self.clock = clock                # times each request
        self.latencies: list[tuple] = []  # (start, end, answered) per untraced request
        self.busy = {False: 0.0, True: 0.0}  # summed latency, untraced and traced
        self.units = 0
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.outcomes: dict = {}          # traced request id -> (kind, label, units)
        self.request_spans: list = []

    def cycle(self, calls: Calls, traced: Calls | None = None) -> float:
        """Send every request once; with ``traced``, once untraced and once
        traced, alternating which goes first so that both meet the same host
        speed.  Return the cycle's wall time."""
        ctx = self.context()
        digests = []
        start = perf_counter()
        for i, request in enumerate(self.requests):
            order = [calls] if traced is None else [calls, traced][::1 if i % 2 else -1]
            for c in order:
                d = self.send(c, i, request, ctx)
            digests.append(d)
        if self.expected is None:
            self.expected = digests  # later cycles must answer the same
        return perf_counter() - start

    def send(self, calls: Calls, i: int, request, ctx) -> str:
        """Send request ``i``, check and count its answer, return its digest."""
        rid = calls.request_id = self.attempted
        error = None
        start = self.clock()
        try:
            units, label, fields = self.handlers[request.kind](calls, ctx, request.arg)
        except Exception as exc:  # any exception escaping a handler fails the request
            error = type(exc).__name__
        end = self.clock()
        d = "----"
        if error is None:
            d = digest(request, fields)
            if self.expected is not None and self.expected[i] != d:
                error = "DigestMismatch"
        self.attempted += 1
        self.busy[calls.spans is not None] += end - start
        if calls.spans is None:
            self.latencies.append((start, end, error is None))
        if error is None:
            self.units += units
        else:
            self.failures[error] = self.failures.get(error, 0) + 1
            label, units = error, 0
        if calls.spans is not None:
            self.outcomes[rid] = (request.kind, label, units)
            self.request_spans.append((rid, request.kind, start, end))
        return d


def set_up(args):
    """Import the library, make the inputs from the seed, warm up."""
    load_library()
    from workloads import WORKLOADS
    requests, warmup = WORKLOADS[args.workload](args.seed, args.scale, args.deep)
    Runner(warmup, None).cycle(Calls(False))
    return requests


def measure_setup(args) -> tuple[float, float]:
    """Median wall time, over fresh processes, from process start to ready
    for the first timed request: scaled to the nominal host, and raw.

    Each set-up process, once ready, times the reference kernel itself, and
    its set-up time is scaled by that: the two cores of a shared host drift
    apart, so a kernel timed in this process need not match the core the
    set-up ran on."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    if args.deep:
        argv.append("--deep")
    raw, scaled = [], []
    for _ in range(SETUP_RUNS[args.scale]):
        start = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - start
            reference_s = child.stdout.read()
            child.wait(timeout=120)
        if line.strip() != "ready" or child.returncode != 0:
            sys.exit("error: set-up process failed")
        raw.append(elapsed)
        scaled.append(elapsed * NOMINAL_S / float(reference_s))
    return median(scaled), median(raw)


def setup_only(args) -> None:
    """Set up, say so, then print the median of three reference-kernel times."""
    set_up(args)
    print("ready", flush=True)
    calibration = Calibration()
    for _ in range(4):
        calibration.sample()
    print(median(calibration.durations[1:]))


def corrupt_library(how: str) -> None:
    """Break the library on purpose, to show that the checks catch it.

    ``witness``: cdr_sortable_search drops the last move of every witness.
    ``raise``: every third call of analysis.parity raises IndexError, an
    exception no answer may carry.
    """
    from cdsort import analysis
    if how == "witness":
        original = analysis.cdr_sortable_search

        @functools.wraps(original)
        def truncated(*a, **kw):
            found, witness = original(*a, **kw)
            return found, (witness[:-1] if witness else witness)

        analysis.cdr_sortable_search = truncated
    else:
        original = analysis.parity
        calls = itertools.count(1)

        @functools.wraps(original)
        def raising(*a, **kw):
            if next(calls) % 3 == 0:
                raise IndexError("injected failure")
            return original(*a, **kw)

        analysis.parity = raising


def run(args) -> int:
    setup_s = measure_setup(args) if not args.trace else None
    requests = set_up(args)
    if args.corrupt:
        corrupt_library(args.corrupt)
    with Calibration() as calibration:
        runner = Runner(requests, recorded_digests(args), calibration.clock)
        untraced = Calls(False)
        traced = Calls(True, calibration.clock) if args.trace else None
        cycles, wall = 0, 0.0
        while True:
            last = runner.cycle(untraced, traced)
            cycles += 1
            wall += last
            if wall + last > args.seconds:
                break
    failed = sum(runner.failures.values())
    print(f"workload {args.workload} seed {args.seed} scale {args.scale} cycles {cycles} "
          f"requests/cycle {len(requests)} attempted {runner.attempted} failed {failed}")
    print("failures " + json.dumps(runner.failures, sort_keys=True))
    print(f"failed_ratio {failed / runner.attempted:.6g} ratio")
    print(f"host_speed {calibration.speed():.4g} x nominal, from {len(calibration.durations)} "
          f"reference samples taking {calibration.overhead_s:.3g} s")
    if args.trace:
        metrics = layer_metrics(traced.spans, runner.outcomes, cycles,
                                runner.busy[True] / runner.busy[False], calibration.scale)
        units = spec.PER_LAYER
        write_spans(BENCH / "out" / f"spans-{args.workload}-{args.seed}.jsonl",
                    traced.spans, runner.request_spans)
    else:
        raw = end_to_end(runner, lambda start, end: 1.0, setup_s[1])
        print("raw " + " ".join(f"{name} {value:.6g}" for name, value in raw.items()))
        metrics = end_to_end(runner, calibration.scale, setup_s[0])
        units = spec.END_TO_END
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}"
              + (f" (n={len(runner.latencies)})" if name.startswith("latency") else ""))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def end_to_end(runner: Runner, scale, setup_s: float) -> dict:
    """The end-to-end metrics, with each request's latency multiplied by
    ``scale(start, end)``.  The timed wall is the sum of the latencies: one
    client sends each request as soon as the last one returns."""
    durations = [(end - start) * scale(start, end) for start, end, _ in runner.latencies]
    wall = sum(durations)
    latencies = [d if answered else math.inf
                 for d, (_, _, answered) in zip(durations, runner.latencies)]

    def latency_ms(q):
        value = quantile(latencies, q)
        # a failed request misses every latency limit; if the quantile falls
        # on one, report the whole timed wall as its stand-in
        return (wall if value == math.inf else value) * 1e3

    return {
        "throughput_ops_s": runner.units / wall,
        "latency_p50_ms": latency_ms(0.5),
        "latency_p90_ms": latency_ms(0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def record(args) -> int:
    """Run one cycle and store its answer digests, if every check passed."""
    requests = set_up(args)
    runner = Runner(requests, None)
    runner.cycle(Calls(False))
    if runner.failures:
        sys.exit(f"error: not recording, failures {runner.failures}")
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    table[digest_key(args)] = "".join(runner.expected)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(requests)} digests for {digest_key(args)}")
    return 0


def child(args, *extra) -> tuple[list[str], dict | None]:
    """Run one workload in a fresh process; return its output lines and result."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--scale", args.scale,
            *extra]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return lines, None
    return lines, json.loads(lines[-1])


def run_all(args) -> int:
    status = 0
    for name in spec.WORKLOADS:
        args.workload = name
        lines, result = child(args, "--trace", str(args.trace), *(["--deep"] if args.deep else []))
        print("\n".join(lines[:-1]) if result else "\n".join(lines))
        if result is None or not result["correct"]:
            status = 1
        print()
    return status


def smoke(args) -> int:
    problems = []
    args.scale, args.seed, args.seconds = "smoke", 1, 1
    expected = {"0": spec.END_TO_END, "1": spec.PER_LAYER}
    for name in spec.WORKLOADS:
        args.workload = name
        for trace in ("0", "1"):
            lines, result = child(args, "--trace", trace)
            where = f"{name} --trace {trace}"
            if result is None:
                problems.append(f"{where}: no result")
                continue
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{where}: metrics {sorted(got)} differ from the spec")
            if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
                problems.append(f"{where}: a metric is not a finite number")
            for n, unit in expected[trace].items():
                if not any(line.startswith(f"{n} ") and f" {unit}" in line for line in lines):
                    problems.append(f"{where}: {n} not printed with its unit")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {lines[1]}")
            print(f"smoke {where}: {lines[0]}")
    args.workload = "queries"
    for how in ("witness", "raise"):
        lines, result = child(args, "--trace", "0", "--corrupt", how)
        if result is None or result["correct"] or not result["failed"]:
            problems.append(f"--corrupt {how}: the broken answers were not counted as failed")
        else:
            print(f"smoke --corrupt {how}: {result['failed']} failed, {lines[1]}")
    lines, result = child(args, "--trace", "0", "--deep")
    failures = json.loads(lines[1].removeprefix("failures ")) if result else None
    if failures is None or result["correct"] or set(failures) != {"RecursionError"}:
        problems.append(f"deep inputs: unexpected outcome {lines[1:2]}")
    else:
        print(f"smoke deep inputs: {lines[0]}; {lines[1]}")
    for problem in problems:
        print(f"smoke FAIL: {problem}", file=sys.stderr)
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--deep", action="store_true",
                        help="add deep inputs (alternating signs, n=2000) to queries")
    parser.add_argument("--corrupt", choices=("witness", "raise"),
                        help="break the library on purpose, to show the checker counts it failed")
    parser.add_argument("--record", action="store_true", help="record the answer digests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        setup_only(args)
        return 0
    if args.record:
        return record(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
