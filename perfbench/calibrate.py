"""Host-speed calibration: a fixed reference kernel timed all through a run.

On a shared host the speed of a core drifts by up to 2x, within a second and
for minutes on end, so raw wall times of the same code differ from run to run
by more than any change worth measuring.  The benchmark therefore times this
reference kernel every quarter second while it measures, from a timer signal,
so inside long library calls too, and scales each measured duration by

    NOMINAL_S / (mean reference time within it and just before and after it)

so that every time it reports reads as if the host ran the reference kernel in
``NOMINAL_S``.  Durations leave out the time the samples take.  The kernel
does the kinds of work cdsort does (tuple slicing and negation, memo
dictionaries, recursion, frozensets, set algebra on adjacency maps, integer
arithmetic, many small allocations), written independently of cdsort, so that
a change to the library never changes the yardstick.  No single kind of work
tracks every workload: the host's slowdowns hit memory-heavy and
arithmetic-heavy code differently, so the kernel mixes them.
"""
from __future__ import annotations

import bisect
import functools
import gc
import random
import signal
from statistics import median
from time import perf_counter

# The reference kernel's time on a quiet 2-vCPU x86 (Xeon) virtual machine
# under CPython 3.11.  Any fixed value would do; this one keeps the scaled
# times close to that host's raw times.
NOMINAL_S = 0.016

# Sample the kernel this often, and scale each duration by the mean of the
# samples taken within it and just before and after it: the host's speed
# changes within a second, so nearer samples track it better.
EVERY_S = 0.25


def _breakpoints(p: tuple) -> int:
    q = (0,) + p + (len(p) + 1,)
    return sum(1 for a, b in zip(q, q[1:]) if b - a != 1)


def _reverse(p: tuple, i: int, j: int) -> tuple:
    return p[:i] + tuple(-x for x in reversed(p[i:j + 1])) + p[j + 1:]


def _longest_runs(p: tuple, memo: dict) -> frozenset:
    """Lengths of all maximal runs of breakpoint-reducing signed reversals."""
    found = memo.get(p)
    if found is None:
        b, n = _breakpoints(p), len(p)
        nexts = [q for i in range(n) for j in range(i, n)
                 if _breakpoints(q := _reverse(p, i, j)) < b]
        found = frozenset({0}) if not nexts else frozenset(
            length + 1 for q in nexts for length in _longest_runs(q, memo))
        memo[p] = found
    return found


def _local_complements(adj: dict, order: list) -> int:
    """Complement the neighbourhood of each vertex of ``order`` in turn."""
    total = 0
    for v in order:
        nb = adj[v]
        new = dict(adj)
        for a in nb:
            new[a] = adj[a] ^ (nb - {a})
        adj = new
        total += sum(len(s) for s in adj.values())
    return total


@functools.cache
def _inputs():
    """The kernel's fixed inputs, made on first use so that importing this
    module costs nothing."""
    rng = random.Random(12345)
    perms = []
    for _ in range(2):
        values = list(range(1, 7))
        rng.shuffle(values)
        perms.append(tuple(v if rng.random() < 0.5 else -v for v in values))
    n = 70
    adj = {v: set() for v in range(n)}
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.4:
                adj[a].add(b)
                adj[b].add(a)
    adj = {v: frozenset(s) for v, s in adj.items()}
    order = [v for v in range(n) if rng.random() < 0.5]
    keys = [tuple(rng.randrange(1000) for _ in range(8)) for _ in range(10_000)]
    return perms, adj, order, keys


def _table(keys: list) -> int:
    """Fill fresh dictionaries of reversed tuples, 2,000 keys at a time: a
    sample can fall on the library's peak memory, so it must add little."""
    total = 0
    for i in range(0, len(keys), 2_000):
        table = {}
        for key in keys[i:i + 2_000]:
            table[key] = (key[::-1], len(table))
        total += len(table)
    return total


def _hash_loop(n: int) -> int:
    x = 0
    for i in range(n):
        x = (x * 31 + i) & 0xFFFFFFFF
    return x


def reference() -> int:
    """The reference kernel: a fixed amount of cdsort-like pure-Python work."""
    perms, adj, order, keys = _inputs()
    total = 0
    for p in perms:
        total += max(_longest_runs(p, {}))
    total += _local_complements(adj, order)
    return total + _table(keys) + _hash_loop(40_000)


class Calibration:
    """Reference-kernel samples taken all through a run, and the scale they give.

    As a context manager it takes a sample every ``EVERY_S`` seconds from a
    ``SIGALRM`` handler, so that samples fall inside long library calls too,
    on the core the call runs on.  :meth:`clock` is a clock that stands still
    while a sample runs: durations read from it leave the samples out.
    """

    def __init__(self):
        self.times: list[float] = []      # clock() when each sample was taken
        self.durations: list[float] = []
        self.overhead_s = 0.0             # wall time spent taking samples

    def clock(self) -> float:
        """``perf_counter()`` less the time spent taking samples so far."""
        while True:
            before = self.overhead_s
            now = perf_counter()
            if self.overhead_s == before:  # no sample ran between the reads
                return now - before

    def sample(self, *_signal) -> None:
        # The library's heap is not the kernel's business: keep the cyclic
        # collector from walking it in the middle of a sample.
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        try:
            reference()
            taken = True
        except RecursionError:  # the timer fired deep in a library recursion
            taken = False
        end = perf_counter()
        if enabled:
            gc.enable()
        if taken:
            self.times.append(start - self.overhead_s)
            self.durations.append(end - start)
        self.overhead_s += end - start

    def __enter__(self):
        _inputs()
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()  # so that the last duration has a sample after it

    def scale(self, start: float, end: float) -> float:
        """The factor that turns the duration from ``start`` to ``end`` (on
        :meth:`clock`) into nominal-host seconds: from the samples taken
        within it and the nearest one on either side."""
        i = bisect.bisect_left(self.times, start)
        j = bisect.bisect_right(self.times, end)
        around = self.durations[max(0, i - 1):j + 1]
        return NOMINAL_S * len(around) / sum(around)

    def speed(self) -> float:
        """Median host speed over the run, relative to the nominal host."""
        return NOMINAL_S / median(self.durations)
