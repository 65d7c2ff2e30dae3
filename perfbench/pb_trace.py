"""Benchmark-side spans for the traced run.

Each span records a name, start, end, its parent span and the id of the
op it belongs to.  Spans stay in memory and are written out once, when
the run ends.  A :class:`Tracer` built with ``enabled=False`` records
nothing: the untraced run calls the same code and takes no spans.

Call sites read the clock themselves around each layer call and hand
the readings to :meth:`Tracer.child`, so the traced and untraced runs
execute the same statements between the clock reads.

The untraced run also rescales its timings to a reference pace of the
host; see :class:`Pace`.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from typing import Dict, List, Optional

clock = time.perf_counter

#: Children must cover at least this share of their op span.
MIN_COVERAGE = 0.95

#: Seconds the pace kernel takes at the reference pace (about its median
#: on the 2-vCPU x86-64 VM the bounds in BENCHMARK.json were set on).
REFERENCE_KERNEL_S = 0.0009

_KERNEL_WORDS = tuple(str(i * 7919 % 1000) for i in range(300))


def _kernel() -> None:
    """Fixed pure-Python work of the kinds the program's loops do:
    sorting, string joins and splits, a dict and a generator."""
    for _ in range(10):
        lengths = {word: len(word) for word in " ".join(sorted(_KERNEL_WORDS)).split()}
        tuple(n for n in lengths.values() if n > 1)


def pin_to_one_cpu() -> None:
    """Pin this process, and the processes it starts later, to one of
    the CPUs it may run on.

    The benchmark and the server it starts share that CPU.  Left to the
    scheduler, they shared a CPU in some runs and not in others, and the
    serve latencies moved by a third between runs with it.  With the
    server pinned to a CPU of its own, serve-mixed's serve latencies
    still spread by 10-18% between runs; on one shared CPU, by 2-7%.
    Every request then hands over between the clients and the server on
    one CPU that stays busy, and the pace probe times the CPU that does
    all the work.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Pace:
    """How fast the host runs Python around each unit of work, from a
    fixed kernel timed between units.

    A shared host runs the same code up to 1.6x slower for stretches of
    seconds to minutes: on a 2-vCPU VM, 20-second medians of parse-block
    times spread by 30% (quartile distance over median) and those of a
    fixed loop by 20%, while the ratio of a parse block to this kernel,
    timed next to it, spread by 3-7%.  So every end-to-end timing but
    ``setup_s`` is multiplied by its unit's :meth:`factor`, :data:`REFERENCE_KERNEL_S`
    over the kernel time around the unit, and reads as the time the work
    takes at the reference pace.  A change to the program moves the
    timings and not the kernel; a busier host moves both.

    "Around the unit" is the median of the probes taken within half the
    unit's length before its start or after its end.  One probe is a few
    milliseconds and jitters by itself, so a multi-second build checked
    against only the probes at its two ends read noisier than its plain
    wall time; the window lets a long unit average the probes of the
    short units around it.

    Disabled (the traced run), every factor is 1: per-layer timings are
    plain wall time.
    """

    PROBE_REPEATS = 3
    #: Probes are taken between units; this much slack keeps a unit's
    #: own two probes inside its window however short the unit is.
    SLACK_S = 0.02

    def __init__(self, enabled: bool):
        self.enabled = enabled
        #: (time, kernel seconds) per probe
        self.probes: List[tuple] = []
        #: (start, end) per unit of work
        self.units: List[tuple] = []

    @property
    def unit(self) -> int:
        """Index of the unit of work in progress."""
        return len(self.units)

    def probe(self) -> None:
        """Time the kernel (the median of :attr:`PROBE_REPEATS` runs, with
        the collector off so that the program's heap cannot slow it)."""
        if not self.enabled:
            return
        times = []
        gc.disable()
        try:
            for _ in range(self.PROBE_REPEATS):
                start = clock()
                _kernel()
                times.append(clock() - start)
        finally:
            gc.enable()
        self.probes.append((clock(), sorted(times)[len(times) // 2]))

    def add_unit(self, start: float, end: float) -> None:
        """Record the unit :attr:`unit` as running from *start* to *end*."""
        self.units.append((start, end))

    def kernel(self, unit: int) -> float:
        """Kernel seconds around *unit* (see the class doc)."""
        start, end = self.units[unit]
        reach = (end - start) / 2 + self.SLACK_S
        return statistics.median(p[1] for p in self.probes if start - reach <= p[0] <= end + reach)

    def factor(self, unit: int) -> float:
        """What a wall time measured in *unit* is multiplied by."""
        if not self.enabled:
            return 1.0
        return REFERENCE_KERNEL_S / self.kernel(unit)


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        # [op id, name, start, end, parent index]
        self.spans: List[list] = []
        self._ops = 0
        #: Seconds spent recording spans (see :meth:`charge`).
        self.cost = 0.0

    def charge(self, since: float) -> None:
        """Add the bookkeeping time from *since* to now to :attr:`cost`."""
        self.cost += clock() - since

    def op(self, name: str, start: float, end: float) -> int:
        """Record one op span; returns its index for :meth:`child`."""
        self._ops += 1
        self.spans.append([self._ops, name, start, end, -1])
        return len(self.spans) - 1

    def child(self, parent: int, name: str, start: float, end: float) -> int:
        op_id = self.spans[parent][0]
        self.spans.append([op_id, name, start, end, parent])
        return len(self.spans) - 1

    def sub(self, parent: int, name: str, seconds: float) -> None:
        """A child known only by its duration (an ``instrument`` span
        inside a public call); laid out from the parent's start."""
        start = self.spans[parent][2]
        self.child(parent, name, start, start + seconds)

    # -- queries -------------------------------------------------------

    def ops(self, name: Optional[str] = None) -> List[int]:
        return [
            i for i, s in enumerate(self.spans)
            if s[4] == -1 and (name is None or s[1] == name)
        ]

    def totals(self, op_name: str) -> "Dict[str, float]":
        """Seconds per span name over every op called *op_name*, at any
        depth below it."""
        roots = set(self.ops(op_name))
        owner: Dict[int, int] = {}
        totals: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            parent = span[4]
            root = index if parent == -1 else owner.get(parent, -1)
            owner[index] = root
            if root in roots and parent != -1:
                totals[span[1]] = totals.get(span[1], 0.0) + span[3] - span[2]
        return totals

    def coverage(self) -> "List[tuple]":
        """``(coverage, op name, op id)`` for every op span: the share of
        the op covered by its direct children."""
        covered: Dict[int, float] = {}
        for span in self.spans:
            if span[4] != -1 and self.spans[span[4]][4] == -1:
                covered[span[4]] = covered.get(span[4], 0.0) + span[3] - span[2]
        result = []
        for index in self.ops():
            span = self.spans[index]
            length = span[3] - span[2]
            share = covered.get(index, 0.0) / length if length > 0 else 1.0
            result.append((share, span[1], span[0]))
        return result

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        base = min((s[2] for s in self.spans), default=0.0)
        records = [
            {"op": s[0], "name": s[1], "start_us": round((s[2] - base) * 1e6, 3),
             "end_us": round((s[3] - base) * 1e6, 3), "parent": s[4]}
            for s in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"spans": records}, handle)
