"""In-memory span recorder and the arithmetic on its spans.

A span is (name, start, end, parent, operation id). Spans live in flat
arrays while the run goes on and are written out once it ends, so the
recorder itself costs one append per field and two clock reads per call.
The program is single-threaded, so one stack of open spans gives each new
span its parent.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from collections import Counter


class Tracer:
    #: spans kept before the run is asked to stop early (about 28 B each)
    BUDGET = 1_500_000

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.errors: Counter = Counter()   # name id -> calls that raised
        self.enabled = True
        #: operation the next spans belong to; -1 outside any operation
        self.op_id = -1
        self._stack: list[int] = []

    def name_of(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str):
        """``fn`` with a span around every call made while enabled."""
        nid = self.name_of(name)
        clock = time.perf_counter_ns
        stack = self._stack
        name_ids, starts, ends = self.name_id, self.start, self.end
        parents, ops = self.parent, self.op

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[nid] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def __len__(self):
        return len(self.start)

    @property
    def full(self) -> bool:
        """True once the span budget is spent; the run should wind down."""
        return len(self.start) >= self.BUDGET

    def write(self, path) -> None:
        """All spans as gzip'd CSV: name,start_ns,end_ns,parent,op."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{names[self.name_id[i]]},{self.start[i]},"
                         f"{self.end[i]},{self.parent[i]},{self.op[i]}\n")


def self_times(start, end, parent):
    """Each span's duration minus the part its direct children cover.

    Children of one span never overlap (one thread, one stack), so the
    covered part is the sum of their durations. Yields one value per span
    and keeps only a compact array, since a run records millions of spans.
    """
    covered = array("q", bytes(8 * len(start)))
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    for s, e, c in zip(start, end, covered):
        yield e - s - c


def uncovered_share(start, end, parent, t0: int, t1: int) -> float:
    """Share of the wall interval [t0, t1] that no top-level span covers."""
    covered = sum(min(e, t1) - max(s, t0)
                  for s, e, p in zip(start, end, parent)
                  if p < 0 and e > t0 and s < t1)
    return 1.0 - covered / (t1 - t0)


class LayerStats:
    """Per-name aggregates over a tracer's spans."""

    def __init__(self, tracer: Tracer):
        selfs = self_times(tracer.start, tracer.end, tracer.parent)
        n = len(tracer.names)
        self.calls = [0] * n
        self.self_ns = [0] * n
        # the same, counting only spans inside an operation (op >= 0)
        self.op_calls = [0] * n
        self.op_self_ns = [0] * n
        # (child name id, parent name id) -> calls, for per-event counts
        self.child_calls: Counter = Counter()
        names = tracer.name_id
        for nid, p, op, own in zip(names, tracer.parent, tracer.op, selfs):
            self.calls[nid] += 1
            self.self_ns[nid] += own
            if op >= 0:
                self.op_calls[nid] += 1
                self.op_self_ns[nid] += own
            if p >= 0:
                self.child_calls[nid, names[p]] += 1
        self.ids = tracer.ids
        self.errors = tracer.errors

    def count(self, name: str) -> int:
        nid = self.ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def mean_self_us(self, *names: str, in_ops: bool = False) -> float:
        """Mean self time per call over ``names``; ``in_ops`` keeps only
        spans inside an operation, leaving out set-up and warm-up waits."""
        calls_of, ns_of = ((self.op_calls, self.op_self_ns) if in_ops
                           else (self.calls, self.self_ns))
        ids = [self.ids[n] for n in names if n in self.ids]
        calls = sum(calls_of[i] for i in ids)
        return sum(ns_of[i] for i in ids) / calls / 1000.0 if calls else 0.0

    def self_s(self, name: str) -> float:
        nid = self.ids.get(name)
        return 0.0 if nid is None else self.self_ns[nid] / 1e9

    def failed(self, name: str) -> int:
        nid = self.ids.get(name)
        return 0 if nid is None else self.errors[nid]

    def calls_under(self, name: str, parent: str) -> int:
        a, b = self.ids.get(name), self.ids.get(parent)
        if a is None or b is None:
            return 0
        return self.child_calls[a, b]
