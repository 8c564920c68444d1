"""In-memory span tracer that measures blockade's layers from outside.

Each layer is wrapped where another module imported its public function,
so the package itself is unchanged.  A span records its name, start, end,
parent span id, thread, whether it raised, and a work figure (bytes or
flops computed from the call's arguments).  Spans are kept in a list and
written out when the run ends.  Self time is a span's duration minus the
part of it that its child spans cover, taken as the union of the
children's intervals because sweep points run on pool threads in parallel.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Span recorder and the patches that feed it."""

    def __init__(self):
        self.spans = []     # (id, parent, name, t0, t1, thread, failed, work)
        self._patches = []  # (module, attr, original)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._adopter = 0   # parent of spans opened on a thread with no open span

    def call(self, name, fn, args=(), kwargs=None, work=None,
             adopt_threads=False):
        kwargs = kwargs or {}
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self._adopter
        sid = next(self._ids)
        stack.append(sid)
        if adopt_threads:
            outer, self._adopter = self._adopter, sid
        failed = True
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            t1 = time.perf_counter()
            stack.pop()
            if adopt_threads:
                self._adopter = outer
            self.spans.append((sid, parent, name, t0, t1, threading.get_ident(),
                               failed, work(*args, **kwargs) if work else 0.0))

    def wrap(self, module, attr, name, work=None, adopt_threads=False):
        """Replace module.attr by a wrapper that records span `name`.

        adopt_threads makes the span the parent of spans that pool threads
        open while it runs.
        """
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, work, adopt_threads)
        traced.__wrapped__ = fn
        self._patches.append((module, attr, fn))
        setattr(module, attr, traced)

    def unwrap_all(self) -> None:
        """Put every wrapped function back, latest wrap first."""
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def save(self, path) -> None:
        names = sorted({s[2] for s in self.spans})
        threads = sorted({s[5] for s in self.spans})
        cols = list(zip(*self.spans)) if self.spans else [()] * 8
        np.savez(path, names=np.array(names),
                 id=np.array(cols[0], dtype=np.int64),
                 parent=np.array(cols[1], dtype=np.int64),
                 name=np.array([names.index(n) for n in cols[2]], dtype=np.int32),
                 start=np.array(cols[3], dtype=float),
                 end=np.array(cols[4], dtype=float),
                 thread=np.array([threads.index(t) for t in cols[5]],
                                 dtype=np.int32),
                 failed=np.array(cols[6], dtype=bool),
                 work=np.array(cols[7], dtype=float))


def summarize(spans) -> dict:
    """Totals per span name: calls, s, self_s, failed and work."""
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append((s[3], s[4]))
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                               "failed": 0, "work": 0.0})
    for sid, _, name, t0, t1, _, failed, work in spans:
        agg = out[name]
        agg["calls"] += 1
        agg["s"] += t1 - t0
        agg["self_s"] += (t1 - t0) - _union_length(sorted(children[sid]))
        agg["failed"] += int(failed)
        agg["work"] += work
    return dict(out)


def _union_length(intervals) -> float:
    """Total length covered by sorted (lo, hi) intervals."""
    total, lo_run, hi_run = 0.0, None, None
    for lo, hi in intervals:
        if hi_run is None or lo > hi_run:
            if hi_run is not None:
                total += hi_run - lo_run
            lo_run, hi_run = lo, hi
        else:
            hi_run = max(hi_run, hi)
    if hi_run is not None:
        total += hi_run - lo_run
    return total
