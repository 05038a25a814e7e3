"""In-memory span tracer that wraps functions from outside the program.

A span is (name, start, end, parent, op id).  Spans are kept in flat lists
while the traced code runs and written out once at the end.  Functions are
wrapped at the module attribute their callers look up, so the program under
test carries no instrumentation of its own.
"""

from __future__ import annotations

import gzip
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names = []  # name of each span
        self.starts = []
        self.ends = []
        self.parents = []  # index of the enclosing span, or -1
        self.ops = []  # op id current when the span opened
        self.counters = defaultdict(int)
        self.op = 0
        self.missing = set()  # span names whose target attribute was not found
        self._stack = []
        self._patches = []  # (owner, attribute, original) to restore

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self._stack.append(idx)
        self.starts[idx] = perf_counter()
        return idx

    def _close(self, idx):
        self.ends[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attribute, name, on_result=None):
        """Replace ``owner.attribute`` by a spanning wrapper until ``unwrap``.

        A target that no longer exists is recorded in ``missing`` instead of
        raising, so the metrics that depend on it can be reported as absent.
        """
        fn = getattr(owner, attribute, None)
        if fn is None:
            self.missing.add(name)
            return
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        self._patches.append((owner, attribute, fn))
        setattr(owner, attribute, wrapper)

    def unwrap(self):
        while self._patches:
            owner, attribute, fn = self._patches.pop()
            setattr(owner, attribute, fn)

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        own = self_times(self.starts, self.ends, self.parents)
        out = {}
        for idx, name in enumerate(self.names):
            calls, total, selft = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + self.ends[idx] - self.starts[idx], selft + own[idx])
        return out

    def write(self, path):
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\n")
            t0 = self.starts[0] if self.starts else 0.0
            for idx, name in enumerate(self.names):
                fh.write(
                    f"{idx}\t{self.parents[idx]}\t{self.ops[idx]}\t{name}\t"
                    f"{self.starts[idx] - t0:.9f}\t{self.ends[idx] - t0:.9f}\n"
                )


def self_times(starts, ends, parents):
    """Each span's duration minus the part of it covered by its child spans.

    Children are clipped to their parent's interval and overlapping children
    are counted once, so the result never goes below zero.
    """
    children = defaultdict(list)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx in range(len(starts)):
        lo, hi = starts[idx], ends[idx]
        covered = 0.0
        reach = lo
        for child in sorted(children.get(idx, ()), key=lambda k: starts[k]):
            a = max(starts[child], reach)
            b = min(ends[child], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append(max(0.0, hi - lo - covered))
    return out
