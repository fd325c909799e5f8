"""In-memory spans and counters for the traced benchmark run.

A span is one call of a wrapped function: its name, start, end, the index
of the enclosing span (-1 at the top) and the request it belongs to (the
case being verified).  Spans stay in memory while gnsparse runs and are
written out once, after the run, so tracing adds no file I/O to the timed
region.  A layer's self time is the duration of its spans minus the time
covered by their direct children; the run is single-threaded, so child
spans never overlap and that covered time is simply their summed duration.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent, request]
        self.counts = Counter()
        self.request = ""
        self._stack = []

    def wrap(self, name, fn, request_of=None):
        """``fn`` recorded as a span ``name``; ``request_of(*args)`` names a new request."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_request = self.request
            if request_of is not None:
                self.request = request_of(*args, **kwargs)
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = self.clock()
                self._stack.pop()
                self.request = outer_request

        return traced


def self_times(spans):
    """(self seconds, call count) per span name."""
    child_time = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = defaultdict(float)
    calls = Counter()
    for index, (name, start, end, _, _) in enumerate(spans):
        totals[name] += (end - start) - child_time[index]
        calls[name] += 1
    return totals, calls
