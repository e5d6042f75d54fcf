"""Span recording around calls into the program, from outside it.

A ``Recorder`` replaces public names where the program looks them up
(module attributes, registry dict entries, class attributes) with wrappers
that time each call.  Spans are kept in memory as they close and written out
once the run ends.  A span's self time is its duration minus the durations
of the spans opened inside it; spans are properly nested because the traced
run is single-threaded.

``PeakRecorder`` wraps the same kind of names but measures memory instead:
tracemalloc runs only while a wrapped call is open, so the rest of the
program runs at full speed.  It is used in a pass of its own so that
tracemalloc never distorts span times.
"""
from __future__ import annotations

import functools
import json
import time
import tracemalloc
from collections import defaultdict
from typing import Callable


class Patcher:
    """Replace names and put every original back on ``restore``."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []

    def patch(self, owner, key: str, value) -> None:
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = value
        else:
            # a class attribute is read from __dict__ so that a classmethod or
            # staticmethod descriptor is restored as itself
            original = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
            setattr(owner, key, value)
        self._patches.append((owner, key, original))

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def wrap(self, fn: Callable, name) -> Callable:
        """``name`` is a span name, or a function of (args, kwargs) giving one."""
        namer = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(namer(args, kwargs), fn, args, kwargs)

        return wrapper

    def call(self, name: str, fn: Callable, args, kwargs):
        return fn(*args, **kwargs)


class Recorder(Patcher):
    """Timed spans: (name, parent index, start, end, self seconds)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        super().__init__()
        self.clock = clock
        self.spans: list[tuple[str, int, float, float, float] | None] = []
        self._open: list[list] = []  # [index, start, seconds covered by children]

    def call(self, name: str, fn: Callable, args, kwargs):
        index = len(self.spans)
        parent = self._open[-1][0] if self._open else -1
        self.spans.append(None)
        frame = [index, self.clock(), 0.0]
        self._open.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._open.pop()
            duration = end - frame[1]
            if self._open:
                self._open[-1][2] += duration
            self.spans[index] = (name, parent, frame[1], end, duration - frame[2])

    def table(self) -> dict[str, dict[str, float]]:
        """Calls and summed self time per span name."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for name, _parent, _start, _end, self_s in self._closed():
            out[name]["calls"] += 1
            out[name]["self_s"] += self_s
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, parent, start, end, self_s) in enumerate(self._closed()):
                fh.write(json.dumps({"id": index, "parent": parent, "name": name,
                                     "start": start, "end": end, "self_s": self_s}) + "\n")

    def _closed(self):
        if self._open:
            raise RuntimeError("spans are still open")
        return self.spans


class PeakRecorder(Patcher):
    """Highest traced allocation (bytes) inside each wrapped call, per name."""

    def __init__(self):
        super().__init__()
        self.peaks: dict[str, int] = {}
        self._open: list[list[int]] = []  # [baseline, highest peak seen by nested calls]

    def call(self, name: str, fn: Callable, args, kwargs):
        if self._open:
            # a nested call resets the peak counter; hand the outer call the
            # peak it had reached so far
            current, peak = tracemalloc.get_traced_memory()
            self._open[-1][1] = max(self._open[-1][1], peak)
            tracemalloc.reset_peak()
        else:
            tracemalloc.start()
            current = 0
        frame = [current, 0]
        self._open.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            peak = max(tracemalloc.get_traced_memory()[1], frame[1])
            self._open.pop()
            self.peaks[name] = max(self.peaks.get(name, 0), peak - frame[0])
            if self._open:
                self._open[-1][1] = max(self._open[-1][1], peak)
            else:
                tracemalloc.stop()
