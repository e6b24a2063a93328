"""In-memory span recorder that wraps the program's functions from outside.

The program imports its helpers with ``from .x import y``, so a function is
looked up under several module names. ``Tracer.wrap`` replaces the function
in every ``accent_forge`` module that holds it, records one span per call
(name, start, end, parent, thread) and lets a counter read the call's
arguments and return value. Spans opened in a worker thread with no open
span of their own take the current stage span as parent. ``Tracer.restore``
puts the original functions back.
"""

from __future__ import annotations

import functools
import sys
import threading
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "counts", "children")

    def __init__(self, name, start, parent, thread):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.counts = {}
        self.children = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        """Duration minus the part of it that child spans cover."""
        intervals = sorted((max(c.start, self.start), min(c.end, self.end)) for c in self.children)
        covered, lo, hi = 0.0, None, None
        for s, e in intervals:
            if e <= s:
                continue
            if hi is None or s > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = s, e
            else:
                hi = max(hi, e)
        if hi is not None:
            covered += hi - lo
        return self.duration - covered


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stage: Span | None = None
        self._local = threading.local()
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self.stage
        span = Span(name, time.perf_counter(), parent, threading.get_ident())
        stack.append(span)
        self.spans.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def begin_stage(self, name: str) -> Span:
        self.stage = self.begin(name)
        return self.stage

    def finish_stage(self, span: Span) -> None:
        self.finish(span)
        self.stage = None

    def wrap(self, module_name: str, func_name: str, span_name: str, counter=None) -> None:
        original = getattr(sys.modules[module_name], func_name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.begin(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.finish(span)
            if counter is not None:
                counter(span.counts, args, kwargs, result)
            return result

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "accent_forge" and getattr(module, func_name, None) is original:
                setattr(module, func_name, traced)
                self._patches.append((module, func_name, original))

    def restore(self) -> None:
        for module, func_name, original in reversed(self._patches):
            setattr(module, func_name, original)
        self._patches.clear()

    def link(self) -> None:
        """Fill each span's children list from the parent pointers."""
        for span in self.spans:
            span.children = []
        for span in self.spans:
            if span.parent is not None:
                span.parent.children.append(span)
