"""Span recorder for the traced run.

Spans are recorded from outside the program: :meth:`SpanRecorder.patch`
replaces a public function or method with a wrapper *where callers look
it up* (a class attribute, or a module global such as
``repro.net.transport.encode_frame``), so the program's own code is
never edited.  Each span is ``[name, start, end, parent, pub_id]``:
``parent`` is the index of the enclosing span on the same call stack
(``-1`` for a root) and ``pub_id`` the publication the call carried,
when it carried exactly one.  Spans stay in memory and are written out
when the run ends; self times are computed from them afterwards.
"""

from __future__ import annotations

import functools
import gc
import json
import time
from typing import Any, Callable


class SpanRecorder:
    """Collects spans and per-boundary counters in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- counters --------------------------------------------------------
    def add(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    # -- spans -----------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        pub_of: Callable | None = None,
        before: Callable | None = None,
        after: Callable | None = None,
        materialize: bool = False,
    ) -> Callable:
        """Wrap ``fn`` so every call records one span named ``name``.

        ``before(recorder, args)`` returns a token handed to
        ``after(recorder, args, token, result)``, which turns the call
        into counters.  ``materialize`` drains a generator inside the
        span, so the work it yields is timed where it happens.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(recorder, args) if before is not None else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    pub_of(args) if pub_of is not None else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(recorder, args, token, result)
            return iter(result) if materialize else result

        return traced

    def patch(self, owner: Any, attr: str, name: str, **options: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **options))

    def track_gc(self) -> None:
        """Record each garbage collection as a ``gc.collect`` span.

        A collection runs inside whatever call allocated last; as its own
        child span its time leaves that caller's self time instead of
        landing on an arbitrary layer.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def on_gc(phase: str, info: dict) -> None:
            if phase == "start":
                stack.append(len(spans))
                spans.append(["gc.collect", clock(), 0.0, stack[-2] if len(stack) > 1 else -1, None])
            elif stack and spans[stack[-1]][0] == "gc.collect":
                spans[stack.pop()][2] = clock()

        gc.callbacks.append(on_gc)
        self._patches.append((gc.callbacks, None, on_gc))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if attr is None:
                owner.remove(original)
            else:
                setattr(owner, attr, original)

    # -- output ----------------------------------------------------------
    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write the spans (one JSON array per line) after a header line."""
        with open(path, "w") as out:
            out.write(json.dumps({"counters": self.counters, **(extra or {})}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def load(path: str) -> tuple[dict, list[list]]:
    """Read back a file written by :meth:`SpanRecorder.dump`."""
    with open(path) as source:
        header = json.loads(source.readline())
        spans = [json.loads(line) for line in source]
    return header, spans


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time per span name: duration minus the direct children's.

    Spans on one call stack nest strictly, so a span's children never
    overlap and subtracting their durations leaves the time spent in
    the span's own code.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, float] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - child[index]
    return totals
