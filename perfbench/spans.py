"""Spans around calls into rphist, recorded from outside the program.

The tracer replaces module attributes (the names a caller looks up)
with wrappers and puts the originals back when its ``installed()``
block ends.  Each wrapped call records a span ``(name, start, end,
parent, error)`` in memory.  Hot leaf functions are only counted and
timed, not spanned, so the trace stays small; their time is still
charged to the enclosing span so that self times add up.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, error]
        self.calls: Counter = Counter()  # span and counted calls per name
        self.busy: Counter = Counter()  # seconds in counted (unspanned) calls
        self._counted_inside: defaultdict = defaultdict(float)  # span -> seconds
        self._local = threading.local()
        self._targets: list[tuple] = []  # (module, attr, wrapper factory)
        self._saved: list[tuple] = []  # (module, attr, original)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, module, attr: str, name: str, on_return=None) -> None:
        """Record a span for every call of ``module.attr``.

        ``on_return(args, kwargs, result)`` runs after a successful call,
        outside the span, to take counts from the arguments and result.
        """
        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack = self._stack()
                rec = [name, perf_counter(), None, stack[-1] if stack else None, False]
                stack.append(len(self.spans))
                self.spans.append(rec)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    rec[4] = True
                    raise
                finally:
                    rec[2] = perf_counter()
                    stack.pop()
                    self.calls[name] += 1
                if on_return is not None:
                    on_return(args, kwargs, result)
                return result
            return wrapper
        self._targets.append((module, attr, factory))

    def count(self, module, attr: str, name: str) -> None:
        """Count and time every call of ``module.attr`` without a span."""
        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    self.calls[name] += 1
                    self.busy[name] += dt
                    stack = self._stack()
                    if stack:
                        self._counted_inside[stack[-1]] += dt
            return wrapper
        self._targets.append((module, attr, factory))

    @contextmanager
    def installed(self):
        """Wrap every registered name for the duration of the block."""
        try:
            for module, attr, factory in self._targets:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, factory(original))
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    def wrapped_names(self) -> list[tuple]:
        return [(module, attr) for module, attr, _ in self._targets]

    def total_s(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def failures(self, name: str) -> int:
        return sum(1 for n, *_, error in self.spans if n == name and error)

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time of its child spans and
        of the counted calls made directly inside it."""
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            own = end - start - self._counted_inside.get(i, 0.0)
            out[name] += own
            if parent is not None:
                out[self.spans[parent][0]] -= end - start
        for name, seconds in self.busy.items():
            out[name] += seconds
        return dict(out)

    def dump(self, path) -> None:
        """Write the spans and counted calls as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "error"],
                "spans": self.spans,
                "counted": {name: {"calls": self.calls[name], "busy_s": s}
                            for name, s in self.busy.items()},
                "self_s": self.self_times(),
            }, fh)
