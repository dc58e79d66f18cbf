"""In-memory spans around the calls cyclebound's layers make to each other.

A Tracer records one span per call: name, field id, parent span, start and end
(perf_counter seconds), the exception type if the call raised, and optional
attributes set from the call's result.  `instrument` swaps library functions
for timing wrappers in every cyclebound module that binds them, so the spans
come from the calls the program itself makes; leaving the context restores
the originals.  The program's own code is not changed.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    field: int | None
    start: float
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.field: int | None = None  # id shared by the spans of one field
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, name, self.field, time.perf_counter(),
                 attrs=dict(attrs))
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        except Exception as e:
            s.error = type(e).__name__
            raise
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def named(self, name: str, parent: str | None = None) -> list[Span]:
        """Spans called `name`, optionally only those whose parent is called
        `parent`."""
        out = [s for s in self.spans if s.name == name]
        if parent is not None:
            out = [s for s in out if s.parent is not None
                   and self.spans[s.parent].name == parent]
        return out

    def total(self, name: str) -> float:
        return sum((s.duration for s in self.named(name)), 0.0)

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s), sort_keys=True) + "\n")


def _wrap(tracer: Tracer, name: str, fn, annotate):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as s:
            out = fn(*args, **kwargs)
            if annotate is not None:
                annotate(s, out)
            return out

    return wrapper


@contextmanager
def instrument(tracer: Tracer, targets):
    """Trace calls to library functions.

    targets: iterable of (span name, function, annotate-or-None); annotate is
    called as annotate(span, result) after a call returns.
    """
    modules = [m for n, m in list(sys.modules.items())
               if (n == "cyclebound" or n.startswith("cyclebound.")) and m is not None]
    patched = []
    try:
        for name, fn, annotate in targets:
            wrapper = _wrap(tracer, name, fn, annotate)
            for mod in modules:
                for attr in [a for a, val in vars(mod).items() if val is fn]:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, fn))
        yield
    finally:
        for mod, attr, fn in reversed(patched):
            setattr(mod, attr, fn)
