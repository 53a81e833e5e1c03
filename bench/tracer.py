"""In-memory span tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own code: ``install`` rebinds a
public function in every ``resetcert`` module namespace that holds it, so
calls made inside the package go through the wrapper too.  ``uninstall``
puts every original back.  Nothing here is imported by the package.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)     # name -> list of recorded values
    _stack: list = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> float:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        return span.end - span.start

    def note(self, key: str, value) -> None:
        self.notes.setdefault(key, []).append(value)

    def wrap(self, name: str, fn, on_result=None):
        """Wrapper that records one span per call; ``on_result(tracer, out,
        seconds, args, kwargs)`` runs after the span closes."""

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                seconds = self.close(idx)
            if on_result is not None:
                on_result(self, out, seconds, args, kwargs)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


def self_times(spans) -> dict:
    """name -> (self seconds, calls); self time is a span's duration minus
    the durations of its direct children, which nest inside it and do not
    overlap in a single-threaded run."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out = {}
    for s, c in zip(spans, child):
        total, calls = out.get(s.name, (0.0, 0))
        out[s.name] = (total + (s.end - s.start) - c, calls + 1)
    return out


def _package_modules(package: str):
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))]


@dataclass
class Installed:
    """Record of rebound attributes; ``uninstall`` restores them."""

    rebound: list = field(default_factory=list)   # (owner, attr, original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.rebound):
            setattr(owner, attr, original)
        self.rebound.clear()


@dataclass(frozen=True)
class Target:
    """One function to trace: ``owner.attr`` (a module or a class).

    ``on_result(tracer, out, seconds, args, kwargs)`` runs after each call;
    ``adapt(fn)`` returns the callable that the span wraps instead of ``fn``
    (used to trace a callback the function receives).
    """

    name: str
    owner: object
    attr: str
    on_result: object = None
    adapt: object = None


def install(tracer: Tracer, targets, package: str = "resetcert") -> Installed:
    """Rebind each target in every package module that holds it; a class
    attribute is rebound on the class itself."""
    done = Installed()
    modules = _package_modules(package)
    for t in targets:
        original = getattr(t.owner, t.attr)
        inner = t.adapt(original) if t.adapt is not None else original
        wrapper = tracer.wrap(t.name, inner, t.on_result)
        holders = [t.owner] if isinstance(t.owner, type) else [
            m for m in modules if getattr(m, t.attr, None) is original]
        for holder in holders:
            setattr(holder, t.attr, wrapper)
            done.rebound.append((holder, t.attr, original))
    return done


def _is_wrapper(obj) -> bool:
    code = getattr(obj, "__code__", None)
    return code is not None and code.co_filename == __file__ and code.co_name == "traced"


def leftover_wrappers(package: str = "resetcert") -> list:
    """Package attributes and class methods still bound to a tracing
    wrapper; empty after a clean ``uninstall``."""
    found = []
    for mod in _package_modules(package):
        for attr, val in vars(mod).items():
            if _is_wrapper(val):
                found.append(f"{mod.__name__}.{attr}")
            elif isinstance(val, type) and val.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{attr}.{m}" for m, v in vars(val).items()
                          if _is_wrapper(v)]
    return found
