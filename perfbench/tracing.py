"""Spans recorded around monoreach functions, without editing the program.

A probe names a function by ``module:qualname``.  Installing it rebinds
that function, in every loaded ``monoreach`` module namespace that holds
it (``from .circuit import write_circuit`` makes a second binding in
``cli``), or on its class for a method.  Every binding is restored on
``restore()``.  A probe whose function no longer exists is reported as
missing, so its metrics are left out instead of reading as zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory, parented by a stack (the program is single-threaded)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent=parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        reach = s.start
        for c in sorted(kids, key=lambda c: c.start):
            lo = max(c.start, reach)
            hi = min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.seconds - covered)
    return out


def outer_totals(spans: list[Span]) -> dict[str, float]:
    """Inclusive seconds per span name, not counting a span nested in one of the same name."""
    totals: dict[str, float] = {}
    for s in spans:
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            totals[s.name] = totals.get(s.name, 0.0) + s.seconds
    return totals


def count_totals(spans: list[Span]) -> dict[str, float]:
    """Sum of every counter, keyed ``<span name>:<counter>``."""
    totals: dict[str, float] = {}
    for s in spans:
        for k, v in s.counts.items():
            key = f"{s.name}:{k}"
            totals[key] = totals.get(key, 0) + v
    return totals


def _resolve(target: str):
    """(owner, attribute, function) for ``module:qualname``, or None if it is gone."""
    modname, _, qual = target.partition(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    func = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(func):
        return None
    return owner, attr, func


class Patcher:
    """Rebinds program functions to wrappers and puts the originals back."""

    def __init__(self, package: str = "monoreach"):
        self.package = package
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, target: str, make_wrapper) -> bool:
        """Rebind every binding of the target to ``make_wrapper(original)``."""
        found = _resolve(target)
        if found is None:
            self.missing.append(target)
            return False
        owner, attr, func = found
        wrapper = make_wrapper(func)
        if isinstance(owner, type):
            self._rebind(owner, attr, wrapper)
            return True
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == self.package or modname.startswith(self.package + ".")):
                continue
            for name, value in list(vars(mod).items()):
                if value is func:
                    self._rebind(mod, name, wrapper)
        return True

    def _rebind(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()


def span_wrapper(tracer: Tracer, name: str, counter=None):
    """Wrapper factory: one span per call; ``counter(args, kwargs, result)`` adds counts."""

    def make(func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(span)
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            return result

        return traced

    return make


def capture_wrapper(sink: list):
    """Wrapper factory that records ``(args, result)`` of every call, and times nothing."""

    def make(func):
        @functools.wraps(func)
        def captured(*args, **kwargs):
            result = func(*args, **kwargs)
            sink.append((args, result))
            return result

        return captured

    return make
