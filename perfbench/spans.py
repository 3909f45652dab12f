"""In-memory spans around pvsmooth's public functions, and their self times.

A :class:`Tracer` replaces a function at the module attribute its callers
look up (``pvsmooth.cli.solve``, ``pvsmooth.formulation.build_problem``, ...)
with a wrapper that records one span per call: name, start, end, parent span
and run id, plus a few counts read from the arguments and the result. Nothing
inside ``src/`` is changed; :meth:`Tracer.restore` puts the originals back.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the tracer's span list
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        s.duration - _covered(children[k], s.start, s.end) for k, s in enumerate(spans)
    ]


class Tracer:
    """Records spans for wrapped functions; one tracer per traced rep."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []

    def wrap(
        self,
        module,
        attr: str,
        name: str,
        enter: Callable[[tuple, dict], dict] | None = None,
        describe: Callable[[tuple, dict, object], dict] | None = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``module.attr``.

        ``enter(args, kwargs)`` and ``describe(args, kwargs, result)`` return
        attributes kept on the span, before and after the call.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name=name, start=time.perf_counter(), end=0.0, parent=parent, run=self.run)
            if enter is not None:
                span.attrs.update(enter(args, kwargs))
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if describe is not None:
                span.attrs.update(describe(args, kwargs, result))
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def ancestor_attr(self, key: str):
        """Value of ``key`` on the innermost open span that carries it."""
        for index in reversed(self._stack):
            if key in self.spans[index].attrs:
                return self.spans[index].attrs[key]
        return None

    def as_records(self) -> list[dict]:
        selfs = self_times(self.spans)
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "run": s.run,
                "self_s": selfs[k],
                "attrs": s.attrs,
            }
            for k, s in enumerate(self.spans)
        ]
