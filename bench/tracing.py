"""Span tracing of the program's layers, from outside the program.

The tracer replaces the module attributes through which one layer calls
another (``gridbench.scenario.solve_pf``, ``gridbench.acopf.train.mlp_backward``,
the methods of ``Rng`` ...) with wrappers that record a span per call, and
puts the originals back on exit. No program file is edited, so the program
under test is the same code whether tracing is on or off.

A span is ``[name, parent, start, end, child_s, attrs]``; ``child_s`` is the
time covered by direct child spans, so a span's self time is its duration
minus ``child_s``. ``Rng`` calls are too many to keep one span each: they are
summed into ``rng_s`` and ``rng_draws`` and still count as child time of the
span they ran in.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

_clock = time.perf_counter

# Rng methods that draw.
_RNG_METHODS = ("random", "uniform", "normal", "randrange", "choice", "shuffle",
                "poisson", "uniforms", "normals")


class NullTracer:
    """Tracing off: spans cost one no-op context manager."""

    def span(self, name: str, **attrs):
        return contextlib.nullcontext()

    def restore(self) -> None:
        pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.rng_s = 0.0
        self.rng_draws = 0
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- spans

    def begin(self, name: str, **attrs) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, _clock(), 0.0, 0.0, attrs])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span[3] = _clock()
        self._open.pop()
        if span[1] >= 0:
            self.spans[span[1]][4] += span[3] - span[2]

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        idx = self.begin(name, **attrs)
        try:
            yield self.spans[idx]
        finally:
            self.end(idx)

    def ancestor(self, idx: int, names: tuple[str, ...]) -> list | None:
        """Nearest enclosing span of ``idx`` whose name is in ``names``."""
        parent = self.spans[idx][1]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return self.spans[parent]
            parent = self.spans[parent][1]
        return None

    # ------------------------------------------------------------- wrapping

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Trace calls made through ``owner.attr``.

        ``after(span, result, args, kwargs)`` runs once the call returned,
        to attach attributes or bump counters.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(self.spans[idx], result, args, kwargs)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def wrap_rng(self, rng_class, count_draws: bool = False) -> None:
        """Time outermost draw calls; count 64-bit words if ``count_draws``.

        For the length of an outermost call the generator's class is swapped
        for a subclass holding the original methods, so the calls nested in
        it (normals -> normal -> random -> next_u64) run unwrapped. Counting
        adds a Python call per word, which doubles the cost of a draw, so
        the benchmark counts in a separate round from the one it times.
        """
        body = {m: getattr(rng_class, m) for m in _RNG_METHODS}
        if count_draws:
            next_u64 = rng_class.next_u64

            def counted(rng_self):
                self.rng_draws += 1
                return next_u64(rng_self)

            body["next_u64"] = counted
        inner = type("TracedRng", (rng_class,), {"__slots__": (), **body})
        for method in _RNG_METHODS:
            self._wrap_rng_method(rng_class, inner, method)

    def _wrap_rng_method(self, rng_class, inner, method: str) -> None:
        original = getattr(rng_class, method)

        def traced(rng_self, *args, **kwargs):
            rng_self.__class__ = inner
            start = _clock()
            try:
                return original(rng_self, *args, **kwargs)
            finally:
                dur = _clock() - start
                rng_self.__class__ = rng_class
                self.rng_s += dur
                if self._open:
                    self.spans[self._open[-1]][4] += dur

        setattr(rng_class, method, traced)
        self._restore.append((rng_class, method, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ summaries

    def totals(self) -> tuple[Counter, Counter]:
        """(duration, self time) summed per span name."""
        dur, self_s = Counter(), Counter()
        for name, _, start, end, child, _ in self.spans:
            dur[name] += end - start
            self_s[name] += end - start - child
        return dur, self_s
