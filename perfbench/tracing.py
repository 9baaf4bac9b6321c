"""Spans recorded around calls into monotile, the numbers derived from them,
and the :class:`Probe` through which an op makes its calls.

A span is ``[name, start_ns, end_ns, parent, op, note]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``op`` the id of the op that
made the call, and ``note`` an optional number the wrapper read off the
result (1 for a hit, a colouring count, ...).  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

from speed import NOMINAL_S, reference_seconds

Note = Callable[[object], float] | None


class Tracer:
    """Records nested spans and per-op counters for one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def run(self, name: str, fn: Callable, args: tuple, kwargs: dict, note: Note = None):
        index = len(self.spans)
        span = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self.op, None]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()
        if note is not None:
            span[5] = note(result)
        return result

    def count(self, name: str, value: float) -> None:
        self.counters[name] += value

    def wrap(self, module, attr: str, name: str, note: Note = None) -> None:
        """Replace ``module.attr`` by a traced wrapper until :meth:`unwrap_all`.

        Wrapping the name in the module that imports it catches exactly the
        calls that module makes.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            return self.run(name, original, args, kwargs, note)

        traced.__wrapped__ = original
        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def unwrap_all(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover, in seconds."""
    out = [(s[2] - s[1]) / 1e9 for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= (s[2] - s[1]) / 1e9
    return out


def span_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``s``, ``self_s`` and the sum of notes."""
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "notes": 0.0}
    )
    for span, own in zip(spans, self_times(spans)):
        t = totals[span[0]]
        t["calls"] += 1
        t["s"] += (span[2] - span[1]) / 1e9
        t["self_s"] += own
        if span[5] is not None:
            t["notes"] += span[5]
    return dict(totals)


def layer_self_shares(
    spans: list[list], op_seconds: float, exclude: frozenset[str] = frozenset()
) -> dict[str, float]:
    """Self time of each layer (first part of the span name) over total op time.

    Spans named in ``exclude`` (checks run outside the timed op) are left out.
    """
    shares: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        if span[0] not in exclude:
            shares[span[0].split(".", 1)[0]] += own
    return {layer: s / op_seconds for layer, s in sorted(shares.items())}


class Probe:
    """One op's view of the run: timed calls, checks, digest parts and ratios."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.seconds = 0.0
        self.errors: list[str] = []
        self.digest: list[str] = []
        self.ratios: list[float] = []
        self.references: list[float] = []
        self.scaled = 0.0
        self._calibrated_at = 0.0

    def call(self, name: str, fn: Callable, *args, note=None, **kwargs):
        """Call into monotile inside the timed interval (and a span when tracing)."""
        start = time.perf_counter()
        try:
            if self.tracer is None:
                return fn(*args, **kwargs)
            return self.tracer.run(name, fn, args, kwargs, note)
        finally:
            self.seconds += time.perf_counter() - start

    def check(self, name: str, fn: Callable, *args):
        """Call into monotile as a check: outside the timed interval."""
        if self.tracer is None:
            return fn(*args)
        return self.tracer.run(name, fn, args, {}, None)

    def calibrate(self) -> None:
        """Time the machine-speed reference, outside the timed interval.

        The timed seconds since the previous calibration are added to
        ``scaled`` after scaling by the mean of the two references around them.
        """
        reference = reference_seconds()
        if self.references:
            segment = self.seconds - self._calibrated_at
            self.scaled += segment * NOMINAL_S * 2 / (self.references[-1] + reference)
        self._calibrated_at = self.seconds
        self.references.append(reference)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def count(self, name: str, value: float) -> None:
        if self.tracer is not None:
            self.tracer.count(name, value)
