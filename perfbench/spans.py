"""Tracing from outside the program: wrap the names that importing modules
bind, record spans in memory, and reduce them to per-layer metrics.

A wrapped name is the binding a caller looks up, for example
`partialsat.partial_sat.residual` (what `verdict` calls) or
`partialsat.enumeration.residual` (what the DPLL engine calls).  The
defining module's own recursive globals (`semantics.residual`,
`semantics.eval3`, `formula.format_formula`) are never wrapped, since every
recursive step would become a span.  A few callers import lazily inside a
function body (`from .cnfize import tseitin` in `partial_sat`,
`from .enumeration import dpll_first_assignment`,
`from .partial_sat import entails, validates` in `verify_enumeration`);
for those the importing binding is the defining module's attribute, and it
is wrapped only when the function does not call itself through it.
"""
from __future__ import annotations

import gzip
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable


class Tracer:
    """Spans (name, start, end, parent index, op id) and counters, kept in
    memory until `write`."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.deferred: list[tuple[Callable, tuple]] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -------------------------------------------------------- wrapping

    def wrap(
        self,
        owner,
        attr: str,
        span: str | None,
        on_call: Callable | None = None,
        on_result: Callable | None = None,
        limit_key: str | None = None,
        limit_error: type | None = None,
    ) -> None:
        """Replace owner.attr by a recording wrapper.

        span: span name, or None to count calls without timing them.
        on_call(tracer, args, kwargs) / on_result(tracer, result) record
        counts derived from arguments and results; they run inside the
        caller's span, so anything costly goes through `defer`.
        """
        fn = getattr(owner, attr)
        counts = self.counts
        stack = self._stack
        spans = self.spans
        now = time.perf_counter

        if span is None:
            def counting(*args, **kwargs):
                on_call(self, args, kwargs)
                return fn(*args, **kwargs)

            wrapper = counting
        else:
            def spanning(*args, **kwargs):
                if on_call is not None:
                    on_call(self, args, kwargs)
                parent = stack[-1] if stack else -1
                idx = len(spans)
                spans.append(None)
                stack.append(idx)
                start = now()
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    if limit_error is not None and isinstance(exc, limit_error):
                        counts[limit_key] += 1
                    raise
                finally:
                    end = now()
                    stack.pop()
                    spans[idx] = (span, start, end, parent, self.op_id)
                if on_result is not None:
                    on_result(self, result)
                return result

            wrapper = spanning
        self._restore.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def defer(self, fn: Callable, *payload) -> None:
        """Run fn(counts, *payload) in `finish`, outside every span."""
        self.deferred.append((fn, payload))

    def finish(self) -> None:
        for fn, payload in self.deferred:
            fn(self.counts, *payload)
        self.deferred.clear()

    def unwrap(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    # -------------------------------------------------------- reducing

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the time covered
        by direct child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
        return totals

    def call_counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        return out

    def write(self, path: Path) -> None:
        """Spans as gzipped tab-separated lines, start and end in ns
        relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as out:
            out.write("name\tstart_ns\tend_ns\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                out.write(
                    f"{name}\t{int((start - base) * 1e9)}\t"
                    f"{int((end - base) * 1e9)}\t{parent}\t{op}\n"
                )
