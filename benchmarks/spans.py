"""
Timing, spans, counts and failure accounting for one job.

Every step of a job runs inside ``Tracer.span``. Top-level spans add up
to the job's wall time in both modes; with ``record=True`` each span is
also kept in memory as (name, start, end, parent index, run id) and
handed back when the job ends. Spans sit at the benchmark's own calls
into each layer; in a traced session the few names the CLI calls in
other layers, and the verify families, are rebound to timed wrappers
(see ``instrument``), so nothing in the package itself changes.
"""
from __future__ import annotations

import functools
import math
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterable

MAX_MESSAGES = 20


class Raised:
    """An exception a library call raised, kept in place of its result."""

    __slots__ = ("error",)

    def __init__(self, error: Exception):
        self.error = error

    def __repr__(self) -> str:
        return f"raised {type(self.error).__name__}: {self.error}"


def each(fn: Callable, items: Iterable) -> list:
    """Call fn on every item in turn; an exception becomes a Raised result."""
    out = []
    append = out.append
    for item in items:
        try:
            append(fn(item))
        except Exception as exc:  # a failing call is a failed operation, not a crashed run
            append(Raised(exc))
    return out


class Checker:
    """Operations attempted and failed; keeps the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def attempt(self, ops: int) -> None:
        self.attempted += ops

    def expect(self, ok, what: str, *details) -> bool:
        """
        Count one failed operation unless ok holds. ok may be a callable,
        evaluated here so that a malformed result (one that raises when
        inspected) counts as a failure. The message is only formatted for
        a failure.
        """
        if callable(ok):
            try:
                ok = bool(ok())
            except Exception:  # e.g. a missing JSON field
                ok = False
        if not ok:
            self.failed += 1
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(" ".join([what, *map(repr, details)])[:500])
        return ok


class Tracer:
    def __init__(self, run_id: str, record: bool):
        self.run_id = run_id
        self.record = record
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.wall_s = 0.0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, calls: int = 1):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        if self.record:
            self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            if parent is None:
                self.wall_s += end - start
            self.counts[name + "_calls"] += calls
            if self.record:
                self.spans[index] = (name, start, end, parent, self.run_id)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """One library call in its own span; an exception becomes a Raised result."""
        with self.span(name):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:  # counted as a failed operation by the caller's check
                return Raised(exc)


def _series_span(args, kwargs) -> str:
    return "machine.trace" if kwargs.get("record_steps") else "machine.series"


# Names stackwords.cli imports from other layers: (span name or a
# function of the call's arguments, counts taken from the call).
_CLI_CALLS = {
    "brute_force_count": ("counting.brute", lambda a, k, r: {"counting.brute_perms": math.factorial(a[0])}),
    "three_stack_bound": (
        "counting.bound",
        lambda a, k, r: {"counting.bound_terms": (a[0] + 1) // 2, "counting.bound_bits": r.bit_length()},
    ),
    "maximize_growth_rate": ("growth.maximize", lambda a, k, r: {"growth.maximize_iterations": r.iterations}),
    "bound_nth_root": ("growth.bound_root", None),
    "run_series_machine": (_series_span, lambda a, k, r: {"machine.letters": len(r.word.letters)}),
    "is_genuine_word": ("machine.genuine", None),
    "forbidden_factor_violations": ("words.scan", lambda a, k, r: {"words.violations": len(r)}),
    "image_word": ("words.project", None),
    "decode": ("words.decode", None),
}


def _wrap(tracer: Tracer, span_name, fn: Callable, counter) -> Callable:
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        name = span_name(args, kwargs) if callable(span_name) else span_name
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if counter is not None:
            tracer.counts.update(counter(args, kwargs, result))
        return result

    return timed


@contextmanager
def instrument(tracer: Tracer):
    """
    While active, the CLI's calls into other layers and each verify
    family open a span of their own. Names that a later version of the
    package no longer has are skipped.
    """
    from stackwords import cli, verify

    saved = {name: getattr(cli, name) for name in _CLI_CALLS if hasattr(cli, name)}
    checks = getattr(verify, "ALL_CHECKS", None)
    try:
        for name, original in saved.items():
            span_name, counter = _CLI_CALLS[name]
            setattr(cli, name, _wrap(tracer, span_name, original, counter))
        if checks is not None:
            verify.ALL_CHECKS = tuple(
                _wrap(tracer, "verify." + check.__name__.removeprefix("check_"), check, None) for check in checks
            )
        yield
    finally:
        for name, original in saved.items():
            setattr(cli, name, original)
        if checks is not None:
            verify.ALL_CHECKS = checks
