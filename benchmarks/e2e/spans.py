"""Benchmark-owned span tracing: timing wrappers around public callables.

The program under test carries no instrumentation of its own yet, so
the traced run times every layer *from outside*: :class:`Tracer`
replaces a coarse public callable (a method on its class, a function in
every ``repro.*`` namespace that imported it by name) with a wrapper
that records one span per call — name, start, end, thread, parent span
and the id of the driver operation (query or batch) that caused it.

Spans stay in memory and are written out once, after the measured
pass.  A span's *self time* is its duration minus the part of that
interval its child spans cover (:func:`self_times`); children that ran
concurrently on pool threads are counted once, by interval union.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

# Field positions inside one span record (a plain list, to keep the
# per-call cost of opening and closing a span near a microsecond).
SID, NAME, START, END, THREAD, PARENT, OP = range(7)


class Tracer:
    """Collects spans from the wrappers it installs.

    Wrappers call straight through while :attr:`enabled` is false, so
    set-up, movement generation and oracle checks leave no spans.
    """

    def __init__(self) -> None:
        self.enabled = False
        #: Id of the driver operation in flight (set by the workload).
        self.op_id: int | None = None
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        # Open spans whose thread blocks while other threads work for
        # them (the driver's root span, the shard router): a span
        # opened on an idle thread is parented to the innermost one.
        self._adopters: list[int] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def detach_thread(self) -> None:
        """Spans opened by the calling thread are never adopted (the
        client's reader thread works for no driver operation)."""
        self._local.detached = True

    def open(self, name: str, adopter: bool = False) -> list:
        """Start a span on the calling thread; pair with :meth:`close`."""
        stack = self._stack()
        if stack:
            parent = stack[-1][SID]
        elif self._adopters and not getattr(
            self._local, "detached", False
        ):
            parent = self._adopters[-1]
        else:
            parent = None
        span = [
            next(self._ids), name, time.perf_counter_ns(), 0,
            threading.get_ident(), parent, self.op_id,
        ]
        stack.append(span)
        if adopter:
            self._adopters.append(span[SID])
        return span

    def close(self, span: list, adopter: bool = False) -> None:
        """End ``span`` (the innermost open one on this thread)."""
        span[END] = time.perf_counter_ns()
        self._stack().pop()
        if adopter:
            self._adopters.remove(span[SID])
        self.spans.append(span)

    def wrap(
        self,
        name: str,
        fn: Callable,
        adopter: bool = False,
        on_result: Callable[[Any], None] | None = None,
    ) -> Callable:
        """``fn`` timed as span ``name``; ``on_result`` sees each return
        value (used to count encoded bytes).  A call made directly from
        a span of the same name (a maintainer delegating to its inner
        maintainer) is not recorded twice."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack and stack[-1][NAME] == name:
                return fn(*args, **kwargs)
            span = tracer.open(name, adopter)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span, adopter)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- installation --------------------------------------------------

    def patch_method(self, cls: type, attr: str, name: str, **kw) -> None:
        """Replace ``cls.attr`` with its traced wrapper."""
        setattr(cls, attr, self.wrap(name, getattr(cls, attr), **kw))

    def patch_function(
        self, module: Any, attr: str, name: str, **kw
    ) -> None:
        """Replace the module-level function ``module.attr`` with its
        traced wrapper in every loaded ``repro`` namespace that holds
        the original (``from x import f`` copies the binding)."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            if mod.__dict__.get(attr) is original:
                setattr(mod, attr, traced)

    # -- reading -------------------------------------------------------

    def write_jsonl(self, path: Path, selfs: dict[int, int]) -> None:
        """One JSON object per span, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fp:
            for span in sorted(self.spans, key=lambda s: s[START]):
                fp.write(
                    json.dumps(
                        {
                            "id": span[SID],
                            "name": span[NAME],
                            "start_ns": span[START],
                            "end_ns": span[END],
                            "self_ns": selfs[span[SID]],
                            "thread": span[THREAD],
                            "parent": span[PARENT],
                            "op": span[OP],
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def self_times(spans: list[list]) -> dict[int, int]:
    """Self time (ns) per span id: duration minus the union of the
    intervals its direct children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    out: dict[int, int] = {}
    for span in spans:
        covered = 0
        edge = span[START]
        for start, end in sorted(children.get(span[SID], ())):
            start = max(start, edge)
            end = min(end, span[END])
            if end > start:
                covered += end - start
                edge = end
        out[span[SID]] = span[END] - span[START] - covered
    return out


class SpanTable:
    """Per-name totals over a finished trace."""

    def __init__(self, spans: list[list]) -> None:
        self.selfs = self_times(spans)
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.durations_ns: dict[str, list[int]] = defaultdict(list)
        for span in spans:
            name = span[NAME]
            duration = span[END] - span[START]
            self.calls[name] += 1
            self.total_ns[name] += duration
            self.self_ns[name] += self.selfs[span[SID]]
            self.durations_ns[name].append(duration)

    def total_s(self, *names: str) -> float:
        """Summed inclusive duration of the named spans, in seconds."""
        return sum(self.total_ns[n] for n in names) / 1e9

    def self_s(self, *names: str) -> float:
        """Summed self time of the named spans, in seconds."""
        return sum(self.self_ns[n] for n in names) / 1e9

    def count(self, *names: str) -> int:
        """How many spans carry one of the names."""
        return sum(self.calls[n] for n in names)
