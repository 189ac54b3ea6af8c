"""Out-of-program span tracing: timing wrappers installed around entry points.

The program under test carries no tracing of its own that this benchmark
relies on. Instead a :class:`Tracer` replaces chosen functions and methods
with thin wrappers that record one span per call: name, layer, start, end,
thread, the span that was open on the same thread when the call began
(its parent), the id of the trial it ran for, and an optional row count.

A layer's *self time* is its spans' duration minus the part of each span
that its child spans cover (:func:`self_times`). Spans live in memory and
are written out once, at the end, as Chrome-trace JSON (:func:`chrome_trace`).
"""

from __future__ import annotations

import importlib
import itertools
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

__all__ = [
    "Probe",
    "Span",
    "Tracer",
    "self_times",
    "union_length",
    "chrome_trace",
]


@dataclass(frozen=True)
class Probe:
    """One entry point to wrap.

    ``target`` is ``"module:attr"`` or ``"module:Class.method"``. A
    module-level function is replaced wherever a loaded module of the
    same package binds the very same object under that name, so calls
    through ``from x import f`` aliases are seen too. ``rows`` maps the
    call's ``(args, kwargs, result)`` to the amount of work it did; a
    probe with ``timed=False`` only counts calls and rows (for calls that
    block waiting, whose duration is idle time, not work).
    """

    target: str
    layer: str
    name: str
    rows: Callable[[tuple, dict, Any], int] | None = None
    timed: bool = True
    #: maps the call's ``(args, kwargs)`` to a trial label; the call then
    #: opens a trial scope whose id every span inside it carries
    trial: Callable[[tuple, dict], Any] | None = None


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    layer: str
    start: float  # perf_counter seconds
    end: float
    pid: int
    tid: int
    trial: str | None
    rows: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_row(self) -> list[Any]:
        return [self.sid, self.parent, self.name, self.layer, self.start,
                self.end, self.pid, self.tid, self.trial, self.rows]

    @classmethod
    def from_row(cls, row: Sequence[Any]) -> "Span":
        return cls(*row)


class Tracer:
    """Collects spans from wrapped entry points of the running process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: untimed probe tallies: name -> [calls, rows]
        self.counts: dict[str, list[int]] = {}
        #: perf_counter -> epoch seconds, for cross-process trace alignment
        self.epoch_offset = time.time() - time.perf_counter()
        self.pid = os.getpid()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._trial_ids = itertools.count(1)
        self._restore: list[tuple[Any, str, Any]] = []
        self.missing: list[str] = []

    # ------------------------------------------------------------ context
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_trial(self, label: Any) -> str:
        """Open a trial scope on this thread; spans opened in it share its id."""
        trial = f"{self.pid}.{next(self._trial_ids)}:{label}"
        self._local.trial = trial
        return trial

    def end_trial(self) -> None:
        self._local.trial = None

    def record(
        self, name: str, layer: str, start: float, end: float,
        parent: int | None = None, rows: int = 0, trial: str | None = None,
    ) -> Span:
        """Append a span measured elsewhere (tests and synthetic spans)."""
        span = Span(next(self._ids), parent, name, layer, start, end,
                    self.pid, threading.get_ident(), trial, rows)
        self.spans.append(span)
        return span

    # ----------------------------------------------------------- wrapping
    def wrap(self, probe: Probe, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self
        name, layer, rows_of, trial_of = probe.name, probe.layer, probe.rows, probe.trial
        clock = time.perf_counter
        spans = self.spans
        ids = self._ids
        local = self._local
        pid = self.pid
        get_ident = threading.get_ident

        if not probe.timed:
            tally = self.counts.setdefault(name, [0, 0])
            lock = threading.Lock()

            def counted(*args: Any, **kwargs: Any) -> Any:
                result = fn(*args, **kwargs)
                n = rows_of(args, kwargs, result) if rows_of is not None else 0
                with lock:
                    tally[0] += 1
                    tally[1] += n
                return result

            counted.__wrapped__ = fn  # type: ignore[attr-defined]
            return counted

        def timed(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            sid = next(ids)
            parent = stack[-1] if stack else None
            if trial_of is not None:
                tracer.begin_trial(trial_of(args, kwargs))
            trial = getattr(local, "trial", None)
            stack.append(sid)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                if trial_of is not None:
                    tracer.end_trial()
                n = rows_of(args, kwargs, result) if ok and rows_of is not None else 0
                spans.append(Span(sid, parent, name, layer, start, end, pid,
                                  get_ident(), trial, n))

        timed.__wrapped__ = fn  # type: ignore[attr-defined]
        return timed

    def install(self, probes: Iterable[Probe], package: str) -> None:
        """Wrap every probe's target; targets that do not resolve are noted
        in :attr:`missing` (a renamed seam must not crash the benchmark)."""
        for probe in probes:
            module_name, _, attr = probe.target.partition(":")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(probe.target)
                continue
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = getattr(owner, "__dict__", {}).get(member)
                if original is None:
                    self.missing.append(probe.target)
                    continue
                self._patch(owner, member, self.wrap(probe, original))
                continue
            original = getattr(module, member, None)
            if original is None:
                self.missing.append(probe.target)
                continue
            wrapped = self.wrap(probe, original)
            for name, loaded in list(sys.modules.items()):
                if name == package or name.startswith(package + "."):
                    if getattr(loaded, member, None) is original:
                        self._patch(loaded, member, wrapped)

    def _patch(self, owner: Any, member: str, value: Any) -> None:
        self._restore.append((owner, member, owner.__dict__[member]))
        setattr(owner, member, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, member, original = self._restore.pop()
            setattr(owner, member, original)

    # ------------------------------------------------------------- export
    def dump(self) -> dict[str, Any]:
        """JSON-safe snapshot (what a worker process ships home)."""
        return {
            "pid": self.pid,
            "epoch_offset": self.epoch_offset,
            "spans": [span.to_row() for span in self.spans],
            "counts": self.counts,
            "missing": self.missing,
        }


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover.

    Children are clipped to their parent's interval, and overlapping
    children (a parent whose callees ran on other threads) count once.
    """
    by_id = {span.sid: span for span in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is None:
            continue
        start, end = max(span.start, parent.start), min(span.end, parent.end)
        if end > start:
            children.setdefault(parent.sid, []).append((start, end))
    return {
        span.sid: max(0.0, span.duration - union_length(children.get(span.sid, ())))
        for span in spans
    }


def chrome_trace(
    processes: Sequence[tuple[str, float, Sequence[Span]]],
) -> dict[str, Any]:
    """Chrome trace-event JSON (opens in Perfetto / chrome://tracing).

    ``processes`` holds ``(label, epoch_offset, spans)`` per process; the
    offset puts every process on one wall-clock axis. Complete ("X")
    events carry the span's layer as category and its trial id, parent
    and row count as args.
    """
    events: list[dict[str, Any]] = []
    origin = min(
        (offset + span.start for _, offset, spans in processes for span in spans),
        default=0.0,
    )
    for label, offset, spans in processes:
        pids = {span.pid for span in spans}
        for pid in sorted(pids):
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "tid": 0, "args": {"name": f"{label} ({pid})"}})
        for span in spans:
            args: dict[str, Any] = {"sid": span.sid}
            if span.parent is not None:
                args["parent"] = span.parent
            if span.trial is not None:
                args["trial"] = span.trial
            if span.rows:
                args["rows"] = span.rows
            events.append({
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": round((offset + span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": span.pid,
                "tid": span.tid,
                "args": args,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
