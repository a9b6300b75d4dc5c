"""In-memory span recorder for the traced benchmark run.

A span is one call across a layer boundary: name, start, end, parent
span and a trace id shared by every span of one system run or one
request.  Spans are kept in memory and written out as JSONL when the
run ends.  Nothing here changes the program: the traced run replaces
callables at their module or class attribute (:meth:`Tracer.wrap`,
:meth:`Tracer.patch`) and puts the originals back afterwards.

Hot inner calls (the server's pending-queue scans) would produce
millions of spans per campaign, so they are folded into one
*aggregate* span per enclosing span instead: its duration is the summed
call time, and it carries the call counts.  Self time treats aggregate
children as plain duration, real children as intervals.
"""

from __future__ import annotations

import contextvars
import inspect
import json
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

now = time.perf_counter


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    tid: str | None = None
    #: True for folded hot-call spans (duration is a sum, not an interval)
    aggregate: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._current: contextvars.ContextVar[Span | None] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )
        #: trace id -> open root span, so spans started in another task
        #: (the gateway dispatcher) can still name the request as parent
        self.open_roots: dict[str, Span] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def start(self, name: str, tid: str | None = None,
              root: bool = False) -> Span:
        parent = None if root else self._current.get()
        if parent is not None and parent.end:
            # a task spawned inside a finished span inherited it as
            # context; that span is no longer its caller
            parent = None
        if parent is None and tid is not None and not root:
            parent = self.open_roots.get(tid)
        if tid is None and parent is not None:
            tid = parent.tid
        span = Span(len(self.spans), name, now(),
                    parent=parent.sid if parent is not None else None,
                    tid=tid)
        self.spans.append(span)
        if root and tid is not None:
            self.open_roots[tid] = span
        return span

    def finish(self, span: Span) -> None:
        span.end = now()
        if self.open_roots.get(span.tid) is span:
            del self.open_roots[span.tid]

    @contextmanager
    def span(self, name: str, tid: str | None = None, root: bool = False):
        span = self.start(name, tid, root)
        token = self._current.set(span)
        try:
            yield span
        finally:
            self._current.reset(token)
            self.finish(span)

    def add_aggregate(self, parent: Span, name: str, seconds: float,
                      **attrs) -> Span:
        span = Span(len(self.spans), name, parent.start,
                    parent.start + seconds, parent=parent.sid,
                    tid=parent.tid, aggregate=True, attrs=attrs)
        self.spans.append(span)
        return span

    def claim(self, span: Span, tid: str) -> None:
        """Attach a span recorded before its request was known."""
        span.tid = tid
        root = self.open_roots.get(tid)
        span.parent = root.sid if root is not None else None

    # -- patching ----------------------------------------------------------

    def patch(self, owner: object, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner: object, attr: str, name: str, tid_of=None,
             on_result=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``tid_of(args, kwargs)`` names the trace id when the call itself
        carries it; ``on_result(span, args, result)`` records counts.
        Coroutine functions get an async wrapper.
        """
        original = getattr(owner, attr)
        tracer = self
        if inspect.iscoroutinefunction(original):
            async def wrapper(*args, **kwargs):
                tid = tid_of(args, kwargs) if tid_of is not None else None
                with tracer.span(name, tid) as span:
                    result = await original(*args, **kwargs)
                if on_result is not None:
                    on_result(span, args, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                tid = tid_of(args, kwargs) if tid_of is not None else None
                with tracer.span(name, tid) as span:
                    result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(span, args, result)
                return result
        self.patch(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                kids.setdefault(span.parent, []).append(span)
        return kids

    def self_times(self) -> dict[int, float]:
        """Span id -> its duration minus what its children cover."""
        kids = self.children()
        out: dict[int, float] = {}
        for span in self.spans:
            if span.aggregate:
                out[span.sid] = span.duration
                continue
            folded = 0.0
            intervals = []
            for child in kids.get(span.sid, ()):
                if child.aggregate:
                    folded += child.duration
                else:
                    intervals.append((max(child.start, span.start),
                                      min(child.end, span.end)))
            out[span.sid] = max(
                0.0, span.duration - folded - covered(intervals)
            )
        return out

    def write_jsonl(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for span in self.spans:
                record = {
                    "id": span.sid, "name": span.name, "parent": span.parent,
                    "trace": span.tid, "start": span.start, "end": span.end,
                }
                if span.aggregate:
                    record["aggregate"] = True
                if span.attrs:
                    record["attrs"] = span.attrs
                fh.write(json.dumps(record) + "\n")


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= max(start, reach):
            continue
        total += end - max(start, reach)
        reach = end
    return total
