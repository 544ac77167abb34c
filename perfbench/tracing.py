"""Outside-in span tracing for the benchmark (stdlib only).

The benchmark never edits the library.  A traced operation instead wraps the
public callables of each layer *at the place where they are looked up* (a
module attribute or a class attribute), records one span per call, and
restores the originals afterwards.  Spans stay in memory and are exported
when the run ends, as JSON lines and as Chrome trace-event JSON (viewable in
``chrome://tracing`` or https://ui.perfetto.dev).

A span's *self time* is its duration minus the part of its interval that its
child spans cover; the self times of all spans of an operation (the root
``op`` span included, whose self time is ``other_s``) add up to the
operation's wall time exactly.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = "op"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    op: object = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """An in-memory span recorder; spans are only recorded inside an op."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @property
    def current_name(self) -> Optional[str]:
        return self.spans[self._stack[-1]].name if self._stack else None

    def open(self, name: str, op: object = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        self.spans.append(Span(name, self.clock(), parent=parent, op=op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self.spans[index].end = self.clock()
        self._stack.pop()

    def wrap(
        self,
        fn: Callable,
        name: str,
        attrs: Optional[Callable] = None,
        reentrant: bool = True,
    ) -> Callable:
        """``fn`` recording a ``name`` span per call made inside an op.

        ``attrs(result)`` returns counts to attach to the span.  With
        ``reentrant=False`` a call made while a span of the same name is
        open records nothing (a subclass method calling its base).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack or (not reentrant and self.current_name == name):
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if attrs is not None:
                self.spans[index].attrs.update(attrs(result))
            return result

        return traced


# --------------------------------------------------------------------------- #
# Installing wrappers at the lookup sites
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``owner.attribute``, recorded as span ``name``."""

    owner: object
    attribute: str
    name: str
    attrs: Optional[Callable] = None
    reentrant: bool = True


class Patch:
    """Wrappers for a list of targets, installable and removable at will."""

    def __init__(self, tracer: Tracer, targets: Sequence[Target]) -> None:
        self.tracer = tracer
        self.targets = list(targets)
        self._saved: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            return
        for target in self.targets:
            original = vars(target.owner)[target.attribute]
            if isinstance(original, classmethod):
                wrapped = classmethod(
                    self.tracer.wrap(
                        original.__func__, target.name, target.attrs, target.reentrant
                    )
                )
            else:
                wrapped = self.tracer.wrap(
                    original, target.name, target.attrs, target.reentrant
                )
            self._saved.append((target.owner, target.attribute, original))
            setattr(target.owner, target.attribute, wrapped)

    def remove(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


# --------------------------------------------------------------------------- #
# Self-time arithmetic
# --------------------------------------------------------------------------- #


def covered(interval: Tuple[float, float], children: Iterable[Tuple[float, float]]) -> float:
    """Length of the part of ``interval`` that the union of ``children`` covers."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in children)
    total = 0.0
    cursor = lo
    for a, b in clipped:
        a = max(a, cursor)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered((span.start, span.end), children.get(i, ()))
        for i, span in enumerate(spans)
    ]


def layer_totals(spans: Sequence[Span], ops: Optional[set] = None) -> Dict[str, Dict[str, float]]:
    """Per span name: summed self time, summed duration, calls and summed attributes.

    Only spans whose op is in ``ops`` count (all spans when ``ops`` is None).
    """
    selfs = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, selfs):
        if ops is not None and span.op not in ops:
            continue
        row = totals.setdefault(span.name, {"self_s": 0.0, "span_s": 0.0, "calls": 0})
        row["self_s"] += own
        row["span_s"] += span.duration
        row["calls"] += 1
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)):
                row[key] = row.get(key, 0) + value
    return totals


# --------------------------------------------------------------------------- #
# Export
# --------------------------------------------------------------------------- #


def _jsonable(value):
    return value if isinstance(value, (int, float, str, bool, type(None))) else str(value)


def write_jsonl(spans: Sequence[Span], path) -> None:
    selfs = self_times(spans)
    with open(path, "w", encoding="utf-8") as handle:
        for i, (span, own) in enumerate(zip(spans, selfs)):
            record = {
                "id": i,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "self_s": own,
                "parent": span.parent,
                "op": _jsonable(span.op),
                "attrs": {k: _jsonable(v) for k, v in span.attrs.items()},
            }
            handle.write(json.dumps(record) + "\n")


def write_chrome(spans: Sequence[Span], path, process_name: str = "benchmark") -> None:
    origin = min((span.start for span in spans), default=0.0)
    events = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": process_name}}
    ]
    for span in spans:
        args = {k: _jsonable(v) for k, v in span.attrs.items()}
        args["op"] = _jsonable(span.op)
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": 1,
                "args": args,
            }
        )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
