"""In-memory span recorder and the wrappers that feed it.

A span is one timed call at a layer boundary: name, start, end, the span
that caused it (``parent``) and the op it belongs to.  Spans stay in memory
until the run ends, when :meth:`SpanRecorder.write_jsonl` writes them out.
A span's *self time* is its duration minus the part of its interval that
child spans cover, so nested wrapped calls (an engine method calling a
kernel) are never counted twice, and siblings that overlap in time (calls
running in worker threads) are counted once.

Wrappers are installed on public callables by :class:`Patcher` and removed
by :meth:`Patcher.restore`; the program itself carries no tracing code.
The current span travels in a :class:`contextvars.ContextVar`, which asyncio
tasks and ``asyncio.to_thread`` copy, so spans recorded in worker threads
and in tasks spawned by a traced coroutine find their parent.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, AsyncIterator, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Computes extra span attributes from ``(args, kwargs, result)`` after the
#: wrapped call returned; runs outside the span's timed interval.
AttrFn = Callable[[tuple, dict, Any], Dict[str, Any]]

_INHERIT = object()


@dataclass
class Span:
    """One recorded call."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans; ``span()`` is the only way one is opened."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        # next() on itertools.count and list.append are each atomic under
        # the interpreter lock, which is all the worker-thread spans need.
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Optional[Span]] = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    def current(self) -> Optional[Span]:
        return self._current.get()

    @contextmanager
    def span(
        self,
        name: str,
        *,
        parent: Any = _INHERIT,
        op: Any = _INHERIT,
        **attrs: Any,
    ) -> Iterator[Span]:
        """Time the body as a span; it becomes the current span inside it.

        ``parent`` and ``op`` default to the enclosing span's; pass them to
        join a span to a tree whose parent lives in another task (a server
        handler joined to the client request that caused it).
        """
        enclosing = self._current.get()
        if parent is _INHERIT:
            parent = enclosing.span_id if enclosing is not None else None
        if op is _INHERIT:
            op = enclosing.op if enclosing is not None else None
        span = Span(next(self._ids), name, self.clock(), 0.0, parent, op, dict(attrs))
        token = self._current.set(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._current.reset(token)
            self.spans.append(span)


    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON object per line, in end order."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def covered_length(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted(
        (max(lo, start), min(hi, end)) for lo, hi in intervals if hi > start and lo < end
    )
    total = 0.0
    run_start = run_end = None
    for lo, hi in clipped:
        if run_end is None or lo > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = lo, hi
        elif hi > run_end:
            run_end = hi
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id → duration minus the union of its children's intervals."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.span_id: span.duration
        - covered_length(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


def traced(
    recorder: SpanRecorder, name: str, fn: Callable, attrs: Optional[AttrFn] = None
) -> Callable:
    """``fn`` wrapped in a span; ``attrs`` adds attributes from the result."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with recorder.span(name) as span:
            result = fn(*args, **kwargs)
        if attrs is not None:
            span.attrs.update(attrs(args, kwargs, result))
        return result

    return wrapper


def traced_async(
    recorder: SpanRecorder, name: str, fn: Callable, attrs: Optional[AttrFn] = None
) -> Callable:
    """Coroutine-function twin of :func:`traced`."""

    @functools.wraps(fn)
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        with recorder.span(name) as span:
            result = await fn(*args, **kwargs)
        if attrs is not None:
            span.attrs.update(attrs(args, kwargs, result))
        return result

    return wrapper


async def traced_async_iterator(
    recorder: SpanRecorder,
    name: str,
    iterator: AsyncIterator[Any],
    *,
    parent: Optional[int],
    op: Any,
) -> AsyncIterator[Any]:
    """``iterator`` with each ``__anext__`` timed as a span under ``parent``."""
    while True:
        with recorder.span(name, parent=parent, op=op):
            try:
                item = await iterator.__anext__()
            except StopAsyncIteration:
                return
        yield item


def traced_generator(
    recorder: SpanRecorder,
    name: str,
    fn: Callable,
    item_attrs: Optional[Callable[[Any], Dict[str, Any]]] = None,
) -> Callable:
    """Generator-function wrapper timing each ``next()`` as one span.

    Each span covers the production of one yielded item (a chunk), never
    the consumer's work between items; its parent is whatever span is
    current where the consumer asks for the next item.
    """

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
        iterator = fn(*args, **kwargs)
        while True:
            with recorder.span(name) as span:
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            if item_attrs is not None:
                span.attrs.update(item_attrs(item))
            yield item

    return wrapper


class Patcher:
    """Installs wrappers on attributes and puts the originals back."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, Any]] = []

    def replace(self, owner: object, attribute: str, make: Callable[[Callable], Any]) -> None:
        """Set ``owner.attribute`` to ``make(original)``.

        Class and static methods are unwrapped first and re-wrapped after,
        so ``make`` always receives and returns a plain function.
        """
        raw = vars(owner)[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._undo.append((owner, attribute, raw))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        """Undo every replacement, last first."""
        while self._undo:
            owner, attribute, raw = self._undo.pop()
            setattr(owner, attribute, raw)
