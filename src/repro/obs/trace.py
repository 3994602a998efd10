"""Hierarchical query tracing.

A :class:`Tracer` records a tree of :class:`Span` objects: one span per
pipeline phase (grid mapping, lower-bounding, upper-bounding,
verification, label I/O), nested under one ``query`` span, itself nested
under a ``batch``/``request`` span when a
:class:`~repro.session.QuerySession` runs a workload.  Spans use the
monotonic ``time.perf_counter`` clock, carry free-form attributes, and
know their children, so the per-phase decomposition of Table II is read
directly off the trace -- the engines derive ``MIOResult.phases`` from
the span tree whenever a real tracer is attached.

Tracing is opt-in.  The default is the module-level :data:`NULL_TRACER`,
whose spans are a single shared no-op object: an instrumentation point in
disabled mode costs one attribute check plus an empty context-manager
enter/exit, which keeps the hot paths within noise of the
pre-instrumentation pipeline (the overhead guard in
``benchmarks/test_obs_overhead.py`` enforces this).

Completed work whose duration is already known (e.g. a baseline's phase
breakdown, or the temporal engine's phases) is attached with
:meth:`Tracer.record`, which stamps the known duration on the span with
:meth:`Span.set_duration` instead of measuring it.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterator, List, Optional

Clock = Callable[[], float]

#: Span names the engines treat as pipeline phases: when a real tracer is
#: attached, ``MIOResult.phases`` is the per-name sum of these spans'
#: durations (see :func:`phase_durations`).
PHASE_SPAN_NAMES = frozenset(
    (
        "grid_mapping",
        "lower_bounding",
        "upper_bounding",
        "verification",
        "label_input",
        "label_output",
    )
)


class Span:
    """One timed operation in a trace tree."""

    __slots__ = ("name", "attributes", "children", "_tracer", "_start", "_end", "_override")

    def __init__(self, name: str, tracer: "Tracer", attributes: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.attributes: Dict[str, Any] = dict(attributes) if attributes else {}
        self.children: List["Span"] = []
        self._tracer = tracer
        self._start: Optional[float] = None
        self._end: Optional[float] = None
        self._override: Optional[float] = None

    # -- context-manager protocol --------------------------------------

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self._start = self._tracer.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._end = self._tracer.clock()
        self._tracer._pop(self)
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        return False

    # -- recording ------------------------------------------------------

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def set_attributes(self, **attributes: Any) -> None:
        self.attributes.update(attributes)

    def set_duration(self, seconds: float) -> None:
        """Override the measured duration with a known one."""
        self._override = float(seconds)

    def rename(self, name: str) -> None:
        """Reclassify the span (e.g. a missed ``label_input`` lookup)."""
        self.name = name

    # -- reading --------------------------------------------------------

    @property
    def started(self) -> Optional[float]:
        return self._start

    @property
    def duration(self) -> float:
        """Seconds: the override if set, else the measured wall-clock."""
        if self._override is not None:
            return self._override
        if self._start is None or self._end is None:
            return 0.0
        return self._end - self._start

    @property
    def finished(self) -> bool:
        return self._end is not None or self._override is not None

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly nested form (the ``--trace-out`` format)."""
        payload: Dict[str, Any] = {
            "name": self.name,
            "duration_seconds": self.duration,
        }
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    def __repr__(self) -> str:
        return f"Span({self.name!r}, duration={self.duration:.6f}s, children={len(self.children)})"


class Tracer:
    """Records a span tree; one tracer serves one query or one batch.

    The active-span stack makes nesting automatic: a span entered while
    another is open becomes its child, so the engines, the session, and
    the CLI can all open spans without threading parents around.
    """

    enabled = True

    def __init__(self, clock: Clock = time.perf_counter) -> None:
        self.clock = clock
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, **attributes: Any) -> Span:
        """A new span to use as a context manager (child of the active span)."""
        return Span(name, self, attributes)

    def record(self, name: str, seconds: float, **attributes: Any) -> Span:
        """Attach an already-completed operation of known duration."""
        span = Span(name, self, attributes)
        span.set_duration(seconds)
        self._attach(span)
        return span

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    @property
    def root(self) -> Optional[Span]:
        """The most recent top-level span (what the CLI renders)."""
        return self.roots[-1] if self.roots else None

    # -- internal -------------------------------------------------------

    def _attach(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)

    def _push(self, span: Span) -> None:
        self._attach(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # Tolerate exceptions unwinding several spans at once: pop through.
        while self._stack:
            if self._stack.pop() is span:
                break


class _NullSpan:
    """Shared no-op span: every disabled instrumentation point reuses it."""

    __slots__ = ()
    name = "null"
    attributes: Dict[str, Any] = {}
    children: List[Span] = []
    duration = 0.0
    finished = False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def set_attributes(self, **attributes: Any) -> None:
        pass

    def set_duration(self, seconds: float) -> None:
        pass

    def rename(self, name: str) -> None:
        pass

    def to_dict(self) -> Dict[str, Any]:
        return {"name": "null", "duration_seconds": 0.0}


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every span is the shared no-op instance."""

    enabled = False
    roots: List[Span] = []
    current = None
    root = None

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return _NULL_SPAN

    def record(self, name: str, seconds: float, **attributes: Any) -> _NullSpan:
        return _NULL_SPAN


NULL_TRACER = NullTracer()


def ensure_tracer(tracer) -> "Tracer":
    """Map ``None`` to the shared no-op tracer (the one branch per call site)."""
    return tracer if tracer is not None else NULL_TRACER


def phase_durations(root: Span) -> Dict[str, float]:
    """``MIOResult.phases`` as read off a query span's direct children.

    Multiple spans of one phase name (e.g. a phase that runs twice)
    accumulate, mirroring ``PhaseStats.add_time``.
    """
    phases: Dict[str, float] = {}
    for child in root.children:
        if child.name in PHASE_SPAN_NAMES:
            phases[child.name] = phases.get(child.name, 0.0) + child.duration
    return phases
