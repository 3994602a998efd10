"""Query result and statistics containers.

Every algorithm in the repository (BIGrid engine, baselines, parallel
engine) reports its answer through :class:`MIOResult` so the benchmark
harness can compare them uniformly.  ``phases`` carries the per-operation
times that Table II of the paper breaks down (grid mapping, lower-bounding,
upper-bounding, verification, label I/O); ``counters`` carries pruning and
work statistics the experiments discuss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class PhaseStats:
    """Mutable accumulator used while a query runs."""

    phases: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)

    def add_time(self, phase: str, seconds: float) -> None:
        self.phases[phase] = self.phases.get(phase, 0.0) + seconds

    def add_count(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def set_count(self, counter: str, amount: int) -> None:
        self.counters[counter] = amount


@dataclass
class MIOResult:
    """The answer to an MIO query plus run statistics.

    ``winner``/``score`` always describe the single most interactive object
    (Definition 1; ties broken arbitrarily).  For top-k queries ``topk``
    additionally lists ``(oid, score)`` pairs in descending score order, and
    ``winner``/``score`` mirror its first entry.
    """

    algorithm: str
    r: float
    winner: int
    score: int
    topk: Optional[List[Tuple[int, int]]] = None
    phases: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    memory_bytes: int = 0
    #: Free-form floats (e.g. the schedule study's per-phase serial times
    #: and core loads) that don't belong in ``phases``/``counters``.
    extra: Dict[str, float] = field(default_factory=dict)
    #: False for an *anytime* answer returned under an expired deadline:
    #: ``score`` is then a verified lower bound on the true optimum (the
    #: best-first loop's intermediate state is correct by Corollary 1) and
    #: ``counters["candidates_settled"]`` says how far verification got.
    exact: bool = True
    #: Degradation notes, e.g. ``notes["degraded_backend"] = "roaring->ewah"``
    #: when the requested bitset backend was unavailable and a fallback ran.
    notes: Dict[str, str] = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        """Sum of all phase times (the run time the figures plot)."""
        return sum(self.phases.values())

    def phase_time(self, phase: str) -> float:
        """Time of one phase, 0.0 if the phase did not run."""
        return self.phases.get(phase, 0.0)

    def __repr__(self) -> str:
        marker = "" if self.exact else ", exact=False"
        return (
            f"MIOResult(algorithm={self.algorithm!r}, r={self.r}, "
            f"winner={self.winner}, score={self.score}, "
            f"time={self.total_time:.4f}s{marker})"
        )
