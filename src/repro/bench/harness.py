"""Uniform algorithm runner for the benchmark suite.

``run_algorithm(name, collection, r)`` executes one of the paper's four
evaluated algorithms (NL, SG, BIGrid, BIGrid-label) -- plus the extras this
repository implements (kd-tree NL, the theoretical algorithm) -- and
returns a :class:`BenchRecord` with the query processing time (the sum of
the algorithm's phase times, excluding memory-accounting bookkeeping), the
answer, the index memory, and the phase breakdown: everything Figs. 5-7
and Table II report.
"""

from __future__ import annotations

import os

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.baselines import (
    KDTreeNestedLoop,
    NestedLoopAlgorithm,
    RTreeNestedLoop,
    SimpleGridAlgorithm,
    TheoreticalAlgorithm,
)
from repro.core.engine import MIOEngine
from repro.core.labels import LabelStore
from repro.core.objects import ObjectCollection
from repro.core.query import MIOResult
from repro.obs.trace import ensure_tracer
from repro.session import QuerySession

ALGORITHMS = (
    "nl", "nl-kdtree", "nl-rtree", "sg", "bigrid", "bigrid-label",
    "bigrid-session", "theoretical",
)


def bench_provenance(
    *, cores: int = 1, parallel_mode: str = "serial", shards: int = 0
) -> Dict[str, object]:
    """Execution-environment stamp for a ``BENCH_*.json`` artifact.

    A recorded speedup is meaningless without knowing what ran it: a
    "2x parallel speedup" measured on a one-core container is noise, and
    a serial artifact replayed on a 64-core box should not be compared
    against parallel floors.  Every artifact writer embeds this block so
    ``repro report --check-bench`` can tell which floors legitimately
    apply to the recorded numbers.

    ``parallel_mode`` is ``"serial"`` for single-engine runs, else
    ``"sharded"``; ``shards`` is 0 whenever the run was not sharded.
    """
    return {
        "cpu_count": int(os.cpu_count() or 1),
        "cores": int(cores),
        "parallel_mode": str(parallel_mode),
        "shards": int(shards),
    }


@dataclass
class BenchRecord:
    """One algorithm run: what the paper's plots consume."""

    algorithm: str
    dataset: str
    r: float
    seconds: float
    winner: int
    score: int
    memory_bytes: int
    phases: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def memory_kib(self) -> float:
        return self.memory_bytes / 1024.0

    def to_record(self) -> Dict[str, object]:
        """A JSON-friendly dict for ``BENCH_*.json`` files.

        Carries the per-phase breakdown alongside the total, so stored
        trajectory points can answer *where* a regression happened, not
        just that one did.
        """
        return {
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "r": self.r,
            "seconds": round(self.seconds, 6),
            "winner": self.winner,
            "score": self.score,
            "memory_bytes": self.memory_bytes,
            "phases": {name: round(seconds, 6) for name, seconds in self.phases.items()},
            "counters": dict(self.counters),
        }


def run_algorithm(
    name: str,
    collection: ObjectCollection,
    r: float,
    dataset: str = "",
    k: int = 1,
    label_store: Optional[LabelStore] = None,
    backend: str = "ewah",
    session: Optional[QuerySession] = None,
    tracer=None,
    kernel: str = "python",
) -> BenchRecord:
    """Run one algorithm once and record everything the figures need.

    ``kernel`` selects the compute backend of the BIGrid algorithms
    (``"python"``, ``"numpy"``, or ``"auto"``; see :mod:`repro.kernels`),
    so every figure benchmark can report both backends.  Baselines ignore
    it.

    ``bigrid-label`` needs a ``label_store`` that already holds labels for
    ``ceil(r)`` (run ``bigrid`` with the same store first); this mirrors the
    paper's setup where BIGrid-label consumes the labels a previous query
    with the same ceiling produced.

    ``bigrid-session`` is the session-reuse mode: pass one
    :class:`~repro.session.QuerySession` over ``collection`` and reuse it
    across calls -- labels, large-grid keys, and exact-``r`` lower-bound
    state stay warm between runs, which is what the batch-reuse benchmark
    measures.

    With a ``tracer``, the run is wrapped in an ``algorithm`` span and the
    result's phase breakdown is attached as child spans — baselines have
    no internal instrumentation, so their trace is reconstructed from the
    phases they report.
    """
    tracer = ensure_tracer(tracer)
    with tracer.span("algorithm", algorithm=name, dataset=dataset, r=r) as span:
        result = _dispatch(name, collection, r, k, label_store, backend, session, kernel)
        if tracer.enabled:
            for phase, seconds in result.phases.items():
                tracer.record(phase, seconds)
            span.set_duration(result.total_time)
            span.set_attributes(winner=result.winner, score=result.score)
    return BenchRecord(
        algorithm=name,
        dataset=dataset,
        r=r,
        seconds=result.total_time,
        winner=result.winner,
        score=result.score,
        memory_bytes=result.memory_bytes,
        phases=dict(result.phases),
        counters=dict(result.counters),
    )


def _dispatch(
    name: str,
    collection: ObjectCollection,
    r: float,
    k: int,
    label_store: Optional[LabelStore],
    backend: str,
    session: Optional[QuerySession] = None,
    kernel: str = "python",
) -> MIOResult:
    if name == "bigrid-session":
        if session is None:
            raise ValueError(
                "bigrid-session requires a QuerySession (reuse it across calls)"
            )
        if session.collection is not collection:
            raise ValueError("the session must wrap the same collection being benched")
        return session.query(r) if k == 1 else session.topk(r, k)
    if name == "nl":
        algorithm = NestedLoopAlgorithm(collection)
        return algorithm.query(r) if k == 1 else algorithm.query_topk(r, k)
    if name == "nl-kdtree":
        return KDTreeNestedLoop(collection).query(r)
    if name == "nl-rtree":
        return RTreeNestedLoop(collection).query(r)
    if name == "sg":
        return SimpleGridAlgorithm(collection).query(r)
    if name == "bigrid":
        engine = MIOEngine(
            collection, backend=backend, label_store=label_store, kernel=kernel
        )
        return engine.query(r) if k == 1 else engine.query_topk(r, k)
    if name == "bigrid-label":
        if label_store is None:
            raise ValueError("bigrid-label requires a label_store with labels present")
        engine = MIOEngine(
            collection, backend=backend, label_store=label_store, kernel=kernel
        )
        result = engine.query(r) if k == 1 else engine.query_topk(r, k)
        if result.algorithm != "bigrid-label":
            raise RuntimeError(
                "no labels were available: run the plain bigrid query with the "
                "same store (and the same ceil(r)) first"
            )
        return result
    if name == "theoretical":
        algorithm = TheoreticalAlgorithm(collection)
        algorithm.preprocess()
        return algorithm.query(r)
    raise ValueError(f"unknown algorithm {name!r} (choose from: {', '.join(ALGORITHMS)})")
