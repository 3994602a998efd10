"""Deterministic, seeded fault injection for robustness testing.

Production code calls :func:`trip` at *named injection points* (one per
pipeline phase, one per backend probe, one per dataset read).  With no
injector installed — the default — a trip is a no-op costing one global
read, so the harness is safe to leave compiled into the hot paths.

Tests (and the ``REPRO_FAULTS`` environment variable, honored by the CLI
and the CI chaos job) install a :class:`FaultInjector` holding
:class:`FaultSpec` entries.  A spec either raises
:class:`~repro.errors.InjectedFault` or sleeps (latency injection), fires
with a configurable probability from a seeded RNG, and can be limited to a
number of triggers or to one ``detail`` value (e.g. a single backend name).
Everything is deterministic under a fixed seed.

``REPRO_FAULTS`` grammar (``;``-separated)::

    seed=42;verification:fail;upper_bounding:latency:0.5:10

i.e. ``point:kind[:rate[:latency_ms[:match]]]``.  A value containing only
``seeds=...`` (as the CI chaos job sets) configures no specs here; the test
suite reads those seeds itself via :func:`env_seeds`.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.errors import InjectedFault, InvalidQueryError

#: The named injection points production code trips, in pipeline order.
INJECTION_POINTS = (
    "grid_mapping",
    "lower_bounding",
    "upper_bounding",
    "verification",
    "backend",
    "io",
)

FAULT_KINDS = ("fail", "latency")


@dataclass
class FaultSpec:
    """One armed fault: where it fires, what it does, and how often."""

    point: str
    kind: str = "fail"
    #: Probability of firing each time the point is tripped.
    rate: float = 1.0
    #: Sleep duration in seconds for ``kind="latency"``.
    latency: float = 0.0
    #: Stop firing after this many triggers (None = unlimited).
    max_triggers: Optional[int] = None
    #: When set, fire only if the trip's ``detail`` equals this value.
    match: Optional[object] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise InvalidQueryError(f"fault kind must be one of {FAULT_KINDS}")
        if not 0.0 <= self.rate <= 1.0:
            raise InvalidQueryError("fault rate must lie in [0, 1]")


class FaultInjector:
    """Evaluates armed :class:`FaultSpec` entries at every tripped point."""

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0) -> None:
        self.specs: List[FaultSpec] = list(specs)
        self.seed = seed
        self.rng = random.Random(seed)
        #: How often each point actually fired (for assertions in tests).
        self.fired: Dict[str, int] = {}
        self._triggered = [0] * len(self.specs)

    def trip(self, point: str, detail: Optional[object] = None) -> None:
        """Evaluate all specs armed for ``point``; may raise or sleep."""
        for index, spec in enumerate(self.specs):
            if spec.point != point:
                continue
            if spec.match is not None and detail != spec.match:
                continue
            if spec.max_triggers is not None and self._triggered[index] >= spec.max_triggers:
                continue
            if spec.rate < 1.0 and self.rng.random() >= spec.rate:
                continue
            self._triggered[index] += 1
            self.fired[point] = self.fired.get(point, 0) + 1
            from repro.obs import metrics as obs_metrics

            obs_metrics.counter(
                "repro_faults_injected_total", "Injected faults that actually fired"
            ).inc(point=point, kind=spec.kind)
            if spec.kind == "latency":
                time.sleep(spec.latency)
            else:
                suffix = f" (detail={detail!r})" if detail is not None else ""
                raise InjectedFault(f"injected fault at {point}{suffix}", point=point)


#: The process-global injector consulted by :func:`trip` (None = disabled).
_ACTIVE: Optional[FaultInjector] = None


def active() -> Optional[FaultInjector]:
    """The currently installed injector, if any."""
    return _ACTIVE


def install(injector: Optional[FaultInjector]) -> None:
    """Install (or, with None, remove) the process-global injector."""
    global _ACTIVE
    _ACTIVE = injector


@contextmanager
def injected(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Scoped installation: the pattern every test uses."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = previous


def trip(point: str, detail: Optional[object] = None) -> None:
    """Production-side hook: a no-op unless an injector is installed."""
    if _ACTIVE is not None:
        _ACTIVE.trip(point, detail)


# ----------------------------------------------------------------------
# REPRO_FAULTS environment parsing
# ----------------------------------------------------------------------


def from_env(value: Optional[str]) -> Optional[FaultInjector]:
    """Build an injector from a ``REPRO_FAULTS`` string (None if no specs)."""
    if not value:
        return None
    seed = 0
    specs: List[FaultSpec] = []
    for chunk in value.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if chunk.startswith("seed="):
            seed = int(chunk[len("seed="):])
            continue
        if chunk.startswith("seeds="):
            continue  # chaos-test seed list; consumed by env_seeds()
        parts = chunk.split(":")
        point = parts[0]
        kind = parts[1] if len(parts) > 1 else "fail"
        rate = float(parts[2]) if len(parts) > 2 else 1.0
        latency = float(parts[3]) / 1000.0 if len(parts) > 3 else 0.0
        match: Optional[object] = None
        if len(parts) > 4:
            match = int(parts[4]) if parts[4].lstrip("-").isdigit() else parts[4]
        specs.append(FaultSpec(point, kind=kind, rate=rate, latency=latency, match=match))
    if not specs:
        return None
    return FaultInjector(specs, seed=seed)


def env_seeds(value: Optional[str]) -> List[int]:
    """Chaos-test seeds from ``REPRO_FAULTS`` (``seeds=a:b`` range or ``seeds=1,2``)."""
    if not value:
        return []
    for chunk in value.split(";"):
        chunk = chunk.strip()
        if not chunk.startswith("seeds="):
            continue
        body = chunk[len("seeds="):]
        if ":" in body:
            low, high = body.split(":")
            return list(range(int(low), int(high)))
        return [int(part) for part in body.split(",") if part]
    return []
