"""Circuit breaker around the fault-prone primary execution path.

The classic three-state machine, tuned for the query service's
degradation chain (:mod:`repro.service.app`):

* **closed** -- requests flow to the primary path (configured kernel /
  bitset backend).  Failures count; success resets the
  count.
* **open** -- after ``failure_threshold`` consecutive failures the
  breaker trips: requests bypass the primary path entirely (straight to
  the dependable fallback) instead of hammering a broken backend.  The
  open interval grows exponentially across consecutive trips and carries
  *jitter* so a fleet of instances does not half-open in lockstep
  against a shared dependency.
* **half-open** -- once the interval elapses, exactly one probe request
  is allowed through the primary path.  Success closes the breaker and
  resets the backoff; failure re-opens it with a doubled interval.

Clock and RNG are injectable so the whole state machine is testable with
:class:`~repro.resilience.ManualClock` and a seeded ``random.Random`` --
no sleeping, no flakes.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Dict, Optional

from repro.obs import metrics as obs_metrics

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Gauge encoding of the state machine (alert rules key off this).
_STATE_CODE = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class CircuitBreaker:
    """Consecutive-failure circuit breaker with jittered exponential reset."""

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_s: float = 2.0,
        max_reset_s: float = 30.0,
        jitter: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
        rng: Optional[random.Random] = None,
        name: str = "primary",
    ) -> None:
        self.failure_threshold = failure_threshold
        self.base_reset_s = reset_s
        self.max_reset_s = max_reset_s
        self.jitter = jitter
        self.name = name
        self._clock = clock
        self._rng = rng if rng is not None else random.Random()
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._current_reset_s = reset_s
        self._open_until = 0.0
        self._probe_outstanding = False
        self.transitions: Dict[str, int] = {CLOSED: 0, OPEN: 0, HALF_OPEN: 0}
        self._state_gauge = obs_metrics.gauge(
            "repro_service_breaker_state",
            "Circuit breaker state (0=closed, 1=half_open, 2=open)",
        )
        self._transition_counter = obs_metrics.counter(
            "repro_service_breaker_transitions_total",
            "Circuit breaker state transitions by target state",
        )
        self._publish()

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        """Current state, advancing OPEN -> HALF_OPEN if the interval passed."""
        with self._lock:
            self._advance_locked()
            return self._state

    def allow(self) -> bool:
        """Whether this request may try the primary path.

        In half-open state only a single outstanding probe is allowed;
        concurrent requests fall through to the fallback until the probe
        reports back.
        """
        with self._lock:
            self._advance_locked()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN and not self._probe_outstanding:
                self._probe_outstanding = True
                return True
            return False

    def on_success(self) -> None:
        """The primary path served a request without a backend failure."""
        with self._lock:
            self._probe_outstanding = False
            self._failures = 0
            if self._state != CLOSED:
                self._transition_locked(CLOSED)
                self._current_reset_s = self.base_reset_s

    def on_failure(self) -> None:
        """The primary path failed (backend fault / kernel error)."""
        with self._lock:
            self._probe_outstanding = False
            if self._state == HALF_OPEN:
                # The probe failed: re-open with a doubled (capped) interval.
                self._current_reset_s = min(
                    self._current_reset_s * 2.0, self.max_reset_s
                )
                self._trip_locked()
                return
            self._failures += 1
            if self._state == CLOSED and self._failures >= self.failure_threshold:
                self._trip_locked()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _advance_locked(self) -> None:
        if self._state == OPEN and self._clock() >= self._open_until:
            self._transition_locked(HALF_OPEN)
            self._probe_outstanding = False

    def _trip_locked(self) -> None:
        interval = self._current_reset_s * (1.0 + self._rng.random() * self.jitter)
        self._open_until = self._clock() + interval
        self._failures = 0
        self._transition_locked(OPEN)

    def _transition_locked(self, target: str) -> None:
        self._state = target
        self.transitions[target] += 1
        self._transition_counter.inc(breaker=self.name, to=target)
        self._publish()

    def _publish(self) -> None:
        self._state_gauge.set(_STATE_CODE[self._state], breaker=self.name)

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time breaker state for ``/readyz`` and stats."""
        with self._lock:
            self._advance_locked()
            return {
                "state": self._state,
                "failures": self._failures,
                "reset_s": self._current_reset_s,
                "transitions": dict(self.transitions),
            }
