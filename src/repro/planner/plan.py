"""The plan: one query's resolved execution knobs.

A :class:`Plan` is the planner's entire output — five knobs, each of
which is already covered by a bit-exact conformance contract elsewhere
in the codebase, so *any* plan produces the same answer and only the
speed varies:

==============  =====================================================
knob            bit-exactness guarantee
==============  =====================================================
``kernel``      kernel conformance suite (``tests/test_kernel_
                conformance.py``): every backend reproduces the
                reference keys, bounds, candidates, scores, counters
``mode``        shard conformance suite: the sharded merge replays the
                serial best-first loop (``tests/test_shard_
                conformance.py``)
``shards``      the shard router's exact Lemma-2 halos make the answer
                independent of the shard count
``lb_dispatch`` both lower-bounding paths are pinned bit-identical in
                ``tests/test_lower_bound.py``
``grid_keys``   the :class:`~repro.grid.cache.LargeKeyCache` stores
                exactly the keys grid mapping would recompute
==============  =====================================================

Plans serialize to/from the compact ``describe()`` note string that
rides in ``MIOResult.notes["plan"]`` and the telemetry profile stream,
which is how the adaptive planner recognizes its own decisions when it
re-ingests profiles offline (:meth:`~repro.planner.adaptive.
AdaptivePlanner.ingest_profiles`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import InvalidQueryError

#: Kernel backends a plan may name (mirrors ``repro.kernels.KERNEL_NAMES``
#: minus ``"auto"`` — a plan is always fully resolved).
PLAN_KERNELS = ("python", "numpy")

#: Execution modes a plan may name.  ``"serial"`` is the single-process
#: reference pipeline; ``"sharded"`` fans out over worker processes.
PLAN_MODES = ("serial", "sharded")

#: LOWER-BOUNDING dispatch: ``"auto"`` keeps the measured row-count
#: switch (``LOWER_BOUND_DISPATCH_MIN_ROWS``), the other two force a
#: side.  Only meaningful on the numpy kernel; the reference kernel has
#: a single path and ignores it.
LB_DISPATCH_CHOICES = ("auto", "seq", "vectorized")

#: Grid-key resolution policy: ``"auto"``/``"cached"`` let GRID-MAPPING
#: read large-cell keys from the session's ceil(r)-keyed
#: :class:`~repro.grid.cache.LargeKeyCache` when one is attached;
#: ``"fresh"`` recomputes them (the vectorized floor can beat the
#: per-object cache walk on large collections under the numpy kernel).
GRID_KEYS_CHOICES = ("auto", "cached", "fresh")


@dataclass(frozen=True)
class Plan:
    """One query's resolved execution knobs (validated, immutable)."""

    kernel: str = "python"
    mode: str = "serial"
    shards: int = 1
    lb_dispatch: str = "auto"
    grid_keys: str = "auto"

    def __post_init__(self) -> None:
        if self.kernel not in PLAN_KERNELS:
            raise InvalidQueryError(f"plan kernel must be one of {PLAN_KERNELS}")
        if self.mode not in PLAN_MODES:
            raise InvalidQueryError(f"plan mode must be one of {PLAN_MODES}")
        if self.shards < 1:
            raise InvalidQueryError("plan shards must be at least 1")
        if self.mode == "serial" and self.shards != 1:
            raise InvalidQueryError("a serial plan carries exactly one shard")
        if self.lb_dispatch not in LB_DISPATCH_CHOICES:
            raise InvalidQueryError(
                f"plan lb_dispatch must be one of {LB_DISPATCH_CHOICES}"
            )
        if self.grid_keys not in GRID_KEYS_CHOICES:
            raise InvalidQueryError(
                f"plan grid_keys must be one of {GRID_KEYS_CHOICES}"
            )

    def describe(self) -> str:
        """The compact note string (``MIOResult.notes["plan"]``)."""
        return (
            f"kernel={self.kernel} mode={self.mode} shards={self.shards} "
            f"lb={self.lb_dispatch} grid={self.grid_keys}"
        )

    def with_kernel(self, kernel: str) -> "Plan":
        return replace(self, kernel=kernel)


#: Field-name mapping between ``describe()`` tokens and Plan fields.
_DESCRIBE_FIELDS = {
    "kernel": "kernel",
    "mode": "mode",
    "shards": "shards",
    "lb": "lb_dispatch",
    "grid": "grid_keys",
}


def parse_plan(note: str) -> Optional[Plan]:
    """Inverse of :meth:`Plan.describe` (None for malformed notes).

    Used when re-ingesting telemetry profiles: a profile whose
    ``notes["plan"]`` fails to parse is simply skipped, never fatal.
    """
    fields = {}
    try:
        for token in str(note).split():
            key, _, value = token.partition("=")
            field = _DESCRIBE_FIELDS.get(key)
            if field is None:
                return None
            fields[field] = int(value) if field == "shards" else value
        if set(fields) != set(_DESCRIBE_FIELDS.values()):
            return None
        return Plan(**fields)
    except (ValueError, InvalidQueryError):
        return None
