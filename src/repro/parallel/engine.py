"""The name the multi-core engine used to have, now the serial engine.

The paper's Section IV parallelism -- the partitioning schemes and their
makespans in Figs. 8/9 and Table III -- is reproduced by the schedule
study in :mod:`repro.bench.schedule`.  A real pool of verifier processes
used to sit behind :class:`ParallelMIOEngine`; it won neither median nor
tail latency over the serial engine on the same queries, so it was
deleted.  The class stays only because the end-to-end benchmark
constructs it; ROADMAP item 1 removes it, and its ``cores``/``mode``
keywords, at the next benchmark change.
"""

from __future__ import annotations

from repro.core.engine import MIOEngine
from repro.core.objects import ObjectCollection
from repro.errors import InvalidQueryError


class ParallelMIOEngine(MIOEngine):
    """:class:`~repro.core.engine.MIOEngine` under its former multi-core name.

    ``cores`` must be at least 1 and ``mode`` must be ``"sharded"``; both
    are then ignored and every query runs the serial pipeline, so answers,
    ties, top-k, anytime prefixes and counters are the serial engine's.
    Unlike the serial engine it keeps no grid alive between queries
    (``last_bigrid`` is reset after each one), so a caller holding many
    warm engines holds no grids.  ``close()`` does nothing.
    """

    def __init__(
        self,
        collection: ObjectCollection,
        cores: int,
        mode: str = "sharded",
        **engine_options,
    ) -> None:
        if mode != "sharded":
            raise InvalidQueryError(
                f'mode must be "sharded" (got {mode!r}); the simulated schedule '
                "study is repro.bench.schedule.simulate_query"
            )
        if cores < 1:
            raise InvalidQueryError("cores must be at least 1")
        super().__init__(collection, **engine_options)

    def _run(self, *args, **kwargs):
        try:
            return super()._run(*args, **kwargs)
        finally:
            self.last_bigrid = None

    def close(self) -> None:
        """Nothing to release (kept for callers of the former pool)."""
