"""repro: MIO queries over spatial object databases with the BIGrid index.

A faithful, from-scratch reproduction of

    Daichi Amagata and Takahiro Hara,
    "Identifying the Most Interactive Object in Spatial Databases",
    ICDE 2019.

Quick start::

    from repro import MIOEngine, make_trajectories

    collection = make_trajectories(n=200, points_per_trajectory=30, seed=1)
    engine = MIOEngine(collection)
    result = engine.query(r=4.0)
    print(result.winner, result.score)

See README.md for the architecture overview and DESIGN.md for the mapping
from paper sections to modules.
"""

from repro import faults
from repro.analysis import all_scores, interacting_partners, interaction_graph
from repro.baselines import (
    KDTreeNestedLoop,
    NestedLoopAlgorithm,
    RTreeNestedLoop,
    SimpleGridAlgorithm,
    TheoreticalAlgorithm,
)
from repro.bitset import EWAHBitset, PlainBitset, bitset_class, resolve_backend
from repro.core import (
    LabelStore,
    MIOEngine,
    MIOResult,
    ObjectCollection,
    PointLabels,
    SpatialObject,
    TemporalMIOEngine,
)
from repro.dynamic import DynamicMIO
from repro.errors import (
    BackendUnavailableError,
    CorruptDataError,
    InjectedFault,
    InvalidQueryError,
    QueryTimeout,
    ReproError,
)
from repro.progressive import ProgressiveState, query_progressive
from repro.session import QueryRequest, QuerySession
from repro.datasets import (
    load_dataset,
    make_neurons,
    make_powerlaw,
    make_trajectories,
    sample_collection,
)
from repro.grid import BIGrid
from repro.parallel import ParallelMIOEngine
from repro.resilience import Deadline, ManualClock

__version__ = "1.0.0"

__all__ = [
    "BIGrid",
    "BackendUnavailableError",
    "CorruptDataError",
    "Deadline",
    "DynamicMIO",
    "InjectedFault",
    "InvalidQueryError",
    "ManualClock",
    "QueryTimeout",
    "ReproError",
    "ProgressiveState",
    "all_scores",
    "interacting_partners",
    "interaction_graph",
    "EWAHBitset",
    "KDTreeNestedLoop",
    "LabelStore",
    "MIOEngine",
    "MIOResult",
    "NestedLoopAlgorithm",
    "ObjectCollection",
    "ParallelMIOEngine",
    "PlainBitset",
    "PointLabels",
    "QueryRequest",
    "QuerySession",
    "RTreeNestedLoop",
    "SimpleGridAlgorithm",
    "SpatialObject",
    "TemporalMIOEngine",
    "TheoreticalAlgorithm",
    "bitset_class",
    "faults",
    "load_dataset",
    "make_neurons",
    "make_powerlaw",
    "make_trajectories",
    "query_progressive",
    "resolve_backend",
    "sample_collection",
    "__version__",
]
