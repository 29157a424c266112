"""The pluggable exploration engine.

The exploration machinery of the checker, carved into replaceable parts:

* :mod:`repro.engine.frontier` - expansion order (DFS stack, BFS deque,
  best-first priority heap);
* :mod:`repro.engine.strategy` - the name -> frontier registry behind
  ``EngineOptions(strategy=...)``;
* :mod:`repro.engine.visited` - the VisitedStore protocol and its three
  stores: exact canonical keys (the oracle), one-word fingerprints (the
  default) and a k-hash BITSTATE bit field;
* :mod:`repro.engine.core` - the bounded search itself;
* :mod:`repro.engine.batch` - :func:`verify_many`, fanning independent
  verification jobs across a process pool.
"""

from repro.engine.batch import VerificationJob, default_workers, verify_many
from repro.engine.core import ExplorationEngine, verify
from repro.engine.frontier import (
    BreadthFirstFrontier,
    DepthFirstFrontier,
    Frontier,
    PriorityFrontier,
)
from repro.engine.options import (
    CONCURRENT,
    SEQUENTIAL,
    EngineOptions,
    visited_store_names,
)
from repro.engine.result import BatchResult, ExplorationResult
from repro.engine.strategy import (
    make_frontier,
    register_strategy,
    strategy_names,
)
from repro.engine.visited import (
    BitStateVisitedSet,
    ExactVisitedSet,
    FingerprintVisitedSet,
)

__all__ = [
    "BatchResult",
    "BitStateVisitedSet",
    "BreadthFirstFrontier",
    "CONCURRENT",
    "DepthFirstFrontier",
    "EngineOptions",
    "ExactVisitedSet",
    "ExplorationEngine",
    "ExplorationResult",
    "FingerprintVisitedSet",
    "Frontier",
    "PriorityFrontier",
    "SEQUENTIAL",
    "VerificationJob",
    "default_workers",
    "make_frontier",
    "register_strategy",
    "strategy_names",
    "verify",
    "verify_many",
    "visited_store_names",
]
