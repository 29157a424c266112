"""The pluggable exploration engine.

The exploration machinery of the checker, carved into replaceable parts:

* :mod:`repro.engine.frontier` - expansion order (DFS stack, BFS deque,
  best-first priority heap);
* :mod:`repro.engine.strategy` - the name -> frontier registry behind
  ``EngineOptions(strategy=...)``;
* :mod:`repro.engine.visited` - the VisitedStore protocol: exact
  canonical keys, BITSTATE bitfields, one-word fingerprints, or
  collapse-compressed component interning (exact dedup at a few machine
  words per state);
* :mod:`repro.engine.core` - the bounded search itself;
* :mod:`repro.engine.batch` - :func:`verify_many`, fanning independent
  verification jobs across a process pool;
* :mod:`repro.engine.swarm` - :func:`explore_swarm`, the
  beyond-exhaustive tier: N diversified sampled member searches sharing
  one deduplicated, oracle-replayed violation sink
  (``EngineOptions(mode="swarm")`` / ``repro check --mode swarm``).

``repro.checker.explorer`` remains as a thin compatibility shim over this
package.
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
    SWARM,
    EngineOptions,
    visited_store_names,
)
from repro.engine.result import BatchResult, ExplorationResult
from repro.engine.strategy import (
    make_frontier,
    register_strategy,
    strategy_names,
)
from repro.engine.swarm import SwarmResult, explore_swarm
from repro.engine.visited import (
    BitStateTable,
    BitStateVisitedSet,
    CollapseVisitedSet,
    ExactVisitedSet,
    FingerprintVisitedSet,
    SpillVisitedStore,
)

__all__ = [
    "BatchResult",
    "BitStateTable",
    "BitStateVisitedSet",
    "BreadthFirstFrontier",
    "CONCURRENT",
    "CollapseVisitedSet",
    "DepthFirstFrontier",
    "EngineOptions",
    "ExactVisitedSet",
    "ExplorationEngine",
    "ExplorationResult",
    "FingerprintVisitedSet",
    "Frontier",
    "PriorityFrontier",
    "SEQUENTIAL",
    "SWARM",
    "SpillVisitedStore",
    "SwarmResult",
    "VerificationJob",
    "default_workers",
    "explore_swarm",
    "make_frontier",
    "register_strategy",
    "strategy_names",
    "verify",
    "verify_many",
    "visited_store_names",
]
