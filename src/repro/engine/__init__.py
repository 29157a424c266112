"""The pluggable exploration engine.

The exploration machinery of the checker, carved into replaceable parts:

* :mod:`repro.engine.visited` - the VisitedStore protocol and its three
  stores: exact canonical keys (the oracle), one-word fingerprints (the
  default) and a depth-tagged k-hash BITSTATE bit field;
* :mod:`repro.engine.core` - the bounded search itself, a depth-first
  search over a plain stack;
* :mod:`repro.engine.batch` - :func:`verify_many`, fanning independent
  verification jobs across a process pool.
"""

from repro.engine.batch import VerificationJob, default_workers, verify_many
from repro.engine.core import ExplorationEngine, verify
from repro.engine.options import (
    CONCURRENT,
    SEQUENTIAL,
    EngineOptions,
    visited_store_names,
)
from repro.engine.result import BatchResult, ExplorationResult
from repro.engine.visited import (
    BitStateVisitedSet,
    ExactVisitedSet,
    FingerprintVisitedSet,
)

__all__ = [
    "BatchResult",
    "BitStateVisitedSet",
    "CONCURRENT",
    "EngineOptions",
    "ExactVisitedSet",
    "ExplorationEngine",
    "ExplorationResult",
    "FingerprintVisitedSet",
    "SEQUENTIAL",
    "VerificationJob",
    "default_workers",
    "verify",
    "verify_many",
    "visited_store_names",
]
