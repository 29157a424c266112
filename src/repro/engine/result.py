"""Outcome records: per-run results and merged batch statistics.

Both record types round-trip through JSON with a stable, versioned
schema (``to_json``/``from_json``), counterexample traces included, so
the vetting service's :class:`~repro.service.store.ResultStore` and the
``repro batch --json`` output are consumable by machines and replay
byte-identically.
"""

import json

#: bump when the serialized result layout changes; deserialization
#: refuses newer schemas instead of misreading them (v2: the per-run
#: layout lost the sharded engine's worker count, per-shard statistics
#: and crash record; v1 payloads still load, those keys ignored)
RESULT_SCHEMA_VERSION = 2


def _check_schema(data, kind):
    version = data.get("schema", RESULT_SCHEMA_VERSION)
    if version > RESULT_SCHEMA_VERSION:
        raise ValueError(
            "%s payload has schema version %d; this build reads <= %d"
            % (kind, version, RESULT_SCHEMA_VERSION))


class ExplorationResult:
    """Outcome of one run: violations + statistics."""

    #: always zero (the engine memoizes no expansions); kept only
    #: because perfbench/tracer.py still reads them
    cache_hits = 0
    cache_misses = 0

    def __init__(self):
        #: dedup key -> Counterexample (first found per distinct violation)
        self.counterexamples = {}
        self.states_explored = 0
        self.transitions = 0
        self.elapsed = 0.0
        self.truncated = False
        self.truncated_reason = None
        #: store statistics snapshot ({} until the run finishes)
        self.visited_stats = {}
        #: per-phase wall time breakdown ({} until populated): keys are
        #: phase names (``codegen``, ``explore``, ``canonicalize``, ...)
        self.profile = {}
        #: external events skipped by the sleep-set reduction
        self.commutes_pruned = 0
        #: compiled-property statistics (invariant verdict memo)
        self.property_stats = {}

    @property
    def violations(self):
        return [ce.violation for ce in self.counterexamples.values()]

    @property
    def violated_property_ids(self):
        return sorted({v.property.id for v in self.violations})

    def counterexample_for(self, property_id):
        """The first counterexample recorded for a property id."""
        for ce in self.counterexamples.values():
            if ce.violation.property.id == property_id:
                return ce
        return None

    @property
    def has_violations(self):
        return bool(self.counterexamples)

    @property
    def states_per_second(self):
        if self.elapsed <= 0:
            return 0.0
        return self.states_explored / self.elapsed

    # -- serialization -------------------------------------------------------

    @property
    def verdict(self):
        """``"violated"`` or ``"safe"`` - the service-facing outcome."""
        return "violated" if self.counterexamples else "safe"

    @property
    def coverage(self):
        """``"exhaustive"`` or ``"partial"`` - how much a ``safe`` verdict
        is worth.

        Derived, never stored: a truncated run (a limit tripped) covered
        only part of the bounded space; a supertrace store (``bitstate``
        or ``bitstate-k``, the only stores reporting a ``fill_ratio``)
        silently drops every state whose bits collide; and a swarm run
        (:class:`~repro.engine.swarm.SwarmResult` overrides this to a
        constant ``"partial"``) is sampled by construction.  Serialized
        for consumers, recomputed on deserialization - a result cannot
        claim more coverage than its own flags and store statistics
        support.
        """
        if self.truncated or "fill_ratio" in self.visited_stats:
            return "partial"
        return "exhaustive"

    def to_dict(self):
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "verdict": self.verdict,
            "coverage": self.coverage,
            "counterexamples": [ce.to_dict()
                                for ce in self.counterexamples.values()],
            "states_explored": self.states_explored,
            "transitions": self.transitions,
            "elapsed": self.elapsed,
            "truncated": self.truncated,
            "truncated_reason": self.truncated_reason,
            "visited_stats": dict(self.visited_stats),
            "profile": dict(self.profile),
            "commutes_pruned": self.commutes_pruned,
            "property_stats": dict(self.property_stats),
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild a result from its serialized form (missing optional
        fields default; newer schema versions are refused)."""
        from repro.checker.violations import Counterexample

        _check_schema(data, "ExplorationResult")
        if cls is ExplorationResult and data.get("swarm"):
            # polymorphic rebuild: a swarm payload comes back as the
            # SwarmResult it was (coverage stays "partial", the swarm
            # block survives the round-trip).  Imported lazily -
            # repro.engine.swarm imports this module
            from repro.engine.swarm import SwarmResult
            return SwarmResult.from_dict(data)
        result = cls()
        for ce_data in data.get("counterexamples", ()):
            counterexample = Counterexample.from_dict(ce_data)
            result.counterexamples[
                counterexample.violation.dedup_key()] = counterexample
        result.states_explored = data.get("states_explored", 0)
        result.transitions = data.get("transitions", 0)
        result.elapsed = data.get("elapsed", 0.0)
        result.truncated = data.get("truncated", False)
        result.truncated_reason = data.get("truncated_reason")
        result.visited_stats = dict(data.get("visited_stats", {}))
        result.profile = dict(data.get("profile", {}))
        result.commutes_pruned = data.get("commutes_pruned", 0)
        result.property_stats = dict(data.get("property_stats", {}))
        return result

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def summary(self):
        """Human-readable digest: verdict counts, engine stats, one
        line per violation."""
        lines = ["%d distinct violation(s) of %d property(ies); "
                 "%d states, %d transitions, %.2fs%s" % (
                     len(self.counterexamples),
                     len(self.violated_property_ids),
                     self.states_explored, self.transitions, self.elapsed,
                     " (truncated: %s)" % self.truncated_reason
                     if self.truncated else "")]
        if self.commutes_pruned:
            lines.append("  engine: %d commuting interleavings pruned"
                         % self.commutes_pruned)
        if self.profile:
            lines.append("  phases: " + ", ".join(
                "%s %.2fs" % (name, seconds)
                for name, seconds in sorted(self.profile.items())))
        if self.visited_stats.get("bytes_per_state"):
            lines.append(
                "  visited store: %d states stored, ~%.0f bytes/state" % (
                    self.visited_stats.get("stored", 0),
                    self.visited_stats["bytes_per_state"]))
        for ce in self.counterexamples.values():
            lines.append("  %s: %s" % (ce.violation.property.id,
                                       ce.violation.message))
        return "\n".join(lines)

    def __repr__(self):
        return "ExplorationResult(violations=%d, states=%d)" % (
            len(self.counterexamples), self.states_explored)


class BatchResult:
    """Merged outcome of a :func:`~repro.engine.batch.verify_many` run."""

    def __init__(self):
        #: job name -> ExplorationResult, in submission order
        self.results = {}
        #: job name -> error string for jobs that raised
        self.errors = {}
        #: wall-clock of the whole batch (not the sum of the jobs)
        self.elapsed = 0.0
        self.workers = 1

    def add(self, name, result):
        self.results[name] = result

    def add_error(self, name, message):
        self.errors[name] = message

    def __getitem__(self, name):
        return self.results[name]

    def __iter__(self):
        return iter(self.results.values())

    def __len__(self):
        return len(self.results)

    # -- merged statistics ---------------------------------------------------

    @property
    def states_explored(self):
        return sum(r.states_explored for r in self.results.values())

    @property
    def transitions(self):
        return sum(r.transitions for r in self.results.values())

    @property
    def job_seconds(self):
        """Sum of per-job times (the serial-equivalent cost)."""
        return sum(r.elapsed for r in self.results.values())

    @property
    def violations(self):
        """Every job's violations, concatenated in submission order."""
        merged = []
        for result in self.results.values():
            merged.extend(result.violations)
        return merged

    @property
    def violated_property_ids(self):
        """Sorted union of violated property ids across all jobs."""
        ids = set()
        for result in self.results.values():
            ids.update(result.violated_property_ids)
        return sorted(ids)

    @property
    def has_violations(self):
        return any(r.has_violations for r in self.results.values())

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "verdict": "violated" if self.has_violations else (
                "error" if self.errors else "safe"),
            "workers": self.workers,
            "elapsed": self.elapsed,
            "job_seconds": self.job_seconds,
            "states_explored": self.states_explored,
            "transitions": self.transitions,
            "violated_property_ids": self.violated_property_ids,
            "results": {name: result.to_dict()
                        for name, result in self.results.items()},
            "errors": dict(self.errors),
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild a merged batch (and every per-job result) from JSON."""
        _check_schema(data, "BatchResult")
        batch = cls()
        for name, result_data in data.get("results", {}).items():
            batch.add(name, ExplorationResult.from_dict(result_data))
        for name, message in data.get("errors", {}).items():
            batch.add_error(name, message)
        batch.elapsed = data.get("elapsed", 0.0)
        batch.workers = data.get("workers", 1)
        return batch

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def summary(self):
        """Human-readable digest: batch totals plus one line per job."""
        lines = ["%d job(s) on %d worker(s): %d violation(s) of %d "
                 "property(ies); %d states, %d transitions; %.2fs wall "
                 "(%.2fs of job time)" % (
                     len(self.results), self.workers, len(self.violations),
                     len(self.violated_property_ids), self.states_explored,
                     self.transitions, self.elapsed, self.job_seconds)]
        if self.elapsed > 0:
            # distinct states per wall-clock second across the whole
            # batch: the figure scaling experiments quote, so the CLI
            # digest should surface it rather than leave it to awk
            lines.append("aggregate throughput: %d states/s over %d job(s)"
                         % (int(self.states_explored / self.elapsed),
                            len(self.results)))
        for name, result in self.results.items():
            lines.append("  %-28s %d violation(s), %d states, %.2fs"
                         % (name, len(result.counterexamples),
                            result.states_explored, result.elapsed))
        for name, message in self.errors.items():
            lines.append("  %-28s ERROR: %s" % (name, message))
        return "\n".join(lines)

    def __repr__(self):
        return "BatchResult(jobs=%d, violations=%d)" % (
            len(self.results), len(self.violations))
