"""Swarm verification: N diversified sampled searches, one violation sink.

The beyond-exhaustive tier.  Exhaustive bounded search tops out when the
state space outgrows RAM and patience; Holzmann-style *swarm
verification* answers with many cheap, deliberately different member
searches - each a full run of the existing pluggable engine with a
shuffled successor order (seeded per member), optionally a salted
bitstate visited store and optional state/transition/time budgets - all
funneling violations into one deduplicated sink.

The soundness contract is asymmetric and explicit:

* **Violations are sound.**  Before a swarm result reports a violation,
  the driver replays its event-label path on a fresh *interpreted*
  oracle engine (the tree-interpreter tier, the same oracle the
  differential suites trust) and re-records it from the replayed
  transition; candidates that do not replay are dropped and counted in
  ``swarm["replay_failures"]``.  Reported traces then go through the
  standard canonicalization, so a swarm-found violation renders
  byte-identically to the exhaustive run's trace for the same violation.
* **"Safe" is only "not found".**  Members sample the space (random
  order + budgets + lossy bitstate pruning), so
  :attr:`SwarmResult.coverage` is the constant ``"partial"`` and the
  vetting service never caches a swarm ``safe`` as an exhaustive
  verdict (:mod:`repro.service.scheduler`).

Determinism: the whole swarm is a pure function of the system, the
options and ``options.seed`` - member ``m`` shuffles with
``random.Random("%(seed)d:%(m)d")`` (string seeding is hash-randomization
independent) and derives its bitstate salt from the same pair - so the
same submission always produces the same ``SwarmResult`` JSON (modulo
wall-clock fields), which is what makes swarm-found violations safely
cacheable.

The coverage estimate is Lincoln-Petersen capture-recapture over a
deterministic 1/64 fingerprint sample: members split into two capture
groups (even/odd), the overlap estimates the sampled population, and
``len(union)/estimate`` (capped at 1.0) approximates the fraction of
reachable sampled states the swarm touched.  ``None`` when there is no
overlap or only one member - an estimate that cannot be computed is not
reported as a number.
"""

import copy
import random
import time

from repro.engine.core import ExplorationEngine, path_order_key, replay_path
from repro.engine.options import SEQUENTIAL, SWARM
from repro.engine.result import ExplorationResult

#: admitted states whose fingerprint clears this mask (1/64) feed the
#: capture-recapture coverage estimate
COVERAGE_SAMPLE_MASK = 63


class SwarmResult(ExplorationResult):
    """An :class:`ExplorationResult` merged from N swarm members.

    Adds the ``swarm`` block (member count, seed, per-member stats,
    candidate/replay accounting, coverage estimate) and pins
    :attr:`coverage` to ``"partial"``: sampled search can prove
    violations, never safety.
    """

    def __init__(self):
        super().__init__()
        #: the swarm block: how the merged result came to be
        self.swarm = {
            "members": 0,
            "seed": 0,
            "candidates": 0,
            "replay_failures": 0,
            "distinct_violations": 0,
            "coverage_estimate": None,
            "member_stats": [],
        }

    @property
    def coverage(self):
        """Always ``"partial"``: members sample, they do not exhaust."""
        return "partial"

    def to_dict(self):
        """Serialized form: the base payload plus the ``swarm`` block."""
        data = super().to_dict()
        swarm = dict(self.swarm)
        swarm["member_stats"] = [dict(entry)
                                 for entry in self.swarm["member_stats"]]
        data["swarm"] = swarm
        return data

    @classmethod
    def from_dict(cls, data):
        """Rebuild a swarm result (the base fields via the parent)."""
        result = super().from_dict(data)
        swarm = data.get("swarm") or {}
        result.swarm = {
            "members": swarm.get("members", 0),
            "seed": swarm.get("seed", 0),
            "candidates": swarm.get("candidates", 0),
            "replay_failures": swarm.get("replay_failures", 0),
            "distinct_violations": swarm.get("distinct_violations", 0),
            "coverage_estimate": swarm.get("coverage_estimate"),
            "member_stats": [dict(entry)
                             for entry in swarm.get("member_stats", ())],
        }
        return result

    def summary(self):
        """The base digest plus one swarm accounting line."""
        lines = [super().summary()]
        estimate = self.swarm.get("coverage_estimate")
        lines.append(
            "  swarm: %d member(s), seed %d, %d candidate(s) -> %d "
            "replayed violation(s) (%d failed replay), coverage partial%s"
            % (self.swarm.get("members", 0), self.swarm.get("seed", 0),
               self.swarm.get("candidates", 0), len(self.counterexamples),
               self.swarm.get("replay_failures", 0),
               " (~%.0f%% of sampled states)" % (estimate * 100.0)
               if isinstance(estimate, (int, float)) else ""))
        return "\n".join(lines)

    def __repr__(self):
        return "SwarmResult(members=%d, violations=%d, states=%d)" % (
            self.swarm.get("members", 0), len(self.counterexamples),
            self.states_explored)


class _SamplingVisited:
    """Store proxy feeding the coverage sample from fresh admissions.

    Pure observer: verdict-relevant calls pass straight through to the
    wrapped store; only fingerprints of *admitted* states that clear the
    1/64 sample mask are recorded.
    """

    __slots__ = ("_store", "_sample")

    def __init__(self, store, sample):
        self._store = store
        self._sample = sample

    def seen_state(self, state, depth):
        """The wrapped store's verdict; fresh admissions feed the sample."""
        pruned = self._store.seen_state(state, depth)
        if not pruned:
            fingerprint = state.fingerprint()
            if not fingerprint & COVERAGE_SAMPLE_MASK:
                self._sample.add(fingerprint)
        return pruned

    def state_key(self, state):
        return self._store.state_key(state)

    def seen_before(self, key, depth):
        return self._store.seen_before(key, depth)

    def distinct_count(self):
        return self._store.distinct_count()

    def stats(self):
        return self._store.stats()


class _SwarmMemberEngine(ExplorationEngine):
    """One diversified member search.

    A plain sequential engine run whose successor order is shuffled by
    the member's seeded RNG.  Telemetry stays with the driver - members
    report through their results.
    """

    def __init__(self, system, properties, options, rng):
        super().__init__(system, properties, options)
        self._rng = rng
        #: fingerprints sampled for the coverage estimate (1/64 mask)
        self.sampled_fingerprints = set()

    def _open_telemetry(self):
        """Members never open sessions; the swarm driver owns the sink."""
        return None

    def _canonicalize_traces(self, result):
        """Skipped: the driver canonicalizes once, on the oracle, after
        dedup."""

    def _setup_search(self):
        """The standard moving parts, with the visited store wrapped by
        the coverage-sampling observer."""
        visited, frontier, reducer, matcher = super()._setup_search()
        visited = _SamplingVisited(visited, self.sampled_fingerprints)
        return visited, frontier, reducer, matcher

    def _search_transitions_from(self, node, event_filter=None):
        """The parent's relation with the member's shuffled order."""
        transitions = list(
            super()._search_transitions_from(node, event_filter))
        if len(transitions) > 1:
            self._rng.shuffle(transitions)
        return transitions


def _member_options(options, member):
    """One member's :class:`EngineOptions`, derived from the swarm's.

    Members run the classic sequential search (``mode`` and
    ``telemetry`` are driver concerns), without the sleep-set reduction
    - it prunes expansions in ways that would fight the deliberate
    shuffling - and, when a bitstate store was requested, with a
    per-member salt derived from ``(seed, member)`` so every member
    misses a *different* set of colliding states.  The
    state/transition/time budgets apply per member.
    """
    member_options = copy.copy(options)
    member_options.mode = SEQUENTIAL
    member_options.telemetry = None
    member_options.reduction = False
    if options.visited == "bitstate":
        member_options.bitstate_salt = (
            options.bitstate_salt
            ^ ((options.seed + 1) * 0x9E3779B9 + member * 0x85EBCA6B))
    return member_options


def _oracle_engine(engine):
    """A fresh interpreted-tier engine for replay and canonicalization."""
    oracle_options = copy.copy(engine.options)
    oracle_options.mode = SEQUENTIAL
    oracle_options.engine = "interpreted"
    oracle_options.telemetry = None
    oracle_options.reduction = False
    oracle = ExplorationEngine(engine.system, engine.properties,
                               oracle_options)
    oracle.system.executor_factory = None
    return oracle


def _coverage_estimate(samples):
    """Lincoln-Petersen capture-recapture over the member samples.

    ``samples`` is one fingerprint set per member.  Even-indexed members
    form the first capture group, odd-indexed the second; the overlap
    estimates the total sampled population and the union's share of that
    estimate (capped at 1.0) is the reported coverage.  ``None`` when
    the estimate is not computable (one member, an empty group or zero
    overlap).
    """
    if len(samples) < 2:
        return None
    first = set().union(*samples[0::2])
    second = set().union(*samples[1::2])
    overlap = len(first & second)
    if not first or not second or not overlap:
        return None
    estimated = len(first) * len(second) / overlap
    union = len(first | second)
    return round(min(1.0, union / estimated), 4)


def explore_swarm(engine):
    """Run the swarm driver for one engine; returns a :class:`SwarmResult`.

    Launches ``options.swarm_members`` member searches serially (each a
    deterministic function of ``options.seed`` and its index), merges
    their violations through one deduplicated sink, replays every
    candidate on the interpreted oracle (dropping non-replaying ones),
    canonicalizes the surviving traces and attaches member stats plus
    the capture-recapture coverage estimate.
    """
    options = engine.options
    if options.mode != SWARM:
        raise ValueError("explore_swarm needs options.mode == %r, got %r"
                         % (SWARM, options.mode))
    from repro.obs.telemetry import open_session

    started = time.monotonic()
    result = SwarmResult()
    result.swarm["seed"] = int(options.seed)
    telemetry = open_session(options.telemetry)
    try:
        if telemetry is not None:
            telemetry.run_start(options)
        candidates = {}
        samples = []
        stored_total = 0
        bytes_total = 0
        property_totals = {}
        for member in range(options.swarm_members):
            member_started = time.monotonic()
            rng = random.Random("%d:%d" % (options.seed, member))
            member_engine = _SwarmMemberEngine(
                engine.system, engine.properties,
                _member_options(options, member), rng)
            member_result = member_engine.run()
            samples.append(member_engine.sampled_fingerprints)
            result.swarm["members"] += 1
            result.states_explored += member_result.states_explored
            result.transitions += member_result.transitions
            result.commutes_pruned += member_result.commutes_pruned
            if member_result.truncated:
                result.truncated = True
                result.truncated_reason = "swarm_member_budget"
            stored_total += member_result.visited_stats.get("stored", 0)
            bytes_total += member_result.visited_stats.get("approx_bytes", 0)
            for name, value in member_result.property_stats.items():
                if isinstance(value, (int, float)):
                    property_totals[name] = (property_totals.get(name, 0)
                                             + value)
            for key, counterexample in member_result.counterexamples.items():
                existing = candidates.get(key)
                if existing is None or (path_order_key(counterexample.path)
                                        < path_order_key(existing.path)):
                    candidates[key] = counterexample
            entry = {
                "member": member,
                "states": member_result.states_explored,
                "transitions": member_result.transitions,
                "truncated": member_result.truncated,
                "truncated_reason": member_result.truncated_reason,
                "violations": len(member_result.counterexamples),
            }
            fill = member_result.visited_stats.get("fill_ratio")
            if fill is not None:
                entry["fill_ratio"] = fill
            result.swarm["member_stats"].append(entry)
            if telemetry is not None:
                telemetry.swarm_member(dict(
                    entry, elapsed=round(
                        time.monotonic() - member_started, 6)))
            if options.stop_on_first and candidates:
                break
        explore_elapsed = time.monotonic() - started

        replay_started = time.monotonic()
        result.swarm["candidates"] = len(candidates)
        if candidates:
            oracle = _oracle_engine(engine)
            label_paths = sorted(
                {tuple(ce.event_labels()) for ce in candidates.values()},
                key=lambda labels: (len(labels), labels))
            replayed_any = 0
            for labels in label_paths:
                replayed = replay_path(oracle, labels)
                if replayed is None:
                    result.swarm["replay_failures"] += 1
                    continue
                replayed_any += 1
                node, violations = replayed
                oracle._record(result, node, violations)
            if replayed_any:
                oracle._canonicalize_traces(result)
        result.swarm["distinct_violations"] = len(result.counterexamples)
        result.swarm["coverage_estimate"] = _coverage_estimate(samples)

        result.visited_stats = {
            "stored": stored_total,
            "approx_bytes": bytes_total,
            "bytes_per_state": (round(bytes_total / stored_total, 1)
                                if stored_total else 0.0),
        }
        result.property_stats = property_totals
        result.profile = {
            "explore": explore_elapsed,
            "replay": time.monotonic() - replay_started,
        }
        result.elapsed = time.monotonic() - started
        if telemetry is not None:
            for name in sorted(result.profile):
                telemetry.span(name, result.profile[name])
            telemetry.run_end(result)
        return result
    finally:
        if telemetry is not None:
            telemetry.close()
