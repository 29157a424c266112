"""The exploration engine: bounded search over external-event permutations.

"The model checker enumerates all possible permutations of the input
physical events up to a maximum number of events per user's configuration
to exhaustively verify the system." (§8, Algorithm 1.)

Used as a *falsifier* (§2.3): the search records a counterexample per
violated property and keeps exploring until the bounded state space is
exhausted or a limit trips.  The search is a depth-bounded DFS over a
plain stack; a VisitedStore (:mod:`repro.engine.visited`) prunes
revisits that are no shallower than before, and the transition
relation of the system under test - lean or traced - yields the
successors, each with its full cascade trace.
"""

import gc
import sys
import time

from repro.checker.compiled import CompiledProperties
from repro.checker.monitor import SafetyMonitor
from repro.checker.violations import Counterexample
from repro.engine.options import CONCURRENT, EngineOptions
from repro.engine.result import ExplorationResult

#: bitstate fill ratio beyond which the store is saturating (missed
#: states become likely) and telemetry emits a warning event
BITSTATE_SATURATION_WARN = 0.5

#: the integer limit standing in for "no limit" (no search reaches it)
_UNLIMITED = sys.maxsize


class _Node:
    """A search node with parent links for counterexample reconstruction."""

    __slots__ = ("state", "depth", "parent", "label", "steps")

    def __init__(self, state, depth, parent=None, label=None, steps=()):
        self.state = state
        self.depth = depth
        self.parent = parent
        self.label = label
        self.steps = steps

    def path(self):
        """Root-to-here as ``[(event label, [TraceStep, ...]), ...]``."""
        chain = []
        node = self
        while node.parent is not None:
            chain.append((node.label, list(node.steps)))
            node = node.parent
        chain.reverse()
        return chain


class ExplorationEngine:
    """Runs the depth-bounded DFS on one
    :class:`~repro.model.system.IoTSystem`."""

    def __init__(self, system, properties, options=None):
        self.system = system
        self.properties = list(properties)
        self.options = options or EngineOptions()
        from repro.model.faults import resolve_scenario
        system.scenario_profile = resolve_scenario(self.options.scenario)
        #: live telemetry session (opened per run; None when disabled)
        self._telemetry = None
        #: the lean relation (:class:`~repro.model.lean.LeanRelation`)
        #: the search expands; None under ``engine="interpreted"``
        self._lean = None
        #: whether the lean relation may hand the search quiet leaves,
        #: bare fingerprints (every store but ``exact`` takes them)
        self._quiet_leaves = False
        #: the last run's cascade counts (:meth:`LeanRelation.stats` and
        #: ``invariant_inherited``; empty under ``engine="interpreted"``)
        #: - kept off the result so its JSON does not depend on the
        #: relation
        self.cascade_stats = {}
        # partition properties, resolve applicability and bind the
        # invariants once per engine; every per-cascade monitor shares
        # this compiled set.  The verdict memo is hash-keyed (physical
        # projection, ~2^-64 collisions), so the "exact" store - whose
        # contract is no hash shortcuts at all - turns it off, and with it
        # verdict inheritance, and re-evaluates invariants on every
        # quiescent state
        self._compiled_properties = CompiledProperties(
            system, self.properties,
            memoize=self.options.visited != "exact")

    def _monitor_factory(self):
        return SafetyMonitor(self.system, self.properties,
                             compiled=self._compiled_properties)

    def run(self):
        """Explore; returns an :class:`ExplorationResult`."""
        restore_gc = gc.isenabled()
        # the search churns through millions of short-lived acyclic
        # objects; gen-0 sweeps cost ~1/3 of wall clock and reclaim
        # nothing that reference counting doesn't
        gc.disable()
        try:
            return self._run()
        finally:
            if restore_gc:
                gc.enable()

    def _setup_search(self):
        """Assemble one run's moving parts.

        Returns the visited store and picks the relation the search
        expands: the lean one unless ``engine="interpreted"``.
        """
        options = self.options
        self._lean = None
        if options.engine == "lean":
            from repro.model.lean import LeanRelation
            self._lean = LeanRelation(self.system)
        return options.make_visited(self.system)

    def _run(self):
        options = self.options
        result = ExplorationResult()
        started = time.monotonic()
        telemetry = self._telemetry = self._open_telemetry()
        if telemetry is not None:
            telemetry.run_start(options)
        visited = self._setup_search()
        # the fingerprint and bitstate stores read nothing of an admitted
        # state but its fingerprint, so quiet successors at the bound
        # need not be built; the exact store keeps full successors - it
        # stays an independent oracle
        self._quiet_leaves = options.visited != "exact"

        # the distinct counter is only sampled on *fresh* admissions (a
        # pruned revisit can never have grown the store), keeping the
        # per-transition hot path at exactly one store call
        count_distinct = visited.distinct_count
        root = _Node(self.system.initial_state(), 0)
        visited.seen_state(root.state, 0)
        last_distinct = count_distinct()
        result.states_explored = 1
        stack = [root]

        # wall-clock reads are hoisted out of the transition loop: the
        # integer limits stay exact per transition, compared against
        # locals, the time limit is only sampled every
        # ``check_interval`` transitions and once per expansion
        max_states = options.max_states or _UNLIMITED
        max_transitions = options.max_transitions or _UNLIMITED
        if max_states <= 1:
            # the root alone fills the bound
            return self._finish(result, visited, started, "max_states")
        check_interval = max(1, options.check_interval)
        next_time_check = check_interval
        # progress snapshots piggyback on the same sampling; their own
        # (coarser) cadence keeps even O(n)-stats stores cheap to poll.
        # When telemetry is off this costs one dead local per run.
        snapshot_gap = 0
        next_snapshot = 0
        if telemetry is not None:
            snapshot_gap = telemetry.config.snapshot_gap(check_interval)
            next_snapshot = snapshot_gap

        while stack:
            if self._time_limit_hit(started):
                return self._finish(result, visited, started, "time_limit")
            node = stack.pop()
            for transition in self._transitions_from(node):
                result.transitions += 1
                if transition.__class__ is int:
                    # a quiet leaf: a violation-free successor at the
                    # bound, never expanded, given as its fingerprint
                    if not visited.seen_before(transition, node.depth + 1):
                        now = count_distinct()
                        if now > last_distinct:
                            result.states_explored += 1
                        last_distinct = now
                else:
                    label, new_state, consumed, violations, steps = (
                        transition)
                    depth = node.depth + (1 if consumed else 0)
                    # nodes exist for path reconstruction; duplicates
                    # that neither violate nor get expanded never need
                    # one
                    child = None
                    if violations:
                        child = _Node(new_state, depth, parent=node,
                                      label=label, steps=steps)
                        self._record(result, child, violations)
                        if options.stop_on_first:
                            return self._finish(result, visited, started)
                    if (depth <= options.max_events
                            and not visited.seen_state(new_state, depth)):
                        # states_explored counts *distinct* states:
                        # depth-improved revisits re-expand but do not
                        # re-count
                        now = count_distinct()
                        if now > last_distinct:
                            result.states_explored += 1
                        last_distinct = now
                        if depth < options.max_events or new_state.pending:
                            if child is None:
                                child = _Node(new_state, depth, parent=node,
                                              label=label, steps=steps)
                            stack.append(child)
                if result.states_explored >= max_states:
                    return self._finish(result, visited, started,
                                        "max_states")
                if result.transitions >= max_transitions:
                    return self._finish(result, visited, started,
                                        "max_transitions")
                if result.transitions >= next_time_check:
                    next_time_check = result.transitions + check_interval
                    if (telemetry is not None
                            and result.transitions >= next_snapshot):
                        next_snapshot = result.transitions + snapshot_gap
                        telemetry.snapshot(self._progress_fields(
                            result, stack, visited, node.depth,
                            time.monotonic() - started))
                    if self._time_limit_hit(started):
                        return self._finish(result, visited, started,
                                            "time_limit")

        return self._finish(result, visited, started)

    def _transitions_from(self, node):
        """The successors of ``node``: the lean relation on sequential
        runs when active, the traced relation otherwise."""
        options = self.options
        if options.mode == CONCURRENT:
            return self.system.transitions_concurrent(
                node.state, self._monitor_factory,
                options.max_events - node.depth)
        if node.depth >= options.max_events:
            return []
        if self._lean is not None:
            return self._lean.transitions(
                node.state, self._monitor_factory,
                leaf=(self._quiet_leaves
                      and node.depth + 1 == options.max_events))
        return self.system.transitions(node.state, self._monitor_factory)

    def _open_telemetry(self):
        """The run's telemetry session, or None when disabled."""
        from repro.obs.telemetry import open_session
        return open_session(self.options.telemetry)

    @staticmethod
    def _progress_fields(result, stack, visited, depth, elapsed):
        """One progress snapshot's payload (read-only observations: the
        search must be byte-identical with telemetry on or off);
        ``frontier`` is the DFS stack's length."""
        return {
            "states": result.states_explored,
            "transitions": result.transitions,
            "frontier": len(stack),
            "depth": depth,
            "elapsed": round(elapsed, 6),
            "visited_bytes": visited.stats().get("approx_bytes", 0),
        }

    def _finish(self, result, visited, started, truncated_reason=None):
        """Close the run; ``truncated_reason`` names the limit that
        stopped it, if one did."""
        if truncated_reason is not None:
            result.truncated = True
            result.truncated_reason = truncated_reason
        # one order for the list: by path, then by violation - a
        # function of the state space, not of the order of recording
        result.counterexamples = dict(sorted(
            result.counterexamples.items(),
            key=lambda item: (path_order_key(item[1].path), item[0])))
        if self._lean is not None:
            self._lean.release()
            self.cascade_stats = self._lean.stats()
            # beside the quiet leaves: the quiet events whose invariant
            # verdict the lean relation took from their parent
            self.cascade_stats["invariant_inherited"] = (
                self._compiled_properties.inherited)
        result.elapsed = time.monotonic() - started
        result.visited_stats = visited.stats()
        result.property_stats = self._compiled_properties.stats()
        result.profile = {"explore": result.elapsed}
        telemetry = self._telemetry
        if telemetry is not None:
            self._telemetry = None
            telemetry.span("explore", result.elapsed)
            fill_ratio = result.visited_stats.get("fill_ratio")
            if (fill_ratio is not None
                    and fill_ratio > BITSTATE_SATURATION_WARN):
                # a saturating bitstate field silently loses coverage;
                # the warning makes the loss observable in the run sink
                telemetry.warning(
                    "bitstate_saturation", fill_ratio=fill_ratio,
                    stored=result.visited_stats.get("stored", 0),
                    pruned=result.visited_stats.get("pruned", 0))
            telemetry.run_end(result, self.cascade_stats)
            telemetry.close()
        return result

    def _record(self, result, node, violations):
        path = node.path()
        order = path_order_key(path)
        for violation in violations:
            refined = self._role_actors(violation, path)
            if refined:
                violation.apps = refined
            elif not violation.apps:
                # fall back to every app that acted along the path
                violation.apps = _path_actors(path)
            key = violation.dedup_key()
            existing = result.counterexamples.get(key)
            # keep the shortest path per distinct violation, ties broken
            # by the event-label sequence: the depth-aware store
            # re-expands every state at its minimal depth, so the DFS
            # reaches each violation along some shortest path
            if existing is None or order < path_order_key(existing.path):
                result.counterexamples[key] = Counterexample(violation, path)

    def _role_actors(self, violation, path):
        """For invariant violations: the apps that commanded the property's
        role devices anywhere along the violating run (Table 5/9's "apps
        related to example")."""
        role_devices = self._compiled_properties.role_devices.get(
            violation.property)
        if not role_devices:
            return ()
        actors = []
        for _label, steps in path:
            for step in steps:
                if step.kind not in ("command", "mode") or not step.app:
                    continue
                if step.kind == "command":
                    device = step.text.split(".", 1)[0]
                    if device not in role_devices:
                        continue
                if step.app not in actors:
                    actors.append(step.app)
        return tuple(actors)

    def _time_limit_hit(self, started):
        time_limit = self.options.time_limit
        return bool(time_limit) and time.monotonic() - started > time_limit


def path_order_key(path):
    """The order of counterexample paths: shortest first, then by the
    external-event label sequence.

    The recorder keeps the minimum under this key among the paths the
    DFS reaches, and the result lists its counterexamples in this order.
    """
    return (len(path), tuple(label for label, _steps in path))


def _path_actors(path):
    """Apps that issued commands or mode changes along a violating run."""
    actors = []
    for _label, steps in path:
        for step in steps:
            if step.kind in ("command", "mode") and step.app:
                if step.app not in actors:
                    actors.append(step.app)
    return tuple(actors)


def verify(system, properties, **option_kwargs):
    """Convenience: build options, run, return the result."""
    return ExplorationEngine(system, properties,
                             EngineOptions(**option_kwargs)).run()
