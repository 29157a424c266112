"""The exploration engine: bounded search over external-event permutations.

"The model checker enumerates all possible permutations of the input
physical events up to a maximum number of events per user's configuration
to exhaustively verify the system." (§8, Algorithm 1.)

Used as a *falsifier* (§2.3): the search records a counterexample per
violated property and keeps exploring until the bounded state space is
exhausted or a limit trips.  The engine is assembled from three pluggable
parts - a :class:`~repro.engine.frontier.Frontier` (expansion order), a
VisitedStore (pruning) and the transition relation of the system under
test - so strategies and stores swap without touching the search itself.

The optional **sleep-set reduction** (``reduction=True``) prunes
redundant interleavings of commuting external events using the static
independence relation: each search node carries a *sleep set* of event
identities whose exploration is provably redundant here, and sleep sets
propagate to children so entire commuting suffixes disappear, not just
one order per adjacent pair.  State matching follows Godefroid's
combination: the visited store remembers the sleep set each state was
expanded with, and a revisit with a *weaker* sleep set re-expands with
the intersection instead of pruning.
"""

import gc
import time

from repro.engine.options import CONCURRENT, SWARM, EngineOptions
from repro.engine.result import ExplorationResult

#: shared empty sleep set (most nodes sleep nothing)
_NO_SLEEP = frozenset()

#: longest counterexample the trace canonicalization will permute
#: (factorial growth; beyond this the recorded path is kept as-is)
PERMUTE_TRACE_LIMIT = 6

#: bitstate fill ratio beyond which the store is saturating (missed
#: states become likely) and telemetry emits a warning event
BITSTATE_SATURATION_WARN = 0.5


class _Node:
    """A search node with parent links for counterexample reconstruction.

    ``sleep`` is the node's sleep set under the partial-order reduction
    (None when the reduction is off).
    """

    __slots__ = ("state", "depth", "parent", "label", "steps", "sleep")

    def __init__(self, state, depth, parent=None, label=None, steps=(),
                 sleep=None):
        self.state = state
        self.depth = depth
        self.parent = parent
        self.label = label
        self.steps = steps
        self.sleep = sleep

    def path(self):
        """Root-to-here as ``[(event label, [TraceStep, ...]), ...]``."""
        chain = []
        node = self
        while node.parent is not None:
            chain.append((node.label, list(node.steps)))
            node = node.parent
        chain.reverse()
        return chain


class _SleepStateMatcher:
    """Godefroid-style combination of sleep sets with visited matching.

    The wrapped store keeps its depth-aware pruning; this layer remembers
    the sleep set each state was last queued for expansion with.  A
    revisit prunes only when both the depth *and* the sleep set allow it:
    arriving with a sleep set that is not a superset of the recorded one
    means some transition slept before must now be explored, so the state
    re-expands with the intersection of both sleep sets.
    """

    __slots__ = ("store", "_sleeps")

    def __init__(self, store):
        self.store = store
        #: store key -> sleep set of the last queued expansion
        self._sleeps = {}

    def seen_state(self, state, depth, sleep):
        """Returns ``(pruned, effective_sleep, is_new)``; records the visit.

        ``is_new`` distinguishes a genuinely unseen state from a
        re-expansion (depth improvement or sleep-set weakening) so the
        engine can keep ``states_explored`` a distinct-state count under
        the reduction.
        """
        key = self.store.state_key(state)
        pruned = self.store.seen_before(key, depth)
        old = self._sleeps.get(key)
        if old is None:
            # first sighting under this key (or an approximate store's
            # collision with an untracked key: prune as the store says)
            self._sleeps[key] = sleep
            return pruned, sleep, not pruned
        if pruned and sleep >= old:
            return True, sleep, False
        effective = sleep & old
        self._sleeps[key] = effective
        return False, effective, False


class ExplorationEngine:
    """Runs the bounded search on one :class:`~repro.model.system.IoTSystem`."""

    def __init__(self, system, properties, options=None):
        # imported here: repro.checker's package init re-exports this
        # module's shim, so a top-level import would be circular
        from repro.checker.compiled import CompiledProperties
        from repro.checker.monitor import SafetyMonitor
        from repro.checker.violations import Counterexample

        self.system = system
        self.properties = list(properties)
        self.options = options or EngineOptions()
        # applied at construction (not _setup_search) so replay engines —
        # counterexample rehydration, canonicalization, swarm's oracle —
        # execute the same faulted relation as the search itself
        from repro.model.faults import resolve_scenario
        system.scenario_profile = resolve_scenario(self.options.scenario)
        self._monitor_cls = SafetyMonitor
        self._counterexample_cls = Counterexample
        #: live telemetry session (opened per run; None when disabled)
        self._telemetry = None
        #: the codegen tier's plan (generated programs + pooled
        #: executors + lean relation); None on the other tiers
        self._plan = None
        #: per-phase wall time (``codegen`` setup, ``canonicalize``);
        #: merged into ``result.profile`` by ``_finish``
        self._phase_times = {}
        # partition properties and resolve applicability once per engine;
        # every per-cascade monitor shares this compiled set.  The verdict
        # memo is hash-keyed (physical projection, ~2^-64 collisions), so
        # the "exact" store - whose contract is no hash shortcuts at all -
        # turns it off and re-evaluates invariants on every quiescent state
        self._compiled_properties = CompiledProperties(
            system, self.properties,
            memoize=self.options.visited != "exact")

    def _monitor_factory(self):
        return self._monitor_cls(self.system, self.properties,
                                 compiled=self._compiled_properties)

    def run(self):
        """Explore; returns an :class:`ExplorationResult`."""
        if self.options.mode == SWARM:
            # the swarm driver runs its members through this same class
            # (each member is a sequential engine), so the delegation
            # cannot recurse
            from repro.engine.swarm import explore_swarm
            return explore_swarm(self)
        restore_gc = self.options.manage_gc and gc.isenabled()
        if restore_gc:
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
        """Assemble one run's moving parts (swarm members extend it).

        Returns ``(visited, frontier, reducer, matcher)`` and applies
        the per-run execution back-end choice to the system.
        """
        options = self.options
        # the execution back-end is a per-run choice: without a codegen
        # plan the same system runs on the tree-interpreter oracle
        self.system.executor_factory = None
        self._plan = None
        if options.engine == "codegen":
            # generation is digest-keyed and disk-cached, so this is a
            # cache read on every run after the first for a given system
            from repro.model.codegen import CodegenPlan
            generation_started = time.monotonic()
            self._plan = CodegenPlan(self.system,
                                     cache_dir=options.codegen_cache)
            # traced cascades (counterexample replay, canonicalization)
            # run the generated modules too - one relation, two step
            # recording modes
            self.system.executor_factory = self._plan.executor_factory
            self._phase_times["codegen"] = (time.monotonic()
                                            - generation_started)
        visited = options.make_visited(self.system)
        frontier = options.make_frontier()
        reducer = self._make_reducer()
        matcher = _SleepStateMatcher(visited) if reducer is not None else None
        return visited, frontier, reducer, matcher

    def _run(self):
        options = self.options
        result = ExplorationResult()
        started = time.monotonic()
        telemetry = self._telemetry = self._open_telemetry()
        if telemetry is not None:
            telemetry.run_start(options)
        visited, frontier, reducer, matcher = self._setup_search()

        # third-party stores without the O(1) distinct counter degrade
        # to the legacy fresh-equals-new accounting.  The counter is
        # only sampled on *fresh* admissions (a pruned revisit can never
        # have grown the store), keeping the per-transition hot path at
        # exactly one store call
        count_distinct = getattr(visited, "distinct_count", None)
        last_distinct = count_distinct() if count_distinct is not None else 0

        root = _Node(self.system.initial_state(), 0,
                     sleep=_NO_SLEEP if reducer is not None else None)
        if matcher is None:
            visited.seen_state(root.state, 0)
        else:
            matcher.seen_state(root.state, 0, _NO_SLEEP)
        result.states_explored = 1
        frontier.push(root)

        # wall-clock reads are hoisted out of the transition loop: the
        # cheap integer limits stay exact per transition, the time limit
        # is only sampled every ``check_interval`` transitions and once
        # per expansion
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

        while frontier:
            if self._limits_hit(result, started):
                break
            node = frontier.pop()
            # event keys already expanded from this node, in order (the
            # sleep sets of later siblings absorb the independent ones)
            expanded_keys = [] if reducer is not None else None
            for transition in self._search_transitions_from(
                    node, self._sleep_filter(node, reducer, result)):
                label, new_state, consumed, violations, steps = transition
                result.transitions += 1
                depth = node.depth + (1 if consumed else 0)
                child_sleep = None
                if reducer is not None:
                    child_sleep = self._child_sleep(node, reducer, label,
                                                    expanded_keys)
                # nodes exist for path reconstruction; duplicates that
                # neither violate nor get expanded never need one
                child = None
                if violations:
                    child = _Node(new_state, depth, parent=node, label=label,
                                  steps=steps, sleep=child_sleep)
                    self._record(result, child, violations)
                    if options.stop_on_first:
                        return self._finish(result, visited, started)
                if depth <= options.max_events:
                    if matcher is None:
                        # states_explored counts *distinct* states:
                        # depth-improved revisits re-expand but do not
                        # re-count
                        fresh = not visited.seen_state(new_state, depth)
                        if fresh and count_distinct is not None:
                            now = count_distinct()
                            is_new = now > last_distinct
                            last_distinct = now
                        else:
                            is_new = fresh
                    else:
                        pruned, child_sleep, is_new = matcher.seen_state(
                            new_state, depth, child_sleep)
                        fresh = not pruned
                    if fresh:
                        if is_new:
                            result.states_explored += 1
                        if depth < options.max_events or new_state.pending:
                            if child is None:
                                child = _Node(new_state, depth, parent=node,
                                              label=label, steps=steps)
                            child.sleep = child_sleep
                            frontier.push(child)
                if self._cheap_limits_hit(result):
                    return self._finish(result, visited, started)
                if result.transitions >= next_time_check:
                    next_time_check = result.transitions + check_interval
                    if (telemetry is not None
                            and result.transitions >= next_snapshot):
                        next_snapshot = result.transitions + snapshot_gap
                        telemetry.snapshot(self._progress_fields(
                            result, frontier, visited, node.depth,
                            time.monotonic() - started))
                    if self._time_limit_hit(result, started):
                        return self._finish(result, visited, started)

        return self._finish(result, visited, started)

    def _make_reducer(self):
        """The independence analysis, when the reduction is applicable."""
        options = self.options
        if (not options.reduction or options.mode == CONCURRENT
                or self.system.enable_failures
                or not self.system.scenario_profile.is_clean):
            # faulted relations (§8 enumeration or a non-clean scenario
            # profile) disable the reduction outright: fault-suffixed
            # labels have no static independence entries, so pruning
            # around them would be unsound
            return None
        from repro.deps.independence import IndependenceAnalysis
        return IndependenceAnalysis(self.system)

    @staticmethod
    def _child_sleep(node, reducer, label, expanded_keys):
        """The sleep set a child inherits through this transition.

        Events slept at the node or expanded earlier from it stay asleep
        below the chosen event exactly when they commute with it - the
        other interleaving order reaches the same states and is already
        (or will be) covered by the sibling branch.
        """
        key = reducer.key_for_label(label)
        if key is None:
            # unidentifiable transition: dependence unknown, wake all
            return _NO_SLEEP
        independent = reducer.independent_cached
        sleeping = [k for k in node.sleep if independent(k, key)]
        sleeping += [k for k in expanded_keys if independent(k, key)]
        expanded_keys.append(key)
        return frozenset(sleeping) if sleeping else _NO_SLEEP

    @staticmethod
    def _sleep_filter(node, reducer, result):
        """The event veto implementing this node's sleep set (None when
        nothing sleeps here)."""
        if reducer is None or not node.sleep:
            return None
        sleep = node.sleep
        reducer_key = reducer.key

        def event_filter(ext):
            if reducer_key(ext) in sleep:
                result.commutes_pruned += 1
                return False
            return True
        return event_filter

    def _search_transitions_from(self, node, event_filter=None):
        """The relation the search loop expands: the codegen plan's
        lean (skeleton-trace) relation when active, the traced relation
        otherwise.  Replays and canonicalization always go through
        :meth:`_transitions_from` for full traces."""
        plan = self._plan
        if plan is not None and self.options.mode != CONCURRENT:
            if node.depth >= self.options.max_events:
                return []
            return plan.transitions(node.state, self._monitor_factory,
                                    event_filter)
        return self._transitions_from(node, event_filter)

    def _open_telemetry(self):
        """The run's telemetry session, or None when disabled."""
        from repro.obs.telemetry import open_session
        return open_session(self.options.telemetry)

    @staticmethod
    def _progress_fields(result, frontier, visited, depth, elapsed):
        """One progress snapshot's payload (read-only observations: the
        search must be byte-identical with telemetry on or off)."""
        return {
            "states": result.states_explored,
            "transitions": result.transitions,
            "frontier": len(frontier),
            "depth": depth,
            "elapsed": round(elapsed, 6),
            "visited_bytes": visited.stats().get("approx_bytes", 0),
        }

    def _finish(self, result, visited, started):
        # trace finalization is part of the run, so it is timed: elapsed
        # (and the states/sec figures derived from it in the bench
        # artifact) must not hide the replay/permutation cost
        finalize_started = time.monotonic()
        if self._plan is not None:
            self._rehydrate_lean_traces(result)
        self._canonicalize_traces(result)
        if self._plan is not None:
            self._plan.release()
        self._phase_times["canonicalize"] = (time.monotonic()
                                             - finalize_started)
        result.elapsed = time.monotonic() - started
        result.visited_stats = visited.stats()
        result.property_stats = self._compiled_properties.stats()
        profile = dict(self._phase_times)
        profile["explore"] = max(0.0, result.elapsed
                                 - sum(self._phase_times.values()))
        result.profile = profile
        telemetry = self._telemetry
        if telemetry is not None:
            self._telemetry = None
            for name in sorted(profile):
                telemetry.span(name, profile[name])
            fill_ratio = result.visited_stats.get("fill_ratio")
            if (fill_ratio is not None
                    and fill_ratio > BITSTATE_SATURATION_WARN):
                # a saturating bitstate field silently loses coverage;
                # the warning makes the loss observable in the run sink
                telemetry.warning(
                    "bitstate_saturation", fill_ratio=fill_ratio,
                    stored=result.visited_stats.get("stored", 0),
                    collisions=result.visited_stats.get("collisions", 0))
            telemetry.run_end(result)
            telemetry.close()
        return result

    def _rehydrate_lean_traces(self, result):
        """Regenerate full traces for counterexamples found by the lean
        relation.

        Lean search paths carry skeleton steps - enough for dedup keys
        and app attribution, nothing a human can read.  Each *reported*
        counterexample (a handful, against millions of transitions) has
        its label sequence replayed through the traced relation - which
        runs the same generated executors - and is re-recorded with the
        full cascade steps.
        """
        backup = result.counterexamples
        result.counterexamples = {}
        for key, counterexample in backup.items():
            replayed = replay_path(self, tuple(counterexample.event_labels()))
            if replayed is not None:
                node, violations = replayed
                self._record(result, node, violations)
            elif key not in result.counterexamples:
                # replay fell short (e.g. a truncated search recorded a
                # path the bounded replay cannot reach): keep the
                # skeleton rather than dropping the finding.  A
                # *successful* replay speaks for itself - keeping the
                # skeleton too would duplicate the violation under a
                # stale key whenever the replayed steps refine it
                result.counterexamples[key] = counterexample

    def _canonicalize_traces(self, result):
        """Make recorded traces independent of the expansion order.

        The search records, per violation, the path of whichever
        expansion reached it - under commuting events the same
        violating state can hang below several equal-length prefixes,
        and which one got recorded is an artifact of search order.
        This pass replays every valid permutation of each recorded event
        sequence and keeps the canonical minimum via :meth:`_record`'s
        ordering, so the rendered trace is a function of the state space
        alone - the property that lets every strategy, tier and swarm
        member report the same trace.

        Keys never appear or disappear: permutations only compete for
        the trace of violations the search itself proved.
        """
        if not result.counterexamples:
            return
        import itertools

        keys_before = set(result.counterexamples)
        for counterexample in list(result.counterexamples.values()):
            labels = counterexample.event_labels()
            if not 1 < len(labels) <= PERMUTE_TRACE_LIMIT:
                continue
            for permuted in sorted(set(itertools.permutations(labels))):
                if list(permuted) == labels:
                    continue
                replayed = replay_path(self, permuted)
                if replayed is None:
                    continue
                node, violations = replayed
                self._record(result, node, violations)
        # a permuted path may end in a violation the (e.g. truncated)
        # search never recorded; canonicalization must not invent keys
        for key in set(result.counterexamples) - keys_before:
            del result.counterexamples[key]

    def _transitions_from(self, node, event_filter=None):
        if self.options.mode == CONCURRENT:
            externals_left = self.options.max_events - node.depth
            return self.system.transitions_concurrent(
                node.state, self._monitor_factory, externals_left,
                event_filter=event_filter)
        if node.depth >= self.options.max_events:
            return []
        return self.system.transitions(node.state, self._monitor_factory,
                                       event_filter=event_filter)

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
            # keep the *canonical* counterexample per distinct violation:
            # the shortest path, ties broken by the event-label sequence.
            # Content-based selection (instead of first-found) makes the
            # reported trace independent of expansion order
            if existing is None or order < path_order_key(existing.path):
                result.counterexamples[key] = self._counterexample_cls(
                    violation, path)

    def _role_actors(self, violation, path):
        """For invariant violations: the apps that commanded the property's
        role devices anywhere along the violating run (Table 5/9's "apps
        related to example")."""
        roles = getattr(violation.property, "roles", ())
        if not roles:
            return ()
        role_devices = set()
        for role in roles:
            for name in self.system.role_list(role):
                if isinstance(name, str) and name in self.system.devices:
                    role_devices.add(name)
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

    def _cheap_limits_hit(self, result):
        """The integer limits - checked exactly, every transition."""
        options = self.options
        if options.max_states and result.states_explored >= options.max_states:
            result.truncated = True
            result.truncated_reason = "max_states"
            return True
        if (options.max_transitions
                and result.transitions >= options.max_transitions):
            result.truncated = True
            result.truncated_reason = "max_transitions"
            return True
        return False

    def _time_limit_hit(self, result, started):
        options = self.options
        if options.time_limit and time.monotonic() - started > options.time_limit:
            result.truncated = True
            result.truncated_reason = "time_limit"
            return True
        return False

    def _limits_hit(self, result, started):
        return (self._cheap_limits_hit(result)
                or self._time_limit_hit(result, started))


def replay_path(engine, labels):
    """Drive the transition relation along one event-label sequence.

    Returns ``(final node, violations of the final transition)`` or
    ``None`` when the sequence does not replay to a violating
    transition.  Labels deterministically identify transitions, so a
    successful replay regenerates the exact cascade steps - this is how
    the lean-trace rehydration, the trace canonicalization and swarm's
    oracle rebuild rendered counterexamples without trusting any
    recorded path.

    A transition's label is its external event's label plus an optional
    failure-scenario suffix, so only the externals whose label starts
    the wanted one run their cascades; the exact label comparison still
    decides the match.
    """
    node = _Node(engine.system.initial_state(), 0)
    violations = []
    for label in labels:
        matched = None
        for transition in engine._transitions_from(
                node, lambda ext: label.startswith(ext.label())):
            if transition[0] == label:
                matched = transition
                break
        if matched is None:
            return None
        _label, new_state, consumed, violations, steps = matched
        node = _Node(new_state, node.depth + (1 if consumed else 0),
                     parent=node, label=label, steps=steps)
    if not violations:
        return None
    return node, violations


def path_order_key(path):
    """The canonical order of counterexample paths: shortest first, then
    by the external-event label sequence.

    Both the sequential recorder and swarm's violation sink select the
    minimum under this key, so every run of the same system reports the
    same trace per violation regardless of expansion order.
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
