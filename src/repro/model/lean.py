"""The lean transition relation: each distinct cascade run once.

The traced relation (:meth:`~repro.model.system.IoTSystem.transitions`)
runs every cascade of every expanded node.  Most of them repeat: the
same event meets the same values it reads.  So the engine's default
search expands nodes through :class:`LeanRelation`:

* under every sequential scenario - clean runs, the faulted profiles
  and failure enumeration alike - each distinct cascade runs live once,
  as the traced :class:`~repro.model.cascade.Cascade` itself on a
  recording view, and a later cascade of the same label and scenario
  whose first reads find the same values re-applies the recorded
  writes, monitor hooks and trace steps instead of running the
  handlers again (:mod:`repro.model.replay` gives the soundness
  argument);
* on clean runs, a sensor event no installed app hears takes a
  cascade-free path, and at the depth bound may become a quiet leaf:
  the successor's bare fingerprint, one FNV round over per-parent and
  per-value words (:meth:`~repro.model.state.ModelState.successor_base`).

Every transition carries the traced relation's full steps, so a
violating search path is a reportable counterexample as it stands.
Handlers run on the tree :class:`~repro.model.interpreter.Interpreter`,
a fresh one per handler run, exactly as in the traced relation.
"""

from repro.checker.compiled import ReplacedAttribute
from repro.checker.violations import TraceStep
from repro.model.cascade import TIME_QUANTUM_MS, Cascade
from repro.model.events import DEVICE, Event
from repro.model.replay import RecordingMonitor, RecordingState, ReplayTrie
from repro.model.state import successor_fingerprint, word

__all__ = ["LeanRelation"]


class LeanRelation:
    """One system's lean transition relation, for one search at a time.

    Installed by the engine when ``options.engine == "lean"`` (the
    default): :meth:`transitions` replaces
    :meth:`IoTSystem.transitions` on the search path of a sequential
    run.  :meth:`release` ends a run and drops its replay trie;
    :meth:`stats` counts the cascades run live and replayed and the
    quiet leaves taken.
    """

    def __init__(self, system):
        self.system = system
        # Subscriptions are static per system, so whether any handler
        # would run for a concrete (device, attribute, value) sensor
        # event is decided here, once.  Those no installed app hears
        # take a cascade-free path in :meth:`transitions` (the dominant
        # case on sensor-rich systems); it replicates exactly one
        # cascade shape - single NO_FAILURE scenario, one sensor update,
        # nothing dispatched - so failure enumeration or a faulted
        # profile, which fork every sensor event, leave the map empty.
        # Each quiet event maps to the steps the traced cascade records
        # for it (the external event, the state write, the notify), its
        # written (device, attribute) pair and the word of the pair's new
        # value
        self._quiet = {}
        #: the subset of ``_quiet`` whose verdict is inherited, for the
        #: compiled property set it was computed for
        self._unread = frozenset()
        self._unread_for = None
        #: this run's recorded cascades, keyed by event label plus
        #: scenario label
        self._replays = ReplayTrie()
        self.cascades_live = 0
        self.cascades_replayed = 0
        self.replay_leaves = 0
        self.quiet_leaves = 0
        if not system.enable_failures and system.scenario_profile.is_clean:
            for device, attribute, events in system._sensor_events():
                for value, ext in events:
                    event = Event(DEVICE, device=device, attribute=attribute,
                                  value=value)
                    if not any(value_filter is None
                               or str(value) == str(value_filter)
                               for _app, _handler, value_filter
                               in system.subscribers_for(event)):
                        self._quiet[ext] = ((
                            TraceStep("external", ext.describe()),
                            TraceStep("state", "%s.%s = %s"
                                      % (device, attribute, value)),
                            TraceStep("notify", event.describe())),
                            (device, attribute),
                            word((device, attribute, value)))

    def release(self):
        """End of run: drop the replay trie (the counts stay for
        :meth:`stats`)."""
        self._replays = ReplayTrie()

    def stats(self):
        """This run's cascade counts: run live (recorded or not),
        replayed from the trie, the trie's recorded leaves, and the
        quiet events at the depth bound admitted by fingerprint alone."""
        return {"cascades_live": self.cascades_live,
                "cascades_replayed": self.cascades_replayed,
                "replay_leaves": self.replay_leaves,
                "quiet_leaves": self.quiet_leaves}

    def transitions(self, state, monitor_factory, leaf=False):
        """Mirror of :meth:`IoTSystem.transitions`: labels, successor
        states, violations and steps identical.

        ``leaf`` says the successors lie at the depth bound and the
        caller reads only their ``fingerprint()`` and ``pending``: a
        quiet event whose successor violates nothing then yields the
        successor's fingerprint, a bare int, instead of a transition."""
        out = []
        quiet = self._quiet
        compiled = unread = None
        parent_failed = None
        # per parent: the words its quiet successors share, and the old
        # value's word per written pair
        base = None
        old_words = {}
        for ext in self.system.external_choices(state):
            entry = quiet.get(ext)
            if entry is None:
                self._run_event(out, state, ext, monitor_factory)
                continue
            steps, pair, new_word = entry
            # cascade-free: time quantum, the sensor write, the event
            # record, the final invariant check - byte-identical to a
            # cascade with an empty dispatch.  Such a cascade
            # reports exactly its invariant failures, so the compiled
            # invariant verdict decides whether a monitor is needed at
            # all; when it is, the monitor re-checks through the
            # ordinary path and yields the identical violation list
            if compiled is None:
                compiled = monitor_factory()._compiled
                unread = self._unread_quiet(compiled)
            failed = None
            if ext in unread:
                # no bound check reads the written pair, and none reads
                # time or history: the successor's verdict is the
                # parent's (the exact store, which turns the verdict memo
                # off, evaluates every successor instead)
                if parent_failed is None:
                    parent_failed = compiled.failed_indices(
                        state.physical_key(), state)
                failed = parent_failed
                compiled.inherited += 1
            if leaf and not failed:
                if base is None:
                    base = state.successor_base()
                old = old_words.get(pair)
                if old is None:
                    old = old_words[pair] = state.attribute_word(*pair)
                dev = base[1] ^ old ^ new_word
                if failed is None:
                    failed = compiled.failed_indices(
                        (dev, state.mode), ReplacedAttribute(
                            state, ext.device, ext.attribute, ext.value))
                if not failed:
                    # at the bound, a violation-free successor is
                    # admitted by its fingerprint alone, never built
                    self.quiet_leaves += 1
                    out.append(successor_fingerprint(base[0], dev))
                    continue
            new_state = state.copy()
            new_state.cascade_commands = ()
            new_state.time += TIME_QUANTUM_MS
            new_state.set_attribute(ext.device, ext.attribute, ext.value)
            new_state.record_event(ext.device, ext.attribute, ext.value)
            if failed is None:
                failed = compiled.failed_invariants(new_state)
            violations = monitor_factory().finish(new_state) if failed else []
            out.append((ext.label(), new_state, True, violations, steps))
        return out

    def _unread_quiet(self, compiled):
        """The quiet events whose written ``(device, attribute)`` pair no
        check of ``compiled`` reads; empty unless its verdicts are
        memoized.  Cached for the compiled set last asked about."""
        if self._unread_for is not compiled:
            reads = compiled.reads
            self._unread = frozenset(
                ext for ext in self._quiet
                if (ext.device, ext.attribute) not in reads
            ) if compiled.memoize else frozenset()
            self._unread_for = compiled
        return self._unread

    def _run_event(self, out, state, ext, monitor_factory):
        """One external event's cascades, one per failure scenario.

        Each is replayed when the trie holds a cascade of this label and
        scenario whose first reads match the successor state, else run
        live on a recording view and recorded.  A scenario's effect is a
        function of the scenario (in the key) and of state reads the
        view records: the duplicate check and the stale value are read
        through it before any write, drops and delivery order depend on
        the scenario alone."""
        system = self.system
        label = ext.label()
        for scenario in system.failure_scenarios(ext):
            suffix = scenario.label()
            key = label + suffix if suffix else label
            new_state = state.copy()
            new_state.cascade_commands = ()
            new_state.time += TIME_QUANTUM_MS
            monitor = monitor_factory()
            record = self._replays.lookup(key, new_state)
            if record is not None:
                self.cascades_replayed += 1
                steps = record.apply(new_state, monitor)
            else:
                self.cascades_live += 1
                view = RecordingState(new_state)
                recorder = RecordingMonitor(monitor)
                cascade = Cascade(system, view, recorder, scenario)
                cascade.apply_external(ext)
                cascade._drain()
                cascade.write_back()
                steps = cascade.steps
                record = view.record(recorder.calls, steps)
                if (record is not None
                        and self._replays.remember(key, view.reads, record)):
                    self.replay_leaves += 1
            violations = monitor.finish(new_state)
            out.append((key, new_state, True, violations, steps))
