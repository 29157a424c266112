"""The lean transition relation: traceless cascades, replayed repeats.

The traced relation (:meth:`~repro.model.system.IoTSystem.transitions`)
records a full ``TraceStep`` log for every cascade it runs, and runs
every cascade.  Search needs neither: it reads successor states,
violations and the few steps violation attribution uses.  So the
engine's default search expands nodes through :class:`LeanRelation`:

* a :class:`_LeanCascade` runs each cascade with a *skeleton* trace
  (violating paths are replayed through the traced relation by the
  engine, so reported traces are byte-identical to the oracle's);
* under every sequential scenario - clean runs, the faulted profiles
  and failure enumeration alike - each distinct cascade runs live once
  on a recording view, and a later cascade of the same label and
  scenario whose first reads find the same values re-applies the
  recorded writes and monitor hooks instead of running the handlers
  again (:mod:`repro.model.replay` gives the soundness argument);
* on clean runs, a sensor event no installed app hears takes a
  cascade-free path, and at the depth bound may become a stateless
  :class:`~repro.model.state.QuietLeaf`.

Handlers run on the tree :class:`~repro.model.interpreter.Interpreter`,
a fresh one per handler run, exactly as in the traced relation.
"""

from repro.checker.compiled import ReplacedAttribute
from repro.checker.violations import TraceStep
from repro.model.cascade import (
    MAX_INTERNAL_EVENTS,
    TIME_QUANTUM_MS,
    Cascade,
    FailureScenario,
    _coerce_attribute_value,
    _freeze_arg,
)
from repro.model.events import APP, DEVICE, LOCATION, Event
from repro.model.replay import RecordingMonitor, RecordingState, ReplayTrie
from repro.model.state import QuietLeaf

__all__ = ["LeanRelation"]


class _LeanCascade(Cascade):
    """A :class:`Cascade` that records a *skeleton* trace.

    Every state mutation, event, handler run and monitor callback is
    identical to the traced cascade; the full ``TraceStep`` log (and
    its per-step label formatting) is dropped.  Only the steps that
    feed violation attribution survive - app-attributed
    ``command``/``mode`` records, whose text carries exactly the
    ``device.command`` prefix the engine's actor refinement splits on -
    so dedup keys and app lists match the traced relation, and the
    engine regenerates the full rendered trace for the few *reported*
    counterexamples by replaying their label sequences through the
    traced relation.
    """

    def apply_external(self, ext):
        """The cascade of one external event, drained, on a state whose
        clock has already advanced (no final invariant check)."""
        if ext.kind == "sensor":
            if self.scenario.drops_report(ext.device):
                # SENSOR_DROP / EVENT_DROP / DEVICE_DEATH of the origin:
                # ground truth updates silently, no app is notified
                self.state.set_attribute(ext.device, ext.attribute, ext.value)
            elif self.scenario.kind == FailureScenario.DUPLICATE:
                changed = (self.state.attribute(ext.device, ext.attribute)
                           != ext.value)
                self.sensor_state_update(ext.device, ext.attribute, ext.value)
                if changed:
                    self._enqueue(Event(DEVICE, device=ext.device,
                                        attribute=ext.attribute,
                                        value=ext.value))
            elif self.scenario.kind == FailureScenario.STALE_READ:
                stale = self.get_attribute(ext.device, ext.attribute)
                self.sensor_state_update(ext.device, ext.attribute, ext.value)
                self._stale_reads = {(ext.device, ext.attribute): stale}
            else:
                self.sensor_state_update(ext.device, ext.attribute, ext.value)
        elif ext.kind == "touch":
            self._enqueue(Event(APP, app=ext.app))
        elif ext.kind == "mode":
            if ext.value != self.state.mode:
                self.state.mode = ext.value
                self._enqueue(Event(LOCATION, attribute="mode",
                                    value=ext.value))
        elif ext.kind == "timer":
            self._fire_timer(ext.app, ext.handler)
        elif ext.kind == "environment":
            self._enqueue(Event(LOCATION, attribute=ext.attribute,
                                value=ext.attribute))
        self._drain()

    def sensor_state_update(self, device_name, attribute, value):
        """:meth:`Cascade.sensor_state_update` without its trace step."""
        if self.state.attribute(device_name, attribute) == value:
            return
        self.state.set_attribute(device_name, attribute, value)
        self.state.record_event(device_name, attribute, value)
        self._enqueue(Event(DEVICE, device=device_name, attribute=attribute,
                            value=value))

    def actuator_command(self, device_name, command, args, app_name):
        """:meth:`Cascade.actuator_command` keeping only the skeleton
        ``command`` step that violation attribution reads."""
        instance = self.system.devices.get(device_name)
        effect = instance.command(command) if instance is not None else None
        payload = tuple(_freeze_arg(a) for a in args)
        self._step("command", "%s.%s" % (device_name, command),
                   app=app_name)
        self.monitor.on_command(device_name, command, payload, app_name,
                                effect)
        self.state.cascade_commands = self.state.cascade_commands + (
            (device_name, command, payload, app_name),)
        if effect is None:
            return
        if self.scenario.drops_command(device_name):
            reason = ("device dead"
                      if self.scenario.kind == FailureScenario.DEVICE_DEATH
                      else "actuator offline")
            self.monitor.on_command_dropped(device_name, command, app_name,
                                            reason)
            return
        value = effect.value
        if effect.takes_arg:
            value = payload[0] if payload else None
        value = _coerce_attribute_value(instance, effect.attribute, value)
        if self.state.attribute(device_name, effect.attribute) == value:
            return
        self.state.set_attribute(device_name, effect.attribute, value)
        self.state.record_event(device_name, effect.attribute, value)
        self._enqueue(Event(DEVICE, device=device_name,
                            attribute=effect.attribute, value=value))

    def dispatch_event(self, event):
        """:meth:`Cascade.dispatch_event` without the notify and
        budget-exhausted trace steps."""
        self._dispatched += 1
        if self._dispatched > MAX_INTERNAL_EVENTS:
            return
        for app_instance, handler, value_filter in (
                self.system.subscribers_for(event)):
            if (value_filter is not None
                    and str(event.value) != str(value_filter)):
                continue
            self._run_handler(app_instance, handler, event)

    def _step(self, kind, text, app=None, line=None):
        # skeleton trace: keep only what violation attribution reads
        if app is not None and (kind == "command" or kind == "mode"):
            self.steps.append(TraceStep(kind, text, app=app))

    def log(self, app_name, level, message):
        pass


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
        # case on sensor-rich systems); it replicates exactly one lean
        # cascade shape - single NO_FAILURE scenario, one sensor update,
        # nothing dispatched - so failure enumeration or a faulted
        # profile, which fork every sensor event, leave the set empty
        self._quiet = set()
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
                        self._quiet.add(ext)

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
        """Traceless mirror of :meth:`IoTSystem.transitions` (labels,
        successor states, violations identical; ``steps`` a skeleton).

        ``leaf`` says the successors lie at the depth bound and the
        caller reads only their ``fingerprint()`` and ``pending``: a
        quiet event whose successor violates nothing then yields a
        :class:`~repro.model.state.QuietLeaf` instead of a built state."""
        out = []
        quiet = self._quiet
        compiled = unread = None
        parent_failed = None
        for ext in self.system.external_choices(state):
            if ext not in quiet:
                self._run_event(out, state, ext, monitor_factory)
                continue
            # cascade-free: time quantum, the sensor write, the event
            # record, the final invariant check - byte-identical to a
            # lean cascade with an empty dispatch.  Such a cascade
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
                keys = state.replaced_keys(ext.device, ext.attribute,
                                           ext.value)
                if keys is not None:
                    if failed is None:
                        failed = compiled.failed_indices(
                            keys[1], ReplacedAttribute(
                                state, ext.device, ext.attribute, ext.value))
                    if not failed:
                        # at the bound, a violation-free successor is
                        # admitted by its fingerprint alone, never built
                        self.quiet_leaves += 1
                        out.append((ext.label(), QuietLeaf(keys[0]), True,
                                    [], []))
                        continue
            new_state = state.copy()
            new_state.cascade_commands = ()
            new_state.time += TIME_QUANTUM_MS
            new_state.set_attribute(ext.device, ext.attribute, ext.value)
            new_state.record_event(ext.device, ext.attribute, ext.value)
            if failed is None:
                failed = compiled.failed_invariants(new_state)
            violations = monitor_factory().finish(new_state) if failed else []
            new_state.seal()
            out.append((ext.label(), new_state, True, violations, []))
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
                cascade = _LeanCascade(system, view, recorder, scenario)
                cascade.apply_external(ext)
                steps = cascade.steps
                record = view.record(recorder.calls, steps)
                if (record is not None
                        and self._replays.remember(key, view.reads, record)):
                    self.replay_leaves += 1
            violations = monitor.finish(new_state)
            new_state.seal()
            out.append((key, new_state, True, violations, steps))
