"""Algorithm 1: the main event loop of the modeled IoT system.

A :class:`Cascade` executes *one* external event and everything it causes:
``sensor_state_update`` -> ``dispatch_event`` to subscribed apps ->
``actuator_state_update`` (which may generate new cyber events), until the
event queue drains.  It is also the *context* object the interpreter and the
runtime handles call into, so every read of device state and every side
effect of app code flows through here.

Failure injection follows §8: "when generating a sensor event we enumerate
two scenarios: (i) the sensor is available/online and (ii) the sensor is
unavailable/offline.  Similarly, whenever receiving a command from a smart
app, an actuator may be either online or offline."
"""

from repro.checker.violations import TraceStep
from repro.model.events import (APP, DEVICE, FAKE, LOCATION, TIMER, Event,
                                FailureScenario, NO_FAILURE)
from repro.model.handles import DeviceHandle, EventHandle
from repro.model.interpreter import ExecutionError, Interpreter
from repro.model.state import _copy_value

__all__ = ["Cascade", "FailureScenario", "NO_FAILURE", "TIME_QUANTUM_MS",
           "MAX_INTERNAL_EVENTS"]

#: milliseconds the model clock advances per external event
TIME_QUANTUM_MS = 60000

#: bound on internal events per cascade (guards against app event loops)
MAX_INTERNAL_EVENTS = 64

#: sentinel distinguishing "no stale entry" from a stale value of ``None``
_NO_STALE = object()


class Cascade:
    """Executes one external event against a mutable model state."""

    def __init__(self, system, state, monitor, scenario=NO_FAILURE,
                 defer_dispatch=False):
        self.system = system
        self.state = state
        self.monitor = monitor
        self.scenario = scenario
        self.steps = []
        #: when True (concurrent design) generated events are parked in
        #: ``state.pending`` instead of being dispatched run-to-completion
        self.defer_dispatch = defer_dispatch
        self._queue = []
        self._dispatched = 0
        #: (device, attribute) -> pre-event value, set by the stale-reads
        #: scenario; app reads through :meth:`get_attribute` see these
        self._stale_reads = None
        #: app name -> this cascade's working copy of its ``state`` map,
        #: stored back by :meth:`write_back`
        self._apps = {}

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------

    def run_external(self, ext):
        """Apply one external event; returns the violations found."""
        self.state.time += TIME_QUANTUM_MS
        self.apply_external(ext)
        if self.defer_dispatch:
            self.write_back()
            return self.monitor.violations
        self._drain()
        self.write_back()
        return self.monitor.finish(self.state)

    def apply_external(self, ext):
        """Record one external event's step and inject it, on a state
        whose clock has already advanced: nothing is dispatched yet and
        no final invariant check runs."""
        suffix = self.scenario.label()
        self.steps.append(TraceStep(
            "external", ext.describe() + suffix if suffix
            else ext.describe()))
        if ext.kind == "sensor":
            kind = self.scenario.kind
            if kind == FailureScenario.SENSOR_DROP:
                # The physical world changed but the report was lost: ground
                # truth updates silently, no app is notified.
                self.state.set_attribute(ext.device, ext.attribute, ext.value)
                self._step("failure", "%s offline: event %s=%s not reported"
                           % (ext.device, ext.attribute, ext.value))
            elif kind == FailureScenario.EVENT_DROP:
                # lossy profile: same silent ground-truth update, but the
                # loss is in transit rather than at the sensor
                self.state.set_attribute(ext.device, ext.attribute, ext.value)
                self._step("failure", "report lost: event %s=%s from %s not "
                           "delivered" % (ext.attribute, ext.value, ext.device))
            elif (kind == FailureScenario.DEVICE_DEATH
                  and self.scenario.device == ext.device):
                self.state.set_attribute(ext.device, ext.attribute, ext.value)
                self._step("failure", "%s dead: event %s=%s not reported"
                           % (ext.device, ext.attribute, ext.value))
            elif kind == FailureScenario.DUPLICATE:
                changed = (self.state.attribute(ext.device, ext.attribute)
                           != ext.value)
                self.sensor_state_update(ext.device, ext.attribute, ext.value)
                if changed:
                    self._step("failure", "%s duplicated: event %s=%s "
                               "delivered twice"
                               % (ext.device, ext.attribute, ext.value))
                    self._enqueue(Event(DEVICE, device=ext.device,
                                        attribute=ext.attribute,
                                        value=ext.value))
            elif kind == FailureScenario.STALE_READ:
                stale = self.get_attribute(ext.device, ext.attribute)
                self._step("failure", "stale reads: %s.%s cached as %s for "
                           "this cascade" % (ext.device, ext.attribute, stale))
                self.sensor_state_update(ext.device, ext.attribute, ext.value)
                self._stale_reads = {(ext.device, ext.attribute): stale}
            else:
                self.sensor_state_update(ext.device, ext.attribute, ext.value)
        elif ext.kind == "touch":
            self._enqueue(Event(APP, app=ext.app))
        elif ext.kind == "mode":
            # the user sets the location mode from the companion app
            if ext.value != self.state.mode:
                self.state.mode = ext.value
                self._step("mode", "location.mode = %s" % ext.value)
                self._enqueue(Event(LOCATION, attribute="mode",
                                    value=ext.value))
        elif ext.kind == "timer":
            self._fire_timer(ext.app, ext.handler)
        elif ext.kind == "environment":
            self._enqueue(Event(LOCATION, attribute=ext.attribute,
                                value=ext.attribute))

    def dispatch_one_pending(self, index):
        """Concurrent design: dispatch the ``index``-th pending event."""
        pending = list(self.state.pending)
        event = pending.pop(index)
        self.state.pending = tuple(pending)
        self._replay_command_log()
        self.dispatch_event(event)
        self.write_back()
        if not self.state.pending:
            return self.monitor.finish(self.state)
        return self.monitor.violations

    def _replay_command_log(self):
        """Reload this cascade's command history (stored in-state) so that
        conflict detection spans interleaved dispatches."""
        for device_name, command, payload, app_name in self.state.cascade_commands:
            instance = self.system.devices.get(device_name)
            effect = instance.command(command) if instance else None
            self.monitor._commands.append(
                (device_name, command, payload, app_name, effect))

    # ------------------------------------------------------------------
    # Algorithm 1 primitives
    # ------------------------------------------------------------------

    def sensor_state_update(self, device_name, attribute, value):
        """Lines 8-12: update state, enqueue, notify subscribers."""
        if self.state.attribute(device_name, attribute) == value:
            return
        self.state.set_attribute(device_name, attribute, value)
        self.state.record_event(device_name, attribute, value)
        self.steps.append(TraceStep(
            "state", "%s.%s = %s" % (device_name, attribute, value)))
        self._enqueue(Event(DEVICE, device=device_name, attribute=attribute,
                            value=value))

    def actuator_command(self, device_name, command, args, app_name):
        """Lines 14-21 (``actuator_state_update``) plus the §8 checks."""
        instance = self.system.devices.get(device_name)
        effect = instance.command(command) if instance is not None else None
        payload = tuple(_freeze_arg(a) for a in args)
        self._step("command", "%s.%s(%s)" % (
            device_name, command, ", ".join(str(a) for a in payload)),
            app=app_name)
        self.monitor.on_command(device_name, command, payload, app_name, effect)
        self.state.cascade_commands = self.state.cascade_commands + (
            (device_name, command, payload, app_name),)
        if effect is None:
            self._step("log", "unknown command %s on %s" % (command, device_name))
            return
        if self.scenario.drops_command(device_name):
            if self.scenario.kind == FailureScenario.DEVICE_DEATH:
                self.monitor.on_command_dropped(device_name, command, app_name,
                                                "device dead")
                self._step("failure", "%s dead: command %s dropped"
                           % (device_name, command))
            else:
                self.monitor.on_command_dropped(device_name, command, app_name,
                                                "actuator offline")
                self._step("failure", "%s offline: command %s dropped"
                           % (device_name, command))
            return
        value = effect.value
        if effect.takes_arg:
            value = payload[0] if payload else None
        value = _coerce_attribute_value(instance, effect.attribute, value)
        if self.state.attribute(device_name, effect.attribute) == value:
            return  # line 17: no state change, no event
        self.state.set_attribute(device_name, effect.attribute, value)
        self.state.record_event(device_name, effect.attribute, value)
        self._step("state", "%s.%s = %s" % (device_name, effect.attribute, value))
        self._enqueue(Event(DEVICE, device=device_name,
                            attribute=effect.attribute, value=value))

    def dispatch_event(self, event):
        """Line 5: dispatch one pending event to its subscribers."""
        self._dispatched += 1
        if self._dispatched > MAX_INTERNAL_EVENTS:
            self._step("log", "internal event budget exhausted; cascade cut")
            return
        self.steps.append(TraceStep("notify", event.describe()))
        for app_instance, handler, value_filter in self.system.subscribers_for(event):
            if value_filter is not None and str(event.value) != str(value_filter):
                continue
            self._run_handler(app_instance, handler, event)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _enqueue(self, event):
        if self.defer_dispatch:
            self.state.pending = self.state.pending + (event,)
        else:
            self._queue.append(event)

    def _drain(self):
        # the delayed profile delivers cascade events newest-first (LIFO),
        # modeling reordered/deferred delivery; clean delivery is FIFO
        lifo = self.scenario.kind == FailureScenario.REORDER
        while self._queue:
            event = self._queue.pop() if lifo else self._queue.pop(0)
            self.dispatch_event(event)

    def _fire_timer(self, app_name, handler):
        app_instance = self.system.app(app_name)
        if app_instance is None:
            return
        for scheduled_app, scheduled_handler, periodic in self.state.schedules:
            if scheduled_app == app_name and scheduled_handler == handler:
                if not periodic:
                    self.state.remove_schedule(app_name, handler)
                break
        event = Event(TIMER, app=app_name, attribute="time", value="fired")
        self._run_handler(app_instance, handler, event)

    def _run_handler(self, app_instance, handler, event):
        self._step("handler", "%s.%s(%s)" % (
            app_instance.name, handler, event.describe()), app=app_instance.name)
        device_handle = None
        if event.device is not None:
            instance = self.system.devices.get(event.device)
            if instance is not None:
                device_handle = DeviceHandle(instance, self, app_instance.name)
        event_handle = EventHandle(event, self, device_handle)
        try:
            Interpreter(app_instance, self).run_handler(handler, event_handle)
        except ExecutionError as exc:
            self._step("log", "execution error in %s.%s: %s"
                       % (app_instance.name, handler, exc.message))

    def _step(self, kind, text, app=None, line=None):
        self.steps.append(TraceStep(kind, text, app=app, line=line))

    # ------------------------------------------------------------------
    # context protocol (used by the interpreter and the handles)
    # ------------------------------------------------------------------

    def get_attribute(self, device_name, attribute):
        """A device attribute as app code sees it: the stale value
        under the stale-reads scenario, else the state's value, else
        the attribute's declared default."""
        if self._stale_reads is not None:
            stale = self._stale_reads.get((device_name, attribute),
                                          _NO_STALE)
            if stale is not _NO_STALE:
                return stale
        value = self.state.attribute(device_name, attribute)
        if value is None:
            instance = self.system.devices.get(device_name)
            if instance is not None:
                spec = instance.spec.attributes.get(attribute)
                if spec is not None:
                    return spec.default
        return value

    def get_history(self, device_name):
        """One device's bounded event history (for ``eventsSince``)."""
        return self.state.device_history(device_name)

    def get_mode(self):
        """The current location mode."""
        return self.state.mode

    def modes(self):
        """The location modes the system declares."""
        return self.system.modes

    def now_millis(self):
        """The model clock, in milliseconds."""
        return self.state.time

    def app_state(self, app_name):
        """This cascade's working copy of one app's ``state`` map: a
        deep copy of the stored map (a new empty one when the app has
        none), taken on first access.  App code mutates it freely;
        :meth:`write_back` stores it."""
        mapping = self._apps.get(app_name)
        if mapping is None:
            stored = self.state.app_state(app_name)
            mapping = self._apps[app_name] = (
                {} if stored is None else _copy_value(stored))
        return mapping

    def write_back(self):
        """Store every app map this cascade handed out back into the
        state (:meth:`ModelState.set_app_state`); the cascade ends
        here, so the copies are never touched again."""
        for app_name, mapping in self._apps.items():
            self.state.set_app_state(app_name, mapping)
        self._apps = {}

    def log(self, app_name, level, message):
        """Record an app's ``log.<level>`` call as a trace step."""
        self._step("log", "[%s] %s: %s" % (level, app_name, message))

    def set_location_mode(self, mode, app_name):
        """An app's ``setLocationMode``: change the mode and raise a
        mode event, unless the mode is current or undeclared."""
        if mode == self.state.mode:
            return
        if self.system.modes and mode not in self.system.modes:
            self._step("log", "unknown location mode %r requested by %s"
                       % (mode, app_name))
            return
        self.state.mode = mode
        self.monitor.on_actor(app_name)
        self._step("mode", "location.mode = %s" % mode, app=app_name)
        self._enqueue(Event(LOCATION, attribute="mode", value=mode))

    def send_sms(self, app_name, recipient, message, line=None):
        """An app's ``sendSms``: a trace step and a monitor hook."""
        self._step("message", "%s sends SMS to %s: %r"
                   % (app_name, recipient, message), app=app_name, line=line)
        self.monitor.on_sms(app_name, recipient, message)

    def send_push(self, app_name, message, line=None):
        """An app's ``sendPush``: a trace step and a monitor hook."""
        self._step("message", "%s sends push: %r" % (app_name, message),
                   app=app_name, line=line)
        self.monitor.on_push(app_name, message)

    def http_request(self, app_name, api, url, line=None):
        """An app's HTTP call: a trace step and a monitor hook."""
        self._step("message", "%s calls %s(%r)" % (app_name, api, url),
                   app=app_name, line=line)
        self.monitor.on_http(app_name, api, url)

    def security_sensitive_command(self, app_name, command, line=None):
        """A security-sensitive platform call (e.g. ``unsubscribe``):
        a trace step and a monitor hook."""
        self._step("message", "%s executes %s" % (app_name, command),
                   app=app_name, line=line)
        self.monitor.on_security_command(app_name, command)

    def fake_event(self, app_name, attribute, value, line=None):
        """An event an app raises itself (``sendLocationEvent``,
        ``sendEvent``): reported to the monitor and dispatched to every
        subscriber of the attribute."""
        self._step("message", "%s raises fake event %s=%s"
                   % (app_name, attribute, value), app=app_name, line=line)
        self.monitor.on_fake_event(app_name, attribute, value)
        self._enqueue(Event(FAKE, attribute=attribute, value=value,
                            app=app_name))

    def schedule(self, app_name, handler, periodic=False):
        """An app's ``runIn``/``runEvery*``-style call: add the
        callback to the state's schedules."""
        self.state.add_schedule(app_name, handler, periodic=periodic)
        self._step("log", "%s scheduled %s%s"
                   % (app_name, handler, " (periodic)" if periodic else ""))

    def unschedule(self, app_name, handler=None):
        """An app's ``unschedule``: drop one or all of its callbacks."""
        self.state.remove_schedule(app_name, handler)


def _freeze_arg(value):
    if isinstance(value, list):
        return tuple(_freeze_arg(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze_arg(v)) for k, v in value.items()))
    return value


def _coerce_attribute_value(instance, attribute, value):
    """Snap numeric command payloads onto the attribute's model domain."""
    spec = instance.spec.attributes.get(attribute)
    if spec is None or spec.kind != "numeric" or value is None:
        return value
    try:
        numeric = float(value)
    except (TypeError, ValueError):
        return value
    return min(spec.values, key=lambda candidate: abs(candidate - numeric))
