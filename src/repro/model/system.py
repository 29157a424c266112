"""The bound IoT system: devices + app instances + subscriptions.

An :class:`IoTSystem` is the transition system the checker explores.  It
offers the sequential transition relation (Algorithm 1: one external event,
run-to-completion cascade) and the concurrent one (§8 Concurrency Model:
interleavings of pending internal events), both with optional failure
enumeration.
"""

from repro.groovy import ast
from repro.model.cascade import Cascade, FailureScenario, NO_FAILURE
from repro.model.events import APP, DEVICE, FAKE, LOCATION, ExternalEvent
from repro.model.faults import CLEAN
from repro.model.state import ModelState
from repro.translator.lowering import lower_program


class AppInstance:
    """One installed app: parsed definition + lowered IR + input bindings."""

    def __init__(self, smart_app, bindings, instance_name=None):
        self.smart_app = smart_app
        self.name = instance_name or smart_app.name
        self.bindings = dict(bindings)
        self._ir = lower_program(smart_app.program)
        self._methods = {m.name: m for m in self._ir.methods}
        self._input_decls = {i.name: i for i in smart_app.inputs}
        self._binding_plan = None

    def method(self, name):
        return self._methods.get(name)

    def binding_names(self):
        return list(self.bindings.keys())

    def binding(self, input_name):
        return self.bindings.get(input_name)

    def binding_plan(self):
        """Static shape of every binding: ``(name, is_device, payload,
        wants_group)`` tuples, computed once per instance.

        The interpreter rebuilds its environment per handler run (handles
        wrap the per-cascade context); this plan hoists the per-input
        declaration lookups and shape checks out of that inner loop.
        """
        if self._binding_plan is None:
            plan = []
            for input_name, value in self.bindings.items():
                declaration = self._input_decls.get(input_name)
                if (value is not None and declaration is not None
                        and declaration.is_device):
                    names = value if isinstance(value, list) else [value]
                    plan.append((input_name, True, list(names),
                                 declaration.multiple))
                else:
                    plan.append((input_name, False, value, False))
            self._binding_plan = plan
        return self._binding_plan

    def bound_devices(self, input_name):
        """Device names bound to a device input (empty for value inputs)."""
        value = self.bindings.get(input_name)
        if value is None:
            return []
        names = value if isinstance(value, list) else [value]
        return [n for n in names if isinstance(n, str)]

    def __repr__(self):
        return "AppInstance(%r)" % (self.name,)


class ResolvedSubscription:
    """A subscription bound to a concrete device (or location/app source)."""

    __slots__ = ("app", "handler", "source_kind", "device", "attribute", "value")

    def __init__(self, app, handler, source_kind, device, attribute, value):
        self.app = app
        self.handler = handler
        self.source_kind = source_kind  # "device" | "location" | "app"
        self.device = device
        self.attribute = attribute
        self.value = value

    def __repr__(self):
        return "ResolvedSubscription(%s/%s/%s -> %s.%s)" % (
            self.device or self.source_kind, self.attribute, self.value or "...",
            self.app.name, self.handler)


class IoTSystem:
    """Devices, installed apps, subscription routing, and the transition
    relations used by the explorer."""

    def __init__(self, devices, apps, contacts=(), modes=("Home", "Away", "Night"),
                 initial_mode="Home", association=None, http_allowed=(),
                 enable_failures=False, user_mode_events=False):
        #: name -> DeviceInstance
        self.devices = dict(devices)
        #: installed apps in install order
        self.apps = list(apps)
        self.contacts = list(contacts)
        self.modes = list(modes)
        self.initial_mode = initial_mode
        self.association = dict(association or {})
        self.http_allowed = set(http_allowed)
        self.enable_failures = enable_failures
        #: the active fault-injection profile (see :mod:`repro.model.faults`);
        #: the engine sets this from ``EngineOptions.scenario``.  Orthogonal
        #: to ``enable_failures`` (the §8 offline enumeration): both extend
        #: :meth:`failure_scenarios` additively
        self.scenario_profile = CLEAN
        #: when set, the user changing the location mode from the companion
        #: app is an environment choice (used by the Output Analyzer so
        #: mode-triggered apps can be vetted in isolation, §9/§10.3)
        self.user_mode_events = user_mode_events
        self.subscriptions = self._resolve_subscriptions()
        # transition-relation caches, built lazily on first use; all derive
        # from construction-time data (subscriptions, specs, association)
        self._sub_index = None
        self._interesting_pairs = None
        self._sensor_event_table = None
        self._static_choices = None
        self._changes_mode = None
        self._state_schema = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _resolve_subscriptions(self):
        resolved = []
        for app in self.apps:
            for sub in app.smart_app.subscriptions:
                if sub.source == "location":
                    resolved.append(ResolvedSubscription(
                        app, sub.handler, "location", None,
                        sub.attribute or "mode", sub.value))
                elif sub.source == "app":
                    resolved.append(ResolvedSubscription(
                        app, sub.handler, "app", None, "app", None))
                else:
                    for device_name in app.bound_devices(sub.source):
                        resolved.append(ResolvedSubscription(
                            app, sub.handler, "device", device_name,
                            sub.attribute, sub.value))
        return resolved

    def app(self, name):
        for app in self.apps:
            if app.name == name:
                return app
        return None

    # ------------------------------------------------------------------
    # roles (device association info)
    # ------------------------------------------------------------------

    def role(self, name):
        value = self.association.get(name)
        if isinstance(value, list):
            return value[0] if value else None
        return value

    def role_list(self, name):
        value = self.association.get(name)
        if value is None:
            return []
        if isinstance(value, list):
            return list(value)
        return [value]

    def has_role(self, name):
        value = self.association.get(name)
        if isinstance(value, list):
            return bool(value)
        return value is not None

    def changes_mode(self):
        """Whether any installed app can change the location mode.

        Obligation properties on the mode ("mode must change to Away when
        nobody is home") are only meaningful when some app manages modes -
        the environment alone can never satisfy them.  Every app's AST is
        walked once per system.
        """
        if self._changes_mode is None:
            self._changes_mode = any(
                isinstance(node, (ast.Call, ast.MethodCall))
                and node.name == "setLocationMode"
                for app in self.apps for node in app.smart_app.program.walk())
        return self._changes_mode

    @property
    def away_mode(self):
        return self.association.get("away_mode", "Away")

    @property
    def home_mode(self):
        return self.association.get("home_mode", "Home")

    @property
    def night_mode(self):
        return self.association.get("night_mode", "Night")

    def is_http_allowed(self, app_name, url):
        return app_name in self.http_allowed

    # ------------------------------------------------------------------
    # state & events
    # ------------------------------------------------------------------

    def initial_state(self):
        state = ModelState(mode=self.initial_mode)
        for name, instance in self.devices.items():
            for attribute, value in instance.initial_attributes().items():
                state.set_attribute(name, attribute, value)
        for app in self.apps:
            state.set_app_state(app.name, {})
            # cron-style schedules registered in installed()/initialize()
            # exist from the start; runIn timers appear dynamically
            for api, handler, _line in app.smart_app.schedules:
                if api.startswith(("schedule", "runEvery", "runDaily")):
                    state.add_schedule(app.name, handler, periodic=True)
        return state

    def state_schema(self):
        """The packed-state layout of this system (compiled once).

        Keys every visited store that packs or interns states; derives
        only from construction-time data (device specs, installed apps).
        """
        if self._state_schema is None:
            from repro.model.schema import StateSchema
            self._state_schema = StateSchema(self)
        return self._state_schema

    def _subscriber_index(self):
        """Routing tables keyed by event source, preserving install order."""
        if self._sub_index is None:
            device_index, app_index, fake_index, location_subs = {}, {}, {}, []
            for sub in self.subscriptions:
                if sub.source_kind == "device":
                    device_index.setdefault(
                        (sub.device, sub.attribute), []).append(
                            (sub.app, sub.handler, sub.value))
                    # Fake events reach every subscription on the attribute.
                    fake_index.setdefault(sub.attribute, []).append(
                        (sub.app, sub.handler, sub.value))
                elif sub.source_kind == "location":
                    location_subs.append(sub)
                elif sub.source_kind == "app":
                    app_index.setdefault(sub.app.name, []).append(
                        (sub.app, sub.handler, None))
            self._sub_index = (device_index, location_subs, app_index,
                               fake_index)
        return self._sub_index

    def subscribers_for(self, event):
        """Subscribed (app, handler, value filter) triples, install order."""
        device_index, location_subs, app_index, fake_index = (
            self._subscriber_index())
        if event.source == DEVICE:
            return device_index.get((event.device, event.attribute), [])
        if event.source == LOCATION:
            matches = []
            for sub in location_subs:
                if sub.attribute in (event.attribute, None, "mode"):
                    if event.attribute == "mode" and sub.attribute != "mode":
                        continue
                    if (event.attribute != "mode"
                            and sub.attribute != event.attribute):
                        continue
                    matches.append((sub.app, sub.handler, sub.value))
            return matches
        if event.source == APP:
            return app_index.get(event.app, [])
        if event.source == FAKE:
            return fake_index.get(event.attribute, [])
        return []

    def _interesting_device_attributes(self):
        """(device, attribute) pairs worth generating external events for:
        subscribed attributes plus attributes referenced by property roles.

        Depends only on construction-time data, so it is computed once."""
        if self._interesting_pairs is not None:
            return self._interesting_pairs
        pairs = []
        seen = set()
        for sub in self.subscriptions:
            if sub.source_kind != "device":
                continue
            device = self.devices.get(sub.device)
            if device is None:
                continue
            if sub.attribute in device.spec.sensor_attributes:
                key = (sub.device, sub.attribute)
                if key not in seen:
                    seen.add(key)
                    pairs.append(key)
        for role_value in self.association.values():
            names = role_value if isinstance(role_value, list) else [role_value]
            for name in names:
                device = self.devices.get(name) if isinstance(name, str) else None
                if device is None:
                    continue
                for attribute in device.spec.sensor_attributes:
                    key = (name, attribute)
                    if key not in seen:
                        seen.add(key)
                        pairs.append(key)
        if not pairs:
            for name, device in self.devices.items():
                for attribute in device.spec.sensor_attributes:
                    pairs.append((name, attribute))
        self._interesting_pairs = pairs
        return pairs

    def _sensor_events(self):
        """Pre-built sensor :class:`ExternalEvent` objects per attribute.

        Events are immutable, so one object per (device, attribute, value)
        is shared by every transition that injects it; the per-state work
        in :meth:`external_choices` reduces to filtering out the current
        value."""
        if self._sensor_event_table is None:
            table = []
            for device_name, attribute in self._interesting_device_attributes():
                spec = self.devices[device_name].spec.sensor_attributes.get(
                    attribute)
                values = list(spec.values) if spec is not None else []
                table.append((device_name, attribute, [
                    (value, ExternalEvent("sensor", device=device_name,
                                          attribute=attribute, value=value))
                    for value in values]))
            self._sensor_event_table = table
        return self._sensor_event_table

    def _state_independent_choices(self):
        """App-touch and sunrise/sunset choices (fixed per system)."""
        if self._static_choices is None:
            choices = []
            touched = set()
            for sub in self.subscriptions:
                if sub.source_kind == "app" and sub.app.name not in touched:
                    touched.add(sub.app.name)
                    choices.append(ExternalEvent("touch", app=sub.app.name))
            for sub in self.subscriptions:
                if sub.source_kind == "location" and sub.attribute in (
                        "sunrise", "sunset"):
                    choices.append(ExternalEvent("environment",
                                                 attribute=sub.attribute))
            self._static_choices = choices
        return self._static_choices

    def external_choices(self, state):
        """Algorithm 1 line 2: the environment's choices at this point."""
        choices = []
        for device_name, attribute, events in self._sensor_events():
            current = state.attribute(device_name, attribute)
            for value, event in events:
                if value != current:
                    choices.append(event)
        choices.extend(self._state_independent_choices())
        for app_name, handler, _periodic in state.schedules:
            choices.append(ExternalEvent("timer", app=app_name, handler=handler))
        if self.user_mode_events:
            for mode in self.modes:
                if mode != state.mode:
                    choices.append(ExternalEvent("mode", value=mode))
        return choices

    def failure_scenarios(self, ext):
        """Failure enumeration for one external event: the §8 offline
        scenarios (when ``enable_failures``) plus the active scenario
        profile's variants (when non-clean)."""
        scenarios = [NO_FAILURE]
        if self.enable_failures:
            if ext.kind == "sensor":
                scenarios.append(FailureScenario(FailureScenario.SENSOR_DROP,
                                                 ext.device))
            for name, device in sorted(self.devices.items()):
                if device.spec.is_actuator:
                    scenarios.append(FailureScenario(
                        FailureScenario.ACTUATOR_DROP, name))
        profile = self.scenario_profile
        if not profile.is_clean:
            scenarios.extend(profile.variants(self, ext))
        return scenarios

    # ------------------------------------------------------------------
    # transition relations
    # ------------------------------------------------------------------

    def transitions(self, state, monitor_factory):
        """Sequential design: yield (label, new_state, violations, steps)."""
        for ext in self.external_choices(state):
            for scenario in self.failure_scenarios(ext):
                new_state = state.copy()
                new_state.cascade_commands = ()
                monitor = monitor_factory()
                cascade = Cascade(self, new_state, monitor, scenario=scenario)
                violations = cascade.run_external(ext)
                suffix = scenario.label()
                yield (ext.label() + suffix if suffix else ext.label(),
                       new_state, True, violations, cascade.steps)

    def transitions_concurrent(self, state, monitor_factory, externals_left):
        """Concurrent design: interleave pending dispatches and injections."""
        for index in range(len(state.pending)):
            new_state = state.copy()
            monitor = monitor_factory()
            cascade = Cascade(self, new_state, monitor, defer_dispatch=True)
            violations = cascade.dispatch_one_pending(index)
            if not new_state.pending:
                new_state.cascade_commands = ()
            yield ("dispatch %s" % state.pending[index].describe(), new_state,
                   False, violations, cascade.steps)
        # A new external event is only injected once the previous event's
        # cyber events have drained: interleaving is per-cascade, so the
        # "single external event" scope of the conflict/repeat checks is
        # preserved (Algorithm 1 line 16).
        if externals_left > 0 and not state.pending:
            for ext in self.external_choices(state):
                for scenario in self.failure_scenarios(ext):
                    new_state = state.copy()
                    new_state.cascade_commands = ()
                    monitor = monitor_factory()
                    cascade = Cascade(self, new_state, monitor,
                                      scenario=scenario, defer_dispatch=True)
                    violations = cascade.run_external(ext)
                    yield (ext.label() + scenario.label(), new_state, True,
                           violations, cascade.steps)

    def __repr__(self):
        return "IoTSystem(devices=%d, apps=%d, subs=%d)" % (
            len(self.devices), len(self.apps), len(self.subscriptions))
