"""The safety monitor: evaluates properties while a cascade executes.

One monitor instance lives for one transition (one external event and its
cascade).  The cascade context calls the hooks; the monitor turns them into
:class:`~repro.checker.violations.Violation` records:

* command hooks implement Algorithm 1 line 16 ("Verify conflicting and
  repeated commands violations");
* operation hooks implement the leakage / security-sensitive-command
  properties;
* :meth:`check_invariants` evaluates the safe-physical-state invariants on
  the quiescent state reached after the cascade;
* :meth:`finish` closes the robustness check (dropped command without a
  user notification).
"""

from repro.checker.compiled import CompiledProperties
from repro.checker.violations import Violation
from repro.devices.capabilities import conflicting_values
from repro.properties.base import (
    KIND_CONFLICT,
    KIND_FAKE_EVENT,
    KIND_LEAKAGE_HTTP,
    KIND_LEAKAGE_SMS,
    KIND_REPEAT,
    KIND_ROBUSTNESS,
    KIND_SECURITY_CMD,
)


class SafetyMonitor:
    """Per-cascade property monitor.

    ``compiled`` supplies the engine's shared
    :class:`~repro.checker.compiled.CompiledProperties` set: its property
    partition and bound invariant checks, and its per-physical-state
    verdict memo.  Without it the monitor compiles ``properties`` itself,
    unmemoized (every invariant evaluated on the state it is given).
    """

    __slots__ = ("system", "violations", "_keys", "_compiled", "_by_kind",
                 "_commands", "_dropped", "_notified", "_actors")

    def __init__(self, system, properties, compiled=None):
        self.system = system
        self.violations = []
        # dedup keys of ``violations`` (a cascade reports each once)
        self._keys = set()
        if compiled is None:
            compiled = CompiledProperties(system, properties, memoize=False)
        self._compiled = compiled
        self._by_kind = compiled.by_kind
        # per-cascade command log: (device, command, payload, app)
        self._commands = []
        # apps whose command was dropped by a failure, and apps that notified
        self._dropped = {}
        self._notified = set()
        # apps that acted during this cascade (for invariant attribution)
        self._actors = []

    # -- command hygiene ------------------------------------------------------

    def on_actor(self, app_name):
        """Record that an app acted (commanded/changed mode) this cascade."""
        if app_name and app_name not in self._actors:
            self._actors.append(app_name)

    def on_command(self, device_name, command, args, app_name, effect):
        """Called for every actuator command before it is applied."""
        self.on_actor(app_name)
        payload = tuple(args)
        conflict_prop = self._by_kind.get(KIND_CONFLICT)
        repeat_prop = self._by_kind.get(KIND_REPEAT)
        for prev_device, prev_command, prev_payload, prev_app, prev_effect in self._commands:
            if prev_device != device_name:
                continue
            if repeat_prop and prev_command == command and prev_payload == payload:
                self._report(repeat_prop,
                             "%s received repeated '%s' commands (from %s and %s)"
                             % (device_name, command, prev_app, app_name),
                             apps=(prev_app, app_name))
            if (conflict_prop and effect is not None and prev_effect is not None
                    and effect.attribute == prev_effect.attribute):
                value_a = prev_effect.value if not prev_effect.takes_arg else (
                    prev_payload[0] if prev_payload else None)
                value_b = effect.value if not effect.takes_arg else (
                    payload[0] if payload else None)
                if (value_a is not None and value_b is not None
                        and conflicting_values(str(value_a), str(value_b))):
                    self._report(conflict_prop,
                                 "%s received conflicting commands '%s' and "
                                 "'%s' (from %s and %s)"
                                 % (device_name, prev_command, command,
                                    prev_app, app_name),
                                 apps=(prev_app, app_name))
        self._commands.append((device_name, command, payload, app_name, effect))

    # -- leakage / suspicious behaviour -----------------------------------------

    def on_http(self, app_name, api, url):
        prop = self._by_kind.get(KIND_LEAKAGE_HTTP)
        if prop is None:
            return
        if self.system.is_http_allowed(app_name, url):
            return
        self._report(prop, "%s invoked network interface %s(%r)"
                     % (app_name, api, url), apps=(app_name,))

    def on_sms(self, app_name, recipient, message):
        self._notified.add(app_name)
        prop = self._by_kind.get(KIND_LEAKAGE_SMS)
        if prop is None:
            return
        if recipient and recipient in self.system.contacts:
            return
        if not recipient and not self.system.contacts:
            return
        self._report(prop, "%s sent SMS to unconfigured recipient %r"
                     % (app_name, recipient), apps=(app_name,))

    def on_push(self, app_name, message):
        self._notified.add(app_name)

    def on_security_command(self, app_name, command):
        prop = self._by_kind.get(KIND_SECURITY_CMD)
        if prop is None:
            return
        self._report(prop, "%s executed security-sensitive command '%s'"
                     % (app_name, command), apps=(app_name,))

    def on_fake_event(self, app_name, attribute, value):
        prop = self._by_kind.get(KIND_FAKE_EVENT)
        if prop is None:
            return
        self._report(prop, "%s created fake event %s=%s"
                     % (app_name, attribute, value), apps=(app_name,))

    def on_command_dropped(self, device_name, command, app_name, reason):
        self._dropped.setdefault(app_name, []).append(
            (device_name, command, reason))

    # -- invariants & cascade end -----------------------------------------------

    def check_invariants(self, state):
        """Evaluate the physical-state invariants on a quiescent state.

        Violations are attributed to the apps that acted during the
        cascade that produced the state (Table 5's "apps related to
        example" column)."""
        compiled = self._compiled
        for prop in compiled.failed_invariants(state):
            # when no app acted, an *obligation* invariant (actuator must
            # be in some state) falls on the apps wired to its role
            # actuators
            apps = tuple(self._actors) or compiled.obligation_apps[prop]
            self._report(prop,
                         "unsafe physical state: %s" % prop.description,
                         apps=apps)

    def finish(self, state):
        """Close per-cascade checks; returns collected violations."""
        robustness = self._by_kind.get(KIND_ROBUSTNESS)
        if robustness is not None:
            for app_name, drops in self._dropped.items():
                if app_name in self._notified:
                    continue
                device_name, command, reason = drops[0]
                self._report(
                    robustness,
                    "%s did not verify/notify after command '%s' to %s was "
                    "dropped (%s)" % (app_name, command, device_name, reason),
                    apps=(app_name,))
        self.check_invariants(state)
        return self.violations

    def _report(self, prop, message, apps=()):
        violation = Violation(prop, message, apps=apps)
        key = violation.dedup_key()
        if key not in self._keys:
            self._keys.add(key)
            self.violations.append(violation)
