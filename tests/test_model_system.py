"""Unit tests for IoTSystem: subscription routing, external choices,
transition relations (sequential and concurrent)."""

import pytest

from repro.checker.monitor import SafetyMonitor
from repro.model.events import APP, DEVICE, LOCATION, Event, ExternalEvent
from repro.properties import build_properties


def monitor_factory_for(system):
    return lambda: SafetyMonitor(system, build_properties())


class TestSubscriptionResolution:
    def test_device_subscriptions_resolved_per_device(self, alice_system):
        device_subs = [s for s in alice_system.subscriptions
                       if s.source_kind == "device"]
        assert any(s.device == "alicePresence" and s.attribute == "presence"
                   for s in device_subs)

    def test_location_subscription_resolved(self, alice_system):
        assert any(s.source_kind == "location"
                   for s in alice_system.subscriptions)

    def test_app_touch_subscription_resolved(self, alice_system):
        assert any(s.source_kind == "app"
                   for s in alice_system.subscriptions)


class TestSubscribersFor:
    def test_device_event_routing(self, alice_system):
        event = Event(DEVICE, device="alicePresence", attribute="presence",
                      value="not present")
        matches = alice_system.subscribers_for(event)
        assert [(a.name, h) for a, h, _v in matches] == [
            ("Auto Mode Change", "presenceHandler")]

    def test_unrelated_device_event_no_subscribers(self, alice_system):
        event = Event(DEVICE, device="doorLock", attribute="battery",
                      value="20")
        assert alice_system.subscribers_for(event) == []

    def test_location_mode_event_routing(self, alice_system):
        event = Event(LOCATION, attribute="mode", value="Away")
        matches = alice_system.subscribers_for(event)
        assert any(a.name == "Unlock Door" for a, _h, _v in matches)

    def test_app_touch_routing(self, alice_system):
        event = Event(APP, app="Unlock Door")
        matches = alice_system.subscribers_for(event)
        assert [(a.name, h) for a, h, _v in matches] == [
            ("Unlock Door", "appTouch")]


class TestExternalChoices:
    def test_sensor_choices_exclude_current_value(self, alice_system):
        state = alice_system.initial_state()
        sensor_choices = [c for c in alice_system.external_choices(state)
                          if c.kind == "sensor"
                          and c.attribute == "presence"]
        values = {c.value for c in sensor_choices}
        assert values == {"not present"}  # current is "present"

    def test_touch_choice_for_touch_apps(self, alice_system):
        state = alice_system.initial_state()
        touches = [c for c in alice_system.external_choices(state)
                   if c.kind == "touch"]
        assert [t.app for t in touches] == ["Unlock Door"]

    def test_timer_choice_for_scheduled_callback(self, alice_system):
        state = alice_system.initial_state()
        state.add_schedule("Unlock Door", "someTimer")
        timers = [c for c in alice_system.external_choices(state)
                  if c.kind == "timer"]
        assert ("Unlock Door", "someTimer") in [(t.app, t.handler)
                                                for t in timers]


class TestSequentialTransitions:
    def test_transitions_cover_all_choices(self, alice_system):
        state = alice_system.initial_state()
        transitions = list(alice_system.transitions(
            state, monitor_factory_for(alice_system)))
        choices = alice_system.external_choices(state)
        assert len(transitions) == len(choices)  # failures disabled

    def test_transition_does_not_mutate_source(self, alice_system):
        state = alice_system.initial_state()
        before = state.canonical_key()
        list(alice_system.transitions(state,
                                      monitor_factory_for(alice_system)))
        assert state.canonical_key() == before

    def test_failure_enumeration_multiplies_transitions(self, generator,
                                                        alice_config):
        system = generator.build(alice_config, enable_failures=True)
        state = system.initial_state()
        plain = generator.build(alice_config)
        n_plain = len(list(plain.transitions(
            state, monitor_factory_for(plain))))
        n_fail = len(list(system.transitions(
            state, monitor_factory_for(system))))
        assert n_fail > n_plain


class TestConcurrentTransitions:
    def test_external_injection_defers_dispatch(self, alice_system):
        state = alice_system.initial_state()
        transitions = list(alice_system.transitions_concurrent(
            state, monitor_factory_for(alice_system), externals_left=1))
        injected = [t for t in transitions if t[2]]  # consumed=True
        assert injected
        _label, new_state, _consumed, _violations, _steps = injected[0]
        # the cyber event is parked, not dispatched run-to-completion
        assert new_state.pending

    def test_dispatch_consumes_pending(self, alice_system):
        state = alice_system.initial_state()
        injected = [t for t in alice_system.transitions_concurrent(
            state, monitor_factory_for(alice_system), externals_left=1)
            if t[2]]
        mid_state = injected[0][1]
        dispatches = [t for t in alice_system.transitions_concurrent(
            mid_state, monitor_factory_for(alice_system), externals_left=0)
            if not t[2]]
        assert len(dispatches) == len(mid_state.pending)

    def test_no_externals_left_blocks_injection(self, alice_system):
        state = alice_system.initial_state()
        transitions = list(alice_system.transitions_concurrent(
            state, monitor_factory_for(alice_system), externals_left=0))
        assert all(not t[2] for t in transitions)


class TestRolesAndModes:
    def test_role_and_role_list(self, alice_system):
        assert alice_system.role("main_door_lock") == "doorLock"
        assert alice_system.role_list("main_door_lock") == ["doorLock"]
        assert alice_system.role("ghost_role") is None
        assert alice_system.role_list("ghost_role") == []

    def test_mode_defaults(self, alice_system):
        assert alice_system.away_mode == "Away"
        assert alice_system.home_mode == "Home"
        assert alice_system.night_mode == "Night"

    def test_initial_state_seeds_devices(self, alice_system):
        state = alice_system.initial_state()
        assert state.attribute("doorLock", "lock") == "locked"
        assert state.attribute("alicePresence", "presence") == "present"

    def test_http_allowlist(self, generator, alice_config):
        alice_config.http_allowed = ["Unlock Door"]
        system = generator.build(alice_config)
        assert system.is_http_allowed("Unlock Door", "http://x")
        assert not system.is_http_allowed("Auto Mode Change", "http://x")
