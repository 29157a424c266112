"""Unit tests for the safety monitor's hooks (conflicts, repeats, leakage,
security commands, fake events, robustness)."""

import pytest

from repro.checker.monitor import SafetyMonitor
from repro.properties import build_properties


@pytest.fixture()
def monitor(alice_system):
    return SafetyMonitor(alice_system, build_properties())


def effect_of(system, device, command):
    return system.devices[device].command(command)


class TestConflictingCommands:
    def test_on_off_conflict_detected(self, alice_system, monitor):
        lock = effect_of(alice_system, "doorLock", "lock")
        unlock = effect_of(alice_system, "doorLock", "unlock")
        monitor.on_command("doorLock", "lock", (), "A", lock)
        monitor.on_command("doorLock", "unlock", (), "B", unlock)
        assert any(v.property.id == "P39" for v in monitor.violations)

    def test_conflict_names_both_apps(self, alice_system, monitor):
        lock = effect_of(alice_system, "doorLock", "lock")
        unlock = effect_of(alice_system, "doorLock", "unlock")
        monitor.on_command("doorLock", "lock", (), "A", lock)
        monitor.on_command("doorLock", "unlock", (), "B", unlock)
        violation = next(v for v in monitor.violations
                         if v.property.id == "P39")
        assert set(violation.apps) == {"A", "B"}

    def test_different_devices_no_conflict(self, alice_system, monitor):
        lock = effect_of(alice_system, "doorLock", "lock")
        monitor.on_command("doorLock", "lock", (), "A", lock)
        monitor.on_command("otherLock", "unlock", (), "B",
                           effect_of(alice_system, "doorLock", "unlock"))
        assert not any(v.property.id == "P39" for v in monitor.violations)


class TestRepeatedCommands:
    def test_same_command_twice_detected(self, alice_system, monitor):
        unlock = effect_of(alice_system, "doorLock", "unlock")
        monitor.on_command("doorLock", "unlock", (), "A", unlock)
        monitor.on_command("doorLock", "unlock", (), "B", unlock)
        assert any(v.property.id == "P40" for v in monitor.violations)

    def test_different_payloads_not_repeated(self, alice_system, monitor):
        effect = effect_of(alice_system, "doorLock", "unlock")
        monitor.on_command("doorLock", "unlock", ("a",), "A", effect)
        monitor.on_command("doorLock", "unlock", ("b",), "B", effect)
        assert not any(v.property.id == "P40" for v in monitor.violations)


class TestLeakage:
    def test_http_flagged(self, monitor):
        monitor.on_http("EvilApp", "httpPost", "http://evil.example")
        assert any(v.property.id == "P41" for v in monitor.violations)

    def test_http_allowed_apps_pass(self, generator, alice_config):
        alice_config.http_allowed = ["GoodApp"]
        system = generator.build(alice_config)
        monitor = SafetyMonitor(system, build_properties())
        monitor.on_http("GoodApp", "httpPost", "http://vendor.example")
        assert not monitor.violations

    def test_sms_to_configured_contact_ok(self, monitor):
        monitor.on_sms("App", "+1-555-0100", "hello")
        assert not monitor.violations

    def test_sms_to_unknown_recipient_flagged(self, monitor):
        monitor.on_sms("App", "+1-999-9999", "secret")
        assert any(v.property.id == "P42" for v in monitor.violations)

    def test_security_command_flagged(self, monitor):
        monitor.on_security_command("App", "unsubscribe")
        assert any(v.property.id == "P43" for v in monitor.violations)

    def test_fake_event_flagged(self, monitor):
        monitor.on_fake_event("App", "carbonMonoxide", "detected")
        assert any(v.property.id == "P44" for v in monitor.violations)


class TestRobustness:
    def test_dropped_command_without_notification(self, alice_system,
                                                  monitor):
        monitor.on_command_dropped("doorLock", "lock", "App", "offline")
        violations = monitor.finish(alice_system.initial_state())
        assert any(v.property.id == "P45" for v in violations)

    def test_dropped_command_with_sms_ok(self, alice_system, monitor):
        monitor.on_command_dropped("doorLock", "lock", "App", "offline")
        monitor.on_sms("App", "+1-555-0100", "lock failed!")
        violations = monitor.finish(alice_system.initial_state())
        assert not any(v.property.id == "P45" for v in violations)

    def test_dropped_command_with_push_ok(self, alice_system, monitor):
        monitor.on_command_dropped("doorLock", "lock", "App", "offline")
        monitor.on_push("App", "lock failed!")
        violations = monitor.finish(alice_system.initial_state())
        assert not any(v.property.id == "P45" for v in violations)


class TestInvariantChecking:
    def test_unsafe_state_reported(self, alice_system, monitor):
        state = alice_system.initial_state()
        state.set_attribute("alicePresence", "presence", "not present")
        state.set_attribute("doorLock", "lock", "unlocked")
        monitor.check_invariants(state)
        assert any(v.property.id == "P06" for v in monitor.violations)

    def test_safe_state_clean(self, alice_system, monitor):
        monitor.check_invariants(alice_system.initial_state())
        assert not monitor.violations

    def test_actor_attribution(self, alice_system, monitor):
        monitor.on_actor("Unlock Door")
        state = alice_system.initial_state()
        state.set_attribute("alicePresence", "presence", "not present")
        state.set_attribute("doorLock", "lock", "unlocked")
        monitor.check_invariants(state)
        violation = next(v for v in monitor.violations
                         if v.property.id == "P06")
        assert "Unlock Door" in violation.apps

    def test_duplicate_violations_deduplicated(self, alice_system, monitor):
        state = alice_system.initial_state()
        state.set_attribute("alicePresence", "presence", "not present")
        state.set_attribute("doorLock", "lock", "unlocked")
        monitor.check_invariants(state)
        monitor.check_invariants(state)
        p06 = [v for v in monitor.violations if v.property.id == "P06"]
        assert len(p06) == 1

    def test_inapplicable_invariants_skipped(self, alice_system):
        """Properties whose roles are unbound never fire (no heater here)."""
        monitor = SafetyMonitor(alice_system, build_properties())
        state = alice_system.initial_state()
        monitor.check_invariants(state)
        assert not any(v.property.id in ("P01", "P02", "P03")
                       for v in monitor.violations)


class TestReportOrder:
    def test_repeated_commands_report_each_violation_once(self, alice_system,
                                                         monitor):
        """Every distinct violation is reported once, in the order it was
        first reported, however often the cascade repeats it."""
        lock = effect_of(alice_system, "doorLock", "lock")
        unlock = effect_of(alice_system, "doorLock", "unlock")
        for app in ("A", "B", "A", "B"):
            monitor.on_command("doorLock", "unlock", (), app, unlock)
        monitor.on_command("doorLock", "lock", (), "C", lock)
        repeated = "doorLock received repeated 'unlock' commands (from %s)"
        conflicting = ("doorLock received conflicting commands 'unlock' and "
                       "'lock' (from %s)")
        assert [v.message for v in monitor.violations] == [
            repeated % "A and B", repeated % "A and A",
            repeated % "B and A", repeated % "B and B",
            conflicting % "A and C", conflicting % "B and C"]
