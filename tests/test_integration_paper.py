"""Paper-level integration tests: each maps to a claim in §10/§11.

These are the slowest tests in the suite; they run the real pipeline on
the bundled corpus with small exploration bounds.
"""

import pytest

from repro import check_configuration
from repro.engine import EngineOptions, ExplorationEngine, verify
from repro.corpus.groups import EXPERT_GROUPS, expert_configuration
from repro.properties import build_properties, select_relevant


class TestFig7EndToEnd:
    """§8's running example: Auto Mode Change + Unlock Door."""

    def test_violation_found(self, alice_config):
        result = check_configuration(alice_config, max_events=2)
        assert "P06" in result.violated_property_ids

    def test_counterexample_chain(self, alice_config, generator):
        system = generator.build(alice_config)
        result = verify(system, build_properties(), max_events=1)
        steps = result.counterexample_for("P06").all_steps()
        texts = [s.text for s in steps]
        # (1) not present generated, (2) mode -> Away, (3) unlock command
        assert any("not present" in t for t in texts)
        assert any("location.mode = Away" in t for t in texts)
        assert any("unlock" in t for t in texts)

    def test_four_app_chain_detectable(self, generator):
        """Fig 8a: Light Follows Me + Light Off When Close + Good Night +
        Unlock Door interact to unlock the door at night."""
        from repro.config.schema import SystemConfiguration

        config = SystemConfiguration(contacts=["+1-555-0100"])
        config.add_device("frontDoorLock", "zwave-lock")
        config.add_device("frontContact", "smartsense-multi")
        config.add_device("livRoomMotion", "smartsense-motion")
        config.add_device("light1", "smart-outlet")
        config.add_device("light2", "smart-outlet")
        config.association["main_door_lock"] = "frontDoorLock"
        config.add_app("Light Follows Me", {
            "motion1": "livRoomMotion", "minutes1": 1,
            "switches": ["light1"]})
        config.add_app("Light Off When Close", {
            "contact1": "frontContact", "switches": ["light2"]})
        config.add_app("Good Night", {
            "lights": ["light1", "light2"],
            "motionSensor": "livRoomMotion", "nightMode": "Night"})
        config.add_app("Unlock Door", {"lock1": "frontDoorLock"})
        system = __import__("repro").build_system(config)
        result = verify(system, build_properties(), max_events=4,
                        max_states=150000)
        ce = result.counterexample_for("P07")
        assert ce is not None
        apps = set(ce.violation.apps)
        assert "Unlock Door" in apps
        assert "Good Night" in apps


class TestTable5Shape:
    """Market apps with expert configurations (§10.2)."""

    @pytest.fixture(scope="class")
    def group_results(self, generator):
        results = {}
        for group_name in EXPERT_GROUPS:
            config = expert_configuration(group_name)
            system = generator.build(config)
            properties = select_relevant(system, build_properties())
            options = EngineOptions(max_events=2, max_states=60000)
            results[group_name] = ExplorationEngine(
                system, properties, options).run()
        return results

    def test_every_violation_type_found(self, group_results):
        kinds = set()
        for result in group_results.values():
            kinds.update(v.property.kind for v in result.violations)
        assert {"conflict", "repeat", "invariant"} <= kinds

    def test_conflicting_commands_pair(self, group_results):
        """Table 5 row 1: (Brighten Dark Places, Let There Be Dark)."""
        lighting = group_results["group2-lighting"]
        conflict = next(v for v in lighting.violations
                        if v.property.kind == "conflict"
                        and "Brighten Dark Places" in v.apps)
        assert "Let There Be Dark!" in conflict.apps

    def test_unsafe_physical_state_found(self, group_results):
        entry = group_results["group1-entry-and-mode"]
        assert "P06" in entry.violated_property_ids

    def test_total_violations_in_paper_band(self, group_results):
        """38 violations of 11 properties in the paper; the shape (tens of
        violations, ~10 properties) must hold."""
        total = sum(len(r.violations) for r in group_results.values())
        properties = set()
        for result in group_results.values():
            properties.update(result.violated_property_ids)
        assert 15 <= total <= 80
        assert 8 <= len(properties) <= 20


class TestFailuresAddViolations:
    """§10.2: device/communication failures violate additional properties."""

    def test_failures_strictly_add(self, generator):
        config = expert_configuration("group1-entry-and-mode")
        plain = generator.build(config)
        failing = generator.build(config, enable_failures=True)
        properties = select_relevant(plain, build_properties())
        options = EngineOptions(max_events=2, max_states=60000)
        base = ExplorationEngine(plain, properties, options).run()
        with_failures = ExplorationEngine(failing, properties, options).run()
        assert set(base.violated_property_ids) <= set(
            with_failures.violated_property_ids)
        assert len(with_failures.violations) > len(base.violations)

    def test_robustness_gap_found(self, generator):
        """'None of the analyzed apps check if the commands sent to the
        actuators were actually carried out' - P45 fires under failures."""
        config = expert_configuration("group1-entry-and-mode")
        failing = generator.build(config, enable_failures=True)
        properties = select_relevant(failing, build_properties())
        result = ExplorationEngine(failing, properties,
                                   EngineOptions(max_events=2,
                                                 max_states=60000)).run()
        assert "P45" in result.violated_property_ids


class TestAttributionAccuracy:
    """§10.3: 9/9 malicious apps attributed, quickly sampled here."""

    @pytest.mark.parametrize("app_name", [
        "Fake CO Alarm", "Away Door Unlocker", "Smoke Valve Closer"])
    def test_malicious_sample_flagged(self, registry, app_name):
        from repro.attribution import OutputAnalyzer
        from repro.attribution.volunteers import full_house

        analyzer = OutputAnalyzer(registry, max_configs=8)
        report = analyzer.attribute(app_name, full_house())
        assert report.verdict == "malicious"
        assert report.phase1.ratio == 1.0

    def test_benign_sample_not_flagged(self, registry):
        from repro.attribution import OutputAnalyzer
        from repro.attribution.volunteers import full_house

        analyzer = OutputAnalyzer(registry, max_configs=8)
        report = analyzer.attribute("Smoke Alarm Siren", full_house())
        assert report.verdict in ("safe", "misconfiguration")


class TestVolunteerStudyShape:
    """§10.2 Table 6: non-expert configurations violate more properties."""

    def test_maximalist_worse_than_expert(self, registry, generator):
        from repro.attribution import volunteer_configuration

        config = volunteer_configuration("vgroup02",
                                         "volunteer1-maximalist", registry)
        system = generator.build(config, strict=False)
        properties = select_relevant(system, build_properties())
        result = ExplorationEngine(system, properties,
                                   EngineOptions(max_events=2,
                                                 max_states=60000)).run()
        # the documented outcome: heater + AC both selected for every
        # climate app drives thermostat-family violations and cross-app
        # command conflicts
        assert result.has_violations
        assert any(v.property.id in ("P01", "P02", "P03", "P04", "P39",
                                     "P40")
                   for v in result.violations)
        assert any("Virtual Thermostat" in v.apps
                   for v in result.violations)
