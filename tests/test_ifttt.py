"""Unit tests for the IFTTT support (§11, Table 9)."""

import json
import re

import pytest

from repro.engine import EngineOptions, ExplorationEngine
from repro.ifttt import (
    Applet,
    SERVICES,
    TABLE9_PROPERTIES,
    parse_applet,
    service,
    table9_applets,
    table9_configuration,
    translate_applet,
)
from repro.ifttt.table9 import TABLE9_EXPECTED, table9_registry
from repro.ifttt.translator import IFTTTTranslator
from repro.model.generator import ModelGenerator


class TestAppletModel:
    def test_parse_json(self):
        data = {"id": "r1", "name": "Rule 1",
                "trigger": {"service": "smartthings-motion",
                            "event": "motion-detected"},
                "action": {"service": "ring-alarm",
                           "command": "sound-siren"}}
        applet = parse_applet(json.dumps(data))
        assert applet.id == "r1"
        assert applet.trigger_service == "smartthings-motion"
        assert applet.action == "sound-siren"

    def test_roundtrip(self):
        applet = Applet("r1", "Rule 1", "amazon-alexa", "say-phrase",
                        "august-lock", "unlock", description="d")
        assert parse_applet(applet.to_json()).to_dict() == applet.to_dict()

    def test_bundled_applets(self):
        applets = table9_applets()
        assert len(applets) == 10
        assert [a.id for a in applets] == ["rule%02d" % i
                                           for i in range(1, 11)]


class TestServices:
    def test_paper_service_mapping(self):
        """Alexa/Google Assistant are sensors; Nest is an actuator (§11)."""
        assert service("amazon-alexa").is_sensor
        assert service("google-assistant").is_sensor
        assert service("nest-thermostat").is_actuator

    def test_every_service_has_known_device_type(self):
        from repro.devices import device_spec

        for svc in SERVICES.values():
            assert device_spec(svc.device_type) is not None

    def test_trigger_lookup(self):
        trigger = service("smartthings-motion").trigger("motion-detected")
        assert trigger.attribute == "motion"
        assert trigger.value == "active"

    def test_action_lookup(self):
        action = service("august-lock").action("unlock")
        assert action.command == "unlock"

    def test_unknown_service_raises(self):
        with pytest.raises(KeyError):
            service("tumblr")

    def test_unknown_trigger_raises(self):
        with pytest.raises(KeyError):
            service("smartthings-motion").trigger("volcano-erupts")


class TestTranslator:
    @pytest.fixture()
    def rule1(self):
        return table9_applets()[0]

    def test_generated_groovy_parses(self, rule1):
        app = translate_applet(rule1)
        assert app.name == rule1.name

    def test_single_event_handler(self, rule1):
        """'Each rule is considered as an app, which has only a single
        event handler' (§11)."""
        app = translate_applet(rule1)
        assert len(app.subscriptions) == 1
        assert app.subscriptions[0].handler == "ruleHandler"

    def test_trigger_becomes_subscription(self, rule1):
        app = translate_applet(rule1)
        sub = app.subscriptions[0]
        assert sub.attribute == "motion"
        assert sub.value == "active"

    def test_devices_become_class_fields(self, rule1):
        app = translate_applet(rule1)
        names = [i.name for i in app.inputs]
        assert names == ["triggerDevice", "actionDevice"]

    def test_translate_all(self):
        registry = table9_registry()
        assert len(registry) == 10

    def test_build_configuration_shares_service_devices(self):
        translator = IFTTTTranslator()
        config = translator.build_configuration(table9_applets())
        # rules 1 and 7 both trigger on smartthings-motion: same device
        by_app = {a.app: a.bindings for a in config.apps}
        assert (by_app["Rule #1: Motion sounds the siren"]["triggerDevice"]
                == by_app["Rule #7: Motion calls my phone"]["triggerDevice"])

    def test_configuration_buildable(self):
        registry = table9_registry()
        config = table9_configuration()
        system = ModelGenerator(registry).build(config)
        assert len(system.apps) == 10


class TestTable9Verification:
    @pytest.fixture(scope="class")
    def result(self):
        registry = table9_registry()
        config = table9_configuration()
        system = ModelGenerator(registry).build(config)
        options = EngineOptions(max_events=2, max_states=100000)
        return ExplorationEngine(system, TABLE9_PROPERTIES, options).run()

    def test_all_four_properties_violated(self, result):
        assert set(result.violated_property_ids) == {"I01", "I02", "I03",
                                                     "I04"}

    def test_paper_rule_groups_reproduced(self, result):
        found = {}
        for ce in result.counterexamples.values():
            rules = {int(m.group(1)) for m in
                     (re.match(r"Rule #(\d+)", a)
                      for a in set(ce.violation.apps)) if m}
            found.setdefault(ce.violation.property.id, []).append(rules)
        for property_id, groups in TABLE9_EXPECTED.items():
            for expected in groups:
                numbers = {int(r.replace("rule", "").lstrip("0"))
                           for r in expected}
                assert any(numbers <= rules
                           for rules in found.get(property_id, [])), (
                    property_id, numbers)

    def test_good_night_phrase_disables_siren(self, result):
        """The signature Table-9 interaction: rule #4 defeats rule #1."""
        ce = next(c for c in result.counterexamples.values()
                  if c.violation.property.id == "I01")
        apps = " ".join(ce.violation.apps)
        assert "#4" in apps
