"""Unit tests for the Promela emitter (the regenerated Spin artifact)."""

import re

import pytest

from repro.corpus.groups import GROUP_BUILDERS
from repro.properties import build_properties, select_relevant
from repro.translator.promela import emit_promela


@pytest.fixture()
def model(alice_system):
    properties = select_relevant(alice_system, build_properties())
    return emit_promela(alice_system, properties)


class TestStructure:
    def test_header_comment(self, model):
        assert model.startswith("/* Generated by IotSan")

    def test_single_mtype_declaration(self, model):
        assert model.count("mtype = {") == 1

    def test_mtype_covers_event_values(self, model):
        mtype = re.search(r"mtype = \{ (.+) \};", model).group(1)
        symbols = {s.strip() for s in mtype.split(",")}
        assert {"locked", "unlocked", "present", "notpresent",
                "Away", "Home", "Night"} <= symbols

    def test_typedef_per_device_type(self, model):
        assert "typedef STZwaveLock {" in model
        assert "typedef STSmartsensePresence {" in model

    def test_typedefs_have_notifiers(self, model):
        """Each device carries an event queue + notifiers (§8)."""
        assert "byte subNotifiers[" in model

    def test_global_arrays(self, model):
        assert "STZwaveLockArray g_STZwaveLockArr;" in model
        assert "STLocation location;" in model
        assert "STEvent generatedEvent;" in model

    def test_device_index_defines(self, model):
        assert "#define doorLock_index 0" in model

    def test_main_proctype(self, model):
        assert "active proctype SmartThingsMain()" in model
        assert "#define MAX_EVENTS" in model

    def test_braces_balanced(self, model):
        assert model.count("{") == model.count("}")


class TestHandlers:
    def test_sequential_uses_inlines(self, model):
        """Sequential design: 'inline methods to model the behavior of
        devices and smart apps' (§8)."""
        assert "inline autoModeChange_presenceHandler(evt)" in model
        assert "inline unlockDoor_changedLocationMode(evt)" in model

    def test_unlock_command_translated(self, model):
        assert "ST_Command.evtType = unlock;" in model
        assert ("actuator_state_update(g_STZwaveLockArr, doorLock_index, "
                "currentLock, unlocked);") in model

    def test_dispatch_inline(self, model):
        assert "inline dispatch_pending()" in model


class TestNeverClaims:
    """Invariants end the model as Spin 6 ``ltl`` blocks (Spin derives
    the never claim from each) over ``#define``d atoms."""

    def test_claims_emitted_for_invariants(self, model):
        assert "ltl P06 { [] (nobody_home -> door_locked) }" in model
        assert "#define nobody_home (" in model
        assert ("#define door_locked "
                "(g_STZwaveLockArr.element[doorLock_index].currentLock"
                " == locked)") in model

    def test_claim_carries_property_id(self, model):
        assert re.search(r"^ltl P06 \{", model, re.M)
        assert "never {" not in model

    def test_inapplicable_properties_skipped(self, model):
        assert "P01" not in model  # no heater in Alice's home

    def test_monitored_properties_get_no_claim(self, alice_system):
        model = emit_promela(alice_system, build_properties())
        assert "ltl P45" not in model
        assert "<>" not in model


def _undefined_ltl_identifiers(model):
    """Identifiers in the model's ``ltl`` blocks that are neither
    ``#define``d in it nor a declared mtype symbol."""
    defined = set(re.findall(r"^#define (\w+)", model, re.M))
    symbols = {symbol.strip() for symbol in re.search(
        r"mtype = \{ (.+) \};", model).group(1).split(",")}
    blocks = re.findall(r"^ltl \w+ \{(.*)\}", model, re.M)
    used = set(re.findall(r"[A-Za-z_]\w*", " ".join(blocks)))
    return used - defined - symbols


#: ltl blocks `repro emit` writes per expert group: its selected
#: invariants (the monitored properties get none)
CLAIMS = {"group1-entry-and-mode": 9, "group2-lighting": 0,
          "group3-climate": 6, "group4-security": 15,
          "group5-water-presence": 12, "group6-schedules-misc": 13}


def _undefined_model_names(model):
    """Inlines the model calls (the device state updates, the dispatch
    and the handlers it dispatches to) and ``*_location`` notifier
    indices it uses, that it does not define."""
    inlines = set(re.findall(r"^inline (\w+)\(", model, re.M))
    called = set(re.findall(
        r"\b(\w+_state_update|dispatch_pending)\(", model))
    called |= set(re.findall(r"\b(\w+)\(generatedEvent\)", model))
    defined = set(re.findall(r"^#define (\w+)", model, re.M))
    locations = set(re.findall(r"\b(\w+_location)\b", model))
    return (called - inlines) | (locations - defined)


class TestClaimIdentifiers:
    """Every identifier an ``ltl`` block names is defined in the same
    model text, and no atom define renames an mtype symbol; every
    inline the model calls and every location notifier index it uses
    is defined there too."""

    @pytest.mark.parametrize("group", sorted(GROUP_BUILDERS))
    def test_expert_groups(self, generator, group):
        system = generator.build(GROUP_BUILDERS[group]())
        model = emit_promela(system,
                             select_relevant(system, build_properties()))
        assert model.count("\nltl P") == CLAIMS[group]
        assert not _undefined_ltl_identifiers(model)
        assert not _undefined_model_names(model)
        self._defines_rename_no_symbol(model)

    def test_table9(self):
        from repro.ifttt.table9 import (
            TABLE9_PROPERTIES,
            table9_configuration,
            table9_registry,
        )
        from repro.model.generator import ModelGenerator

        system = ModelGenerator(table9_registry()).build(
            table9_configuration())
        model = emit_promela(system, TABLE9_PROPERTIES)
        assert model.count("\nltl I0") == 4
        assert not _undefined_ltl_identifiers(model)
        assert not _undefined_model_names(model)
        self._defines_rename_no_symbol(model)

    @staticmethod
    def _defines_rename_no_symbol(model):
        defined = set(re.findall(r"^#define (\w+)", model, re.M))
        symbols = {symbol.strip() for symbol in re.search(
            r"mtype = \{ (.+) \};", model).group(1).split(",")}
        assert not defined & symbols


class TestEventChoices:
    def test_sensor_choice_rendered(self, model):
        assert "generatedEvent.evtType = notpresent" in model

    def test_touch_choice_rendered(self, model):
        assert "generatedEvent.evtType = appTouch" in model


class TestScale:
    def test_group_model_is_substantial(self, generator):
        from repro.corpus.groups import expert_configuration

        system = generator.build(
            expert_configuration("group1-entry-and-mode"))
        model = emit_promela(system, build_properties())
        assert model.count("\n") > 200
        assert model.count("{") == model.count("}")

    def test_emitter_deterministic(self, alice_system):
        assert emit_promela(alice_system) == emit_promela(alice_system)
