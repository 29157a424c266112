"""Corpus sanity: every bundled app parses, analyzes, and binds."""

import pytest

from repro.corpus import load_all_apps, load_malicious_apps, load_market_apps
from repro.corpus.groups import (
    EXPERT_GROUPS,
    GROUP_BUILDERS,
    VOLUNTEER_GROUPS,
    expert_configuration,
)


class TestCorpusShape:
    def test_market_corpus_size(self, market_apps):
        # one representative implementation per distinct behaviour for the
        # paper's 150-app study (§10.1)
        assert len(market_apps) >= 50

    def test_nine_malicious_apps(self, malicious_apps):
        assert len(malicious_apps) == 9

    def test_no_name_collisions(self, market_apps, malicious_apps):
        assert not set(market_apps) & set(malicious_apps)

    def test_paper_named_apps_present(self, market_apps):
        for name in ["Virtual Thermostat", "Brighten Dark Places",
                     "Let There Be Dark!", "Auto Mode Change", "Unlock Door",
                     "Big Turn On", "Good Night", "Light Follows Me",
                     "Light Off When Close", "Energy Saver", "Make It So",
                     "Darken Behind Me", "Automated Light",
                     "Brighten My Path", "It's Too Cold"]:
            assert name in market_apps, name


class TestEveryApp:
    def test_every_app_has_definition(self, registry):
        for name, app in registry.items():
            assert app.name == name
            assert app.description

    def test_every_app_has_subscription_or_schedule(self, registry):
        for name, app in registry.items():
            assert app.subscriptions or app.schedules, name

    def test_every_subscription_handler_defined(self, registry):
        for name, app in registry.items():
            methods = {m.name for m in app.program.methods}
            for sub in app.subscriptions:
                assert sub.handler in methods, (name, sub.handler)

    def test_every_device_input_has_known_capability(self, registry):
        from repro.devices.capabilities import capability

        for name, app in registry.items():
            for declaration in app.device_inputs:
                assert capability(declaration.capability), (
                    name, declaration.capability)


class TestGroups:
    def test_six_expert_groups(self):
        assert len(EXPERT_GROUPS) == 6

    def test_expert_groups_buildable(self, generator):
        for group_name in EXPERT_GROUPS:
            config = expert_configuration(group_name)
            assert config.validate() == []
            system = generator.build(config)
            assert system.apps

    def test_expert_group_apps_exist(self, registry):
        for group_name in EXPERT_GROUPS:
            config = expert_configuration(group_name)
            for app_config in config.apps:
                assert app_config.app in registry, (group_name,
                                                    app_config.app)

    def test_unknown_group_raises(self):
        with pytest.raises(KeyError):
            expert_configuration("group99")

    def test_ten_volunteer_groups_of_about_five(self, registry):
        assert len(VOLUNTEER_GROUPS) == 10
        for group_name, apps in VOLUNTEER_GROUPS.items():
            assert 4 <= len(apps) <= 6, group_name
            for app in apps:
                assert app in registry, (group_name, app)

    def test_group_builders_are_fresh(self):
        first = GROUP_BUILDERS["group1-entry-and-mode"]()
        second = GROUP_BUILDERS["group1-entry-and-mode"]()
        assert first is not second
        first.add_device("extra", "smart-outlet")
        assert second.device("extra") is None


class TestMaliciousBehaviors:
    """Each malicious app must carry its documented attack behaviour."""

    def test_fake_co_alarm_raises_fake_event(self, malicious_apps):
        source = malicious_apps["Fake CO Alarm"].source
        assert "sendEvent" in source or "createEvent" in source

    def test_exfiltrators_use_http(self, malicious_apps):
        for name in ("Lock Code Exfiltrator", "Presence Tracker"):
            assert "httpPost" in malicious_apps[name].source, name

    def test_alarm_neutralizer_unsubscribes(self, malicious_apps):
        assert "unsubscribe" in malicious_apps["Alarm Neutralizer"].source

    def test_door_openers_unlock_or_open(self, malicious_apps):
        for name in ("Away Door Unlocker", "Night Lock Opener",
                     "Midnight Door Opener"):
            source = malicious_apps[name].source
            assert ("unlock" in source) or (".open()" in source), name
