"""Shared fixtures: the corpus registry and small bound systems."""

import pytest

from repro.config.schema import SystemConfiguration
from repro.corpus import (
    CorpusMissingError,
    load_all_apps,
    load_malicious_apps,
    load_market_apps,
)
from repro.model.generator import ModelGenerator


def _load_or_skip(loader):
    """Load a corpus collection, skipping (not erroring) when absent.

    A missing corpus is an installation problem, not a code regression;
    corpus-dependent tests skip with a pointer instead of erroring the
    whole collection run.
    """
    try:
        return loader()
    except CorpusMissingError as exc:
        pytest.skip("bundled corpus unavailable: %s" % exc)


@pytest.fixture(scope="session")
def registry():
    """The full corpus (market + malicious), parsed once per session."""
    return _load_or_skip(load_all_apps)


@pytest.fixture(scope="session")
def market_apps():
    return _load_or_skip(load_market_apps)


@pytest.fixture(scope="session")
def malicious_apps():
    return _load_or_skip(load_malicious_apps)


@pytest.fixture(scope="session")
def generator(registry):
    return ModelGenerator(registry)


@pytest.fixture()
def alice_config():
    """The paper's running example: presence + lock, two apps (§8)."""
    config = SystemConfiguration(contacts=["+1-555-0100"])
    config.add_device("alicePresence", "smartsense-presence",
                      "Alice's Presence")
    config.add_device("doorLock", "zwave-lock", "Door Lock")
    config.association["main_door_lock"] = "doorLock"
    config.add_app("Auto Mode Change", {"people": ["alicePresence"],
                                        "awayMode": "Away",
                                        "homeMode": "Home"})
    config.add_app("Unlock Door", {"lock1": "doorLock"})
    return config


@pytest.fixture()
def alice_system(generator, alice_config):
    return generator.build(alice_config)

