"""Digest stability: declaration-order invariance, content sensitivity.

``VerificationJob.cache_key()`` addresses the vetting service's result
store, so it must be *stable* (invariant under app/device declaration
order, binding-key order, property order, equal configurations) and
*sensitive* (any handler body, device type, property-set or
semantic-option change produces a new key).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.schema import SystemConfiguration
from repro.engine.batch import VerificationJob
from repro.engine.options import EngineOptions
from repro.properties import build_properties
from repro.smartapp import load_app

#: (name, type) pool for the permutation tests
_DEVICES = [
    ("alicePresence", "smartsense-presence"),
    ("doorLock", "zwave-lock"),
    ("frontMotion", "smartsense-motion"),
]

_APPS = [
    ("Auto Mode Change", {"people": ["alicePresence"], "awayMode": "Away",
                          "homeMode": "Home"}),
    ("Unlock Door", {"lock1": "doorLock"}),
]


def _config(device_order, app_order, binding_key_order=None):
    config = SystemConfiguration(contacts=["+1-555-0100"])
    for index in device_order:
        name, type_name = _DEVICES[index]
        config.add_device(name, type_name)
    config.association["main_door_lock"] = "doorLock"
    for index in app_order:
        app, bindings = _APPS[index]
        if binding_key_order is not None and index == 0:
            keys = sorted(bindings, key=lambda k: binding_key_order.index(k)
                          if k in binding_key_order else -1)
            bindings = {key: bindings[key] for key in keys}
        config.add_app(app, bindings)
    return config


def _key(config, options=None, **job_kwargs):
    """The cache key of one lenient job (the name is not part of it)."""
    return VerificationJob("job", config, options or EngineOptions(),
                           strict=False, **job_kwargs).cache_key()


class TestDeclarationOrderInvariance:
    @settings(max_examples=20, deadline=None)
    @given(device_order=st.permutations(range(len(_DEVICES))),
           app_order=st.permutations(range(len(_APPS))),
           binding_keys=st.permutations(["people", "awayMode", "homeMode"]))
    def test_digest_is_declaration_order_invariant(
            self, device_order, app_order, binding_keys):
        reference = _key(_config(range(len(_DEVICES)), range(len(_APPS))))
        assert _key(_config(device_order, app_order,
                            binding_key_order=binding_keys)) == reference

    @settings(max_examples=20, deadline=None)
    @given(device_order=st.permutations(range(len(_DEVICES))),
           app_order=st.permutations(range(len(_APPS))))
    def test_cache_key_is_declaration_order_invariant(
            self, device_order, app_order):
        reference = VerificationJob(
            "ref", _config(range(len(_DEVICES)), range(len(_APPS))),
            EngineOptions(max_events=2), strict=False).cache_key()
        shuffled = VerificationJob(
            "shuffled", _config(device_order, app_order),
            EngineOptions(max_events=2), strict=False).cache_key()
        assert shuffled == reference

    def test_job_name_is_not_part_of_the_key(self, alice_config):
        options = EngineOptions(max_events=2)
        assert VerificationJob("a", alice_config, options,
                               strict=False).cache_key() == \
            VerificationJob("b", alice_config, options,
                            strict=False).cache_key()

    def test_repeated_builds_agree(self, alice_config):
        copy = SystemConfiguration.from_dict(alice_config.to_dict())
        assert _key(copy) == _key(alice_config)


class TestContentSensitivity:
    def test_handler_body_change_changes_digest(self, registry,
                                                alice_config):
        """An edited handler in the registry itself (the ``sources``
        overlay is pinned below)."""
        source = registry["Unlock Door"].source
        assert "lock1.unlock()" in source
        patched = load_app(
            source.replace("lock1.unlock()",
                           'log.debug "about to unlock"\n    lock1.unlock()'),
            "unlock-door-patched.groovy")
        assert patched.name == "Unlock Door"
        overlay = dict(registry)
        overlay[patched.name] = patched
        assert _key(alice_config, registry=overlay) != _key(
            alice_config, registry=dict(registry))

    def test_device_attribute_change_changes_digest(self, alice_config):
        changed_config = SystemConfiguration.from_dict(alice_config.to_dict())
        # a different device type carries a different attribute surface
        changed_config.devices[0].type = "smartsense-motion"
        assert _key(changed_config) != _key(alice_config)

    def test_property_set_change_changes_digest(self, alice_config):
        catalog = build_properties()
        assert _key(alice_config, properties=catalog) != \
            _key(alice_config, properties=catalog[:10])
        assert _key(alice_config, properties=catalog) != _key(alice_config)
        assert _key(alice_config, properties=["P06", "P08"]) != \
            _key(alice_config, properties=["P06"])

    def test_property_order_does_not_change_digest(self, alice_config):
        catalog = build_properties()
        assert _key(alice_config, properties=catalog) == \
            _key(alice_config, properties=list(reversed(catalog)))
        assert _key(alice_config, properties=["P06", "P08"]) == \
            _key(alice_config, properties=["P08", "P06"])

    def test_semantic_option_change_changes_digest(self, alice_config):
        assert _key(alice_config, EngineOptions(max_events=2)) != \
            _key(alice_config, EngineOptions(max_events=3))
        assert _key(alice_config, EngineOptions(visited="exact")) != \
            _key(alice_config, EngineOptions(visited="bitstate"))

    def test_performance_knobs_do_not_change_digest(self, alice_config):
        assert _key(alice_config, EngineOptions(check_interval=1)) == \
            _key(alice_config, EngineOptions(check_interval=7))

    def test_engine_tier_does_not_change_digest(self, alice_config):
        """Both execution tiers are proven observationally identical, so
        the engine choice is a pure performance knob: stored verdicts
        stay valid across tiers."""
        keys = {_key(alice_config,
                     EngineOptions(engine=engine, check_interval=8))
                for engine in ("interpreted", "lean")}
        assert keys == {_key(alice_config, EngineOptions())}

    def test_catalog_surface_change_changes_cache_key(self, alice_config,
                                                      monkeypatch):
        """A device-catalog edit (new attribute domain, default, command)
        must invalidate stored results even when the type *name* is
        unchanged."""
        import repro.devices.catalog as catalog

        options = EngineOptions(max_events=2)
        baseline = VerificationJob("a", alice_config, options,
                                   strict=False).cache_key()
        real_device_spec = catalog.device_spec
        edited = catalog.DeviceSpec(
            "zwave-lock", "Z-Wave Lock (edited)",
            real_device_spec("zwave-lock").capabilities
            + ("temperatureMeasurement",))

        def patched_device_spec(type_name):
            if type_name == "zwave-lock":
                return edited
            return real_device_spec(type_name)

        monkeypatch.setattr(catalog, "device_spec", patched_device_spec)
        assert VerificationJob("a", alice_config, options,
                               strict=False).cache_key() != baseline

    def test_unknown_device_type_digests_without_catalog(self):
        from repro.service.digest import config_payload

        config = SystemConfiguration()
        config.add_device("mystery", "no-such-type")
        payload = config_payload(config, registry={})
        assert payload["devices"][0]["surface"] is None

    def test_binding_value_change_changes_cache_key(self, alice_config):
        options = EngineOptions(max_events=2)
        baseline = VerificationJob("a", alice_config, options,
                                   strict=False).cache_key()
        changed = SystemConfiguration.from_dict(alice_config.to_dict())
        changed.apps[0].bindings["awayMode"] = "Night"
        assert VerificationJob("a", changed, options,
                               strict=False).cache_key() != baseline

    def test_source_overlay_changes_cache_key(self, registry, alice_config):
        options = EngineOptions(max_events=2)
        baseline = VerificationJob("a", alice_config, options,
                                   strict=False).cache_key()
        patched = registry["Unlock Door"].source.replace(
            "lock1.unlock()", 'log.debug "x"\n    lock1.unlock()')
        overlaid = VerificationJob("a", alice_config, options, strict=False,
                                   sources={"Unlock Door": patched})
        assert overlaid.cache_key() != baseline


class TestOptionClassification:
    """How the exploration knobs map onto semantic digests.

    ``mode`` decides *which relation* is explored (interleaved or
    concurrent), so it is semantic; the retired reduction, salt,
    sampling and search-order knobs are no options at all any more.
    """

    def test_mode_is_semantic(self, alice_config):
        assert (_key(alice_config, EngineOptions(mode="concurrent"))
                != _key(alice_config, EngineOptions()))

    def test_schema_version_retires_old_bitstate_verdicts(self, alice_config,
                                                          monkeypatch):
        """The version is hashed into every digest: ``bitstate`` named a
        different hash scheme under v4, took a salt until v5, kept no
        depths until v6 and probed seeded ``hash()`` fingerprints until
        v8, so a key from any of them can never serve a v9 ``bitstate``
        run."""
        from repro.service import digest

        options = EngineOptions(visited="bitstate")
        current = _key(alice_config, options)
        assert digest.DIGEST_SCHEMA_VERSION == 9
        for retired in (4, 5, 6, 7, 8):
            monkeypatch.setattr(digest, "DIGEST_SCHEMA_VERSION", retired)
            assert _key(alice_config, options) != current

    def test_retired_knobs_are_not_options(self):
        from repro.service.digest import SEMANTIC_OPTION_FIELDS

        for name in ("reduction", "seed", "swarm_members", "bitstate_salt",
                     "code" "gen_cache", "strategy", "priority"):
            assert name not in SEMANTIC_OPTION_FIELDS
            with pytest.raises(TypeError):
                EngineOptions(**{name: 1})
        with pytest.raises(ValueError, match="unknown mode"):
            EngineOptions(mode="swarm")
