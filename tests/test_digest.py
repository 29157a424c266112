"""Digest stability: declaration-order invariance, content sensitivity.

``IoTSystem.digest()`` / ``VerificationJob.cache_key()`` address the
vetting service's result store, so they must be *stable* (invariant
under app/device declaration order, binding-key order, repeated builds)
and *sensitive* (any handler body, device attribute, property-set or
semantic-option change produces a new digest).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.schema import SystemConfiguration
from repro.engine.batch import VerificationJob
from repro.engine.options import EngineOptions
from repro.model.generator import ModelGenerator
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


@pytest.fixture(scope="module")
def reference_digest(generator):
    system = generator.build(_config(range(len(_DEVICES)),
                                     range(len(_APPS))), strict=False)
    return system.digest()


class TestDeclarationOrderInvariance:
    @settings(max_examples=20, deadline=None)
    @given(device_order=st.permutations(range(len(_DEVICES))),
           app_order=st.permutations(range(len(_APPS))),
           binding_keys=st.permutations(["people", "awayMode", "homeMode"]))
    def test_digest_is_declaration_order_invariant(
            self, registry, reference_digest, device_order, app_order,
            binding_keys):
        system = ModelGenerator(registry).build(
            _config(device_order, app_order, binding_key_order=binding_keys),
            strict=False)
        assert system.digest() == reference_digest

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

    def test_repeated_builds_agree(self, generator, alice_config):
        first = generator.build(alice_config, strict=False)
        second = generator.build(alice_config, strict=False)
        assert first.digest() == second.digest()


class TestContentSensitivity:
    def test_handler_body_change_changes_digest(self, registry, generator,
                                                alice_config):
        baseline = generator.build(alice_config, strict=False).digest()
        source = registry["Unlock Door"].source
        assert "lock1.unlock()" in source
        patched = load_app(
            source.replace("lock1.unlock()",
                           'log.debug "about to unlock"\n    lock1.unlock()'),
            "unlock-door-patched.groovy")
        assert patched.name == "Unlock Door"
        overlay = dict(registry)
        overlay[patched.name] = patched
        changed = ModelGenerator(overlay).build(alice_config, strict=False)
        assert changed.digest() != baseline

    def test_device_attribute_change_changes_digest(self, generator,
                                                    alice_config):
        baseline = generator.build(alice_config, strict=False).digest()
        changed_config = SystemConfiguration.from_dict(alice_config.to_dict())
        # a different device type carries a different attribute surface
        changed_config.devices[0].type = "smartsense-motion"
        changed = generator.build(changed_config, strict=False)
        assert changed.digest() != baseline

    def test_property_set_change_changes_digest(self, alice_system):
        catalog = build_properties()
        assert alice_system.digest(properties=catalog) != \
            alice_system.digest(properties=catalog[:10])
        assert alice_system.digest(properties=catalog) != \
            alice_system.digest()

    def test_property_order_does_not_change_digest(self, alice_system):
        catalog = build_properties()
        assert alice_system.digest(properties=catalog) == \
            alice_system.digest(properties=list(reversed(catalog)))

    def test_semantic_option_change_changes_digest(self, alice_system):
        assert alice_system.digest(options=EngineOptions(max_events=2)) != \
            alice_system.digest(options=EngineOptions(max_events=3))
        assert alice_system.digest(options=EngineOptions(visited="exact")) != \
            alice_system.digest(options=EngineOptions(visited="collapse"))

    def test_performance_knobs_do_not_change_digest(self, alice_system):
        assert alice_system.digest(options=EngineOptions(slab_size=1)) == \
            alice_system.digest(options=EngineOptions(slab_size=9999,
                                                      manage_gc=False,
                                                      check_interval=7))

    def test_engine_tier_does_not_change_digest(self, alice_system):
        """All execution tiers are proven observationally identical, so
        the engine choice is a pure performance knob: stored verdicts
        stay valid across tiers."""
        digests = {
            alice_system.digest(options=EngineOptions(engine=engine,
                                                      slab_size=8))
            for engine in ("interpreted", "compiled", "codegen")}
        assert len(digests) == 1
        assert digests == {alice_system.digest(options=EngineOptions())}

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


class TestSwarmOptionClassification:
    """How the swarm knobs map onto semantic vs performance digests.

    ``mode`` decides *what kind of result* is produced (a sampled swarm
    result is not interchangeable with an exhaustive one), and within
    swarm mode the seed and member count decide *which sample* - so all
    three are semantic there.  Outside swarm mode, seed and member count
    are inert and must not fragment the exhaustive cache.
    """

    def test_mode_is_semantic(self, alice_system):
        assert (alice_system.digest(options=EngineOptions(mode="swarm"))
                != alice_system.digest(options=EngineOptions()))

    def test_seed_and_members_are_semantic_only_in_swarm_mode(
            self, alice_system):
        sequential = {
            alice_system.digest(options=EngineOptions(seed=seed,
                                                      swarm_members=members))
            for seed, members in ((0, 4), (1, 4), (0, 8))}
        assert sequential == {alice_system.digest(options=EngineOptions())}
        swarm = {
            alice_system.digest(options=EngineOptions(mode="swarm",
                                                      seed=seed,
                                                      swarm_members=members))
            for seed, members in ((0, 4), (1, 4), (0, 8))}
        assert len(swarm) == 3

    def test_bitstate_salt_is_semantic(self, alice_system):
        """The salt remaps which states a bitstate run *misses*, so two
        salts are two different (partial) explorations."""
        assert (alice_system.digest(
                    options=EngineOptions(visited="bitstate-k",
                                          bitstate_salt=1))
                != alice_system.digest(
                    options=EngineOptions(visited="bitstate-k")))

    def test_spill_residence_is_a_performance_knob(self, alice_system):
        """The spill store is exact - where the visited set *lives* must
        not change the digest (but which store semantics run does)."""
        assert (alice_system.digest(
                    options=EngineOptions(visited="spill", spill_dir="/tmp"))
                == alice_system.digest(options=EngineOptions(visited="spill")))
        assert (alice_system.digest(options=EngineOptions(visited="spill"))
                != alice_system.digest(options=EngineOptions(visited="exact")))
