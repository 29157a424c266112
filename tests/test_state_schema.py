"""The packed state schema: the exact visited store's canonical key.

Two contracts pin it down:

* **Separation**: ``pack(a) == pack(b)`` exactly when
  ``a.canonical_key() == b.canonical_key()`` - exercised property-based
  over arbitrary device grids, attribute values, app states, schedules
  and off-schema components.
* **Store equivalence**: the exact store and the fingerprint store agree
  on every verdict and state count over the whole bundled corpus.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.schema import SystemConfiguration
from repro.corpus import load_all_apps
from repro.corpus.groups import GROUP_BUILDERS
from repro.engine import verify
from repro.model.generator import ModelGenerator
from repro.model.state import ModelState

from tests.conftest import _load_or_skip


@pytest.fixture(scope="module")
def system(generator):
    config = SystemConfiguration()
    config.add_device("frontDoor", "smartsense-multi")
    config.add_device("hallSwitch", "smart-outlet")
    config.add_device("motion", "smartsense-motion")
    config.add_app("Brighten My Path", {"motion1": "motion",
                                        "switch1": "hallSwitch"})
    return generator.build(config)


@pytest.fixture(scope="module")
def schema(system):
    return system.state_schema()


# -- deterministic schema shape ---------------------------------------------


class TestSchemaShape:
    def test_compiled_once_per_system(self, system):
        assert system.state_schema() is system.state_schema()

    def test_layout_covers_every_spec_attribute(self, system, schema):
        for name, attrs, attr_set in schema.device_layout:
            assert set(attrs) == set(system.devices[name].spec.attributes)
            assert attr_set == frozenset(attrs)

    def test_pack_equality_matches_canonical_equality(self, system, schema):
        base = system.initial_state()
        twin = system.initial_state()
        assert schema.pack(base) == schema.pack(twin)
        twin.set_attribute("hallSwitch", "switch", "on")
        assert schema.pack(base) != schema.pack(twin)

    def test_pack_does_not_escape_containers(self, system, schema):
        state = system.initial_state()
        state.set_app_state("Brighten My Path", {"seen": 1})
        child = state.copy()
        schema.pack(state)
        schema.pack(child)
        # packing unshares nothing and keeps the copy-on-write sharing
        # of every device map, and the sharing of every app map, for
        # subsequent branches
        assert child._shared_devices == set(state._devices)
        assert all(child._devices[name] is attrs
                   for name, attrs in state._devices.items())
        assert all(child._app_states[name] is mapping
                   for name, mapping in state._app_states.items())


# -- property-based separation ----------------------------------------------

_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1000, 1000),
    st.text(max_size=8),
)

_APP_VALUES = st.one_of(
    _VALUES,
    st.lists(_VALUES, max_size=3),
    st.dictionaries(st.text(max_size=4), _VALUES, max_size=3),
)


def _arbitrary_states(schema):
    """States over (and deliberately off) one schema's grid."""
    device_names = [name for name, _, _ in schema.device_layout]
    all_attrs = sorted({attr for _, attrs, _ in schema.device_layout
                        for attr in attrs})

    @st.composite
    def states(draw):
        state = ModelState(mode=draw(st.sampled_from(["Home", "Away",
                                                      "Night"])))
        for name in draw(st.lists(st.sampled_from(
                device_names + ["ghostDevice"]), max_size=6, unique=True)):
            state._devices.setdefault(name, {})
            for attr in draw(st.lists(st.sampled_from(
                    all_attrs + ["offSchemaAttr"]), max_size=4, unique=True)):
                state.set_attribute(name, attr, draw(_VALUES))
        for name in draw(st.lists(st.sampled_from(
                list(schema.app_names) + ["Ghost App"]),
                max_size=3, unique=True)):
            state.set_app_state(name, draw(st.dictionaries(
                st.text(max_size=4), _APP_VALUES, max_size=3)))
        for handler in draw(st.lists(st.sampled_from(
                ["tick", "poll", "sunriseHandler"]), max_size=2,
                unique=True)):
            state.add_schedule("Ghost App", handler,
                               periodic=draw(st.booleans()))
        return state

    return states()


class TestPackRoundTripProperty:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_pack_separates_exactly_like_canonical(self, data, schema):
        """``pack(a) == pack(b)`` <=> canonical equality.  Two independent
        draws are almost never equal, so most pairs are a state and a
        copy with at most one component changed: the pair is equal, or
        differs in exactly that component."""
        left = data.draw(_arbitrary_states(schema))
        change = data.draw(st.sampled_from(
            ["independent", "none", "mode", "device", "app", "schedule"]))
        if change == "independent":
            right = data.draw(_arbitrary_states(schema))
        else:
            right = left.copy()
        if change == "mode":
            right.mode = data.draw(st.sampled_from(["Home", "Away",
                                                    "Night"]))
        elif change == "device":
            name, attrs, _ = data.draw(st.sampled_from(schema.device_layout))
            attribute = data.draw(st.sampled_from(attrs + ("offSchemaAttr",)))
            right.set_attribute(name, attribute, data.draw(_VALUES))
        elif change == "app":
            name = data.draw(st.sampled_from(
                list(schema.app_names) + ["Ghost App"]))
            mapping = dict(right.app_state(name) or {})
            mapping[data.draw(st.text(max_size=4))] = data.draw(_APP_VALUES)
            right.set_app_state(name, mapping)
        elif change == "schedule":
            right.add_schedule("Ghost App", data.draw(st.sampled_from(
                ["tick", "poll"])), periodic=data.draw(st.booleans()))
        same_pack = schema.pack(left) == schema.pack(right)
        assert same_pack == (left.canonical_key() == right.canonical_key())


# -- corpus-wide verdict equivalence -----------------------------------------

class TestCorpusVerdictEquivalence:
    """The exact and fingerprint stores: identical verdicts."""

    @pytest.mark.parametrize("group_name", sorted(GROUP_BUILDERS))
    def test_stores_agree(self, group_name):
        registry = _load_or_skip(load_all_apps)
        system = ModelGenerator(registry).build(
            GROUP_BUILDERS[group_name](), strict=False)
        from repro.properties import build_properties, select_relevant
        properties = select_relevant(system, build_properties())

        exact, fingerprint = (
            verify(system, properties, max_events=2, visited=store)
            for store in ("exact", "fingerprint"))
        assert (fingerprint.violated_property_ids
                == exact.violated_property_ids), group_name
        # both cover the identical bounded space
        assert fingerprint.states_explored == exact.states_explored, (
            group_name)
