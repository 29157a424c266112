"""Unit tests for the model-checker state vector."""

from repro.model.cascade import Cascade
from repro.model.state import ModelState


class TestReadsWrites:
    def test_attribute_unknown_is_none(self):
        state = ModelState()
        assert state.attribute("d", "switch") is None

    def test_set_and_get(self):
        state = ModelState()
        state.set_attribute("d", "switch", "on")
        assert state.attribute("d", "switch") == "on"

    def test_app_state_created_on_demand(self):
        # the state has no map until one is stored; a cascade hands app
        # code a new empty map and stores it when it ends
        state = ModelState()
        assert state.app_state("App") is None
        cascade = Cascade(None, state, None)
        cascade.app_state("App")["count"] = 1
        assert state.app_state("App") is None
        cascade.write_back()
        assert state.app_state("App") == {"count": 1}


class TestHistory:
    def test_record_event(self):
        state = ModelState()
        state.record_event("d", "switch", "on")
        assert state.device_history("d") == (("switch", "on", 0),)

    def test_history_bounded(self):
        state = ModelState()
        for index in range(10):
            state.record_event("d", "switch", "v%d" % index)
        assert len(state.device_history("d")) == ModelState.HISTORY_LIMIT

    def test_history_keeps_newest(self):
        state = ModelState()
        for index in range(10):
            state.record_event("d", "switch", index)
        values = [value for _a, value, _t in state.device_history("d")]
        assert values == [6, 7, 8, 9]


class TestSchedules:
    def test_add_schedule_idempotent(self):
        state = ModelState()
        state.add_schedule("App", "h")
        state.add_schedule("App", "h")
        assert len(state.schedules) == 1

    def test_remove_specific_schedule(self):
        state = ModelState()
        state.add_schedule("App", "h1")
        state.add_schedule("App", "h2")
        state.remove_schedule("App", "h1")
        assert state.schedules == (("App", "h2", False),)

    def test_remove_all_app_schedules(self):
        state = ModelState()
        state.add_schedule("App", "h1")
        state.add_schedule("App", "h2")
        state.remove_schedule("App")
        assert state.schedules == ()


class TestCopySemantics:
    def test_copy_isolates_devices(self):
        state = ModelState()
        state.set_attribute("d", "switch", "off")
        clone = state.copy()
        clone.set_attribute("d", "switch", "on")
        assert state.attribute("d", "switch") == "off"

    def test_copy_isolates_app_state(self):
        state = ModelState()
        state.set_app_state("App", {"x": [1]})
        clone = state.copy()
        # app code mutates the cascade's deep copy, nested lists too
        cascade = Cascade(None, clone, None)
        cascade.app_state("App")["x"].append(2)
        cascade.write_back()
        assert state.app_state("App") == {"x": [1]}
        assert clone.app_state("App") == {"x": [1, 2]}

    def test_copy_preserves_mode_and_time(self):
        state = ModelState(mode="Night", time=120)
        clone = state.copy()
        assert clone.mode == "Night"
        assert clone.time == 120


class TestKey:
    def test_key_equal_for_equal_states(self):
        a, b = ModelState(), ModelState()
        for state in (a, b):
            state.set_attribute("d", "switch", "on")
            state.mode = "Away"
        assert a.canonical_key() == b.canonical_key()

    def test_key_differs_on_attribute(self):
        a, b = ModelState(), ModelState()
        a.set_attribute("d", "switch", "on")
        b.set_attribute("d", "switch", "off")
        assert a.canonical_key() != b.canonical_key()

    def test_key_differs_on_mode(self):
        a = ModelState(mode="Home")
        b = ModelState(mode="Away")
        assert a.canonical_key() != b.canonical_key()

    def test_key_ignores_time(self):
        # "the clock is deliberately excluded" - time only orders history
        a = ModelState(time=0)
        b = ModelState(time=99999)
        assert a.canonical_key() == b.canonical_key()

    def test_key_hashable(self):
        state = ModelState()
        state.set_app_state("App", {"nested": {"list": [1, 2],
                                               "map": {"k": "v"}}})
        hash(state.canonical_key())

    def test_key_stable_under_copy(self):
        state = ModelState()
        state.set_attribute("d", "lock", "locked")
        state.set_app_state("A", {"x": [1, {"y": 2}]})
        state.add_schedule("A", "h", periodic=True)
        assert state.copy().canonical_key() == state.canonical_key()

    def test_key_order_independent_for_devices(self):
        a, b = ModelState(), ModelState()
        a.set_attribute("d1", "switch", "on")
        a.set_attribute("d2", "switch", "off")
        b.set_attribute("d2", "switch", "off")
        b.set_attribute("d1", "switch", "on")
        assert a.canonical_key() == b.canonical_key()
