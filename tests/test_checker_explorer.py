"""Unit tests for the bounded explorer (§2.3 falsification, §8 search)."""

import pytest

from repro.engine import (
    CONCURRENT,
    SEQUENTIAL,
    BitStateVisitedSet,
    EngineOptions,
    ExactVisitedSet,
    ExplorationResult,
    verify,
)
from repro.properties import build_properties


class TestOptions:
    def test_defaults(self):
        options = EngineOptions()
        assert options.max_events == 3
        assert options.mode == SEQUENTIAL
        # one word per state is the default since the compiled-transition
        # engine: the store is the hash-compact trade-off Spin makes
        assert options.visited == "fingerprint"

    def test_make_visited_exact(self):
        store = EngineOptions(visited="exact").make_visited()
        assert type(store) is ExactVisitedSet

    def test_make_visited_bitstate(self):
        options = EngineOptions(visited="bitstate", bitstate_bits=16)
        store = options.make_visited()
        assert isinstance(store, BitStateVisitedSet)
        assert store.bits == 1 << 16


class TestSearch:
    def test_finds_fig7_violation(self, alice_system):
        result = verify(alice_system, build_properties(), max_events=2)
        assert "P06" in result.violated_property_ids

    def test_depth_one_suffices_for_fig7(self, alice_system):
        """The whole unlock chain is one cascade from one external event."""
        result = verify(alice_system, build_properties(), max_events=1)
        assert "P06" in result.violated_property_ids

    def test_counterexample_depth_bounded(self, alice_system):
        result = verify(alice_system, build_properties(), max_events=2)
        for counterexample in result.counterexamples.values():
            assert 1 <= counterexample.depth <= 2

    def test_deeper_bound_explores_more_states(self, alice_system):
        shallow = verify(alice_system, build_properties(), max_events=1)
        deep = verify(alice_system, build_properties(), max_events=3)
        assert deep.states_explored > shallow.states_explored

    def test_stop_on_first(self, alice_system):
        full = verify(alice_system, build_properties(), max_events=2)
        early = verify(alice_system, build_properties(), max_events=2,
                       stop_on_first=True)
        # stops at the first violating transition (which may carry several
        # violations from one cascade)
        assert early.has_violations
        assert early.transitions <= full.transitions

    def test_bitstate_finds_same_violations(self, alice_system):
        exact = verify(alice_system, build_properties(), max_events=2)
        bitstate = verify(alice_system, build_properties(), max_events=2,
                          visited="bitstate", bitstate_bits=20)
        assert set(bitstate.violated_property_ids) == set(
            exact.violated_property_ids)

    def test_concurrent_mode_finds_fig7(self, alice_system):
        result = verify(alice_system, build_properties(), max_events=2,
                        mode=CONCURRENT, max_states=50000)
        assert "P06" in result.violated_property_ids

    def test_sequential_faster_than_concurrent(self, alice_system):
        """Table 7b's point: sequential explores far fewer states."""
        sequential = verify(alice_system, build_properties(), max_events=2)
        concurrent = verify(alice_system, build_properties(), max_events=2,
                            mode=CONCURRENT, max_states=100000)
        assert sequential.states_explored < concurrent.states_explored


class TestLimits:
    def test_max_states_truncates(self, alice_system):
        result = verify(alice_system, build_properties(), max_events=3,
                        max_states=5)
        assert result.truncated
        assert result.truncated_reason == "max_states"

    def test_max_transitions_truncates(self, alice_system):
        result = verify(alice_system, build_properties(), max_events=3,
                        max_transitions=3)
        assert result.truncated
        assert result.truncated_reason == "max_transitions"

    @pytest.fixture(scope="class")
    def group1(self, registry):
        from repro.corpus.groups import GROUP_BUILDERS
        from repro.model.generator import ModelGenerator
        from repro.properties import select_relevant

        system = ModelGenerator(registry).build(
            GROUP_BUILDERS["group1-entry-and-mode"]())
        return system, select_relevant(system, build_properties())

    @pytest.mark.parametrize("visited", ["exact", "fingerprint", "bitstate"])
    @pytest.mark.parametrize("max_events", [1, 3])
    def test_integer_limits_stop_exactly(self, group1, max_events, visited):
        """The integer limits are checked after every transition, quiet
        leaves included: a run stops on the transition that reaches
        one, never later."""
        system, properties = group1
        by_states = verify(system, properties, max_events=max_events,
                           visited=visited, max_states=5)
        assert (by_states.truncated_reason,
                by_states.states_explored) == ("max_states", 5)
        by_transitions = verify(system, properties, max_events=max_events,
                                visited=visited, max_transitions=3)
        assert (by_transitions.truncated_reason,
                by_transitions.transitions) == ("max_transitions", 3)
        root_only = verify(system, properties, max_events=max_events,
                           visited=visited, max_states=1)
        assert (root_only.truncated_reason, root_only.states_explored,
                root_only.transitions) == ("max_states", 1, 0)

    def test_time_limit_truncates(self, alice_system):
        result = verify(alice_system, build_properties(), max_events=5,
                        time_limit=1e-9)
        assert result.truncated
        assert result.truncated_reason == "time_limit"


class TestResultAccessors:
    @pytest.fixture()
    def result(self, alice_system):
        return verify(alice_system, build_properties(), max_events=2)

    def test_summary_mentions_counts(self, result):
        summary = result.summary()
        assert "violation" in summary
        assert "states" in summary

    def test_counterexample_for(self, result):
        assert result.counterexample_for("P06") is not None
        assert result.counterexample_for("P99") is None

    def test_violations_property(self, result):
        assert len(result.violations) == len(result.counterexamples)

    def test_has_violations(self, result):
        assert result.has_violations
        assert not ExplorationResult().has_violations

    def test_event_labels_nonempty(self, result):
        counterexample = result.counterexample_for("P06")
        labels = counterexample.event_labels()
        assert labels
        assert all(isinstance(label, str) for label in labels)

    def test_describe_mentions_property(self, result):
        counterexample = result.counterexample_for("P06")
        assert "P06" in counterexample.describe()


class TestAttribution:
    def test_fig7_violation_attributed_to_both_apps(self, alice_system):
        result = verify(alice_system, build_properties(), max_events=2)
        counterexample = result.counterexample_for("P06")
        apps = set(counterexample.violation.apps)
        assert apps == {"Auto Mode Change", "Unlock Door"}

    def test_safe_system_has_no_violations(self, generator):
        from repro.config.schema import SystemConfiguration

        config = SystemConfiguration()
        config.add_device("m", "smartsense-motion")
        config.add_device("s1", "smart-outlet")
        config.add_app("Brighten My Path", {"motion1": "m", "switch1": "s1"})
        system = generator.build(config)
        from repro.properties import select_relevant
        props = select_relevant(system, build_properties())
        result = verify(system, props, max_events=2)
        assert not result.has_violations
