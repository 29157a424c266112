"""JSON round-trip of results + the cache-hit-rate regression."""

import json

import pytest

from repro import check_configurations
from repro.checker.trace import render_violation_log
from repro.checker.violations import Counterexample, TraceStep, Violation
from repro.engine import EngineOptions, ExplorationEngine
from repro.engine.result import BatchResult, ExplorationResult
from repro.properties import build_properties, select_relevant


@pytest.fixture()
def alice_result(alice_system):
    properties = select_relevant(alice_system, build_properties())
    return ExplorationEngine(alice_system, properties,
                             EngineOptions(max_events=2)).run()


class TestExplorationResultRoundTrip:
    def test_to_json_round_trips_exactly(self, alice_result):
        text = alice_result.to_json()
        restored = ExplorationResult.from_json(text)
        assert restored.to_dict() == alice_result.to_dict()
        assert restored.to_json() == text

    def test_verdict_and_statistics_survive(self, alice_result):
        restored = ExplorationResult.from_json(alice_result.to_json())
        assert restored.verdict == "violated"
        assert restored.violated_property_ids == \
            alice_result.violated_property_ids
        assert restored.states_explored == alice_result.states_explored
        assert restored.transitions == alice_result.transitions
        assert restored.visited_stats == alice_result.visited_stats
        assert restored.summary() == alice_result.summary()

    def test_counterexample_traces_render_byte_identically(
            self, alice_system, alice_result):
        restored = ExplorationResult.from_json(alice_result.to_json())
        assert len(restored.counterexamples) == \
            len(alice_result.counterexamples)
        for key, counterexample in alice_result.counterexamples.items():
            twin = restored.counterexamples[key]
            assert twin.describe() == counterexample.describe()
            assert render_violation_log(alice_system, twin) == \
                render_violation_log(alice_system, counterexample)

    def test_restored_properties_are_catalog_objects(self, alice_result):
        restored = ExplorationResult.from_json(alice_result.to_json())
        by_id = {p.id: p for p in build_properties()}
        for counterexample in restored.counterexamples.values():
            prop = counterexample.violation.property
            assert prop is by_id[prop.id]

    def test_unknown_property_degrades_to_stub(self):
        violation = Violation.from_dict({
            "property": {"id": "PX99", "name": "Custom rule",
                         "category": "custom", "kind": "invariant",
                         "description": "d", "ltl": "[](x)",
                         "roles": ["some_role"]},
            "message": "custom violated", "apps": ["A"]})
        assert violation.property.id == "PX99"
        assert violation.property.ltl == "[](x)"
        assert violation.property.roles == ("some_role",)
        assert violation.dedup_key() == ("PX99", "custom violated", ("A",))

    def test_trace_step_optional_fields(self):
        step = TraceStep("command", "lock.unlock()", app="Unlock Door")
        assert TraceStep.from_dict(step.to_dict()).app == "Unlock Door"
        bare = TraceStep.from_dict({"kind": "log", "text": "x"})
        assert bare.app is None and bare.line is None

    def test_counterexample_path_round_trips(self):
        violation = Violation.from_dict({
            "property": {"id": "P06", "name": "n"}, "message": "m"})
        counterexample = Counterexample(violation, [
            ("alicePresence/presence=present",
             [TraceStep("handler", "App.handler(ev)", app="App")]),
        ])
        restored = Counterexample.from_dict(counterexample.to_dict())
        assert restored.event_labels() == counterexample.event_labels()
        assert [s.text for s in restored.all_steps()] == \
            [s.text for s in counterexample.all_steps()]

    def test_newer_schema_refused(self):
        with pytest.raises(ValueError, match="schema version"):
            ExplorationResult.from_dict({"schema": 999})


class TestCoverage:
    """``coverage`` never claims more than the search did."""

    @pytest.fixture(scope="class")
    def group1_results(self, generator):
        from repro.corpus.groups import GROUP_BUILDERS

        system = generator.build(GROUP_BUILDERS["group1-entry-and-mode"]())
        properties = select_relevant(system, build_properties())
        # a 2^10-bit field saturates on group1's 4,316 depth-3 states:
        # the supertrace stores drop most of them and miss violations
        return {visited: ExplorationEngine(
                    system, properties,
                    EngineOptions(max_events=3, visited=visited,
                                  bitstate_bits=10)).run()
                for visited in ("bitstate", "bitstate-k", "fingerprint",
                                "exact")}

    @pytest.mark.parametrize("visited,coverage", [
        ("bitstate", "partial"), ("bitstate-k", "partial"),
        ("fingerprint", "exhaustive"), ("exact", "exhaustive")])
    def test_supertrace_stores_are_partial(self, group1_results, visited,
                                           coverage):
        result = group1_results[visited]
        assert not result.truncated
        assert result.coverage == coverage
        payload = json.loads(result.to_json())
        assert payload["coverage"] == coverage
        assert ExplorationResult.from_dict(payload).coverage == coverage

    def test_saturated_supertrace_really_missed_states(self, group1_results):
        exhaustive = group1_results["exact"]
        assert group1_results["fingerprint"].states_explored \
            == exhaustive.states_explored
        for visited in ("bitstate", "bitstate-k"):
            result = group1_results[visited]
            assert result.visited_stats["fill_ratio"] > 0.9
            assert result.states_explored < exhaustive.states_explored
            assert len(result.counterexamples) \
                < len(exhaustive.counterexamples)

    def test_v1_payload_with_shard_fields_loads(self):
        """Results stored before schema v2 still load; the retired
        sharding fields are dropped, and a run that lost a shard (always
        ``truncated``) stays partial."""
        payload = {"schema": 1, "verdict": "safe", "coverage": "partial",
                   "counterexamples": [], "states_explored": 120,
                   "transitions": 300, "truncated": True,
                   "truncated_reason": "shard" "_failure",
                   "workers": 2,
                   "shard" "_stats": [{"worker": 0, "states_explored": 70}],
                   "shard" "_failure": {"workers": [1], "exitcodes": [-9],
                                       "lost_handoffs": 3}}
        result = ExplorationResult.from_dict(payload)
        assert result.coverage == "partial"
        assert result.states_explored == 120
        restored = result.to_dict()
        assert restored["schema"] == 2
        assert not {"workers", "shard" "_stats",
                    "shard" "_failure"} & set(restored)


class TestBatchResultRoundTrip:
    def test_round_trip_with_errors(self, alice_config):
        batch = check_configurations(
            {"alice": alice_config, "alice-2": alice_config},
            workers=1, max_events=1)
        batch.add_error("broken", "ValueError: nope")
        restored = BatchResult.from_json(batch.to_json())
        assert restored.to_dict() == batch.to_dict()
        assert restored.errors == {"broken": "ValueError: nope"}
        assert restored.workers == batch.workers
        assert restored.violated_property_ids == batch.violated_property_ids
        assert restored.summary() == batch.summary()

    def test_json_is_machine_parseable(self, alice_config):
        batch = check_configurations({"alice": alice_config}, workers=1,
                                     max_events=1)
        payload = json.loads(batch.to_json(indent=2))
        assert payload["schema"] == 2
        assert payload["verdict"] in ("safe", "violated")
        assert "alice" in payload["results"]


class TestCacheHitRateRegression:
    """The engine memoizes no expansions, yet results still answer
    ``cache_hits``/``cache_misses`` with zero (external benchmark tracers
    derive a hit rate from them) while serializing no cache fields."""

    def test_zero_lookup_run(self, alice_system):
        properties = select_relevant(alice_system, build_properties())
        result = ExplorationEngine(
            alice_system, properties, EngineOptions(max_events=0)).run()
        assert result.cache_hits == 0 and result.cache_misses == 0
        assert not [key for key in result.to_dict() if "cache" in key]
        result.summary()  # the formatted report must not raise either

    def test_fresh_result_object(self):
        result = ExplorationResult()
        assert result.cache_hits == 0 and result.cache_misses == 0
        assert "cache" not in result.summary()
