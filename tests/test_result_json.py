"""JSON round-trip of results + the cache-hit-rate regression."""

import json
import os
import subprocess
import sys
import textwrap

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


#: group1 at depth 3 on a 2^10-bit bitstate field and on fingerprint,
#: printed as one JSON object of the results without their timings
_SEED_SCRIPT = textwrap.dedent("""
    import json
    from repro.corpus import load_all_apps
    from repro.corpus.groups import GROUP_BUILDERS
    from repro.engine import EngineOptions, ExplorationEngine
    from repro.model.generator import ModelGenerator
    from repro.properties import build_properties, select_relevant

    system = ModelGenerator(load_all_apps()).build(
        GROUP_BUILDERS["group1-entry-and-mode"]())
    properties = select_relevant(system, build_properties())
    out = {}
    for visited in ("bitstate", "fingerprint"):
        result = ExplorationEngine(system, properties, EngineOptions(
            max_events=3, visited=visited, bitstate_bits=10)).run()
        payload = result.to_dict()
        payload.pop("elapsed")
        payload.pop("profile")
        out[visited] = payload
    print(json.dumps(out, sort_keys=True))
""")


class TestCoverage:
    """``coverage`` never claims more than the search did."""

    @pytest.fixture(scope="class")
    def group1_results(self, generator):
        from repro.corpus.groups import GROUP_BUILDERS

        system = generator.build(GROUP_BUILDERS["group1-entry-and-mode"]())
        properties = select_relevant(system, build_properties())
        # a 2^10-bit field saturates on group1's 4,316 depth-3 states:
        # the supertrace store drops most of them and misses violations
        # (each state sets a five-bit tag per depth it is reached at, so
        # the field fills to about 0.90-0.93)
        return {visited: ExplorationEngine(
                    system, properties,
                    EngineOptions(max_events=3, visited=visited,
                                  bitstate_bits=10)).run()
                for visited in ("bitstate", "fingerprint", "exact")}

    @pytest.mark.parametrize("visited,coverage", [
        ("bitstate", "partial"),
        ("fingerprint", "exhaustive"), ("exact", "exhaustive")])
    def test_supertrace_stores_are_partial(self, group1_results, visited,
                                           coverage):
        result = group1_results[visited]
        assert not result.truncated
        assert result.coverage == coverage
        payload = json.loads(result.to_json())
        assert payload["coverage"] == coverage
        assert ExplorationResult.from_dict(payload).coverage == coverage

    @pytest.mark.parametrize("visited", ("bitstate", "fingerprint", "exact"))
    def test_saturated_supertrace_really_missed_states(self, group1_results,
                                                       visited):
        exhaustive = group1_results["exact"]
        result = group1_results[visited]
        if visited != "bitstate":
            # the depth-aware stores cover the whole bounded space
            assert result.states_explored == exhaustive.states_explored
            assert (len(result.counterexamples)
                    == len(exhaustive.counterexamples))
            return
        assert result.visited_stats["fill_ratio"] > 0.85
        assert result.states_explored < exhaustive.states_explored // 4
        assert len(result.counterexamples) < len(exhaustive.counterexamples)

    def test_results_do_not_depend_on_the_string_hash_seed(self):
        """Fingerprints are keyed blake2b words, so a saturated bit
        field misses the same states in every process: group1 at depth
        3 on a 2^10-bit ``bitstate`` field and on ``fingerprint`` gives
        the same JSON, timings aside, at two ``PYTHONHASHSEED`` values
        (one subprocess each, since the seed is fixed at start-up)."""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        outputs = []
        for seed in ("0", "2"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-c", _SEED_SCRIPT], capture_output=True,
                text=True, env=env, timeout=600)
            assert proc.returncode == 0, proc.stderr
            outputs.append(json.loads(proc.stdout))
        assert outputs[0] == outputs[1]
        assert outputs[0]["bitstate"]["coverage"] == "partial"

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
        assert restored["schema"] == 3
        assert not {"workers", "shard" "_stats",
                    "shard" "_failure"} & set(restored)

    def test_v2_swarm_payload_stays_partial(self):
        """A v2 swarm result (a sampled search, stored with coverage
        "partial" but neither truncated nor bitstate) still loads as
        partial, also after a v3 round trip; the swarm block and the
        sleep-set pruning count are dropped."""
        payload = {"schema": 2, "verdict": "safe", "coverage": "partial",
                   "counterexamples": [], "states_explored": 900,
                   "transitions": 2400, "truncated": False,
                   "truncated_reason": None, "commutes_pruned": 0,
                   "visited_stats": {"stored": 900, "approx_bytes": 63000,
                                     "bytes_per_state": 70.0},
                   "swarm": {"members": 4, "seed": 7, "candidates": 0,
                             "replay_failures": 0,
                             "distinct_violations": 0,
                             "coverage_estimate": None,
                             "member_stats": []}}
        result = ExplorationResult.from_dict(payload)
        assert result.coverage == "partial"
        assert result.states_explored == 900
        restored = result.to_dict()
        assert restored["schema"] == 3
        assert not {"swarm", "commutes_pruned"} & set(restored)
        assert ExplorationResult.from_dict(restored).coverage == "partial"

    def test_exhaustive_results_stay_exhaustive(self, alice_system,
                                                alice_result):
        """A complete run loads back exhaustive and untruncated; a
        truncated one is partial."""
        payload = json.loads(alice_result.to_json())
        assert payload["coverage"] == "exhaustive"
        restored = ExplorationResult.from_dict(payload)
        assert restored.coverage == "exhaustive"
        assert not restored.truncated
        properties = select_relevant(alice_system, build_properties())
        truncated = ExplorationEngine(
            alice_system, properties,
            EngineOptions(max_events=2, max_states=3)).run()
        assert truncated.truncated and truncated.coverage == "partial"


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
        assert payload["schema"] == 3
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
