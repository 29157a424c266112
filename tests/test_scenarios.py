"""Fault-injection scenario differentials: profiles vs tiers vs digests.

The named scenario profiles (:mod:`repro.model.faults`) are *semantic*
knobs: each one reshapes the explored transition relation (lost reports,
LIFO-delayed internal events, duplicated deliveries, dead devices, stale
reads).  These suites pin down the contract:

- ``clean`` is byte-identical to a run that never mentions scenarios;
- every profile produces identical verdicts, violation sets, state
  counts and canonical traces on the traced (interpreted) and lean
  relations (the differential oracle extended to faulted relations);
- profiles survive the visited-store choices;
- profiles are digest-distinguished - a lossy verdict can never be
  served from the clean result cache.
"""

import pytest

from repro.corpus import load_all_apps
from repro.corpus.groups import GROUP_BUILDERS
from repro.engine import EngineOptions, ExplorationEngine
from repro.engine.batch import VerificationJob
from repro.model.faults import PROFILES, resolve_scenario, scenario_names
from repro.model.generator import ModelGenerator
from repro.properties import build_properties, select_relevant

from tests.conftest import _load_or_skip

GROUP1 = "group1-entry-and-mode"
ENGINES = ("interpreted", "lean")
NON_CLEAN = tuple(name for name in scenario_names() if name != "clean")


@pytest.fixture(scope="module")
def registry():
    return _load_or_skip(load_all_apps)


def _context(registry, group_name):
    system = ModelGenerator(registry).build(GROUP_BUILDERS[group_name]())
    return system, select_relevant(system, build_properties())


def _run(registry, group_name, **option_kwargs):
    system, properties = _context(registry, group_name)
    options = EngineOptions(**option_kwargs)
    return ExplorationEngine(system, properties, options).run()


def _trace_view(result):
    """Per-counterexample event paths and full rendered step traces."""
    return {
        key: (ce.event_labels(),
              [(s.kind, s.text, s.app) for s in ce.all_steps()])
        for key, ce in result.counterexamples.items()}


def _assert_equivalent(left, right, context):
    assert left.states_explored == right.states_explored, context
    assert left.transitions == right.transitions, context
    assert sorted(left.counterexamples) == sorted(right.counterexamples), \
        context
    assert _trace_view(left) == _trace_view(right), context


class TestScenarioTierDifferential:
    """Every profile x both relations on the canonical violating group:
    the scenario layer lives in the shared cascade/relation code, so
    neither relation may observe a different faulted world."""

    @pytest.mark.parametrize("scenario", sorted(scenario_names()))
    def test_group1_all_tiers_agree(self, registry, scenario):
        results = {}
        for engine in ENGINES:
            results[engine] = _run(
                registry, GROUP1, engine=engine, scenario=scenario,
                max_events=2, max_states=20000)
        oracle = results["interpreted"]
        assert not oracle.truncated, scenario
        _assert_equivalent(results["lean"], oracle, scenario)

    @pytest.mark.parametrize("group_name", sorted(GROUP_BUILDERS))
    def test_corpus_groups_every_scenario(self, registry, group_name):
        """The whole bundled group corpus under every profile, one event
        of depth: cheap enough to sweep the full cross product."""
        for scenario in scenario_names():
            results = {}
            for engine in ENGINES:
                results[engine] = _run(
                    registry, group_name, engine=engine, scenario=scenario,
                    max_events=1, max_states=5000)
            _assert_equivalent(results["lean"], results["interpreted"],
                               (group_name, scenario))

    @pytest.mark.parametrize("visited", ("exact", "fingerprint"))
    def test_group1_stores_per_scenario(self, registry, visited):
        """Faulted relations meet every dedup store through the same
        engine hooks; the lean relation must agree state-for-state."""
        for scenario in NON_CLEAN:
            lean = _run(registry, GROUP1, engine="lean", scenario=scenario,
                        visited=visited, max_events=2, max_states=20000)
            oracle = _run(registry, GROUP1, engine="interpreted",
                          scenario=scenario, visited=visited,
                          max_events=2, max_states=20000)
            _assert_equivalent(lean, oracle, (scenario, visited))


class TestScenarioSemantics:
    def test_clean_matches_a_run_that_never_heard_of_scenarios(
            self, registry):
        default = _run(registry, GROUP1, max_events=2, max_states=20000)
        clean = _run(registry, GROUP1, scenario="clean",
                     max_events=2, max_states=20000)
        _assert_equivalent(clean, default, "clean vs default")
        assert clean.verdict == default.verdict

    def test_profiles_enumerate_their_variants(self, registry):
        """Each profile's variants surface as labeled failure scenarios
        alongside (never instead of) the clean delivery."""
        expected = {
            "lossy": " [report lost]",
            "delayed": " [delayed]",
            "duplicated": " [duplicated]",
            "device-death": " dead]",
            "stale-reads": " [stale reads]",
        }
        system, _ = _context(registry, GROUP1)
        state = system.initial_state()
        for name, suffix in expected.items():
            system.scenario_profile = resolve_scenario(name)
            labels = set()
            clean_choices = 0
            for ext in system.external_choices(state):
                for scenario in system.failure_scenarios(ext):
                    label = scenario.label()
                    labels.add(label)
                    clean_choices += not label
            assert any(label.endswith(suffix) for label in labels), name
            assert clean_choices, name  # ideal delivery always kept

    def test_clean_profile_enumerates_nothing(self, registry):
        system, _ = _context(registry, GROUP1)
        assert system.scenario_profile.is_clean  # the constructor default
        state = system.initial_state()
        for ext in system.external_choices(state):
            assert [s.label() for s in system.failure_scenarios(ext)] == [""]

    def test_non_clean_profiles_change_the_explored_space(self, registry):
        clean = _run(registry, GROUP1, max_events=2, max_states=20000)
        for scenario in NON_CLEAN:
            faulted = _run(registry, GROUP1, scenario=scenario,
                           max_events=2, max_states=20000)
            assert faulted.transitions > clean.transitions, scenario
            assert faulted.states_explored >= clean.states_explored, scenario

    def test_unknown_scenario_rejected_at_option_time(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            EngineOptions(scenario="packet-storm")
        with pytest.raises(ValueError):
            resolve_scenario("packet-storm")

    def test_resolve_scenario_is_idempotent(self):
        for name, profile in PROFILES.items():
            assert resolve_scenario(name) is profile
            assert resolve_scenario(profile) is profile
        assert EngineOptions(scenario="lossy").scenario == "lossy"
        assert EngineOptions().scenario == "clean"


class TestScenarioDigests:
    """Profiles are semantic: every one must split the result cache."""

    def _job(self, registry, **option_kwargs):
        _load_or_skip(load_all_apps)
        return VerificationJob(GROUP1, GROUP_BUILDERS[GROUP1](),
                               EngineOptions(max_events=2, **option_kwargs),
                               strict=False)

    def test_every_scenario_gets_its_own_cache_key(self, registry):
        from repro.service.digest import job_cache_key

        keys = {name: job_cache_key(self._job(registry, scenario=name))
                for name in scenario_names()}
        assert len(set(keys.values())) == len(keys)
        # the default spells "clean", so legacy submissions keep their keys
        assert job_cache_key(self._job(registry)) == keys["clean"]

    def test_options_payload_carries_the_scenario(self):
        from repro.service.digest import options_payload

        assert options_payload(EngineOptions(scenario="lossy"))["scenario"] \
            == "lossy"
        assert options_payload(EngineOptions())["scenario"] == "clean"

    def test_engine_tier_still_digest_neutral_under_faults(self, registry):
        """`engine` stays a performance knob inside every profile."""
        from repro.service.digest import job_cache_key

        keys = {engine: job_cache_key(
                    self._job(registry, scenario="lossy", engine=engine))
                for engine in ENGINES}
        assert len(set(keys.values())) == 1
