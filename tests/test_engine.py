"""Tests for the pluggable exploration engine (frontiers, strategies,
visited protocol wiring, and parallel batch verification)."""

import pytest

from repro.engine import (
    BreadthFirstFrontier,
    DepthFirstFrontier,
    EngineOptions,
    ExplorationEngine,
    PriorityFrontier,
    VerificationJob,
    make_frontier,
    register_strategy,
    strategy_names,
    verify,
    verify_many,
)
from repro.engine.core import _Node, replay_path
from repro.model.state import ModelState
from repro.properties import build_properties


def _node(depth, pending=()):
    state = ModelState(pending=pending)
    return _Node(state, depth)


class TestFrontiers:
    def test_dfs_is_lifo(self):
        frontier = DepthFirstFrontier()
        first, second = _node(1), _node(2)
        frontier.push(first)
        frontier.push(second)
        assert frontier.pop() is second
        assert frontier.pop() is first

    def test_bfs_is_fifo(self):
        frontier = BreadthFirstFrontier()
        first, second = _node(1), _node(2)
        frontier.push(first)
        frontier.push(second)
        assert frontier.pop() is first
        assert frontier.pop() is second

    def test_priority_orders_by_key(self):
        frontier = PriorityFrontier(priority=lambda node: -node.depth)
        shallow, deep = _node(1), _node(5)
        frontier.push(shallow)
        frontier.push(deep)
        assert frontier.pop() is deep

    def test_default_priority_prefers_shallow(self):
        frontier = PriorityFrontier()
        shallow, deep = _node(0), _node(3)
        frontier.push(deep)
        frontier.push(shallow)
        assert frontier.pop() is shallow

    def test_len_and_bool(self):
        frontier = DepthFirstFrontier()
        assert not frontier and len(frontier) == 0
        frontier.push(_node(0))
        assert frontier and len(frontier) == 1


class TestStrategyRegistry:
    def test_builtins_registered(self):
        assert {"dfs", "bfs", "priority"} <= set(strategy_names())

    def test_unknown_strategy_raises(self):
        with pytest.raises(KeyError):
            make_frontier("simulated-annealing", EngineOptions())

    def test_registration_is_pluggable(self):
        calls = []

        def factory(options):
            calls.append(options)
            return DepthFirstFrontier()

        register_strategy("test-strategy", factory)
        try:
            options = EngineOptions(strategy="test-strategy")
            assert isinstance(options.make_frontier(), DepthFirstFrontier)
            assert calls == [options]
        finally:
            from repro.engine.strategy import _STRATEGIES
            _STRATEGIES.pop("test-strategy", None)

    def test_options_build_frontier_by_name(self):
        assert isinstance(EngineOptions(strategy="bfs").make_frontier(),
                          BreadthFirstFrontier)


class TestEngineStrategies:
    """All strategies explore the same bounded space (order differs)."""

    @pytest.mark.parametrize("strategy", ["dfs", "bfs", "priority"])
    def test_same_coverage_and_findings(self, alice_system, strategy):
        baseline = verify(alice_system, build_properties(), max_events=2)
        result = verify(alice_system, build_properties(), max_events=2,
                        strategy=strategy)
        assert result.states_explored == baseline.states_explored
        assert result.violated_property_ids == baseline.violated_property_ids

    def test_fingerprint_store_matches_exact(self, alice_system):
        exact = verify(alice_system, build_properties(), max_events=2,
                       visited="exact")
        fingerprint = verify(alice_system, build_properties(), max_events=2,
                             visited="fingerprint")
        assert fingerprint.states_explored == exact.states_explored
        assert (fingerprint.violated_property_ids
                == exact.violated_property_ids)

    def test_unknown_visited_store_raises(self):
        with pytest.raises(KeyError):
            EngineOptions(visited="quantum").make_visited()

    def test_visited_stats_on_result(self, alice_system):
        result = verify(alice_system, build_properties(), max_events=1)
        assert result.visited_stats.get("stored", 0) > 0

    def test_states_per_second(self, alice_system):
        result = verify(alice_system, build_properties(), max_events=1)
        assert result.states_per_second > 0


def _outcome(result):
    return (result.states_explored, result.transitions,
            sorted(result.counterexamples))


class TestSuccessorCache:
    """The engine memoizes no expansions: every node takes the one
    expansion path, so a search's outcome must not depend on whether a
    state was seen before, nor on how the visited store keeps it."""

    def test_cache_off_is_identical(self, alice_system):
        """The fingerprint store, the one hash shortcut left, finds
        exactly what the shortcut-free exact store finds."""
        shortcut = verify(alice_system, build_properties(), max_events=2)
        exact = verify(alice_system, build_properties(), max_events=2,
                       visited="exact")
        assert _outcome(shortcut) == _outcome(exact)

    def test_replayed_expansions_match_live(self, generator, alice_config):
        """Re-expanding every state of an already-explored system (a
        second run on it) matches a run on a freshly built one."""
        system = generator.build(alice_config)
        live = verify(system, build_properties(), max_events=3)
        replayed = verify(system, build_properties(), max_events=3)
        fresh = verify(generator.build(alice_config), build_properties(),
                       max_events=3)
        assert live.states_explored == 45
        assert live.transitions == 162
        assert len(live.counterexamples) == 3
        assert _outcome(replayed) == _outcome(live) == _outcome(fresh)

    def test_auto_disable_below_threshold(self, alice_system):
        """A store that compresses what it keeps changes no verdict
        against the plain in-RAM baseline."""
        collapsed = verify(alice_system, build_properties(), max_events=2,
                           visited="collapse")
        baseline = verify(alice_system, build_properties(), max_events=2,
                          visited="exact")
        assert _outcome(collapsed) == _outcome(baseline)

    def test_lru_keeps_working_past_old_hard_stop(self, alice_system,
                                                  tmp_path):
        """A store that holds only a bounded working set in RAM and
        spills the rest to disk neither freezes nor breaks the search."""
        spilled = verify(alice_system, build_properties(), max_events=2,
                         visited="spill", spill_dir=str(tmp_path))
        in_ram = verify(alice_system, build_properties(), max_events=2)
        assert _outcome(spilled) == _outcome(in_ram)


class TestExactStoreIsExact:
    """``visited="exact"`` promises no hash shortcuts: with every state
    fingerprint colliding, the search must still count and find exactly
    what it does with real fingerprints."""

    def test_constant_fingerprint_changes_nothing(self, alice_system,
                                                  monkeypatch):
        def counts():
            result = verify(alice_system, build_properties(), max_events=3,
                            visited="exact")
            return (result.states_explored, result.transitions,
                    sorted(result.counterexamples))

        real = counts()
        assert real[:2] == (45, 162)
        assert len(real[2]) == 3
        monkeypatch.setattr(ModelState, "fingerprint", lambda self: 0)
        assert counts() == real

    def test_concurrent_fingerprint_store_matches_exact(self, generator,
                                                        alice_config):
        """Concurrent-mode states carry pending Event objects, which are
        freed once expanded: their fingerprints must not depend on
        reusable addresses, or freed-and-reallocated events make
        different states collide in the fingerprint store."""
        system = generator.build(alice_config)
        runs = [verify(system, build_properties(), max_events=3,
                       mode="concurrent", visited=visited)
                for visited in ("exact", "fingerprint")]
        assert runs[0].states_explored == runs[1].states_explored
        assert runs[0].transitions == runs[1].transitions


class TestEngineOption:
    def test_interpreted_engine_matches_default(self, alice_system):
        default = verify(alice_system, build_properties(), max_events=2)
        interpreted = verify(alice_system, build_properties(), max_events=2,
                             engine="interpreted")
        assert default.states_explored == interpreted.states_explored
        assert (sorted(default.counterexamples)
                == sorted(interpreted.counterexamples))


class TestReplayPath:
    def test_step_runs_only_the_matching_externals_cascades(
            self, generator, alice_config):
        """A replay step builds monitors only for the failure scenarios
        of the external whose label it replays, up to the matching one,
        and none for the other externals."""
        system = generator.build(alice_config, enable_failures=True)
        engine = ExplorationEngine(system, build_properties(),
                                   EngineOptions(max_events=1))
        factory = engine._monitor_factory
        calls = []

        def counting_factory():
            calls.append(1)
            return factory()
        engine._monitor_factory = counting_factory
        choices = system.external_choices(system.initial_state())
        assert len(choices) > 1
        for position, ext in enumerate(choices):
            label = ext.label()
            # an earlier external whose label starts this one ("battery=5"
            # before "battery=50") runs its cascades too, matching none
            earlier = sum(len(system.failure_scenarios(other))
                          for other in choices[:position]
                          if label.startswith(other.label()))
            scenarios = system.failure_scenarios(ext)
            assert len(scenarios) > 1
            for index, scenario in enumerate(scenarios):
                del calls[:]
                replay_path(engine, (label + scenario.label(),))
                assert len(calls) == earlier + index + 1


class TestExactModeHasNoHashShortcuts:
    def test_exact_store_disables_invariant_memo(self, alice_system):
        exact = verify(alice_system, build_properties(), max_events=2,
                       visited="exact")
        assert exact.property_stats.get("invariant_memo_misses", 0) == 0
        assert exact.property_stats.get("invariant_memo_hits", 0) == 0
        memoized = verify(alice_system, build_properties(), max_events=2)
        assert memoized.property_stats["invariant_memo_misses"] > 0
        assert (sorted(exact.counterexamples)
                == sorted(memoized.counterexamples))


class TestEngineGc:
    def test_gc_restored_after_run(self, alice_system):
        import gc

        assert gc.isenabled()
        verify(alice_system, build_properties(), max_events=1)
        assert gc.isenabled()

    def test_gc_left_alone_when_unmanaged(self, alice_system):
        import gc

        verify(alice_system, build_properties(), max_events=1,
               manage_gc=False)
        assert gc.isenabled()


class TestSeenState:
    """The hybrid fingerprint-first path of the exact store."""

    def test_exact_seen_state_depth_aware(self):
        from repro.checker.visited import ExactVisitedSet

        store = ExactVisitedSet()
        state = ModelState()
        state.set_attribute("d", "a", 1)
        assert store.seen_state(state, 2) is False
        dup = state.copy()
        assert store.seen_state(dup, 3) is True   # deeper: prune
        assert store.seen_state(dup, 1) is False  # shallower: re-expand
        assert store.seen_state(dup, 1) is True
        assert len(store) == 1

    def test_exact_seen_state_distinguishes_states(self):
        from repro.checker.visited import ExactVisitedSet

        store = ExactVisitedSet()
        one = ModelState()
        one.set_attribute("d", "a", 1)
        two = ModelState()
        two.set_attribute("d", "a", 2)
        assert store.seen_state(one, 0) is False
        assert store.seen_state(two, 0) is False
        assert store.seen_state(two.copy(), 0) is True
        assert len(store) == 2


class TestExplorerShim:
    def test_shim_names_are_engine_objects(self):
        from repro.checker import explorer

        assert explorer.Explorer is ExplorationEngine
        assert explorer.ExplorerOptions is EngineOptions
        assert explorer.verify is verify

    def test_shim_verify_still_works(self, alice_system):
        from repro.checker.explorer import verify as shim_verify

        result = shim_verify(alice_system, build_properties(), max_events=1)
        assert "P06" in result.violated_property_ids


def _die_on_job1(job):
    """Pool-side stand-in for ``_execute_named``: the worker running the
    job named "job1" exits without a word, everything else runs
    normally."""
    import os

    from repro.engine.batch import execute_job

    if job.name == "job1":
        os._exit(1)
    return job.name, execute_job(job)


class TestVerifyMany:
    @pytest.fixture()
    def jobs(self, alice_config):
        options = EngineOptions(max_events=1)
        return [VerificationJob("job%d" % index, alice_config, options,
                                strict=False)
                for index in range(4)]

    def test_serial_inline_execution(self, jobs):
        batch = verify_many(jobs, workers=1)
        assert len(batch) == 4 and not batch.errors
        assert batch.workers == 1
        for result in batch:
            assert "P06" in result.violated_property_ids

    def test_parallel_matches_serial(self, jobs):
        serial = verify_many(jobs, workers=1)
        parallel = verify_many(jobs, workers=2)
        assert not parallel.errors
        assert parallel.states_explored == serial.states_explored
        assert (parallel.violated_property_ids
                == serial.violated_property_ids)

    def test_merged_statistics(self, jobs):
        batch = verify_many(jobs, workers=1)
        one = batch["job0"]
        assert batch.states_explored == one.states_explored * 4
        assert batch.transitions == one.transitions * 4
        assert batch.job_seconds >= one.elapsed
        assert batch.has_violations
        summary = batch.summary()
        assert "job0" in summary and "4 job(s)" in summary

    def test_submission_order_preserved(self, jobs):
        batch = verify_many(jobs, workers=2)
        assert list(batch.results) == ["job0", "job1", "job2", "job3"]

    def test_job_errors_reported_not_raised(self, alice_config):
        bad = VerificationJob("bad", alice_config,
                              EngineOptions(visited="quantum"))
        good = VerificationJob("good", alice_config,
                               EngineOptions(max_events=1), strict=False)
        batch = verify_many([bad, good], workers=1)
        assert "bad" in batch.errors
        assert "KeyError" in batch.errors["bad"]
        assert "good" in batch.results

    def test_worker_death_is_a_job_error(self, jobs, monkeypatch):
        """A pool worker that dies mid-job (a segfault, the OOM killer)
        must not take the caller down: ``verify_many`` returns, the dead
        job is reported as an error and no result carries its name."""
        import repro.engine.batch as batch_module

        # module-level stand-in: the pool pickles the callable by name
        monkeypatch.setattr(batch_module, "_execute_named",
                            _die_on_job1)
        batch = verify_many(jobs, workers=2, timeout=120)
        assert "job1" in batch.errors
        assert "job1" not in batch.results
        assert set(batch.results) | set(batch.errors) \
            == {"job0", "job1", "job2", "job3"}

    def test_per_job_options(self, alice_config):
        jobs = [VerificationJob("shallow", alice_config,
                                EngineOptions(max_events=1), strict=False),
                VerificationJob("deep", alice_config,
                                EngineOptions(max_events=2), strict=False)]
        batch = verify_many(jobs, workers=1)
        assert (batch["deep"].states_explored
                > batch["shallow"].states_explored)

    def test_check_configurations_facade(self, alice_config):
        from repro import check_configurations

        batch = check_configurations({"alice": alice_config}, workers=1,
                                     max_events=1)
        assert "P06" in batch.violated_property_ids


class TestVolunteerJobs:
    def test_seventy_jobs(self, registry):
        from repro.attribution.volunteers import volunteer_verification_jobs

        jobs = volunteer_verification_jobs(registry)
        assert len(jobs) == 70
        names = {job.name for job in jobs}
        assert "vgroup01/volunteer1-maximalist" in names

    def test_group_filter(self, registry):
        from repro.attribution.volunteers import volunteer_verification_jobs

        jobs = volunteer_verification_jobs(registry, groups=["vgroup02"],
                                           profiles=["volunteer1-maximalist"])
        assert [job.name for job in jobs] == [
            "vgroup02/volunteer1-maximalist"]
