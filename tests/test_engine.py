"""Tests for the exploration engine (visited protocol wiring, store
parity, parallel batch verification, and the depth-5 search under a
hard memory cap)."""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.engine import (
    EngineOptions,
    ExactVisitedSet,
    ExplorationEngine,
    VerificationJob,
    verify,
    verify_many,
    visited_store_names,
)
from repro.corpus import load_all_apps
from repro.corpus.groups import GROUP_BUILDERS
from repro.model.generator import ModelGenerator
from repro.model.state import ModelState
from repro.properties import build_properties, select_relevant

from tests.conftest import _load_or_skip


class TestStoreParity:
    """The depth-bounded DFS loses bitstate states to hash collisions
    only: the store tags each probe with its depth, so it re-expands a
    state reached shallower than before as the fingerprint store does.
    group1 at depth 4 is where a bit field without depths misses a
    third of the states and two of the seven violations."""

    def test_bitstate_finds_the_fingerprint_space_on_group1_depth4(self):
        registry = _load_or_skip(load_all_apps)
        system = ModelGenerator(registry).build(
            GROUP_BUILDERS["group1-entry-and-mode"]())
        properties = select_relevant(system, build_properties())
        results = {
            visited: verify(system, properties, max_events=4,
                            visited=visited, bitstate_bits=23)
            for visited in ("fingerprint", "bitstate")}
        fingerprint, bitstate = results["fingerprint"], results["bitstate"]
        assert bitstate.states_explored == fingerprint.states_explored
        assert set(bitstate.counterexamples) == set(
            fingerprint.counterexamples)
        assert len(fingerprint.counterexamples) == 7


class TestEngineStrategies:
    """The visited stores and their options."""

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

    def test_three_visited_stores(self):
        assert visited_store_names() == ["bitstate", "exact", "fingerprint"]

    @pytest.mark.parametrize("bits", [2, 35, 40, "x", 23.0, True, None])
    def test_bitstate_bits_outside_the_store_range_rejected(self, bits):
        """The bit field is allocated up front: an out-of-range or
        non-integer size fails at construction, before any allocation."""
        with pytest.raises(ValueError):
            EngineOptions(bitstate_bits=bits)

    @pytest.mark.parametrize("bits", [3, 16, 34])
    def test_bitstate_bits_range_ends_accepted(self, bits):
        assert EngineOptions(bitstate_bits=bits).bitstate_bits == bits

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
        """A store that keeps only hashed bits - the supertrace field,
        here far from saturation - changes no verdict against the plain
        in-RAM baseline."""
        hashed = verify(alice_system, build_properties(), max_events=2,
                        visited="bitstate")
        baseline = verify(alice_system, build_properties(), max_events=2,
                          visited="exact")
        assert _outcome(hashed) == _outcome(baseline)


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


class TestExactModeHasNoHashShortcuts:
    def test_exact_store_disables_invariant_memo(self, alice_system):
        """No memo and no inherited verdicts under ``exact``: every
        quiescent state is evaluated; the default store uses both and
        finds the same counterexamples."""
        exact = verify(alice_system, build_properties(), max_events=2,
                       visited="exact")
        assert exact.property_stats["invariant_memo_misses"] == 0
        assert exact.property_stats["invariant_memo_hits"] == 0
        assert exact.property_stats["invariant_inherited"] == 0
        memoized = verify(alice_system, build_properties(), max_events=2)
        assert memoized.property_stats["invariant_memo_misses"] > 0
        assert memoized.property_stats["invariant_inherited"] > 0
        assert (sorted(exact.counterexamples)
                == sorted(memoized.counterexamples))


class TestEngineGc:
    def test_gc_restored_after_run(self, alice_system):
        import gc

        assert gc.isenabled()
        verify(alice_system, build_properties(), max_events=1)
        assert gc.isenabled()


class TestSeenState:
    """The hybrid fingerprint-first path of the exact store."""

    def test_exact_seen_state_depth_aware(self):
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
        store = ExactVisitedSet()
        one = ModelState()
        one.set_attribute("d", "a", 1)
        two = ModelState()
        two.set_attribute("d", "a", 2)
        assert store.seen_state(one, 0) is False
        assert store.seen_state(two, 0) is False
        assert store.seen_state(two.copy(), 0) is True
        assert len(store) == 2


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


# -- depth 5 under a hard memory cap ------------------------------------------


_DEPTH5_SCRIPT = textwrap.dedent("""
    import resource, sys
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    from repro.corpus.groups import GROUP_BUILDERS
    from repro.engine import EngineOptions
    from repro.engine.batch import VerificationJob, execute_job
    result = execute_job(VerificationJob(
        "group1", GROUP_BUILDERS["group1-entry-and-mode"](),
        EngineOptions(max_events=5, max_states=2_000_000,
                      visited=sys.argv[1]),
        strict=False))
    assert not result.truncated, result.truncated_reason
    print(result.states_explored,
          resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
""")


class TestDepthFiveMemory:
    @pytest.mark.parametrize("visited", ["fingerprint"])
    def test_depth5_group1_fits_a_hard_address_space_cap(self, visited):
        """The exhaustive depth-5 search of group1 (~127k states) must
        finish inside a 1 GiB RLIMIT_AS on the default in-RAM
        fingerprint store: the search keeps only the visited store and
        the frontier, never a memo of expanded states.  A subprocess,
        because ru_maxrss is process-lifetime max and RLIMIT_AS must
        not constrain the rest of the suite."""
        _load_or_skip(load_all_apps)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _DEPTH5_SCRIPT, visited],
            capture_output=True, text=True, env=env, timeout=600)
        assert proc.returncode == 0, proc.stderr
        states, maxrss_kib = (int(field) for field in proc.stdout.split())
        assert states >= 100_000  # the full depth-5 frontier, not a stub
        assert maxrss_kib < 768 * 1024  # well under the 1 GiB cap
