"""The swarm tier (:mod:`repro.engine.swarm`): sampled search, sound bugs.

The tentpole acceptance bar, pinned as tests:

* **corpus-wide soundness** - every violation a swarm reports, on every
  bundled expert group, replays byte-identically on the exhaustive
  interpreted-oracle run: swarm results may *miss* violations, never
  invent or distort one;
* **coverage honesty** - a swarm result always reports
  ``coverage == "partial"`` (even when members exhausted the space),
  and the vetting scheduler refuses to cache a swarm ``safe`` while
  still caching swarm-found violations;
* **determinism** - the swarm is a pure function of (system, options,
  seed): one seed, one byte-identical ``SwarmResult`` JSON;
* **accounting** - member stats sum to the merged totals, per-member
  budgets truncate honestly, duplicate member finds collapse into one
  deduplicated violation set;
* **memory** - depth-5 group1 completes exhaustively inside a hard
  address-space cap with the disk-backed visited store, where the
  default in-RAM configuration needs gigabytes.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.config.schema import SystemConfiguration
from repro.corpus import load_all_apps
from repro.corpus.groups import GROUP_BUILDERS
from repro.engine import EngineOptions, ExplorationResult, SwarmResult
from repro.engine.batch import VerificationJob, execute_job
from repro.service import ResultStore, Scheduler

from tests.conftest import _load_or_skip

GROUP1 = "group1-entry-and-mode"


def _group_job(group_name, **option_kwargs):
    _load_or_skip(load_all_apps)
    option_kwargs.setdefault("max_events", 2)
    return VerificationJob(group_name, GROUP_BUILDERS[group_name](),
                           EngineOptions(**option_kwargs), strict=False)


def _swarm_job(group_name, **option_kwargs):
    option_kwargs.setdefault("mode", "swarm")
    option_kwargs.setdefault("swarm_members", 3)
    option_kwargs.setdefault("seed", 11)
    return _group_job(group_name, **option_kwargs)


def _safe_config():
    """A deployment with no violated property: motion turns on a light."""
    config = SystemConfiguration()
    config.add_device("motion1", "smartsense-motion")
    config.add_device("switch1", "smart-outlet")
    config.add_app("Brighten My Path", {"motion1": "motion1",
                                        "switch1": "switch1"})
    return config


def _comparable(result):
    """The result dict with wall-clock fields stripped (never stable)."""
    data = result.to_dict()
    data.pop("elapsed", None)
    data.pop("profile", None)
    return data


# -- corpus-wide soundness ----------------------------------------------------


class TestCorpusSoundness:
    """Swarm violations are exhaustive-oracle violations, byte for byte."""

    @pytest.mark.parametrize("group_name", sorted(GROUP_BUILDERS))
    def test_swarm_violations_replay_on_the_oracle(self, group_name):
        exhaustive = execute_job(
            _group_job(group_name, engine="interpreted"))
        swarm = execute_job(_swarm_job(group_name))
        assert isinstance(swarm, SwarmResult)
        assert swarm.swarm["replay_failures"] == 0
        # never a violation the exhaustive oracle does not know
        assert set(swarm.counterexamples) <= set(exhaustive.counterexamples)
        for key, counterexample in swarm.counterexamples.items():
            assert (counterexample.to_dict()
                    == exhaustive.counterexamples[key].to_dict()), (
                group_name, key)
        # and with the default member diversification at these bounds
        # the swarm actually finds the full violation set
        assert (sorted(swarm.counterexamples)
                == sorted(exhaustive.counterexamples)), group_name
        assert swarm.verdict == exhaustive.verdict


# -- determinism --------------------------------------------------------------


class TestDeterminism:
    def test_same_seed_same_result_bytes(self):
        first = execute_job(_swarm_job(GROUP1, seed=7))
        second = execute_job(_swarm_job(GROUP1, seed=7))
        assert (json.dumps(_comparable(first), sort_keys=True)
                == json.dumps(_comparable(second), sort_keys=True))

    def test_result_json_round_trips_as_swarm_result(self):
        result = execute_job(_swarm_job(GROUP1))
        restored = ExplorationResult.from_json(result.to_json())
        # the polymorphic loader hands back the subclass
        assert isinstance(restored, SwarmResult)
        assert restored.swarm == result.swarm
        assert restored.coverage == "partial"
        assert _comparable(restored) == _comparable(result)


# -- member accounting, budgets, dedup ----------------------------------------


class TestMemberAccounting:
    def test_member_stats_sum_to_the_merged_totals(self):
        result = execute_job(_swarm_job(GROUP1, swarm_members=4))
        stats = result.swarm["member_stats"]
        assert result.swarm["members"] == 4
        assert [entry["member"] for entry in stats] == [0, 1, 2, 3]
        assert result.states_explored == sum(e["states"] for e in stats)
        assert result.transitions == sum(e["transitions"] for e in stats)
        assert not result.truncated

    def test_member_budgets_truncate_honestly(self):
        result = execute_job(_swarm_job(GROUP1, swarm_members=3,
                                               max_states=25))
        assert result.truncated
        assert result.truncated_reason == "swarm_member_budget"
        for entry in result.swarm["member_stats"]:
            assert entry["truncated"]
            assert entry["states"] <= 25

    def test_duplicate_member_finds_are_deduplicated(self):
        result = execute_job(_swarm_job(GROUP1, swarm_members=3))
        found_per_member = sum(entry["violations"]
                               for entry in result.swarm["member_stats"])
        # every member rediscovers (roughly) the same violations; the
        # sink keeps one counterexample per dedup key
        assert result.swarm["candidates"] == len(result.counterexamples)
        assert found_per_member > result.swarm["candidates"] > 0
        assert (result.swarm["distinct_violations"]
                == len(result.counterexamples))

    def test_stop_on_first_skips_remaining_members(self):
        result = execute_job(_swarm_job(GROUP1, swarm_members=8,
                                               stop_on_first=True))
        assert result.has_violations
        assert result.swarm["members"] < 8

    def test_coverage_estimate_is_sane_when_present(self):
        result = execute_job(_swarm_job(GROUP1, swarm_members=4))
        estimate = result.swarm["coverage_estimate"]
        if estimate is not None:
            assert 0.0 < estimate <= 1.0

    def test_single_member_has_no_estimate(self):
        result = execute_job(_swarm_job(GROUP1, swarm_members=1))
        assert result.swarm["coverage_estimate"] is None


# -- coverage honesty ---------------------------------------------------------


class TestCoverageHonesty:
    def test_violated_swarm_is_partial(self):
        result = execute_job(_swarm_job(GROUP1))
        assert result.coverage == "partial"
        assert result.to_dict()["coverage"] == "partial"

    def test_safe_swarm_is_still_partial(self):
        result = execute_job(
            VerificationJob("safe", _safe_config(),
                            EngineOptions(max_events=2, mode="swarm",
                                          swarm_members=2, seed=3),
                            strict=False))
        assert result.verdict == "safe"
        assert result.coverage == "partial"

    def test_exhaustive_results_stay_exhaustive(self):
        result = execute_job(_group_job(GROUP1))
        assert result.coverage == "exhaustive"
        truncated = execute_job(_group_job(GROUP1, max_states=10))
        assert truncated.coverage == "partial"

    def test_execute_job_routes_swarm_inline(self):
        result = execute_job(_swarm_job(GROUP1))
        assert isinstance(result, SwarmResult)


# -- the vetting service: cache either sound results or nothing ---------------


class TestSwarmCacheSafety:
    def test_swarm_safe_is_served_but_never_cached(self):
        store = ResultStore(":memory:")
        scheduler = Scheduler(store, workers=1)
        record = scheduler.submit(
            VerificationJob("swarm-safe", _safe_config(),
                            EngineOptions(max_events=2, mode="swarm",
                                          swarm_members=2, seed=3),
                            strict=False))
        scheduler.run_pending()
        assert record.status == "done", record.error
        assert record.verdict == "safe"
        assert record.result.coverage == "partial"
        # the verdict is answered, but "not found by this sample" is
        # not a fact worth remembering
        assert store.get(record.cache_key) is None

    def test_swarm_violations_are_cached_and_match_exhaustive(
            self, alice_config):
        store = ResultStore(":memory:")
        scheduler = Scheduler(store, workers=1)
        record = scheduler.submit(
            VerificationJob("swarm-violated", alice_config,
                            EngineOptions(max_events=2, mode="swarm",
                                          swarm_members=2, seed=3),
                            strict=False))
        scheduler.run_pending()
        assert record.status == "done", record.error
        assert record.verdict == "violated"
        stored = store.get(record.cache_key)
        assert stored is not None
        assert isinstance(stored.result, SwarmResult)
        fresh = execute_job(
            VerificationJob("fresh", alice_config,
                            EngineOptions(max_events=2, engine="interpreted"),
                            strict=False))
        assert (stored.result.violated_property_ids
                == fresh.violated_property_ids)
        for key, counterexample in stored.result.counterexamples.items():
            assert (counterexample.describe()
                    == fresh.counterexamples[key].describe())


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
                      visited=sys.argv[2], spill_dir=sys.argv[1]),
        strict=False))
    assert not result.truncated, result.truncated_reason
    print(result.states_explored,
          resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
""")


class TestDiskBackedDepthFive:
    @pytest.mark.parametrize("visited", ["spill", "fingerprint"])
    def test_depth5_group1_fits_a_hard_address_space_cap(self, tmp_path,
                                                         visited):
        """The exhaustive depth-5 search of group1 (~127k states) must
        finish inside a 1 GiB RLIMIT_AS both on the disk-backed spill
        store and on the default in-RAM fingerprint store: the search
        keeps only the visited store and the frontier, never a memo of
        expanded states.  A subprocess, because ru_maxrss is
        process-lifetime max and RLIMIT_AS must not constrain the rest
        of the suite."""
        _load_or_skip(load_all_apps)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _DEPTH5_SCRIPT, str(tmp_path), visited],
            capture_output=True, text=True, env=env, timeout=600)
        assert proc.returncode == 0, proc.stderr
        states, maxrss_kib = (int(field) for field in proc.stdout.split())
        assert states >= 100_000  # the full depth-5 frontier, not a stub
        assert maxrss_kib < 768 * 1024  # well under the 1 GiB cap
