"""The continuous vetting service: store, scheduler, HTTP API, CLI verbs."""

import json
import os
import subprocess
import sys
import textwrap
import threading

import pytest

from repro import build_system
from repro.checker.trace import render_violation_log
from repro.cli import main as cli_main
from repro.config.schema import SystemConfiguration
from repro.engine import EngineOptions, ExplorationEngine
from repro.engine.batch import VerificationJob
from repro.properties import build_properties, select_relevant
from repro.service import (
    ResultStore,
    Scheduler,
    ServiceClient,
    ServiceError,
    create_server,
)
from repro.service.store import STORE_SCHEMA_VERSION


def _alice_job(alice_config, name="alice", **option_kwargs):
    option_kwargs.setdefault("max_events", 2)
    return VerificationJob(name, alice_config, EngineOptions(**option_kwargs),
                           strict=False)


def _raise_io_error(*_args, **_kwargs):
    raise OSError("disk full")


def _run_one(store, job):
    scheduler = Scheduler(store, workers=1)
    record = scheduler.submit(job)
    scheduler.run_pending()
    assert record.status == "done", record.error
    return scheduler, record


# ---------------------------------------------------------------------------
# ResultStore
# ---------------------------------------------------------------------------


class TestResultStore:
    def test_put_get_round_trip(self, alice_config):
        with ResultStore(":memory:") as store:
            _scheduler, record = _run_one(store, _alice_job(alice_config))
            stored = store.get(record.cache_key)
            assert stored is not None
            assert stored.verdict == "violated"
            assert stored.raw_json == record.result.to_json()
            assert stored.result.to_dict() == record.result.to_dict()
            assert stored.config == alice_config.to_dict()

    def test_get_touch_accounting(self, alice_config):
        with ResultStore(":memory:") as store:
            _scheduler, record = _run_one(store, _alice_job(alice_config))
            assert store.get(record.cache_key).hits == 0
            assert store.get(record.cache_key).hits == 1
            assert store.get(record.cache_key, touch=False).hits == 2

    def test_missing_key(self):
        with ResultStore(":memory:") as store:
            assert store.get("0" * 64) is None
            assert "0" * 64 not in store

    def test_file_backed_wal_and_reopen(self, tmp_path, alice_config):
        path = str(tmp_path / "results.sqlite")
        store = ResultStore(path)
        mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"
        _scheduler, record = _run_one(store, _alice_job(alice_config))
        store.close()
        with ResultStore(path) as reopened:
            assert reopened.get(record.cache_key).verdict == "violated"

    def test_schema_version_mismatch_resets(self, tmp_path, alice_config):
        path = str(tmp_path / "results.sqlite")
        store = ResultStore(path)
        _scheduler, record = _run_one(store, _alice_job(alice_config))
        with store._conn:
            store._conn.execute(
                "UPDATE meta SET value='0' WHERE key='schema_version'")
        store.close()
        with ResultStore(path) as reopened:
            # a cache written by an incompatible layout starts over
            assert len(reopened) == 0
            assert reopened.stats()["schema_version"] == STORE_SCHEMA_VERSION

    def test_gc_by_age_and_keep(self, alice_config):
        with ResultStore(":memory:") as store:
            scheduler = Scheduler(store, workers=1)
            records = []
            for max_events in (1, 2):
                records.append(scheduler.submit(
                    _alice_job(alice_config, max_events=max_events)))
            scheduler.run_pending()
            assert len(store) == 2
            assert store.gc(max_age=0.0) == 2  # everything is "too old"
            assert len(store) == 0
            for record in records:
                store.put(record.cache_key, record.result)
            store.get(records[1].cache_key)  # most recently accessed
            assert store.gc(keep=1) == 1
            assert store.get(records[1].cache_key, touch=False) is not None

    def test_stats_and_entries(self, alice_config):
        with ResultStore(":memory:") as store:
            _scheduler, record = _run_one(store, _alice_job(alice_config))
            stats = store.stats()
            assert stats["entries"] == 1 and stats["violated"] == 1
            entries = store.entries()
            assert len(entries) == 1
            assert entries[0]["cache_key"] == record.cache_key
            assert "result_json" not in entries[0]


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------


class TestScheduler:
    def test_cache_short_circuits_second_submission(self, alice_config):
        store = ResultStore(":memory:")
        scheduler = Scheduler(store, workers=1)
        first = scheduler.submit(_alice_job(alice_config))
        scheduler.run_pending()
        assert scheduler.executed == 1
        second = scheduler.submit(_alice_job(alice_config, name="resubmit"))
        # served from the store: done immediately, no engine run
        assert second.done and second.from_cache
        assert scheduler.executed == 1
        assert scheduler.cache_hits == 1
        assert second.result.to_dict() == first.result.to_dict()

    def test_inflight_dedup_attaches_to_twin(self, alice_config):
        scheduler = Scheduler(ResultStore(":memory:"), workers=1)
        first = scheduler.submit(_alice_job(alice_config))
        twin = scheduler.submit(_alice_job(alice_config, name="burst-twin"))
        assert twin is first
        assert scheduler.dedup_hits == 1
        assert scheduler.stats()["jobs"] == 1
        scheduler.run_pending()
        assert first.done and not first.from_cache

    def test_priority_orders_the_drain(self, alice_config):
        scheduler = Scheduler(ResultStore(":memory:"), workers=1)
        low = scheduler.submit(_alice_job(alice_config, max_events=1),
                               priority=0)
        high = scheduler.submit(_alice_job(alice_config, max_events=2),
                                priority=5)
        finished = scheduler.run_pending()
        assert [record.id for record in finished] == [high.id, low.id]

    def test_cheaper_job_first_within_a_priority_band(self, alice_config):
        scheduler = Scheduler(ResultStore(":memory:"), workers=1)
        deep = scheduler.submit(_alice_job(alice_config, max_events=3))
        shallow = scheduler.submit(_alice_job(alice_config, max_events=1))
        finished = scheduler.run_pending()
        assert [record.id for record in finished] == [shallow.id, deep.id]

    def test_failed_job_is_not_cached(self, alice_config):
        store = ResultStore(":memory:")
        scheduler = Scheduler(store, workers=1)
        broken = SystemConfiguration.from_dict(alice_config.to_dict())
        broken.apps[0].app = "No Such App"
        record = scheduler.submit(
            VerificationJob("broken", broken, EngineOptions(max_events=1),
                            strict=True))
        scheduler.run_pending()
        assert record.status == "error"
        assert record.verdict == "error"
        assert record.error
        assert len(store) == 0

    def test_duplicate_submission_boosts_queued_twin_priority(
            self, alice_config):
        scheduler = Scheduler(ResultStore(":memory:"), workers=1,
                              batch_size=1)
        sweep = scheduler.submit(_alice_job(alice_config, max_events=2),
                                 priority=0)
        other = scheduler.submit(_alice_job(alice_config, max_events=1),
                                 priority=3)
        twin = scheduler.submit(_alice_job(alice_config, max_events=2,
                                           name="interactive"), priority=9)
        assert twin is sweep and sweep.priority == 9
        # the boosted twin now outranks the priority-3 job
        first_cycle = scheduler.run_pending()
        assert [r.id for r in first_cycle] == [sweep.id]
        assert [r.id for r in scheduler.run_pending()] == [other.id]

    def test_batch_size_caps_one_drain_cycle(self, alice_config):
        scheduler = Scheduler(ResultStore(":memory:"), workers=1,
                              batch_size=1)
        first = scheduler.submit(_alice_job(alice_config, max_events=1))
        second = scheduler.submit(_alice_job(alice_config, max_events=2))
        assert len(scheduler.run_pending()) == 1
        assert second.status == "queued"
        assert len(scheduler.run_pending()) == 1
        assert first.done and second.done

    def test_store_write_failure_keeps_verdict_and_unwedges(
            self, alice_config, monkeypatch):
        store = ResultStore(":memory:")
        scheduler = Scheduler(store, workers=1)
        monkeypatch.setattr(store, "put", _raise_io_error)
        record = scheduler.submit(_alice_job(alice_config))
        scheduler.run_pending()
        # the verdict survives; the store trouble is surfaced, the cache
        # key is no longer in-flight, and nothing was persisted
        assert record.status == "done"
        assert record.result.verdict == "violated"
        assert "result-store write failed" in record.error
        assert len(store) == 0
        retry = scheduler.submit(_alice_job(alice_config, name="retry"))
        assert retry is not record and retry.status == "queued"

    def test_batch_execution_failure_errors_records(self, alice_config,
                                                    monkeypatch):
        import repro.engine.batch as batch_module

        scheduler = Scheduler(ResultStore(":memory:"), workers=1)
        record = scheduler.submit(_alice_job(alice_config))
        monkeypatch.setattr(batch_module, "verify_many", _raise_io_error)
        scheduler.run_pending()
        assert record.status == "error"
        assert "batch execution failed" in record.error
        # the key left the in-flight table: a resubmission can run
        assert scheduler.submit(
            _alice_job(alice_config, name="retry")).status == "queued"

    def test_background_worker_drains(self, alice_config):
        scheduler = Scheduler(ResultStore(":memory:"), workers=1)
        scheduler.start()
        try:
            record = scheduler.submit(_alice_job(alice_config, max_events=1))
            assert scheduler.wait(record, timeout=60)
            assert record.status == "done"
        finally:
            scheduler.stop(timeout=10)

    def test_source_overlay_jobs_run_and_persist_sources(self, registry,
                                                         alice_config):
        patched = registry["Unlock Door"].source.replace(
            "lock1.unlock()", 'log.debug "patched"\n    lock1.unlock()')
        store = ResultStore(":memory:")
        job = VerificationJob("overlay", alice_config,
                              EngineOptions(max_events=2), strict=False,
                              sources={"Unlock Door": patched})
        _scheduler, record = _run_one(store, job)
        assert record.result.verdict == "violated"
        stored = store.get(record.cache_key)
        # the overlay is stored so traces re-render against the same
        # registry the job actually ran with
        assert stored.sources == {"Unlock Door": patched}
        assert stored.to_dict()["sources"] == {"Unlock Door": patched}


# ---------------------------------------------------------------------------
# acceptance: cached results replay byte-identically across visited stores
# ---------------------------------------------------------------------------


class TestCachedResultsMatchFreshRuns:
    @pytest.mark.parametrize("visited", ["exact", "fingerprint", "collapse"])
    def test_cached_equals_fresh_check(self, generator, alice_config,
                                       visited):
        options = EngineOptions(max_events=2, visited=visited)
        store = ResultStore(":memory:")
        scheduler = Scheduler(store, workers=1)
        scheduler.submit(VerificationJob("first", alice_config, options,
                                         strict=False))
        scheduler.run_pending()
        assert scheduler.executed == 1

        # second submission: answered by the ResultStore, no exploration
        cached = scheduler.submit(VerificationJob("second", alice_config,
                                                  options, strict=False))
        assert cached.from_cache
        assert scheduler.executed == 1
        assert scheduler.stats()["queued"] == 0

        # a fresh `repro check` of the same configuration
        system = generator.build(alice_config, strict=False)
        properties = select_relevant(system, build_properties())
        fresh = ExplorationEngine(system, properties, options).run()

        cached_dict = cached.result.to_dict()
        fresh_dict = fresh.to_dict()
        assert cached_dict.pop("elapsed") > 0
        fresh_dict.pop("elapsed")
        # the phase breakdown is wall-clock like elapsed: present in
        # both, but never byte-comparable across runs
        assert cached_dict.pop("profile").keys() == \
            fresh_dict.pop("profile").keys()
        assert cached_dict == fresh_dict

        cached_logs = sorted(
            render_violation_log(system, ce)
            for ce in cached.result.counterexamples.values())
        fresh_logs = sorted(render_violation_log(system, ce)
                            for ce in fresh.counterexamples.values())
        assert cached_logs == fresh_logs and cached_logs


# ---------------------------------------------------------------------------
# HTTP API
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def service_client():
    server, service = create_server(port=0, workers=1)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient("http://%s:%d" % (host, port))
    try:
        yield client
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown()


class TestHTTPAPI:
    GROUP = "group1-entry-and-mode"

    def test_healthz(self, service_client):
        answer = service_client.health()
        assert answer["status"] == "ok"
        assert answer["store_schema"] == STORE_SCHEMA_VERSION

    def test_submit_then_cached_resubmit(self, service_client):
        payload = {"group": self.GROUP, "wait": 120,
                   "options": {"max_events": 2}}
        first = service_client.submit(payload)
        assert first["status"] == "done"
        assert first["verdict"] in ("safe", "violated")
        assert not first["from_cache"]
        second = service_client.submit(payload)
        assert second["from_cache"]
        assert second["verdict"] == first["verdict"]
        assert second["cache_key"] == first["cache_key"]

        stored = service_client.result(first["cache_key"])
        assert stored["verdict"] == first["verdict"]
        assert stored["result"]["schema"] == 2
        assert stored["config"]["devices"]

        snapshot = service_client.job(first["id"])
        assert snapshot["status"] == "done"
        assert any(entry["cache_key"] == first["cache_key"]
                   for entry in service_client.results())
        assert any(job["id"] == first["id"]
                   for job in service_client.jobs())

    def test_submit_config_dict(self, service_client, alice_config):
        answer = service_client.submit({"config": alice_config.to_dict(),
                                        "wait": 120,
                                        "options": {"max_events": 1}})
        assert answer["status"] == "done"

    def test_stats_shape(self, service_client):
        stats = service_client.stats()
        assert "scheduler" in stats and "store" in stats
        assert stats["store"]["schema_version"] == STORE_SCHEMA_VERSION

    def test_bad_submissions_are_400(self, service_client):
        for payload in (
                {},  # neither config nor group
                {"group": "no-such-group"},
                {"group": self.GROUP, "options": {"bogus_option": 1}},
                {"group": self.GROUP, "options": {"visited": 3}},
                {"group": self.GROUP, "properties": "P06"},
                {"group": self.GROUP, "sources": ["not-a-dict"]},
        ):
            with pytest.raises(ServiceError) as excinfo:
                service_client.submit(payload)
            assert excinfo.value.status == 400

    @pytest.mark.parametrize("option", ["successor_cache", "cache_limit",
                                        "cache_min_hit_rate", "cache_warmup",
                                        "compiled", "workers", "partition"])
    def test_retired_cache_options_are_rejected(self, service_client,
                                                option):
        with pytest.raises(ServiceError) as excinfo:
            service_client.submit({"group": self.GROUP,
                                   "options": {option: 1}})
        assert excinfo.value.status == 400
        assert "unknown engine option(s): %s" % option in str(excinfo.value)

    def test_retired_compiled_tier_is_rejected(self, service_client):
        with pytest.raises(ServiceError) as excinfo:
            service_client.submit({"group": self.GROUP,
                                   "options": {"engine": "compiled"}})
        assert excinfo.value.status == 400
        assert "bad 'engine' option 'compiled'" in str(excinfo.value)

    def test_unknown_routes_are_404(self, service_client):
        for path in ("/jobs/job-9999", "/results/%s" % ("f" * 64),
                     "/nope"):
            with pytest.raises(ServiceError) as excinfo:
                service_client._request(path)
            assert excinfo.value.status == 404

    def test_gc_endpoint(self, service_client):
        service_client.submit({"group": self.GROUP, "wait": 120,
                               "options": {"max_events": 1}})
        answer = service_client.gc(keep=0)
        assert answer["removed"] >= 1
        assert answer["store"]["entries"] == 0


_ENGINE_ONLY_SCRIPT = textwrap.dedent("""
    import sys
    from repro.corpus.groups import GROUP_BUILDERS
    from repro.engine import EngineOptions, VerificationJob
    from repro.engine.batch import execute_job

    result = execute_job(VerificationJob(
        "group2", GROUP_BUILDERS["group2-lighting"](),
        EngineOptions(max_events=1, engine="codegen")))
    assert result.states_explored > 1
    print(" ".join(name for name in
                   ("http.server", "urllib.request", "ssl", "sqlite3")
                   if name in sys.modules))
""")


def test_engine_run_does_not_import_the_service_stacks():
    """Every codegen plan digests its system through
    :mod:`repro.service.digest`; importing that must not load the HTTP,
    urllib, ssl and sqlite3 stacks the rest of the package needs.  A
    subprocess, because this process has long imported all of them."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", _ENGINE_ONLY_SCRIPT], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# CLI verbs
# ---------------------------------------------------------------------------


@pytest.fixture()
def live_service(tmp_path):
    store = ResultStore(str(tmp_path / "results.sqlite"))
    server, service = create_server(store=store, port=0, workers=1)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield "http://%s:%d" % (host, port), store
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown()
        store.close()


class TestCLIVerbs:
    def test_submit_results_gc_round_trip(self, live_service, tmp_path,
                                          capsys):
        url, _store = live_service
        config_path = tmp_path / "alice.json"
        config = SystemConfiguration(contacts=["+1-555-0100"])
        config.add_device("alicePresence", "smartsense-presence")
        config.add_device("doorLock", "zwave-lock")
        config.association["main_door_lock"] = "doorLock"
        config.add_app("Auto Mode Change", {"people": ["alicePresence"],
                                            "awayMode": "Away",
                                            "homeMode": "Home"})
        config.add_app("Unlock Door", {"lock1": "doorLock"})
        config_path.write_text(config.to_json())

        code = cli_main(["submit", str(config_path), "--url", url,
                         "--wait", "120", "--max-events", "2"])
        out = capsys.readouterr().out
        assert code == 1  # violations found
        assert "verdict: violated" in out
        cache_key = [line for line in out.splitlines()
                     if line.startswith("cache key: ")][0].split(": ")[1]

        # resubmission answers from the cache
        code = cli_main(["submit", str(config_path), "--url", url,
                         "--wait", "120", "--max-events", "2"])
        out = capsys.readouterr().out
        assert code == 1 and "[cached]" in out

        code = cli_main(["results", "--url", url])
        out = capsys.readouterr().out
        assert code == 0 and cache_key[:16] in out

        code = cli_main(["results", cache_key, "--url", url, "--trace"])
        out = capsys.readouterr().out
        assert code == 1
        assert "violation(s)" in out
        assert "assertion violated" in out  # the Fig-7 style log

        code = cli_main(["gc", "--url", url, "--keep", "0"])
        out = capsys.readouterr().out
        assert code == 0 and "removed 1 entry" in out

    def test_submit_with_app_file(self, live_service, registry, alice_config,
                                  tmp_path, capsys):
        url, _store = live_service
        patched = registry["Unlock Door"].source.replace(
            "lock1.unlock()", 'log.debug "patched"\n    lock1.unlock()')
        app_path = tmp_path / "unlock-patched.groovy"
        app_path.write_text(patched)
        config_path = tmp_path / "config.json"
        config_path.write_text(alice_config.to_json())
        code = cli_main(["submit", str(config_path), "--url", url,
                         "--app", str(app_path), "--wait", "120",
                         "--max-events", "2"])
        out = capsys.readouterr().out
        assert code == 1 and "verdict: violated" in out
        cache_key = [line for line in out.splitlines()
                     if line.startswith("cache key: ")][0].split(": ")[1]
        # the stored trace renders against the overlaid registry
        code = cli_main(["results", cache_key, "--url", url, "--trace"])
        out = capsys.readouterr().out
        assert code == 1 and "assertion violated" in out

    def test_gc_directly_on_store_file(self, tmp_path, alice_config, capsys):
        path = str(tmp_path / "results.sqlite")
        with ResultStore(path) as store:
            _run_one(store, _alice_job(alice_config))
        code = cli_main(["gc", "--store", path, "--keep", "0"])
        out = capsys.readouterr().out
        assert code == 0 and "removed 1 entry" in out


class TestBatchJson:
    def test_batch_json_output_and_exit_code(self, capsys):
        code = cli_main(["batch", "group1-entry-and-mode", "--json",
                         "--max-events", "2", "--workers", "1"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 2
        assert "group1-entry-and-mode" in payload["results"]
        if payload["verdict"] == "violated":
            assert code == 1
            assert payload["violated_property_ids"]
        else:
            assert code == 0

    def test_batch_json_round_trips(self, capsys):
        from repro.engine.result import BatchResult

        cli_main(["batch", "group1-entry-and-mode", "--json",
                  "--max-events", "1", "--workers", "1"])
        payload = capsys.readouterr().out
        restored = BatchResult.from_json(payload)
        assert restored.to_json(indent=2) == payload.rstrip("\n")


# ---------------------------------------------------------------------------
# crash tolerance: job timeouts and client retry
# ---------------------------------------------------------------------------


def _safe_slow_job(name="slow-safe", max_events=4):
    """A violation-free workload big enough to outlive a tiny deadline:
    a timed-out run of it has no counterexamples, so a partial 'safe'
    would be unsound and the record must error instead."""
    config = SystemConfiguration()
    for index in range(3):
        config.add_device("motion%d" % index, "smartsense-motion")
        config.add_device("switch%d" % index, "smart-outlet")
        config.add_app("Brighten My Path", {"motion1": "motion%d" % index,
                                            "switch1": "switch%d" % index})
    return VerificationJob(name, config, EngineOptions(max_events=max_events),
                           strict=False)


def _hang_named_job_forever(job):
    """Pool-side stand-in for ``_execute_named``: the job named "hung"
    sleeps forever, everything else runs normally."""
    import time as _time

    from repro.engine.batch import execute_job

    if job.name == "hung":
        _time.sleep(3600)
    return job.name, execute_job(job)


class TestSchedulerJobTimeout:
    def test_timed_out_job_errors_and_unwedges_the_dedup_key(self):
        scheduler = Scheduler(ResultStore(":memory:"), workers=1,
                              job_timeout=0.05)
        record = scheduler.submit(_safe_slow_job())
        scheduler.run_pending()
        assert record.status == "error"
        assert "timed out" in record.error
        # the in-flight dedup key is released: a resubmission queues a
        # fresh run instead of attaching to the dead record
        assert not scheduler._inflight
        fresh = scheduler.submit(_safe_slow_job(name="retry"))
        assert fresh is not record
        assert scheduler.stats()["job_timeout"] == 0.05

    def test_nothing_is_cached_under_an_injected_deadline_cut(self):
        store = ResultStore(":memory:")
        scheduler = Scheduler(store, workers=1, job_timeout=0.05)
        scheduler.submit(_safe_slow_job())
        scheduler.run_pending()
        # partial coverage must never be served to future submissions
        assert len(store) == 0

    def test_violations_found_before_the_deadline_stand(self, alice_config):
        """Violations are real whatever coverage found them: a deadline
        cut with counterexamples keeps its violated verdict (uncached)."""
        store = ResultStore(":memory:")
        scheduler = Scheduler(store, workers=1, job_timeout=0.01)
        record = scheduler.submit(_alice_job(alice_config, max_events=5,
                                             stop_on_first=False))
        scheduler.run_pending()
        if record.result is not None and record.result.counterexamples:
            assert record.status == "done"
            assert record.verdict == "violated"
            assert len(store) == 0  # partial coverage is never cached
        else:  # the cut landed before the first violation on this host
            assert record.status == "error"

    def test_fast_jobs_are_untouched_by_a_generous_timeout(
            self, alice_config):
        store = ResultStore(":memory:")
        untimed = Scheduler(ResultStore(":memory:"), workers=1)
        baseline = untimed.submit(_alice_job(alice_config))
        untimed.run_pending()
        timed = Scheduler(store, workers=1, job_timeout=600.0)
        record = timed.submit(_alice_job(alice_config))
        timed.run_pending()
        assert record.status == "done", record.error
        # timings differ run to run; the semantics must not
        assert record.result.verdict == baseline.result.verdict
        assert (record.result.states_explored
                == baseline.result.states_explored)
        assert (sorted(record.result.counterexamples)
                == sorted(baseline.result.counterexamples))
        assert len(store) == 1  # complete runs still cache

    def test_submissions_own_tighter_limit_wins(self, alice_config):
        """A job that already carries time_limit=0.01 truncates under its
        *own* limit; the scheduler must not reclassify that as a timeout
        error (it did not tighten anything)."""
        scheduler = Scheduler(ResultStore(":memory:"), workers=1,
                              job_timeout=600.0)
        record = scheduler.submit(_alice_job(alice_config, max_events=5,
                                             stop_on_first=False,
                                             time_limit=0.01))
        scheduler.run_pending()
        assert record.status == "done", record.error
        assert record.result.truncated_reason == "time_limit"

    def test_pooled_hard_backstop_kills_a_hung_worker(self, alice_config,
                                                      monkeypatch):
        """A worker hung in non-cooperative code (the engine's time_limit
        never fires) is abandoned at the deadline: its job errors, other
        jobs' results survive, and the caller returns promptly."""
        import time as _time

        import repro.engine.batch as batch_mod

        # module-level stand-in (closures don't pickle into the pool)
        monkeypatch.setattr(batch_mod, "_execute_named",
                            _hang_named_job_forever)
        from repro.engine.batch import verify_many

        jobs = [_alice_job(alice_config, name="ok", max_events=1),
                _alice_job(alice_config, name="hung", max_events=1)]
        started = _time.monotonic()
        outcome = verify_many(jobs, workers=2, timeout=2.0)
        assert _time.monotonic() - started < 30
        assert "ok" in outcome.results
        assert "timed out" in outcome.errors["hung"]


class TestClientRetry:
    def test_gets_retry_with_backoff_then_surface_the_error(self,
                                                            monkeypatch):
        sleeps = []
        import repro.service.api as api_mod
        monkeypatch.setattr(api_mod.time, "sleep", sleeps.append)
        client = ServiceClient("http://127.0.0.1:1", timeout=1.0,
                               retries=2, backoff=0.25)
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        assert excinfo.value.status == 0
        assert "after 3 attempts" in str(excinfo.value)
        assert len(sleeps) == 2
        # exponential with jitter in [0.5, 1.0] of the nominal delay
        assert 0.125 <= sleeps[0] <= 0.25
        assert 0.25 <= sleeps[1] <= 0.5

    def test_posts_do_not_retry_by_default(self, monkeypatch):
        sleeps = []
        import repro.service.api as api_mod
        monkeypatch.setattr(api_mod.time, "sleep", sleeps.append)
        client = ServiceClient("http://127.0.0.1:1", timeout=1.0,
                               retries=5, backoff=10.0)
        with pytest.raises(ServiceError):
            client.submit({"group": "g"})
        assert sleeps == []  # one attempt, no backoff

    def test_http_error_answers_never_retry(self, service_client):
        """A served 4xx is a definitive answer: retrying it would just
        re-ask a question the server already answered."""
        client = ServiceClient(service_client.base_url, retries=3,
                               backoff=30.0)  # a retry would hang the test
        with pytest.raises(ServiceError) as excinfo:
            client._request("/jobs/job-does-not-exist")
        assert excinfo.value.status == 404

    def test_retry_recovers_once_the_server_is_up(self):
        """The whole point: a client started moments before the server
        finishes binding succeeds transparently."""
        server, service = create_server(port=0, workers=1)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        try:
            client = ServiceClient("http://%s:%d" % (host, port),
                                   retries=3, backoff=0.05)
            # serve_forever starts *after* a short delay on purpose
            starter = threading.Timer(0.1, thread.start)
            starter.start()
            # the socket is already bound by create_server, so requests
            # queue in the listen backlog until serve_forever drains it;
            # the retry path is exercised against the dead-port case above
            assert client.health()["status"] == "ok"
        finally:
            server.shutdown()
            server.server_close()
            service.shutdown()
