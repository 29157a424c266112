"""The run telemetry subsystem (:mod:`repro.obs`).

The observability tentpole's acceptance bar, pinned as tests:

* **versioned sink round-trip** - every JSONL line carries the schema
  version, :func:`read_events` parses what a session wrote and refuses
  lines stamped by a newer schema;
* **snapshot monotonicity** - the progress stream's states, transitions
  and elapsed clocks never run backwards;
* **digest neutrality** - telemetry is a pure observer, so no sink /
  meter / board configuration may change a job's content-addressed
  cache key;
* **outcome equivalence** - verdicts, violation sets and rendered
  counterexample traces are byte-identical with telemetry on vs off,
  across both engine tiers;
* **service surface** - ``/metrics`` answers exposition a strict parser
  accepts with advancing counters, and ``/jobs/<id>/progress`` serves
  the board snapshot.
"""

import io
import json
import pickle
import threading

import pytest

from repro.corpus import load_all_apps
from repro.corpus.groups import GROUP_BUILDERS
from repro.engine import (
    EngineOptions,
    ExplorationResult,
    VerificationJob,
)
from repro.engine.batch import execute_job
from repro.engine.result import BatchResult
from repro.obs import (
    PROGRESS_BOARD,
    TELEMETRY_SCHEMA_VERSION,
    MetricsRegistry,
    TelemetryConfig,
    TelemetrySession,
    parse_exposition,
    read_events,
    render_exposition,
    render_report,
    resolve_telemetry,
)
from repro.obs.progress import ProgressMeter
from repro.obs.report import sparkline, throughput_series
from repro.obs.telemetry import open_session

from tests.conftest import _load_or_skip


def _group_job(group_name="group1-entry-and-mode", **option_kwargs):
    _load_or_skip(load_all_apps)
    option_kwargs.setdefault("max_events", 2)
    return VerificationJob(group_name, GROUP_BUILDERS[group_name](),
                           EngineOptions(**option_kwargs), strict=False)


def _rendered_traces(result):
    return {key: ce.describe() for key, ce in result.counterexamples.items()}


# ---------------------------------------------------------------------------
# config + sink round trip
# ---------------------------------------------------------------------------


class TestConfigAndSink:
    def test_resolve_forms(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        assert resolve_telemetry(None) is None
        config = TelemetryConfig(path=path)
        assert resolve_telemetry(config) is config
        assert resolve_telemetry(path).path == path
        from_dict = resolve_telemetry({"path": path, "job": "j1",
                                       "interval": 64})
        assert (from_dict.path, from_dict.job, from_dict.interval) \
            == (path, "j1", 64)
        with pytest.raises(TypeError):
            resolve_telemetry(42)

    def test_enabled_and_gap(self):
        assert not TelemetryConfig().enabled
        assert TelemetryConfig(path="x").enabled
        assert TelemetryConfig(progress=True).enabled
        assert TelemetryConfig(job="job-1").enabled
        # the gap is floored by both the time-check cadence and the
        # configured interval
        assert TelemetryConfig(interval=10).snapshot_gap(256) == 256
        assert TelemetryConfig(interval=1000).snapshot_gap(256) == 1000
        assert TelemetryConfig(interval=1).snapshot_gap(0) == 1

    def test_config_pickles(self):
        config = TelemetryConfig(path="run.jsonl", progress=True,
                                 job="job-9", interval=128)
        clone = pickle.loads(pickle.dumps(config))
        assert (clone.path, clone.progress, clone.job, clone.interval) \
            == (config.path, config.progress, config.job, config.interval)

    def test_disabled_session_is_none(self):
        assert open_session(None) is None
        assert open_session(TelemetryConfig()) is None

    def test_versioned_round_trip(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        session = open_session(TelemetryConfig(path=path, job="job-1"))
        session.run_start(EngineOptions(max_events=2))
        session.snapshot({"states": 10, "transitions": 20, "frontier": 3})
        session.span("explore", 0.25)
        result = ExplorationResult()
        result.states_explored = 10
        result.transitions = 20
        result.elapsed = 0.5
        session.run_end(result)
        session.close()
        events = read_events(path)
        assert [e["kind"] for e in events] \
            == ["run_start", "snapshot", "span", "run_end"]
        assert all(e["v"] == TELEMETRY_SCHEMA_VERSION for e in events)
        assert all(e["job"] == "job-1" for e in events)
        assert events[1]["states"] == 10
        assert events[2] == dict(events[2], name="explore", seconds=0.25)
        assert events[3]["verdict"] == "safe"

    def test_reader_refuses_newer_schema(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps(
            {"v": TELEMETRY_SCHEMA_VERSION + 1, "kind": "snapshot"}) + "\n")
        with pytest.raises(ValueError, match="schema version"):
            read_events(str(path))

    def test_reader_accepts_v1_sinks(self, tmp_path):
        """A v1 sink - written while runs could be sharded - still reads
        and renders; its retired events and fields are ignored."""
        path = tmp_path / "v1.jsonl"
        lines = [
            {"v": 1, "kind": "run_start", "elapsed": 0.0, "workers": 2,
             "max_events": 2, "engine": "codegen", "visited": "fingerprint",
             "strategy": "dfs", "scenario": "clean"},
            {"v": 1, "kind": "shard" "_snapshot", "elapsed": 0.1,
             "worker": 0, "states": 5, "transitions": 9},
            {"v": 1, "kind": "run_end", "elapsed": 0.2, "workers": 2,
             "verdict": "safe", "violations": 0, "states": 10,
             "transitions": 20, "run_elapsed": 0.2, "truncated": False,
             "truncated_reason": None},
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        report = render_report(read_events(str(path)))
        assert "shape: depth 2" in report
        assert "outcome: safe" in report
        assert "worker" not in report

    def test_reader_flags_malformed_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"v": 1, "kind": "snapshot"}\n\n{oops\n')
        with pytest.raises(ValueError, match="line 3"):
            read_events(str(path))


# ---------------------------------------------------------------------------
# engine instrumentation
# ---------------------------------------------------------------------------


class TestEngineSnapshots:
    def test_inline_snapshots_are_monotonic(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        result = execute_job(_group_job(
            check_interval=16, telemetry={"path": path, "interval": 16}))
        events = read_events(path)
        snapshots = [e for e in events if e["kind"] == "snapshot"]
        assert snapshots, "a depth-2 group run must snapshot at least once"
        for field in ("states", "transitions", "elapsed"):
            series = [s[field] for s in snapshots]
            assert series == sorted(series), (field, series)
        end = [e for e in events if e["kind"] == "run_end"][-1]
        assert end["states"] == result.states_explored
        assert end["transitions"] == result.transitions
        span_names = {e["name"] for e in events if e["kind"] == "span"}
        assert "explore" in span_names

    def test_board_publication(self, tmp_path):
        job_key = "test-board-job"
        PROGRESS_BOARD.discard(job_key)
        try:
            execute_job(_group_job(
                check_interval=16,
                telemetry={"job": job_key, "interval": 16}))
            final = PROGRESS_BOARD.latest(job_key)
            assert final is not None and final.get("final") is True
            assert final["verdict"] == "violated"
        finally:
            PROGRESS_BOARD.discard(job_key)


# ---------------------------------------------------------------------------
# neutrality: digests and outcomes
# ---------------------------------------------------------------------------


class TestTelemetryNeutrality:
    def test_cache_key_ignores_telemetry(self, tmp_path):
        from repro.service.digest import job_cache_key

        baseline = job_cache_key(_group_job())
        for telemetry in (str(tmp_path / "run.jsonl"),
                          {"progress": True},
                          {"job": "job-1", "interval": 7},
                          TelemetryConfig(path=str(tmp_path / "b.jsonl"),
                                          job="x")):
            assert job_cache_key(_group_job(telemetry=telemetry)) \
                == baseline, telemetry

    @pytest.mark.parametrize("engine", ["interpreted", "codegen"])
    def test_outcomes_identical_across_tiers(self, engine, tmp_path):
        plain = execute_job(_group_job(engine=engine))
        observed = execute_job(_group_job(
            engine=engine, check_interval=16,
            telemetry={"path": str(tmp_path / (engine + ".jsonl")),
                       "interval": 16}))
        assert observed.verdict == plain.verdict
        assert sorted(observed.counterexamples) \
            == sorted(plain.counterexamples)
        assert _rendered_traces(observed) == _rendered_traces(plain)
        assert observed.states_explored == plain.states_explored
        assert observed.transitions == plain.transitions


# ---------------------------------------------------------------------------
# prometheus exposition
# ---------------------------------------------------------------------------


class TestExposition:
    def test_render_parse_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total", "help, with punctuation").inc(3)
        jobs = registry.gauge("repro_test_jobs", "per-job gauge")
        jobs.set(7, job="job-1")
        jobs.set(9.5, job='we"ird,name')
        text = render_exposition(registry)
        assert "# TYPE repro_test_total counter" in text
        parsed = parse_exposition(text)
        assert parsed["repro_test_total"][()] == 3.0
        assert parsed["repro_test_jobs"][(("job", "job-1"),)] == 7.0
        assert parsed["repro_test_jobs"][(("job", 'we"ird,name'),)] == 9.5

    @pytest.mark.parametrize("line", [
        "no_value_here",
        'bad{label="x} 1',
        "bad name 1 2 3 extra",
        "metric notanumber",
    ])
    def test_parser_rejects_malformed(self, line):
        with pytest.raises(ValueError):
            parse_exposition(line + "\n")


# ---------------------------------------------------------------------------
# service endpoints
# ---------------------------------------------------------------------------


class TestServiceEndpoints:
    def _serve(self):
        from repro.service import ServiceClient, create_server

        server, service = create_server(port=0)
        host, port = server.server_address
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient("http://%s:%d" % (host, port))
        return server, service, client

    def test_metrics_and_progress(self):
        _load_or_skip(load_all_apps)
        server, service, client = self._serve()
        try:
            before = parse_exposition(client.metrics())
            assert before["repro_scheduler_executed_total"][()] == 0.0
            snap = client.submit({"group": "group1-entry-and-mode",
                                  "options": {"max_events": 2},
                                  "wait": 60})
            assert snap["status"] == "done"
            progress = client.job_progress(snap["id"])
            assert progress["status"] == "done"
            assert progress["result"]["states"] > 0
            assert progress["snapshot"]["final"] is True
            after = parse_exposition(client.metrics())
            assert after["repro_scheduler_executed_total"][()] == 1.0
            assert after["repro_scheduler_jobs"][()] == 1.0
            assert after["repro_job_states"][(("job", snap["id"]),)] \
                == progress["result"]["states"]
            from repro.service import ServiceError

            with pytest.raises(ServiceError):
                client.job_progress("job-999")
        finally:
            service.shutdown()
            server.shutdown()
            server.server_close()

    def test_submission_may_not_set_telemetry(self):
        from repro.service.api import SubmissionError, VettingService

        # a client must not be able to cause server-side file writes
        with pytest.raises(SubmissionError, match="telemetry"):
            VettingService._payload_options(
                {"telemetry": {"path": "/tmp/evil.jsonl"}})


# ---------------------------------------------------------------------------
# report renderer + progress meter
# ---------------------------------------------------------------------------


class TestReportRenderer:
    def test_sparkline_scaling(self):
        assert sparkline([]) == ""
        assert sparkline([5, 5, 5]) == "▄▄▄"
        line = sparkline([0, 50, 100])
        assert line[0] == "▁" and line[-1] == "█"

    def test_throughput_series(self):
        snaps = [{"states": 100, "elapsed": 1.0},
                 {"states": 300, "elapsed": 2.0},
                 {"states": 300, "elapsed": 2.0}]  # zero-gap sample dropped
        assert throughput_series(snaps) == [100.0, 200.0]

    def test_render_report_sections(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        execute_job(_group_job(
            check_interval=16, telemetry={"path": path, "interval": 16}))
        report = render_report(read_events(path))
        assert "shape: depth 2" in report
        assert "outcome: violated" in report
        assert "phases:" in report and "explore" in report
        assert render_report([]) == "empty telemetry sink (no events)"

    def test_progress_meter_renders_and_repaints(self):
        stream = io.StringIO()
        meter = ProgressMeter(label="job-1", stream=stream, refresh=0.0)
        meter.update({"states": 1500, "transitions": 4000, "elapsed": 2.0,
                      "frontier": 12, "depth": 3},
                     force=True)
        meter.close()
        text = stream.getvalue()
        assert "job-1" in text
        assert "1,500 states" in text
        assert "frontier 12" in text
        assert text.endswith("\n")


# ---------------------------------------------------------------------------
# summary satellites
# ---------------------------------------------------------------------------


class TestSummarySatellites:
    def test_batch_summary_aggregate_throughput(self):
        batch = BatchResult()
        for name, states in (("a", 600), ("b", 400)):
            result = ExplorationResult()
            result.states_explored = states
            result.elapsed = 0.5
            batch.add(name, result)
        batch.elapsed = 2.0
        summary = batch.summary()
        assert "aggregate throughput: 500 states/s over 2 job(s)" in summary

    def test_batch_summary_skips_throughput_without_elapsed(self):
        assert "aggregate throughput" not in BatchResult().summary()


# ---------------------------------------------------------------------------
# warnings + swarm events
# ---------------------------------------------------------------------------


class TestWarningAndSwarmEvents:
    def test_warning_counter_increments_per_name(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        session = open_session(TelemetryConfig(path=path))
        session.warning("bitstate_saturation", fill_ratio=0.7)
        session.warning("bitstate_saturation", fill_ratio=0.9)
        session.warning("other", detail="x")
        session.close()
        assert session.warning_counts == {"bitstate_saturation": 2,
                                          "other": 1}
        events = [e for e in read_events(path) if e["kind"] == "warning"]
        assert [(e["name"], e["count"]) for e in events] \
            == [("bitstate_saturation", 1), ("bitstate_saturation", 2),
                ("other", 1)]
        assert events[1]["fill_ratio"] == 0.9

    def test_saturated_bitstate_run_warns(self, tmp_path):
        """An engine run whose bitstate field crosses the saturation
        threshold must leave a ``bitstate_saturation`` warning in the
        sink - the run is silently losing coverage past that point."""
        path = str(tmp_path / "run.jsonl")
        execute_job(_group_job(visited="bitstate-k", bitstate_bits=8,
                                      telemetry=path))
        warnings = [e for e in read_events(path) if e["kind"] == "warning"]
        assert len(warnings) == 1
        event = warnings[0]
        assert event["name"] == "bitstate_saturation"
        assert event["count"] == 1
        assert event["fill_ratio"] > 0.5
        assert event["stored"] > 0

    def test_unsaturated_run_does_not_warn(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        execute_job(_group_job(visited="bitstate-k",
                                      telemetry=path))  # roomy default field
        assert not [e for e in read_events(path) if e["kind"] == "warning"]

    def test_swarm_run_logs_members_and_mode(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        execute_job(_group_job(mode="swarm", swarm_members=2, seed=5,
                                      telemetry=path))
        events = read_events(path)
        start = next(e for e in events if e["kind"] == "run_start")
        assert start["mode"] == "swarm"
        assert start["seed"] == 5 and start["swarm_members"] == 2
        members = [e for e in events if e["kind"] == "swarm_member"]
        assert [e["member"] for e in members] == [0, 1]
        assert all(e["elapsed"] >= 0 for e in members)
        end = next(e for e in events if e["kind"] == "run_end")
        assert end["states"] == sum(e["states"] for e in members)
