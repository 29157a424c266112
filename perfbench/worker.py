"""One pass of one workload, run in a fresh process by ``run.py``.

    python3 perfbench/worker.py --workload expert-check --seed 1 \\
        --scratch DIR --out FILE [--setup-only] [--trace] [--rerun]

The process starts with nothing imported, so its set-up time covers the
imports and the corpus parse (for service-mix: starting ``repro serve``
until ``/healthz`` answers).  ``--setup-only`` stops there.  Otherwise
the pass verifies every configuration of the workload once, in the
seed's order, and writes one JSON document to ``--out``: the set-up
time, the pass's wall time and peak memory, and one record per verdict.
With ``--trace`` the layer calls are wrapped (see ``tracer.py``) and the
spans plus the layer measurements ride along.  With ``--rerun``
(service-mix only; implied by ``--trace``) the fresh jobs run again
inline after the server stopped.  Between verdicts, off the clock, a
pass times the host-speed probe (``hostspeed.py``).

``PYTHONPATH`` must name the repository's ``src`` directory.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from hostspeed import HostProbe  # noqa: E402
from oracle import answer  # noqa: E402
from serve import peak_rss_kb  # noqa: E402
from workloads import (  # noqa: E402
    EXPERT_CHECK,
    EXPERT_MAX_EVENTS,
    SERVICE_CLIENTS,
    SERVICE_MIX,
    SERVICE_WAIT_S,
    VOLUNTEER_OPTIONS,
    VOLUNTEER_SWEEP,
    WORKLOADS,
    expert_key,
    seeded_order,
    service_draw,
    volunteer_key,
)

#: how long the server may take to answer /healthz, and to exit
SERVER_START_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 30.0
#: volunteer-sweep samples the host-speed probe before every this many
#: verdicts (expert-check before every verdict)
VOLUNTEER_PROBE_EVERY = 5


def _peak_rss_mb():
    return peak_rss_kb() / 1024.0


def _answer(result):
    """The oracle-comparable answer plus the counts of one result."""
    return dict(answer(result), states=result.states_explored,
                transitions=result.transitions)


@contextlib.contextmanager
def _verdict(tracer, key):
    """The root span of one configuration (a no-op when untraced)."""
    if tracer is None:
        yield
        return
    tracer.verdict = key
    try:
        with tracer.span("verdict"):
            yield
    finally:
        tracer.verdict = None


def _load_corpus(tracer):
    from repro.corpus import load_all_apps

    if tracer is None:
        return load_all_apps()
    with tracer.span("corpus.load"):
        return load_all_apps()


def store_layers(items, scratch, tracer):
    """Time the vetting service's digest and store calls on a pass's own
    ``(job, result)`` pairs: store each result under its job's content
    key, then answer it the way a repeat submission is answered (digest,
    read).  Returns per-call times in ms, plus the names whose stored
    verdict came back wrong."""
    from repro.service import ResultStore
    from repro.service.digest import job_cache_key

    timings = {"digest_ms": [], "store_put_ms": [], "store_get_ms": []}

    def timed(layer, call, *args, **kwargs):
        started = time.perf_counter()
        with tracer.span("service." + layer):
            value = call(*args, **kwargs)
        timings[layer + "_ms"].append((time.perf_counter() - started) * 1e3)
        return value

    errors = []
    store = ResultStore(os.path.join(scratch, "layers.sqlite"))
    try:
        for job, result in items:
            key = timed("digest", job_cache_key, job)
            timed("store_put", store.put, key, result, name=job.name,
                  config=job.config)
            stored = timed("store_get", store.get,
                           timed("digest", job_cache_key, job))
            if stored is None or stored.verdict != result.verdict:
                errors.append(job.name)
    finally:
        store.close()
    return timings, errors


# ---------------------------------------------------------------------------
# expert-check: `repro check <group> --json`, in-process, one caller
# ---------------------------------------------------------------------------


def expert_check(args, tracer, host):
    from repro.cli import main as repro_main
    from repro.corpus.groups import EXPERT_GROUPS, expert_configuration
    from repro.engine import EngineOptions, VerificationJob
    from repro.engine.result import ExplorationResult

    _load_corpus(tracer)
    setup_s = time.perf_counter() - _STARTED
    if args.setup_only:
        return {"setup_s": setup_s}
    outputs, probing = [], 0.0
    wall_started = time.perf_counter()
    for group in seeded_order(EXPERT_GROUPS, args.seed):
        probing += host.sample()
        buffer = io.StringIO()
        started = time.perf_counter()
        try:
            with _verdict(tracer, expert_key(group)), \
                    contextlib.redirect_stdout(buffer):
                code = repro_main(["check", group, "--json"])
        except (Exception, SystemExit) as exc:
            code = "%s: %s" % (type(exc).__name__, exc)
        outputs.append((group, time.perf_counter() - started, code,
                        buffer.getvalue()))
    probing += host.sample()
    wall_s = time.perf_counter() - wall_started - probing
    # the CLI's JSON is checked after the pass, off the clock
    verdicts, items = [], []
    for group, latency, code, text in outputs:
        record = {"id": expert_key(group), "latency_s": latency}
        verdicts.append(record)
        try:
            result = ExplorationResult.from_json(text)
        except ValueError:
            record["error"] = "no result JSON (exit %r)" % (code,)
            continue
        record.update(_answer(result))
        if code != (1 if result.has_violations else 0):
            record["error"] = "exit code %r" % (code,)
        items.append((VerificationJob(
            group, expert_configuration(group),
            EngineOptions(max_events=EXPERT_MAX_EVENTS), strict=False),
            result))
    return _cli_output(args, tracer, setup_s, wall_s, verdicts, items)


def _cli_output(args, tracer, setup_s, wall_s, verdicts, items):
    output = {"setup_s": setup_s, "wall_s": wall_s, "traced_s": wall_s,
              "peak_rss_mb": _peak_rss_mb(), "verdicts": verdicts,
              "counters": {"submissions": len(verdicts),
                           "executed": len(verdicts),
                           "cache_hits": 0, "dedup_hits": 0}}
    if tracer is not None:
        output["layers"], output["store_errors"] = store_layers(
            items, args.scratch, tracer)
    return output


# ---------------------------------------------------------------------------
# volunteer-sweep: execute_job per Table-6 configuration, one caller
# ---------------------------------------------------------------------------


def _volunteer_jobs(registry):
    from repro.attribution.volunteers import volunteer_verification_jobs
    from repro.engine import EngineOptions

    jobs = volunteer_verification_jobs(
        registry, options=EngineOptions(**VOLUNTEER_OPTIONS),
        registry_spec="corpus")
    return {job.name: job for job in jobs}


def volunteer_sweep(args, tracer, host):
    from repro.engine.batch import execute_job

    jobs = _volunteer_jobs(_load_corpus(tracer))
    setup_s = time.perf_counter() - _STARTED
    if args.setup_only:
        return {"setup_s": setup_s}
    verdicts, items, probing = [], [], 0.0
    wall_started = time.perf_counter()
    for index, name in enumerate(seeded_order(jobs, args.seed)):
        if index % VOLUNTEER_PROBE_EVERY == 0:
            probing += host.sample()
        key = volunteer_key(name)
        started = time.perf_counter()
        try:
            with _verdict(tracer, key):
                result = execute_job(jobs[name])
        except Exception as exc:
            verdicts.append({"id": key, "latency_s":
                             time.perf_counter() - started,
                             "error": "%s: %s" % (type(exc).__name__, exc)})
            continue
        verdicts.append(dict(_answer(result), id=key,
                             latency_s=time.perf_counter() - started))
        items.append((jobs[name], result))
    probing += host.sample()
    wall_s = time.perf_counter() - wall_started - probing
    return _cli_output(args, tracer, setup_s, wall_s, verdicts, items)


# ---------------------------------------------------------------------------
# service-mix: `repro serve` in a subprocess, two HTTP clients
# ---------------------------------------------------------------------------


class Server:
    """``repro serve`` (through ``serve.py``) on a free port, with a
    file-backed store in the scratch directory."""

    def __init__(self, scratch):
        self.scratch = scratch
        self.process = None
        self.url = None
        self.rusage = None

    def start(self):
        """Start the server; returns seconds until ``/healthz`` answered."""
        from repro.service import ServiceClient, ServiceError

        started = time.perf_counter()
        store = os.path.join(self.scratch,
                             "store-%d.sqlite" % os.getpid())
        self.process = subprocess.Popen(
            [sys.executable,
             os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "serve.py"),
             "--port", "0", "--store", store],
            stdout=subprocess.PIPE, text=True)
        line = self.process.stdout.readline()
        match = re.search(r"(http://[^\s]+)", line)
        if match is None:
            raise RuntimeError("repro serve did not announce its address: "
                               "%r" % (line,))
        self.url = match.group(1)
        client = ServiceClient(self.url, timeout=5.0, retries=0)
        deadline = started + SERVER_START_TIMEOUT_S
        while True:
            try:
                client.health()
                return time.perf_counter() - started
            except ServiceError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.005)

    def stop(self):
        """Interrupt the server and collect its peak-memory report."""
        if self.process is None:
            return
        self.process.send_signal(signal.SIGINT)
        try:
            remaining, _ = self.process.communicate(
                timeout=SERVER_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
            raise
        finally:
            self.process = None
        for line in remaining.splitlines():
            if line.startswith("perfbench-rusage "):
                self.rusage = json.loads(line.split(" ", 1)[1])


def _submit_all(url, sequence, payloads):
    """Drive the sequence through SERVICE_CLIENTS closed-loop clients."""
    from repro.service import ServiceClient

    records = [None] * len(sequence)
    cursor = iter(range(len(sequence)))
    lock = threading.Lock()

    def client_loop():
        client = ServiceClient(url, timeout=SERVICE_WAIT_S + 30.0,
                               retries=0)
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            name = sequence[index]
            started = time.perf_counter()
            try:
                snapshot = client.submit(payloads[name])
            except Exception as exc:  # counted as a failed verdict
                snapshot = {"status": "error",
                            "error": "%s: %s" % (type(exc).__name__, exc)}
            finished = time.perf_counter()
            records[index] = (name, started, finished, snapshot)

    threads = [threading.Thread(target=client_loop)
               for _ in range(SERVICE_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def _fresh_submissions(records):
    """Indices of the submissions that made the server run the engine.

    A submission the store did not answer either started a job or was
    attached to an in-flight twin with the same content (two volunteer
    configurations may bind identically); both get the job's snapshot,
    and the one that started it is the earliest submitted.
    """
    earliest = {}
    for index, (_name, started, _finished, snapshot) in enumerate(records):
        if snapshot.get("from_cache") or "id" not in snapshot:
            continue
        job_id = snapshot["id"]
        if job_id not in earliest or started < records[earliest[job_id]][1]:
            earliest[job_id] = index
    return set(earliest.values())


def _service_record(name, started, finished, snapshot, fresh):
    record = {"id": volunteer_key(name), "latency_s": finished - started,
              "cache_key": snapshot.get("cache_key")}
    if snapshot.get("from_cache"):
        record["kind"] = "hit"
    else:
        record["kind"] = "fresh" if fresh else "dedup"
    if snapshot.get("status") != "done" or snapshot.get("verdict") not in (
            "violated", "safe"):
        record["error"] = (snapshot.get("error")
                           or "status %r after %gs wait"
                           % (snapshot.get("status"), SERVICE_WAIT_S))
        return record
    record.update(verdict=snapshot["verdict"],
                  violated_property_ids=snapshot["violated_property_ids"],
                  violations=snapshot["violations"],
                  states=snapshot["states_explored"])
    return record


def service_mix(args, tracer, host):
    from repro.service import ServiceClient

    jobs = _volunteer_jobs(_load_corpus(tracer))
    payloads = {name: {"name": name, "config": job.config.to_dict(),
                       "options": dict(VOLUNTEER_OPTIONS),
                       "wait": SERVICE_WAIT_S}
                for name, job in jobs.items()}
    # one name per distinct configuration: two volunteers may bind a
    # group identically, and the server answers the second from the store
    distinct = {}
    for name in sorted(jobs):
        distinct.setdefault(json.dumps(payloads[name]["config"],
                                       sort_keys=True), name)
    sequence = service_draw(distinct.values(), args.seed)
    server = Server(args.scratch)
    try:
        setup_s = server.start()
        if args.setup_only:
            return {"setup_s": setup_s}
        # a probe while the clients run would compete with the server
        host.sample()
        records = _submit_all(server.url, sequence, payloads)
        host.sample()
        wall_s = max(r[2] for r in records) - min(r[1] for r in records)
        client = ServiceClient(server.url, retries=0)
        scheduler = client.stats()["scheduler"]
        stored = {}
        for *_, snapshot in records:
            key = snapshot.get("cache_key")
            if key and key not in stored and snapshot.get("status") == "done":
                stored[key] = client.result(key)["result"]
    finally:
        server.stop()
    fresh = _fresh_submissions(records)
    verdicts = [_service_record(*record, fresh=index in fresh)
                for index, record in enumerate(records)]
    for record in verdicts:
        result = stored.get(record.get("cache_key"))
        if result is not None:
            record["transitions"] = result["transitions"]
    rusage = server.rusage or {}
    output = {"setup_s": setup_s, "wall_s": wall_s,
              # the largest of the server and its pool workers: a pool
              # worker is a fork of the server, so a sum would count the
              # shared pages twice, and a drain only forks a pool when
              # two fresh jobs happen to be queued together
              "peak_rss_mb": max(rusage.get("self_kb", 0),
                                 rusage.get("children_kb", 0)) / 1024.0,
              "verdicts": verdicts,
              "hit_ms": [r["latency_s"] * 1e3 for r in verdicts
                         if r.get("kind") == "hit" and "error" not in r],
              "counters": {"submissions": len(verdicts),
                           "executed": scheduler["executed"],
                           "cache_hits": scheduler["cache_hits"],
                           "dedup_hits": scheduler["dedup_hits"]}}
    if not rusage:
        output["server_error"] = "repro serve sent no memory report"
    if args.rerun:
        output.update(_rerun_fresh(args, tracer, jobs, verdicts))
    return output


def _rerun_fresh(args, tracer, jobs, verdicts):
    """After the server stopped: each fresh job again, inline in this
    process, checked against the served result.  ``traced_s`` is the
    re-run's wall time (the server itself is never traced, so this is
    the part of a service-mix pass that tracing can slow).  Traced, the
    digest and store calls are then timed on the same jobs and results.
    """
    from repro.config.schema import SystemConfiguration
    from repro.engine import EngineOptions, VerificationJob
    from repro.engine.batch import execute_job
    from repro.service.digest import job_cache_key

    if tracer is not None:
        tracer.install()
    overheads, items, mismatches = [], [], []
    rerun_started = time.perf_counter()
    for record in verdicts:
        if record.get("kind") != "fresh" or "error" in record:
            continue
        name = record["id"].split("/", 1)[1]
        # the job exactly as the server builds it from the payload
        job = VerificationJob(
            name, SystemConfiguration.from_dict(jobs[name].config.to_dict()),
            EngineOptions(**VOLUNTEER_OPTIONS), registry="corpus",
            strict=False)
        started = time.perf_counter()
        with _verdict(tracer, record["id"]):
            result = execute_job(job)
        overheads.append(record["latency_s"]
                         - (time.perf_counter() - started))
        inline = _answer(result)
        served = {field: record.get(field) for field in inline}
        if inline != served or job_cache_key(job) != record["cache_key"]:
            mismatches.append(record["id"])
        items.append((job, result))
    output = {"traced_s": time.perf_counter() - rerun_started,
              "layers": {"drain_overhead_s": overheads},
              "inline_mismatches": mismatches}
    if tracer is not None:
        tracer.uninstall()
        layers, output["store_errors"] = store_layers(items, args.scratch,
                                                      tracer)
        output["layers"].update(layers)
    return output


PASSES = {EXPERT_CHECK: expert_check, VOLUNTEER_SWEEP: volunteer_sweep,
          SERVICE_MIX: service_mix}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--rerun", action="store_true",
                        help="service-mix: re-run each fresh job inline "
                        "after the server stopped (implied by --trace)")
    args = parser.parse_args(argv)
    args.rerun = args.rerun or args.trace
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        if args.workload != SERVICE_MIX:
            tracer.install()
    host = HostProbe()
    output = PASSES[args.workload](args, tracer, host)
    output["workload"] = args.workload
    output["seed"] = args.seed
    output["host_probe_s"] = host.samples
    if tracer is not None:
        output.setdefault("layers", {})
        output["spans"] = tracer.spans
        output["runs"] = tracer.runs
        output["selection"] = {"selected": tracer.selected,
                               "offered": tracer.offered}
        from repro.corpus import load_all_apps
        output["corpus_apps"] = len(load_all_apps())
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(output, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
