"""``repro serve``: a thin JSON API over the vetting scheduler.

Stdlib only (``http.server``): one ThreadingHTTPServer whose handler
threads submit into the shared :class:`~repro.service.scheduler.Scheduler`
and read the shared :class:`~repro.service.store.ResultStore`; the
scheduler's own worker thread drains the queue through the engine's
process pool.

Endpoints::

    GET  /healthz                liveness + schema versions
    GET  /stats                  scheduler + store counters
    GET  /jobs                   known jobs, newest first
    GET  /jobs/<id>              one job's status (and verdict when done)
    GET  /jobs/<id>/progress     latest live progress snapshot for a job
    GET  /metrics                Prometheus text exposition (format 0.0.4)
    GET  /results                recent store entries (metadata)
    GET  /results/<cache_key>    full stored result, traces included
    POST /submit                 submit a configuration for vetting
    POST /gc                     evict store entries by age / count

``POST /submit`` accepts::

    {"config": {...} | "group": "<bundled group name>",
     "name": "...",                  # optional display name
     "options": {"max_events": 3, "visited": "fingerprint", ...},
     "properties": ["P06", ...],     # optional catalog selection
     "sources": {"My App": "<groovy source>", ...},  # registry overlay
     "failures": false, "all_properties": false,
     "priority": 0, "wait": 5.0}     # wait: block up to N s for a verdict

and answers the job snapshot; re-submitting an unchanged configuration
answers from the result store (``"from_cache": true``) without running
the engine.
"""

import json
import random
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.service.defaults import DEFAULT_PORT
from repro.service.scheduler import Scheduler
from repro.service.store import STORE_SCHEMA_VERSION, ResultStore

#: EngineOptions keyword arguments a submission may set
_ALLOWED_OPTIONS = (
    "max_events", "mode", "visited", "bitstate_bits", "max_states",
    "max_transitions", "time_limit", "stop_on_first", "engine",
    "scenario",
)
# deliberately NOT accepted: ``telemetry`` (a live-handle/filesystem
# concern of the host)

#: largest bit field one HTTP submission may request: 2**30 bits is a
#: 128 MiB ``bytearray`` (the engine itself accepts up to 2**34)
MAX_BITSTATE_BITS = 30


class SubmissionError(ValueError):
    """A malformed submission payload (answered as HTTP 400)."""


class VettingService:
    """Scheduler + store glue shared by every handler thread."""

    def __init__(self, store, workers=None, job_timeout=None):
        self.store = store
        self.scheduler = Scheduler(store, workers=workers,
                                   job_timeout=job_timeout)

    def start(self):
        self.scheduler.start()

    def shutdown(self):
        self.scheduler.stop(timeout=5.0)

    # ------------------------------------------------------------------
    # submission payloads
    # ------------------------------------------------------------------

    def submit_payload(self, payload):
        """Validate and submit one ``POST /submit`` body; returns the
        job snapshot (after an optional bounded wait)."""
        from repro.engine.batch import REGISTRY_CORPUS, VerificationJob

        config = self._payload_config(payload)
        options = self._payload_options(payload.get("options") or {})
        properties = payload.get("properties") or None
        if properties is not None and not isinstance(properties, list):
            raise SubmissionError("'properties' must be a list of ids")
        sources = payload.get("sources") or None
        if sources is not None and not isinstance(sources, dict):
            raise SubmissionError("'sources' must map app names to Groovy "
                                  "source text")
        name = payload.get("name") or self._default_name(payload, config)
        job = VerificationJob(
            name, config, options, properties=properties,
            select=not payload.get("all_properties", False),
            registry=REGISTRY_CORPUS,
            strict=False,  # match `repro check` / build_system
            enable_failures=bool(payload.get("failures", False)),
            sources=sources)
        record = self.scheduler.submit(job,
                                       priority=int(payload.get("priority", 0)))
        wait = float(payload.get("wait", 0) or 0)
        if wait > 0:
            self.scheduler.wait(record, timeout=wait)
        return record.snapshot()

    @staticmethod
    def _payload_config(payload):
        from repro.config.schema import SystemConfiguration
        from repro.corpus.groups import GROUP_BUILDERS

        if "config" in payload:
            if not isinstance(payload["config"], dict):
                raise SubmissionError("'config' must be a configuration "
                                      "object (SystemConfiguration.to_dict)")
            return SystemConfiguration.from_dict(payload["config"])
        group = payload.get("group")
        if group:
            builder = GROUP_BUILDERS.get(group)
            if builder is None:
                raise SubmissionError(
                    "unknown group %r (bundled groups: %s)"
                    % (group, ", ".join(sorted(GROUP_BUILDERS))))
            return builder()
        raise SubmissionError("a submission needs 'config' or 'group'")

    @staticmethod
    def _payload_options(options):
        from repro.engine.options import EngineOptions

        if not isinstance(options, dict):
            raise SubmissionError("'options' must be an object")
        unknown = sorted(set(options) - set(_ALLOWED_OPTIONS))
        if unknown:
            raise SubmissionError("unknown engine option(s): %s"
                                  % ", ".join(unknown))
        # the enum-valued options are only validated when the engine runs;
        # reject bad values at the API boundary instead of erroring the job
        from repro.engine.options import ENGINE_MODES, EXPLORATION_MODES
        from repro.engine.options import visited_store_names
        from repro.model.faults import scenario_names

        enums = {"visited": visited_store_names(),
                 "mode": list(EXPLORATION_MODES),
                 "engine": list(ENGINE_MODES),
                 "scenario": list(scenario_names())}
        for key, allowed in enums.items():
            if key in options and options[key] not in allowed:
                raise SubmissionError(
                    "bad %r option %r (allowed: %s)"
                    % (key, options[key], ", ".join(allowed)))
        bits = options.get("bitstate_bits")
        # EngineOptions rejects a malformed size; the field is allocated
        # up front, so this host also caps a well-formed one
        if isinstance(bits, int) and bits > MAX_BITSTATE_BITS:
            raise SubmissionError(
                "bad 'bitstate_bits' option %r (at most %d)"
                % (bits, MAX_BITSTATE_BITS))
        try:
            return EngineOptions(**options)
        except (TypeError, ValueError) as exc:
            raise SubmissionError("bad engine options: %s" % exc)

    @staticmethod
    def _default_name(payload, config):
        if payload.get("group"):
            return payload["group"]
        apps = [a.instance_name for a in config.apps]
        return "+".join(apps[:3]) + ("..." if len(apps) > 3 else "") \
            if apps else "empty-config"

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def job_snapshot(self, job_id):
        record = self.scheduler.job(job_id)
        return None if record is None else record.snapshot()

    def stored_result(self, cache_key):
        stored = self.store.get(cache_key)
        return None if stored is None else stored.to_dict()

    def stats(self):
        return {"scheduler": self.scheduler.stats(),
                "store": self.store.stats()}

    def job_progress(self, job_id):
        return self.scheduler.progress(job_id)

    def metrics_text(self):
        """The ``/metrics`` scrape body: a fresh registry rebuilt from
        the live scheduler/store counters and the in-process progress
        board on every scrape, so samples are a consistent
        point-in-time view (no sampling thread, no staleness)."""
        from repro.obs import PROGRESS_BOARD, MetricsRegistry
        from repro.obs.prometheus import render_exposition

        registry = MetricsRegistry()
        sched = self.scheduler.stats()
        registry.gauge(
            "repro_scheduler_jobs",
            "Jobs known to the scheduler").set(sched["jobs"])
        registry.gauge(
            "repro_scheduler_queued",
            "Heap entries awaiting a drain cycle").set(sched["queued"])
        by_status = registry.gauge("repro_scheduler_jobs_by_status",
                                   "Job records per lifecycle state")
        for status, count in sorted(sched["by_status"].items()):
            by_status.set(count, status=status)
        registry.counter(
            "repro_scheduler_executed_total",
            "Engine runs actually executed (cache hits never "
            "count)").inc(sched["executed"])
        registry.counter(
            "repro_scheduler_cache_hits_total",
            "Submissions answered from the result store").inc(
                sched["cache_hits"])
        registry.counter(
            "repro_scheduler_dedup_hits_total",
            "Submissions attached to an in-flight twin").inc(
                sched["dedup_hits"])
        store = self.store.stats()
        registry.gauge("repro_store_entries",
                       "Stored results").set(store["entries"])
        registry.counter("repro_store_hits_total",
                         "Store lookups answered").inc(store["hits"])
        registry.gauge(
            "repro_store_saved_seconds",
            "Engine seconds the cached verdicts represent").set(
                store["saved_seconds"])
        if "store_bytes" in store:
            registry.gauge("repro_store_bytes",
                           "SQLite file size").set(store["store_bytes"])
        states = registry.gauge("repro_job_states",
                                "Distinct states explored so far, per "
                                "observed job")
        transitions = registry.gauge("repro_job_transitions",
                                     "Transitions taken so far, per "
                                     "observed job")
        frontier = registry.gauge("repro_job_frontier",
                                  "Frontier size, per observed job")
        for job in PROGRESS_BOARD.jobs():
            snapshot = PROGRESS_BOARD.latest(job) or {}
            states.set(snapshot.get("states", 0), job=str(job))
            transitions.set(snapshot.get("transitions", 0), job=str(job))
            frontier.set(snapshot.get("frontier", 0), job=str(job))
        return render_exposition(registry)


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto the shared :class:`VettingService`."""

    protocol_version = "HTTP/1.1"
    #: silenced by default; ``repro serve --verbose`` re-enables
    quiet = True

    @property
    def service(self):
        return self.server.service

    def log_message(self, format, *args):  # noqa: A002
        if not self.quiet:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    # -- plumbing ----------------------------------------------------------

    def _send_json(self, payload, status=200):
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status, message):
        self._send_json({"error": message}, status=status)

    def _send_text(self, text, content_type, status=200):
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self):
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SubmissionError("request body is not valid JSON: %s" % exc)
        if not isinstance(payload, dict):
            raise SubmissionError("request body must be a JSON object")
        return payload

    # -- routes ------------------------------------------------------------

    def do_GET(self):  # noqa: N802
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/healthz":
                self._send_json({
                    "status": "ok",
                    "store_schema": STORE_SCHEMA_VERSION,
                })
            elif path == "/stats":
                self._send_json(self.service.stats())
            elif path == "/metrics":
                from repro.obs.prometheus import CONTENT_TYPE

                self._send_text(self.service.metrics_text(), CONTENT_TYPE)
            elif path == "/jobs":
                self._send_json({"jobs": self.service.scheduler.jobs()})
            elif path.startswith("/jobs/") and path.endswith("/progress"):
                job_id = path[len("/jobs/"):-len("/progress")]
                progress = self.service.job_progress(job_id)
                if progress is None:
                    self._send_error_json(404, "no such job")
                else:
                    self._send_json(progress)
            elif path.startswith("/jobs/"):
                snapshot = self.service.job_snapshot(path[len("/jobs/"):])
                if snapshot is None:
                    self._send_error_json(404, "no such job")
                else:
                    self._send_json(snapshot)
            elif path == "/results":
                self._send_json({"results": self.service.store.entries()})
            elif path.startswith("/results/"):
                stored = self.service.stored_result(path[len("/results/"):])
                if stored is None:
                    self._send_error_json(404, "no stored result under "
                                               "that cache key")
                else:
                    self._send_json(stored)
            else:
                self._send_error_json(404, "unknown endpoint %s" % path)
        except Exception as exc:  # one request must never kill the server
            self._send_error_json(500, "%s: %s" % (type(exc).__name__, exc))

    def do_POST(self):  # noqa: N802
        path = self.path.split("?", 1)[0].rstrip("/")
        try:
            payload = self._read_body()
            if path == "/submit":
                self._send_json(self.service.submit_payload(payload))
            elif path == "/gc":
                max_age = payload.get("max_age")
                keep = payload.get("keep")
                removed = self.service.store.gc(
                    max_age=float(max_age) if max_age is not None else None,
                    keep=int(keep) if keep is not None else None)
                self._send_json({"removed": removed,
                                 "store": self.service.store.stats()})
            else:
                self._send_error_json(404, "unknown endpoint %s" % path)
        except SubmissionError as exc:
            self._send_error_json(400, str(exc))
        except Exception as exc:
            self._send_error_json(500, "%s: %s" % (type(exc).__name__, exc))


class VettingHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the shared service object."""

    daemon_threads = True

    def __init__(self, address, service, verbose=False):
        self.service = service
        handler = type("_BoundHandler", (_Handler,), {"quiet": not verbose})
        super().__init__(address, handler)


def create_server(store_path=":memory:", host="127.0.0.1", port=DEFAULT_PORT,
                  workers=None, verbose=False,
                  store=None, job_timeout=None):
    """Build (but don't run) a vetting server; returns ``(server, service)``.

    ``port=0`` binds an ephemeral free port (``server.server_address``
    reports the real one) - the tests and the CI smoke job use that.
    The scheduler's worker thread is started; call
    ``server.serve_forever()`` to serve and ``service.shutdown()`` +
    ``server.server_close()`` to tear down.  ``workers`` sizes the
    scheduler's job pool.  ``job_timeout`` bounds each job's wall clock (seconds; see
    :class:`~repro.service.scheduler.Scheduler`).
    """
    store = store if store is not None else ResultStore(store_path)
    service = VettingService(store, workers=workers,
                             job_timeout=job_timeout)
    service.start()
    server = VettingHTTPServer((host, port), service, verbose=verbose)
    return server, service


# ---------------------------------------------------------------------------
# client
# ---------------------------------------------------------------------------


class ServiceError(RuntimeError):
    """An error answer from the vetting service."""

    def __init__(self, status, message):
        super().__init__("HTTP %d: %s" % (status, message))
        self.status = status


class ServiceClient:
    """Minimal urllib client for the vetting API (used by the CLI).

    Transient connection failures (``URLError``: refused, reset, DNS
    hiccup - *not* HTTP error answers) are retried up to ``retries``
    extra attempts with exponential backoff plus jitter
    (``backoff * 2**attempt``, scaled by a random factor in [0.5, 1.0]
    so a burst of CLI clients does not re-dogpile a restarting server).
    Only idempotent GETs retry by default: a POST that died mid-flight
    may have been applied, and resubmitting it is the *caller's* call
    (``retry_posts=True`` opts in - safe for this API because
    submissions are deduplicated by content digest).
    """

    def __init__(self, base_url, timeout=60.0, retries=2, backoff=0.25,
                 retry_posts=False):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.retry_posts = retry_posts

    def _request(self, path, payload=None):
        url = self.base_url + path
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        retries = self.retries if (payload is None or self.retry_posts) else 0
        for attempt in range(retries + 1):
            request = urllib.request.Request(url, data=data, headers=headers)
            try:
                with urllib.request.urlopen(request,
                                            timeout=self.timeout) as response:
                    return json.loads(response.read().decode("utf-8"))
            except urllib.error.HTTPError as exc:
                # the server answered: a definitive result, never retried
                try:
                    message = json.loads(exc.read().decode("utf-8")).get(
                        "error", exc.reason)
                except Exception:
                    message = str(exc.reason)
                raise ServiceError(exc.code, message)
            except urllib.error.URLError as exc:
                if attempt >= retries:
                    raise ServiceError(
                        0, "cannot reach %s (%s)%s; is `repro serve` "
                           "running?"
                           % (url, exc.reason,
                              " after %d attempts" % (attempt + 1)
                              if attempt else ""))
                time.sleep(self.backoff * (2 ** attempt)
                           * (0.5 + random.random() / 2))

    def health(self):
        return self._request("/healthz")

    def stats(self):
        return self._request("/stats")

    def submit(self, payload):
        return self._request("/submit", payload)

    def job(self, job_id):
        return self._request("/jobs/%s" % job_id)

    def job_progress(self, job_id):
        return self._request("/jobs/%s/progress" % job_id)

    def metrics(self):
        """GET /metrics: the raw Prometheus text exposition (the one
        endpoint that answers text, not JSON - parse it with
        :func:`repro.obs.prometheus.parse_exposition`)."""
        url = self.base_url + "/metrics"
        request = urllib.request.Request(url)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            raise ServiceError(exc.code, str(exc.reason))
        except urllib.error.URLError as exc:
            raise ServiceError(0, "cannot reach %s (%s); is `repro serve` "
                                  "running?" % (url, exc.reason))

    def jobs(self):
        return self._request("/jobs")["jobs"]

    def results(self):
        return self._request("/results")["results"]

    def result(self, cache_key):
        return self._request("/results/%s" % cache_key)

    def gc(self, max_age=None, keep=None):
        """POST /gc: evict stored entries by age (seconds) / kept count."""
        payload = {}
        if max_age is not None:
            payload["max_age"] = max_age
        if keep is not None:
            payload["keep"] = keep
        return self._request("/gc", payload)
