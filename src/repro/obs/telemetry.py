"""Run telemetry: metric registry, spans, and the JSONL event sink.

Three cooperating pieces, all near-zero-overhead when unused:

* :class:`TelemetryConfig` - the *declarative* request attached to
  ``EngineOptions(telemetry=...)``.  It is plain picklable data (a sink
  path, a progress-meter flag, a board key, a snapshot cadence) so it
  travels with jobs into pool worker processes; live handles never
  cross a process boundary.
* :class:`TelemetrySession` - the runtime opened by the engine that
  executes a run.  It stamps every event with the schema version and
  the monotonic elapsed clock, appends one JSON line per event to the sink,
  drives the optional stderr meter and publishes the latest snapshot to
  the process-wide :data:`PROGRESS_BOARD`.
* :class:`MetricsRegistry` - labelled counters and gauges for the
  service's Prometheus ``/metrics`` endpoint
  (:mod:`repro.obs.prometheus` renders it).

The sink is **versioned**: every line carries ``"v"`` and
:func:`read_events` refuses lines written by a newer schema instead of
misreading them - the same contract the result store follows.

Telemetry never participates in the vetting service's semantic digests
(:data:`repro.service.digest.SEMANTIC_OPTION_FIELDS` is an allowlist
that excludes it), so enabling a sink can never split the result cache.
"""

import json
import threading
import time

#: bump when the JSONL event layout changes; readers refuse newer (v2:
#: the per-shard snapshot events and the ``workers`` field of
#: ``run_start``/``run_end`` are gone; v1 sinks still read)
TELEMETRY_SCHEMA_VERSION = 2

#: default minimum transitions between progress snapshots; coarse enough
#: that even the O(n)-stats ``exact`` store pays nothing measurable.
DEFAULT_SNAPSHOT_INTERVAL = 4096


class TelemetryConfig:
    """Declarative telemetry request (picklable; travels with jobs).

    ``path``
        JSONL sink file; events are *appended* (one line per event, one
        ``write()`` call per line, so concurrent batch jobs interleave
        whole lines).
    ``progress``
        Drive the live single-line stderr meter
        (:class:`repro.obs.progress.ProgressMeter`).
    ``job``
        Board key: snapshots are published to :data:`PROGRESS_BOARD`
        under this name (the scheduler keys it by job id for
        ``/jobs/<id>/progress``; ``repro batch`` keys it by job name so
        sink lines are attributable).
    ``interval``
        Minimum transitions between snapshots (default
        :data:`DEFAULT_SNAPSHOT_INTERVAL`); sampling still piggybacks on
        the engine's ``check_interval`` wall-clock sampling, so the
        effective gap is ``max(interval, check_interval)``.
    """

    __slots__ = ("path", "progress", "job", "interval")

    def __init__(self, path=None, progress=False, job=None, interval=None):
        self.path = path
        self.progress = bool(progress)
        self.job = job
        self.interval = interval

    @property
    def enabled(self):
        """Whether this config asks for any telemetry at all."""
        return bool(self.path or self.progress or self.job)

    def snapshot_gap(self, check_interval):
        """Transitions between snapshots, floored by the time-check
        cadence the sampling piggybacks on."""
        interval = self.interval
        if interval is None:
            interval = DEFAULT_SNAPSHOT_INTERVAL
        return max(1, int(check_interval), int(interval))

    # __slots__ classes need explicit pickle plumbing
    def __getstate__(self):
        return (self.path, self.progress, self.job, self.interval)

    def __setstate__(self, state):
        self.path, self.progress, self.job, self.interval = state

    def __repr__(self):
        return ("TelemetryConfig(path=%r, progress=%r, job=%r, interval=%r)"
                % (self.path, self.progress, self.job, self.interval))


def resolve_telemetry(value):
    """Normalize an ``EngineOptions(telemetry=...)`` value.

    Accepts ``None``, a :class:`TelemetryConfig`, a sink path string, or
    a keyword dict (the JSON-payload form).
    """
    if value is None or isinstance(value, TelemetryConfig):
        return value
    if isinstance(value, str):
        return TelemetryConfig(path=value)
    if isinstance(value, dict):
        return TelemetryConfig(**value)
    raise TypeError("telemetry must be None, a path, a dict or a "
                    "TelemetryConfig, not %r" % (value,))


# ---------------------------------------------------------------------------
# metric registry (counters / gauges / spans)
# ---------------------------------------------------------------------------


def _label_key(labels):
    return tuple(sorted(labels.items()))


class _Metric:
    """One named metric family: samples keyed by their label sets."""

    kind = None

    def __init__(self, name, help_text=""):
        self.name = name
        self.help = help_text
        self._samples = {}  # sorted (label, value) tuple -> number

    def samples(self):
        """``[(labels dict, value), ...]`` in insertion order."""
        return [(dict(key), value) for key, value in self._samples.items()]

    def value(self, **labels):
        return self._samples.get(_label_key(labels), 0)


class Counter(_Metric):
    """Monotonically increasing metric (Prometheus ``counter``)."""

    kind = "counter"

    def inc(self, amount=1, **labels):
        key = _label_key(labels)
        self._samples[key] = self._samples.get(key, 0) + amount


class Gauge(_Metric):
    """Point-in-time metric (Prometheus ``gauge``)."""

    kind = "gauge"

    def set(self, value, **labels):
        self._samples[_label_key(labels)] = value


class MetricsRegistry:
    """Name -> metric registry, rendered by
    :func:`repro.obs.prometheus.render_exposition`.

    Registration is idempotent per name (re-registering returns the
    existing metric) and thread-safe; the service handler threads build
    one fresh registry per scrape, so values are always a consistent
    point-in-time view.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics = {}

    def counter(self, name, help_text=""):
        return self._register(Counter, name, help_text)

    def gauge(self, name, help_text=""):
        return self._register(Gauge, name, help_text)

    def _register(self, cls, name, help_text):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help_text)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ValueError("metric %r already registered as %s"
                                 % (name, metric.kind))
            return metric

    def families(self):
        """The registered metrics, in registration order."""
        with self._lock:
            return list(self._metrics.values())


# ---------------------------------------------------------------------------
# the in-process progress board
# ---------------------------------------------------------------------------


class ProgressBoard:
    """Latest snapshot per job key, shared across threads in a process.

    The scheduler injects a board-keyed :class:`TelemetryConfig` into
    every job it drains; runs executed in-process (inline jobs - the
    service's single-worker path) publish here, and the API's
    ``/jobs/<id>/progress`` and ``/metrics`` endpoints read it.  Jobs
    that execute inside *pool worker processes* publish to that worker's
    board, which the parent cannot see - a documented limitation of the
    pooled path, not an error.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._latest = {}

    def publish(self, job, snapshot):
        with self._lock:
            self._latest[job] = dict(snapshot)

    def latest(self, job):
        """The newest snapshot for ``job`` (a copy), or ``None``."""
        with self._lock:
            snapshot = self._latest.get(job)
            return dict(snapshot) if snapshot is not None else None

    def discard(self, job):
        with self._lock:
            self._latest.pop(job, None)

    def jobs(self):
        with self._lock:
            return sorted(self._latest)


#: the process-wide board (one per process by design: the service's
#: handler threads and scheduler thread share this instance)
PROGRESS_BOARD = ProgressBoard()


# ---------------------------------------------------------------------------
# the live session + JSONL sink
# ---------------------------------------------------------------------------


class TelemetrySession:
    """Live telemetry for one run: sink, meter and board, one handle.

    Opened by the engine that *executes* a run
    (:meth:`ExplorationEngine._open_telemetry`).  All methods are cheap
    and exception-free by construction: telemetry must never be able to
    change a run's outcome.
    """

    def __init__(self, config):
        self.config = config
        self.started = time.monotonic()
        #: warning name -> times emitted this session (the counter the
        #: ``warning`` events carry, so a reader can dedup by count)
        self.warning_counts = {}
        self._sink = None
        self._meter = None
        if config.path:
            # append + line buffering: one write() per event line, so
            # concurrent batch jobs interleave whole lines, never bytes
            self._sink = open(config.path, "a", encoding="utf-8",
                              buffering=1)
        if config.progress:
            from repro.obs.progress import ProgressMeter
            self._meter = ProgressMeter(label=config.job)

    # -- event plumbing ----------------------------------------------------

    def _emit(self, kind, fields):
        event = {"v": TELEMETRY_SCHEMA_VERSION, "kind": kind,
                 "elapsed": round(time.monotonic() - self.started, 6)}
        if self.config.job is not None:
            event["job"] = self.config.job
        event.update(fields)
        if self._sink is not None:
            self._sink.write(json.dumps(event, sort_keys=True) + "\n")
        return event

    # -- the event vocabulary ----------------------------------------------

    def run_start(self, options=None):
        """Record the run's shape (wall timestamp + the knobs a report
        reader needs to label the timeline)."""
        fields = {"ts": time.time()}
        if options is not None:
            fields.update({
                "max_events": options.max_events,
                "mode": options.mode,
                "engine": options.engine,
                "visited": options.visited,
                "scenario": options.scenario,
            })
        self._emit("run_start", fields)

    def snapshot(self, fields):
        """One progress snapshot: sink line, meter repaint, board
        publication."""
        self._emit("snapshot", fields)
        if self._meter is not None:
            self._meter.update(fields)
        if self.config.job is not None:
            PROGRESS_BOARD.publish(self.config.job, fields)

    def span(self, name, seconds):
        self._emit("span", {"name": name, "seconds": round(seconds, 6)})

    def warning(self, name, **fields):
        """A named run-health warning (e.g. ``bitstate_saturation``).

        Each emission increments the session's per-name counter and the
        event carries the running ``count``, so a sink reader can both
        see every occurrence and cheaply report totals.
        """
        self.warning_counts[name] = self.warning_counts.get(name, 0) + 1
        payload = {"name": name, "count": self.warning_counts[name]}
        payload.update(fields)
        self._emit("warning", payload)

    def run_end(self, result, cascade_stats=None):
        """The run's outcome; also published as the final board state.

        ``cascade_stats`` (the lean relation's live/replayed cascade and
        replay-leaf counts) joins the fields when given."""
        fields = {
            "verdict": result.verdict,
            "violations": len(result.counterexamples),
            "states": result.states_explored,
            "transitions": result.transitions,
            "run_elapsed": round(result.elapsed, 6),
            "truncated": result.truncated,
            "truncated_reason": result.truncated_reason,
        }
        if cascade_stats:
            fields.update(cascade_stats)
        self._emit("run_end", fields)
        if self.config.job is not None:
            final = dict(fields)
            final["final"] = True
            PROGRESS_BOARD.publish(self.config.job, final)

    def close(self):
        if self._meter is not None:
            self._meter.close()
            self._meter = None
        if self._sink is not None:
            self._sink.close()
            self._sink = None


def open_session(config):
    """A :class:`TelemetrySession` for ``config``, or ``None`` when
    telemetry is off (the engine's hot path branches on that None)."""
    config = resolve_telemetry(config)
    if config is None or not config.enabled:
        return None
    return TelemetrySession(config)


def read_events(path):
    """Parse a telemetry JSONL sink; refuses newer schema versions.

    Blank lines are skipped (concurrent appenders sync at line
    granularity); a malformed line raises ``ValueError`` with its line
    number, so a truncated tail is diagnosable.
    """
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError("%s line %d is not valid JSON: %s"
                                 % (path, number, exc))
            version = event.get("v", TELEMETRY_SCHEMA_VERSION)
            if version > TELEMETRY_SCHEMA_VERSION:
                raise ValueError(
                    "%s line %d has telemetry schema version %d; this "
                    "build reads <= %d"
                    % (path, number, version, TELEMETRY_SCHEMA_VERSION))
            events.append(event)
    return events
