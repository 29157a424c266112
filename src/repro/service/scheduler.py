"""Incremental job scheduler: dedup, cache short-circuit, cost ordering.

The scheduler sits between submissions and the engine's process-pool
batch runner (:func:`repro.engine.batch.verify_many`):

1. **cache short-circuit** - a submission whose content key is already
   in the :class:`~repro.service.store.ResultStore` completes
   immediately with the stored result; no engine runs, no worker wakes;
2. **in-flight dedup** - submissions sharing a cache key with a queued
   or running job attach to that job instead of re-verifying (market
   uploads arrive in bursts of identical configurations);
3. **priority/cost ordering** - remaining jobs run highest priority
   first, cheapest first within a priority band, so interactive
   submissions are not stuck behind whole-market sweeps;
4. **batched execution** - ready jobs drain through ``verify_many``'s
   process pool in one batch per drain cycle.

The scheduler can be driven synchronously (:meth:`run_pending`, used by
tests and one-shot CLI flows) or by its own worker thread
(:meth:`start`/:meth:`stop`, used by ``repro serve``).
"""

import copy
import heapq
import itertools
import os
import threading
import time

#: job lifecycle states
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
ERROR = "error"


class ScheduledJob:
    """One submission's lifecycle record."""

    __slots__ = ("id", "job", "cache_key", "config_digest", "priority",
                 "cost", "status", "from_cache", "submitted", "started",
                 "finished", "result", "error", "waiters")

    def __init__(self, job_id, job, cache_key, config_digest, priority, cost):
        self.id = job_id
        self.job = job
        self.cache_key = cache_key
        self.config_digest = config_digest
        self.priority = priority
        self.cost = cost
        self.status = QUEUED
        self.from_cache = False
        self.submitted = time.time()
        self.started = None
        self.finished = None
        self.result = None
        self.error = None
        self.waiters = 0

    @property
    def done(self):
        return self.status in (DONE, ERROR)

    @property
    def verdict(self):
        """``"violated"``/``"safe"``/``"error"``; None while running."""
        if self.status == ERROR:
            return "error"
        if self.result is None:
            return None
        return self.result.verdict

    def snapshot(self):
        """JSON-safe view for the API and CLI."""
        data = {
            "id": self.id,
            "name": self.job.name,
            "cache_key": self.cache_key,
            "config_digest": self.config_digest,
            "status": self.status,
            "priority": self.priority,
            "cost": self.cost,
            "from_cache": self.from_cache,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "verdict": self.verdict,
            "error": self.error,
        }
        if self.result is not None:
            data["violations"] = len(self.result.counterexamples)
            data["violated_property_ids"] = self.result.violated_property_ids
            data["states_explored"] = self.result.states_explored
            data["elapsed"] = self.result.elapsed
        return data

    def __repr__(self):
        return "ScheduledJob(%s, %s%s)" % (
            self.id, self.status, ", cached" if self.from_cache else "")


def estimate_cost(job):
    """Cheap relative cost: configuration size scaled by the event bound.

    The state space grows with installed apps x interesting devices per
    extra event of depth; the estimate only has to *order* jobs, not
    predict wall-clock.
    """
    apps = max(1, len(job.config.apps))
    devices = max(1, len(job.config.devices))
    return apps * devices * (job.options.max_events + 1)


class Scheduler:
    """Drives submissions through the store and the batch worker pool.

    Parallelism is across jobs only: each drain cycle fans a batch of
    queued jobs across :func:`verify_many`'s pool of ``workers``
    processes, and every job's search runs in one process.

    ``job_timeout`` (seconds, ``None`` = unbounded) bounds each job's
    wall clock with two cooperating mechanisms: a cooperative
    ``EngineOptions.time_limit`` injected into every drained job (the
    engine stops itself at the deadline, covering the inline path),
    plus :func:`verify_many`'s hard pool backstop for workers
    hung in non-cooperative code.  Either way the record finishes - the
    in-flight dedup key is released by ``_finish_batch`` and the drain
    loop moves on; a single runaway submission can never wedge the
    service.
    """

    def __init__(self, store, workers=None, batch_size=None,
                 job_timeout=None):
        self.store = store
        self.workers = workers
        self.job_timeout = job_timeout
        #: jobs drained per cycle: enough to keep the pool busy, small
        #: enough that a high-priority arrival waits one batch at most
        self.batch_size = batch_size or max(
            1, (workers or os.cpu_count() or 1) * 4)
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._jobs = {}          # job id -> ScheduledJob
        self._inflight = {}      # cache key -> queued/running ScheduledJob
        self._heap = []          # (-priority, cost, seq, job_id)
        self._ids = itertools.count(1)
        self._seq = itertools.count()
        self._thread = None
        self._stopping = False
        #: engine runs actually executed (cache hits never count)
        self.executed = 0
        #: submissions answered from the store or an in-flight twin
        self.cache_hits = 0
        self.dedup_hits = 0

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(self, job, priority=0):
        """Submit one :class:`~repro.engine.batch.VerificationJob`.

        Returns the :class:`ScheduledJob` record - possibly an existing
        in-flight record (dedup) or an immediately-done record served
        from the result store (cache hit).
        """
        from repro.engine.batch import resolve_job_registry
        from repro.service.digest import job_cache_key, job_config_digest

        # resolve the registry once per submission: both digests need it,
        # and uploaded sources would otherwise be parsed twice
        registry = resolve_job_registry(job)
        cache_key = job_cache_key(job, registry)
        with self._lock:
            twin = self._inflight.get(cache_key)
            if twin is not None:
                self._attach_to_twin(twin, priority)
                return twin
        stored = self.store.get(cache_key)
        record = ScheduledJob("job-%d" % next(self._ids), job, cache_key,
                              job_config_digest(job, registry), priority,
                              estimate_cost(job))
        if stored is not None:
            record.status = DONE
            record.from_cache = True
            record.result = stored.result
            record.finished = record.started = record.submitted
            with self._lock:
                self._jobs[record.id] = record
                self.cache_hits += 1
            return record
        with self._lock:
            # recheck: a twin may have raced in while the store was probed
            twin = self._inflight.get(cache_key)
            if twin is not None:
                self._attach_to_twin(twin, priority)
                return twin
            self._jobs[record.id] = record
            self._inflight[cache_key] = record
            heapq.heappush(self._heap, (-priority, record.cost,
                                        next(self._seq), record.id))
            self._wakeup.notify_all()
        return record

    def _attach_to_twin(self, twin, priority):
        """Dedup bookkeeping (caller holds the lock): a duplicate raises a
        still-queued twin's priority, so an interactive resubmission of a
        low-priority sweep job is not stuck at sweep priority."""
        twin.waiters += 1
        self.dedup_hits += 1
        if twin.status == QUEUED and priority > twin.priority:
            twin.priority = priority
            # stale lower-priority heap entries are skipped at pop time
            # (the status check), so pushing a boosted one is enough
            heapq.heappush(self._heap, (-priority, twin.cost,
                                        next(self._seq), twin.id))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run_pending(self):
        """Drain up to one batch of queued jobs through ``verify_many``;
        returns the finished records (empty when nothing was queued).

        The per-cycle batch is capped (:attr:`batch_size`) so a
        high-priority submission arriving mid-sweep only waits for the
        current batch, not for the whole queue.
        """
        from repro.engine.batch import VerificationJob, verify_many

        with self._lock:
            batch = []
            while self._heap and len(batch) < self.batch_size:
                *_order, job_id = heapq.heappop(self._heap)
                record = self._jobs[job_id]
                if record.status != QUEUED:
                    continue
                record.status = RUNNING
                record.started = time.time()
                batch.append(record)
        if not batch:
            return []
        # results are keyed by job name inside verify_many; job ids are
        # unique where user-facing names need not be
        jobs = []
        tightened = set()  # record ids whose time_limit *we* imposed
        for record in batch:
            source = record.job
            options = source.options
            if self.job_timeout is not None:
                # cooperative per-job bound: the engine checks wall
                # clock itself, which also covers the inline path the
                # pool backstop cannot preempt.  A submission with its
                # own tighter limit keeps it.
                limit = getattr(options, "time_limit", None)
                if limit is None or limit > self.job_timeout:
                    if options is source.options:
                        options = copy.copy(options)
                    options.time_limit = self.job_timeout
                    tightened.add(record.id)
            if getattr(options, "telemetry", None) is None:
                # board hookup: a job-id scoped config (no sink, no
                # meter) so ``/jobs/<id>/progress`` and the per-job
                # ``/metrics`` gauges see live snapshots from runs
                # executed in this process (the inline path).
                # A submission carrying its own config keeps it.
                from repro.obs import TelemetryConfig
                if options is source.options:
                    options = copy.copy(options)
                options.telemetry = TelemetryConfig(job=record.id)
            jobs.append(VerificationJob(
                record.id, source.config, options,
                properties=source.properties, select=source.select,
                registry=source.registry, strict=source.strict,
                enable_failures=source.enable_failures,
                user_mode_events=source.user_mode_events,
                sources=source.sources))
        try:
            outcome = verify_many(jobs, workers=self.workers,
                                  timeout=self.job_timeout)
        except Exception as exc:
            # verify_many catches per-job failures itself; this guards
            # batch-level failures (e.g. a dead process pool) so the
            # records never wedge in RUNNING
            return self._finish_batch(batch, error="batch execution "
                                      "failed - %s: %s"
                                      % (type(exc).__name__, exc))
        for record in batch:
            result = outcome.results.get(record.id)
            if result is not None:
                if (record.id in tightened and result.truncated
                        and result.truncated_reason == "time_limit"):
                    # the *injected* deadline cut the search short.
                    # Violations found before the cutoff are real, so a
                    # violated verdict stands (uncached - the partial
                    # coverage is not reproducible under the cache key);
                    # a "safe" verdict from partial coverage would be
                    # unsound, so the record errors instead
                    record.result = result
                    if result.counterexamples:
                        record.status = DONE
                    else:
                        record.error = ("timed out after %gs "
                                        "(scheduler job timeout); partial "
                                        "coverage, no verdict"
                                        % self.job_timeout)
                        record.status = ERROR
                    continue
                record.result = result
                record.status = DONE
                if (getattr(result, "swarm", None)
                        and not result.counterexamples):
                    # a swarm "safe" is only "not found by this sample"
                    # (coverage is partial by construction) - serving it
                    # from the cache would launder sampling into an
                    # exhaustive-looking verdict.  Swarm *violations*
                    # fall through and are cached: each replayed on the
                    # interpreted oracle before being recorded, and the
                    # digest (mode + seed + swarm_members) pins the
                    # exact sample that found them
                    continue
                try:
                    self.store.put(record.cache_key, result,
                                   name=record.job.name,
                                   config_digest=record.config_digest,
                                   config=record.job.config,
                                   sources=record.job.sources)
                except Exception as exc:
                    # the verdict exists even if persisting it failed;
                    # stay DONE, surface the store trouble on the record
                    record.error = ("result-store write failed - %s: %s"
                                    % (type(exc).__name__, exc))
            else:
                record.error = (outcome.errors.get(record.id)
                                or "job produced no result")
                record.status = ERROR
        return self._finish_batch(batch)

    def _finish_batch(self, batch, error=None):
        """Stamp, unregister and announce a drained batch (one place, so
        no exit path can leave records RUNNING or keys in-flight)."""
        now = time.time()
        for record in batch:
            if error is not None:
                record.error = error
                record.status = ERROR
            record.finished = now
        with self._lock:
            self.executed += len(batch)
            for record in batch:
                self._inflight.pop(record.cache_key, None)
            self._wakeup.notify_all()
        return batch

    # ------------------------------------------------------------------
    # background worker
    # ------------------------------------------------------------------

    def start(self):
        """Run the drain loop on a daemon thread (idempotent)."""
        with self._lock:
            if self._thread is not None:
                return self._thread
            self._stopping = False
            self._thread = threading.Thread(target=self._loop,
                                            name="repro-scheduler",
                                            daemon=True)
        self._thread.start()
        return self._thread

    def _loop(self):
        while True:
            with self._lock:
                while not self._heap and not self._stopping:
                    self._wakeup.wait(timeout=0.5)
                if self._stopping:
                    return
            try:
                self.run_pending()
            except Exception:
                # run_pending hardens every expected failure itself; this
                # is the last line of defense - a wedged cycle must not
                # kill the drain thread and silently stall the service
                time.sleep(0.1)

    def stop(self, timeout=None):
        with self._lock:
            self._stopping = True
            thread = self._thread
            self._thread = None
            self._wakeup.notify_all()
        if thread is not None:
            thread.join(timeout=timeout)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def job(self, job_id):
        with self._lock:
            return self._jobs.get(job_id)

    def wait(self, record, timeout=None):
        """Block until a record finishes; returns ``record.done``."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while not record.done:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    break
                self._wakeup.wait(timeout=remaining
                                  if remaining is not None else 0.5)
        return record.done

    def progress(self, job_id):
        """The latest observed progress for one job, or ``None``.

        While the job runs in this process (the inline path) the live
        board snapshot rides along; once the job is done the result's
        final figures do.  Jobs executing inside pool worker processes
        publish to that worker's board, so their ``snapshot`` key is
        absent until completion.
        """
        record = self.job(job_id)
        if record is None:
            return None
        from repro.obs import PROGRESS_BOARD

        data = {"id": record.id, "status": record.status,
                "verdict": record.verdict}
        snapshot = PROGRESS_BOARD.latest(job_id)
        if snapshot is not None:
            data["snapshot"] = snapshot
        if record.result is not None:
            data["result"] = {
                "states": record.result.states_explored,
                "transitions": record.result.transitions,
                "elapsed": record.result.elapsed,
                "violations": len(record.result.counterexamples),
            }
        return data

    def jobs(self):
        """Snapshots of every known job, newest first."""
        with self._lock:
            records = sorted(self._jobs.values(), key=lambda r: r.submitted,
                             reverse=True)
        return [record.snapshot() for record in records]

    def stats(self):
        with self._lock:
            by_status = {}
            for record in self._jobs.values():
                by_status[record.status] = by_status.get(record.status, 0) + 1
            return {
                "jobs": len(self._jobs),
                "by_status": by_status,
                "queued": len(self._heap),
                "executed": self.executed,
                "cache_hits": self.cache_hits,
                "dedup_hits": self.dedup_hits,
                "workers": self.workers,
                "job_timeout": self.job_timeout,
            }
