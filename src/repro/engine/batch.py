"""Parallel batch verification: fan independent systems across processes.

Every large experiment in the paper - the six market groups of Table 5,
the 70 volunteer configurations of Table 6, the ten-rule IFTTT home of
Table 9, the scaling points of Table 8 - verifies *independent* systems.
:func:`verify_many` runs such a job list on a ``ProcessPoolExecutor``
with per-job options and merges the statistics into one
:class:`~repro.engine.result.BatchResult`.  This is the engine's only
parallelism: each job's search runs in one process, and the pool runs
jobs side by side.

Jobs are described declaratively (a configuration + options + property
selection) rather than as built systems, so they pickle cheaply: each
worker process parses the bundled corpus once and builds its own systems.
"""

import os
import time

from repro.engine.options import EngineOptions

#: registry specs resolvable inside a worker process
REGISTRY_CORPUS = "corpus"
REGISTRY_CORPUS_IFTTT = "corpus+ifttt"

_REGISTRY_CACHE = {}


class VerificationJob:
    """One independent verification: a deployment plus run options.

    ``properties`` may be ``None`` (full 45-property catalog), a list of
    property ids/categories (resolved through the catalog) or a list of
    property objects (must be picklable).  ``select`` applies the
    relevance-based selection of §8 after resolution.  ``registry`` is a
    spec string (``"corpus"`` / ``"corpus+ifttt"``) or an explicit
    name -> SmartApp mapping.  ``sources`` optionally overlays raw Groovy
    sources (name -> text) onto the registry - the submit-from-file path
    of the vetting service: raw text pickles cheaply and each worker
    parses it on first use.
    """

    def __init__(self, name, config, options=None, properties=None,
                 select=True, registry=REGISTRY_CORPUS, strict=True,
                 enable_failures=False, user_mode_events=False,
                 sources=None):
        self.name = name
        self.config = config
        self.options = options or EngineOptions()
        self.properties = properties
        self.select = select
        self.registry = registry
        self.strict = strict
        self.enable_failures = enable_failures
        self.user_mode_events = user_mode_events
        self.sources = dict(sources) if sources else None

    def cache_key(self):
        """The content-addressed result-store key of this job.

        A SHA-256 over the canonical serialization of the configuration
        (declaration-order independent), the referenced apps' handler
        sources, the property selection and the semantic engine options -
        see :mod:`repro.service.digest` for the exact rules.
        """
        from repro.service.digest import job_cache_key
        return job_cache_key(self)

    def config_digest(self):
        """Digest of the deployment alone (groups results across options)."""
        from repro.service.digest import job_config_digest
        return job_config_digest(self)

    def __repr__(self):
        return "VerificationJob(%r)" % (self.name,)


def _resolve_registry(spec):
    if isinstance(spec, dict):
        return spec
    cached = _REGISTRY_CACHE.get(spec)
    if cached is not None:
        return cached
    from repro.corpus import load_all_apps

    registry = load_all_apps()
    if spec == REGISTRY_CORPUS_IFTTT:
        from repro.ifttt.table9 import table9_registry
        registry.update(table9_registry())
    elif spec != REGISTRY_CORPUS:
        raise KeyError("unknown registry spec %r" % (spec,))
    _REGISTRY_CACHE[spec] = registry
    return registry


def _resolve_properties(job, system):
    from repro.properties import build_properties, select_relevant

    properties = job.properties
    if properties is None:
        properties = build_properties()
    elif all(isinstance(p, str) for p in properties):
        properties = build_properties(properties)
    if job.select:
        properties = select_relevant(system, properties)
    return properties


def overlay_sources(registry, sources):
    """A registry copy with raw Groovy sources (name -> text) parsed in.

    Shared by job execution, cache-key derivation and trace re-rendering:
    all three must rebuild the *same* registry for a job, so the parse
    order and synthesized file names live in exactly one place.
    """
    if not sources:
        return registry
    from repro.smartapp import load_app

    registry = dict(registry)
    for name in sorted(sources):
        app = load_app(sources[name], "%s.groovy" % name)
        registry[app.name] = app
    return registry


def resolve_job_registry(job):
    """The registry a job runs against: spec plus raw-source overlays."""
    return overlay_sources(_resolve_registry(job.registry), job.sources)


def execute_job(job):
    """Build and verify one job in this process (inside a pool worker
    when :func:`verify_many` runs a pool).

    The declarative job description resolves to a live bound system:
    registry spec plus raw-source overlays, a strict-or-lenient model
    build, then property resolution and relevance selection.
    """
    from repro.engine.core import ExplorationEngine
    from repro.model.generator import ModelGenerator

    system = ModelGenerator(resolve_job_registry(job)).build(
        job.config, strict=job.strict, enable_failures=job.enable_failures,
        user_mode_events=job.user_mode_events)
    properties = _resolve_properties(job, system)
    return ExplorationEngine(system, properties, job.options).run()


def _execute_named(job):
    return job.name, execute_job(job)


def default_workers(job_count):
    """Workers for a batch: one per job up to the machine's cores."""
    return max(1, min(job_count, os.cpu_count() or 1))


def verify_many(jobs, workers=None, timeout=None):
    """Verify independent jobs in parallel; returns a :class:`BatchResult`.

    ``workers=None`` sizes the pool to ``min(len(jobs), cpu_count)``;
    ``workers=1`` (or a single job) runs inline without spawning
    processes, which also serves as the fallback for unpicklable jobs.

    ``timeout`` (seconds per job, ``None`` = unbounded) is a hard
    wall-clock backstop for the *pooled* path: when the batch exceeds
    its budget (``timeout`` scaled by the number of pool waves,
    ``ceil(jobs/workers)``), unfinished jobs are recorded as errors and
    the pool is abandoned without waiting - a worker hung in a
    non-cooperative loop can therefore never wedge the caller.  The
    inline path cannot preempt a running engine; callers wanting
    cooperative per-job bounds there should set
    ``EngineOptions.time_limit`` (the scheduler sets both).
    """
    from repro.engine.result import BatchResult

    jobs = list(jobs)
    names = [job.name for job in jobs]
    if len(set(names)) != len(names):
        duplicates = sorted({name for name in names if names.count(name) > 1})
        raise ValueError("duplicate job name(s) %s: results are keyed by "
                         "name, so duplicates would silently merge"
                         % ", ".join(repr(name) for name in duplicates))
    if workers is None:
        workers = default_workers(len(jobs))
    batch = BatchResult()
    batch.workers = workers
    started = time.monotonic()
    if workers <= 1 or len(jobs) <= 1:
        batch.workers = 1
        for job in jobs:
            try:
                batch.add(job.name, execute_job(job))
            except Exception as exc:  # surface per-job failures, keep going
                batch.add_error(job.name, "%s: %s" % (type(exc).__name__, exc))
        batch.elapsed = time.monotonic() - started
        return batch

    return _verify_many_pooled(jobs, workers, batch, started, timeout)


def _warm_registries(jobs):
    """Parse each referenced corpus registry once in the parent process.

    Under the default fork start method the workers inherit the parsed
    corpus through copy-on-write memory, so no worker pays the parse
    cost; under spawn the warm-up is merely redundant.
    """
    for spec in {job.registry for job in jobs if isinstance(job.registry, str)}:
        _resolve_registry(spec)


def _verify_many_pooled(jobs, workers, batch, started, timeout=None):
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    _warm_registries(jobs)
    # not a ``with`` block: the context manager's __exit__ waits for
    # every worker, so a single hung job would wedge the caller forever
    # even after its deadline passed
    pool = ProcessPoolExecutor(max_workers=workers)
    futures = {pool.submit(_execute_named, job): job for job in jobs}
    outcomes = {}
    pending = set(futures)
    deadline = None
    if timeout is not None:
        # the budget is per *job*, scaled by pool queuing: with W
        # workers the last of N jobs may legitimately start
        # (ceil(N/W) - 1) budgets late, so the batch as a whole gets
        # one budget per wave
        waves = -(-len(jobs) // workers)
        deadline = started + timeout * waves
    timed_out = False
    while pending:
        budget = (None if deadline is None
                  else max(0.0, deadline - time.monotonic()))
        done, pending = wait(pending, timeout=budget,
                             return_when=FIRST_COMPLETED)
        if not done and pending:
            timed_out = True
            break
        for future in done:
            job = futures[future]
            try:
                name, result = future.result()
                outcomes[name] = result
            except Exception as exc:
                batch.add_error(job.name,
                                "%s: %s" % (type(exc).__name__, exc))
    if timed_out:
        for future in pending:
            job = futures[future]
            if future.cancel():
                batch.add_error(job.name,
                                "timed out: not started within the batch "
                                "budget (%gs per job)" % timeout)
            elif future.done():
                try:  # finished in the window between wait() and here
                    name, result = future.result()
                    outcomes[name] = result
                except Exception as exc:
                    batch.add_error(job.name,
                                    "%s: %s" % (type(exc).__name__, exc))
            else:
                batch.add_error(job.name, "timed out after %gs" % timeout)
        # abandon the pool: cancel what never started, and kill the
        # workers outright - concurrent.futures' atexit hook would
        # otherwise join the hung worker at interpreter exit, wedging
        # the whole process *after* this call correctly returned
        # snapshot first: shutdown() clears the executor's process table
        # even with wait=False
        processes = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in processes:
            proc.terminate()
        for proc in processes:
            proc.join(timeout=1.0)
            if proc.is_alive():  # wedged in a SIGTERM-ignoring section
                proc.kill()
    else:
        pool.shutdown()
    for job in jobs:  # preserve submission order in the merged report
        if job.name in outcomes:
            batch.add(job.name, outcomes[job.name])
    batch.elapsed = time.monotonic() - started
    return batch
