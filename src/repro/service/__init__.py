"""Continuous vetting service: persistent, incremental verification.

The paper's end goal is market-scale vetting - every submitted
SmartApp/IFTTT configuration checked against the safety-property
catalog, continuously, not one CLI run at a time.  This package wraps
the exploration engine in a service layer:

* :mod:`repro.service.digest` - deterministic content digests of
  verification inputs (configuration + properties + options);
* :mod:`repro.service.store` - a SQLite-backed content-addressed
  :class:`ResultStore` (schema-versioned, WAL) holding verdicts,
  counterexample traces and engine statistics;
* :mod:`repro.service.scheduler` - in-flight dedup, cache
  short-circuiting and priority/cost ordering over the engine's
  process-pool batch runner;
* :mod:`repro.service.api` - the ``repro serve`` JSON API plus the
  urllib client the ``repro submit``/``results``/``gc`` CLI verbs use.

The exports below load on first access (PEP 562): the engine imports
:mod:`repro.service.digest` for every job's cache key, and that must not
pull in the HTTP server, urllib, ssl and sqlite3 stacks the other
submodules need.
"""

import importlib

#: export name -> defining submodule
_EXPORTS = {
    "DEFAULT_PORT": "api",
    "ServiceClient": "api",
    "ServiceError": "api",
    "SubmissionError": "api",
    "VettingHTTPServer": "api",
    "VettingService": "api",
    "create_server": "api",
    "DIGEST_SCHEMA_VERSION": "digest",
    "job_cache_key": "digest",
    "job_config_digest": "digest",
    "ScheduledJob": "scheduler",
    "Scheduler": "scheduler",
    "estimate_cost": "scheduler",
    "STORE_SCHEMA_VERSION": "store",
    "ResultStore": "store",
    "StoredResult": "store",
}


__all__ = sorted(_EXPORTS)


def __getattr__(name):
    """Import an export's submodule on first access (PEP 562)."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(importlib.import_module("repro.service." + module), name)
    globals()[name] = value
    return value
