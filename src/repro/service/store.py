"""SQLite-backed content-addressed result store.

Every completed verification is recorded under its job's content digest
(:meth:`~repro.engine.batch.VerificationJob.cache_key`): verdict,
counterexample traces, attribution-ready app lists and engine statistics
all round-trip through the stable JSON schema of
:mod:`repro.engine.result`.  Re-submitting an unchanged app/configuration
pair is then a primary-key lookup instead of a state-space search.

Properties of the store:

* **schema-versioned** - entries written by an incompatible layout are a
  cache, not a source of truth, so a version mismatch resets the store
  instead of failing the service;
* **WAL mode** - the HTTP handler threads read while the scheduler
  thread writes; write-ahead logging keeps readers unblocked;
* **self-accounting** - every hit bumps ``hits``/``last_access``, which
  is what :meth:`ResultStore.gc` orders evictions by.
"""

import json
import os
import sqlite3
import threading
import time

#: bump when the table layout or the stored result schema changes
STORE_SCHEMA_VERSION = 1

_TABLES = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    cache_key      TEXT PRIMARY KEY,
    config_digest  TEXT,
    name           TEXT,
    verdict        TEXT NOT NULL,
    violations     INTEGER NOT NULL,
    states_explored INTEGER NOT NULL,
    elapsed        REAL NOT NULL,
    result_json    TEXT NOT NULL,
    config_json    TEXT,
    sources_json   TEXT,
    created        REAL NOT NULL,
    hits           INTEGER NOT NULL DEFAULT 0,
    last_access    REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_results_config
    ON results (config_digest);
CREATE INDEX IF NOT EXISTS idx_results_last_access
    ON results (last_access);
"""


class StoredResult:
    """One store row: metadata plus the lazily-deserialized result."""

    __slots__ = ("cache_key", "config_digest", "name", "verdict",
                 "violations", "states_explored", "elapsed", "raw_json",
                 "config", "sources", "created", "hits", "_result")

    def __init__(self, row):
        self.cache_key = row["cache_key"]
        self.config_digest = row["config_digest"]
        self.name = row["name"]
        self.verdict = row["verdict"]
        self.violations = row["violations"]
        self.states_explored = row["states_explored"]
        self.elapsed = row["elapsed"]
        self.raw_json = row["result_json"]
        self.config = (json.loads(row["config_json"])
                       if row["config_json"] else None)
        self.sources = (json.loads(row["sources_json"])
                        if row["sources_json"] else None)
        self.created = row["created"]
        self.hits = row["hits"]
        self._result = None

    @property
    def result(self):
        """The stored :class:`~repro.engine.result.ExplorationResult`."""
        if self._result is None:
            from repro.engine.result import ExplorationResult
            self._result = ExplorationResult.from_json(self.raw_json)
        return self._result

    def to_dict(self, include_result=True):
        """JSON-safe view; ``include_result`` adds the full result JSON,
        the submitted config and any uploaded sources."""
        data = {
            "cache_key": self.cache_key,
            "config_digest": self.config_digest,
            "name": self.name,
            "verdict": self.verdict,
            "violations": self.violations,
            "states_explored": self.states_explored,
            "elapsed": self.elapsed,
            "created": self.created,
            "hits": self.hits,
        }
        if include_result:
            data["result"] = json.loads(self.raw_json)
            data["config"] = self.config
            if self.sources:
                data["sources"] = self.sources
        return data

    def __repr__(self):
        return "StoredResult(%s..., %s)" % (self.cache_key[:12], self.verdict)


class ResultStore:
    """Content-addressed verdict store over one SQLite database.

    ``path`` may be ``":memory:"`` (tests, ephemeral services) or a file
    path; parent directories are created.  All methods are safe to call
    from multiple threads of one process (one shared connection behind a
    lock; cross-process sharing additionally relies on SQLite's own file
    locking, which WAL keeps cheap for readers).
    """

    def __init__(self, path=":memory:"):
        self.path = path
        if path != ":memory:":
            parent = os.path.dirname(os.path.abspath(path))
            os.makedirs(parent, exist_ok=True)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        if path != ":memory:":
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
        self._ensure_schema()

    def _ensure_schema(self):
        with self._lock, self._conn:
            self._conn.executescript(_TABLES)
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'").fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(STORE_SCHEMA_VERSION)))
            elif int(row["value"]) != STORE_SCHEMA_VERSION:
                # stored payloads are a cache: a layout change invalidates
                # them wholesale rather than failing the service
                self._conn.execute("DELETE FROM results")
                self._conn.execute(
                    "UPDATE meta SET value=? WHERE key='schema_version'",
                    (str(STORE_SCHEMA_VERSION),))

    # ------------------------------------------------------------------
    # lookups & writes
    # ------------------------------------------------------------------

    def get(self, cache_key, touch=True):
        """The stored result for a cache key, or ``None``."""
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM results WHERE cache_key=?",
                (cache_key,)).fetchone()
            if row is None:
                return None
            if touch:
                with self._conn:
                    self._conn.execute(
                        "UPDATE results SET hits=hits+1, last_access=? "
                        "WHERE cache_key=?", (time.time(), cache_key))
            return StoredResult(row)

    def __contains__(self, cache_key):
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM results WHERE cache_key=?",
                (cache_key,)).fetchone()
            return row is not None

    def put(self, cache_key, result, name=None, config_digest=None,
            config=None, sources=None):
        """Record one completed verification under its content key.

        ``result`` is an :class:`~repro.engine.result.ExplorationResult`;
        ``config`` (a ``SystemConfiguration`` or plain dict) and
        ``sources`` (the job's raw-Groovy registry overlays, if any) are
        stored alongside so counterexamples can be re-rendered against a
        faithfully rebuilt system later (``repro results --trace``).
        """
        config_json = None
        if config is not None:
            config_dict = (config.to_dict()
                           if hasattr(config, "to_dict") else config)
            config_json = json.dumps(config_dict, sort_keys=True)
        sources_json = json.dumps(sources, sort_keys=True) if sources else None
        now = time.time()
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO results (cache_key, config_digest, "
                "name, verdict, violations, states_explored, elapsed, "
                "result_json, config_json, sources_json, created, hits, "
                "last_access) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, 0, ?)",
                (cache_key, config_digest, name, result.verdict,
                 len(result.counterexamples), result.states_explored,
                 result.elapsed, result.to_json(), config_json, sources_json,
                 now, now))

    # ------------------------------------------------------------------
    # enumeration & accounting
    # ------------------------------------------------------------------

    def entries(self, limit=100, verdict=None, config_digest=None):
        """Recent entries (metadata only), newest first."""
        query = ("SELECT cache_key, config_digest, name, verdict, "
                 "violations, states_explored, elapsed, created, hits "
                 "FROM results")
        clauses, params = [], []
        if verdict is not None:
            clauses.append("verdict=?")
            params.append(verdict)
        if config_digest is not None:
            clauses.append("config_digest=?")
            params.append(config_digest)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY created DESC LIMIT ?"
        params.append(limit)
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        return [dict(row) for row in rows]

    def stats(self):
        """Store counters: entries, verdict split, hits, saved seconds."""
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) AS entries, "
                "COALESCE(SUM(hits), 0) AS hits, "
                "COALESCE(SUM(verdict='violated'), 0) AS violated, "
                "COALESCE(SUM(verdict='safe'), 0) AS safe, "
                "COALESCE(SUM(elapsed), 0.0) AS saved_seconds "
                "FROM results").fetchone()
        stats = dict(row)
        stats["path"] = self.path
        stats["schema_version"] = STORE_SCHEMA_VERSION
        if self.path != ":memory:" and os.path.exists(self.path):
            stats["store_bytes"] = os.path.getsize(self.path)
        return stats

    def gc(self, max_age=None, keep=None, now=None):
        """Evict entries; returns the number removed.

        ``max_age`` (seconds) drops entries older than that; ``keep``
        retains only the N most recently accessed entries.  Both may be
        combined.  The database is vacuumed after any eviction.
        """
        now = time.time() if now is None else now
        removed = 0
        with self._lock:
            with self._conn:
                if max_age is not None:
                    cursor = self._conn.execute(
                        "DELETE FROM results WHERE created < ?",
                        (now - max_age,))
                    removed += cursor.rowcount
                if keep is not None:
                    cursor = self._conn.execute(
                        "DELETE FROM results WHERE cache_key NOT IN ("
                        "SELECT cache_key FROM results "
                        "ORDER BY last_access DESC LIMIT ?)", (keep,))
                    removed += cursor.rowcount
            if removed:
                self._conn.execute("VACUUM")
        return removed

    def close(self):
        with self._lock:
            self._conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __len__(self):
        with self._lock:
            return self._conn.execute(
                "SELECT COUNT(*) FROM results").fetchone()[0]

    def __repr__(self):
        return "ResultStore(%r, entries=%d)" % (self.path, len(self))
