"""The VisitedStore protocol, fingerprint/COLLAPSE/bitstate/spill stores.

A visited store answers one question - "was this state already expanded
at an equal-or-smaller depth?" - through three methods:

``seen_state(state, depth)``
    The engine's entry point: record the state; return ``True`` when it
    may be pruned.  Lets each store pick its own keying (the exact store
    buckets by fingerprint first and only canonicalizes duplicates; the
    approximate stores hash the one-word fingerprint directly).  States
    must not be mutated after submission - the exact store may
    canonicalize them lazily.

``state_key(state)`` / ``seen_before(key, depth)``
    The explicit-key protocol, kept for callers that manage keys
    themselves (tests, external tools, the engine's sleep-set state
    matcher).  ``state_key`` projects a
    :class:`~repro.model.state.ModelState` onto the store's key form;
    ``seen_before`` records it.

``distinct_count()``
    O(1) count of distinct states stored so far (a depth-improved
    revisit does not grow it).  The engine samples it around each
    ``seen_state`` call to keep ``states_explored`` a *distinct-state*
    count - an order-independent metric, so every strategy reports
    the same number for the same bounded space.

The exact and BITSTATE stores live in :mod:`repro.checker.visited` (their
historical home, kept for compatibility); this module re-exports them and
adds the fingerprint set and the collapse-compressed store.
"""

import os
import struct
import sys

from repro.checker.visited import BitStateTable, ExactVisitedSet
from repro.model.schema import ABSENT as _ABSENT

__all__ = ["BitStateTable", "BitStateVisitedSet", "CollapseVisitedSet",
           "ExactVisitedSet", "FingerprintVisitedSet", "SpillVisitedStore"]

_MASK64 = (1 << 64) - 1
#: the 64-bit golden-ratio increment (splitmix64's gamma)
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(value):
    """splitmix64's finalizer: a full-avalanche 64-bit permutation."""
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


class FingerprintVisitedSet(ExactVisitedSet):
    """Depth-aware exact-set over 64-bit fingerprints.

    Same depth-aware pruning as :class:`ExactVisitedSet`, but keyed by
    one machine word per state instead of the full canonical key; like
    BITSTATE it admits false positives (two distinct states sharing a
    fingerprint, probability ~2^-64 per pair) but never false negatives.
    """

    @staticmethod
    def state_key(state):
        """The one-word 64-bit fingerprint (this store's key form)."""
        return state.fingerprint()

    def seen_state(self, state, depth):
        """Record by fingerprint; True when prunable at this depth."""
        return self.seen_before(state.fingerprint(), depth)

    def stats(self):
        """``stored``/``approx_bytes``/``bytes_per_state`` counters."""
        stored = len(self._min_depth)
        # dict table + one boxed 64-bit int key per state (depth values
        # are small ints, interned by CPython)
        approx = sys.getsizeof(self._min_depth) + stored * 32
        return {"stored": stored, "approx_bytes": approx,
                "bytes_per_state": round(approx / stored, 1) if stored else 0.0}


class BitStateVisitedSet:
    """Holzmann-style supertrace store over 64-bit state fingerprints.

    Each admitted state sets ``hash_count`` bits (independent splitmix64
    mixes of the fingerprint, optionally salted) in a ``2**bits_log2``-bit
    field; a state is pruned when *all* its bits were already set.  Like
    every bitstate scheme it trades exactness for a fixed memory
    footprint: distinct states may collide on a full bit pattern and be
    wrongly pruned (missed coverage - why swarm verdicts are *partial*),
    but a state the store has admitted is never forgotten, so there are
    no false negatives on revisits.  Unlike the exact stores it keeps no
    per-state depth - a revisit at smaller depth is pruned too, another
    (deliberate, Spin-compatible) source of partial coverage.

    ``salt`` remaps every bit position, giving swarm members independent
    collision patterns over one shared fingerprint function; the fill
    ratio is tracked incrementally (O(1) per insert) so saturation can be
    reported live by telemetry rather than recomputed by popcount.
    """

    def __init__(self, bits_log2=23, hash_count=3, salt=0):
        if bits_log2 < 3:
            raise ValueError("bits_log2 must be >= 3, got %r" % (bits_log2,))
        if hash_count < 1:
            raise ValueError("hash_count must be >= 1, got %r"
                             % (hash_count,))
        self.bits = 1 << bits_log2
        self.hash_count = hash_count
        self.salt = salt & _MASK64
        self._mask = self.bits - 1
        self._field = bytearray(self.bits >> 3)
        self.stored = 0
        self.collisions = 0
        self._set_bits = 0

    @staticmethod
    def state_key(state):
        """The one-word 64-bit fingerprint (this store's key form)."""
        return state.fingerprint()

    def seen_state(self, state, depth):
        """Record by fingerprint; True when all its bits were set."""
        return self.seen_before(state.fingerprint(), depth)

    def bit_positions(self, key):
        """The ``hash_count`` field positions of one key (test hook)."""
        value = _mix64((int(key) ^ self.salt) & _MASK64)
        positions = []
        for _ in range(self.hash_count):
            positions.append(value & self._mask)
            value = _mix64((value + _GAMMA) & _MASK64)
        return positions

    def seen_before(self, key, depth):
        """Record an explicit key; True prunes (depth is ignored - the
        bit field stores no per-state depth, see the class doc)."""
        field = self._field
        missing = []
        for position in self.bit_positions(key):
            byte, bit = position >> 3, 1 << (position & 7)
            # two hashes can land on one bit (likely in a small or
            # saturated field); dedup so the fill count stays honest
            if not field[byte] & bit and (byte, bit) not in missing:
                missing.append((byte, bit))
        if not missing:
            self.collisions += 1
            return True
        for byte, bit in missing:
            field[byte] |= bit
        self._set_bits += len(missing)
        self.stored += 1
        return False

    @property
    def fill_ratio(self):
        """Fraction of field bits set - the saturation signal (O(1))."""
        return self._set_bits / self.bits

    def distinct_count(self):
        """Admitted states so far (collisions excluded) - O(1)."""
        return self.stored

    def stats(self):
        """Counters incl. ``fill_ratio`` for saturation reporting."""
        return {
            "stored": self.stored,
            "collisions": self.collisions,
            "fill_ratio": round(self.fill_ratio, 6),
            "hash_count": self.hash_count,
            "salt": self.salt,
            "approx_bytes": len(self._field),
            "bytes_per_state": (round(len(self._field) / self.stored, 1)
                                if self.stored else 0.0),
        }

    def __len__(self):
        return self.stored


class SpillVisitedStore:
    """Disk-backed depth-aware visited store (SQLite behind the protocol).

    Keys are the 64-bit state fingerprints; each is one row in a
    single-table SQLite database, so the working set spills to disk and
    an exhaustive run's peak RSS stays bounded by the write buffer plus
    the read cache plus SQLite's page cache instead of growing with the
    state space.  Semantics match :class:`FingerprintVisitedSet` exactly
    (depth-aware: a smaller-depth revisit is re-expanded and the stored
    minimum depth is lowered) - only the residence changes.

    Writes are buffered and flushed in batches through an
    ``ON CONFLICT .. WHERE excluded.depth < depth`` min-depth upsert;
    reads consult the buffer first, then a bounded LRU of recently
    checked keys, then the database.  The file is durable across
    ``close``/reopen - ``distinct_count`` and the stored depths survive a
    spill/reload round-trip - but crash durability is deliberately traded
    away (``journal_mode=OFF``, ``synchronous=OFF``): a visited set is a
    cache of a deterministic search, so the recovery story is "rerun".

    When constructed without a ``path`` the store owns a temporary
    directory and removes it on ``close`` (or at garbage collection).
    """

    #: pending writes buffered before one batched upsert
    FLUSH_BATCH = 8192

    def __init__(self, path=None, cache_limit=65536, page_cache_kib=4096):
        import sqlite3
        self._own_dir = None
        if path is None:
            import tempfile
            self._own_dir = tempfile.mkdtemp(prefix="repro-spill-")
            path = os.path.join(self._own_dir, "visited.sqlite")
        self.path = path
        self.cache_limit = int(cache_limit)
        self._conn = sqlite3.connect(path)
        self._conn.execute("PRAGMA journal_mode=OFF")
        self._conn.execute("PRAGMA synchronous=OFF")
        self._conn.execute("PRAGMA cache_size=%d" % -abs(int(page_cache_kib)))
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS visited ("
            "key INTEGER PRIMARY KEY, depth INTEGER NOT NULL)")
        row = self._conn.execute("SELECT COUNT(*) FROM visited").fetchone()
        self._distinct = int(row[0])
        #: unflushed key -> depth (authoritative over the database)
        self._pending = {}
        #: bounded read cache of recently checked keys (insertion-ordered
        #: dict used as an LRU: hits are reinserted at the end)
        self._cache = {}

    @staticmethod
    def _signed(key):
        """Map a u64 fingerprint onto SQLite's signed INTEGER domain."""
        key = int(key)
        return key - 0x10000000000000000 if key > 0x7FFFFFFFFFFFFFFF else key

    @staticmethod
    def state_key(state):
        """The one-word 64-bit fingerprint (this store's key form)."""
        return state.fingerprint()

    def seen_state(self, state, depth):
        """Record by fingerprint; True when prunable at this depth."""
        return self.seen_before(state.fingerprint(), depth)

    def seen_before(self, key, depth):
        """Depth-aware recording of an explicit key: True prunes, False
        means the state must be (re)expanded at this smaller depth."""
        key = self._signed(key)
        best = self._pending.get(key)
        if best is None:
            cache = self._cache
            best = cache.pop(key, None)
            if best is not None:
                cache[key] = best  # LRU touch
            else:
                row = self._conn.execute(
                    "SELECT depth FROM visited WHERE key = ?",
                    (key,)).fetchone()
                if row is not None:
                    best = int(row[0])
        if best is not None and best <= depth:
            return True
        if best is None:
            self._distinct += 1
        self._pending[key] = depth
        self._cache_put(key, depth)
        if len(self._pending) >= self.FLUSH_BATCH:
            self.flush()
        return False

    def _cache_put(self, key, depth):
        cache = self._cache
        cache.pop(key, None)
        cache[key] = depth
        if len(cache) > self.cache_limit:
            cache.pop(next(iter(cache)))

    def flush(self):
        """Drain the write buffer into one batched min-depth upsert."""
        if not self._pending:
            return
        self._conn.executemany(
            "INSERT INTO visited (key, depth) VALUES (?, ?) "
            "ON CONFLICT (key) DO UPDATE SET depth = excluded.depth "
            "WHERE excluded.depth < depth",
            list(self._pending.items()))
        self._conn.commit()
        self._pending.clear()

    def distinct_count(self):
        """Distinct states stored so far - O(1) (in-memory counter)."""
        return self._distinct

    def stats(self):
        """Counters: resident vs on-disk bytes, honest bytes/state."""
        self.flush()
        try:
            disk_bytes = os.path.getsize(self.path)
        except OSError:
            disk_bytes = 0
        resident = (sys.getsizeof(self._cache) + len(self._cache) * 32
                    + sys.getsizeof(self._pending))
        stored = self._distinct
        return {
            "stored": stored,
            "disk_bytes": disk_bytes,
            "resident_bytes": resident,
            "approx_bytes": disk_bytes + resident,
            "bytes_per_state": (round((disk_bytes + resident) / stored, 1)
                                if stored else 0.0),
            "path": self.path,
        }

    def close(self):
        """Flush, close the database, drop an owned temp directory."""
        if self._conn is not None:
            self.flush()
            self._conn.close()
            self._conn = None
        if self._own_dir is not None:
            import shutil
            shutil.rmtree(self._own_dir, ignore_errors=True)
            self._own_dir = None

    def __del__(self):  # noqa: D105 - best-effort temp-dir cleanup
        try:
            self.close()
        except Exception:
            pass

    def __len__(self):
        return self._distinct


class CollapseVisitedSet:
    """Spin-COLLAPSE-style visited store: exact dedup in a few words/state.

    Each *component block* of a state - one device's attribute vector,
    one app's persistent state map, the schedule queue, the pending and
    cascade-command tuples, the mode - is interned to a small integer id
    in a shared arena; a visited entry is the fixed-width byte string of
    those ids (4 bytes per component).  Because interning is exact (full
    block values are the arena keys), the store has the *exact* store's
    verdict contract - no hash collisions, no false positives - while a
    visited entry costs a few machine words like the fingerprint store:
    the bounded search revisits the same blocks constantly, so the arena
    stays tiny while the entry table carries millions of states.

    Keying walks the system's precompiled
    :class:`~repro.model.schema.StateSchema` (fixed slot order, no
    sorting); off-schema components fall back to the schema's sorted
    overflow form, preserving exactness for hand-built states.

    Copy-on-write branching makes sibling states share the *same* inner
    container objects for every component a cascade did not touch, so the
    store keeps a bounded identity-keyed memo (object -> block id) in
    front of the value arena: the common unchanged component costs one
    dict probe instead of a rebuild.  Memo entries pin their container
    (an object id can never be reused while the entry lives, and the memo
    is dropped wholesale when full, releasing every pin together), and
    the usual store contract - states are not mutated after submission -
    keeps the memoized contents stable.
    """

    #: bounded identity-memo entries (each pins one small container);
    #: the memo is cleared outright when full - hot shared containers are
    #: re-memoized within one expansion, so eviction policy is moot
    MEMO_LIMIT = 1 << 16

    def __init__(self, schema):
        self.schema = schema
        #: block value -> small integer id (one arena for all components)
        self._blocks = {}
        #: id(container) -> (container, block id): the COW fast path
        self._ident = {}
        #: packed id vector (bytes) -> minimum depth seen
        self._min_depth = {}
        self._pack = struct.Struct("<%dI" % schema.component_count).pack

    def state_key(self, state):
        """The packed component-id vector of one state (bytes)."""
        schema = self.schema
        memo = self._ident
        ids = []
        append = ids.append
        devices = state._devices
        off_schema = len(devices)
        for entry in schema.device_layout:
            amap = devices.get(entry[0])
            if amap is None:
                append(self._intern(_ABSENT))
                continue
            off_schema -= 1
            memoized = memo.get(id(amap))
            if memoized is not None:
                append(memoized[1])
                continue
            block_id = self._intern(schema.device_block(entry, amap))
            self._memoize(amap, block_id)
            append(block_id)
        append(self._intern(
            schema.unknown_devices(devices) if off_schema else ()))
        append(self._intern(state._mode))
        apps = state._app_states
        off_schema = len(apps)
        for name in schema.app_names:
            mapping = apps.get(name)
            if mapping is None:
                append(self._intern(_ABSENT))
                continue
            off_schema -= 1
            memoized = memo.get(id(mapping))
            if memoized is not None:
                append(memoized[1])
                continue
            block_id = self._intern(schema.app_block(mapping))
            self._memoize(mapping, block_id)
            append(block_id)
        if off_schema:
            append(self._intern(tuple(sorted(
                (name, schema.app_block(mapping))
                for name, mapping in apps.items()
                if name not in schema._app_index))))
        else:
            append(self._intern(()))
        schedules = state._schedules
        memoized = memo.get(id(schedules))
        if memoized is not None:
            append(memoized[1])
        else:
            block_id = self._intern(tuple(sorted(schedules)))
            self._memoize(schedules, block_id)
            append(block_id)
        append(self._intern(state._pending))
        append(self._intern(state._cascade_commands))
        return self._pack(*ids)

    def _intern(self, block):
        blocks = self._blocks
        block_id = blocks.get(block)
        if block_id is None:
            block_id = len(blocks)
            blocks[block] = block_id
        return block_id

    def _memoize(self, container, block_id):
        memo = self._ident
        if len(memo) >= self.MEMO_LIMIT:
            memo.clear()
        memo[id(container)] = (container, block_id)

    def seen_state(self, state, depth):
        """Record by packed component-id vector; True when prunable."""
        return self.seen_before(self.state_key(state), depth)

    def seen_before(self, key, depth):
        """Depth-aware recording of an explicit key: True prunes, False
        means the state must be (re)expanded at this smaller depth."""
        best = self._min_depth.get(key)
        if best is not None and best <= depth:
            return True
        self._min_depth[key] = depth
        return False

    def distinct_count(self):
        """Distinct states stored so far - O(1) (see the protocol doc)."""
        return len(self._min_depth)

    def stats(self):
        """Store counters incl. arena size and honest bytes/state."""
        stored = len(self._min_depth)
        entry_bytes = 0
        if stored:
            # fixed-width keys: measure one, multiply (depth values are
            # small interned ints)
            entry_bytes = sys.getsizeof(next(iter(self._min_depth)))
        arena_bytes = sys.getsizeof(self._blocks) + sum(
            sys.getsizeof(block) for block in self._blocks)
        approx = (sys.getsizeof(self._min_depth) + stored * entry_bytes
                  + arena_bytes)
        return {
            "stored": stored,
            "blocks": len(self._blocks),
            "arena_bytes": arena_bytes,
            "approx_bytes": approx,
            "bytes_per_state": round(approx / stored, 1) if stored else 0.0,
        }

    def __len__(self):
        return len(self._min_depth)
