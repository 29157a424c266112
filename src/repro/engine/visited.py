"""Visited-state stores: the exact oracle, fingerprints and BITSTATE.

The paper runs Spin "in verification mode with BITSTATE hashing - an
approximate technique that stores the hash code of states in a bitfield
instead of storing the whole states" (§2.3, citing Holzmann's analysis).
Three stores implement the VisitedStore protocol:

``exact``  (:class:`ExactVisitedSet`)
    Full canonical keys, no hash shortcuts: the differential oracle.
``fingerprint``  (:class:`FingerprintVisitedSet`)
    The default: one 64-bit word per state, depth-aware - the
    hash-compact trade-off Spin makes at scale.
``bitstate``  (:class:`BitStateVisitedSet`)
    Holzmann's supertrace: a k-hash bit field of fixed size whose
    probes are tagged with the depth; its runs are reported with
    ``coverage="partial"``.

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
    themselves (tests, external tools).  ``state_key`` projects a
    :class:`~repro.model.state.ModelState` onto the store's key form;
    ``seen_before`` records it.  Depth-aware revisiting keeps the
    bounded search sound: a state first reached near the depth bound
    gets re-expanded if found again closer to the root.

``distinct_count()``
    O(1) count of distinct states stored so far (a depth-improved
    revisit does not grow it).  The engine samples it around each
    ``seen_state`` call to keep ``states_explored`` a *distinct-state*
    count - an order-independent metric, so every store reports the
    same number for the same bounded space.
"""

import itertools
import sys

__all__ = ["BitStateVisitedSet", "ExactVisitedSet", "FingerprintVisitedSet"]

#: most stored entries :meth:`ExactVisitedSet.approx_bytes` walks
APPROX_SAMPLE = 256

_MASK64 = (1 << 64) - 1


def _mix64(value):
    """splitmix64's finalizer: a full-avalanche 64-bit permutation."""
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


class ExactVisitedSet:
    """Stores full state keys (exhaustive within the bound).

    Two entry points share one depth table semantics:

    * the explicit key protocol (``state_key`` + ``seen_before``) records
      a key the caller computed - exact, but canonicalizing every state
      is the single largest per-state cost of the search;
    * :meth:`seen_state` is the engine's fast path: states are bucketed by
      their incremental 64-bit fingerprint first, and the canonical key is
      only computed when a fingerprint was already present (i.e. for
      duplicates and the rare true collision).  A state with a fresh
      fingerprint is stored *by reference* and canonicalized lazily on the
      first later hit - callers must not mutate states after submitting
      them (the engine never does: states are frozen once their cascade
      finishes).  Exactness is preserved: equal states always collide on
      the fingerprint and are then confirmed canonically.

    ``schema`` (a :class:`~repro.model.schema.StateSchema`, optional)
    switches the canonical form from ``canonical_key()``'s sorting walk to
    the schema's precompiled packed layout - same exactness, fixed slot
    order instead of per-state sorting.  The engine passes the system's
    schema; without one, ``state_key`` is ``canonical_key()``.
    """

    def __init__(self, schema=None):
        self._min_depth = {}
        #: fingerprint -> list of [canonical_key_or_state, resolved, depth]
        self._by_fingerprint = {}
        self._schema = schema
        self._distinct = 0

    def state_key(self, state):
        """The canonical key: the schema's packed tuple, else
        ``canonical_key()``."""
        if self._schema is not None:
            return self._schema.pack(state)
        return state.canonical_key()

    def seen_before(self, key, depth):
        """Depth-aware recording of an explicit key: True prunes, False
        means the state must be (re)expanded at this smaller depth."""
        best = self._min_depth.get(key)
        if best is not None and best <= depth:
            return True
        if best is None:
            self._distinct += 1
        self._min_depth[key] = depth
        return False

    def seen_state(self, state, depth):
        """Fingerprint first, canonical key on a fingerprint hit; True
        when prunable at this depth."""
        fingerprint = state.fingerprint()
        chain = self._by_fingerprint.get(fingerprint)
        if chain is None:
            self._by_fingerprint[fingerprint] = [[state, False, depth]]
            self._distinct += 1
            return False
        key = self.state_key(state)
        for entry in chain:
            if not entry[1]:
                entry[0] = self.state_key(entry[0])
                entry[1] = True
            if entry[0] == key:
                if entry[2] <= depth:
                    return True
                entry[2] = depth
                return False
        chain.append([key, True, depth])
        self._distinct += 1
        return False

    def distinct_count(self):
        """Distinct states stored so far - O(1), the engine's per-state
        counter (a depth-improved revisit does not grow it)."""
        return self._distinct

    def _entries(self):
        """The stored entries as ``(key_or_state, resolved)`` pairs in
        insertion order, key-protocol keys first."""
        for key in self._min_depth:
            yield key, True
        for chain in self._by_fingerprint.values():
            for entry in chain:
                yield entry[0], entry[1]

    def approx_bytes(self):
        """Estimated size of the stored keys (and pinned states).

        Walks at most :data:`APPROX_SAMPLE` stored entries, evenly
        spaced in insertion order, and scales their recursive size by
        the stored count (exact up to that many entries).  Shared
        sub-objects are counted once within the sample; an unresolved
        entry pins a whole state and counts as its canonical key, the
        comparable storage cost.
        """
        tables = sys.getsizeof(self._min_depth) + sys.getsizeof(
            self._by_fingerprint)
        stored = len(self)
        if not stored:
            return tables
        seen = set()

        def size(obj):
            if id(obj) in seen:
                return 0
            seen.add(id(obj))
            total = sys.getsizeof(obj)
            if isinstance(obj, (tuple, list)):
                total += sum(size(item) for item in obj)
            elif isinstance(obj, dict):
                total += sum(size(k) + size(v) for k, v in obj.items())
            return total

        step = -(-stored // APPROX_SAMPLE)
        walked = sampled = 0
        for obj, resolved in itertools.islice(self._entries(), 0, None,
                                              step):
            walked += size(obj if resolved else obj.canonical_key())
            sampled += 1
        return tables + walked * stored // sampled

    def stats(self):
        """``stored``/``approx_bytes``/``bytes_per_state`` counters."""
        stored = len(self)
        approx = self.approx_bytes()
        return {"stored": stored, "approx_bytes": approx,
                "bytes_per_state": round(approx / stored, 1) if stored else 0.0}

    def __len__(self):
        return (len(self._min_depth)
                + sum(len(chain) for chain in self._by_fingerprint.values()))


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

    A state submitted at depth ``d`` sets the *tag* ``(fingerprint, d)``:
    ``hash_count`` bits of a ``2**bits_log2``-bit field.  It is pruned
    when the tag of some depth ``d' <= d`` is fully set - the
    fingerprint store's rule, so a state reached again closer to the
    root is re-expanded and a depth-bounded DFS loses states to hash
    collisions only (Spin's ``-DREACH`` problem).  All tags of a key
    come from one splitmix64 ``h`` by double hashing (Kirsch and
    Mitzenmacher): probe ``j`` is ``h + j * step``, ``step`` the odd
    rotation of ``h``, and tag ``d`` owns probes ``d*k .. d*k + k-1``.
    Distinct tags may collide on a full bit pattern and be wrongly
    pruned (why its runs are *partial*), but a set tag is never
    forgotten.  ``hash_count`` is 5 because a submission probes a tag
    per depth: with 3, group1 at depth 4 in a 2^23-bit field lost
    states at 2 of 13 hash seeds; with 5, at none of 22.

    ``stored`` counts states with no tag set before (scanning up to
    the deepest tag set so far), so it stays a distinct-state count.
    ``pruned`` counts every pruned submission; a bit field cannot tell
    a revisit from a collision, so the fill ratio is the saturation
    signal, kept incrementally (O(1) per insert) for live telemetry.
    """

    #: supported ``bits_log2`` range: a one-byte field up to 2 GiB
    MIN_BITS_LOG2 = 3
    MAX_BITS_LOG2 = 34

    def __init__(self, bits_log2=23, hash_count=5):
        if not self.MIN_BITS_LOG2 <= bits_log2 <= self.MAX_BITS_LOG2:
            raise ValueError("bits_log2 must be in %d..%d, got %r"
                             % (self.MIN_BITS_LOG2, self.MAX_BITS_LOG2,
                                bits_log2))
        if hash_count < 1:
            raise ValueError("hash_count must be >= 1, got %r"
                             % (hash_count,))
        self.bits = 1 << bits_log2
        self.hash_count = hash_count
        self._mask = self.bits - 1
        self._field = bytearray(self.bits >> 3)
        self.stored = 0
        self.pruned = 0
        self._set_bits = 0
        #: the deepest tag set so far (-1: none)
        self._deepest = -1

    @staticmethod
    def state_key(state):
        """The one-word 64-bit fingerprint (this store's key form)."""
        return state.fingerprint()

    def seen_state(self, state, depth):
        """Record by fingerprint; True when prunable at this depth."""
        return self.seen_before(state.fingerprint(), depth)

    @staticmethod
    def _probe(key):
        """``(h, step)`` of one key's double-hashed probe sequence."""
        value = _mix64(int(key) & _MASK64)
        return value, ((value >> 32) | (value << 32)) & _MASK64 | 1

    def bit_positions(self, key, depth=0):
        """The ``hash_count`` field positions of one key's tag at
        ``depth`` (test hook)."""
        value, step = self._probe(key)
        first = depth * self.hash_count
        return [(value + (first + index) * step) & self._mask
                for index in range(self.hash_count)]

    def seen_before(self, key, depth):
        """Record an explicit key at ``depth``; True prunes (a tag at
        an equal or smaller depth is set), False means the state must
        be (re)expanded at this depth."""
        value, step = self._probe(key)
        field, mask, count = self._field, self._mask, self.hash_count
        stride = step * count
        deepest = self._deepest
        # tags 0..depth decide pruning; a set tag beyond them (up to the
        # deepest one set so far) marks a depth-improved revisit, which
        # is re-expanded but is no new distinct state
        fresh = True
        start = value
        for tag in range(max(depth, deepest) + 1):
            position = start
            start += stride
            for _ in range(count):
                bit = position & mask
                if not field[bit >> 3] >> (bit & 7) & 1:
                    break
                position += step
            else:
                if tag <= depth:
                    self.pruned += 1
                    return True
                fresh = False
                break
        position = value + depth * stride
        for _ in range(count):
            bit = position & mask
            byte, flag = bit >> 3, 1 << (bit & 7)
            # two probes can land on one bit (likely in a small or
            # saturated field); count each bit once so the fill stays
            # honest
            if not field[byte] & flag:
                field[byte] |= flag
                self._set_bits += 1
            position += step
        if depth > deepest:
            self._deepest = depth
        if fresh:
            self.stored += 1
        return False

    @property
    def fill_ratio(self):
        """Fraction of field bits set - the saturation signal (O(1))."""
        return self._set_bits / self.bits

    def distinct_count(self):
        """Distinct states stored so far (pruned submissions and
        depth-improved revisits excluded) - O(1)."""
        return self.stored

    def stats(self):
        """Counters incl. ``fill_ratio`` for saturation reporting."""
        return {
            "stored": self.stored,
            "pruned": self.pruned,
            "fill_ratio": round(self.fill_ratio, 6),
            "hash_count": self.hash_count,
            "approx_bytes": len(self._field),
            "bytes_per_state": (round(len(self._field) / self.stored, 1)
                                if self.stored else 0.0),
        }

    def __len__(self):
        return self.stored
