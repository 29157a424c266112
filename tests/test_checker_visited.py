"""Unit + property-based tests for the visited-state stores."""

import hashlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import sys

import pytest

from repro.corpus import load_all_apps
from repro.corpus.groups import GROUP_BUILDERS
from repro.engine import EngineOptions, ExplorationEngine
from repro.engine.visited import (
    APPROX_SAMPLE,
    BitStateVisitedSet,
    ExactVisitedSet,
    FingerprintVisitedSet,
)
from repro.model import state as state_module
from repro.model.generator import ModelGenerator
from repro.model.handles import DateValue
from repro.model.state import ModelState, word
from repro.properties import build_properties, select_relevant

from tests.conftest import _load_or_skip


class TestExactVisitedSet:
    def test_first_visit_not_seen(self):
        store = ExactVisitedSet()
        assert store.seen_before(("k",), 0) is False

    def test_revisit_same_depth_seen(self):
        store = ExactVisitedSet()
        store.seen_before(("k",), 1)
        assert store.seen_before(("k",), 1) is True

    def test_revisit_deeper_seen(self):
        store = ExactVisitedSet()
        store.seen_before(("k",), 1)
        assert store.seen_before(("k",), 3) is True

    def test_revisit_shallower_reexpanded(self):
        """A state first reached near the depth bound must be re-expanded
        when reached again closer to the root (bounded-search soundness)."""
        store = ExactVisitedSet()
        store.seen_before(("k",), 3)
        assert store.seen_before(("k",), 1) is False
        # and now the shallower depth is the recorded one
        assert store.seen_before(("k",), 2) is True

    def test_len_counts_distinct_keys(self):
        store = ExactVisitedSet()
        store.seen_before(("a",), 0)
        store.seen_before(("b",), 0)
        store.seen_before(("a",), 5)
        assert len(store) == 2


def _full_walk(store):
    """Every stored key's recursive size (shared sub-objects once), an
    unresolved entry's as its canonical key: what
    :meth:`ExactVisitedSet.approx_bytes` estimates."""
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

    total = (sys.getsizeof(store._min_depth)
             + sys.getsizeof(store._by_fingerprint))
    total += sum(size(key) for key in store._min_depth)
    for chain in store._by_fingerprint.values():
        for key, resolved, _depth in chain:
            total += size(key if resolved else key.canonical_key())
    return total


class TestExactApproxBytes:
    """The exact store's ``approx_bytes`` walks a bounded sample."""

    def test_small_store_is_walked_whole(self):
        """Up to APPROX_SAMPLE entries - keys and pinned states alike -
        the estimate is the full walk."""
        store = ExactVisitedSet()
        for index in range(APPROX_SAMPLE // 2):
            store.seen_before(("k", index, (index, "x")), 0)
            state = ModelState()
            state.set_attribute("d", "level", index)
            store.seen_state(state, 0)
        assert len(store) == APPROX_SAMPLE
        assert store.approx_bytes() == _full_walk(store) > 0

    def test_sample_tracks_the_full_walk_on_group1(self):
        """group1 at depth 3 stores thousands of states: the sampled
        estimate lands within 15% of the full walk."""
        registry = _load_or_skip(load_all_apps)
        system = ModelGenerator(registry).build(
            GROUP_BUILDERS["group1-entry-and-mode"]())
        properties = select_relevant(system, build_properties())
        stores = []

        class Capture(ExplorationEngine):
            def _setup_search(self):
                store = super()._setup_search()
                stores.append(store)
                return store

        Capture(system, properties,
                EngineOptions(max_events=3, visited="exact")).run()
        (store,) = stores
        assert len(store) > 10 * APPROX_SAMPLE
        full = _full_walk(store)
        assert abs(store.approx_bytes() - full) <= 0.15 * full


class TestBitStateTable:
    """The supertrace bit table, now the fingerprint-keyed
    ``BitStateVisitedSet`` (keys are 64-bit words)."""

    def test_first_visit_not_seen(self):
        table = BitStateVisitedSet(bits_log2=16)
        assert table.seen_before(0xBEEF, 0) is False

    def test_revisit_seen(self):
        table = BitStateVisitedSet(bits_log2=16)
        table.seen_before(0xBEEF, 0)
        assert table.seen_before(0xBEEF, 0) is True

    def test_no_false_negatives(self):
        """Every key offered is reported seen afterwards (Spin's
        guarantee: admitted or collided, never forgotten)."""
        table = BitStateVisitedSet(bits_log2=16)
        keys = [index * 0x9E3779B97F4A7C15 & ((1 << 64) - 1)
                for index in range(500)]
        for key in keys:
            table.seen_before(key, 0)
        assert all(table.seen_before(key, 0) for key in keys)

    def test_fill_ratio_grows(self):
        table = BitStateVisitedSet(bits_log2=12)
        assert table.fill_ratio == 0.0
        for key in range(100):
            table.seen_before(key, 0)
        assert table.fill_ratio > 0.0

    def test_pruned_counter(self):
        table = BitStateVisitedSet(bits_log2=8, hash_count=1)
        for key in range(1000):
            table.seen_before(key, 0)
        # 256 bits, 1000 distinct keys: collisions are certain
        assert table.pruned > 0
        assert table.stored + table.pruned == 1000

    def test_bits_log2_bounds(self):
        with pytest.raises(ValueError):
            BitStateVisitedSet(bits_log2=BitStateVisitedSet.MIN_BITS_LOG2 - 1)
        with pytest.raises(ValueError):
            BitStateVisitedSet(bits_log2=40)

    def test_more_hashes_fewer_collisions(self):
        """Holzmann: multi-hashing improves coverage at equal memory."""
        single = BitStateVisitedSet(bits_log2=12, hash_count=1)
        triple = BitStateVisitedSet(bits_log2=12, hash_count=3)
        for key in range(300):
            single.seen_before(key, 0)
            triple.seen_before(key, 0)
        # distinct keys, so every pruned key is a collision
        assert triple.pruned < single.pruned

    def test_fill_ratio_capped_at_one_when_saturated(self):
        """Saturation regression: a hammered field reports exactly 1.0,
        never more (the telemetry warning keys off this number)."""
        table = BitStateVisitedSet(bits_log2=8, hash_count=4)
        for key in range(2000):
            table.seen_before(key * 0x9E3779B97F4A7C15 & ((1 << 64) - 1), 0)
        assert table.fill_ratio == 1.0


class TestFingerprintVisitedSet:
    """Regression coverage for the one-word depth-aware store."""

    def test_first_visit_not_seen(self):
        store = FingerprintVisitedSet()
        assert store.seen_before(0xDEAD, 0) is False

    def test_revisit_shallower_reexpanded(self):
        store = FingerprintVisitedSet()
        store.seen_before(0xDEAD, 3)
        assert store.seen_before(0xDEAD, 1) is False
        assert store.seen_before(0xDEAD, 2) is True

    def test_state_key_is_fingerprint(self):
        state = ModelState()
        state.set_attribute("d", "switch", "on")
        assert FingerprintVisitedSet.state_key(state) == state.fingerprint()


class TestStateKeyProtocol:
    """Each store projects states onto its own key form."""

    def test_exact_store_uses_canonical_key(self):
        state = ModelState()
        state.set_attribute("d", "lock", "locked")
        assert ExactVisitedSet().state_key(state) == state.canonical_key()

    def test_bitstate_uses_fingerprint(self):
        state = ModelState()
        state.set_attribute("d", "lock", "locked")
        assert BitStateVisitedSet.state_key(state) == state.fingerprint()

    def test_stats_shapes(self):
        exact, table = ExactVisitedSet(), BitStateVisitedSet(bits_log2=12)
        exact.seen_before(("k",), 0)
        table.seen_before(0xDEAD, 0)
        exact_stats = exact.stats()
        assert exact_stats["stored"] == 1
        assert exact_stats["approx_bytes"] > 0
        assert exact_stats["bytes_per_state"] > 0
        stats = table.stats()
        assert stats["stored"] == 1 and stats["pruned"] == 0
        assert 0.0 < stats["fill_ratio"] < 1.0
        assert stats["approx_bytes"] == (1 << 12) // 8


class TestFillRatioCache:
    """The fill ratio is kept incrementally, one update per insert."""

    def test_cache_invalidated_by_stores(self):
        table = BitStateVisitedSet(bits_log2=12, hash_count=1)
        assert table.fill_ratio == 0.0
        table.seen_before(0xA, 0)
        first = table.fill_ratio
        assert first > 0.0
        assert table.fill_ratio == first  # a read changes nothing
        table.seen_before(0xB, 0)
        assert table.fill_ratio >= first

    def test_matches_per_byte_popcount(self):
        """The incrementally kept fill ratio is the field's popcount."""
        table = BitStateVisitedSet(bits_log2=8, hash_count=3)
        for key in range(200):
            table.seen_before(key, 0)
            slow = sum(bin(b).count("1") for b in table._field) / table.bits
            assert table.fill_ratio == slow


def _random_state(rng):
    """A ModelState built through the public mutators."""
    state = ModelState()
    for _ in range(rng.randrange(8)):
        state.set_attribute("dev%d" % rng.randrange(3),
                            rng.choice(["switch", "lock", "temp"]),
                            rng.choice(["on", "off", "locked", 55, 95]))
    if rng.random() < 0.5:
        state.mode = rng.choice(["Home", "Away", "Night"])
    for _ in range(rng.randrange(3)):
        name = "app%d" % rng.randrange(2)
        mapping = dict(state.app_state(name) or {})
        mapping["k%d" % rng.randrange(3)] = rng.choice(
            [1, "x", [1, 2], {"nested": True}])
        state.set_app_state(name, mapping)
    for _ in range(rng.randrange(2)):
        state.add_schedule("app%d" % rng.randrange(2), "h", periodic=bool(rng.randrange(2)))
    return state


class TestFingerprintConsistency:
    """The collision-audit contract: equal canonical keys must imply
    equal fingerprints (the engine's stores rely on the implication)."""

    def test_equal_keys_equal_fingerprints_randomized(self):
        rng = random.Random(20260727)
        states = [_random_state(rng) for _ in range(120)]
        by_key = {}
        for state in states:
            by_key.setdefault(state.canonical_key(), []).append(state)
        for group in by_key.values():
            fingerprints = {state.fingerprint() for state in group}
            assert len(fingerprints) == 1

    def test_incremental_matches_from_scratch(self):
        """A fingerprint maintained through mutations equals the one a
        freshly canonicalized equal state computes."""
        rng = random.Random(7)
        for _ in range(60):
            state = _random_state(rng)
            state.fingerprint()  # settle caches mid-way
            state.set_attribute("dev0", "switch", "on")
            state.mode = "Night"
            clone = state.copy()
            clone.set_attribute("dev1", "lock", "unlocked")
            devices, mode, apps, schedules, _, _ = clone.canonical_key()
            rebuilt = ModelState(mode=mode)
            for name, attrs in devices:
                for attribute, value in attrs:
                    rebuilt.set_attribute(name, attribute, value)
            for name, _frozen in apps:
                rebuilt.set_app_state(name, clone.app_state(name))
            for app_name, handler, periodic in schedules:
                rebuilt.add_schedule(app_name, handler, periodic=periodic)
            assert rebuilt.canonical_key() == clone.canonical_key()
            assert rebuilt.fingerprint() == clone.fingerprint()

    def test_copy_preserves_fingerprint(self):
        rng = random.Random(11)
        state = _random_state(rng)
        assert state.copy().fingerprint() == state.fingerprint()

    def test_distinct_states_distinct_fingerprints(self):
        a, b = ModelState(), ModelState()
        a.set_attribute("d", "switch", "on")
        b.set_attribute("d", "switch", "off")
        assert a.fingerprint() != b.fingerprint()

    def test_equal_values_get_equal_words(self, monkeypatch):
        """``1 == 1.0 == True`` and ``-0.0 == 0``, so they share a word
        whichever of them the cache met first; unequal values differ."""
        for first in (True, 1.0, 1):
            monkeypatch.setattr(state_module, "_WORDS", {})
            expected = word(("d", "level", first))
            for other in (1, 1.0, True):
                assert word(("d", "level", other)) == expected
        assert word(-0.0) == word(0) == word(False)
        values = [None, "1", 1, 1.5, "None", (), ("",), (None,), ((),),
                  ("a", "b"), ("ab",), float("inf")]
        assert len({word(value) for value in values}) == len(values)
        # a runtime object app code may keep in ``state`` is worded by
        # its value too
        date_word = word(DateValue(5))
        state_module._WORDS.clear()
        assert word(DateValue(5)) == date_word
        assert len({word(DateValue(5)), word(DateValue(6)), word(5)}) == 3
        a, b = ModelState(), ModelState()
        a.set_attribute("d", "level", 1)
        b.set_attribute("d", "level", 1.0)
        assert a.fingerprint() == b.fingerprint()

    def test_words_are_fixed_across_processes(self):
        """A keyed blake2b over a canonical encoding: the word of a
        value is a constant, not a function of ``PYTHONHASHSEED``."""
        assert word("Home") == int.from_bytes(hashlib.blake2b(
            b"S4:Home", digest_size=8,
            key=state_module._WORD_KEY).digest(), "little")


# ---------------------------------------------------------------------------
# property-based
# ---------------------------------------------------------------------------

_KEYS = st.tuples(st.text(max_size=8), st.integers(0, 1000))
_U64 = st.integers(0, (1 << 64) - 1)


class TestStoreProperties:
    @given(st.lists(st.tuples(_KEYS, st.integers(0, 5)), max_size=60))
    def test_exact_store_monotone(self, operations):
        """Once a key is seen at depth d, it is seen at every depth >= d."""
        store = ExactVisitedSet()
        recorded = {}
        for key, depth in operations:
            expected_seen = key in recorded and recorded[key] <= depth
            assert store.seen_before(key, depth) == expected_seen
            if not expected_seen:
                recorded[key] = depth

    @given(st.lists(_U64, unique=True, max_size=80))
    def test_bitstate_never_forgets(self, keys):
        table = BitStateVisitedSet(bits_log2=16)
        for key in keys:
            table.seen_before(key, 0)
        for key in keys:
            assert table.seen_before(key, 0)

    @given(st.lists(_U64, unique=True, min_size=1, max_size=50))
    @settings(max_examples=30)
    def test_bitstate_stored_plus_pruned_is_total(self, keys):
        table = BitStateVisitedSet(bits_log2=16)
        for key in keys:
            table.seen_before(key, 0)
        assert table.stored + table.pruned == len(keys)


# ---------------------------------------------------------------------------
# the supertrace store: k-hash bitstate
# ---------------------------------------------------------------------------


class TestBitStateVisitedSet:
    """The fingerprint-keyed supertrace store (``bitstate``)."""

    def test_constructor_bounds(self):
        with pytest.raises(ValueError):
            BitStateVisitedSet(bits_log2=2)
        with pytest.raises(ValueError):
            BitStateVisitedSet(bits_log2=35)
        with pytest.raises(ValueError):
            BitStateVisitedSet(hash_count=0)
        # the range ends are legal field sizes (no 2 GiB allocation here)
        assert BitStateVisitedSet(bits_log2=3).bits == 8

    def test_first_visit_not_seen_and_revisit_seen(self):
        store = BitStateVisitedSet(bits_log2=16)
        assert store.seen_before(0xBEEF, 0) is False
        assert store.seen_before(0xBEEF, 0) is True

    def test_no_false_negatives(self):
        """Every key offered is reported seen afterwards (Spin's
        guarantee: admitted or collided, never forgotten)."""
        store = BitStateVisitedSet(bits_log2=16)
        keys = [index * 0x9E3779B97F4A7C15 & ((1 << 64) - 1)
                for index in range(500)]
        for key in keys:
            store.seen_before(key, 0)
        assert all(store.seen_before(key, 0) for key in keys)

    def test_pruned_counter(self):
        store = BitStateVisitedSet(bits_log2=8, hash_count=1)
        for key in range(1000):
            store.seen_before(key, 0)
        # 256 bits, 1000 distinct keys: collisions are certain
        assert store.pruned > 0
        assert store.stored + store.pruned == 1000
        # an ordinary revisit is pruned and counted the same way
        store.seen_before(0, 0)
        assert store.stored + store.pruned == 1001

    def test_more_hashes_fewer_collisions(self):
        """Holzmann: multi-hashing improves coverage at equal memory."""
        single = BitStateVisitedSet(bits_log2=12, hash_count=1)
        triple = BitStateVisitedSet(bits_log2=12, hash_count=3)
        for key in range(300):
            single.seen_before(key, 0)
            triple.seen_before(key, 0)
        # distinct keys, so every pruned key is a collision
        assert triple.pruned < single.pruned

    def test_fill_ratio_matches_per_byte_popcount(self):
        """The incrementally kept fill ratio is the field's popcount."""
        store = BitStateVisitedSet(bits_log2=8, hash_count=3)
        for key in range(200):
            store.seen_before(key, 0)
            slow = sum(bin(b).count("1") for b in store._field) / store.bits
            assert store.fill_ratio == slow

    def test_state_key_is_fingerprint(self):
        state = ModelState()
        state.set_attribute("d", "switch", "on")
        assert BitStateVisitedSet.state_key(state) == state.fingerprint()

    def test_shallower_revisit_readmits(self):
        """Probes are tagged with the depth: like the fingerprint store,
        a *shallower* revisit is re-expanded, an equal or deeper one is
        pruned, and the re-expansion is not a new distinct state."""
        store = BitStateVisitedSet(bits_log2=16)
        assert store.seen_before(0xBEEF, 3) is False
        assert store.seen_before(0xBEEF, 1) is False
        assert store.seen_before(0xBEEF, 2) is True
        assert store.seen_before(0xBEEF, 3) is True
        assert store.distinct_count() == 1
        assert store.pruned == 2

    def test_depth_tags_take_disjoint_probe_slots(self):
        """Each depth owns its own ``hash_count`` slots of one key's
        probe sequence."""
        store = BitStateVisitedSet(bits_log2=20, hash_count=3)
        shallow = store.bit_positions(12345, 0)
        deep = store.bit_positions(12345, 1)
        assert not set(shallow) & set(deep)

    @given(st.lists(_U64, unique=True, max_size=120))
    def test_no_false_negatives_on_admitted_keys(self, keys):
        """A key the store admitted is never forgotten, at any depth."""
        store = BitStateVisitedSet(bits_log2=16)
        admitted = [key for key in keys if not store.seen_before(key, 0)]
        assert all(store.seen_before(key, 5) for key in admitted)

    @given(st.lists(_U64, unique=True, max_size=100))
    @settings(max_examples=30)
    def test_fill_ratio_monotone_and_bounded(self, keys):
        store = BitStateVisitedSet(bits_log2=8, hash_count=3)
        previous = 0.0
        for key in keys:
            store.seen_before(key, 0)
            assert previous <= store.fill_ratio <= 1.0
            previous = store.fill_ratio

    def test_fill_ratio_saturates_at_exactly_one(self):
        """Regression: two hashes landing on one bit within a single
        admission once double-counted the set-bit counter past 1.0."""
        store = BitStateVisitedSet(bits_log2=4, hash_count=4)
        for key in range(5000):
            store.seen_before(key * 0x9E3779B97F4A7C15 & ((1 << 64) - 1), 0)
        assert store.fill_ratio == 1.0

    def test_k_hashes_hit_distinct_positions(self):
        """Independence smoke: in a roomy field one key's k positions
        are k *different* bits (the whole point of multi-hash bitstate)."""
        positions = BitStateVisitedSet(bits_log2=20,
                                       hash_count=8).bit_positions(12345)
        assert len(set(positions)) == 8

    def test_bit_positions_are_pinned(self):
        """The double-hashed positions of one splitmix64 per key: the
        first is the mix itself, as before double hashing.  Moving a
        bit changes bitstate verdicts, so it must bump the service's
        digest schema version."""
        store = BitStateVisitedSet(bits_log2=20)
        assert store.bit_positions(12345) == [
            384337, 183912, 1032063, 831638, 631213]
        assert store.bit_positions(0xDEADBEEFCAFEF00D) == [
            872899, 892070, 911241, 930412, 949583]
        assert store.bit_positions(12345, 1) == [
            430788, 230363, 29938, 878089, 677664]

    def test_stats_and_distinct_count(self):
        store = BitStateVisitedSet(bits_log2=16)
        for key in (1, 2, 1):
            store.seen_before(key, 0)
        # a bit field cannot tell the revisit from a collision: both
        # are counted as pruned
        assert store.distinct_count() == 2
        stats = store.stats()
        assert stats["stored"] == 2 and stats["pruned"] == 1
        assert stats["approx_bytes"] == (1 << 16) // 8
        assert 0.0 < stats["fill_ratio"] <= 1.0
        assert stats["hash_count"] == 5
        assert "salt" not in stats and "collisions" not in stats
