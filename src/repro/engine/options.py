"""Tunables for one exploration run."""

from repro.engine.visited import (
    BitStateVisitedSet,
    ExactVisitedSet,
    FingerprintVisitedSet,
)
from repro.model.faults import resolve_scenario

SEQUENTIAL = "sequential"
CONCURRENT = "concurrent"

#: the legal ``EngineOptions.mode`` values
EXPLORATION_MODES = (SEQUENTIAL, CONCURRENT)

#: the relations a search may expand: the traced oracle, then the lean
#: relation (the default)
ENGINE_MODES = ("interpreted", "lean")


def _make_exact(options, system):
    return ExactVisitedSet(
        schema=system.state_schema() if system is not None else None)


def _make_fingerprint(options, system):
    return FingerprintVisitedSet()


def _make_bitstate(options, system):
    return BitStateVisitedSet(bits_log2=options.bitstate_bits)


#: visited-store name -> constructor taking (options, system-or-None)
_VISITED_STORES = {
    "exact": _make_exact,
    "fingerprint": _make_fingerprint,
    "bitstate": _make_bitstate,
}


def visited_store_names():
    """The registered visited-store names (CLI choices)."""
    return sorted(_VISITED_STORES)


class EngineOptions:
    """Tunables for one exploration run.

    ``visited`` selects the store (:mod:`repro.engine.visited`):
    ``fingerprint`` (the default: one 64-bit word per state,
    depth-aware - the hash-compact trade-off Spin makes at scale,
    false-positive pruning probability ~2^-64 per pair), ``exact``
    (full canonical keys and no hash shortcuts anywhere, including the
    invariant-verdict memo - the differential oracle) or ``bitstate``
    (Spin's supertrace: a k-hash bit field of
    ``2**bitstate_bits`` bits over the same fingerprints, each probe
    tagged with its depth so a shallower revisit re-expands, with O(1)
    fill-ratio saturation reporting; its runs are ``partial``).
    ``bitstate_bits`` must be an integer in 3..34 (a one-byte to a
    2 GiB field).

    ``engine``
        Which transition relation the search expands: ``interpreted``
        (the traced relation, :meth:`IoTSystem.transitions
        <repro.model.system.IoTSystem.transitions>`, which runs every
        cascade live and records its full trace - the differential
        oracle) or ``lean`` (the default,
        :class:`~repro.model.lean.LeanRelation`: each distinct cascade
        run once per search and its repeats replayed, trace included,
        under every sequential scenario).  Both run handlers
        on the tree interpreter.  A pure performance knob: both produce
        byte-identical verdicts, violation sets and counterexample traces
        (proven on the corpus and on generated handler programs by the
        differential suite), so the choice is excluded from the vetting
        service's semantic digests.
    ``scenario``
        Named fault-injection profile layered onto the transition
        relation (see :mod:`repro.model.faults`): ``clean`` (the
        default, ideal delivery), ``lossy``, ``delayed``,
        ``duplicated``, ``device-death`` or ``stale-reads``.  A
        *semantic* knob: each profile changes the explored relation, so
        it participates in the vetting service's digests — a lossy
        verdict is never served from the clean cache.
    ``check_interval``
        How many transitions may elapse between wall-clock limit checks
        (state/transition limits stay exact; only ``time_limit`` detection
        is quantized).
    ``telemetry``
        Run observability (:mod:`repro.obs`): ``None`` (the default -
        zero telemetry, zero overhead), a JSONL sink path, a keyword
        dict, or a :class:`~repro.obs.telemetry.TelemetryConfig`.
        Progress snapshots piggyback on the ``check_interval`` sampling.
        A pure *observer*: verdicts, violation sets, traces and the
        vetting service's semantic digests are byte-identical with
        telemetry on or off, so it is excluded from the content digests.
    ``mode``
        The exploration semantics: ``sequential`` (the default
        interleaving model) or ``concurrent`` (simultaneous event
        batches).
    """

    def __init__(self, max_events=3, mode=SEQUENTIAL, visited="fingerprint",
                 bitstate_bits=23, max_states=200000, max_transitions=None,
                 time_limit=None, stop_on_first=False, engine="lean",
                 check_interval=256, scenario="clean", telemetry=None):
        self.max_events = max_events
        if mode not in EXPLORATION_MODES:
            raise ValueError("unknown mode %r (known: %s)"
                             % (mode, ", ".join(EXPLORATION_MODES)))
        self.mode = mode
        self.visited = visited
        if (isinstance(bitstate_bits, bool)
                or not isinstance(bitstate_bits, int)
                or not (BitStateVisitedSet.MIN_BITS_LOG2 <= bitstate_bits
                        <= BitStateVisitedSet.MAX_BITS_LOG2)):
            raise ValueError("bitstate_bits must be an integer in %d..%d, "
                             "got %r" % (BitStateVisitedSet.MIN_BITS_LOG2,
                                         BitStateVisitedSet.MAX_BITS_LOG2,
                                         bitstate_bits))
        self.bitstate_bits = bitstate_bits
        self.max_states = max_states
        self.max_transitions = max_transitions
        self.time_limit = time_limit
        self.stop_on_first = stop_on_first
        if engine not in ENGINE_MODES:
            raise ValueError("unknown engine %r (known: %s)"
                             % (engine, ", ".join(ENGINE_MODES)))
        self.engine = engine
        self.check_interval = check_interval
        # normalize to the profile *name*: options travel through JSON
        # payloads and semantic digests, both of which want the string
        self.scenario = resolve_scenario(scenario).name
        # normalized to a picklable TelemetryConfig (or None): options
        # travel to pool workers and through service payloads, so
        # the telemetry request is declarative data, never a live handle
        from repro.obs.telemetry import resolve_telemetry
        self.telemetry = resolve_telemetry(telemetry)

    def make_visited(self, system=None):
        """Build the selected visited store (some stores need the
        system's state schema, hence the argument)."""
        factory = _VISITED_STORES.get(self.visited)
        if factory is None:
            raise KeyError("unknown visited store %r (known: %s)"
                           % (self.visited, ", ".join(sorted(_VISITED_STORES))))
        return factory(self, system)
