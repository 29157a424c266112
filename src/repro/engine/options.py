"""Tunables for one exploration run."""

from repro.engine import strategy as _strategy

SEQUENTIAL = "sequential"
CONCURRENT = "concurrent"
SWARM = "swarm"

#: the legal ``EngineOptions.mode`` values
EXPLORATION_MODES = (SEQUENTIAL, CONCURRENT, SWARM)

#: execution tiers for the transition relation, slowest to fastest
ENGINE_MODES = ("interpreted", "codegen")


# Store constructors import lazily: repro.checker re-exports the engine
# shim, so a module-level import here would be circular.

def _make_exact(options, system):
    from repro.checker.visited import ExactVisitedSet
    return ExactVisitedSet(
        schema=system.state_schema() if system is not None else None)


def _make_fingerprint(options, system):
    from repro.engine.visited import FingerprintVisitedSet
    return FingerprintVisitedSet()


def _make_bitstate(options, system):
    from repro.checker.visited import BitStateTable
    return BitStateTable(bits_log2=options.bitstate_bits)


def _make_collapse(options, system):
    from repro.engine.visited import CollapseVisitedSet
    if system is None:
        raise ValueError("the collapse store packs states against the "
                         "system's schema; pass the system to make_visited")
    return CollapseVisitedSet(system.state_schema())


def _make_bitstate_k(options, system):
    from repro.engine.visited import BitStateVisitedSet
    return BitStateVisitedSet(bits_log2=options.bitstate_bits,
                              salt=options.bitstate_salt)


def _make_spill(options, system):
    from repro.engine.visited import SpillVisitedStore
    path = None
    if options.spill_dir:
        import os
        import tempfile
        os.makedirs(options.spill_dir, exist_ok=True)
        handle, path = tempfile.mkstemp(dir=options.spill_dir,
                                        prefix="visited-", suffix=".sqlite")
        os.close(handle)
        os.unlink(path)  # let SQLite create the file itself
    return SpillVisitedStore(path=path)


#: visited-store name -> constructor taking (options, system-or-None)
_VISITED_STORES = {
    "exact": _make_exact,
    "fingerprint": _make_fingerprint,
    "bitstate": _make_bitstate,
    "bitstate-k": _make_bitstate_k,
    "collapse": _make_collapse,
    "spill": _make_spill,
}


def visited_store_names():
    """The registered visited-store names (CLI choices)."""
    return sorted(_VISITED_STORES)


class EngineOptions:
    """Tunables for one exploration run.

    ``strategy`` selects the frontier by registry name (``dfs``/``bfs``/
    ``priority`` built in; see :func:`repro.engine.register_strategy`).
    ``visited`` selects the store: ``fingerprint`` (the default: one
    64-bit word per state, depth-aware - the hash-compact trade-off Spin
    makes at scale, false-positive pruning probability ~2^-64 per pair),
    ``collapse`` (Spin COLLAPSE-style component interning - *exact*
    dedup at a few machine words per state, the recommended store for
    deep bounds where the exact store's full canonical keys no longer
    fit), ``exact`` (full canonical keys and no hash shortcuts anywhere,
    including the invariant-verdict memo), ``bitstate`` (Spin supertrace
    bitfield), ``bitstate-k`` (the salted k-hash supertrace over the
    same fingerprints - the swarm members' store, O(1) fill-ratio
    saturation reporting) or ``spill`` (the disk-backed SQLite store -
    exhaustive coverage with peak RSS bounded by its caches instead of
    the state count; see ``spill_dir``).

    The execution-tier knobs:

    ``engine``
        Which execution tier evaluates the transition relation:
        ``interpreted`` walks the handler IR through the tree
        interpreter (the differential oracle), and ``codegen`` (the
        default) generates one real Python module per app from the
        lowered IR (:mod:`repro.model.codegen`), ``compile()``/
        ``exec``'s it, and expands each search node through a traceless
        lean cascade with pooled executors; an app the emitter cannot
        handle runs on the interpreter.  A pure performance knob: both
        tiers produce byte-identical verdicts, violation sets and
        canonical traces (proven on the corpus and on generated handler
        programs by the differential suite), so the choice is excluded
        from the vetting service's semantic digests.
    ``codegen_cache``
        Directory for generated per-app modules, keyed by the system's
        semantic digest (``None``: ``$REPRO_CODEGEN_CACHE`` or
        ``~/.cache/repro/codegen``).  Runs at the default ``engine``
        write there.
    ``reduction``
        Enable the sleep-set partial-order reduction over the static
        event-independence relation: of the interleavings of commuting
        external events only one representative order is explored, and
        entire commuting suffixes are pruned (not just one order per
        adjacent pair).  Off by default (it changes the explored state
        *count*); ignored in concurrent mode and when failure
        enumeration is on.
    ``scenario``
        Named fault-injection profile layered onto the transition
        relation (see :mod:`repro.model.faults`): ``clean`` (the
        default, ideal delivery), ``lossy``, ``delayed``,
        ``duplicated``, ``device-death`` or ``stale-reads``.  A
        *semantic* knob: each profile changes the explored relation, so
        it participates in the vetting service's digests — a lossy
        verdict is never served from the clean cache.  Any non-clean
        profile disables the sleep-set reduction (sound composition).
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
    ``manage_gc``
        Suspend Python's cyclic garbage collector for the duration of a
        run (restored on exit).  The search allocates millions of
        short-lived, almost entirely acyclic objects, so generation-0
        sweeps cost ~30% of wall clock while reclaiming nothing that
        reference counting does not already reclaim.
    ``mode`` / ``seed`` / ``swarm_members``
        ``mode`` selects the exploration semantics: ``sequential`` (the
        default interleaving model), ``concurrent`` (simultaneous event
        batches) or ``swarm`` (:mod:`repro.engine.swarm` - N diversified
        sampled member searches sharing one deduplicated violation
        sink).  Swarm runs are *unsound for safety*: a swarm ``safe``
        verdict always carries ``coverage="partial"`` and is never
        cached as exhaustive, while every reported violation is replayed
        on the interpreted oracle before it is reported.  ``seed`` is
        the root of the per-member diversification (successor shuffling
        and bitstate salts; same seed, same result) and
        ``swarm_members`` is the member count; both are *semantic* for
        swarm runs only - exhaustive digests ignore them.
    ``bitstate_salt`` / ``spill_dir``
        ``bitstate_salt`` remaps every ``bitstate-k`` bit position
        (swarm members derive per-member salts from it), changing which
        states a saturated field misses - semantic, like
        ``bitstate_bits``.  ``spill_dir`` is the directory for ``spill``
        visited-store databases (``None``: a self-cleaning temp dir); a
        local filesystem detail, deliberately not accepted by the
        vetting service API.
    """

    def __init__(self, max_events=3, mode=SEQUENTIAL, visited="fingerprint",
                 bitstate_bits=23, max_states=200000, max_transitions=None,
                 time_limit=None, stop_on_first=False, strategy="dfs",
                 priority=None, engine="codegen",
                 codegen_cache=None, reduction=False, check_interval=256,
                 manage_gc=True, scenario="clean", telemetry=None, seed=0,
                 swarm_members=4, bitstate_salt=0, spill_dir=None):
        self.max_events = max_events
        if mode not in EXPLORATION_MODES:
            raise ValueError("unknown mode %r (known: %s)"
                             % (mode, ", ".join(EXPLORATION_MODES)))
        self.mode = mode
        self.visited = visited
        self.bitstate_bits = bitstate_bits
        self.seed = int(seed)
        if int(swarm_members) < 1:
            raise ValueError("swarm_members must be >= 1, got %r"
                             % (swarm_members,))
        self.swarm_members = int(swarm_members)
        self.bitstate_salt = int(bitstate_salt)
        self.spill_dir = spill_dir
        self.max_states = max_states
        self.max_transitions = max_transitions
        self.time_limit = time_limit
        self.stop_on_first = stop_on_first
        self.strategy = strategy
        self.priority = priority
        if engine not in ENGINE_MODES:
            raise ValueError("unknown engine %r (known: %s)"
                             % (engine, ", ".join(ENGINE_MODES)))
        self.engine = engine
        self.codegen_cache = codegen_cache
        self.reduction = reduction
        self.check_interval = check_interval
        self.manage_gc = manage_gc
        # normalize to the profile *name*: options travel through JSON
        # payloads and semantic digests, both of which want the string.
        # Imported lazily like the store constructors - repro.model's
        # package init reaches back into repro.engine
        from repro.model.faults import resolve_scenario
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

    def make_frontier(self):
        """Build the frontier selected by ``strategy`` (registry name)."""
        return _strategy.make_frontier(self.strategy, self)
