"""The model-checker state vector.

A :class:`ModelState` captures everything the transition relation can read
or write: device attribute values, the location mode, each app's persistent
``state`` map, the monotone clock (§8: "We model system time as a
monotonically increasing variable"), pending scheduled callbacks, a bounded
per-device event history (for ``eventsSince``), and - in the concurrent
design - the queue of pending cyber events.

Two properties make the exploration hot path cheap:

* **Copy-on-write branching.**  :meth:`copy` shares the per-device
  attribute maps and per-app state maps between parent and child instead
  of deep-copying them; a branch that touches two devices copies two
  small dicts, not the whole home.  A device map is unshared lazily on
  its first write; an app map is replaced whole, never written in place.
* **Incremental fingerprints.**  A 64-bit :meth:`fingerprint` is
  maintained through :meth:`set_attribute`, :meth:`set_app_state` and
  the mode and schedule writes, so visited-set lookups need no full
  re-canonicalization.  The exact canonical form stays available
  behind :meth:`canonical_key` for the exact visited store and for
  collision audits; equal canonical keys are guaranteed to have equal
  fingerprints.  The components mix as fixed-key blake2b words
  (:func:`word`), so a fingerprint is the same in every process, and
  with the device hash last, so the successors of one parent that
  each change one attribute share all but the last mixing round
  (:meth:`successor_base`).

The state is written only through the methods a cascade uses - the
ones :class:`~repro.model.replay.RecordingState` records - and hands
out no container a caller may mutate.  An app's ``state`` map is a
value like any other: a cascade works on its own copy
(:meth:`~repro.model.cascade.Cascade.app_state`) and stores it back
through :meth:`set_app_state`, so a stored map is never mutated and
:meth:`copy` shares it with the child.
"""

try:
    # hashlib's blake2b is this builtin module; importing hashlib itself
    # would also load OpenSSL, 3.6 MB of resident memory a search
    # process otherwise never maps
    from _blake2 import blake2b
except ImportError:  # pragma: no cover - interpreters without it
    from hashlib import blake2b

_MASK = (1 << 64) - 1

#: FNV-1a constants used to mix the per-component words into one word.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

#: the fixed key of the blake2b words: fingerprints are the same in
#: every process, whatever ``PYTHONHASHSEED`` says
_WORD_KEY = b"iotsan-state-word"

#: most distinct values :func:`word` remembers before it starts over
_WORDS_LIMIT = 1 << 16

_WORDS = {}

_MISSING = object()


def word(value):
    """The 64-bit word of one state value: a keyed blake2b over its
    canonical encoding, computed once per distinct value.

    Values that compare equal get equal words (``1``, ``1.0`` and
    ``True`` all encode as the integer 1), as they get equal ``hash()``
    values, so the cache may answer for any of them."""
    result = _WORDS.get(value)
    if result is None:
        if len(_WORDS) >= _WORDS_LIMIT:
            _WORDS.clear()
        out = bytearray()
        _encode(value, out)
        result = _WORDS[value] = int.from_bytes(blake2b(
            out, digest_size=8, key=_WORD_KEY).digest(), "little")
    return result


def _encode(value, out):
    """Append the canonical encoding of ``value`` to ``out``: tagged and
    length-prefixed, numbers by their value (an integral float as the
    integer it equals)."""
    if value is None:
        out += b"N"
    elif isinstance(value, str):
        data = value.encode("utf-8", "surrogatepass")
        out += b"S%d:" % len(data)
        out += data
    elif isinstance(value, int):
        out += b"I%d;" % value
    elif isinstance(value, float):
        if value.is_integer():
            out += b"I%d;" % value
        else:
            out += b"F%s;" % value.hex().encode()
    elif isinstance(value, tuple):
        out += b"T%d:" % len(value)
        for item in value:
            _encode(item, out)
    else:
        # runtime objects kept in app state (dates, device handles):
        # their repr names their value
        data = ("%s:%r" % (type(value).__name__, value)).encode(
            "utf-8", "surrogatepass")
        out += b"O%d:" % len(data)
        out += data


#: the word of an empty command log, every quiet successor's
_NO_COMMANDS = word(())


def successor_fingerprint(prefix, dev_hash):
    """The fingerprint of a state whose other components mix to
    ``prefix`` (:meth:`ModelState.successor_base`) and whose device
    hash is ``dev_hash``: the last FNV round, which
    :meth:`ModelState.fingerprint` takes too."""
    return ((prefix ^ dev_hash) * _FNV_PRIME) & _MASK


class ModelState:
    """Mutable model state; the checker copies it on every branch."""

    __slots__ = (
        "_devices", "_mode", "_app_states", "time", "_schedules", "_history",
        "_pending", "_cascade_commands",
        # copy-on-write bookkeeping: names whose device maps are shared
        # with another state and must be copied before mutation
        "_shared_devices", "_history_shared",
        # fingerprint caches
        "_dev_hash", "_app_hashes", "_fp_cache", "_sched_hash",
    )

    #: bounded history length per device (enough for `eventsSince` guards)
    HISTORY_LIMIT = 4

    def __init__(self, mode="Home", time=0):
        self._devices = {}
        self._mode = mode
        self._app_states = {}
        self.time = time
        self._schedules = ()
        self._history = {}
        self._history_shared = False
        self._pending = ()
        # commands sent since the last external event (concurrent design
        # needs this in-state; the sequential cascade keeps its own log)
        self._cascade_commands = ()
        self._shared_devices = set()
        # XOR of word((device, attribute, value)) over every attribute,
        # kept current by set_attribute
        self._dev_hash = 0
        # app name -> word((name, frozen map)), kept by set_app_state
        self._app_hashes = {}
        self._fp_cache = None
        self._sched_hash = None

    # -- scalar components ---------------------------------------------------

    @property
    def mode(self):
        """The location mode."""
        return self._mode

    @mode.setter
    def mode(self, value):
        self._mode = value
        self._fp_cache = None

    @property
    def schedules(self):
        """Pending ``(app, handler, periodic)`` callbacks, in the order
        they were added (written by :meth:`add_schedule` and
        :meth:`remove_schedule`)."""
        return self._schedules

    @property
    def pending(self):
        """The queue of undelivered cyber events (concurrent design)."""
        return self._pending

    @pending.setter
    def pending(self, value):
        self._pending = tuple(value)
        self._fp_cache = None

    @property
    def cascade_commands(self):
        """The commands sent since the last external event."""
        return self._cascade_commands

    @cascade_commands.setter
    def cascade_commands(self, value):
        self._cascade_commands = tuple(value)
        self._fp_cache = None

    # -- reads ---------------------------------------------------------------

    def attribute(self, device_name, attribute):
        """Current value of a device attribute (``None`` when unknown)."""
        return self._devices.get(device_name, {}).get(attribute)

    def device_history(self, device_name):
        """One device's bounded ``(attribute, value, time)`` history,
        oldest first."""
        return self._history.get(device_name, ())

    def app_state(self, app_name):
        """One app's persistent ``state`` map, or ``None`` when it has
        none.  The map may be shared with other states: read it, never
        mutate it (:meth:`set_app_state` replaces it)."""
        return self._app_states.get(app_name)

    # -- writes --------------------------------------------------------------

    def set_attribute(self, device_name, attribute, value):
        """Write one device attribute, keeping the device hash current."""
        attrs = self._devices.get(device_name)
        if attrs is None:
            attrs = {}
            self._devices[device_name] = attrs
        elif device_name in self._shared_devices:
            attrs = dict(attrs)
            self._devices[device_name] = attrs
            self._shared_devices.discard(device_name)
        old = attrs.get(attribute, _MISSING)
        if old is not _MISSING:
            self._dev_hash ^= word((device_name, attribute, old))
        self._dev_hash ^= word((device_name, attribute, value))
        attrs[attribute] = value
        self._fp_cache = None

    def record_event(self, device_name, attribute, value):
        """Append to the bounded per-device history."""
        history = self._history
        if self._history_shared:
            history = dict(history)
            self._history = history
            self._history_shared = False
        old = history.get(device_name, ())
        entry = (attribute, value, self.time)
        history[device_name] = (old + (entry,))[-self.HISTORY_LIMIT:]

    def add_schedule(self, app_name, handler, periodic=False):
        """Schedule ``handler`` of ``app_name`` (once per entry)."""
        entry = (app_name, handler, periodic)
        if entry not in self._schedules:
            self._schedules = self._schedules + (entry,)
            self._fp_cache = None
            self._sched_hash = None

    def remove_schedule(self, app_name, handler=None):
        """Drop an app's scheduled ``handler``, or all its schedules when
        ``handler`` is ``None``."""
        self._schedules = tuple(
            (a, h, p) for (a, h, p) in self._schedules
            if not (a == app_name and (handler is None or h == handler)))
        self._fp_cache = None
        self._sched_hash = None

    def set_app_state(self, app_name, mapping):
        """Store ``mapping`` as one app's ``state`` map.

        The state takes the map over: it is shared with every copy from
        now on, so the caller must not mutate it afterwards."""
        self._app_states[app_name] = mapping
        self._app_hashes[app_name] = word((app_name, _freeze(mapping)))
        self._fp_cache = None

    # -- copy / hash -----------------------------------------------------------

    def copy(self):
        """A structural-sharing copy: inner maps are shared, not duplicated.

        Both sides mark the shared device maps, so whichever state
        mutates first copies just the map it touches (copy-on-write in
        both directions).  App maps are never mutated, so they are
        shared as they are.
        """
        clone = ModelState.__new__(ModelState)
        clone._mode = self._mode
        clone.time = self.time
        clone._schedules = self._schedules
        clone._sched_hash = self._sched_hash
        # the history map is shared COW like the device maps: both sides
        # mark it shared, whichever records an event first copies it
        clone._history = self._history
        clone._history_shared = True
        self._history_shared = True
        clone._pending = self._pending
        clone._cascade_commands = self._cascade_commands

        clone._devices = dict(self._devices)
        shared_devices = set(self._devices)
        self._shared_devices |= shared_devices
        clone._shared_devices = shared_devices
        clone._dev_hash = self._dev_hash

        clone._app_states = dict(self._app_states)
        clone._app_hashes = dict(self._app_hashes)
        # content is identical at copy time
        clone._fp_cache = self._fp_cache
        return clone

    def fingerprint(self):
        """64-bit incremental hash of the canonical state.

        Maintained through the mutator methods.  Equal canonical keys
        always produce equal fingerprints (the reverse may fail with
        probability ~2^-64 per pair - the BITSTATE trade-off).

        Built on :func:`word`, a keyed blake2b, so a state has the same
        fingerprint in every process; only the concurrent design's
        ``pending`` queue mixes in through ``hash()``, whose events hash
        by their integer serial.
        """
        if self._fp_cache is not None:
            return self._fp_cache
        mixed = successor_fingerprint(
            self._prefix(word(self._cascade_commands)), self._dev_hash)
        self._fp_cache = mixed
        return mixed

    def successor_base(self):
        """``(prefix, device hash)`` shared by this state's quiet
        successors: the successors that differ from it in one attribute
        and an empty command log.

        A successor that sets ``attribute`` of ``device`` to ``value``
        has the device hash ``dev = base[1] ^ old ^ new``, where ``old``
        is :meth:`attribute_word` here and ``new`` is
        ``word((device, attribute, value))``; its physical key is
        ``(dev, mode)`` and its fingerprint
        ``successor_fingerprint(base[0], dev)``: exactly the keys of
        ``copy()`` followed by those writes.  History and time are in
        neither key.
        """
        return self._prefix(_NO_COMMANDS), self._dev_hash

    def attribute_word(self, device_name, attribute):
        """The word one attribute's current value adds to the device
        hash (0 while it is unset)."""
        old = self._devices.get(device_name, {}).get(attribute, _MISSING)
        if old is _MISSING:
            return 0
        return word((device_name, attribute, old))

    def _prefix(self, commands_hash):
        """FNV-1a over every component word but the device hash, which
        :func:`successor_fingerprint` mixes in last, with the command
        log's word given; refreshes the schedule word first."""
        apps_hash = 0
        for value in self._app_hashes.values():
            apps_hash ^= value
        if self._sched_hash is None:
            self._sched_hash = word(tuple(sorted(self._schedules)))
        acc = ((_FNV_OFFSET ^ word(self._mode)) * _FNV_PRIME) & _MASK
        acc = ((acc ^ apps_hash) * _FNV_PRIME) & _MASK
        acc = ((acc ^ self._sched_hash) * _FNV_PRIME) & _MASK
        acc = ((acc ^ (hash(self._pending) & _MASK)) * _FNV_PRIME) & _MASK
        return ((acc ^ commands_hash) * _FNV_PRIME) & _MASK

    def physical_key(self):
        """Hashable key of the *physical* projection: device attributes + mode.

        This is the part of the state the safe-physical-state invariants
        read, so it keys the compiled property evaluators' verdict memo.
        Shares the incremental device hash with :meth:`fingerprint` (same
        ~2^-64 collision trade-off on the device component).
        """
        return (self._dev_hash, self._mode)

    def canonical_key(self):
        """Canonical hashable form for exact visited-state deduplication.

        The clock is deliberately excluded: two states differing only in the
        timestamp behave identically (time only orders history entries), and
        including it would make every state unique and defeat deduplication.
        """
        return (
            tuple(sorted((name, tuple(sorted(attrs.items())))
                         for name, attrs in self._devices.items())),
            self._mode,
            tuple(sorted((name, _freeze(mapping))
                         for name, mapping in self._app_states.items())),
            tuple(sorted(self._schedules)),
            self._pending,
            self._cascade_commands,
        )

    def __repr__(self):
        return "ModelState(mode=%r, time=%d, devices=%d)" % (
            self._mode, self.time, len(self._devices))


def _copy_value(value):
    if isinstance(value, dict):
        return {k: _copy_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_copy_value(v) for v in value]
    return value


def _freeze(value):
    """Recursively convert a state value into a hashable form."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value
