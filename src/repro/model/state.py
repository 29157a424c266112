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
  small dicts, not the whole home.  Mutators unshare lazily.
* **Incremental fingerprints.**  A 64-bit :meth:`fingerprint` is
  maintained through :meth:`set_attribute`/mode/schedule mutations, so
  visited-set lookups need no full re-canonicalization.  The exact
  canonical form stays available behind :meth:`canonical_key` for the
  exact visited store and for collision audits; equal canonical keys are
  guaranteed to have equal fingerprints.

Raw access to the underlying containers (the :attr:`devices` /
:attr:`app_states` properties, or the dict handed out by
:meth:`app_state`) stays supported - app code mutates its state map in
place - but such a reference *escapes* the bookkeeping.  Escaped maps
are therefore treated pessimistically: their fingerprint contribution is
recomputed on every :meth:`fingerprint` call (staleness cannot be
tracked), and :meth:`copy` gives the child its own deep copy instead of
sharing them (a pre-copy reference must never alias the clone).
"""

_MASK = (1 << 64) - 1

#: FNV-1a constants used to mix the per-component hashes into one word.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_MISSING = object()


def _state_hash(dev_hash, mode, apps_hash, sched_hash, pending, commands):
    """FNV-1a over the component hashes: the one mixing rule that
    :meth:`ModelState.fingerprint` and :meth:`ModelState.replaced_keys`
    share."""
    acc = ((_FNV_OFFSET ^ (dev_hash & _MASK)) * _FNV_PRIME) & _MASK
    acc = ((acc ^ (hash(mode) & _MASK)) * _FNV_PRIME) & _MASK
    acc = ((acc ^ (apps_hash & _MASK)) * _FNV_PRIME) & _MASK
    acc = ((acc ^ (sched_hash & _MASK)) * _FNV_PRIME) & _MASK
    acc = ((acc ^ (hash(pending) & _MASK)) * _FNV_PRIME) & _MASK
    return ((acc ^ (hash(commands) & _MASK)) * _FNV_PRIME) & _MASK


class ModelState:
    """Mutable model state; the checker copies it on every branch."""

    __slots__ = (
        "_devices", "_mode", "_app_states", "time", "_schedules", "_history",
        "_pending", "_cascade_commands",
        # copy-on-write bookkeeping: names whose inner maps are shared
        # with another state and must be copied before mutation
        "_shared_devices", "_shared_apps", "_history_shared",
        "_history_escaped",
        # escape bookkeeping: raw references handed out (see module doc)
        "_devices_escaped", "_escaped_apps", "_apps_escaped_all",
        # fingerprint caches
        "_dev_hash", "_dev_hash_valid", "_app_hashes", "_dirty_apps",
        "_fp_cache", "_sched_hash",
    )

    #: bounded history length per device (enough for `eventsSince` guards)
    HISTORY_LIMIT = 4

    def __init__(self, devices=None, mode="Home", app_states=None, time=0,
                 schedules=(), history=None, pending=(), cascade_commands=()):
        self._devices = devices or {}
        self._mode = mode
        self._app_states = app_states or {}
        self.time = time
        self._schedules = tuple(schedules)
        self._history = history or {}
        self._history_shared = False
        self._history_escaped = history is not None
        self._pending = tuple(pending)
        # commands sent since the last external event (concurrent design
        # needs this in-state; the sequential cascade keeps its own log)
        self._cascade_commands = tuple(cascade_commands)
        self._shared_devices = set()
        self._shared_apps = set()
        # constructor-supplied dicts are caller-owned references
        self._devices_escaped = devices is not None
        self._escaped_apps = set()
        self._apps_escaped_all = app_states is not None
        self._dev_hash = 0
        self._dev_hash_valid = False
        self._app_hashes = {}
        self._dirty_apps = set()
        self._fp_cache = None
        self._sched_hash = None

    # -- raw-container views ---------------------------------------------------

    @property
    def devices(self):
        if self._shared_devices:
            for name in self._shared_devices:
                self._devices[name] = dict(self._devices[name])
            self._shared_devices.clear()
        self._devices_escaped = True
        self._fp_cache = None
        return self._devices

    @property
    def app_states(self):
        if self._shared_apps:
            for name in self._shared_apps:
                self._app_states[name] = _copy_value(self._app_states[name])
            self._shared_apps.clear()
        self._apps_escaped_all = True
        self._fp_cache = None
        return self._app_states

    @property
    def history(self):
        """The per-device event history map (unshared on access).

        The outer dict is shared copy-on-write between parent and child
        states; handing out the raw reference forces a private copy so
        direct writes can never leak into a sibling branch.
        """
        if self._history_shared:
            self._history = dict(self._history)
            self._history_shared = False
        self._history_escaped = True
        return self._history

    @history.setter
    def history(self, value):
        self._history = value
        self._history_shared = False
        self._history_escaped = True

    @property
    def mode(self):
        return self._mode

    @mode.setter
    def mode(self, value):
        self._mode = value
        self._fp_cache = None

    @property
    def schedules(self):
        return self._schedules

    @schedules.setter
    def schedules(self, value):
        self._schedules = tuple(value)
        self._fp_cache = None
        self._sched_hash = None

    @property
    def pending(self):
        return self._pending

    @pending.setter
    def pending(self, value):
        self._pending = tuple(value)
        self._fp_cache = None

    @property
    def cascade_commands(self):
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
        return self._history.get(device_name, ())

    # -- writes --------------------------------------------------------------

    def set_attribute(self, device_name, attribute, value):
        attrs = self._devices.get(device_name)
        if attrs is None:
            attrs = {}
            self._devices[device_name] = attrs
        elif device_name in self._shared_devices:
            attrs = dict(attrs)
            self._devices[device_name] = attrs
            self._shared_devices.discard(device_name)
        if self._dev_hash_valid and not self._devices_escaped:
            old = attrs.get(attribute, _MISSING)
            if old is not _MISSING:
                self._dev_hash ^= hash((device_name, attribute, old))
            self._dev_hash ^= hash((device_name, attribute, value))
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
        entry = (app_name, handler, periodic)
        if entry not in self._schedules:
            self._schedules = self._schedules + (entry,)
            self._fp_cache = None
            self._sched_hash = None

    def remove_schedule(self, app_name, handler=None):
        self._schedules = tuple(
            (a, h, p) for (a, h, p) in self._schedules
            if not (a == app_name and (handler is None or h == handler)))
        self._fp_cache = None
        self._sched_hash = None

    def app_state(self, app_name):
        """The persistent ``state`` map of one app (created on demand).

        The returned dict is mutated freely by app code, so a map shared
        with a parent/child state is deep-copied here and the reference
        counts as escaped from then on (recompute-on-fingerprint,
        deep-copy-on-branch).
        """
        mapping = self._app_states.get(app_name)
        if mapping is None:
            mapping = {}
            self._app_states[app_name] = mapping
        elif app_name in self._shared_apps:
            mapping = _copy_value(mapping)
            self._app_states[app_name] = mapping
            self._shared_apps.discard(app_name)
        self._escaped_apps.add(app_name)
        self._fp_cache = None
        return mapping

    def peek_app_state(self, app_name):
        """One app's ``state`` map, or ``None`` when it has none yet.

        Unlike :meth:`app_state` this creates, unshares and escapes
        nothing, so the map may be shared with other states: callers
        must only read it.
        """
        return self._app_states.get(app_name)

    def seal(self):
        """Declare every raw reference handed out so far dropped.

        The transition relation calls this once a cascade has finished:
        the executors' ``state``/``atomicState`` views and any raw
        container references die with the cascade, so the pessimistic
        escape treatment (recompute-per-fingerprint, deep-copy-on-branch)
        can stop.  Escaped components are marked dirty so their hashes
        recompute once, lazily; afterwards the state fingerprints from
        cache and branches with copy-on-write sharing again.

        Callers must guarantee no live raw reference remains - a write
        through one after sealing could leak into shared children.
        """
        if self._devices_escaped:
            self._devices_escaped = False
            self._dev_hash_valid = False
            self._fp_cache = None
        if self._apps_escaped_all:
            # entries may have been removed through the escaped view;
            # drop every memoized hash and rebuild on the next call
            self._app_hashes.clear()
            self._dirty_apps = set(self._app_states)
            self._apps_escaped_all = False
            self._escaped_apps = set()
            self._fp_cache = None
        elif self._escaped_apps:
            self._dirty_apps |= self._escaped_apps
            self._escaped_apps = set()
            self._fp_cache = None
        self._history_escaped = False
        return self

    # -- copy / hash -----------------------------------------------------------

    def copy(self):
        """A structural-sharing copy: inner maps are shared, not duplicated.

        Both sides mark the shared maps, so whichever state mutates first
        copies just the map it touches (copy-on-write in both directions).
        Maps whose references escaped are deep-copied instead - an old
        reference must keep writing into this state only, never the clone.
        """
        clone = ModelState.__new__(ModelState)
        clone._mode = self._mode
        clone.time = self.time
        clone._schedules = self._schedules
        clone._sched_hash = self._sched_hash
        # the history map is shared COW like the device maps: both sides
        # mark it shared, whichever records an event first copies it; an
        # escaped reference (raw .history access) forces a private copy
        if self._history_escaped:
            clone._history = dict(self._history)
            clone._history_shared = False
        else:
            clone._history = self._history
            clone._history_shared = True
            self._history_shared = True
        clone._history_escaped = False
        clone._pending = self._pending
        clone._cascade_commands = self._cascade_commands

        if self._devices_escaped:
            clone._devices = {name: dict(attrs)
                              for name, attrs in self._devices.items()}
            clone._shared_devices = set()
            clone._dev_hash = 0
            clone._dev_hash_valid = False
        else:
            clone._devices = dict(self._devices)
            shared_devices = set(self._devices)
            self._shared_devices |= shared_devices
            clone._shared_devices = shared_devices
            clone._dev_hash = self._dev_hash
            clone._dev_hash_valid = self._dev_hash_valid
        clone._devices_escaped = False

        escaped = (set(self._app_states) if self._apps_escaped_all
                   else self._escaped_apps)
        if escaped:
            clone._app_states = {}
            shared_apps = set()
            for name, mapping in self._app_states.items():
                if name in escaped:
                    clone._app_states[name] = _copy_value(mapping)
                else:
                    clone._app_states[name] = mapping
                    shared_apps.add(name)
            clone._dirty_apps = set(self._dirty_apps) | set(escaped)
        else:
            # fast path: every app map is clean, share them all
            clone._app_states = dict(self._app_states)
            shared_apps = set(self._app_states)
            clone._dirty_apps = (set(self._dirty_apps)
                                 if self._dirty_apps else set())
        self._shared_apps |= shared_apps
        clone._shared_apps = set(shared_apps)
        clone._escaped_apps = set()
        clone._apps_escaped_all = False
        clone._app_hashes = dict(self._app_hashes)
        # content is identical at copy time, so the clone inherits the
        # whole-state fingerprint when this state's is trustworthy (no
        # escaped references that could mutate behind the caches)
        if (self._fp_cache is not None and not self._devices_escaped
                and not self._apps_escaped_all and not self._escaped_apps
                and not self._dirty_apps):
            clone._fp_cache = self._fp_cache
        else:
            clone._fp_cache = None
        return clone

    def fingerprint(self):
        """64-bit incremental hash of the canonical state.

        Maintained through the mutator methods; components whose
        references escaped are recomputed on every call.  Equal canonical
        keys always produce equal fingerprints (the reverse may fail with
        probability ~2^-64 per pair - the BITSTATE trade-off).

        Built on Python's ``hash()``, so values are stable within a
        process but vary across processes (string hashing is seeded);
        set ``PYTHONHASHSEED`` to reproduce a fingerprint/BITSTATE run
        bit-for-bit.
        """
        if (self._fp_cache is not None and not self._devices_escaped
                and not self._apps_escaped_all and not self._escaped_apps
                and not self._dirty_apps):
            return self._fp_cache
        if self._devices_escaped or not self._dev_hash_valid:
            dev_hash = 0
            for name, attrs in self._devices.items():
                for attribute, value in attrs.items():
                    dev_hash ^= hash((name, attribute, value))
            self._dev_hash = dev_hash
            self._dev_hash_valid = True
        if self._apps_escaped_all:
            # rebuild outright: entries removed through the escaped view
            # must not leave stale hashes behind
            self._app_hashes = {
                name: hash((name, _freeze(mapping)))
                for name, mapping in self._app_states.items()}
        else:
            for name in self._dirty_apps | self._escaped_apps:
                mapping = self._app_states.get(name)
                if mapping is None:
                    self._app_hashes.pop(name, None)
                else:
                    self._app_hashes[name] = hash((name, _freeze(mapping)))
        self._dirty_apps.clear()
        apps_hash = 0
        for value in self._app_hashes.values():
            apps_hash ^= value
        if self._sched_hash is None:
            self._sched_hash = hash(tuple(sorted(self._schedules)))
        mixed = _state_hash(self._dev_hash, self._mode, apps_hash,
                            self._sched_hash, self._pending,
                            self._cascade_commands)
        self._fp_cache = mixed
        return mixed

    def replaced_keys(self, device_name, attribute, value):
        """``(fingerprint, physical_key)`` of this state with one
        attribute set to ``value`` and the command log cleared.

        Exactly the keys of ``copy()`` followed by those two writes and
        :meth:`seal`, computed from the cached component hashes without
        building the state: the old ``(device, attribute, value)`` hash
        is XORed out of the device hash and the new one in.  History and
        time are in neither key.  ``None`` when references have escaped
        (their hashes cannot be trusted); the caller then builds the
        state.
        """
        if (self._devices_escaped or self._apps_escaped_all
                or self._escaped_apps):
            return None
        if self._dirty_apps or self._sched_hash is None:
            self.fingerprint()
        if not self._dev_hash_valid:
            self.physical_key()
        dev_hash = self._dev_hash ^ hash((device_name, attribute, value))
        attrs = self._devices.get(device_name)
        if attrs is not None:
            old = attrs.get(attribute, _MISSING)
            if old is not _MISSING:
                dev_hash ^= hash((device_name, attribute, old))
        apps_hash = 0
        for app_hash in self._app_hashes.values():
            apps_hash ^= app_hash
        return (_state_hash(dev_hash, self._mode, apps_hash, self._sched_hash,
                            self._pending, ()),
                (dev_hash, self._mode))

    def physical_key(self):
        """Hashable key of the *physical* projection: device attributes + mode.

        This is the part of the state the safe-physical-state invariants
        read, so it keys the compiled property evaluators' verdict memo.
        Shares the incremental device hash with :meth:`fingerprint` (same
        ~2^-64 collision trade-off on the device component).
        """
        if self._devices_escaped or not self._dev_hash_valid:
            dev_hash = 0
            for name, attrs in self._devices.items():
                for attribute, value in attrs.items():
                    dev_hash ^= hash((name, attribute, value))
            self._dev_hash = dev_hash
            self._dev_hash_valid = True
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


class QuietLeaf:
    """Stands in for a violation-free successor at the depth bound
    whose keys came from :meth:`ModelState.replaced_keys`: the
    fingerprint visited store reads nothing of it but
    :meth:`fingerprint`, and the engine only checks that nothing is
    ``pending``."""

    __slots__ = ("_fingerprint",)

    pending = ()

    def __init__(self, fingerprint):
        self._fingerprint = fingerprint

    def fingerprint(self):
        return self._fingerprint


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
