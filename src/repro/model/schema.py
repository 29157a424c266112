"""Per-system packed state schemas (FastContext-style precompiled layout).

A :class:`StateSchema` is compiled once per
:class:`~repro.model.system.IoTSystem`: the device x attribute grid is
flattened into a fixed slot order and the installed apps into a fixed app
order, so a :class:`~repro.model.state.ModelState` snapshots into a compact
*packed* tuple by straight slot lookups - no per-state sorting, no
re-walking dict-of-dicts.  The packed form is canonical:

    pack(a) == pack(b)  <=>  a.canonical_key() == b.canonical_key()

for any two states over the schema's system, which is what lets the
visited stores key on it directly (the collapse store interns its
component blocks, the exact store uses it as a cheaper canonical key).

States are allowed to wander off-schema - a test may hand-build a state
with devices the system never declared, or an app may grow an attribute
the spec does not list.  Those components land in sorted *overflow*
sections, so exactness is preserved at the price of the old sorting walk
for just the off-schema part.

The packed layout is a plain tuple

    (device_blocks, unknown_devices, mode, app_values, app_overflow,
     schedules, pending, cascade_commands)

where ``device_blocks[i]`` is the i-th schema device's self-contained
``(value_vector, extra_attributes)`` block (:data:`ABSENT`-padded vector,
``()`` extras in the common all-on-schema case, or :data:`ABSENT` itself
when the state has no entry for the device at all) and ``app_values[i]``
the frozen state map of the i-th schema app.  Each device block is
self-contained so stores may intern it as one arena unit.  :meth:`unpack`
inverts the mapping up to canonical equality (frozen app maps stay
frozen; ``canonical_key`` freezes idempotently, so equality is
preserved).
"""


# the one frozen form shared with fingerprint()/canonical_key(): the
# collapse store's exactness contract depends on pack() freezing app
# state maps exactly the way the state module does
from repro.model.state import _freeze


class _Absent:
    """Singleton marking "no value in this slot" (distinct from None,
    which is a legal attribute value)."""

    __slots__ = ()

    def __repr__(self):
        return "<absent>"

    def __reduce__(self):
        # ABSENT is compared by identity (unpack), so crossing a pickle
        # boundary must yield the module singleton, not a fresh instance
        return (_restore_absent, ())


#: slot filler for attributes/devices/apps missing from a state
ABSENT = _Absent()


def _restore_absent():
    return ABSENT


class StateSchema:
    """The packed-state layout of one :class:`IoTSystem`."""

    __slots__ = ("device_layout", "app_names", "_app_index", "slot_count",
                 "component_count", "_slot_index")

    def __init__(self, system):
        layout = []
        for name in sorted(system.devices):
            attrs = tuple(sorted(system.devices[name].spec.attributes))
            layout.append((name, attrs, frozenset(attrs)))
        #: tuple of (device_name, attribute_tuple, attribute_set)
        self.device_layout = tuple(layout)
        #: installed apps in canonical (sorted) order
        self.app_names = tuple(sorted(app.name for app in system.apps))
        self._app_index = frozenset(self.app_names)
        #: total device-attribute slots across the grid
        self.slot_count = sum(len(attrs) for _, attrs, _ in layout)
        #: components of a packed id vector: one per device, one per app,
        #: plus device-overflow, mode, app-overflow, schedules, pending
        #: and cascade-commands
        self.component_count = len(layout) + len(self.app_names) + 6
        self._slot_index = None

    def slot_index(self, device_name, attribute):
        """Resolve ``(device, attribute)`` to its packed position.

        Returns ``(device_position, attribute_position)`` into the
        packed tuple's device-block section - ``packed[0][d][0][a]`` is
        the slot's value - or ``None`` for off-schema pairs.  The
        codegen tier resolves device slots against this map at
        generation time so packed-state enabledness checks skip the
        dict-of-dicts walk."""
        index = self._slot_index
        if index is None:
            index = {}
            for position, (name, attrs, _) in enumerate(self.device_layout):
                for offset, attr in enumerate(attrs):
                    index[(name, attr)] = (position, offset)
            self._slot_index = index
        return index.get((device_name, attribute))

    # ------------------------------------------------------------------
    # packing
    # ------------------------------------------------------------------

    def pack(self, state):
        """The canonical packed tuple of one state (hashable).

        Reads the state's containers without marking them escaped (the
        schema lives in the same package and the walk never leaks a
        reference), so packing a state keeps its copy-on-write sharing
        intact.
        """
        devices = state._devices
        vectors, dev_overflow = self._pack_devices(devices)
        apps = state._app_states
        values, app_overflow = self._pack_apps(apps)
        return (
            vectors,
            dev_overflow,
            state._mode,
            values,
            app_overflow,
            tuple(sorted(state._schedules)),
            state._pending,
            state._cascade_commands,
        )

    def device_block(self, layout_entry, amap):
        """One device's self-contained ``(vector, extras)`` block."""
        _name, attrs, attr_set = layout_entry
        vector = tuple(amap.get(attr, ABSENT) for attr in attrs)
        if len(attrs) - vector.count(ABSENT) != len(amap):
            # attributes outside the schema grid: exact, sorted
            extras = tuple(sorted(
                (k, v) for k, v in amap.items() if k not in attr_set))
        else:
            extras = ()
        return (vector, extras)

    def unknown_devices(self, devices):
        """Sorted overflow block for devices the schema never declared."""
        known = {name for name, _, _ in self.device_layout}
        return tuple(sorted(
            (name, tuple(sorted(amap.items())))
            for name, amap in devices.items() if name not in known))

    def _pack_devices(self, devices):
        blocks = []
        off_schema = len(devices)
        for entry in self.device_layout:
            amap = devices.get(entry[0])
            if amap is None:
                blocks.append(ABSENT)
                continue
            off_schema -= 1
            blocks.append(self.device_block(entry, amap))
        overflow = self.unknown_devices(devices) if off_schema else ()
        return tuple(blocks), overflow

    @staticmethod
    def app_block(mapping):
        """One app's frozen state map (the canonical app block)."""
        return _freeze(mapping)

    def _pack_apps(self, apps):
        values = []
        off_schema = len(apps)
        for name in self.app_names:
            mapping = apps.get(name)
            if mapping is None:
                values.append(ABSENT)
            else:
                off_schema -= 1
                values.append(_freeze(mapping))
        overflow = ()
        if off_schema:
            overflow = tuple(sorted(
                (name, _freeze(mapping)) for name, mapping in apps.items()
                if name not in self._app_index))
        return tuple(values), overflow

    # ------------------------------------------------------------------
    # unpacking
    # ------------------------------------------------------------------

    def unpack(self, packed, time=0):
        """A :class:`ModelState` canonically equal to the packed one.

        App state maps are restored in their *frozen* form
        (``canonical_key`` freezes idempotently, so equality holds); the
        clock defaults to 0 because the canonical form excludes it.
        """
        from repro.model.state import ModelState

        (blocks, unknown_devices, mode, values, app_overflow,
         schedules, pending, cascade_commands) = packed
        state = ModelState(mode=mode, time=time, schedules=schedules,
                           pending=pending,
                           cascade_commands=cascade_commands)
        for (name, attrs, _), block in zip(self.device_layout, blocks):
            if block is ABSENT:
                continue
            vector, extras = block
            # an all-ABSENT vector with no extras is a present-but-empty
            # device map: the loops add nothing, but the entry must exist
            state._devices.setdefault(name, {})
            for attr, value in zip(attrs, vector):
                if value is not ABSENT:
                    state.set_attribute(name, attr, value)
            for attr, value in extras:
                state.set_attribute(name, attr, value)
        for name, items in unknown_devices:
            state._devices.setdefault(name, {})
            for attr, value in items:
                state.set_attribute(name, attr, value)
        for name, frozen in zip(self.app_names, values):
            if frozen is not ABSENT:
                state._app_states[name] = frozen
                state._dirty_apps.add(name)
        for name, frozen in app_overflow:
            state._app_states[name] = frozen
            state._dirty_apps.add(name)
        return state

    def __repr__(self):
        return "StateSchema(devices=%d, slots=%d, apps=%d)" % (
            len(self.device_layout), self.slot_count, len(self.app_names))
