"""Per-system packed state schemas (FastContext-style precompiled layout).

A :class:`StateSchema` is compiled once per
:class:`~repro.model.system.IoTSystem`: the device x attribute grid is
flattened into a fixed slot order and the installed apps into a fixed app
order, so a :class:`~repro.model.state.ModelState` snapshots into a compact
*packed* tuple by straight slot lookups - no per-state sorting, no
re-walking dict-of-dicts.  The packed form is canonical:

    pack(a) == pack(b)  <=>  a.canonical_key() == b.canonical_key()

for any two states over the schema's system, which is what lets the
exact visited store use it as a cheaper canonical key than
``canonical_key()``'s per-state sorting walk.

States are allowed to wander off-schema - a test may build a state with
devices the system never declared, or an app may grow an attribute the
spec does not list.  Those components land in sorted *overflow*
sections, so exactness is preserved at the price of the old sorting walk
for just the off-schema part.

The packed layout is a plain tuple

    (device_blocks, unknown_devices, mode, app_values, app_overflow,
     schedules, pending, cascade_commands)

where ``device_blocks[i]`` is the i-th schema device's self-contained
``(value_vector, extra_attributes)`` block (:data:`ABSENT`-padded vector,
``()`` extras in the common all-on-schema case, or :data:`ABSENT` itself
when the state has no entry for the device at all) and ``app_values[i]``
the frozen state map of the i-th schema app.  Every component of
``canonical_key()`` has its own slot or section, so the packed tuple
separates states exactly as the canonical key does.
"""


# the one frozen form shared with fingerprint()/canonical_key(): the
# exact store's contract depends on pack() freezing app state maps
# exactly the way the state module does
from repro.model.state import _freeze


class _Absent:
    """Singleton marking "no value in this slot" (distinct from None,
    which is a legal attribute value)."""

    __slots__ = ()

    def __repr__(self):
        return "<absent>"


#: slot filler for attributes/devices/apps missing from a state
ABSENT = _Absent()


class StateSchema:
    """The packed-state layout of one :class:`IoTSystem`."""

    __slots__ = ("device_layout", "app_names", "_app_index", "slot_count")

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

    # ------------------------------------------------------------------
    # packing
    # ------------------------------------------------------------------

    def pack(self, state):
        """The canonical packed tuple of one state (hashable).

        Reads the state's containers directly, without unsharing any of
        them (the schema lives in the same package and the walk never
        leaks a reference), so packing a state keeps its copy-on-write
        sharing intact.
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

    @staticmethod
    def _device_block(layout_entry, amap):
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

    def _unknown_devices(self, devices):
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
            blocks.append(self._device_block(entry, amap))
        overflow = self._unknown_devices(devices) if off_schema else ()
        return tuple(blocks), overflow

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

    def __repr__(self):
        return "StateSchema(devices=%d, slots=%d, apps=%d)" % (
            len(self.device_layout), self.slot_count, len(self.app_names))
