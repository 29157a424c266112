"""Cascade replay: run each distinct cascade once per search.

A cascade's outcome depends only on its external event, its failure
scenario and the values it reads from the model state: handlers are
deterministic, each handler run builds a fresh interpreter environment
and the monitor hooks read no state.  A scenario adds nothing else: a
dropped report or command and the delivery order depend on the
scenario alone, and the duplicate check and the stale value are read
from the state like any other value.  So two cascades of one event
label and scenario that read the same values at the same locations, in
the same order, write the same values, call the same monitor hooks and
record the same trace steps.  The steps need no argument of their own:
each step's text is a function of the event label, the scenario and
values the cascade read through the recording view (or computed from
them, as a handler's log message or a written value is), so equal
reads give equal text.

The lean relation (:meth:`LeanRelation._run_event
<repro.model.lean.LeanRelation>`) uses that on every sequential run:

* a cascade the trie cannot serve runs live against a
  :class:`RecordingState` view of its successor state and a
  :class:`RecordingMonitor`, which record its first reads, its writes,
  its monitor hooks and its trace steps as one :class:`Replay`;
* a :class:`ReplayTrie` files the record under its label (event label
  plus scenario label) and the values it read, in order;
* a later cascade of the label walks the trie, reading each location
  from its own successor state before any write, and on a match
  :meth:`Replay.apply` re-applies the record.

Read values are compared by :func:`exact_key`: type-tagged, with dict
insertion order kept.  A cascade that reads or writes anything else
(for example a device handle stored in an app's ``state``) is never
recorded and always runs live.
"""

from repro.model.state import ModelState

__all__ = [
    "RecordingMonitor",
    "RecordingState",
    "Replay",
    "ReplayTrie",
    "UnrecordedAccess",
    "Unreplayable",
    "exact_key",
]


class Unreplayable(Exception):
    """A value outside the plain data the replay key can compare exactly
    (the cascade still runs live; it is just never recorded)."""


class UnrecordedAccess(RuntimeError):
    """A cascade touched a :class:`ModelState` member the recording view
    does not expose, so the read would escape the replay key."""


def exact_key(value):
    """A hashable key equal for two values exactly when they are the
    same plain data: type-tagged (``1``, ``1.0`` and ``True`` differ),
    dict insertion order kept (app code may iterate it).  Raises
    :class:`Unreplayable` for any other type."""
    kind = type(value)
    if kind is str or value is None:
        return value
    if kind is int or kind is bool:
        return (kind, value)
    if kind is float:
        return (kind, value.hex())  # -0.0 and nan compare exactly
    if kind is tuple or kind is list:
        return (kind, tuple([exact_key(item) for item in value]))
    if kind is dict:
        return (kind, tuple([(exact_key(key), exact_key(item))
                             for key, item in value.items()]))
    raise Unreplayable(kind.__name__)


#: the key of an app that has no ``state`` map yet (distinct from every
#: :func:`exact_key` result, all of which are strings, None or pairs)
_ABSENT = ("absent",)


def _app_state_key(state, loc):
    mapping = state.app_state(loc[1])
    return _ABSENT if mapping is None else exact_key(mapping)


#: location kind -> ``fn(state, loc)`` giving the location's replay key
_PEEKS = {
    "attribute": lambda state, loc: exact_key(
        state.attribute(loc[1], loc[2])),
    "history": lambda state, loc: exact_key(state.device_history(loc[1])),
    "mode": lambda state, loc: exact_key(state.mode),
    "app_state": _app_state_key,
    "schedules": lambda state, loc: exact_key(state.schedules),
    "time": lambda state, loc: exact_key(state.time),
    "cascade_commands": lambda state, loc: exact_key(state.cascade_commands),
}

_set_mode = ModelState.mode.fset
_set_cascade_commands = ModelState.cascade_commands.fset


class Replay:
    """One recorded cascade, replayable onto any successor state whose
    first reads match its trie path.

    ``writes`` are ``(fn, args)`` calls of :class:`ModelState` methods
    in cascade order, ``calls`` the monitor's ``(on_*, args)`` hooks and
    ``steps`` the cascade's trace."""

    __slots__ = ("writes", "calls", "steps")

    def __init__(self, writes, calls, steps):
        self.writes = writes
        self.calls = calls
        self.steps = steps

    def apply(self, state, monitor):
        """Re-apply the writes to ``state`` and the hooks to a fresh
        ``monitor``; returns the cascade's recorded steps (shared, not
        copied: a trace is never mutated)."""
        for fn, args in self.writes:
            fn(state, *args)
        for name, args in self.calls:
            getattr(monitor, name)(*args)
        return self.steps


class _Probe:
    """An inner trie node: the next location every cascade reaching it
    reads, and one child per value read there."""

    __slots__ = ("loc", "peek", "children")

    def __init__(self, loc):
        self.loc = loc
        self.peek = _PEEKS[loc[0]]
        self.children = {}


class ReplayTrie:
    """One run's recorded cascades: event label, then each first read's
    :func:`exact_key`, in order, down to a :class:`Replay` leaf."""

    __slots__ = ("_roots",)

    def __init__(self):
        self._roots = {}

    def lookup(self, label, state):
        """The :class:`Replay` for a ``label`` cascade on ``state`` (a
        successor no write has touched yet), or ``None``."""
        node = self._roots.get(label)
        try:
            while node.__class__ is _Probe:
                node = node.children.get(node.peek(state, node.loc))
        except Unreplayable:
            return None
        return node

    def remember(self, label, reads, record):
        """File ``record`` under ``label`` and its ``(location, key)``
        reads; returns whether a new leaf was added."""
        parent, key = self._roots, label
        for loc, value in reads:
            node = parent.get(key)
            if node is None:
                node = parent[key] = _Probe(loc)
            elif node.__class__ is not _Probe or node.loc != loc:
                return False  # the paths disagree: keep the trie as it is
            parent, key = node.children, value
        if key in parent:
            return False
        parent[key] = record
        return True


class RecordingMonitor:
    """Forwards a cascade's ``on_*`` monitor hooks and records them."""

    __slots__ = ("_monitor", "calls")

    def __init__(self, monitor):
        self._monitor = monitor
        self.calls = []

    def __getattr__(self, name):
        if not name.startswith("on_"):
            raise UnrecordedAccess("monitor.%s is not recorded" % name)
        hook = getattr(self._monitor, name)
        calls = self.calls

        def record(*args):
            calls.append((name, args))
            return hook(*args)
        return record


class RecordingState:
    """A :class:`ModelState` view that records one cascade for replay.

    Exposes only the members a sequential cascade uses; any other access
    raises :class:`UnrecordedAccess`.  Every call goes through to the
    real state.  Alongside, the view keeps:

    * ``reads``: the first read of each location, in order, with its
      :func:`exact_key`.  An absolute write (an attribute, an app's
      ``state`` map, the mode, the command log) makes later reads of
      that location derived values, so they are not keyed.  A relative
      write (a history append, a schedule change) depends on the old
      value, so a later first read keys the value from before the
      write.
    * ``writes``: the mutator calls, replayable through the same
      :class:`ModelState` methods.

    The clock counts as read only when something reads it through the
    view: the cascade's own tick happens on the real state before the
    view exists.
    """

    __slots__ = ("_state", "reads", "_seen", "_originals", "_writes",
                 "_exotic")

    def __init__(self, state):
        self._state = state
        self.reads = []
        self._seen = set()
        self._originals = {}
        self._writes = []
        self._exotic = False

    def __getattr__(self, name):
        raise UnrecordedAccess("the recording view exposes no %r" % name)

    def _key(self, loc):
        try:
            return _PEEKS[loc[0]](self._state, loc)
        except Unreplayable:
            self._exotic = True
            return None

    def _read(self, loc):
        if loc not in self._seen:
            self._seen.add(loc)
            key = (self._originals.pop(loc) if loc in self._originals
                   else self._key(loc))
            self.reads.append((loc, key))

    def _write(self, loc, fn, args):
        if loc is not None:
            self._seen.add(loc)
        try:
            exact_key(args)
        except Unreplayable:
            self._exotic = True
        self._writes.append((fn, args))

    def _before_relative_write(self, loc):
        if loc not in self._seen and loc not in self._originals:
            self._originals[loc] = self._key(loc)

    # -- reads ---------------------------------------------------------

    def attribute(self, device_name, attribute):
        """:meth:`ModelState.attribute`, recorded."""
        self._read(("attribute", device_name, attribute))
        return self._state.attribute(device_name, attribute)

    def device_history(self, device_name):
        """:meth:`ModelState.device_history`, recorded."""
        self._read(("history", device_name))
        return self._state.device_history(device_name)

    @property
    def time(self):
        """The clock, recorded."""
        self._read(("time",))
        return self._state.time

    @property
    def schedules(self):
        """:attr:`ModelState.schedules`, recorded."""
        self._read(("schedules",))
        return self._state.schedules

    def app_state(self, app_name):
        """:meth:`ModelState.app_state`, recorded (keyed on the whole
        map)."""
        self._read(("app_state", app_name))
        return self._state.app_state(app_name)

    # -- reads and absolute writes ---------------------------------------

    @property
    def mode(self):
        """:attr:`ModelState.mode`, recorded."""
        self._read(("mode",))
        return self._state.mode

    @mode.setter
    def mode(self, value):
        self._write(("mode",), _set_mode, (value,))
        self._state.mode = value

    @property
    def cascade_commands(self):
        """:attr:`ModelState.cascade_commands`, recorded."""
        self._read(("cascade_commands",))
        return self._state.cascade_commands

    @cascade_commands.setter
    def cascade_commands(self, value):
        self._write(("cascade_commands",), _set_cascade_commands, (value,))
        self._state.cascade_commands = value

    def set_attribute(self, device_name, attribute, value):
        """:meth:`ModelState.set_attribute`, recorded."""
        self._write(("attribute", device_name, attribute),
                    ModelState.set_attribute, (device_name, attribute, value))
        self._state.set_attribute(device_name, attribute, value)

    def set_app_state(self, app_name, mapping):
        """:meth:`ModelState.set_app_state`, recorded."""
        self._write(("app_state", app_name), ModelState.set_app_state,
                    (app_name, mapping))
        self._state.set_app_state(app_name, mapping)

    # -- relative writes -------------------------------------------------

    def record_event(self, device_name, attribute, value):
        """:meth:`ModelState.record_event`, recorded."""
        self._before_relative_write(("history", device_name))
        self._write(None, ModelState.record_event,
                    (device_name, attribute, value))
        self._state.record_event(device_name, attribute, value)

    def add_schedule(self, app_name, handler, periodic=False):
        """:meth:`ModelState.add_schedule`, recorded."""
        self._before_relative_write(("schedules",))
        self._write(None, ModelState.add_schedule,
                    (app_name, handler, periodic))
        self._state.add_schedule(app_name, handler, periodic=periodic)

    def remove_schedule(self, app_name, handler=None):
        """:meth:`ModelState.remove_schedule`, recorded."""
        self._before_relative_write(("schedules",))
        self._write(None, ModelState.remove_schedule, (app_name, handler))
        self._state.remove_schedule(app_name, handler)

    # -- the record --------------------------------------------------------

    def record(self, calls, steps):
        """The finished cascade as a :class:`Replay`, or ``None`` when
        it read or wrote a value :func:`exact_key` cannot key."""
        try:
            for name, args in calls:
                if name == "on_command":
                    args = args[:-1]  # the device's static command effect
                exact_key(args)
        except Unreplayable:
            return None
        if self._exotic:
            return None
        return Replay(tuple(self._writes), tuple(calls), tuple(steps))
