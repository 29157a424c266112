"""Compiled property evaluation: bind once, memoize invariant verdicts.

A :class:`~repro.checker.monitor.SafetyMonitor` lives for exactly one
transition, but the work its property handling does is almost entirely a
function of the *system*, not of the transition.
:class:`CompiledProperties` is built once per exploration engine and
shared by every monitor the engine creates:

* it partitions the properties into monitored kinds and applicable
  invariants a single time;
* it binds each applicable invariant's formula once, through one
  :class:`~repro.properties.base.SystemBinding`, to a check over
  constants (device names, thresholds, mode names) and records the
  ``(device, attribute)`` pairs that check can read; the union is
  :attr:`CompiledProperties.reads`;
* it resolves each invariant's role devices and *obligation apps* (the
  apps bound to its role actuators) once, for the monitor and the
  engine to attribute violations with;
* with ``memoize`` on, it memoizes the bound checks' verdicts keyed by
  the state's :meth:`~repro.model.state.ModelState.physical_key` - the
  projection (device attributes + location mode) that the checks read.
  The memo carries the same ~2^-64 per-pair hash-collision caveat as the
  fingerprint visited store.

:attr:`~CompiledProperties.reads` lets the lean relation
(:meth:`repro.model.lean.LeanRelation.transitions`) skip the verdict
altogether: a quiet sensor event writing a pair outside it cannot change
what any check returns, so its successor inherits the parent's verdict
(counted in ``invariant_inherited``).  With ``memoize`` off - the
``exact`` store's setting - every check runs on every quiescent state
and nothing is inherited.
"""

from repro.properties.base import KIND_INVARIANT, SystemBinding


class CompiledProperties:
    """Per-system compiled property set shared across cascades.

    ``memoize=False`` keeps the shared partition and the bound checks but
    evaluates every invariant on every quiescent state - the engine
    selects this for the ``exact`` visited store, whose contract is "no
    hash-collision shortcuts anywhere", and a monitor built without a
    compiled set uses it too.
    """

    __slots__ = ("invariants", "by_kind", "memoize", "reads",
                 "role_devices", "obligation_apps", "_checks", "_verdicts",
                 "memo_hits", "memo_misses", "inherited")

    def __init__(self, system, properties, memoize=True):
        self.memoize = memoize
        self.invariants = []
        self.by_kind = {}
        for prop in properties:
            if not prop.applicable(system):
                continue
            if prop.kind == KIND_INVARIANT:
                self.invariants.append(prop)
            else:
                self.by_kind[prop.kind] = prop
        binding = SystemBinding(system)
        checks = []
        reads = set()
        #: invariant -> the frozenset of its installed role devices
        self.role_devices = {}
        #: invariant -> the apps bound to its role actuators, in install
        #: order: who an obligation falls on when no app acted
        self.obligation_apps = {}
        app_devices = [(app.name, {name for input_name in app.binding_names()
                                   for name in app.bound_devices(input_name)})
                       for app in system.apps]
        for prop in self.invariants:
            check, prop_reads = binding.bind(prop.formula)
            checks.append(check)
            reads |= prop_reads
            devices, actuators = prop.role_devices(system)
            self.role_devices[prop] = devices
            apps = []
            for app_name, bound in app_devices:
                if app_name not in apps and not bound.isdisjoint(actuators):
                    apps.append(app_name)
            self.obligation_apps[prop] = tuple(apps)
        self._checks = checks
        #: every ``(device, attribute)`` pair some bound check can read
        self.reads = frozenset(reads)
        #: physical_key -> tuple of indices of violated invariants
        self._verdicts = {}
        self.memo_hits = 0
        self.memo_misses = 0
        #: quiet events whose successor took its parent's verdict
        #: (counted by the relation that inherits it)
        self.inherited = 0

    def failed_invariants(self, state):
        """The invariants violated by a quiescent state (memoized)."""
        if not self.memoize:
            return [self.invariants[index]
                    for index in self._evaluate(state)]
        failed = self.failed_indices(state.physical_key(), state)
        if not failed:
            return ()
        invariants = self.invariants
        return [invariants[index] for index in failed]

    def failed_indices(self, key, view):
        """Indices of the invariants violated by the quiescent state
        whose :meth:`~repro.model.state.ModelState.physical_key` is
        ``key``.  On a memo miss the checks run on ``view``: the state
        itself or any object answering ``attribute()`` and ``mode`` for
        it, such as a :class:`ReplacedAttribute`."""
        failed = self._verdicts.get(key)
        if failed is None:
            failed = self._verdicts[key] = self._evaluate(view)
            self.memo_misses += 1
        else:
            self.memo_hits += 1
        return failed

    def _evaluate(self, view):
        """Indices of the bound checks that return ``False`` on ``view``."""
        failed = []
        for index, check in enumerate(self._checks):
            if check(view) is False:
                failed.append(index)
        return tuple(failed)

    def stats(self):
        return {"invariant_memo_hits": self.memo_hits,
                "invariant_memo_misses": self.memo_misses,
                "invariant_states": len(self._verdicts),
                "invariant_inherited": self.inherited}


class ReplacedAttribute:
    """A state with one device attribute replaced, as the invariants see it.

    Exposes only ``attribute()`` and ``mode`` - the two members every
    bound invariant check reads, and what the verdict memo's physical key
    projects onto - so anything else raises ``AttributeError`` instead
    of reading the parent's value.
    """

    __slots__ = ("_state", "_device", "_attribute", "_value")

    def __init__(self, state, device_name, attribute, value):
        self._state = state
        self._device = device_name
        self._attribute = attribute
        self._value = value

    def attribute(self, device_name, attribute):
        if device_name == self._device and attribute == self._attribute:
            return self._value
        return self._state.attribute(device_name, attribute)

    @property
    def mode(self):
        return self._state.mode
