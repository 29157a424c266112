"""Compiled property evaluation: partition once, memoize invariant verdicts.

A :class:`~repro.checker.monitor.SafetyMonitor` lives for exactly one
transition, but the work its constructor and invariant sweep do is almost
entirely a function of the *system*, not of the transition:

* partitioning the property list into monitored kinds and applicable
  invariants re-runs ``applicable()`` (role lookups) per transition;
* evaluating the invariants on the quiescent state re-resolves every role
  device handle and threshold per transition, even though most transitions
  land on a physical state that was already checked.

:class:`CompiledProperties` is built once per exploration engine and shared
by every monitor the engine creates.  It partitions the properties a single
time and memoizes invariant verdicts keyed by the state's
:meth:`~repro.model.state.ModelState.physical_key` - the projection
(device attributes + location mode) that invariant predicates read.  The
memo carries the same ~2^-64 per-pair hash-collision caveat as the
fingerprint visited store; results are bit-identical in practice and the
exact evaluation path remains available by constructing monitors without a
compiled set.
"""

from repro.properties.base import KIND_INVARIANT


class CompiledProperties:
    """Per-system compiled property set shared across cascades.

    ``memoize=False`` keeps the shared partition but evaluates every
    invariant exactly on every quiescent state - the engine selects this
    for the ``exact`` visited store, whose contract is "no hash-collision
    shortcuts anywhere".
    """

    __slots__ = ("system", "invariants", "by_kind", "memoize", "_verdicts",
                 "memo_hits", "memo_misses")

    def __init__(self, system, properties, memoize=True):
        self.system = system
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
        #: physical_key -> tuple of indices of violated invariants
        self._verdicts = {}
        self.memo_hits = 0
        self.memo_misses = 0

    def failed_invariants(self, state):
        """The invariants violated by a quiescent state (memoized)."""
        if not self.memoize:
            system = self.system
            return [prop for prop in self.invariants
                    if not prop.holds(state, system)]
        failed = self.failed_indices(state.physical_key(), state)
        if not failed:
            return ()
        invariants = self.invariants
        return [invariants[index] for index in failed]

    def failed_indices(self, key, view):
        """Indices of the invariants violated by the quiescent state
        whose :meth:`~repro.model.state.ModelState.physical_key` is
        ``key``.  On a memo miss the predicates run on ``view``: the
        state itself or any object answering ``attribute()`` and
        ``mode`` for it, such as a :class:`ReplacedAttribute`."""
        failed = self._verdicts.get(key)
        if failed is None:
            system = self.system
            failed = tuple(
                index for index, prop in enumerate(self.invariants)
                if not prop.holds(view, system))
            self._verdicts[key] = failed
            self.memo_misses += 1
        else:
            self.memo_hits += 1
        return failed

    def stats(self):
        return {"invariant_memo_hits": self.memo_hits,
                "invariant_memo_misses": self.memo_misses,
                "invariant_states": len(self._verdicts)}


class ReplacedAttribute:
    """A state with one device attribute replaced, as the invariants see it.

    Exposes only ``attribute()`` and ``mode`` - the two members every
    invariant predicate reads, and what the verdict memo's physical key
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
