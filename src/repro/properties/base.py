"""Property base classes, kinds, and the per-system invariant binding."""

KIND_INVARIANT = "invariant"
KIND_CONFLICT = "conflict"
KIND_REPEAT = "repeat"
KIND_LEAKAGE_HTTP = "leakage-http"
KIND_LEAKAGE_SMS = "leakage-sms"
KIND_SECURITY_CMD = "security-command"
KIND_FAKE_EVENT = "fake-event"
KIND_ROBUSTNESS = "robustness"


class SafetyProperty:
    """A verifiable safety property.

    Non-invariant kinds are *monitored*: the safety monitor raises them when
    the corresponding operation is observed (a conflicting command pair, an
    ``httpPost``, an ``unsubscribe``, ...).
    """

    def __init__(self, id, name, category, kind, description, ltl=None):  # noqa: A002
        self.id = id
        self.name = name
        self.category = category
        self.kind = kind
        self.description = description
        self.ltl = ltl

    def applicable(self, system):
        """Whether the system has the roles this property talks about."""
        return True

    def __repr__(self):
        return "SafetyProperty(%s, %r)" % (self.id, self.name)


def number(value, default=None):
    """``value`` as a float; ``default`` when absent or not numeric."""
    if value is None:
        return default
    try:
        return float(value)
    except (TypeError, ValueError):
        return default


class SystemBinding:
    """One system's invariant vocabulary, resolved to constants.

    An invariant is a formula (:mod:`repro.properties.formula`);
    :meth:`bind` resolves the roles, thresholds and mode names its nodes
    need through this object, once, and returns a check
    ``check(state) -> True/False/None`` that reads nothing but
    ``state.attribute()`` and ``state.mode``.  Every ``(device,
    attribute)`` pair the binding hands out is registered, so the check
    comes with the exact pairs it can read.

    Bound nodes are memoized per binding (:meth:`bound`): the atoms
    several invariants share (``nobody_home``, ``smoke_detected``, ...)
    bind once per system, and a check that uses one declares the atom's
    pairs too.
    """

    def __init__(self, system):
        self.system = system
        self.away_mode = system.away_mode
        self.home_mode = system.home_mode
        self.night_mode = system.night_mode
        # the pairs registered by the node now binding
        self._reads = set()
        # node -> (check, reads)
        self._bound = {}

    def bind(self, formula):
        """``(check, reads)``: the check of ``formula`` over this binding
        and the frozenset of ``(device, attribute)`` pairs it can read."""
        outer, self._reads = self._reads, set()
        try:
            check = self.bound(formula)
            reads = frozenset(self._reads)
        finally:
            self._reads = outer
        return check, reads

    def bound(self, node):
        """The check of ``node``, built on first use; its reads join
        those of the node now binding."""
        entry = self._bound.get(node)
        if entry is None:
            outer, self._reads = self._reads, set()
            try:
                check = node.bind(self)
                entry = self._bound[node] = (check, frozenset(self._reads))
            finally:
                self._reads = outer
        self._reads |= entry[1]
        return entry[0]

    def device(self, role, attribute):
        """The device playing ``role`` (the first of a list; ``None``
        when unbound), registered as read on ``attribute``."""
        name = self.system.role(role)
        self._reads.add((name, attribute))
        return name

    def devices(self, role, attribute):
        """Every device playing ``role``, each registered as read on
        ``attribute``."""
        names = tuple(self.system.role_list(role))
        self._reads.update((name, attribute) for name in names)
        return names

    def threshold(self, name, default):
        """The association value ``name`` as a number, else ``default``."""
        return number(self.system.role(name), default)


class InvariantProperty(SafetyProperty):
    """A safe-physical-state property: an LTL ``[]``-invariant.

    ``formula`` (:mod:`repro.properties.formula`) is the one definition:
    ``SystemBinding(system).bind(formula)`` gives the check
    ``check(state) -> True`` (holds), ``False`` (violated) or ``None``
    (not applicable in this state, treated as holding), and
    ``ltl = str(formula)`` is its text.  ``roles`` lists the association
    roles the property needs - it only applies to systems where all of
    them are bound.
    """

    def __init__(self, id, name, category, description, formula,  # noqa: A002
                 roles=(), triggers=()):
        super().__init__(id, name, category, KIND_INVARIANT, description,
                         ltl=str(formula))
        self.formula = formula
        self.roles = tuple(roles)
        #: sensor attributes whose events trigger the *obligation* this
        #: invariant states (empty for pure restrictions).  An obligation is
        #: only meaningful when some installed app reacts to the trigger -
        #: no app could discharge it otherwise.
        self.triggers = tuple(triggers)

    def applicable(self, system):
        for role in self.roles:
            if role == "@mode_app":
                if not system.changes_mode():
                    return False
            elif not system.has_role(role):
                return False
        return True

    def role_devices(self, system):
        """``(devices, actuators)``: frozensets of the installed devices
        playing this property's roles and of the actuators among them
        (role values that are not installed devices - thresholds, mode
        names - are left out)."""
        devices = frozenset(
            name for role in self.roles for name in system.role_list(role)
            if isinstance(name, str) and name in system.devices)
        return devices, frozenset(
            name for name in devices
            if system.devices[name].spec.is_actuator)

    def holds(self, state, system):
        """Evaluate on one (quiescent) state, binding from scratch (the
        engine binds once per system through
        :class:`~repro.checker.compiled.CompiledProperties`)."""
        check, _reads = SystemBinding(system).bind(self.formula)
        return check(state) is not False
