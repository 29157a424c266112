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

    An invariant is written as a *binder*: ``binder(binding)`` resolves
    the roles, thresholds and mode names it needs through this object,
    once, and returns a check ``check(state) -> True/False/None`` that
    reads nothing but ``state.attribute()`` and ``state.mode``.  Every
    ``(device, attribute)`` pair the binding hands out is registered, so
    :meth:`bind` returns each check with the exact pairs it can read.

    The atoms several invariants share (``nobody_home``, ``smoke``, ...)
    are built once per binding by :meth:`atom`; a check that uses one
    declares the atom's pairs too.
    """

    def __init__(self, system):
        self.system = system
        self.away_mode = system.away_mode
        self.home_mode = system.home_mode
        self.night_mode = system.night_mode
        # the pairs registered by the binder now running
        self._reads = set()
        self._atoms = {}

    def bind(self, binder):
        """``(check, reads)``: the check ``binder`` builds over this
        binding and the frozenset of ``(device, attribute)`` pairs it
        can read."""
        outer, self._reads = self._reads, set()
        try:
            check = binder(self)
            reads = frozenset(self._reads)
        finally:
            self._reads = outer
        return check, reads

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

    def any_equals(self, role, attribute, value):
        """``state -> bool``: some device of ``role`` has ``attribute``
        equal to ``value`` (``False`` when the role is unbound)."""
        names = self.devices(role, attribute)
        if len(names) == 1:
            (name,) = names
            return lambda state: state.attribute(name, attribute) == value

        def check(state):
            for name in names:
                if state.attribute(name, attribute) == value:
                    return True
            return False
        return check

    def all_equal(self, role, attribute, value):
        """``state -> bool|None``: every device of ``role`` has
        ``attribute`` equal to ``value`` (``None`` when the role is
        unbound)."""
        names = self.devices(role, attribute)
        if not names:
            return _unknown
        if len(names) == 1:
            (name,) = names
            return lambda state: state.attribute(name, attribute) == value

        def check(state):
            for name in names:
                if state.attribute(name, attribute) != value:
                    return False
            return True
        return check

    def none_equal(self, role, attribute, value):
        """``state -> bool|None``: no device of ``role`` has
        ``attribute`` equal to ``value`` (``None`` when the role is
        unbound)."""
        if not self.system.role_list(role):
            return _unknown
        some = self.any_equals(role, attribute, value)
        return lambda state: not some(state)

    def atom(self, name):
        """The shared atom ``name`` (see ``_ATOMS``), built on first use;
        its reads join those of the binder now running."""
        entry = self._atoms.get(name)
        if entry is None:
            entry = self._atoms[name] = self.bind(_ATOMS[name])
        self._reads |= entry[1]
        return entry[0]


def _unknown(state):
    return None


def _bind_nobody_home(binding):
    """True/False from presence sensors; ``None`` when unknowable."""
    return binding.all_equal("presence_sensors", "presence", "not present")


def _bind_somebody_home(binding):
    away = binding.atom("nobody_home")

    def check(state):
        nobody = away(state)
        if nobody is None:
            return None
        return not nobody
    return check


def _bind_intrusion(binding):
    """Contact opens or motion while the home is in Away mode."""
    away_mode = binding.away_mode
    contact = binding.any_equals("entry_contacts", "contact", "open")
    motion = binding.any_equals("motion_sensors", "motion", "active")

    def check(state):
        if state.mode != away_mode:
            return False
        return contact(state) or motion(state)
    return check


def _bind_temperature(binding):
    sensor = binding.device("temp_sensor", "temperature")
    return lambda state: number(state.attribute(sensor, "temperature"))


_ATOMS = {
    "nobody_home": _bind_nobody_home,
    "somebody_home": _bind_somebody_home,
    "smoke": lambda binding: binding.any_equals(
        "smoke_detectors", "smoke", "detected"),
    "co": lambda binding: binding.any_equals(
        "co_detectors", "carbonMonoxide", "detected"),
    "leak": lambda binding: binding.any_equals(
        "water_sensors", "water", "wet"),
    "intrusion": _bind_intrusion,
    "temperature": _bind_temperature,
}


class InvariantProperty(SafetyProperty):
    """A safe-physical-state property: an LTL ``G``-invariant.

    ``binder(binding)`` takes a :class:`SystemBinding` and returns the
    check ``check(state) -> True`` (holds), ``False`` (violated) or
    ``None`` (not applicable in this state, treated as holding).
    ``roles`` lists the association roles the check reads - the property
    only applies to systems where all of them are bound.
    """

    def __init__(self, id, name, category, description, binder,  # noqa: A002
                 roles=(), ltl=None, triggers=()):
        super().__init__(id, name, category, KIND_INVARIANT, description, ltl=ltl)
        self.binder = binder
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

    def holds(self, state, system):
        """Evaluate on one (quiescent) state, binding from scratch (the
        engine binds once per system through
        :class:`~repro.checker.compiled.CompiledProperties`)."""
        check, _reads = SystemBinding(system).bind(self.binder)
        return check(state) is not False
