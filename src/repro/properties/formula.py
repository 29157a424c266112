"""The invariant formula language: one definition, three readings.

Every safe-physical-state invariant (Table 4, Table 9) is written once,
as a small formula tree over *role-bound atoms* - propositions about the
devices that play an association role, the location mode, or a
temperature or humidity reading.  The same tree gives:

* the **check** the engine runs: ``SystemBinding.bind(formula)`` resolves
  roles, thresholds and mode names once per system and returns
  ``check(state) -> True/False/None`` with the ``(device, attribute)``
  pairs it can read (each node's :meth:`Formula.bind`);
* the **LTL text** (``str(formula)``), Spin syntax over atom names, which
  the catalog, the result JSON and the service digest carry as
  ``prop.ltl`` - so a change to an invariant's semantics changes its
  text;
* the **Promela**: one ``#define`` per atom (:meth:`Atom.expression`,
  over the emitted model's own globals) and the ``ltl`` block, the
  formula text itself (:mod:`repro.translator.promela`).

Semantics are three-valued, as the checks always were: a node returns
``True``, ``False`` or ``None`` (unknowable, e.g. no temperature
reading).  A guard holds only when it ``is True``; only a check that
returns ``False`` is a violation.  ``And``/``Or``/``Not`` follow Kleene's
tables, ``Implies(guard, body)`` is ``body`` when the guard is ``True``
and ``None`` otherwise, and ``Always`` marks the invariant (its check is
its operand's: the engine evaluates it on every quiescent state).

Atom names contain an underscore.  The emitter's mtype symbols are
alphanumeric, so no ``#define`` of an atom can rename one.
"""

from repro.properties.base import number


class Formula:
    """A node of an invariant formula.

    ``bind(binding)`` returns the node's check over one
    :class:`~repro.properties.base.SystemBinding` (children are bound
    through ``binding.bound`` so shared nodes bind once per system);
    ``str()`` is its LTL text; :meth:`promela` its Promela expression
    over atom names; ``_children()`` its operands.  ``total`` nodes
    never return ``None``, which lets their parents bind to plain
    ``and``/``or``/``not``.
    """

    __slots__ = ()
    total = False

    def bind(self, binding):
        """The node's check over ``binding``: ``state -> True/False/None``."""
        raise NotImplementedError

    def promela(self):
        """The node as a Promela expression over atom names."""
        raise NotImplementedError

    def _children(self):
        return ()

    def atoms(self):
        """The atoms the formula uses, each once, an atom's own atoms
        before it."""
        found = {}
        self._collect(found)
        return list(found)

    def _collect(self, found):
        for child in self._children():
            child._collect(found)


def _wrap(node, text):
    return text if isinstance(node, (Atom, Not, Always)) else "(%s)" % text


# ---------------------------------------------------------------------------
# connectives
# ---------------------------------------------------------------------------


class Not(Formula):
    """``!operand``."""

    __slots__ = ("operand", "total")

    def __init__(self, operand):
        self.operand = operand
        self.total = operand.total

    def _children(self):
        return (self.operand,)

    def bind(self, binding):
        """Negation; ``None`` stays ``None``."""
        operand = binding.bound(self.operand)
        if self.total:
            return lambda state: not operand(state)

        def check(state):
            value = operand(state)
            return None if value is None else not value
        return check

    def __str__(self):
        return "!" + _wrap(self.operand, str(self.operand))

    def promela(self):
        """``!operand``."""
        return "!" + _wrap(self.operand, self.operand.promela())


class _Junction(Formula):
    """``And``/``Or`` over two or more operands (Kleene semantics)."""

    __slots__ = ("operands", "total")
    symbol = "?"

    def __init__(self, *operands):
        self.operands = operands
        self.total = all(operand.total for operand in operands)

    def _children(self):
        return self.operands

    def __str__(self):
        return (" %s " % self.symbol).join(
            _wrap(operand, str(operand)) for operand in self.operands)

    def promela(self):
        """The operands joined by ``&&``/``||``."""
        return (" %s " % self.symbol).join(
            _wrap(operand, operand.promela()) for operand in self.operands)


class And(_Junction):
    """False when some operand is False, True when all are True."""

    __slots__ = ()
    symbol = "&&"

    def bind(self, binding):
        """Kleene conjunction of the operands' checks."""
        operands = tuple(binding.bound(operand) for operand in self.operands)
        if self.total and len(operands) == 2:
            left, right = operands
            return lambda state: left(state) and right(state)

        def check(state):
            result = True
            for operand in operands:
                value = operand(state)
                if value is False:
                    return False
                if value is None:
                    result = None
            return result
        return check


class Or(_Junction):
    """True when some operand is True, False when all are False."""

    __slots__ = ()
    symbol = "||"

    def bind(self, binding):
        """Kleene disjunction of the operands' checks."""
        operands = tuple(binding.bound(operand) for operand in self.operands)
        if self.total and len(operands) == 2:
            left, right = operands
            return lambda state: left(state) or right(state)

        def check(state):
            result = False
            for operand in operands:
                value = operand(state)
                if value is True:
                    return True
                if value is None:
                    result = None
            return result
        return check


class Implies(Formula):
    """``guard -> body``: the body's value where the guard is True,
    ``None`` (holds) elsewhere."""

    __slots__ = ("guard", "body")

    def __init__(self, guard, body):
        self.guard = guard
        self.body = body

    def _children(self):
        return (self.guard, self.body)

    def bind(self, binding):
        """The body's check where the guard's is True, else ``None``."""
        guard = binding.bound(self.guard)
        body = binding.bound(self.body)
        return lambda state: body(state) if guard(state) is True else None

    def __str__(self):
        return "%s -> %s" % (_wrap(self.guard, str(self.guard)),
                             _wrap(self.body, str(self.body)))


class Always(Formula):
    """``[] operand``: the invariant, checked on every quiescent state."""

    __slots__ = ("operand",)

    def __init__(self, operand):
        self.operand = operand

    def _children(self):
        return (self.operand,)

    def bind(self, binding):
        """The operand's check: the engine runs it on every quiescent state."""
        return binding.bound(self.operand)

    def __str__(self):
        return "[] " + _wrap(self.operand, str(self.operand))


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------


class Atom(Formula):
    """A named proposition: its name is its LTL text and the name of its
    Promela ``#define``, whose body is :meth:`expression`."""

    __slots__ = ("name",)

    def __init__(self, name):
        if "_" not in name:
            raise ValueError("atom name %r needs an underscore" % name)
        self.name = name

    def __str__(self):
        return self.name

    def promela(self):
        """The atom's name, which its ``#define`` gives a meaning."""
        return self.name

    def expression(self, binding, model):
        """The Promela body of the atom's ``#define`` for the system of
        ``binding``; ``model`` renders device attributes
        (``model.attribute(device, attribute)``), mtype symbols
        (``model.symbol(value)``) and numbers (``model.number(value)``)."""
        raise NotImplementedError

    def _collect(self, found):
        super()._collect(found)
        found.setdefault(self)


class Device(Atom):
    """The device playing ``role`` (the first, for a list) has
    ``attribute`` ``==``/``!=`` a value, or ``in`` a tuple of values."""

    __slots__ = ("role", "attribute", "op", "value")
    total = True

    def __init__(self, name, role, attribute, op, value):
        super().__init__(name)
        self.role = role
        self.attribute = attribute
        self.op = op
        self.value = value

    def bind(self, binding):
        """One comparison of the role device's attribute."""
        attribute, value = self.attribute, self.value
        device = binding.device(self.role, attribute)
        if self.op == "==":
            return lambda state: state.attribute(device, attribute) == value
        if self.op == "!=":
            return lambda state: state.attribute(device, attribute) != value
        return lambda state: state.attribute(device, attribute) in value

    def expression(self, binding, model):
        """The device's global compared with the value's mtype symbol."""
        ref = model.attribute(binding.device(self.role, self.attribute),
                              self.attribute)
        if self.op == "in":
            return " || ".join("%s == %s" % (ref, model.symbol(value))
                               for value in self.value)
        return "%s %s %s" % (ref, self.op, model.symbol(self.value))


class AnyOf(Atom):
    """Some device of ``role`` has ``attribute == value`` (False when the
    role is unbound)."""

    __slots__ = ("role", "attribute", "value")
    total = True
    #: the Promela junction of the per-device comparisons and its value
    #: over no devices
    _junction, _empty = " || ", "false"

    def __init__(self, name, role, attribute, value):
        super().__init__(name)
        self.role = role
        self.attribute = attribute
        self.value = value

    def bind(self, binding):
        """True when some role device matches; False when none do or none is
        bound."""
        attribute, value = self.attribute, self.value
        names = binding.devices(self.role, attribute)
        if len(names) == 1:
            (name,) = names
            return lambda state: state.attribute(name, attribute) == value

        def check(state):
            for name in names:
                if state.attribute(name, attribute) == value:
                    return True
            return False
        return check

    def expression(self, binding, model):
        """The per-device comparisons joined by ``||``."""
        return self._junction.join(
            "%s == %s" % (model.attribute(name, self.attribute),
                          model.symbol(self.value))
            for name in binding.devices(self.role, self.attribute)
        ) or self._empty


class AllOf(AnyOf):
    """Every device of ``role`` has ``attribute == value`` (None when the
    role is unbound)."""

    __slots__ = ()
    total = False
    _junction, _empty = " && ", "true"

    def bind(self, binding):
        """True when every role device matches; None when none is bound."""
        attribute, value = self.attribute, self.value
        names = binding.devices(self.role, attribute)
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


class NoneOf(AnyOf):
    """No device of ``role`` has ``attribute == value`` (None when the
    role is unbound)."""

    __slots__ = ()
    total = False

    def bind(self, binding):
        """True when no role device matches; None when none is bound."""
        if not binding.devices(self.role, self.attribute):
            return _unknown
        some = AnyOf.bind(self, binding)
        return lambda state: not some(state)

    def expression(self, binding, model):
        """The negated ``||`` of the per-device comparisons."""
        return "!(%s)" % AnyOf.expression(self, binding, model)


def _unknown(state):
    return None


class Mode(Atom):
    """The location mode is the system's ``away``, ``home`` or ``night``
    mode (names come from the association, defaults Away/Home/Night)."""

    __slots__ = ("mode",)
    total = True

    def __init__(self, name, mode):
        super().__init__(name)
        self.mode = mode

    def _target(self, binding):
        return getattr(binding, self.mode + "_mode")

    def bind(self, binding):
        """The location mode equals the system's mode name."""
        target = self._target(binding)
        return lambda state: state.mode == target

    def expression(self, binding, model):
        """``location.mode`` against the mode's mtype symbol."""
        return "location.mode == %s" % model.symbol(self._target(binding))


class Reading(Atom):
    """A numeric term: ``attribute`` of the device playing ``role``, as
    a number (None without a numeric reading).  Used by
    :class:`Threshold`, never as a proposition."""

    __slots__ = ("role", "attribute")

    def __init__(self, name, role, attribute):
        super().__init__(name)
        self.role = role
        self.attribute = attribute

    def bind(self, binding):
        """The reading as a number, None when absent or not numeric."""
        attribute = self.attribute
        device = binding.device(self.role, attribute)
        return lambda state: number(state.attribute(device, attribute))

    def expression(self, binding, model):
        """The device's global."""
        return model.attribute(binding.device(self.role, self.attribute),
                               self.attribute)


class Threshold(Atom):
    """A :class:`Reading` at or above (``>=``) or at or below (``<=``)
    the association value ``role`` (``default`` when unset); None
    without a reading."""

    __slots__ = ("term", "op", "role", "default")

    def __init__(self, name, term, op, role, default):
        super().__init__(name)
        self.term = term
        self.op = op
        self.role = role
        self.default = default

    def _children(self):
        return (self.term,)

    def bind(self, binding):
        """The reading against the resolved threshold; None without a
        reading."""
        value = binding.bound(self.term)
        limit = binding.threshold(self.role, self.default)
        if self.op == ">=":
            def check(state):
                reading = value(state)
                return None if reading is None else not reading < limit
        else:
            def check(state):
                reading = value(state)
                return None if reading is None else not reading > limit
        return check

    def expression(self, binding, model):
        """The reading's name against the threshold's value."""
        return "%s %s %s" % (self.term.name, self.op, model.number(
            binding.threshold(self.role, self.default)))


class InRange(Atom):
    """Every numeric ``attribute`` reading of the devices of ``role``
    lies within the association values ``low``/``high`` (each a
    ``(role, default)`` pair); None when the role is unbound."""

    __slots__ = ("role", "attribute", "low", "high")

    def __init__(self, name, role, attribute, low, high):
        super().__init__(name)
        self.role = role
        self.attribute = attribute
        self.low = low
        self.high = high

    def bind(self, binding):
        """False when some numeric reading leaves the range."""
        attribute = self.attribute
        sensors = binding.devices(self.role, attribute)
        low = binding.threshold(*self.low)
        high = binding.threshold(*self.high)

        def check(state):
            if not sensors:
                return None
            for sensor in sensors:
                value = number(state.attribute(sensor, attribute))
                if value is not None and not (low <= value <= high):
                    return False
            return True
        return check

    def expression(self, binding, model):
        """A range test per sensor, joined by ``&&``."""
        low = model.number(binding.threshold(*self.low))
        high = model.number(binding.threshold(*self.high))
        ranges = []
        for name in binding.devices(self.role, self.attribute):
            ref = model.attribute(name, self.attribute)
            ranges.append("(%s <= %s && %s <= %s)" % (low, ref, ref, high))
        return " && ".join(ranges) or "true"


class Named(Atom):
    """A shared sub-formula under a name: one ``#define`` for it, one
    bound check per system."""

    __slots__ = ("formula", "total")

    def __init__(self, name, formula):
        super().__init__(name)
        self.formula = formula
        self.total = formula.total

    def _children(self):
        return (self.formula,)

    def bind(self, binding):
        """The named formula's check."""
        return binding.bound(self.formula)

    def expression(self, binding, model):
        """The named formula's Promela expression."""
        return self.formula.promela()


# ---------------------------------------------------------------------------
# the shared atoms
# ---------------------------------------------------------------------------

MODE_AWAY = Mode("mode_away", "away")
MODE_HOME = Mode("mode_home", "home")
MODE_NIGHT = Mode("mode_night", "night")

#: True/False from the presence sensors (None when none is bound)
NOBODY_HOME = AllOf("nobody_home", "presence_sensors", "presence",
                    "not present")
SOMEBODY_HOME = Named("somebody_home", Not(NOBODY_HOME))
SMOKE = AnyOf("smoke_detected", "smoke_detectors", "smoke", "detected")
CO = AnyOf("co_detected", "co_detectors", "carbonMonoxide", "detected")
LEAK = AnyOf("water_leak", "water_sensors", "water", "wet")
CONTACT_OPEN = AnyOf("contact_open", "entry_contacts", "contact", "open")
MOTION = AnyOf("motion_active", "motion_sensors", "motion", "active")
#: an entry contact opens or motion while the home is in Away mode
INTRUSION = Named("away_intrusion", And(MODE_AWAY, Or(CONTACT_OPEN, MOTION)))
TEMPERATURE = Reading("temp_reading", "temp_sensor", "temperature")
