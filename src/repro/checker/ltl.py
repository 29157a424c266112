"""LTL safety fragment: parsing, finite-trace evaluation, never claims.

IotSan verifies the safe-physical-state properties "using linear temporal
logic (LTL)" (§8) and Spin turns each formula into a *never claim* that
watches for bad prefixes.  Our explorer checks invariants directly on
quiescent states, but this module provides the same LTL surface:

* :func:`parse` - parse Spin-style LTL text (``[]``, ``<>``, ``X``, ``U``,
  ``W``, ``->``, ``<->``, ``&&``, ``||``, ``!``) into a formula tree;
* :meth:`Formula.evaluate` - finite-trace (LTLf) semantics over a list of
  states, with atoms resolved through an atom table;
* :func:`bad_prefix` - the falsifier view: the first index at which a
  safety formula is already irrecoverably violated;
* :func:`never_claim` - render the Spin never claim for ``!formula``, the
  artifact Spin's ``ltl`` blocks compile to (used by the Promela emitter);
* :class:`AtomTable` - named state predicates (``nobody_home``,
  ``door_locked``, ...) bound to one system's device-association roles,
  mirroring how "the LTL format of the selected properties are
  automatically generated" from association info (§8).
"""

import re

from repro.properties import physical
from repro.properties.base import SystemBinding


class LTLSyntaxError(ValueError):
    """Raised when LTL text cannot be parsed."""


# ---------------------------------------------------------------------------
# formula tree
# ---------------------------------------------------------------------------


class Formula:
    """Base class for LTL formula nodes.

    ``evaluate(trace, index, atoms)`` implements finite-trace semantics:
    ``trace`` is a sequence of states, ``atoms`` maps atom names to
    ``predicate(state) -> bool``.
    """

    def evaluate(self, trace, index, atoms):
        raise NotImplementedError

    def holds_on(self, trace, atoms):
        """Evaluate the formula at the start of a finite trace."""
        return self.evaluate(trace, 0, atoms)

    def atoms(self):
        """The set of atom names mentioned in the formula."""
        names = set()
        self._collect_atoms(names)
        return names

    def _collect_atoms(self, names):
        for child in self.children():
            child._collect_atoms(names)

    def children(self):
        return ()

    def is_safety(self):
        """Syntactic safety check: no ``<>``/``U`` outside negation.

        The fragment ``[]``, ``X``, ``W``, boolean connectives over atoms is
        guaranteed safety; formulas outside it may still be safety but we
        answer conservatively (Spin would accept either; IotSan's 38
        physical-state properties are all plain ``[]`` invariants).
        """
        return self._is_safety(positive=True)

    def _is_safety(self, positive):
        return all(child._is_safety(positive) for child in self.children())

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__,) + self._key())

    def _key(self):
        return tuple(self.children())


class TrueFormula(Formula):
    def evaluate(self, trace, index, atoms):
        return True

    def _key(self):
        return ()

    def __str__(self):
        return "true"


class FalseFormula(Formula):
    def evaluate(self, trace, index, atoms):
        return False

    def _key(self):
        return ()

    def __str__(self):
        return "false"


class Atom(Formula):
    """A named state predicate, e.g. ``nobody_home``."""

    def __init__(self, name):
        self.name = name

    def evaluate(self, trace, index, atoms):
        predicate = atoms.get(self.name)
        if predicate is None:
            raise KeyError("unbound LTL atom %r" % self.name)
        result = predicate(trace[index])
        # three-valued predicates treat "unknowable" (None) as holding,
        # matching InvariantProperty.holds
        return result is not False

    def _collect_atoms(self, names):
        names.add(self.name)

    def _key(self):
        return (self.name,)

    def __str__(self):
        return self.name


class Not(Formula):
    def __init__(self, operand):
        self.operand = operand

    def evaluate(self, trace, index, atoms):
        return not self.operand.evaluate(trace, index, atoms)

    def children(self):
        return (self.operand,)

    def _is_safety(self, positive):
        return self.operand._is_safety(not positive)

    def __str__(self):
        return "!%s" % _wrap(self.operand)


class _Binary(Formula):
    symbol = "?"

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)

    def __str__(self):
        return "(%s %s %s)" % (self.left, self.symbol, self.right)


class And(_Binary):
    symbol = "&&"

    def evaluate(self, trace, index, atoms):
        return (self.left.evaluate(trace, index, atoms)
                and self.right.evaluate(trace, index, atoms))


class Or(_Binary):
    symbol = "||"

    def evaluate(self, trace, index, atoms):
        return (self.left.evaluate(trace, index, atoms)
                or self.right.evaluate(trace, index, atoms))


class Implies(_Binary):
    symbol = "->"

    def evaluate(self, trace, index, atoms):
        return (not self.left.evaluate(trace, index, atoms)
                or self.right.evaluate(trace, index, atoms))

    def _is_safety(self, positive):
        return (self.left._is_safety(not positive)
                and self.right._is_safety(positive))


class Iff(_Binary):
    symbol = "<->"

    def evaluate(self, trace, index, atoms):
        return (self.left.evaluate(trace, index, atoms)
                == self.right.evaluate(trace, index, atoms))

    def _is_safety(self, positive):
        # p <-> q mixes polarities; conservative only if both sides are
        # state predicates (no temporal operators)
        return not _has_temporal(self.left) and not _has_temporal(self.right)


class Always(Formula):
    """``[] p``: p holds at every position of the (finite) trace."""

    def __init__(self, operand):
        self.operand = operand

    def evaluate(self, trace, index, atoms):
        return all(self.operand.evaluate(trace, i, atoms)
                   for i in range(index, len(trace)))

    def children(self):
        return (self.operand,)

    def __str__(self):
        return "[] %s" % _wrap(self.operand)


class Eventually(Formula):
    """``<> p`` on a finite trace: p holds at some remaining position.

    Under *falsification* a finite trace can only ever witness the negation
    of a liveness obligation, never prove it; IotSan uses this shape for
    the robustness property (``[] (dropped -> <> notified)``) where the end
    of the cascade bounds the obligation.
    """

    def __init__(self, operand):
        self.operand = operand

    def evaluate(self, trace, index, atoms):
        return any(self.operand.evaluate(trace, i, atoms)
                   for i in range(index, len(trace)))

    def children(self):
        return (self.operand,)

    def _is_safety(self, positive):
        return self.operand._is_safety(positive) and not positive

    def __str__(self):
        return "<> %s" % _wrap(self.operand)


class Next(Formula):
    """``X p``: weak next on finite traces (vacuously true at the end)."""

    def __init__(self, operand):
        self.operand = operand

    def evaluate(self, trace, index, atoms):
        if index + 1 >= len(trace):
            return True
        return self.operand.evaluate(trace, index + 1, atoms)

    def children(self):
        return (self.operand,)

    def __str__(self):
        return "X %s" % _wrap(self.operand)


class Until(_Binary):
    """``p U q`` (strong until)."""

    symbol = "U"

    def evaluate(self, trace, index, atoms):
        for k in range(index, len(trace)):
            if self.right.evaluate(trace, k, atoms):
                return all(self.left.evaluate(trace, j, atoms)
                           for j in range(index, k))
        return False

    def _is_safety(self, positive):
        return (self.left._is_safety(positive)
                and self.right._is_safety(positive) and not positive)


class WeakUntil(_Binary):
    """``p W q``: until, or p forever - the safety flavour of until."""

    symbol = "W"

    def evaluate(self, trace, index, atoms):
        for k in range(index, len(trace)):
            if self.right.evaluate(trace, k, atoms):
                return all(self.left.evaluate(trace, j, atoms)
                           for j in range(index, k))
        return all(self.left.evaluate(trace, j, atoms)
                   for j in range(index, len(trace)))


def _wrap(formula):
    if isinstance(formula, (Atom, TrueFormula, FalseFormula, Not)):
        return str(formula)
    return "(%s)" % formula


def _has_temporal(formula):
    if isinstance(formula, (Always, Eventually, Next, Until, WeakUntil)):
        return True
    return any(_has_temporal(child) for child in formula.children())


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(\[\]|<>|<->|->|&&|\|\||==|!=|>=|<=|>|<|!|\(|\)|U\b|W\b|X\b|G\b|F\b"
    r"|[A-Za-z_][A-Za-z0-9_]*|\d+(?:\.\d+)?)")

#: comparison operators folded into composite atoms ("temp >= TEMP_HIGH")
_COMPARATORS = ("==", "!=", ">=", "<=", ">", "<")

#: word-operator aliases accepted on input (Spin accepts both spellings)
_ALIASES = {"G": "[]", "F": "<>", "always": "[]", "eventually": "<>",
            "and": "&&", "or": "||", "not": "!", "implies": "->"}


def _tokenize(text):
    tokens = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            remainder = text[position:].strip()
            if not remainder:
                break
            raise LTLSyntaxError("cannot tokenize LTL at %r" % remainder[:20])
        token = match.group(1)
        tokens.append(_ALIASES.get(token, token))
        position = match.end()
    return tokens


class _Parser:
    """Recursive-descent parser; precedence (loosest first):
    ``<->``, ``->``, ``||``, ``&&``, ``U``/``W``, unary (``[]  <> X !``)."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.position = 0

    def peek(self):
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def take(self):
        token = self.peek()
        self.position += 1
        return token

    def expect(self, token):
        got = self.take()
        if got != token:
            raise LTLSyntaxError("expected %r, got %r" % (token, got))

    def parse(self):
        formula = self.iff()
        if self.peek() is not None:
            raise LTLSyntaxError("trailing tokens after formula: %r"
                                 % self.peek())
        return formula

    def iff(self):
        left = self.implies()
        while self.peek() == "<->":
            self.take()
            left = Iff(left, self.implies())
        return left

    def implies(self):
        left = self.disjunction()
        if self.peek() == "->":   # right-associative
            self.take()
            return Implies(left, self.implies())
        return left

    def disjunction(self):
        left = self.conjunction()
        while self.peek() == "||":
            self.take()
            left = Or(left, self.conjunction())
        return left

    def conjunction(self):
        left = self.until()
        while self.peek() == "&&":
            self.take()
            left = And(left, self.until())
        return left

    def until(self):
        left = self.unary()
        while self.peek() in ("U", "W"):
            operator = self.take()
            right = self.unary()
            left = Until(left, right) if operator == "U" else WeakUntil(left, right)
        return left

    def unary(self):
        token = self.peek()
        if token == "[]":
            self.take()
            return Always(self.unary())
        if token == "<>":
            self.take()
            return Eventually(self.unary())
        if token == "X":
            self.take()
            return Next(self.unary())
        if token == "!":
            self.take()
            return Not(self.unary())
        if token == "(":
            self.take()
            inner = self.iff()
            self.expect(")")
            return inner
        if token == "true":
            self.take()
            return TrueFormula()
        if token == "false":
            self.take()
            return FalseFormula()
        if token is None:
            raise LTLSyntaxError("unexpected end of formula")
        if not re.match(r"[A-Za-z_][A-Za-z0-9_]*$|\d", token):
            raise LTLSyntaxError("unexpected token %r" % token)
        self.take()
        # fold "lhs >= rhs" into one composite atom; the atom table decides
        # what the comparison means for the bound system
        result = None
        lhs = token
        while self.peek() in _COMPARATORS:
            comparator = self.take()
            rhs = self.take()
            if rhs is None or rhs in _COMPARATORS or rhs in ("(", ")"):
                raise LTLSyntaxError("comparison missing right-hand side")
            atom = Atom("%s %s %s" % (lhs, comparator, rhs))
            result = atom if result is None else And(result, atom)
            lhs = rhs  # chained comparisons: a <= b <= c
        return result if result is not None else Atom(token)


def parse(text):
    """Parse Spin-style LTL text into a :class:`Formula`."""
    tokens = _tokenize(text)
    if not tokens:
        raise LTLSyntaxError("empty LTL formula")
    return _Parser(tokens).parse()


# ---------------------------------------------------------------------------
# falsification helpers
# ---------------------------------------------------------------------------


def bad_prefix(formula, trace, atoms):
    """The first index ``i`` such that ``trace[:i+1]`` already violates a
    safety formula, or ``None`` if the whole trace satisfies it.

    This is exactly what Spin's never claim detects: a finite prefix no
    extension of which can satisfy the formula.
    """
    for end in range(1, len(trace) + 1):
        if not formula.holds_on(trace[:end], atoms):
            return end - 1
    return None


def violates(formula, trace, atoms):
    """Whether the finite trace falsifies the formula."""
    return not formula.holds_on(trace, atoms)


# ---------------------------------------------------------------------------
# never claims (Spin artifact)
# ---------------------------------------------------------------------------


def never_claim(formula, comment=None):
    """Render a Spin never claim accepting the violations of ``formula``.

    Only the invariant shapes IotSan generates are supported exactly:
    ``[] p`` produces the canonical two-state claim; other safety formulas
    fall back to a monitor on the formula's one-step violation condition.
    """
    text = str(formula)
    header = "never {  /* !(%s) */" % (comment or text)
    if isinstance(formula, Always):
        condition = _promela_condition(Not(formula.operand))
        return "\n".join([
            header,
            "accept_init:",
            "    do",
            "    :: %s -> break" % condition,
            "    :: else",
            "    od",
            "}",
        ])
    condition = _promela_condition(Not(formula))
    return "\n".join([
        header,
        "accept_init:",
        "    do",
        "    :: %s -> break" % condition,
        "    :: else",
        "    od",
        "}",
    ])


def _promela_condition(formula):
    """A propositional Promela guard for the one-state part of a formula."""
    if isinstance(formula, Atom):
        return formula.name
    if isinstance(formula, TrueFormula):
        return "true"
    if isinstance(formula, FalseFormula):
        return "false"
    if isinstance(formula, Not):
        return "!(%s)" % _promela_condition(formula.operand)
    if isinstance(formula, And):
        return "(%s && %s)" % (_promela_condition(formula.left),
                               _promela_condition(formula.right))
    if isinstance(formula, Or):
        return "(%s || %s)" % (_promela_condition(formula.left),
                               _promela_condition(formula.right))
    if isinstance(formula, Implies):
        return "(!(%s) || %s)" % (_promela_condition(formula.left),
                                  _promela_condition(formula.right))
    # temporal subformulas have no one-state guard; approximate with their
    # textual form so the artifact stays readable
    return "(%s)" % formula


# ---------------------------------------------------------------------------
# atom tables
# ---------------------------------------------------------------------------


class AtomTable:
    """Named state predicates bound to one system.

    The builtin vocabulary covers the predicates the 38 physical-state
    properties read (presence, smoke/CO/leak detection, intrusion, modes,
    lock/valve/alarm roles, temperature thresholds).  Extra atoms can be
    registered with :meth:`define`.
    """

    def __init__(self, system):
        self.system = system
        #: the invariants' vocabulary: the physical atoms come from it
        self._binding = SystemBinding(system)
        self._atoms = {}
        self._install_builtins()

    # mapping protocol used by Formula.evaluate -----------------------------------

    def get(self, name):
        predicate = self._atoms.get(name)
        if predicate is None:
            predicate = self._resolve_derived(name)
            if predicate is not None:
                self._atoms[name] = predicate
        return predicate

    def __contains__(self, name):
        return name in self._atoms

    def names(self):
        return sorted(self._atoms)

    def define(self, name, predicate):
        """Register ``predicate(state) -> bool|None`` under ``name``."""
        self._atoms[name] = predicate
        return self

    # builtins ----------------------------------------------------------------

    def _install_builtins(self):
        system = self.system
        binding = self._binding
        for name, atom in (("nobody_home", "nobody_home"),
                           ("somebody_home", "somebody_home"),
                           ("smoke_detected", "smoke"),
                           ("co_detected", "co"),
                           ("water_leak", "leak"),
                           ("intrusion", "intrusion")):
            self._atoms[name] = binding.atom(atom)

        self._atoms["mode_away"] = lambda s: s.mode == system.away_mode
        self._atoms["mode_home"] = lambda s: s.mode == system.home_mode
        self._atoms["mode_night"] = lambda s: s.mode == system.night_mode

        self._role_attr_atom("door_locked", "main_door_lock", "lock", "locked")
        self._role_attr_atom("door_unlocked", "main_door_lock", "lock",
                             "unlocked")
        self._role_attr_atom("garage_closed", "garage_door", "door", "closed")
        self._role_attr_atom("valve_open", "water_valve", "valve", "open")
        self._role_attr_atom("heater_on", "heater_outlet", "switch", "on")
        self._role_attr_atom("ac_on", "ac_outlet", "switch", "on")

        def alarm_sounding(state):
            device = system.role("alarm") or system.role("siren")
            if device is None:
                return None
            return state.attribute(device, "alarm") in ("strobe", "siren",
                                                        "both")
        self._atoms["alarm_sounding"] = alarm_sounding

        temperature = binding.atom("temperature")

        def temp_below_low(state):
            temp = temperature(state)
            if temp is None:
                return None
            low = system.role("temp_low") or physical.TEMP_LOW
            return temp < float(low)

        def temp_above_high(state):
            temp = temperature(state)
            if temp is None:
                return None
            high = system.role("temp_high") or physical.TEMP_HIGH
            return temp > float(high)

        self._atoms["temp_below_low"] = temp_below_low
        self._atoms["temp_above_high"] = temp_above_high

    # derived atoms -------------------------------------------------------------

    def _resolve_derived(self, name):
        """Resolve composite ("temp >= TEMP_HIGH") and negated ("heater_off")
        atom names on demand."""
        match = re.match(
            r"([A-Za-z_][A-Za-z0-9_]*)\s*(==|!=|>=|<=|>|<)\s*(\S+)$", name)
        if match:
            return self._comparison(match.group(1), match.group(2),
                                    match.group(3))
        if name.endswith("_off"):
            positive = self.get(name[:-4] + "_on")
            if positive is not None:
                return lambda state: _negate(positive(state))
        if name == "home":
            return self._atoms.get("somebody_home")
        if name == "away":
            return self._atoms.get("nobody_home")
        return None

    def _comparison(self, lhs, comparator, rhs):
        left = self._term(lhs)
        right = self._term(rhs)
        if left is None or right is None:
            return None
        compare = _COMPARE_FUNCS[comparator]

        def predicate(state):
            left_value = left(state)
            right_value = right(state)
            if left_value is None or right_value is None:
                return None
            try:
                return compare(float(left_value), float(right_value))
            except (TypeError, ValueError):
                return compare(str(left_value), str(right_value))

        return predicate

    def _term(self, name):
        """A term of a comparison: state variable, threshold, or literal."""
        system = self.system
        if name == "temp":
            return self._binding.atom("temperature")
        if name == "mode":
            return lambda state: state.mode
        if name == "tstat_mode":
            def thermostat_mode(state):
                device = system.role("thermostat")
                if device is None:
                    return None
                return state.attribute(device, "thermostatMode")
            return thermostat_mode
        if name == "humidity":
            def humidity(state):
                sensor = system.role("humidity_sensor")
                if sensor is None:
                    return None
                return state.attribute(sensor, "humidity")
            return humidity
        if name == "moisture":
            def moisture(state):
                sensor = system.role("moisture_sensor")
                if sensor is None:
                    return None
                return state.attribute(sensor, "humidity")
            return moisture
        thresholds = {"TEMP_HIGH": "temp_high", "TEMP_LOW": "temp_low",
                      "HUMIDITY_HIGH": "humidity_high", "HUM_HIGH": "humidity_high",
                      "HUMIDITY_LOW": "humidity_low", "HUM_LOW": "humidity_low"}
        if name in thresholds:
            default = getattr(physical, name.replace("HUM_", "HUMIDITY_"))
            role = thresholds[name]
            return lambda state: system.role(role) or default
        try:
            literal = float(name)
            return lambda state: literal
        except ValueError:
            pass
        if re.match(r"[A-Za-z_][A-Za-z0-9_]*$", name):
            return lambda state: name
        return None

    def _role_attr_atom(self, name, role, attribute, expected):
        system = self.system

        def predicate(state):
            device = system.role(role)
            if device is None:
                return None
            return state.attribute(device, attribute) == expected

        self._atoms[name] = predicate


_COMPARE_FUNCS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
}


def _negate(value):
    if value is None:
        return None
    return not value


def invariant_formula(prop):
    """Parse an :class:`InvariantProperty`'s declared LTL text, if any."""
    if not prop.ltl:
        return None
    try:
        return parse(prop.ltl)
    except LTLSyntaxError:
        return None
