"""Tests for the invariant formula language (:mod:`repro.properties.formula`).

One formula tree per invariant gives the LTL text, the three-valued
check the engine runs and the atoms' Promela; these tests pin the text,
the connectives' semantics and the atoms as bound to one system.
"""

from types import SimpleNamespace

import pytest

from hypothesis import given
from hypothesis import strategies as st

from repro.ifttt.table9 import TABLE9_PROPERTIES
from repro.properties import build_properties
from repro.properties.base import SystemBinding
from repro.properties.formula import (
    INTRUSION,
    NOBODY_HOME,
    SOMEBODY_HOME,
    AllOf,
    Always,
    And,
    AnyOf,
    Atom,
    Device,
    Implies,
    Mode,
    NoneOf,
    Not,
    Or,
)
from repro.properties.physical import DOOR_LOCKED, PHYSICAL_PROPERTIES

#: the binding's view of a system with no roles, for the test atoms
_NO_ROLES = SimpleNamespace(away_mode="Away", home_mode="Home",
                            night_mode="Night")


class _Var(Atom):
    """A test atom: the value the dict state holds under its name."""

    __slots__ = ()

    def bind(self, binding):
        name = self.name
        return lambda state: state.get(name)


P = _Var("p_var")
Q = _Var("q_var")


def evaluate(formula, state):
    check, _reads = SystemBinding(_NO_ROLES).bind(formula)
    return check(state)


class TestText:
    def test_invariant_text(self):
        assert str(Always(Implies(P, Q))) == "[] (p_var -> q_var)"

    def test_connectives_wrap_compound_operands(self):
        formula = Always(Implies(And(P, Not(Q)), Or(P, Q)))
        assert str(formula) == "[] ((p_var && !q_var) -> (p_var || q_var))"
        assert str(Not(And(P, Q))) == "!(p_var && q_var)"

    def test_named_atom_is_its_name(self):
        assert str(Always(Implies(INTRUSION, SOMEBODY_HOME))) == (
            "[] (away_intrusion -> somebody_home)")

    def test_promela_expression(self):
        assert INTRUSION.formula.promela() == (
            "mode_away && (contact_open || motion_active)")
        assert SOMEBODY_HOME.formula.promela() == "!nobody_home"

    def test_atom_names_need_an_underscore(self):
        with pytest.raises(ValueError):
            Device("locked", "main_door_lock", "lock", "==", "locked")

    def test_catalog_atom_names_are_unique(self):
        """One name, one atom: the emitter writes one ``#define`` per
        name."""
        by_name = {}
        for prop in PHYSICAL_PROPERTIES + TABLE9_PROPERTIES:
            for atom in prop.formula.atoms():
                assert by_name.setdefault(atom.name, atom) is atom, atom.name
        assert len(by_name) > 30

    def test_catalog_text_is_the_formula(self):
        invariants = PHYSICAL_PROPERTIES + TABLE9_PROPERTIES
        assert len(invariants) == 42
        for prop in invariants:
            assert prop.ltl == str(prop.formula), prop.id
            assert prop.ltl.startswith("[] "), prop.id

    def test_text_says_what_the_check_does(self):
        """The texts that once omitted part of their check."""
        ltl = {prop.id: prop.ltl
               for prop in PHYSICAL_PROPERTIES + TABLE9_PROPERTIES}
        assert ltl["P12"] == (
            "[] ((residents_asleep || mode_night) -> door_locked)")
        assert ltl["P13"] == (
            "[] ((nobody_home || mode_night) -> entry_door_not_open)")
        assert ltl["I04"] == (
            "[] ((motion_active || contact_open) -> call_active)")

    def test_monitored_properties_keep_label_text(self):
        labels = {prop.id: prop.ltl for prop in build_properties()
                  if not hasattr(prop, "formula")}
        assert labels["P39"] == "per-cascade monitor"
        assert labels["P45"] == "[] (command_dropped -> <> user_notified)"


class TestSemantics:
    def test_atom_on_first_state(self):
        assert evaluate(P, {"p_var": True}) is True
        assert evaluate(P, {"p_var": False}) is False

    def test_three_valued_none_counts_as_holding(self):
        assert evaluate(Always(P), {}) is None

    def test_always(self):
        assert evaluate(Always(P), {"p_var": True}) is True
        assert evaluate(Always(P), {"p_var": False}) is False

    def test_implication(self):
        formula = Implies(P, Q)
        assert evaluate(formula, {"p_var": True, "q_var": False}) is False
        assert evaluate(formula, {"p_var": True, "q_var": True}) is True
        # a guard holds only when it is True
        assert evaluate(formula, {"p_var": False, "q_var": False}) is None
        assert evaluate(formula, {"q_var": False}) is None

    @pytest.mark.parametrize("p,q,conjunction,disjunction", [
        (True, True, True, True),
        (True, False, False, True),
        (False, None, False, None),
        (True, None, None, True),
        (None, None, None, None),
        (False, False, False, False),
    ])
    def test_kleene_tables(self, p, q, conjunction, disjunction):
        state = {"p_var": p, "q_var": q}
        assert evaluate(And(P, Q), state) is conjunction
        assert evaluate(And(Q, P), state) is conjunction
        assert evaluate(Or(P, Q), state) is disjunction
        assert evaluate(Or(Q, P), state) is disjunction
        assert evaluate(Not(P), state) is (None if p is None else not p)


class TestBoundAtoms:
    """The shared and catalog atoms bound to Alice's home."""

    @pytest.fixture()
    def binding(self, alice_system):
        return SystemBinding(alice_system)

    def test_nobody_home_on_initial_state(self, binding, alice_system):
        state = alice_system.initial_state()
        assert binding.bind(NOBODY_HOME)[0](state) is False
        assert binding.bind(SOMEBODY_HOME)[0](state) is True

    def test_door_locked_initially(self, binding, alice_system):
        assert binding.bind(DOOR_LOCKED)[0](
            alice_system.initial_state()) is True

    def test_mode_atom(self, binding, alice_system):
        state = alice_system.initial_state()
        assert binding.bind(Mode("mode_home", "home"))[0](state) is True
        assert binding.bind(Mode("mode_away", "away"))[0](state) is False

    def test_unbound_role_quantifiers(self, binding, alice_system):
        state = alice_system.initial_state()
        assert binding.bind(AnyOf(
            "no_smoke", "smoke_detectors", "smoke", "detected"))[0](
                state) is False
        for atom in (AllOf("all_x", "window_shades", "windowShade", "closed"),
                     NoneOf("none_x", "away_off_bulbs", "switch", "on")):
            check, reads = binding.bind(atom)
            assert check(state) is None
            assert reads == frozenset()

    def test_reads_are_declared(self, binding, alice_system):
        _check, reads = binding.bind(Always(Implies(NOBODY_HOME,
                                                    DOOR_LOCKED)))
        presence = {(name, "presence")
                    for name in alice_system.role_list("presence_sensors")}
        assert reads == presence | {(alice_system.role("main_door_lock"),
                                     "lock")}

    def test_shared_atoms_bind_once_per_system(self, binding):
        assert binding.bound(NOBODY_HOME) is binding.bound(NOBODY_HOME)
        assert binding.bind(SOMEBODY_HOME)[1] == binding.bind(NOBODY_HOME)[1]

    def test_paper_formula_on_violating_state(self, binding, alice_system):
        """[] (nobody_home -> door_locked) fails on the Fig-7 end state."""
        check, _reads = binding.bind(Always(Implies(NOBODY_HOME,
                                                    DOOR_LOCKED)))
        state = alice_system.initial_state()
        bad = state.copy()
        for name in alice_system.role_list("presence_sensors"):
            bad.set_attribute(name, "presence", "not present")
        bad.set_attribute(alice_system.role("main_door_lock"), "lock",
                          "unlocked")
        assert check(state) is not False
        assert check(bad) is False


# ---------------------------------------------------------------------------
# property-based: dualities of the three-valued connectives
# ---------------------------------------------------------------------------

_VALUES = st.sampled_from([True, False, None])
_STATES = st.fixed_dictionaries({"p_var": _VALUES, "q_var": _VALUES})


class TestDualities:
    @given(_STATES)
    def test_de_morgan(self, state):
        assert evaluate(Not(And(P, Q)), state) is evaluate(
            Or(Not(P), Not(Q)), state)
        assert evaluate(Not(Or(P, Q)), state) is evaluate(
            And(Not(P), Not(Q)), state)

    @given(_STATES)
    def test_implication_material(self, state):
        """``p -> q`` is violated exactly where ``!p || q`` is False."""
        assert (evaluate(Implies(P, Q), state) is False) == (
            evaluate(Or(Not(P), Q), state) is False)
