"""The declared reads of the bound invariants.

Each invariant binds once per system to a check and the exact
``(device, attribute)`` pairs that check can read
(:class:`~repro.properties.base.SystemBinding`).  The lean relation
trusts the declaration: a quiet sensor event writing a pair no bound
check reads takes its parent's verdict
(:meth:`~repro.model.lean.LeanRelation.transitions`).  These tests
hold the declaration against every state the 76 configurations - the six
expert groups and the 70 volunteer configurations - reach within two
events, with every applicable invariant bound, one invariant at a time
(so the result covers any selection of them).
"""

import pytest

from repro.attribution.volunteers import volunteer_verification_jobs
from repro.checker.compiled import ReplacedAttribute
from repro.corpus import load_all_apps
from repro.corpus.groups import GROUP_BUILDERS
from repro.engine import EngineOptions, ExplorationEngine
from repro.engine.batch import resolve_job_registry
from repro.ifttt.table9 import TABLE9_PROPERTIES
from repro.model.cascade import TIME_QUANTUM_MS
from repro.model.generator import ModelGenerator
from repro.model.lean import LeanRelation
from repro.model.state import word
from repro.properties.base import SystemBinding
from repro.properties.physical import PHYSICAL_PROPERTIES

from tests.conftest import _load_or_skip

INVARIANTS = PHYSICAL_PROPERTIES + TABLE9_PROPERTIES

#: the depth of the deepest parents each workload's search expands (the
#: expert groups search to 3 events, the volunteer jobs to 2)
PARENT_DEPTH = {"expert": 2, "volunteer": 1}


class _DeclaredReads:
    """A state as one check may see it: reading a pair outside
    ``reads`` fails the test."""

    __slots__ = ("_state", "reads", "prop")

    def __init__(self, state):
        self._state = state
        self.reads = frozenset()
        self.prop = None

    def attribute(self, device_name, attribute):
        assert (device_name, attribute) in self.reads, (
            "%s reads undeclared %s.%s"
            % (self.prop.id, device_name, attribute))
        return self._state.attribute(device_name, attribute)

    @property
    def mode(self):
        return self._state.mode


def _bind(system):
    """``[(prop, check, reads)]`` for every applicable invariant."""
    binding = SystemBinding(system)
    return [(prop,) + binding.bind(prop.formula) for prop in INVARIANTS
            if prop.applicable(system)]


def _systems():
    """``(source, system)`` for all 76 configurations."""
    registry = _load_or_skip(load_all_apps)
    for name in sorted(GROUP_BUILDERS):
        yield "expert", ModelGenerator(registry).build(GROUP_BUILDERS[name]())
    for job in volunteer_verification_jobs(registry, registry_spec="corpus"):
        yield "volunteer", ModelGenerator(
            resolve_job_registry(job)).build(
                job.config, strict=job.strict,
                enable_failures=job.enable_failures,
                user_mode_events=job.user_mode_events)


def _reach(system, relation, monitors, parent_depth, views, parents):
    """Add every state within two events to ``views`` and the built
    states within ``parent_depth`` events to ``parents``, both keyed by
    physical key.

    Below ``parent_depth`` 2 the quiet successors at depth 2 are never
    built: each is seen through a :class:`ReplacedAttribute` over its
    parent, which answers ``attribute()`` and ``mode`` as the successor
    would."""
    root = system.initial_state()
    views.setdefault(root.physical_key(), root)
    parents.setdefault(root.physical_key(), root)
    frontier = [root]
    seen = {root.fingerprint()}
    for depth in (1, 2):
        successors = []
        for state in frontier:
            if depth <= parent_depth:
                out = relation.transitions(state, monitors)
            else:
                out = []
                base = state.successor_base()
                for ext in system.external_choices(state):
                    if ext not in relation._quiet:
                        relation._run_event(out, state, ext, monitors)
                        continue
                    dev = (base[1]
                           ^ state.attribute_word(ext.device, ext.attribute)
                           ^ word((ext.device, ext.attribute, ext.value)))
                    views.setdefault((dev, state.mode), ReplacedAttribute(
                        state, ext.device, ext.attribute, ext.value))
            for transition in out:
                successor = transition[1]
                if successor.fingerprint() not in seen:
                    seen.add(successor.fingerprint())
                    successors.append(successor)
                    key = successor.physical_key()
                    views.setdefault(key, successor)
                    if depth <= parent_depth:
                        parents.setdefault(key, successor)
        frontier = successors


@pytest.fixture(scope="module")
def reached():
    """``[(source, system, quiet labels, views, parents)]``: the
    configurations of one source with one association (the binding's
    only input besides the physical state) pooled, since what a check
    reads and returns is a function of those two alone."""
    pooled = {}
    for source, system in _systems():
        relation = LeanRelation(system)
        # no properties: the relation's own invariant work stays out
        monitors = ExplorationEngine(
            system, [], EngineOptions())._monitor_factory
        key = (source, repr(sorted(system.association.items())))
        if key not in pooled:
            pooled[key] = (source, system, set(), {}, {})
        _source, _system, quiet, views, parents = pooled[key]
        _reach(system, relation, monitors, PARENT_DEPTH[source], views, parents)
        relation.release()
        quiet.update(ext.label() for ext in relation._quiet)
    return list(pooled.values())


def test_checks_read_only_their_declared_pairs(reached):
    """Every check, on every reached state, reads only pairs it
    declared at bind time."""
    evaluated = 0
    for _source, system, _quiet, views, _parents in reached:
        bound = _bind(system)
        for state in views.values():
            view = _DeclaredReads(state)
            for prop, check, reads in bound:
                view.reads = reads
                view.prop = prop
                check(view)
                evaluated += 1
    assert len(reached) > 2 and evaluated > 100000, (len(reached), evaluated)


@pytest.mark.parametrize("source", sorted(PARENT_DEPTH))
def test_unread_quiet_events_keep_the_parents_verdict(reached, source):
    """From every parent the workload's search expands, every quiet
    event writing a pair outside a check's declared reads leaves that
    check's verdict on the built successor equal to the parent's."""
    compared = 0
    for config_source, system, quiet, _views, parents in reached:
        if config_source != source:
            continue
        bound = _bind(system)
        for parent in parents.values():
            verdicts = [check(parent) is not False
                        for _prop, check, _reads in bound]
            for ext in system.external_choices(parent):
                if ext.label() not in quiet:
                    continue
                pair = (ext.device, ext.attribute)
                successor = parent.copy()
                successor.cascade_commands = ()
                successor.time += TIME_QUANTUM_MS
                successor.set_attribute(ext.device, ext.attribute, ext.value)
                successor.record_event(ext.device, ext.attribute, ext.value)
                for (prop, check, reads), verdict in zip(bound, verdicts):
                    if pair in reads:
                        continue
                    assert (check(successor) is not False) == verdict, (
                        prop.id, ext.label())
                    compared += 1
    assert compared > 10000, compared
