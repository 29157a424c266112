"""Lean-relation differential tests: the default search vs the oracle.

The lean relation (:mod:`repro.model.lean`) is a pure performance
knob: traceless cascades, replay of repeated cascades under every
sequential scenario, a cascade-free path for sensor events no app hears
and, at the depth bound, bare-fingerprint leaves for them.  None of that may
move a single observable - these suites prove verdicts, violation sets,
per-counterexample event paths and rendered traces byte-identical to
the traced (``interpreted``) oracle across the whole bundled corpus,
every visited store, the fault profiles and failure enumeration, and
beyond the corpus on generated handler programs.
"""

import gc
import json
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attribution.enumerator import ConfigurationEnumerator
from repro.checker.compiled import CompiledProperties, ReplacedAttribute
from repro.cli import main as cli_main
from repro.config.schema import SystemConfiguration
from repro.corpus import load_all_apps, load_discovery_apps
from repro.corpus.groups import GROUP_BUILDERS
from repro.devices.catalog import DEVICE_TYPES
from repro.engine import EngineOptions, ExplorationEngine
from repro.model import replay
from repro.model.cascade import TIME_QUANTUM_MS
from repro.model.faults import scenario_names
from repro.model.generator import ModelGenerator
from repro.model.lean import LeanRelation
from repro.model.state import ModelState, successor_fingerprint, word
from repro.properties import build_properties, select_relevant

from tests.conftest import _load_or_skip
from tests.helpers import make_app


def _zoo_deployment():
    """One device of every modeled type: a home any app can bind into."""
    config = SystemConfiguration(contacts=["+1-555-0100"])
    for index, type_name in enumerate(sorted(DEVICE_TYPES)):
        config.add_device("zoo%02d" % index, type_name)
    return config


@pytest.fixture(scope="module")
def corpus():
    registry = _load_or_skip(load_all_apps)
    try:
        registry.update(load_discovery_apps())
    except Exception:
        pass  # discovery corpus optional for this suite
    return registry


def _verify_both(system, properties, cascade_stats=None, **option_kwargs):
    """Run both relations; the lean run's cascade counts are appended to
    ``cascade_stats`` when a list is given."""
    results = {}
    for engine in ("lean", "interpreted"):
        options = EngineOptions(engine=engine, **option_kwargs)
        runner = ExplorationEngine(system, properties, options)
        results[engine] = runner.run()
        if engine == "lean" and cascade_stats is not None:
            cascade_stats.append(runner.cascade_stats)
    return results["lean"], results["interpreted"]


def _trace_view(result):
    """Per-counterexample event paths and full rendered step traces."""
    return {
        key: (ce.event_labels(),
              [(s.kind, s.text, s.app) for s in ce.all_steps()])
        for key, ce in result.counterexamples.items()}


def _assert_equivalent(lean, interpreted, context, traces=True):
    assert lean.states_explored == interpreted.states_explored, context
    assert lean.transitions == interpreted.transitions, context
    assert (sorted(lean.counterexamples)
            == sorted(interpreted.counterexamples)), context
    if traces:
        assert _trace_view(lean) == _trace_view(interpreted), context


class TestPerAppDifferential:
    """Every corpus app, auto-configured into the zoo home, explored by
    the lean relation and the interpreted oracle with identical
    outcomes."""

    def test_full_corpus_lean_equals_interpreted(self, corpus):
        enumerator = ConfigurationEnumerator(_zoo_deployment())
        checked = 0
        for name, smart_app in sorted(corpus.items()):
            bindings = next(iter(
                enumerator.enumerate_bindings(smart_app, limit=1)), None)
            if bindings is None:
                bindings = {}
            config = _zoo_deployment()
            config.add_app(name, bindings)
            try:
                system = ModelGenerator(corpus).build(config, strict=False)
            except Exception:
                continue  # un-installable in the zoo (strict build issues)
            properties = select_relevant(system, build_properties())
            lean, interpreted = _verify_both(
                system, properties, max_events=2, max_states=300)
            _assert_equivalent(lean, interpreted, "app %r" % name)
            checked += 1
        # the bundled corpus is 57 market + 9 malicious + 4 discovery
        # apps; virtually all of them must be installable in the zoo
        assert checked >= 60, "only %d corpus apps exercised" % checked


class TestGroupDifferential:
    """The six §10.1 expert groups: multi-app interaction, real
    violation sets, identical under the lean relation."""

    @pytest.mark.parametrize("group_name", sorted(GROUP_BUILDERS))
    def test_group_codegen_equals_interpreted(self, group_name):
        registry = _load_or_skip(load_all_apps)
        system = ModelGenerator(registry).build(GROUP_BUILDERS[group_name]())
        properties = select_relevant(system, build_properties())
        lean, interpreted = _verify_both(
            system, properties, max_events=2, max_states=5000)
        _assert_equivalent(lean, interpreted, group_name)

    @pytest.mark.parametrize("visited", ["exact"])
    def test_group1_every_exact_store(self, visited):
        """The lean path consults the visited store through the same
        engine hooks; the exact stores must agree state-for-state."""
        registry = _load_or_skip(load_all_apps)
        system = ModelGenerator(registry).build(
            GROUP_BUILDERS["group1-entry-and-mode"]())
        properties = select_relevant(system, build_properties())
        lean, interpreted = _verify_both(
            system, properties, max_events=2, max_states=5000,
            visited=visited)
        _assert_equivalent(lean, interpreted, "group1+" + visited)

    def test_group1_bitstate_verdict(self):
        """The bitstate store is probabilistic in coverage but the
        verdict on this violating workload must not flip."""
        registry = _load_or_skip(load_all_apps)
        system = ModelGenerator(registry).build(
            GROUP_BUILDERS["group1-entry-and-mode"]())
        properties = select_relevant(system, build_properties())
        lean, interpreted = _verify_both(
            system, properties, max_events=2, max_states=5000,
            visited="bitstate", bitstate_bits=20)
        assert lean.verdict == interpreted.verdict
        assert (lean.violated_property_ids
                == interpreted.violated_property_ids)

    def test_group1_with_failures_and_concurrent(self):
        """Failure enumeration disables the quiet-sensor path and the
        concurrent design bypasses the lean relation entirely; both
        must stay relation independent."""
        registry = _load_or_skip(load_all_apps)
        config = GROUP_BUILDERS["group1-entry-and-mode"]()
        system = ModelGenerator(registry).build(config,
                                                enable_failures=True)
        properties = select_relevant(system, build_properties())
        lean, interpreted = _verify_both(
            system, properties, max_events=1, max_states=2000)
        _assert_equivalent(lean, interpreted, "group1+failures")

        system = ModelGenerator(registry).build(config)
        lean, interpreted = _verify_both(
            system, properties, max_events=2, max_states=2000,
            mode="concurrent")
        _assert_equivalent(lean, interpreted, "group1+concurrent")


#: result-JSON fields that measure the run rather than the answer
_TIMING_FIELDS = ("elapsed", "profile", "visited_stats", "property_stats")


def _without_timing(value):
    if isinstance(value, dict):
        return {key: _without_timing(item) for key, item in value.items()
                if key not in _TIMING_FIELDS}
    if isinstance(value, list):
        return [_without_timing(item) for item in value]
    return value


class TestTierAgreement:
    @pytest.mark.parametrize("group_name", sorted(GROUP_BUILDERS))
    def test_check_json_identical_on_every_tier(self, group_name, capsys):
        """`repro check --json` at its defaults prints the same answer,
        counterexample order included, on the interpreted oracle and the
        default lean relation."""
        outputs = []
        for tier in (["--engine", "interpreted"], []):
            cli_main(["check", group_name, "--json"] + tier)
            outputs.append(json.dumps(_without_timing(
                json.loads(capsys.readouterr().out))))
        assert outputs[0] == outputs[1]

    def test_counterexample_list_order_is_canonical(self, capsys):
        """The relations record group5's ``duplicated`` counterexamples
        in different orders; the result lists them by path, then by
        violation, so the JSON is the same on both."""
        outputs = []
        for tier in (["--engine", "interpreted"], []):
            cli_main(["check", "group5-water-presence", "--json",
                      "--scenario", "duplicated"] + tier)
            outputs.append(json.dumps(_without_timing(
                json.loads(capsys.readouterr().out))))
        assert outputs[0] == outputs[1]


class TestRunLeavesNoCycle:
    def test_system_dies_with_engine_and_result(self):
        """A lean run must not leave the system in a reference cycle:
        with the cyclic collector off, dropping the engine and the result
        frees it."""
        registry = _load_or_skip(load_all_apps)
        system = ModelGenerator(registry).build(
            GROUP_BUILDERS["group1-entry-and-mode"]())
        properties = select_relevant(system, build_properties())
        engine = ExplorationEngine(
            system, properties,
            EngineOptions(max_events=2))
        assert engine.options.engine == "lean"
        gc.collect()
        gc.disable()
        try:
            result = engine.run()
            assert result.counterexamples
            system_ref = weakref.ref(system)
            del engine, result, system
            assert system_ref() is None
        finally:
            gc.enable()


def _transition_view(system, transition):
    """Everything a lean transition hands the engine, comparably."""
    label, state, consumed, violations, steps = transition
    return (label, consumed, state.canonical_key(), state.fingerprint(),
            state.time,
            {name: state.device_history(name) for name in system.devices},
            [v.dedup_key() for v in violations],
            [(step.kind, step.text, step.app) for step in steps])


def _relation_and_monitors(system, **option_kwargs):
    """A fresh :class:`LeanRelation` and the monitor factory of an
    engine configured by ``option_kwargs`` (which applies the scenario
    profile to ``system``)."""
    properties = select_relevant(system, build_properties())
    engine = ExplorationEngine(system, properties,
                               EngineOptions(**option_kwargs))
    return LeanRelation(system), engine._monitor_factory


#: the faulted sequential variants replay runs under: each non-clean
#: profile, and the paper's failure enumeration on the clean profile
_FAULTED = tuple(sorted(name for name in scenario_names()
                        if name != "clean")) + ("failures",)


def _faulted_system(registry, group_name, variant):
    """``(system, option_kwargs)`` for one group under one faulted
    variant (a profile name, or ``"failures"``)."""
    config = GROUP_BUILDERS[group_name]()
    if variant == "failures":
        return (ModelGenerator(registry).build(config, enable_failures=True),
                {})
    return ModelGenerator(registry).build(config), {"scenario": variant}


#: clean runs of every group keep the group name as their test id;
#: the faulted variants run on one group each
_REPLAY_CASES = ([pytest.param(name, "clean", id=name)
                  for name in sorted(GROUP_BUILDERS)]
                 + [pytest.param("group1-entry-and-mode", variant,
                                 id="group1-entry-and-mode-" + variant)
                    for variant in _FAULTED])


class TestCascadeReplay:
    """Cascade replay must be invisible: a replayed successor equals the
    live one in everything the search and its reports read."""

    @pytest.mark.parametrize("group_name, variant", _REPLAY_CASES)
    def test_replayed_expansions_equal_live_ones(self, group_name, variant):
        """Every state reachable within max_events=2 expands twice
        through one relation: the second pass is all replay and equals
        the first.  The states the search expands (depth < 2) also get a
        fully live reference, each on an empty trie."""
        registry = _load_or_skip(load_all_apps)
        if variant == "clean":
            system = ModelGenerator(registry).build(
                GROUP_BUILDERS[group_name]())
            option_kwargs = {}
        else:
            system, option_kwargs = _faulted_system(registry, group_name,
                                                    variant)
        live, monitors = _relation_and_monitors(system, **option_kwargs)
        relation = LeanRelation(system)
        if variant != "clean":
            assert not relation._quiet

        # the cascade-free path for unheard sensor events never replays
        quiet = {ext.label() for ext in relation._quiet}

        def views(transitions):
            return [_transition_view(system, t) for t in transitions
                    if t[0] not in quiet]

        states, expected = [], []
        frontier = [system.initial_state()]
        seen = {frontier[0].canonical_key()}
        for depth in range(3):
            states.extend(frontier)
            successors = []
            for state in frontier if depth < 2 else ():
                live.release()
                transitions = live.transitions(state, monitors)
                expected.append(views(transitions))
                for transition in transitions:
                    key = transition[1].canonical_key()
                    if key not in seen:
                        seen.add(key)
                        successors.append(transition[1])
            frontier = successors
        assert live.cascades_replayed == 0

        passes = []
        for _pass in range(2):
            before = relation.stats()
            passes.append([views(relation.transitions(state, monitors))
                           for state in states])
        after = relation.stats()
        context = (group_name, variant)
        assert after["cascades_live"] == before["cascades_live"], context
        assert (after["cascades_replayed"]
                > before["cascades_replayed"]), context
        assert after["replay_leaves"] == before["replay_leaves"] > 0
        first, second = passes
        assert second == first, context
        for state, want, got in zip(states, expected, second):
            assert got == want, (context, state)

    def test_clock_reads_key_the_replay(self):
        """A handler that reads ``now()`` sees the clock, so two states
        differing only in time must not share its cascade; a handler
        that never reads it must."""
        outcomes = {}
        for body in ("state.t = now()", "state.t = 1"):
            system = _generated_system(
                'definition(name: "Gen", namespace: "t", author: "t", '
                'description: "d", category: "c")' + _GEN_PREFS
                + "def h(evt) { %s }\ndef later() { }" % body)
            relation, monitors = _relation_and_monitors(system)
            early = system.initial_state()
            late = early.copy()
            late.time += 5 * TIME_QUANTUM_MS
            app = system.apps[0].name
            counts = []
            for state in (early, late):
                before = relation.stats()
                (transition,) = [
                    t for t in relation.transitions(state, monitors)
                    if t[0].startswith("m/motion=")]
                after = relation.stats()
                counts.append((
                    after["cascades_live"] - before["cascades_live"],
                    after["cascades_replayed"] - before["cascades_replayed"]))
                assert (transition[1].app_state(app)["t"]
                        == (state.time + TIME_QUANTUM_MS
                            if "now" in body else 1))
            outcomes[body] = counts
        assert outcomes["state.t = now()"] == [(1, 0), (1, 0)]
        assert outcomes["state.t = 1"] == [(1, 0), (0, 1)]

    def test_exact_keys_tell_types_and_order_apart(self):
        keys = [replay.exact_key(v) for v in
                (1, 1.0, True, "1", 0.0, -0.0, [1], (1,),
                 {"a": 1, "b": 2}, {"b": 2, "a": 1})]
        assert len(set(keys)) == len(keys)
        assert replay.exact_key({"a": [1, None]}) == replay.exact_key(
            {"a": [1, None]})
        with pytest.raises(replay.Unreplayable):
            replay.exact_key({"d": object()})

    def test_recording_view_refuses_unlisted_members(self):
        view = replay.RecordingState(ModelState())
        for name in ("devices", "app_states", "history", "copy",
                     "pending"):
            with pytest.raises(replay.UnrecordedAccess):
                getattr(view, name, None)
        view.set_attribute("d", "switch", "on")
        assert view.attribute("d", "switch") == "on"

    def test_state_surface_is_the_recording_view(self):
        """Every public ModelState member a cascade can reach is one the
        recording view exposes (a writable property stays writable
        there); the rest is the search's own fixed list.  A new raw
        accessor fails here instead of silently escaping the replay
        key."""
        search_only = {"copy", "fingerprint", "successor_base",
                       "attribute_word", "physical_key", "canonical_key",
                       "pending", "HISTORY_LIMIT"}
        public = {name for name in dir(ModelState)
                  if not name.startswith("_")}
        recorded = {name for name in dir(replay.RecordingState)
                    if not name.startswith("_")}
        assert search_only <= public
        assert public - search_only <= recorded, public - recorded
        for name in public - search_only:
            member = getattr(ModelState, name)
            if isinstance(member, property) and member.fset is not None:
                assert getattr(replay.RecordingState, name).fset, name

    def test_faults_replay_cascades(self):
        """Every sequential scenario replays: each faulted profile and
        failure enumeration replay repeated cascades, while the quiet
        leaves stay clean-only (faults fork every sensor event)."""
        registry = _load_or_skip(load_all_apps)
        runs = {"clean": (ModelGenerator(registry).build(
            GROUP_BUILDERS["group1-entry-and-mode"]()), {})}
        for variant in _FAULTED:
            runs[variant] = _faulted_system(
                registry, "group1-entry-and-mode", variant)
        for name, (system, option_kwargs) in runs.items():
            properties = select_relevant(system, build_properties())
            engine = ExplorationEngine(system, properties, EngineOptions(
                max_events=2, **option_kwargs))
            engine.run()
            stats = engine.cascade_stats
            assert stats["cascades_live"] > 0, name
            assert stats["cascades_replayed"] >= 1, name
            assert stats["replay_leaves"] >= 1, name
            if name == "clean":
                assert stats["quiet_leaves"] > 0
            else:
                assert stats["quiet_leaves"] == 0, name


def _volunteer_systems(group):
    """``(name, system, properties)`` for one volunteer group's jobs,
    built as the batch runner builds them."""
    from repro.attribution.volunteers import volunteer_verification_jobs
    from repro.engine.batch import _resolve_properties, resolve_job_registry

    jobs = volunteer_verification_jobs(
        _load_or_skip(load_all_apps), options=EngineOptions(max_events=2),
        registry_spec="corpus")
    for job in jobs:
        if job.name.startswith(group + "/"):
            system = ModelGenerator(resolve_job_registry(job)).build(
                job.config, strict=job.strict,
                enable_failures=job.enable_failures,
                user_mode_events=job.user_mode_events)
            yield job.name, system, _resolve_properties(job, system)


def _expert_systems():
    registry = _load_or_skip(load_all_apps)
    for group_name in sorted(GROUP_BUILDERS):
        system = ModelGenerator(registry).build(GROUP_BUILDERS[group_name]())
        yield group_name, system, select_relevant(system, build_properties())


class _StoreSpy(ExplorationEngine):
    """Records the type of every state the visited store is handed, and
    counts the bare fingerprints the engine hands ``seen_before``
    itself (not from inside ``seen_state``)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.admitted = set()
        self.leaves = 0
        self._in_seen_state = False

    def _setup_search(self):
        store = super()._setup_search()
        seen_state, seen_before = store.seen_state, store.seen_before

        def spy_state(state, depth):
            self.admitted.add(type(state))
            self._in_seen_state = True
            try:
                return seen_state(state, depth)
            finally:
                self._in_seen_state = False

        def spy_before(key, depth):
            if not self._in_seen_state:
                self.admitted.add(type(key))
                self.leaves += 1
            return seen_before(key, depth)
        store.seen_state = spy_state
        store.seen_before = spy_before
        return store


def _leaf_keys(state, base, ext):
    """``(fingerprint, physical_key)`` of the quiet successor of
    ``state`` under ``ext``, from the parent's ``successor_base()``
    ``base`` as the lean relation derives them."""
    dev = (base[1] ^ state.attribute_word(ext.device, ext.attribute)
           ^ word((ext.device, ext.attribute, ext.value)))
    return successor_fingerprint(base[0], dev), (dev, state.mode)


class TestStatelessQuietLeaves:
    """A quiet event at the depth bound hands the fingerprint store the
    successor's bare fingerprint: its keys and verdict must equal those
    of the successor it stands for."""

    @pytest.mark.parametrize("source, parent_depth",
                             [("expert", 2), ("vgroup08", 1)])
    def test_stateless_keys_equal_built_successors(self, source,
                                                   parent_depth):
        """Every quiet event from every state within ``parent_depth``
        events - the parents the workload's search takes leaves from
        (expert groups at bound 3, volunteer jobs at bound 2): the
        parent-derived ``(fingerprint, physical_key)`` equals the built
        successor's, and the overlay's verdict equals the exact
        one on that successor."""
        systems = (_expert_systems() if source == "expert"
                   else _volunteer_systems(source))
        checked = 0
        for name, system, properties in systems:
            relation = LeanRelation(system)
            monitors = ExplorationEngine(
                system, properties, EngineOptions())._monitor_factory
            exact = CompiledProperties(system, properties, memoize=False)
            verdicts = {}
            frontier = [system.initial_state()]
            seen = {frontier[0].canonical_key()}
            for depth in range(parent_depth + 1):
                successors = []
                for state in frontier:
                    base = state.successor_base()
                    for ext in system.external_choices(state):
                        if ext not in relation._quiet:
                            continue
                        keys = _leaf_keys(state, base, ext)
                        built = state.copy()
                        built.cascade_commands = ()
                        built.time += TIME_QUANTUM_MS
                        built.set_attribute(ext.device, ext.attribute,
                                            ext.value)
                        built.record_event(ext.device, ext.attribute,
                                           ext.value)
                        assert keys == (built.fingerprint(),
                                        built.physical_key()), (name, ext)
                        checked += 1
                        if keys[1] in verdicts:
                            continue
                        # the verdict is a function of the physical key,
                        # so each distinct one is evaluated once per side
                        overlay = ReplacedAttribute(
                            state, ext.device, ext.attribute, ext.value)
                        verdicts[keys[1]] = exact.failed_invariants(built)
                        assert ([prop for prop in exact.invariants
                                 if not prop.holds(overlay, system)]
                                == verdicts[keys[1]]), (name, ext)
                    if depth == parent_depth:
                        continue
                    for transition in relation.transitions(state,
                                                           monitors):
                        key = transition[1].canonical_key()
                        if key not in seen:
                            seen.add(key)
                            successors.append(transition[1])
                frontier = successors
            relation.release()
        assert checked > 1000, checked

    def test_overlay_exposes_only_attribute_and_mode(self):
        state = ModelState(mode="Away")
        state.set_attribute("d", "switch", "off")
        overlay = ReplacedAttribute(state, "d", "switch", "on")
        assert overlay.attribute("d", "switch") == "on"
        assert overlay.attribute("d", "level") is None
        assert overlay.mode == "Away"
        for name in ("devices", "app_state", "history"):
            with pytest.raises(AttributeError):
                getattr(overlay, name)

    def test_default_store_takes_stubs(self):
        registry = _load_or_skip(load_all_apps)
        system = ModelGenerator(registry).build(
            GROUP_BUILDERS["group1-entry-and-mode"]())
        properties = select_relevant(system, build_properties())
        spy = _StoreSpy(system, properties, EngineOptions(
            max_events=2))
        result = spy.run()
        assert spy.cascade_stats["quiet_leaves"] > 0
        assert int in spy.admitted
        assert spy.leaves == spy.cascade_stats["quiet_leaves"]
        assert result.states_explored == 467

    def test_bitstate_takes_stubs(self):
        """The bitstate store reads only fingerprints too: it takes the
        bare-fingerprint leaves and still finds the traced relation's
        answer."""
        registry = _load_or_skip(load_all_apps)
        system = ModelGenerator(registry).build(
            GROUP_BUILDERS["group1-entry-and-mode"]())
        properties = select_relevant(system, build_properties())
        spy = _StoreSpy(system, properties, EngineOptions(
            max_events=2, visited="bitstate"))
        result = spy.run()
        assert spy.cascade_stats["quiet_leaves"] > 0
        assert int in spy.admitted
        assert spy.leaves == spy.cascade_stats["quiet_leaves"]
        interpreted = ExplorationEngine(system, properties, EngineOptions(
            max_events=2, engine="interpreted", visited="bitstate")).run()
        _assert_equivalent(result, interpreted, "bitstate")

    @pytest.mark.parametrize("visited", ["exact"])
    def test_other_stores_receive_built_states(self, visited):
        """The exact store, the independent oracle, is never given
        bare fingerprints: it is handed full successors and matches the
        traced relation."""
        registry = _load_or_skip(load_all_apps)
        system = ModelGenerator(registry).build(
            GROUP_BUILDERS["group1-entry-and-mode"]())
        properties = select_relevant(system, build_properties())
        spy = _StoreSpy(system, properties, EngineOptions(
            max_events=2, visited=visited))
        result = spy.run()
        assert spy.admitted == {ModelState}, visited
        assert spy.leaves == 0
        assert spy.cascade_stats["quiet_leaves"] == 0
        interpreted = ExplorationEngine(system, properties, EngineOptions(
            max_events=2, engine="interpreted", visited=visited)).run()
        _assert_equivalent(result, interpreted, visited)


_NAMES_APP = """
definition(name: "Names", namespace: "t", author: "t", description: "d",
           category: "c")
preferences { section("s") {
    input "motion1", "capability.motionSensor"
    input "switch1", "capability.switch"
    input "names", "enum", options: ["a", "b", "c"], multiple: true
} }
def installed() { subscribe(motion1, "motion", h) }
def updated() { installed() }
def h(evt) {
    names << "x"
    state.count = names.size()
    if (names.size() > 2) { switch1.on() } else { switch1.off() }
}
"""


class TestSettingsCopiedPerRun:
    def test_list_setting_mutated_in_place_does_not_leak(self):
        """A handler growing a ``multiple: true`` enum setting in place
        mutates its own copy: every run sees the configured value, on
        both relations, so cascade replay (which skips the handler)
        agrees with a live run.  Shared, the list grew for good and the
        replayed search lost states against the oracle."""
        config = SystemConfiguration(contacts=["+1-555-0100"])
        config.add_device("m", "smartsense-motion")
        config.add_device("s1", "smart-outlet")
        config.add_app("Names", {"motion1": "m", "switch1": "s1",
                                 "names": ["a"]})
        system = ModelGenerator({"Names": make_app(_NAMES_APP)}).build(config)
        properties = select_relevant(system, build_properties())
        lean, interpreted = _verify_both(system, properties, max_events=3)
        _assert_equivalent(lean, interpreted, "names << x")
        assert lean.states_explored == 58
        assert lean.transitions == 203
        plan = {name: payload
                for name, _is_device, payload, _group
                in system.apps[0].binding_plan()}
        assert plan["names"] == ["a"]


_GAPS_APP = """
definition(name: "Gaps", namespace: "t", author: "t", description: "d",
           category: "c")
preferences { section("s") {
    input "motion1", "capability.motionSensor"
    input "switch1", "capability.switch"
    input "switches", "capability.switch", multiple: true
    input "lock1", "capability.lock"
} }
def installed() {
    subscribe(motion1, "motion", h)
    subscribe(switch1, "switch", onSwitch)
}
def updated() { installed() }
def h(evt) {
    def seen = state.seen ?: [:]
    seen[evt.value] = (seen[evt.value] ?: 0) + 1
    state.seen = seen
    def lit = 0
    for (i in 0..2) {
        if (i == 1) { continue }
        lit = lit + i
    }
    state.lit = lit
    try {
        if (seen.size() > 1) { throw new Exception("both values seen") }
        switch1.on()
    } catch (e) {
        lock1.unlock()
    }
    switch (evt.value) {
        case "active": switches.on()
        case "inactive": state.last = evt.value
            break
        default: switch1.off()
    }
}
def onSwitch(evt) {
    switch (evt.value) {
        case "on":
            if ((state.seen?.active ?: 0) > 1) { lock1.lock() }
        default:
            state.switched = (state.switched ?: 0) + 1
    }
}
"""


class TestGrammarGaps:
    """A hand-written app on the constructs the generated programs do
    not draw: ``continue``, ``try``/``catch`` around a ``throw``, a
    falling-through ``switch`` and a map kept in ``state``."""

    @staticmethod
    def _system():
        config = SystemConfiguration(contacts=["+1-555-0100"])
        config.add_device("m", "smartsense-motion")
        config.add_device("s1", "smart-outlet")
        config.add_device("s2", "smart-outlet")
        config.add_device("lk", "zwave-lock")
        config.add_app("Gaps", {"motion1": "m", "switch1": "s1",
                                "switches": ["s1", "s2"], "lock1": "lk"})
        return ModelGenerator({"Gaps": make_app(_GAPS_APP)}).build(config)

    def test_handlers_take_every_construct(self):
        from repro.checker.monitor import SafetyMonitor
        from repro.model.cascade import Cascade
        from repro.model.events import ExternalEvent

        system = self._system()
        state = system.initial_state()
        for value in ("active", "inactive"):
            Cascade(system, state,
                    SafetyMonitor(system, build_properties())).run_external(
                ExternalEvent("sensor", device="m", attribute="motion",
                              value=value))
        app_state = state.app_state("Gaps")
        assert app_state["lit"] == 2                   # continue skipped 1
        assert dict(app_state["seen"]) == {"active": 1, "inactive": 1}
        assert app_state["last"] == "inactive"
        assert state.attribute("s2", "switch") == "on"      # fall-through
        assert state.attribute("lk", "lock") == "unlocked"  # catch ran

    @pytest.mark.parametrize("engine", ["lean", "interpreted"])
    def test_transitions_leave_the_parents_app_maps_unchanged(self, engine):
        """App code mutates its cascade's own copy of a ``state`` map
        (nested maps too): expanding a state, live or by replay, leaves
        its stored maps, its fingerprint and its key as they were."""
        system = self._system()
        relation, monitors = _relation_and_monitors(system)
        frontier = [system.initial_state()]
        expanded = 0
        for _depth in range(3):
            successors = []
            for parent in frontier:
                before = (repr(parent.app_state("Gaps")),
                          parent.fingerprint(), parent.canonical_key())
                if engine == "lean":
                    transitions = relation.transitions(parent, monitors)
                else:
                    transitions = list(system.transitions(parent, monitors))
                assert (repr(parent.app_state("Gaps")),
                        parent.fingerprint(), parent.canonical_key()) == before
                expanded += 1
                successors.extend(t[1] for t in transitions)
            frontier = successors
        assert expanded > 10
        changed = {repr(state.app_state("Gaps")) for state in frontier}
        assert len(changed) > 1
        if engine == "lean":
            assert relation.stats()["cascades_replayed"] > 0

    def test_lean_json_equals_interpreted(self):
        system = self._system()
        properties = select_relevant(system, build_properties())
        cascade_stats = []
        lean, interpreted = _verify_both(system, properties, cascade_stats,
                                         max_events=3)
        assert (_without_timing(lean.to_dict())
                == _without_timing(interpreted.to_dict()))
        assert cascade_stats[0]["cascades_replayed"] > 0


# ----------------------------------------------------------------------
# generated handler programs: tier agreement beyond the corpus
# ----------------------------------------------------------------------

_GEN_PREFS = '''
preferences { section("s") {
    input "motion1", "capability.motionSensor"
    input "switch1", "capability.switch"
    input "switches", "capability.switch", multiple: true
    input "lock1", "capability.lock"
    input "names", "enum", options: ["a", "b", "c"], multiple: true
} }

def installed() { subscribe(motion1, "motion", h) }
def updated() { installed() }
'''

#: device commands on single and ``multiple: true`` inputs
_COMMANDS = (
    "switch1.on()", "switch1.off()", "switches.on()", "switches.off()",
    "lock1.lock()", "lock1.unlock()", "switches.each { it.on() }",
    "switches.each { s -> s.off() }",
)
#: state, location, scheduling and messaging effects
_EFFECTS = (
    "state.count = (state.count ?: 0) + 1",
    "state.flag = !state.flag",
    "state.last = location.mode",
    'setLocationMode("Away")',
    'setLocationMode("Home")',
    "runIn(60, later)",
    "unschedule()",
    'sendPush("count ${state.count}")',
    "log.debug \"mode ${location.mode}, last ${state.last ?: 'none'}\"",
    # an in-place mutation of a list setting (each run owns a copy, so
    # the size recorded in state never depends on earlier runs)
    'state.size = (names << "x").size()',
)
_CONDITIONS = (
    "state.flag",
    "(state.count ?: 0) > 1",
    'location.mode == "Away"',
    'switch1.currentValue("switch") == "on"',
    "state.last != null",
    "names.size() > 1",
)
#: only meaningful inside ``h(evt)``; ``later()`` has no event
_EVENT_EFFECTS = ("state.last = evt.value", 'sendPush("motion ${evt.value}")')
_EVENT_CONDITIONS = ('evt.value == "active"',)


class _ProgramBuilder:
    """Draws one handler body as Groovy source (bounded depth and
    loops, so neither tier approaches the op budget)."""

    def __init__(self, draw, in_handler):
        self.draw = draw
        self.in_handler = in_handler
        self.names = 0

    def fresh(self, prefix):
        self.names += 1
        return "%s%d" % (prefix, self.names)

    def pick(self, options):
        return self.draw(st.sampled_from(options))

    def condition(self):
        return self.pick(_CONDITIONS + (_EVENT_CONDITIONS
                                        if self.in_handler else ()))

    def block(self, depth, loop_var=None):
        """1-3 statements; ``loop_var`` names the innermost loop's
        variable when a ``break`` may bind to it."""
        count = self.draw(st.integers(1, 3))
        return [line for _ in range(count)
                for line in self.statement(depth, loop_var)]

    def statement(self, depth, loop_var):
        kinds = ["command", "effect"]
        if depth > 0:
            kinds += ["if", "return", "switch", "for", "while", "closure"]
        if loop_var is not None:
            kinds.append("break")
        kind = self.pick(tuple(kinds))
        if kind == "command":
            return [self.pick(_COMMANDS)]
        if kind == "effect":
            return [self.pick(_EFFECTS + (_EVENT_EFFECTS
                                          if self.in_handler else ()))]
        if kind == "break":
            # a mid-loop exit: unlike a monotone condition, it tells a
            # ``break`` apart from a ``continue``
            return ["if (%s) { break }" % self.pick(
                ("%s == 2" % loop_var, self.condition()))]
        if kind == "return":
            return (["if (%s) {" % self.condition()]
                    + self.indent(self.block(depth - 1)) + ["    return", "}"])
        if kind == "if":
            lines = (["if (%s) {" % self.condition()]
                     + self.indent(self.block(depth - 1, loop_var)))
            if self.draw(st.booleans()):
                lines += (["} else {"]
                          + self.indent(self.block(depth - 1, loop_var)))
            return lines + ["}"]
        if kind == "switch":
            if self.in_handler and self.draw(st.booleans()):
                subject, cases = "evt.value", ("active", "inactive")
            else:
                subject, cases = "location.mode", ("Home", "Away", "Night")
            lines = ["switch (%s) {" % subject]
            for case in cases[:self.draw(st.integers(1, len(cases)))]:
                lines += ['    case "%s":' % case]
                lines += self.indent(self.block(depth - 1) + ["break"], 2)
            if self.draw(st.booleans()):
                lines += ["    default:"]
                lines += self.indent(self.block(depth - 1), 2)
            return lines + ["}"]
        if kind == "for":
            lo, hi = self.pick(((1, 2), (1, 3), (2, 1), (0, 0)))
            var = self.fresh("i")
            return (["for (%s in %d..%d) {" % (var, lo, hi)]
                    + self.indent(self.block(depth - 1, var))
                    + ["}"])
        if kind == "while":
            var = self.fresh("n")
            bound = self.draw(st.integers(0, 3))
            return (["def %s = 0" % var,
                     "while (%s < %d) {" % (var, bound),
                     "    %s = %s + 1" % (var, var)]
                    + self.indent(self.block(depth - 1, var))
                    + ["}"])
        name = self.fresh("c")
        if self.draw(st.booleans()):
            return (["def %s = {" % name]
                    + self.indent(self.block(depth - 1))
                    + ["}", "%s()" % name])
        return (["def %s = { x ->" % name,
                 "    state.count = x"]
                + self.indent(self.block(depth - 1))
                + ["}", "%s(%d)" % (name, self.draw(st.integers(0, 3)))])

    @staticmethod
    def indent(lines, levels=1):
        return ["    " * levels + line for line in lines]


@st.composite
def _handler_programs(draw):
    """App source whose ``h(evt)`` and ``later()`` bodies are drawn."""
    handler = _ProgramBuilder(draw, in_handler=True).block(2)
    later = _ProgramBuilder(draw, in_handler=False).block(2)
    return "\n".join(
        ['definition(name: "Gen", namespace: "t", author: "t", '
         'description: "d", category: "c")', _GEN_PREFS, "def h(evt) {"]
        + _ProgramBuilder.indent(handler) + ["}", "def later() {"]
        + _ProgramBuilder.indent(later) + ["}"])


def _generated_system(source):
    from repro.config.schema import SystemConfiguration

    config = SystemConfiguration(contacts=["+1-555-0100"])
    config.add_device("m", "smartsense-motion")
    config.add_device("s1", "smart-outlet")
    config.add_device("s2", "smart-outlet")
    config.add_device("lk", "zwave-lock")
    config.association["main_door_lock"] = "lk"
    config.add_app("Gen", {"motion1": "m", "switch1": "s1",
                           "switches": ["s1", "s2"], "lock1": "lk",
                           "names": ["a"]})
    return ModelGenerator({"Gen": make_app(source)}).build(config)


class TestGeneratedPrograms:
    def test_tiers_agree_on_generated_handlers(self):
        """Commands, branches, early returns, switches, bounded loops,
        local closures, state, modes, schedules and messages in random
        combination, under a drawn scenario profile: the lean relation
        must reproduce the interpreted oracle's states, transitions,
        dedup keys and rendered traces - with cascade replay exercised
        along the way, on clean and faulted runs alike."""
        cascade_stats = {}

        @settings(derandomize=True, max_examples=300, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(_handler_programs(), st.sampled_from(sorted(scenario_names())))
        def tiers_agree(source, scenario):
            system = _generated_system(source)
            properties = select_relevant(system, build_properties())
            lean, interpreted = _verify_both(
                system, properties,
                cascade_stats.setdefault(scenario == "clean", []),
                max_events=2, scenario=scenario)
            assert not interpreted.truncated, (scenario, source)
            _assert_equivalent(lean, interpreted, (scenario, source))

        tiers_agree()
        for clean in (True, False):
            assert sum(stats["cascades_replayed"]
                       for stats in cascade_stats[clean]) > 0, clean
