"""Codegen-tier differential tests: generated modules vs the oracle.

The codegen tier (:mod:`repro.model.codegen`) is a pure performance
knob: per-app Python source generation, pooled executors, a lean
traceless cascade, replay of repeated cascades, a cascade-free path
for sensor events no app hears and, at the depth bound, stateless
leaves for them.  None of that
may move a single observable - these suites prove verdicts, violation
sets, per-counterexample event paths and rendered traces byte-identical
to the interpreted oracle across the whole bundled corpus, every
visited store and failure enumeration, and
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
from repro.model import codegen, replay
from repro.model.codegen import CodegenError, CodegenPlan
from repro.model.cascade import TIME_QUANTUM_MS
from repro.model.faults import scenario_names
from repro.model.generator import ModelGenerator
from repro.model.state import ModelState, QuietLeaf
from repro.properties import build_properties, select_relevant
from repro.translator.lowering import lower_program

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


@pytest.fixture(scope="module")
def codegen_cache(tmp_path_factory):
    """A private on-disk source cache, one per test module run."""
    return str(tmp_path_factory.mktemp("codegen-cache"))


def _verify_both(system, properties, codegen_cache, cascade_stats=None,
                 **option_kwargs):
    """Run both tiers; the codegen run's cascade counts are appended to
    ``cascade_stats`` when a list is given."""
    results = {}
    for engine in ("codegen", "interpreted"):
        options = EngineOptions(engine=engine, codegen_cache=codegen_cache,
                                **option_kwargs)
        runner = ExplorationEngine(system, properties, options)
        results[engine] = runner.run()
        if engine == "codegen" and cascade_stats is not None:
            cascade_stats.append(runner.cascade_stats)
    return results["codegen"], results["interpreted"]


def _trace_view(result):
    """Per-counterexample event paths and full rendered step traces."""
    return {
        key: (ce.event_labels(),
              [(s.kind, s.text, s.app) for s in ce.all_steps()])
        for key, ce in result.counterexamples.items()}


def _assert_equivalent(codegen, interpreted, context, traces=True):
    assert codegen.states_explored == interpreted.states_explored, context
    assert codegen.transitions == interpreted.transitions, context
    assert (sorted(codegen.counterexamples)
            == sorted(interpreted.counterexamples)), context
    if traces:
        assert _trace_view(codegen) == _trace_view(interpreted), context


class TestWholeCorpusGenerates:
    def test_every_corpus_app_generates_compilable_source(self, corpus):
        """The emitter must handle every construct the corpus uses - no
        app may silently fall back to the interpreter - and the emitted
        text must be real, compilable Python."""
        failures = []
        for name, app in sorted(corpus.items()):
            try:
                ir = lower_program(app.program)
                source = _Emitted(ir, name).source
                compile(source, "<codegen:%s>" % name, "exec")
            except Exception as exc:
                failures.append("%s: %s" % (name, exc))
        assert not failures, "ungeneratable corpus apps:\n" + "\n".join(
            failures)

    def test_emission_is_deterministic(self, corpus):
        """Identical IR must emit byte-identical source (the disk cache
        depends on it: a re-generation must reproduce the cached file)."""
        for name, app in sorted(corpus.items())[:10]:
            ir = lower_program(app.program)
            assert _Emitted(ir, name).source == _Emitted(ir, name).source


class _Emitted:
    """Tiny adapter: emit a module for a lowered program by name."""

    def __init__(self, ir, name):
        from repro.model.codegen import SourceEmitter
        self.source = SourceEmitter(ir).emit_module(name, "test-digest")


class TestPerAppDifferential:
    """Every corpus app, auto-configured into the zoo home, explored by
    the codegen tier and the interpreted oracle with identical
    outcomes."""

    def test_full_corpus_codegen_equals_interpreted(self, corpus,
                                                    codegen_cache):
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
            codegen, interpreted = _verify_both(
                system, properties, codegen_cache,
                max_events=2, max_states=300)
            _assert_equivalent(codegen, interpreted, "app %r" % name)
            checked += 1
        # the bundled corpus is 57 market + 9 malicious + 4 discovery
        # apps; virtually all of them must be installable in the zoo
        assert checked >= 60, "only %d corpus apps exercised" % checked

    def test_no_corpus_app_falls_back(self, corpus, codegen_cache):
        """Plan build over a fully-loaded zoo: every installable app
        must come out generated, not on the fallback list."""
        config = _zoo_deployment()
        enumerator = ConfigurationEnumerator(_zoo_deployment())
        installed = 0
        for name, smart_app in sorted(corpus.items()):
            if installed >= 10:
                break
            bindings = next(iter(
                enumerator.enumerate_bindings(smart_app, limit=1)), None)
            if bindings is None:
                continue
            config.add_app(name, bindings)
            installed += 1
        system = ModelGenerator(corpus).build(config, strict=False)
        plan = CodegenPlan(system, cache_dir=codegen_cache)
        assert plan.fallbacks == []
        assert plan.generated == len(system.apps)


class TestGroupDifferential:
    """The six §10.1 expert groups: multi-app interaction, real
    violation sets, identical under the codegen tier."""

    @pytest.mark.parametrize("group_name", sorted(GROUP_BUILDERS))
    def test_group_codegen_equals_interpreted(self, group_name,
                                              codegen_cache):
        registry = _load_or_skip(load_all_apps)
        system = ModelGenerator(registry).build(GROUP_BUILDERS[group_name]())
        properties = select_relevant(system, build_properties())
        codegen, interpreted = _verify_both(
            system, properties, codegen_cache, max_events=2, max_states=5000)
        _assert_equivalent(codegen, interpreted, group_name)

    @pytest.mark.parametrize("visited", ["exact"])
    def test_group1_every_exact_store(self, visited, codegen_cache):
        """The lean path consults the visited store through the same
        engine hooks; the exact stores must agree state-for-state."""
        registry = _load_or_skip(load_all_apps)
        system = ModelGenerator(registry).build(
            GROUP_BUILDERS["group1-entry-and-mode"]())
        properties = select_relevant(system, build_properties())
        codegen, interpreted = _verify_both(
            system, properties, codegen_cache,
            max_events=2, max_states=5000, visited=visited)
        _assert_equivalent(codegen, interpreted, "group1+" + visited)

    def test_group1_bitstate_verdict(self, codegen_cache):
        """The bitstate store is probabilistic in coverage but the
        verdict on this violating workload must not flip."""
        registry = _load_or_skip(load_all_apps)
        system = ModelGenerator(registry).build(
            GROUP_BUILDERS["group1-entry-and-mode"]())
        properties = select_relevant(system, build_properties())
        codegen, interpreted = _verify_both(
            system, properties, codegen_cache,
            max_events=2, max_states=5000, visited="bitstate",
            bitstate_bits=20)
        assert codegen.verdict == interpreted.verdict
        assert (codegen.violated_property_ids
                == interpreted.violated_property_ids)

    def test_group1_with_failures_and_concurrent(self, codegen_cache):
        """Failure enumeration disables the quiet-sensor path and the
        concurrent design bypasses the lean relation entirely; both
        must stay back-end independent."""
        registry = _load_or_skip(load_all_apps)
        config = GROUP_BUILDERS["group1-entry-and-mode"]()
        system = ModelGenerator(registry).build(config,
                                                enable_failures=True)
        properties = select_relevant(system, build_properties())
        codegen, interpreted = _verify_both(
            system, properties, codegen_cache, max_events=1,
            max_states=2000)
        _assert_equivalent(codegen, interpreted, "group1+failures")

        system = ModelGenerator(registry).build(config)
        codegen, interpreted = _verify_both(
            system, properties, codegen_cache, max_events=2,
            max_states=2000, mode="concurrent")
        _assert_equivalent(codegen, interpreted, "group1+concurrent")


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
        default tier."""
        outputs = []
        for tier in (["--engine", "interpreted"], []):
            cli_main(["check", group_name, "--json"] + tier)
            outputs.append(json.dumps(_without_timing(
                json.loads(capsys.readouterr().out))))
        assert outputs[0] == outputs[1]


class TestRunLeavesNoCycle:
    def test_system_dies_with_engine_and_result(self, codegen_cache):
        """A codegen run must not leave the system in a reference cycle:
        with the cyclic collector off, dropping the engine and the result
        frees it (the pooled executors let go of their last cascade)."""
        registry = _load_or_skip(load_all_apps)
        system = ModelGenerator(registry).build(
            GROUP_BUILDERS["group1-entry-and-mode"]())
        properties = select_relevant(system, build_properties())
        engine = ExplorationEngine(
            system, properties,
            EngineOptions(max_events=2, codegen_cache=codegen_cache))
        assert engine.options.engine == "codegen"
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


def _plan_and_monitors(system, codegen_cache):
    properties = select_relevant(system, build_properties())
    engine = ExplorationEngine(system, properties,
                               EngineOptions(codegen_cache=codegen_cache))
    return (CodegenPlan(system, cache_dir=codegen_cache),
            engine._monitor_factory)


class TestCascadeReplay:
    """Cascade replay must be invisible: a replayed successor equals the
    live one in everything the search and its reports read."""

    @pytest.mark.parametrize("group_name", sorted(GROUP_BUILDERS))
    def test_replayed_expansions_equal_live_ones(self, group_name,
                                                 codegen_cache):
        """Every state reachable within max_events=2 expands twice
        through one plan: the second pass is all replay and equals the
        first.  The states the search expands (depth < 2) also get a
        fully live reference, each on an empty trie."""
        registry = _load_or_skip(load_all_apps)
        system = ModelGenerator(registry).build(GROUP_BUILDERS[group_name]())
        live, monitors = _plan_and_monitors(system, codegen_cache)
        plan, _ = _plan_and_monitors(system, codegen_cache)

        # the cascade-free path for unheard sensor events never replays
        quiet = {ext.label() for ext in plan._quiet}

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
            before = plan.stats()
            passes.append([views(plan.transitions(state, monitors))
                           for state in states])
        after = plan.stats()
        assert after["cascades_live"] == before["cascades_live"]
        assert (after["cascades_replayed"]
                > before["cascades_replayed"]), group_name
        assert after["replay_leaves"] == before["replay_leaves"] > 0
        first, second = passes
        assert second == first, group_name
        for state, want, got in zip(states, expected, second):
            assert got == want, (group_name, state)

    def test_clock_reads_key_the_replay(self, codegen_cache):
        """A handler that reads ``now()`` sees the clock, so two states
        differing only in time must not share its cascade; a handler
        that never reads it must."""
        outcomes = {}
        for body in ("state.t = now()", "state.t = 1"):
            system = _generated_system(
                'definition(name: "Gen", namespace: "t", author: "t", '
                'description: "d", category: "c")' + _GEN_PREFS
                + "def h(evt) { %s }\ndef later() { }" % body)
            plan, monitors = _plan_and_monitors(system, codegen_cache)
            early = system.initial_state()
            late = early.copy()
            late.time += 5 * TIME_QUANTUM_MS
            app = system.apps[0].name
            counts = []
            for state in (early, late):
                before = plan.stats()
                (transition,) = [
                    t for t in plan.transitions(state, monitors)
                    if t[0].startswith("m/motion=")]
                after = plan.stats()
                counts.append((
                    after["cascades_live"] - before["cascades_live"],
                    after["cascades_replayed"] - before["cascades_replayed"]))
                assert (transition[1].peek_app_state(app)["t"]
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
        for name in ("devices", "app_states", "history", "copy", "seal"):
            with pytest.raises(replay.UnrecordedAccess):
                getattr(view, name, None)
        view.set_attribute("d", "switch", "on")
        assert view.attribute("d", "switch") == "on"

    def test_faults_replay_nothing(self, codegen_cache):
        """Only clean single-scenario cascades replay: failure
        enumeration and every non-clean profile run each one live."""
        registry = _load_or_skip(load_all_apps)
        config = GROUP_BUILDERS["group1-entry-and-mode"]()
        runs = {}
        for scenario in scenario_names():
            system = ModelGenerator(registry).build(config)
            runs[scenario] = system, {"scenario": scenario}
        runs["failures"] = (ModelGenerator(registry).build(
            config, enable_failures=True), {})
        for name, (system, option_kwargs) in runs.items():
            properties = select_relevant(system, build_properties())
            engine = ExplorationEngine(system, properties, EngineOptions(
                max_events=2, codegen_cache=codegen_cache, **option_kwargs))
            engine.run()
            stats = engine.cascade_stats
            assert stats["cascades_live"] > 0, name
            if name == "clean":
                assert stats["cascades_replayed"] > 0
            else:
                assert stats["cascades_replayed"] == 0, name
                assert stats["replay_leaves"] == 0, name


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
    """Records the type of every state the visited store is handed."""

    def __init__(self, *args):
        super().__init__(*args)
        self.admitted = set()

    def _setup_search(self):
        parts = super()._setup_search()
        store = parts[0]
        seen_state = store.seen_state

        def spy(state, depth):
            self.admitted.add(type(state))
            return seen_state(state, depth)
        store.seen_state = spy
        return parts


class TestStatelessQuietLeaves:
    """A quiet event at the depth bound hands the fingerprint store a
    stub carrying the successor's fingerprint: its keys and verdict must
    equal those of the successor it stands for."""

    @pytest.mark.parametrize("source, parent_depth",
                             [("expert", 2), ("vgroup08", 1)])
    def test_stateless_keys_equal_built_successors(self, source,
                                                   parent_depth,
                                                   codegen_cache):
        """Every quiet event from every state within ``parent_depth``
        events - the parents the workload's search takes stubs from
        (expert groups at bound 3, volunteer jobs at bound 2): the
        parent-derived ``(fingerprint, physical_key)`` equals the built,
        sealed successor's, and the overlay's verdict equals the exact
        one on that successor."""
        systems = (_expert_systems() if source == "expert"
                   else _volunteer_systems(source))
        checked = 0
        for name, system, properties in systems:
            plan = CodegenPlan(system, cache_dir=codegen_cache)
            monitors = ExplorationEngine(
                system, properties,
                EngineOptions(codegen_cache=codegen_cache))._monitor_factory
            exact = CompiledProperties(system, properties, memoize=False)
            verdicts = {}
            frontier = [system.initial_state()]
            seen = {frontier[0].canonical_key()}
            for depth in range(parent_depth + 1):
                successors = []
                for state in frontier:
                    for ext in system.external_choices(state):
                        if ext not in plan._quiet:
                            continue
                        keys = state.replaced_keys(ext.device, ext.attribute,
                                                   ext.value)
                        built = state.copy()
                        built.cascade_commands = ()
                        built.time += TIME_QUANTUM_MS
                        built.set_attribute(ext.device, ext.attribute,
                                            ext.value)
                        built.record_event(ext.device, ext.attribute,
                                           ext.value)
                        built.seal()
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
                    for transition in plan.transitions(state, monitors):
                        key = transition[1].canonical_key()
                        if key not in seen:
                            seen.add(key)
                            successors.append(transition[1])
                frontier = successors
            plan.release()
        assert checked > 1000, checked

    def test_overlay_exposes_only_attribute_and_mode(self):
        state = ModelState(mode="Away")
        state.set_attribute("d", "switch", "off")
        state.seal()
        overlay = ReplacedAttribute(state, "d", "switch", "on")
        assert overlay.attribute("d", "switch") == "on"
        assert overlay.attribute("d", "level") is None
        assert overlay.mode == "Away"
        for name in ("devices", "app_state", "history"):
            with pytest.raises(AttributeError):
                getattr(overlay, name)

    def test_escaped_parent_takes_the_full_path(self, codegen_cache):
        """A parent whose raw maps were handed out has no trustworthy
        cached hashes: no stateless keys, no stubs, and the successors
        built instead equal a clean parent's."""
        registry = _load_or_skip(load_all_apps)
        system = ModelGenerator(registry).build(
            GROUP_BUILDERS["group1-entry-and-mode"]())
        plan, monitors = _plan_and_monitors(system, codegen_cache)
        clean = system.initial_state()
        escaped = clean.copy()
        escaped.devices  # handing out the raw maps escapes them
        quiet = [ext for ext in system.external_choices(escaped)
                 if ext in plan._quiet]
        assert quiet
        for ext in quiet:
            assert escaped.replaced_keys(ext.device, ext.attribute,
                                         ext.value) is None
        transitions = plan.transitions(escaped, monitors, leaf=True)
        assert plan.stats()["quiet_leaves"] == 0
        assert all(isinstance(t[1], ModelState) for t in transitions)
        assert ([_transition_view(system, t) for t in transitions]
                == [_transition_view(system, t)
                    for t in plan.transitions(clean, monitors)])

    def test_default_store_takes_stubs(self, codegen_cache):
        registry = _load_or_skip(load_all_apps)
        system = ModelGenerator(registry).build(
            GROUP_BUILDERS["group1-entry-and-mode"]())
        properties = select_relevant(system, build_properties())
        spy = _StoreSpy(system, properties, EngineOptions(
            max_events=2, codegen_cache=codegen_cache))
        result = spy.run()
        assert spy.cascade_stats["quiet_leaves"] > 0
        assert QuietLeaf in spy.admitted
        assert result.states_explored == 467

    @pytest.mark.parametrize("visited", ["exact", "bitstate"])
    def test_other_stores_receive_built_states(self, visited, codegen_cache):
        """Only the default fingerprint store takes stubs: every other
        store is handed full successors and matches the oracle."""
        registry = _load_or_skip(load_all_apps)
        system = ModelGenerator(registry).build(
            GROUP_BUILDERS["group1-entry-and-mode"]())
        properties = select_relevant(system, build_properties())
        spy = _StoreSpy(system, properties, EngineOptions(
            max_events=2, codegen_cache=codegen_cache, visited=visited))
        result = spy.run()
        assert spy.admitted == {ModelState}, visited
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
    def test_list_setting_mutated_in_place_does_not_leak(self,
                                                         codegen_cache):
        """A handler growing a ``multiple: true`` enum setting in place
        mutates its own copy: every run sees the configured value, on
        both tiers, so cascade replay (which skips the handler) agrees
        with a live run.  Shared, the list grew for good and the tiers
        disagreed (101 states interpreted, 59 codegen)."""
        config = SystemConfiguration(contacts=["+1-555-0100"])
        config.add_device("m", "smartsense-motion")
        config.add_device("s1", "smart-outlet")
        config.add_app("Names", {"motion1": "m", "switch1": "s1",
                                 "names": ["a"]})
        system = ModelGenerator({"Names": make_app(_NAMES_APP)}).build(config)
        properties = select_relevant(system, build_properties())
        codegen_run, interpreted = _verify_both(
            system, properties, codegen_cache, max_events=3)
        _assert_equivalent(codegen_run, interpreted, "names << x")
        assert codegen_run.states_explored == 58
        assert codegen_run.transitions == 203
        plan = {name: payload
                for name, _is_device, payload, _group
                in system.apps[0].binding_plan()}
        assert plan["names"] == ["a"]


class TestFallback:
    def test_ungeneratable_app_runs_on_the_interpreter(self, monkeypatch):
        """An app whose IR defeats the emitter is listed on the plan's
        fallbacks and runs on the interpreter, in the lean relation and
        in traced replays alike: the run equals the interpreted one."""
        registry = _load_or_skip(load_all_apps)
        system = ModelGenerator(registry).build(
            GROUP_BUILDERS["group1-entry-and-mode"]())
        properties = select_relevant(system, build_properties())
        victim = system.apps[0].name
        real_generate = codegen.generate_source

        def generate_source(app_instance, digest=""):
            if app_instance.name == victim:
                raise CodegenError("unsupported construct")
            return real_generate(app_instance, digest)

        monkeypatch.setattr(codegen, "generate_source", generate_source)
        # a private in-process memo: the patched outcome must neither
        # come from nor leak into other tests' generated programs
        monkeypatch.setattr(codegen.load_program, "__defaults__", (None, {}))
        plan = CodegenPlan(system, cache_dir=False)
        assert plan.fallbacks == [victim]
        assert plan.generated == len(system.apps) - 1
        plan.release()
        fallback, interpreted = _verify_both(system, properties, False,
                                             max_events=2)
        assert fallback.states_explored == 467
        assert fallback.transitions == 812
        _assert_equivalent(fallback, interpreted, "fallback " + victim)


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
    def test_tiers_agree_on_generated_handlers(self, codegen_cache):
        """Commands, branches, early returns, switches, bounded loops,
        local closures, state, modes, schedules and messages in random
        combination: the default tier must reproduce the interpreted
        oracle's states, transitions, dedup keys and rendered traces -
        with cascade replay exercised along the way."""
        cascade_stats = []

        @settings(derandomize=True, max_examples=300, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(_handler_programs())
        def tiers_agree(source):
            system = _generated_system(source)
            # the emitter must take every drawn construct: a fallback app
            # would compare the interpreter with itself
            compile(codegen.generate_source(system.apps[0]), "<gen>", "exec")
            properties = select_relevant(system, build_properties())
            codegen_run, interpreted = _verify_both(
                system, properties, codegen_cache, cascade_stats,
                max_events=2)
            assert not interpreted.truncated, source
            _assert_equivalent(codegen_run, interpreted, source)

        tiers_agree()
        assert sum(stats["cascades_replayed"] for stats in cascade_stats) > 0
