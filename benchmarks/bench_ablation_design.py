"""Ablations for the design choices DESIGN.md calls out.

1. **Dependency analysis on/off** - checking one related set at a time
   versus throwing the whole group at the checker (the §5 motivation).
2. **BITSTATE sizing** - the bitfield size / collision trade-off behind
   §2.3's "empirical results ... have proved its effectiveness".
3. **Relevance-based property selection** - the §8 user-selection stand-in
   versus verifying all 45 properties.
"""

import time

from repro.engine import EngineOptions, ExplorationEngine, verify
from repro.corpus.groups import expert_configuration
from repro.deps import analyze_apps
from repro.model.generator import ModelGenerator
from repro.properties import build_properties, select_relevant

from conftest import print_table

_GROUP = "group1-entry-and-mode"


def test_ablation_dependency_analysis(registry, generator, benchmark):
    """Verify related sets separately vs the whole group jointly."""
    config = expert_configuration(_GROUP)
    apps = [registry[a.app] for a in config.apps if a.app in registry]
    analysis = analyze_apps(apps)

    whole_system = generator.build(config)
    properties = select_relevant(whole_system, build_properties())
    options = EngineOptions(max_events=2, max_states=100000)

    started = time.monotonic()
    whole = ExplorationEngine(whole_system, properties, options).run()
    whole_elapsed = time.monotonic() - started

    def check_related_sets():
        total_states = 0
        violated = set()
        for group_apps in analysis.app_groups():
            sub_config = expert_configuration(_GROUP)
            sub_config.apps = [a for a in sub_config.apps
                               if a.app in group_apps]
            system = generator.build(sub_config)
            sub_properties = select_relevant(system, build_properties())
            result = ExplorationEngine(system, sub_properties, options).run()
            total_states += result.states_explored
            violated.update(result.violated_property_ids)
        return total_states, violated

    started = time.monotonic()
    split_states, split_violated = benchmark.pedantic(
        check_related_sets, iterations=1, rounds=2)
    split_elapsed = time.monotonic() - started

    rows = [("whole group jointly", whole.states_explored,
             "%.2fs" % whole_elapsed,
             ", ".join(whole.violated_property_ids)),
            ("per related set (%d sets)" % len(analysis.related_sets),
             split_states, "%.2fs" % split_elapsed,
             ", ".join(sorted(split_violated)))]
    print_table("Ablation - App Dependency Analyzer (§5): the related-set "
                "split must find the same physical-state violations",
                ["strategy", "states", "time", "violated properties"], rows)
    # the split never loses the headline violations
    assert set(whole.violated_property_ids) <= split_violated | {"P39", "P40"}


def test_ablation_bitstate_sizing(generator, benchmark):
    """Collision rate vs bitfield size on a real exploration workload."""
    config = expert_configuration(_GROUP)
    system = generator.build(config)
    properties = select_relevant(system, build_properties())

    def explore_with_bits(bits):
        options = EngineOptions(max_events=3, visited="bitstate",
                                  bitstate_bits=bits, max_states=120000)
        return ExplorationEngine(system, properties, options).run()

    exact = verify(system, properties, max_events=3, max_states=120000)
    rows = [("exact", "-", exact.states_explored, "-", "-")]
    for bits in (12, 16, 20, 24):
        result = explore_with_bits(bits)
        rows.append(("bitstate", "2^%d" % bits, result.states_explored,
                     "%.1f%%" % (100.0 * (1 - result.states_explored
                                          / max(1, exact.states_explored))),
                     "%.3f" % result.visited_stats["fill_ratio"]))
    print_table("Ablation - BITSTATE sizing (§2.3): larger bitfields "
                "recover exact-store coverage",
                ["store", "bits", "states explored", "states lost",
                 "fill ratio"], rows)

    small = explore_with_bits(12).states_explored
    large = explore_with_bits(24).states_explored
    assert large >= small
    # the bit field tags each probe with its depth, so a roomy one loses
    # states to collisions only: it finds exactly the exhaustive space
    assert large == exact.states_explored

    benchmark.pedantic(explore_with_bits, args=(20,), iterations=1,
                       rounds=3)


def test_ablation_property_selection(generator, benchmark):
    """All 45 properties vs the relevance-selected subset."""
    config = expert_configuration(_GROUP)
    system = generator.build(config)
    all_properties = build_properties()
    selected = select_relevant(system, all_properties)

    options = EngineOptions(max_events=2, max_states=60000)
    with_all = ExplorationEngine(system, all_properties, options).run()
    with_selected = benchmark.pedantic(
        ExplorationEngine(system, selected, options).run, iterations=1, rounds=3)

    noise = set(with_all.violated_property_ids) - set(
        with_selected.violated_property_ids)
    rows = [("all 45 properties", len(all_properties),
             len(with_all.violations),
             ", ".join(sorted(noise)) or "-"),
            ("relevance-selected", len(selected),
             len(with_selected.violations), "-")]
    print_table("Ablation - property selection (§8): relevance selection "
                "removes violations no installed app could prevent",
                ["property set", "properties", "violations",
                 "noise-only properties"], rows)
    assert len(selected) < len(all_properties)
    # selection must not drop any violation of a selected property
    assert set(with_selected.violated_property_ids) <= set(
        with_all.violated_property_ids)
