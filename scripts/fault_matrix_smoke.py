#!/usr/bin/env python
"""CI smoke test for the fault-injection scenario matrix.

Runs one small bundled system through **every scenario profile on both
relations** (the lean default and the interpreted oracle) and diffs
the semantic verdict JSON (verdict, violation set, state/transition
counts, per-counterexample event paths and rendered traces -
wall-clock and cache statistics stripped).  Any cell where the lean
relation disagrees with the interpreted oracle fails the job: the
profiles are only trustworthy if the faulted relation is
relation-independent.  It also pins the scope of cascade replay and of
stateless quiet leaves (unheard sensor events at the depth bound
admitted by fingerprint alone): every profile's lean run must replay
at least one cascade, and only the clean profile's may (and must) take
a quiet leaf - a faulted profile's quiet set is empty.

Exit code 0 on success, 1 on any mismatch.

Usage::

    PYTHONPATH=src python scripts/fault_matrix_smoke.py [--group NAME]
                                                        [--max-events N]
"""

import argparse
import json
import sys

ENGINES = ("interpreted", "lean")


def semantic_json(result):
    """The observables both relations must agree on, as canonical
    JSON."""
    view = {
        "verdict": result.verdict,
        "violated_property_ids": result.violated_property_ids,
        "states_explored": result.states_explored,
        "transitions": result.transitions,
        "truncated": result.truncated,
        "counterexamples": {
            repr(key): {"events": ce.event_labels(),
                  "steps": [(step.kind, step.text, step.app)
                            for step in ce.all_steps()]}
            for key, ce in sorted(result.counterexamples.items())},
    }
    return json.dumps(view, sort_keys=True, indent=2)


def run_cell(group, scenario, engine, max_events):
    """One matrix cell: ``(result, cascade_stats)``."""
    from repro import build_system
    from repro.corpus.groups import GROUP_BUILDERS
    from repro.engine import EngineOptions, ExplorationEngine
    from repro.properties import build_properties, select_relevant

    system = build_system(GROUP_BUILDERS[group]())
    properties = select_relevant(system, build_properties())
    options = EngineOptions(max_events=max_events, scenario=scenario,
                            engine=engine)
    runner = ExplorationEngine(system, properties, options)
    return runner.run(), runner.cascade_stats


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--group", default="group1-entry-and-mode")
    parser.add_argument("--max-events", type=int, default=2)
    args = parser.parse_args()

    from repro.model.faults import scenario_names

    mismatches = []
    scope_errors = []
    print("fault matrix: %s, max_events=%d" % (args.group, args.max_events))
    print("%-14s %-12s %10s %12s %8s" % ("scenario", "engine", "states",
                                         "transitions", "verdict"))
    for scenario in scenario_names():
        cells = {}
        for engine in ENGINES:
            result, stats = run_cell(args.group, scenario, engine,
                                     args.max_events)
            cells[engine] = semantic_json(result)
            print("%-14s %-12s %10d %12d %8s"
                  % (scenario, engine, result.states_explored,
                     result.transitions, result.verdict))
            if engine == "lean":
                if stats["cascades_replayed"] < 1:
                    scope_errors.append(scenario)
                    print("SCOPE: %s/lean replayed no cascade; every "
                          "profile must" % scenario)
                if (stats["quiet_leaves"] > 0) != (scenario == "clean"):
                    scope_errors.append(scenario)
                    print("SCOPE: %s/lean has quiet_leaves=%d; only the "
                          "clean profile may (and must) take any"
                          % (scenario, stats["quiet_leaves"]))
        if cells["lean"] != cells["interpreted"]:
            mismatches.append(scenario)
            print("MISMATCH: %s/lean diverges from the interpreted "
                  "oracle" % scenario)
            for line in _first_diff_lines(cells["interpreted"],
                                          cells["lean"]):
                print("  " + line)
    if mismatches:
        print("\nFAIL: %d matrix cell(s) diverged: %s"
              % (len(mismatches),
                 ", ".join("%s/lean" % cell for cell in mismatches)))
    if scope_errors:
        print("\nFAIL: cascade replay or quiet leaves out of scope in: %s"
              % ", ".join("%s/lean" % cell for cell in scope_errors))
    if mismatches or scope_errors:
        return 1
    print("\nOK: every scenario verdict is identical on both "
          "relations, every profile replays cascades and only the "
          "clean profile takes quiet leaves")
    return 0


def _first_diff_lines(left, right, context=3):
    """The first few differing lines of two JSON documents."""
    left_lines, right_lines = left.splitlines(), right.splitlines()
    shown = 0
    for index, (a, b) in enumerate(zip(left_lines, right_lines)):
        if a != b:
            yield "line %d: oracle %r != %r" % (index + 1, a, b)
            shown += 1
            if shown >= context:
                return
    if len(left_lines) != len(right_lines) and not shown:
        yield "document lengths differ: %d vs %d lines" % (
            len(left_lines), len(right_lines))


if __name__ == "__main__":
    sys.exit(main())
