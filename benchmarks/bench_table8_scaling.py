"""Table 8: verification time vs number of events.

The paper's bigger violation-free system (5 related apps, 10 devices)
shows the exponential growth of the bounded search: 6.61s at 6 events up
to 23.39h at 11.  We reproduce the growth curve on the same kind of
system with smaller bounds (the shape is the ratio between successive
bounds, not the absolute seconds).

Two engine-level additions ride on the same workload: the per-state cost
of the visited stores (copy-on-write states + incremental fingerprints
vs full canonical keys) and the parallel batch axis (``verify_many``
fanning independent scaling points across worker processes).
"""

import os
import resource
import sys
import time

from repro.engine import EngineOptions, VerificationJob, verify, verify_many
from repro.config.schema import SystemConfiguration
from repro.properties import build_properties, select_relevant

from conftest import print_table, update_bench_artifact


def peak_rss_kb():
    """Peak resident set size of this process so far, in KiB.

    ``ru_maxrss`` is a high-water mark, so per-phase readings are only
    meaningful as a monotone sequence: a phase that did not raise the
    peak repeats the previous value.  Linux reports the counter in KiB,
    macOS in bytes; normalized here so the artifact is comparable.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    return peak

#: Table 8 as published (seconds)
PAPER = {6: 6.61, 7: 50.9, 8: 396, 9: 2989.8, 10: 21204, 11: 84204}


def five_app_config():
    """5 related apps over 10 devices, violation-free by construction."""
    config = SystemConfiguration(contacts=["+1-555-0100"])
    for index in range(3):
        config.add_device("switch%d" % index, "smart-outlet")
        config.add_device("motion%d" % index, "smartsense-motion")
    config.add_device("tempMeas", "temperature-sensor")
    config.add_device("frontContact", "smartsense-multi")
    config.add_device("hallIlluminance", "illuminance-sensor")
    config.add_device("bathHumidity", "humidity-sensor")
    config.add_app("Brighten My Path", {"motion1": "motion0",
                                        "switch1": "switch0"})
    config.add_app("Darken Behind Me", {"motion1": "motion1",
                                        "switches": ["switch0"]})
    config.add_app("Smart Nightlight", {
        "lights": ["switch1"], "motionSensor": "motion2",
        "lightSensor": "hallIlluminance", "luxLevel": 30})
    config.add_app("Light Off When Close", {"contact1": "frontContact",
                                            "switches": ["switch2"]})
    config.add_app("Humidity Fan", {"humidity": "bathHumidity",
                                    "fan": "switch2", "maxHumidity": 60})
    return config


def five_app_system(generator):
    return generator.build(five_app_config())


def test_table8_growth_curve(generator, benchmark):
    system = five_app_system(generator)
    properties = select_relevant(system, build_properties())

    rows = []
    timings = {}
    states = {}
    trajectory = []
    for max_events in (1, 2, 3, 4):
        started = time.monotonic()
        result = verify(system, properties, max_events=max_events,
                        max_states=3000000)
        elapsed = time.monotonic() - started
        timings[max_events] = elapsed
        states[max_events] = result.states_explored
        rows.append((max_events, "%.3fs" % elapsed,
                     result.states_explored, result.transitions))
        trajectory.append({
            "events": max_events,
            "seconds": round(elapsed, 4),
            "states": result.states_explored,
            "transitions": result.transitions,
            "states_per_second": round(result.states_per_second, 1),
            "visited_bytes_per_state": result.visited_stats.get(
                "bytes_per_state", 0.0),
            "peak_rss_kb": peak_rss_kb(),
        })
    for events, paper_seconds in sorted(PAPER.items()):
        rows.append(("%d (paper)" % events, "%.2fs" % paper_seconds,
                     "-", "-"))
    print_table("Table 8 - verification time vs number of events "
                "(paper: 6.61s @6 events growing to 23.39h @11)",
                ["events", "time", "states", "transitions"], rows)
    update_bench_artifact("table8", "trajectory", trajectory)

    # the shape: super-linear growth in explored states per added event
    assert states[2] > states[1]
    assert states[3] > states[2]
    assert states[4] > states[3]
    growth_late = states[4] / states[3]
    assert growth_late > 1.3

    # paper's curve grows roughly 4-8x per event; ours must grow too
    assert timings[4] > timings[2]

    benchmark.pedantic(
        lambda: verify(system, properties, max_events=3,
                       max_states=3000000),
        iterations=1, rounds=3)


def test_table8_bitstate_keeps_up(generator, benchmark):
    """BITSTATE hashing (§2.3) explores the same space in comparable time
    with bounded memory - the reason the paper runs Spin with it."""
    system = five_app_system(generator)
    properties = select_relevant(system, build_properties())

    exact = verify(system, properties, max_events=3)
    bitstate = benchmark(
        lambda: verify(system, properties, max_events=3,
                       visited="bitstate", bitstate_bits=22))
    rows = [("exact", exact.states_explored,
             len(exact.violations)),
            ("bitstate (2^22 bits)", bitstate.states_explored,
             len(bitstate.violations))]
    print_table("BITSTATE vs exact visited store at 3 events",
                ["store", "states explored", "violations"], rows)
    # the bitfield tags each probe with its depth, so it re-expands a
    # state reached again closer to the root like the exact store and
    # loses states to hash collisions only: none in a 2^22-bit field
    assert bitstate.states_explored == exact.states_explored
    assert sorted(bitstate.counterexamples) == sorted(exact.counterexamples)


def test_table8_compiled_transition_relation(generator, benchmark):
    """The relation axis: the lean relation vs the traced oracle.

    Both run handlers on the tree interpreter; the lean relation (the
    default) runs each distinct cascade once and replays its repeats,
    and must clearly beat the traced relation (it exists for exactly
    that) on the same bounded space.
    """
    system = five_app_system(generator)
    properties = select_relevant(system, build_properties())

    def run(**kwargs):
        return verify(system, properties, max_events=3,
                      max_states=3000000, **kwargs)

    def best(results):
        return min(results, key=lambda r: r.elapsed)

    # samples are interleaved so slow drift on a shared runner (thermal,
    # noisy neighbours) biases neither relation
    lean_runs, interpreted_runs = [], []
    for _ in range(3):
        lean_runs.append(run(engine="lean"))
        interpreted_runs.append(run(engine="interpreted"))
    lean = best(lean_runs)
    interpreted = best(interpreted_runs)
    benchmark.pedantic(lambda: run(engine="lean"), iterations=1, rounds=2)

    rows = [
        ("lean (default)", lean.states_explored, lean.transitions,
         "%.0f" % lean.states_per_second),
        ("interpreted", interpreted.states_explored,
         interpreted.transitions, "%.0f" % interpreted.states_per_second),
    ]
    print_table("Transition relations at 3 events",
                ["engine", "states", "transitions", "states/sec"], rows)
    update_bench_artifact("table8", "engine_modes", {
        "lean": {
            "states": lean.states_explored,
            "transitions": lean.transitions,
            "states_per_second": round(lean.states_per_second, 1),
        },
        "interpreted": {
            "states": interpreted.states_explored,
            "transitions": interpreted.transitions,
            "states_per_second": round(interpreted.states_per_second, 1),
        },
    })

    # relation equivalence on the same bounded space
    assert lean.states_explored == interpreted.states_explored
    assert lean.transitions == interpreted.transitions
    assert (sorted(lean.counterexamples)
            == sorted(interpreted.counterexamples))
    # cascade replay and quiet leaves must deliver a clear win over the
    # traced relation on the same space - the speedup the lean relation
    # exists for
    assert (lean.states_per_second
            >= interpreted.states_per_second * 1.5), (
        "lean %.0f st/s vs interpreted %.0f st/s"
        % (lean.states_per_second, interpreted.states_per_second))


def test_table8_fingerprint_store_per_state_cost(generator, benchmark):
    """The engine's per-state axis: one-word incremental fingerprints vs
    full canonical-key hashing in the visited store.

    Both stores walk the identical COW state space (the fingerprint set
    keeps depth-aware re-expansion), so the states/sec gap isolates the
    cost of re-canonicalizing every state on the hot path.
    """
    system = five_app_system(generator)
    properties = select_relevant(system, build_properties())

    # best-of-3 baseline: a single unbenchmarked sample would make the
    # ratio assertion flaky on noisy shared CI runners (the exact store
    # must be requested now that one-word fingerprints are the default)
    exact = None
    for _ in range(3):
        candidate = verify(system, properties, max_events=3, visited="exact")
        if exact is None or candidate.elapsed < exact.elapsed:
            exact = candidate
    fingerprint = benchmark(
        lambda: verify(system, properties, max_events=3,
                       visited="fingerprint"))
    rows = [("exact (canonical keys)", exact.states_explored,
             "%.0f" % exact.states_per_second),
            ("fingerprint (64-bit)", fingerprint.states_explored,
             "%.0f" % fingerprint.states_per_second)]
    print_table("Visited-store per-state cost at 3 events",
                ["store", "states explored", "states/sec"], rows)
    # identical coverage (fingerprint collisions are ~2^-64 per pair)...
    assert fingerprint.states_explored == exact.states_explored
    assert fingerprint.violated_property_ids == exact.violated_property_ids
    # ...at a per-state cost no worse than full canonicalization
    # (measured ~1.6x faster; 0.8 bound absorbs shared-runner noise)
    assert fingerprint.states_per_second >= exact.states_per_second * 0.8


def test_table8_memory_lean_deep_run(generator, benchmark):
    """The deep-exploration axis (the paper's Table-8 wall): at
    ``max_events=4`` the visited store dominates memory, so this measures
    bytes/state and throughput for the fingerprint default against the
    exact store's canonical keys.

    The one-word fingerprint entries must undercut the exact store's
    canonical keys by well over an order of magnitude.
    """
    system = five_app_system(generator)
    properties = select_relevant(system, build_properties())

    def run(**kwargs):
        return verify(system, properties, max_events=4,
                      max_states=3000000, **kwargs)

    fingerprint = run()
    # the exact store at depth 4 pins full canonical keys - measured at
    # depth 3 where it is still tractable, for the bytes/state contrast
    exact_shallow = verify(system, properties, max_events=3,
                           visited="exact")
    benchmark.pedantic(run, iterations=1, rounds=1)

    def bytes_per_state(result):
        return result.visited_stats.get("bytes_per_state", 0.0)

    rows = [
        ("fingerprint (default)", 4, fingerprint.states_explored,
         "%.0f" % fingerprint.states_per_second,
         "%.0f" % bytes_per_state(fingerprint)),
        ("exact (depth 3)", 3, exact_shallow.states_explored,
         "%.0f" % exact_shallow.states_per_second,
         "%.0f" % bytes_per_state(exact_shallow)),
    ]
    print_table("Memory-lean deep exploration at 4 events",
                ["store", "events", "states", "states/sec", "bytes/state"],
                rows)
    update_bench_artifact("table8", "deep_run", {
        "events": 4,
        "fingerprint": {
            "states": fingerprint.states_explored,
            "transitions": fingerprint.transitions,
            "states_per_second": round(fingerprint.states_per_second, 1),
            "bytes_per_state": bytes_per_state(fingerprint),
        },
        "exact_depth3_bytes_per_state": bytes_per_state(exact_shallow),
        "peak_rss_kb": peak_rss_kb(),
    })

    # memory: one-word entries an order of magnitude under the exact
    # store's canonical keys
    assert bytes_per_state(fingerprint) < bytes_per_state(exact_shallow) / 5


def test_table8_telemetry_overhead(generator, benchmark, tmp_path):
    """The observability axis: a live JSONL telemetry sink must be a
    bystander on the hot path.

    Snapshots piggyback on the engine's existing ``check_interval``
    sampling branch (floored at 4096 transitions between snapshots by
    default), so the depth-3 workload pays a handful of dict builds and
    line writes per run.  Samples are interleaved (so slow drift on a
    shared runner biases neither side) in batches of five pairs, taking
    more batches only when the best-of mins have not yet converged; the
    acceptance bar is <3% throughput loss with the sink on.
    """
    system = five_app_system(generator)
    properties = select_relevant(system, build_properties())
    sink = str(tmp_path / "bench-telemetry.jsonl")

    def run(**kwargs):
        return verify(system, properties, max_events=3,
                      max_states=3000000, **kwargs)

    def best(results):
        return min(results, key=lambda r: r.elapsed)

    run(telemetry=sink)  # warm both code paths before timing
    # best-of mins converge to the true floor as samples accumulate, so
    # a noisy first batch (shared-runner scheduling jitter dwarfs the
    # ~10 snapshot writes per run) earns more batches instead of a flake
    off_runs, on_runs = [], []
    for _batch in range(3):
        for _ in range(5):
            off_runs.append(run())
            on_runs.append(run(telemetry=sink))
        off = best(off_runs)
        on = best(on_runs)
        if on.states_per_second >= off.states_per_second * 0.97:
            break
    benchmark.pedantic(lambda: run(telemetry=sink), iterations=1, rounds=1)

    from repro.obs import read_events

    events = read_events(sink)
    snapshots = [e for e in events if e["kind"] == "snapshot"]
    overhead = 1.0 - on.states_per_second / off.states_per_second

    rows = [("telemetry off", off.states_explored,
             "%.0f" % off.states_per_second, "-"),
            ("JSONL sink on", on.states_explored,
             "%.0f" % on.states_per_second,
             "%.1f%%" % (overhead * 100.0))]
    print_table("Telemetry overhead at 3 events (best of %d, interleaved)"
                % len(on_runs),
                ["run", "states", "states/sec", "overhead"], rows)
    update_bench_artifact("table8", "telemetry", {
        "off": {
            "states": off.states_explored,
            "seconds": round(off.elapsed, 4),
            "states_per_second": round(off.states_per_second, 1),
        },
        "sink": {
            "states": on.states_explored,
            "seconds": round(on.elapsed, 4),
            "states_per_second": round(on.states_per_second, 1),
        },
        "overhead_percent": round(overhead * 100.0, 2),
        "snapshots_per_run": len(snapshots) // max(1, len(on_runs) + 2),
    })

    # a pure observer: identical coverage either way
    assert on.states_explored == off.states_explored
    assert on.transitions == off.transitions
    assert on.violated_property_ids == off.violated_property_ids
    # the sink must have recorded the runs it watched
    assert sum(1 for e in events if e["kind"] == "run_end") \
        == len(on_runs) + 2
    # the acceptance bar: <3% throughput loss with telemetry enabled
    assert on.states_per_second >= off.states_per_second * 0.97, (
        "telemetry overhead %.1f%% (off %.0f st/s, on %.0f st/s)"
        % (overhead * 100.0, off.states_per_second, on.states_per_second))


def test_table8_parallel_batch(generator, benchmark):
    """The whole-run axis: scaling points are independent verification
    jobs, so ``verify_many`` fans them across a process pool."""
    config = five_app_config()
    jobs = [VerificationJob("job%d events=%d" % (index, max_events), config,
                            EngineOptions(max_events=max_events,
                                          max_states=3000000))
            for index, max_events in enumerate((1, 2, 3, 3))]

    started = time.monotonic()
    serial = verify_many(jobs, workers=1)
    serial_wall = time.monotonic() - started

    started = time.monotonic()
    parallel = benchmark.pedantic(verify_many, args=(jobs,),
                                  kwargs={"workers": len(jobs)},
                                  iterations=1, rounds=1)
    parallel_wall = time.monotonic() - started

    rows = [("serial loop", "%.2fs" % serial_wall, serial.states_explored),
            ("verify_many x%d" % len(jobs), "%.2fs" % parallel_wall,
             parallel.states_explored)]
    print_table("Table 8 scaling points as a parallel batch (%d cores)"
                % (os.cpu_count() or 1),
                ["execution", "wall clock", "states"], rows)

    assert not serial.errors and not parallel.errors
    assert parallel.states_explored == serial.states_explored
    assert parallel.violated_property_ids == serial.violated_property_ids
    if (os.cpu_count() or 1) >= 2:
        # with real cores available the pool must beat the serial loop
        assert parallel_wall < serial_wall
    else:
        # a single-core box can only demonstrate bounded pool overhead
        assert parallel_wall < serial_wall * 2.0
