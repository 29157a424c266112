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
    # the bitfield cannot store per-state depths, so depth-aware
    # re-expansion is lost and fewer states are (re)explored - Spin's
    # documented trade-off; coverage must stay in the same ballpark and
    # no violation may be missed on this workload
    assert bitstate.states_explored >= exact.states_explored * 0.5
    assert len(bitstate.violations) == len(exact.violations)


def test_table8_compiled_transition_relation(generator, benchmark, tmp_path):
    """The execution-tier axis: generated per-app Python modules vs the
    tree-interpreter oracle, plus the independence reduction.

    The codegen tier (the default) must clearly beat the interpreter (it
    exists for exactly that), and the reduction must shrink the
    transition count while keeping the run violation-free (this system
    is violation-free by construction).
    """
    system = five_app_system(generator)
    properties = select_relevant(system, build_properties())

    def run(**kwargs):
        return verify(system, properties, max_events=3,
                      max_states=3000000, **kwargs)

    def best(results):
        return min(results, key=lambda r: r.elapsed)

    codegen_kwargs = {"engine": "codegen",
                      "codegen_cache": str(tmp_path / "codegen")}
    run(**codegen_kwargs)  # warm the source cache before timing
    # tier samples are interleaved so slow drift on a shared runner
    # (thermal, noisy neighbours) biases no tier
    codegen_runs, interpreted_runs = [], []
    for _ in range(3):
        codegen_runs.append(run(**codegen_kwargs))
        interpreted_runs.append(run(engine="interpreted"))
    codegen = best(codegen_runs)
    interpreted = best(interpreted_runs)
    reduced = best([run(reduction=True), run(reduction=True)])
    benchmark.pedantic(lambda: run(**codegen_kwargs),
                       iterations=1, rounds=2)

    rows = [
        ("codegen (default)", codegen.states_explored,
         codegen.transitions, "%.0f" % codegen.states_per_second),
        ("interpreted", interpreted.states_explored,
         interpreted.transitions, "%.0f" % interpreted.states_per_second),
        ("codegen + reduction", reduced.states_explored,
         reduced.transitions, "%.0f" % reduced.states_per_second),
    ]
    print_table("Execution tiers at 3 events",
                ["engine", "states", "transitions", "states/sec"], rows)
    update_bench_artifact("table8", "engine_modes", {
        "codegen": {
            "states": codegen.states_explored,
            "transitions": codegen.transitions,
            "states_per_second": round(codegen.states_per_second, 1),
        },
        "interpreted": {
            "states": interpreted.states_explored,
            "transitions": interpreted.transitions,
            "states_per_second": round(interpreted.states_per_second, 1),
        },
        "reduction": {
            "states": reduced.states_explored,
            "transitions": reduced.transitions,
            "states_per_second": round(reduced.states_per_second, 1),
            "commutes_pruned": reduced.commutes_pruned,
        },
    })

    # back-end equivalence on the same bounded space
    assert codegen.states_explored == interpreted.states_explored
    assert codegen.transitions == interpreted.transitions
    assert (sorted(codegen.counterexamples)
            == sorted(interpreted.counterexamples))
    # the reduction prunes commuting orders and keeps soundness
    assert reduced.commutes_pruned > 0
    assert reduced.transitions < interpreted.transitions
    assert (reduced.violated_property_ids
            == interpreted.violated_property_ids)
    # the codegen tier's generated modules, pooled executors and
    # traceless search relation must deliver a clear win over the
    # interpreter on the same space - the speedup the tier exists for
    assert (codegen.states_per_second
            >= interpreted.states_per_second * 1.5), (
        "codegen %.0f st/s vs interpreted %.0f st/s"
        % (codegen.states_per_second, interpreted.states_per_second))


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
    bytes/state and throughput for the fingerprint default, the
    collapse-compressed store, and the recommended deep-run configuration
    (collapse + sleep-set reduction).

    All three must report identical verdicts; collapse must undercut the
    exact store's canonical keys by an order of magnitude while keeping
    its no-false-positive contract.
    """
    system = five_app_system(generator)
    properties = select_relevant(system, build_properties())

    def run(**kwargs):
        return verify(system, properties, max_events=4,
                      max_states=3000000, **kwargs)

    fingerprint = run()
    collapse = run(visited="collapse")
    reduced = run(visited="collapse", reduction=True)
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
        ("collapse", 4, collapse.states_explored,
         "%.0f" % collapse.states_per_second,
         "%.0f" % bytes_per_state(collapse)),
        ("collapse + reduction", 4, reduced.states_explored,
         "%.0f" % reduced.states_per_second,
         "%.0f" % bytes_per_state(reduced)),
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
        "collapse": {
            "states": collapse.states_explored,
            "transitions": collapse.transitions,
            "states_per_second": round(collapse.states_per_second, 1),
            "bytes_per_state": bytes_per_state(collapse),
        },
        "collapse_reduction": {
            "states": reduced.states_explored,
            "transitions": reduced.transitions,
            "states_per_second": round(reduced.states_per_second, 1),
            "bytes_per_state": bytes_per_state(reduced),
            "commutes_pruned": reduced.commutes_pruned,
        },
        "exact_depth3_bytes_per_state": bytes_per_state(exact_shallow),
        "peak_rss_kb": peak_rss_kb(),
    })

    # identical coverage and verdicts between the exact-contract collapse
    # store and the fingerprint default on the unreduced space
    assert collapse.states_explored == fingerprint.states_explored
    assert collapse.transitions == fingerprint.transitions
    assert (collapse.violated_property_ids
            == fingerprint.violated_property_ids)
    # the reduction only prunes, never changes the verdicts
    assert reduced.violated_property_ids == collapse.violated_property_ids
    assert reduced.transitions < collapse.transitions
    assert reduced.commutes_pruned > 0
    # memory: collapse entries must stay within a small multiple of the
    # one-word fingerprint entries and an order of magnitude under the
    # exact store's canonical keys
    assert bytes_per_state(collapse) < bytes_per_state(exact_shallow) / 5
    assert bytes_per_state(collapse) < bytes_per_state(fingerprint) * 4


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


#: the PR 5 fingerprint-scatter sharded run at depth 4: full-pickle
#: handoffs for 138,018 states.  The locality acceptance bar is an
#: order of magnitude under this committed figure
PR5_BASELINE_HANDOFFS = 364596

#: the same committed run's wire cost per state, measured by replaying
#: the depth-4 workload through the PR 5 sharded engine with its
#: ``_flush_peer`` instrumented: batch-pickling the old
#: ``(state, depth, sleep, full TraceStep path)`` units cost
#: 195,155,296 bytes for 138,018 states (~572 bytes per handoff).  The
#: delta-wire acceptance bar is >= 5x under this per-state figure
PR5_BASELINE_WIRE_BYTES_PER_STATE = 1414.0


def test_table8_sharded_workers(benchmark):
    """The swarm axis: one deep run sharded across worker processes.

    State ownership is partitioned per ``--partition``: ``fingerprint``
    scatters states evenly but ships most edges across shards;
    ``locality`` (the default) owns states by a stable projection of
    the packed slot grid, keeping successor chains shard-local.  Both
    rows are recorded in ``BENCH_table8.json`` (``workers.partitioners``
    section) with their handoff counts and wire bytes.  Verdicts and
    the distinct-state count must match the single-worker run exactly;
    the handoff reductions are asserted on any machine, the >= 1.5x
    speedup only where real cores exist - single-core CI records the
    numbers without judging them.
    """
    from repro.engine.batch import execute_job_inline
    from repro.engine.parallel import explore_sharded

    config = five_app_config()
    depth = 4
    cores = os.cpu_count() or 1

    def job(workers, partition):
        return VerificationJob(
            "sharded", config, EngineOptions(max_events=depth,
                                             max_states=3000000,
                                             workers=workers,
                                             partition=partition))

    single = execute_job_inline(job(1, "locality"))
    sharded = {"fingerprint": explore_sharded(job(2, "fingerprint")),
               "locality": benchmark.pedantic(
                   explore_sharded, args=(job(2, "locality"),),
                   iterations=1, rounds=1)}

    def wire(result):
        handoffs = sum(s["handoffs_sent"] for s in result.shard_stats)
        return (handoffs,
                sum(s["handoff_bytes"] for s in result.shard_stats),
                sum(s["steals"] for s in result.shard_stats),
                sum(s["stolen_states"] for s in result.shard_stats))

    rows = [("1 worker", single.states_explored, "-", "-",
             "%.2fs" % single.elapsed,
             "%.0f" % single.states_per_second)]
    partitioners = {}
    for partition, result in sharded.items():
        handoffs, handoff_bytes, steals, stolen = wire(result)
        rows.append(("2 workers (%s)" % partition, result.states_explored,
                     handoffs, "%.1f KiB" % (handoff_bytes / 1024.0),
                     "%.2fs" % result.elapsed,
                     "%.0f" % result.states_per_second))
        partitioners[partition] = {
            "states": result.states_explored,
            "seconds": round(result.elapsed, 4),
            "states_per_second": round(result.states_per_second, 1),
            "speedup": round(single.elapsed / result.elapsed, 3)
            if result.elapsed else 0.0,
            "handoffs": handoffs,
            "handoffs_per_state": round(
                handoffs / result.states_explored, 4)
            if result.states_explored else 0.0,
            "handoff_bytes": handoff_bytes,
            "handoff_bytes_per_state": round(
                handoff_bytes / result.states_explored, 1)
            if result.states_explored else 0.0,
            "steals": steals,
            "stolen_states": stolen,
        }
    print_table("Sharded swarm exploration at %d events (%d cores)"
                % (depth, cores),
                ["run", "states", "handoffs", "wire", "wall clock",
                 "states/sec"], rows)
    update_bench_artifact("table8", "workers", {
        "events": depth,
        "cores": cores,
        "single": {
            "states": single.states_explored,
            "seconds": round(single.elapsed, 4),
            "states_per_second": round(single.states_per_second, 1),
        },
        "partitioners": partitioners,
    })

    for partition, result in sharded.items():
        # ownership partitioning preserves coverage and verdicts exactly
        assert result.states_explored == single.states_explored, partition
        assert (result.violated_property_ids
                == single.violated_property_ids), partition
        assert result.workers == 2 and len(result.shard_stats) == 2
    # the tentpole acceptance bar, independent of core count: >= 10x
    # fewer handoffs than the committed PR 5 scatter, and >= 5x fewer
    # wire bytes per state than the same run's full-pickle format
    locality = partitioners["locality"]
    assert locality["handoffs"] * 10 <= PR5_BASELINE_HANDOFFS
    assert locality["handoff_bytes_per_state"] * 5 \
        <= PR5_BASELINE_WIRE_BYTES_PER_STATE
    # the delta wire also pays off without any locality: the scatter
    # partitioner ships (N-1)/N of all edges and still comes in under
    # the old per-state wire cost by the same margin
    assert partitioners["fingerprint"]["handoff_bytes_per_state"] * 5 \
        <= PR5_BASELINE_WIRE_BYTES_PER_STATE
    if cores >= 2:
        # with real cores the acceptance bar is >= 1.5x at depth 4
        assert sharded["locality"].elapsed < single.elapsed / 1.5
    else:
        # a single core can only demonstrate bounded sharding overhead
        # (two processes time-slicing one core plus handoff encoding;
        # the bound only catches pathological blowups)
        assert sharded["locality"].elapsed < single.elapsed * 4.0


def test_table8_swarm_tier(generator, benchmark):
    """The beyond-exhaustive axis: swarm sampling and the spill store.

    Three rows on the depth-3 workload: the exhaustive reference, a
    4-member swarm (diversified sampled members through the same
    engine), and the disk-backed spill store (exact verdicts, working
    set in SQLite).  The swarm must agree with the exhaustive verdict
    on this violation-free system while honestly reporting partial
    coverage; the spill store must reproduce the exhaustive run's
    coverage exactly.  All three land in ``BENCH_table8.json``'s
    ``swarm`` section for the (non-gating) regression diff.
    """
    system = five_app_system(generator)
    properties = select_relevant(system, build_properties())

    def run(**kwargs):
        return verify(system, properties, max_events=3,
                      max_states=3000000, **kwargs)

    exhaustive = run()
    swarm = benchmark.pedantic(
        lambda: run(mode="swarm", swarm_members=4, seed=1),
        iterations=1, rounds=2)
    spill = run(visited="spill")

    rows = [
        ("exhaustive (reference)", exhaustive.states_explored,
         "%.0f" % exhaustive.states_per_second, exhaustive.coverage),
        ("swarm (4 members)", swarm.states_explored,
         "%.0f" % swarm.states_per_second, swarm.coverage),
        ("spill store (on disk)", spill.states_explored,
         "%.0f" % spill.states_per_second, spill.coverage),
    ]
    print_table("Swarm tier at 3 events",
                ["run", "states", "states/sec", "coverage"], rows)
    update_bench_artifact("table8", "swarm", {
        "exhaustive": {
            "states": exhaustive.states_explored,
            "transitions": exhaustive.transitions,
            "states_per_second": round(exhaustive.states_per_second, 1),
        },
        "swarm_4": {
            "members": 4,
            "seed": 1,
            "states": swarm.states_explored,
            "transitions": swarm.transitions,
            "states_per_second": round(swarm.states_per_second, 1),
            "coverage_estimate": swarm.swarm["coverage_estimate"],
            "candidates": swarm.swarm["candidates"],
        },
        "spill": {
            "states": spill.states_explored,
            "transitions": spill.transitions,
            "states_per_second": round(spill.states_per_second, 1),
            "bytes_per_state": spill.visited_stats.get("bytes_per_state",
                                                       0.0),
        },
    })

    # the soundness split: same verdict, honest coverage labels
    assert swarm.verdict == exhaustive.verdict
    assert swarm.coverage == "partial"
    assert swarm.swarm["replay_failures"] == 0
    # the spill store is exact: identical coverage and verdicts
    assert spill.states_explored == exhaustive.states_explored
    assert spill.transitions == exhaustive.transitions
    assert spill.violated_property_ids == exhaustive.violated_property_ids
    assert spill.coverage == "exhaustive"


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
