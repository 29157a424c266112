"""Pass outputs to metrics: percentiles, failure accounting, self times.

Pure functions over the JSON documents ``worker.py`` writes, so the
rules can be tested without running a workload.
"""

import math
import statistics
from collections import defaultdict

#: percentiles a tail latency may be reported at
PERCENTILE_LADDER = (50, 75, 85, 95, 99)
#: samples that must lie beyond a reported tail percentile
TAIL_SAMPLES = 10

#: the fields of a verdict record that must equal the oracle's answer
ANSWER_FIELDS = ("verdict", "violated_property_ids", "violations")
#: the fields a traced pass must repeat exactly
REPEAT_FIELDS = ANSWER_FIELDS + ("states", "transitions")


def nearest_rank(values, percent):
    """The nearest-rank ``percent`` percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count):
    """The highest ladder percentile of ``count`` samples that leaves at
    least ``TAIL_SAMPLES`` samples above its rank, or ``None``."""
    allowed = [percent for percent in PERCENTILE_LADDER
               if count - math.ceil(percent / 100.0 * count) >= TAIL_SAMPLES]
    return max(allowed) if allowed else None


def oracle_failures(verdicts, oracle):
    """``[(id, reason)]`` for every verdict that errored or whose answer
    differs from the oracle's."""
    failures = []
    for record in verdicts:
        key = record["id"]
        if "error" in record:
            failures.append((key, "error: %s" % record["error"]))
            continue
        expected = oracle.get(key)
        if expected is None:
            failures.append((key, "no oracle answer"))
            continue
        got = {field: record.get(field) for field in ANSWER_FIELDS}
        want = {field: expected[field] for field in ANSWER_FIELDS}
        if got != want:
            failures.append((key, "expected %s, got %s" % (want, got)))
    return failures


def repeat_failures(untraced, traced):
    """``[(id, reason)]`` where the traced pass's verdicts or counts
    differ from the untraced pass's."""
    def by_id(output):
        return {record["id"]: tuple(record.get(field)
                                    for field in REPEAT_FIELDS)
                for record in output["verdicts"] if "error" not in record}

    first, second = by_id(untraced), by_id(traced)
    return [(key, "traced %s != untraced %s" % (second.get(key), value))
            for key, value in sorted(first.items())
            if second.get(key) != value]


def self_times(spans):
    """``name -> {count, total_s, self_s}``: a span's self time is its
    duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    table = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for child in sorted(children[span["id"]], key=lambda c: c["start"]):
            start, end = max(child["start"], reach), min(child["end"],
                                                         span["end"])
            if end > start:
                covered += end - start
                reach = end
        entry = table.setdefault(span["name"],
                                 {"count": 0, "total_s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += span["end"] - span["start"]
        entry["self_s"] += span["end"] - span["start"] - covered
    return table


def _median_or_zero(values):
    return statistics.median(values) if values else 0.0


def verdict_latencies(passes):
    """One sample per configuration: the median over the passes of the
    time from submitting it to its verdict.  A service-mix repeat is
    answered from the store (or attached to its running twin), not
    verified, so only the submission that ran the engine counts."""
    by_id = defaultdict(list)
    for output in passes:
        for record in output["verdicts"]:
            if "error" not in record and record.get("kind") in (None,
                                                                "fresh"):
                by_id[record["id"]].append(record["latency_s"])
    return [statistics.median(values) for values in by_id.values()]


def end_to_end(passes, setups, scale=1.0):
    """``name -> (value, samples)`` over the passes of one run; every
    time is multiplied by ``scale`` (the run's host-speed factor)."""
    latencies = verdict_latencies(passes)
    return {
        "setup_s": (scale * statistics.median(setups), len(setups)),
        "wall_s": (scale * statistics.median(o["wall_s"] for o in passes),
                   len(passes)),
        "verdict_p50_s": (scale * statistics.median(latencies),
                          len(latencies)),
        "verdict_p85_s": (scale * nearest_rank(latencies, 85),
                          len(latencies)),
        "peak_rss_mb": (max(o["peak_rss_mb"] for o in passes), len(passes)),
    }


def per_layer(untraced, traced):
    """``name -> value`` from one traced pass (and its untraced twin)."""
    spans = traced["spans"]

    def span_total(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    runs = traced["runs"]
    configs = sum(1 for s in spans if s["name"] == "verdict") or 1
    phases = {phase: sum(run["profile"][phase] for run in runs)
              for phase in ("codegen", "explore", "canonicalize")}
    transitions = sum(run["transitions"] for run in runs)
    hits = sum(run["cache_hits"] for run in runs)
    lookups = hits + sum(run["cache_misses"] for run in runs)
    stored = sum(run["visited_stored"] for run in runs)
    selection = traced["selection"]
    layers = traced["layers"]
    counters = traced["counters"]
    return {
        "corpus.load_s": span_total("corpus.load"),
        "corpus.apps": traced["corpus_apps"],
        "model.build_s": span_total("model.build"),
        "model.build_ms_per_config":
            span_total("model.build") * 1e3 / configs,
        "properties.select_s": span_total("properties.select"),
        "properties.selected_share":
            selection["selected"] / (selection["offered"] or 1),
        "engine.init_s": span_total("engine.init"),
        "engine.other_s": sum(run["run_s"] - sum(run["profile"].values())
                              for run in runs),
        "engine.codegen_s": phases["codegen"],
        "engine.explore_s": phases["explore"],
        "engine.canonicalize_s": phases["canonicalize"],
        "engine.states": sum(run["states"] for run in runs),
        "engine.transitions": transitions,
        "engine.violations": sum(run["violations"] for run in runs),
        "engine.explore_us_per_transition":
            phases["explore"] * 1e6 / (transitions or 1),
        "engine.cache_hit_rate": hits / lookups if lookups else 0.0,
        "engine.visited_bytes_per_state":
            sum(run["visited_bytes"] for run in runs) / (stored or 1),
        "service.hit_p50_ms": _median_or_zero(
            untraced.get("hit_ms", []) + traced.get("hit_ms", [])),
        "service.digest_ms": _median_or_zero(layers.get("digest_ms")),
        "service.store_get_ms": _median_or_zero(layers.get("store_get_ms")),
        "service.store_put_ms": _median_or_zero(layers.get("store_put_ms")),
        # served latency minus inline time, both untraced
        "service.drain_overhead_s": _median_or_zero(
            untraced.get("layers", {}).get("drain_overhead_s")),
        "service.executed": counters["executed"],
        "service.cache_hits": counters["cache_hits"],
        "service.dedup_hits": counters["dedup_hits"],
        "service.hit_share": ((counters["cache_hits"]
                               + counters["dedup_hits"])
                              / (counters["submissions"] or 1)),
        "trace.overhead_s": traced["traced_s"] - untraced["traced_s"],
    }
