"""``repro report RUN.jsonl``: render a run timeline from a telemetry sink.

Pure function over the parsed event list (testable without a real run):
per run - the shape header from ``run_start``/``run_end``, the phase
spans and a throughput curve as a text sparkline over the snapshot
stream.  A sink that several batch jobs appended to renders one section
per ``job`` key.
"""

from collections import OrderedDict

#: eight-level block characters for the throughput sparkline
SPARK_CHARS = "▁▂▃▄▅▆▇█"


def _count(value):
    return format(int(value), ",d")


def sparkline(values):
    """Scale a number series onto the block-character ramp."""
    if not values:
        return ""
    low = min(values)
    high = max(values)
    if high <= low:
        return SPARK_CHARS[3] * len(values)
    span = high - low
    top = len(SPARK_CHARS) - 1
    return "".join(SPARK_CHARS[int(round((value - low) / span * top))]
                   for value in values)


def throughput_series(snapshots):
    """Interval states/s between consecutive snapshots (first interval
    measured from zero): the series the sparkline draws."""
    rates = []
    last_states = 0
    last_elapsed = 0.0
    for snap in snapshots:
        states = snap.get("states", 0)
        elapsed = snap.get("elapsed", 0.0)
        gap = elapsed - last_elapsed
        if gap > 0:
            rates.append((states - last_states) / gap)
        last_states, last_elapsed = states, elapsed
    return rates


def cascade_line(stats):
    """``N live, M replayed (P%), K replay leaves, Q quiet leaves, I
    inherited verdicts`` for a lean run's cascade counts (a
    ``run_end`` event or the engine's ``cascade_stats``)."""
    live = stats.get("cascades_live", 0)
    replayed = stats.get("cascades_replayed", 0)
    total = live + replayed
    return ("%s live, %s replayed (%.1f%%), %s replay leaves, "
            "%s quiet leaves, %s inherited verdicts") % (
        _count(live), _count(replayed),
        100.0 * replayed / total if total else 0.0,
        _count(stats.get("replay_leaves", 0)),
        _count(stats.get("quiet_leaves", 0)),
        _count(stats.get("invariant_inherited", 0)))


def render_report(events):
    """The human-readable report for one sink's parsed event list."""
    if not events:
        return "empty telemetry sink (no events)"
    runs = OrderedDict()
    for event in events:
        runs.setdefault(event.get("job"), []).append(event)
    sections = [_render_run(job, run_events)
                for job, run_events in runs.items()]
    return "\n\n".join(sections)


def _render_run(job, events):
    start = next((e for e in events if e.get("kind") == "run_start"), None)
    end = next((e for e in reversed(events)
                if e.get("kind") == "run_end"), None)
    snapshots = [e for e in events if e.get("kind") == "snapshot"]
    spans = [e for e in events if e.get("kind") == "span"]

    lines = ["run%s" % (" %s" % job if job else "")]
    if start is not None:
        lines.append(
            "  shape: depth %s, engine %s, visited %s, scenario %s" % (
                start.get("max_events", "?"), start.get("engine", "?"),
                start.get("visited", "?"), start.get("scenario", "?")))
    if end is not None:
        verdict = end.get("verdict", "?")
        elapsed = end.get("run_elapsed", end.get("elapsed", 0.0))
        rate = (end.get("states", 0) / elapsed) if elapsed else 0.0
        lines.append(
            "  outcome: %s (%d violation(s)); %s states, %s transitions "
            "in %.2fs (%s states/s)%s" % (
                verdict, end.get("violations", 0),
                _count(end.get("states", 0)),
                _count(end.get("transitions", 0)), elapsed, _count(rate),
                " [truncated: %s]" % end.get("truncated_reason")
                if end.get("truncated") else ""))
    if end is not None and "cascades_live" in end:
        lines.append("  cascades: %s" % cascade_line(end))
    if spans:
        total = sum(s.get("seconds", 0.0) for s in spans) or 1.0
        lines.append("  phases:")
        for span in sorted(spans, key=lambda s: -s.get("seconds", 0.0)):
            seconds = span.get("seconds", 0.0)
            lines.append("    %-14s %8.3fs  %5.1f%%"
                         % (span.get("name", "?"), seconds,
                            100.0 * seconds / total))
    rates = throughput_series(snapshots)
    if rates:
        lines.append("  throughput (%d snapshot(s), %s..%s states/s):"
                     % (len(snapshots), _count(min(rates)),
                        _count(max(rates))))
        lines.append("    %s" % sparkline(rates))
    if len(lines) == 1:
        lines.append("  (no run events recorded)")
    return "\n".join(lines)
