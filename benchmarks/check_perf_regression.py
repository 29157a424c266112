"""Non-gating perf-regression check over the Table-8 bench artifact.

Compares a fresh ``BENCH_table8.json`` against the committed baseline and
emits GitHub Actions ``::warning`` annotations for every mode whose
states/sec dropped more than the threshold.  Exit status 1 signals "at
least one regression" so the workflow step can surface it while staying
``continue-on-error`` (absolute numbers shift with runner hardware, so
this is a reviewer signal, never a gate).

The artifact's field-by-field meaning is documented in
``docs/schemas.md``; keep the two in sync when adding axes.

Usage: ``python benchmarks/check_perf_regression.py BASELINE FRESH``
"""

import json
import sys

#: fraction of baseline states/sec a mode may lose before it is flagged
THRESHOLD = 0.20


def _modes(document):
    """Flatten every measured axis into ``name -> states_per_second``."""
    modes = {}
    for point in document.get("trajectory", []):
        modes["trajectory[events=%s]" % point.get("events")] = point.get(
            "states_per_second")
    for name, stats in document.get("engine_modes", {}).items():
        modes["engine_modes.%s" % name] = stats.get("states_per_second")
    for name, stats in document.get("deep_run", {}).items():
        if isinstance(stats, dict):
            modes["deep_run.%s" % name] = stats.get("states_per_second")
    for name, stats in document.get("telemetry", {}).items():
        if isinstance(stats, dict):
            modes["telemetry.%s" % name] = stats.get("states_per_second")
    return {name: value for name, value in modes.items()
            if isinstance(value, (int, float)) and value > 0}


def compare(baseline, fresh, threshold=THRESHOLD):
    """Regression rows: (mode, baseline states/sec, fresh states/sec)."""
    baseline_modes = _modes(baseline)
    fresh_modes = _modes(fresh)
    regressions = []
    for name, base_value in sorted(baseline_modes.items()):
        fresh_value = fresh_modes.get(name)
        if fresh_value is None:
            continue
        if fresh_value < base_value * (1.0 - threshold):
            regressions.append((name, base_value, fresh_value))
    return regressions


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2
    with open(argv[1], "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    with open(argv[2], "r", encoding="utf-8") as handle:
        fresh = json.load(handle)
    regressions = compare(baseline, fresh)
    fresh_modes = _modes(fresh)
    print("perf check: %d mode(s) measured, %d baseline mode(s), "
          "threshold %d%%" % (len(fresh_modes), len(_modes(baseline)),
                              THRESHOLD * 100))
    for name, base_value, fresh_value in regressions:
        drop = (1.0 - fresh_value / base_value) * 100.0
        print("::warning title=Table-8 perf regression::%s dropped %.0f%% "
              "(%.0f -> %.0f states/sec vs committed BENCH_table8.json)"
              % (name, drop, base_value, fresh_value))
    if not regressions:
        print("no states/sec regression beyond %d%% on any mode"
              % (THRESHOLD * 100))
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
