"""Benchmark entry point: one workload, one seed, every metric.

    python3 perfbench/run.py --workload expert-check --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root (no install needed: the workers run the
sources under ``src/``).  ``--trace 0`` measures the end-to-end metrics:
set-up probes and whole passes of the workload, each in a fresh process,
until ``--seconds`` have been spent (always at least one pass).  Its
times are put on the reference host's scale with the host-speed probe
(``hostspeed.py``); the unscaled values are in the run record.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics (unscaled).  Every verdict is checked against
``oracle.json``.  The metric names and units are ``BENCHMARK.json``'s.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).  The
exit code is 0 only when every verdict matched the oracle (and, traced,
the traced pass repeated the untraced one exactly).  A run record and,
for traced runs, the spans are written under ``.perfbench/runs/``.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from hostspeed import REFERENCE_S, HostProbe  # noqa: E402
from ledger import (  # noqa: E402
    end_to_end,
    oracle_failures,
    per_layer,
    repeat_failures,
    self_times,
    tail_percentile,
)
from oracle import load_oracle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: set-up-only worker runs before each pass and after the last one
#: (each pass adds one more set-up sample)
SETUP_PROBES_PER_PASS = 3
#: every worker of a run must have finished this long after it started
RUN_BUDGET_S = 165.0
STATE_DIR = os.path.join(ROOT, ".perfbench")


class WorkerFailed(RuntimeError):
    """A worker process crashed, timed out or wrote no output."""


def _stop_group(pgid, timeout=10.0):
    """Kill whatever is left in a worker's process group (a server it
    could not stop) and wait until the group is empty."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def metric_units():
    """``(end_to_end, per_layer)``: metric name -> unit, as listed in
    ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        spec = json.load(handle)
    return tuple({metric["name"]: metric["unit"] for metric in spec[kind]}
                 for kind in ("end_to_end", "per_layer"))


def run_worker(args, scratch, env, deadline, *flags):
    """One worker process (``flags``: ``--setup-only``, ``--trace``,
    ``--rerun``); returns its JSON document."""
    pass_dir = tempfile.mkdtemp(prefix="pass-", dir=scratch)
    out = os.path.join(pass_dir, "out.json")
    # fresh codegen cache; an empty bytecode cache, so every process
    # compiles the sources as a fresh checkout does
    env = dict(env, TMPDIR=pass_dir,
               REPRO_CODEGEN_CACHE=os.path.join(pass_dir, "codegen"),
               PYTHONPYCACHEPREFIX=os.path.join(pass_dir, "pycache"))
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--scratch", pass_dir, "--out", out] + list(flags)
    log_path = os.path.join(pass_dir, "worker.log")
    with open(log_path, "w", encoding="utf-8") as log:
        process = subprocess.Popen(command, cwd=ROOT, env=env, stdout=log,
                                   stderr=subprocess.STDOUT,
                                   start_new_session=True)
        try:
            code = process.wait(timeout=max(1.0,
                                            deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            _stop_group(process.pid)
            process.wait()
    if code != 0 or not os.path.exists(out):
        with open(log_path, "r", encoding="utf-8") as log:
            tail = log.read()[-2000:]
        raise WorkerFailed("worker %s (exit %s):\n%s"
                           % ("timed out" if code is None else "failed",
                              code, tail))
    with open(out, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_record(args, samples, extra):
    """Where and how this result was measured."""
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_commit": _git_commit(),
        "samples": samples,
    }
    record.update(extra)
    return record


def measure(args, scratch, env, deadline, units):
    """``--trace 0``: set-up probes and passes until time is spent, with
    the host-speed probe sampled before every worker (and by the passes
    themselves)."""
    setups, passes, host = [], [], HostProbe()

    def worker(*flags):
        host.sample()
        output = run_worker(args, scratch, env, deadline, *flags)
        setups.append(output["setup_s"])
        host.samples.extend(output.get("host_probe_s", ()))
        return output

    def probe_setups():
        for _ in range(SETUP_PROBES_PER_PASS):
            worker("--setup-only")

    started = time.monotonic()
    while True:
        pass_started = time.monotonic()
        probe_setups()
        passes.append(worker())
        now = time.monotonic()
        if (now - started >= args.seconds
                or deadline - now < 2 * (now - pass_started)):
            break
    probe_setups()
    host.sample()

    def metrics():
        scale = host.scale()
        values = end_to_end(passes, setups, scale)
        unscaled = end_to_end(passes, setups)
        samples = {name: values[name][1] for name in units}
        extra = {"tail_rule": {
            "samples": samples["verdict_p85_s"],
            "highest_allowed_percentile":
                tail_percentile(samples["verdict_p85_s"])},
            "host": {"probes": len(host.samples),
                     "mean_probe_s": statistics.fmean(host.samples),
                     "median_probe_s": statistics.median(host.samples),
                     "reference_probe_s": REFERENCE_S,
                     "scale": scale},
            "unscaled": {name: unscaled[name][0] for name in units}}
        return ({name: {"value": values[name][0], "unit": unit}
                 for name, unit in units.items()}, samples, extra)

    return passes, metrics, {"counters": passes[-1]["counters"]}, []


def measure_traced(args, scratch, env, deadline, units):
    """``--trace 1``: an untraced and a traced pass, compared."""
    untraced = run_worker(args, scratch, env, deadline, "--rerun")
    traced = run_worker(args, scratch, env, deadline, "--trace")
    failures = repeat_failures(untraced, traced)
    failures += [(key, "inline run differs from the served result")
                 for output in (untraced, traced)
                 for key in output.get("inline_mismatches", ())]

    def metrics():
        values = per_layer(untraced, traced)
        return ({name: {"value": values[name], "unit": unit}
                 for name, unit in units.items()},
                {name: 1 for name in units},
                {"self_times": self_times(traced["spans"])})

    return [untraced, traced], metrics, {"spans": traced["spans"]}, failures


def _print_table(title, metrics, samples):
    print(title)
    for name, metric in metrics.items():
        print("  %-34s %14.6g %-6s n=%d" % (name, metric["value"],
                                            metric["unit"], samples[name]))


def _print_self_times(table):
    print("per-layer self time (traced pass):")
    print("  %-22s %6s %12s %12s" % ("span", "count", "total_s", "self_s"))
    for name, entry in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print("  %-22s %6d %12.4f %12.4f" % (name, entry["count"],
                                             entry["total_s"],
                                             entry["self_s"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "cli.py")):
        print("perfbench: no repro sources under %s; run from the root of "
              "a full checkout" % src, file=sys.stderr)
        return 2
    oracle = load_oracle()
    units = metric_units()[args.trace]
    run_started = time.monotonic()
    deadline = run_started + RUN_BUDGET_S
    os.makedirs(os.path.join(STATE_DIR, "tmp"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-",
                               dir=os.path.join(STATE_DIR, "tmp"))
    # fresh processes start from source: no bytecode cache carries over
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1",
               PYTHONUNBUFFERED="1")
    try:
        measure_run = measure_traced if args.trace else measure
        passes, compute_metrics, extra, failures = measure_run(
            args, scratch, env, deadline, units)
    except WorkerFailed as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(len(output["verdicts"]) for output in passes)
    for output in passes:
        failures += oracle_failures(output["verdicts"], oracle)
        failures += [(name, "store answer differs")
                     for name in output.get("store_errors", ())]
        if "server_error" in output:
            failures.append(("server", output["server_error"]))
    try:
        metrics, samples, more = compute_metrics()
        extra.update(more)
    except statistics.StatisticsError:  # no verdict succeeded
        metrics, samples = {}, {}
    failed = len(failures)
    record = run_record(args, samples, {
        key: value for key, value in extra.items()
        if key not in ("spans", "self_times")})
    record["passes"] = len(passes)
    record["failed_share"] = failed / attempted if attempted else 1.0
    record["elapsed_s"] = time.monotonic() - run_started

    _print_table("%s metrics (%s, seed %d):"
                 % ("per-layer" if args.trace else "end-to-end",
                    args.workload, args.seed), metrics, samples)
    if "self_times" in extra:
        _print_self_times(extra["self_times"])
    print("  %-34s %14.6g %-6s (%d of %d verdicts)"
          % ("failed_share", record["failed_share"], "ratio", failed,
             attempted))
    for key, reason in failures[:20]:
        print("FAILED %s: %s" % (key, reason))
    runs_dir = os.path.join(STATE_DIR, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    stem = os.path.join(runs_dir, "%s-seed%d-trace%d"
                        % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump({"record": record, "metrics": metrics,
                   "failures": failures,
                   "self_times": extra.get("self_times")}, handle, indent=1)
    if "spans" in extra:
        with open(stem + "-spans.json", "w", encoding="utf-8") as handle:
            json.dump(extra["spans"], handle)
    print("run record: " + json.dumps(record, sort_keys=True))
    correct = not failures and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
