"""``repro serve`` plus a peak-memory report when it exits.

    python3 perfbench/serve.py --port 0 --store FILE

Runs the vetting service exactly as ``python -m repro serve`` does.  On
SIGINT the service shuts down (joining its pool workers) and this
prints one line, ``perfbench-rusage {"self_kb": ..., "children_kb":
...}``: the server's own peak resident set and the largest peak among
the pool workers it reaped.
"""

import json
import resource
import signal
import sys


def peak_rss_kb():
    """This process's peak resident set since it started its program.

    ``/proc``'s ``VmHWM`` and not ``ru_maxrss``: after fork and exec,
    Linux's ``ru_maxrss`` still counts the parent's resident set at
    the fork, so it would charge the benchmark's own process to the
    program.
    """
    with open("/proc/self/status", "r", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main(argv=None):
    from repro.cli import main as repro_main

    # a shell that starts a pipeline in the background starts it with
    # SIGINT ignored, and Python then installs no KeyboardInterrupt
    # handler; `repro serve` shuts down on KeyboardInterrupt
    signal.signal(signal.SIGINT, signal.default_int_handler)

    code = repro_main(["serve"] + list(sys.argv[1:] if argv is None
                                       else argv))
    usage = {"self_kb": peak_rss_kb(),
             # pool workers are forks without exec: their own peak
             "children_kb":
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}
    print("perfbench-rusage " + json.dumps(usage), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
