#!/usr/bin/env python
"""CI smoke test: the three visited stores find the same state space.

Runs all 76 configurations - the six expert groups at `repro check`'s
default bounds and the 70 volunteer configurations at the bounds of
``volunteer_verification_jobs`` - on the ``exact``, ``fingerprint``
and ``bitstate`` stores (the last at its default 2^23-bit field) and
requires every configuration to report the same ``states_explored``
and the same violation keys on all three.

``exact`` is the oracle; ``fingerprint`` may differ from it only by a
64-bit fingerprint collision, and ``bitstate`` only by a collision in
its bit field: the field tags every probe with its depth, so a
depth-bounded DFS re-expands a state reached again closer to the root
as the other stores do.  A configuration where they disagree fails
the job.

Exit code 0 on success, 1 on any mismatch.

Usage::

    PYTHONPATH=src python scripts/store_parity_smoke.py [--only NAME...]
"""

import argparse
import sys

STORES = ("exact", "fingerprint", "bitstate")


def configuration_jobs():
    """``[VerificationJob]`` for the 76 configurations, default store."""
    from repro.attribution.volunteers import volunteer_verification_jobs
    from repro.corpus import load_all_apps
    from repro.corpus.groups import EXPERT_GROUPS, expert_configuration
    from repro.engine import VerificationJob

    jobs = [VerificationJob(group, expert_configuration(group),
                            strict=False)
            for group in EXPERT_GROUPS]
    jobs.extend(volunteer_verification_jobs(load_all_apps(),
                                            registry_spec="corpus"))
    return jobs


def with_store(job, visited):
    """A copy of ``job`` whose options select ``visited``."""
    import copy

    clone = copy.copy(job)
    clone.options = copy.copy(job.options)
    clone.options.visited = visited
    return clone


def answer(result):
    """What every store must agree on."""
    return result.states_explored, sorted(result.counterexamples)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="*",
                        help="job names to check (default: all 76)")
    args = parser.parse_args(argv)

    from repro.engine.batch import execute_job

    jobs = configuration_jobs()
    if args.only:
        jobs = [job for job in jobs if job.name in args.only]
    failures = 0
    for job in jobs:
        answers = {visited: answer(execute_job(with_store(job, visited)))
                   for visited in STORES}
        states, keys = answers["exact"]
        agree = all(answers[visited] == answers["exact"]
                    for visited in STORES)
        print("%s %s: %d states, %d violations"
              % ("ok  " if agree else "FAIL", job.name, states, len(keys)))
        if not agree:
            failures += 1
            for visited in STORES:
                print("  %-11s %d states, %d violations"
                      % (visited, answers[visited][0],
                         len(answers[visited][1])))
    print("%d of %d configurations agree on every store"
          % (len(jobs) - failures, len(jobs)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
