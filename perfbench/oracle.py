"""The expected answer for each of the 76 configurations.

    PYTHONPATH=src python3 perfbench/oracle.py            # all 76
    PYTHONPATH=src python3 perfbench/oracle.py KEY...     # print some

Run with no arguments, this rewrites ``perfbench/oracle.json``.  Every
answer comes from the interpreted tier (the tree-walking differential
oracle) at the workload's own bounds: the six expert groups at
``repro check``'s defaults, the 70 volunteer configurations at the
Table-6 bounds.  An answer is the verdict, the violated property ids and
the number of distinct violations.  State counts are not part of it: a
reduction may legitimately change them.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import (  # noqa: E402
    EXPERT_MAX_EVENTS,
    VOLUNTEER_OPTIONS,
    expert_key,
    volunteer_key,
)

ORACLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "oracle.json")
ORACLE_ENGINE = "interpreted"
COMMAND = "PYTHONPATH=src python3 perfbench/oracle.py"


def oracle_jobs():
    """``key -> VerificationJob`` for all 76 configurations, on the
    interpreted tier."""
    from repro.attribution.volunteers import volunteer_verification_jobs
    from repro.corpus import load_all_apps
    from repro.corpus.groups import EXPERT_GROUPS, expert_configuration
    from repro.engine import EngineOptions, VerificationJob

    jobs = {}
    for group in EXPERT_GROUPS:
        # what `repro check <group>` builds: lenient model build, the
        # full catalog narrowed by relevance selection
        jobs[expert_key(group)] = VerificationJob(
            group, expert_configuration(group),
            EngineOptions(max_events=EXPERT_MAX_EVENTS,
                          engine=ORACLE_ENGINE),
            strict=False)
    volunteers = volunteer_verification_jobs(
        load_all_apps(),
        options=EngineOptions(engine=ORACLE_ENGINE, **VOLUNTEER_OPTIONS),
        registry_spec="corpus")
    for job in volunteers:
        jobs[volunteer_key(job.name)] = job
    return jobs


def answer(result):
    """The oracle-comparable part of one result."""
    return {"verdict": result.verdict,
            "violated_property_ids": result.violated_property_ids,
            "violations": len(result.counterexamples)}


def generate(keys=None):
    """``key -> answer`` for ``keys`` (default: all 76)."""
    from repro.engine.batch import execute_job

    jobs = oracle_jobs()
    return {key: answer(execute_job(jobs[key]))
            for key in sorted(keys or jobs)}


def load_oracle():
    """The committed answers (``key -> answer``)."""
    with open(ORACLE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)["answers"]


def main(argv=None):
    keys = list(sys.argv[1:] if argv is None else argv)
    if keys:
        print(json.dumps(generate(keys), indent=1, sort_keys=True))
        return 0
    answers = generate()
    # one answer per line keeps a changed answer a one-line diff
    lines = ['  "%s": %s' % (key, json.dumps(answers[key], sort_keys=True))
             for key in sorted(answers)]
    with open(ORACLE_PATH, "w", encoding="utf-8") as handle:
        handle.write('{\n "command": %s,\n "engine": %s,\n "answers": {\n'
                     % (json.dumps(COMMAND), json.dumps(ORACLE_ENGINE)))
        handle.write(",\n".join(lines))
        handle.write("\n }\n}\n")
    print("wrote %d answers to %s" % (len(answers), ORACLE_PATH))
    return 0


if __name__ == "__main__":
    sys.exit(main())
