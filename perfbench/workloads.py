"""The three workloads: which configurations each pass verifies, in what
order, and with which engine options.

Everything a workload sends to the program is derived here from the
workload seed, so the same seed always produces the same inputs.  The
options are the program's defaults except for the event bound (and the
state cap the Table-6 bench uses), so a change to a default shows up in
the numbers.
"""

import random

EXPERT_CHECK = "expert-check"
VOLUNTEER_SWEEP = "volunteer-sweep"
SERVICE_MIX = "service-mix"
WORKLOADS = (EXPERT_CHECK, VOLUNTEER_SWEEP, SERVICE_MIX)

#: ``repro check``'s default event bound: expert-check runs the CLI at
#: its defaults, and the oracle answers are generated at this bound
EXPERT_MAX_EVENTS = 3

#: EngineOptions keywords for every volunteer configuration (the
#: bounds ``benchmarks/bench_table6_volunteers.py`` uses)
VOLUNTEER_OPTIONS = {"max_events": 2, "max_states": 30000}

#: service-mix: submissions per pass, of which this many are distinct
#: configurations (the rest repeat one of them)
SERVICE_SUBMISSIONS = 120
SERVICE_FRESH = 48
SERVICE_CLIENTS = 2
#: how long one submission may block on the server for its verdict
SERVICE_WAIT_S = 60.0


def expert_key(group):
    """The oracle key of one expert group."""
    return "expert/" + group


def volunteer_key(job_name):
    """The oracle key of one volunteer job (``vgroupNN/volunteerN-...``)."""
    return "volunteer/" + job_name


def seeded_order(names, seed):
    """``names`` (expert groups or volunteer jobs) in the seed's order."""
    order = sorted(names)
    random.Random(seed).shuffle(order)
    return order


def service_draw(names, seed):
    """The seed's submission sequence for one service-mix pass.

    ``names`` must have pairwise different configurations (the 70
    volunteer configurations hold 54 distinct ones).  ``SERVICE_FRESH``
    of them are drawn without replacement; the remaining submissions
    are drawn with replacement from those, and the whole sequence is
    shuffled.  The first occurrence of a name is the fresh submission,
    every later one a repeat, so each seed has the same fresh share
    (``SERVICE_FRESH / SERVICE_SUBMISSIONS``).
    """
    rng = random.Random(seed)
    chosen = rng.sample(sorted(names), SERVICE_FRESH)
    sequence = chosen + [rng.choice(chosen)
                         for _ in range(SERVICE_SUBMISSIONS - SERVICE_FRESH)]
    rng.shuffle(sequence)
    return sequence
