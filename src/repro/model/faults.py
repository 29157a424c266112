"""Named fault-injection scenario profiles: lossy-environment modeling.

The paper's §8 enumeration (sensor offline / actuator offline, gated on
``--failures``) assumes the *platform* is ideal: every report that is sent
arrives exactly once, in order, and app reads always see fresh state.  Real
deployments violate all three.  A :class:`ScenarioProfile` layers one named
nonideality onto the transition relation as extra
:class:`~repro.model.events.FailureScenario` variants enumerated per
external event — pluggable decorators over the event relation, orthogonal
to (and composable with) the §8 ``enable_failures`` enumeration.

Profiles:

``clean``
    Ideal delivery (the default); byte-identical to the pre-profile
    transition relation.
``lossy``
    A sensor report may be lost in transit: the physical attribute still
    changes, but no app is notified.
``delayed``
    Cascade-internal cyber events may be delivered newest-first (LIFO)
    instead of in order, modeling reordered/deferred delivery.
``duplicated``
    A sensor report may be delivered twice, re-triggering subscribers.
``device-death``
    One device dies for the cascade: it stops reporting (if it is the
    origin sensor) and silently drops every command sent to it.
``stale-reads``
    App reads of the origin sensor's attribute return the pre-event value
    for the whole cascade (a stale platform cache); the monitor still
    checks invariants against true physical state.
"""

from repro.model.events import FailureScenario


class ScenarioProfile:
    """One named nonideality: enumerates extra failure scenarios per event.

    ``variants`` is a ``(system, ext) -> [FailureScenario, ...]`` callable
    returning the *extra* scenarios to explore for one external event,
    beyond the clean run (which is always explored).  ``None`` marks the
    clean profile.
    """

    __slots__ = ("name", "description", "_variants")

    def __init__(self, name, description, variants=None):
        self.name = name
        self.description = description
        self._variants = variants

    @property
    def is_clean(self):
        return self._variants is None

    def variants(self, system, ext):
        """Extra scenarios to enumerate for ``ext`` (empty when clean)."""
        if self._variants is None:
            return []
        return self._variants(system, ext)

    def __repr__(self):
        return "ScenarioProfile(%r)" % (self.name,)


def _lossy(system, ext):
    if ext.kind != "sensor":
        return []
    return [FailureScenario(FailureScenario.EVENT_DROP, ext.device)]


def _delayed(system, ext):
    return [FailureScenario(FailureScenario.REORDER)]


def _duplicated(system, ext):
    if ext.kind != "sensor":
        return []
    return [FailureScenario(FailureScenario.DUPLICATE, ext.device)]


def _device_death(system, ext):
    # mirror the §8 actuator enumeration: the origin sensor (if any) plus
    # every actuator, each dying for one cascade, in deterministic order
    scenarios = []
    dead = set()
    if ext.kind == "sensor":
        dead.add(ext.device)
        scenarios.append(FailureScenario(FailureScenario.DEVICE_DEATH,
                                         ext.device))
    for name, device in sorted(system.devices.items()):
        if device.spec.is_actuator and name not in dead:
            scenarios.append(FailureScenario(FailureScenario.DEVICE_DEATH,
                                             name))
    return scenarios


def _stale_reads(system, ext):
    if ext.kind != "sensor":
        return []
    return [FailureScenario(FailureScenario.STALE_READ, ext.device)]


CLEAN = ScenarioProfile(
    "clean", "ideal delivery: every report arrives exactly once, in order")
LOSSY = ScenarioProfile(
    "lossy", "a sensor report may be lost in transit", _lossy)
DELAYED = ScenarioProfile(
    "delayed", "cascade events may be delivered newest-first", _delayed)
DUPLICATED = ScenarioProfile(
    "duplicated", "a sensor report may be delivered twice", _duplicated)
DEVICE_DEATH = ScenarioProfile(
    "device-death", "one device dies mid-cascade: no reports, no commands",
    _device_death)
STALE_READS = ScenarioProfile(
    "stale-reads", "app reads return the pre-event sensor value",
    _stale_reads)

#: registry, in documentation order; ``clean`` first (the default)
PROFILES = {profile.name: profile for profile in (
    CLEAN, LOSSY, DELAYED, DUPLICATED, DEVICE_DEATH, STALE_READS)}


def scenario_names():
    """The valid ``--scenario`` values, in documentation order."""
    return tuple(PROFILES)


def resolve_scenario(name):
    """A :class:`ScenarioProfile` from its name (idempotent on profiles)."""
    if isinstance(name, ScenarioProfile):
        return name
    profile = PROFILES.get(name)
    if profile is None:
        raise ValueError("unknown scenario %r (choose from %s)"
                         % (name, ", ".join(PROFILES)))
    return profile
