"""Relevance-based property selection.

"We provide users with an interface to select the list of safety
properties they want to verify" (§8).  When reproducing the paper's
experiments nobody is sitting at that interface, so this module implements
the selection a sensible user would make: verify a physical-state property
only when the system could meaningfully satisfy *or* violate it.

Concretely, an invariant that obliges an actuator to be in some state
(door locked, heater on, alarm sounding) is only selected when at least
one installed app is actually wired to that actuator - otherwise the
environment alone trivially falsifies the property and the report drowns
in violations no app could have caused or prevented.  Monitored
properties (conflicts, repeats, leakage, robustness) are always relevant.
"""

import weakref

from repro.properties.base import KIND_INVARIANT

#: system -> {property-identity tuple: selected list}.  Selection depends
#: only on construction-time facts of the system (bindings, subscriptions,
#: association), so repeated ``verify()`` calls over the same system (CLI
#: batch loops, benchmarks, the Output Analyzer's configuration sweeps)
#: reuse the first result instead of re-walking every property.  Keyed by
#: the property objects' identities: the catalog hands out identity-stable
#: objects, while ad-hoc property lists naturally miss and recompute.
_SELECTION_CACHE = weakref.WeakKeyDictionary()


def select_relevant(system, properties):
    """Filter ``properties`` to the ones relevant to ``system``.

    Keeps every monitored (non-invariant) property, and every invariant
    whose roles are bound *and* whose actuator roles point at devices some
    installed app controls.  Memoized per system (see module cache).
    """
    properties = list(properties)
    try:
        per_system = _SELECTION_CACHE.setdefault(system, {})
    except TypeError:  # un-weakref-able stand-ins (tests): no memo
        per_system = None
    cache_key = tuple(id(prop) for prop in properties)
    if per_system is not None:
        cached = per_system.get(cache_key)
        if cached is not None:
            return list(cached[1])
    selected = _select_relevant(system, properties)
    if per_system is not None:
        # the keyed property objects are retained alongside the result so
        # their ids can never be recycled onto different objects
        per_system[cache_key] = (tuple(properties), tuple(selected))
    return selected


def _select_relevant(system, properties):
    app_devices = app_bound_devices(system)
    subscribed = subscribed_attributes(system)
    selected = []
    for prop in properties:
        if prop.kind != KIND_INVARIANT:
            selected.append(prop)
            continue
        if not prop.applicable(system):
            continue
        if not _actuators_covered(prop, system, app_devices):
            continue
        if not _triggers_covered(prop, subscribed):
            continue
        selected.append(prop)
    return selected


def app_bound_devices(system):
    """Every device name bound to any input of any installed app."""
    devices = set()
    for app in system.apps:
        for input_name in app.binding_names():
            devices.update(app.bound_devices(input_name))
    return devices


def subscribed_attributes(system):
    """Every device attribute some installed app subscribes to."""
    attributes = set()
    for sub in system.subscriptions:
        if sub.source_kind == "device" and sub.attribute:
            attributes.add(sub.attribute)
    return attributes


def _triggers_covered(prop, subscribed):
    """An obligation invariant needs an app that reacts to its trigger.

    "The alarm must sound on carbon monoxide" can only be discharged by an
    app subscribed to CO events - without one, the environment alone
    falsifies the property and the report tells the user nothing about the
    installed apps.  Pure restrictions (empty ``triggers``) always pass.
    """
    triggers = getattr(prop, "triggers", ())
    if not triggers:
        return True
    return any(attribute in subscribed for attribute in triggers)


def _actuators_covered(prop, system, app_devices):
    """Whether every actuator role of the invariant is app-controlled.

    Role values that are not installed devices (thresholds, mode names)
    and sensor devices never disqualify a property.
    """
    _devices, actuators = prop.role_devices(system)
    return actuators <= app_devices
