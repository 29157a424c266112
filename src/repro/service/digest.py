"""Deterministic content digests for verification inputs.

The continuous vetting service is content-addressed: a verification's
inputs - the bound system (devices, installed apps with their handler
code and bindings), the property set and the engine options - are
canonically serialized and hashed, and the resulting key addresses the
:class:`~repro.service.store.ResultStore`.  Re-submitting an unchanged
app/configuration pair therefore resolves to a store lookup instead of a
state-space search.

Canonicalization rules:

* device and app *declaration order* is irrelevant (both are sorted by
  name): configurations differing only in install order address one
  store entry.  Within a cascade the model dispatches subscribers in
  install order, but that order is an arbitrary determinization - the
  real platform guarantees none - so the service deliberately treats
  permutations as the same deployment (the stored trace is the one
  recorded for the first-submitted ordering);
* handler code participates through a SHA-256 of the app's Groovy
  source, so editing any handler body produces a new digest;
* device types participate through their full attribute/command surface
  (domains and defaults), so a catalog change invalidates old results;
* only *semantic* engine options are part of the key
  (:data:`SEMANTIC_OPTION_FIELDS`); pure performance knobs (execution
  tier, GC management, limit-check quantization) cannot change verdicts
  or traces and therefore do not invalidate cached results.

Bump :data:`DIGEST_SCHEMA_VERSION` whenever the canonical layout
changes; the version is hashed into every digest, so old store entries
simply stop matching.
"""

import hashlib
import json

#: hashed into every digest: bump when the canonical layout changes
#: (v2: the execution tier - ``engine``/``compiled`` - left the semantic
#: fields; the codegen differential suite proves all tiers byte-identical,
#: so the back-end choice is a pure performance knob.
#: v3: the fault-injection ``scenario`` profile joined the semantic
#: fields - each profile explores a different transition relation, so a
#: lossy verdict must never be served from the clean cache.
#: v4: ``bitstate_salt`` joined the semantic fields (a salted bitstate
#: field misses a different state set), and swarm runs additionally
#: hash ``seed``/``swarm_members`` - two swarms with different seeds
#: sample different spaces, while exhaustive digests ignore both)
DIGEST_SCHEMA_VERSION = 4

#: EngineOptions fields that can change verdicts, traces or reported
#: exploration statistics; everything else is a performance knob
SEMANTIC_OPTION_FIELDS = (
    "max_events", "mode", "visited", "bitstate_bits", "bitstate_salt",
    "max_states", "max_transitions", "time_limit", "stop_on_first",
    "strategy", "reduction", "scenario",
)

#: additionally semantic for ``mode == "swarm"`` submissions only: the
#: seed diversifies every member's search order and salt, and the member
#: count bounds what the swarm can find.  Exhaustive runs ignore both
#: (their verdict is a function of the space alone), so hashing them
#: unconditionally would pointlessly split the exhaustive cache
SWARM_OPTION_FIELDS = ("seed", "swarm_members")


def canonical_json(payload):
    """The canonical wire form: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=_json_fallback)


def _json_fallback(value):
    # tuples arrive here only via user-supplied association values etc.;
    # anything truly unserializable is canonicalized by repr
    if isinstance(value, (set, frozenset)):
        return sorted(value, key=repr)
    return repr(value)


def payload_digest(payload):
    """SHA-256 hex digest of a canonical payload."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def source_digest(source):
    """SHA-256 of one app's Groovy source (handler-body identity)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# bound-system canonical form (IoTSystem)
# ---------------------------------------------------------------------------


def _spec_surface(spec):
    """A :class:`DeviceSpec`'s full canonical surface."""
    return {
        "attributes": {
            name: {"kind": attr.kind, "values": list(attr.values),
                   "default": attr.default}
            for name, attr in spec.attributes.items()},
        "commands": sorted(spec.commands),
        "sensors": sorted(spec.sensor_attributes),
    }


def device_payload(instance):
    """Canonical form of one bound device: name, type, full spec surface."""
    payload = {"name": instance.name, "type": instance.spec.type_name,
               "label": instance.label}
    payload.update(_spec_surface(instance.spec))
    return payload


def app_payload(app):
    """Canonical form of one installed app instance.

    Binding *values* keep list order (a device list's order is the
    :class:`~repro.model.handles.DeviceGroup` iteration order); binding
    *keys* are canonicalized by the sorted-key JSON encoding.
    """
    return {
        "instance": app.name,
        "app": app.smart_app.name,
        "source_sha256": source_digest(app.smart_app.source),
        "bindings": dict(app.bindings),
    }


def system_payload(system):
    """Canonical form of a bound :class:`~repro.model.system.IoTSystem`."""
    return {
        "devices": sorted((device_payload(d) for d in system.devices.values()),
                          key=lambda p: p["name"]),
        "apps": sorted((app_payload(a) for a in system.apps),
                       key=lambda p: p["instance"]),
        "contacts": sorted(system.contacts),
        "modes": list(system.modes),
        "initial_mode": system.initial_mode,
        "association": dict(system.association),
        "http_allowed": sorted(system.http_allowed),
        "enable_failures": bool(system.enable_failures),
        "user_mode_events": bool(system.user_mode_events),
    }


def properties_payload(properties):
    """Canonical form of a checked property set (order-independent)."""
    entries = []
    for prop in properties:
        entries.append({
            "id": prop.id,
            "name": prop.name,
            "category": prop.category,
            "kind": prop.kind,
            "ltl": prop.ltl,
            "roles": list(getattr(prop, "roles", ())),
        })
    return sorted(entries, key=lambda e: (e["id"], e["name"]))


def options_payload(options):
    """Canonical form of the semantic engine options."""
    payload = {name: getattr(options, name, None)
               for name in SEMANTIC_OPTION_FIELDS}
    if getattr(options, "mode", None) == "swarm":
        for name in SWARM_OPTION_FIELDS:
            payload[name] = getattr(options, name, None)
    priority = getattr(options, "priority", None)
    if priority is not None:
        # a custom priority function changes the search order; its
        # qualname is the best stable identity available
        payload["priority"] = getattr(priority, "__qualname__", repr(priority))
    return payload


def system_digest(system, properties=None, options=None):
    """The content digest of one verification input.

    ``properties``/``options`` extend the digest when given; a bare
    system digest identifies the deployment alone (useful to group
    stored results of the same system under different run options).
    """
    payload = {"v": DIGEST_SCHEMA_VERSION, "system": system_payload(system)}
    if properties is not None:
        payload["properties"] = properties_payload(properties)
    if options is not None:
        payload["options"] = options_payload(options)
    return payload_digest(payload)


# ---------------------------------------------------------------------------
# job canonical form (configuration level, no system build required)
# ---------------------------------------------------------------------------


def _type_surface(type_name):
    """The catalog's full spec surface for a device type (None if unknown).

    A catalog edit - new attribute, changed value domain or default,
    added command - must invalidate stored results verified under the
    old surface, exactly like a handler-body edit does for apps.
    """
    from repro.devices.catalog import device_spec

    try:
        spec = device_spec(type_name)
    except KeyError:
        return None
    return _spec_surface(spec)


def config_payload(config, registry):
    """Canonical form of a :class:`SystemConfiguration` against a registry.

    App handler code participates through the registry's parsed sources
    and device types through their catalog spec surface, so the key
    changes when either changes - without paying for IR lowering or a
    system build.
    """
    apps = []
    for app_config in config.apps:
        smart_app = registry.get(app_config.app)
        apps.append({
            "instance": app_config.instance_name,
            "app": app_config.app,
            "source_sha256": (source_digest(smart_app.source)
                              if smart_app is not None else None),
            "bindings": dict(app_config.bindings),
        })
    devices = [{"name": d.name, "type": d.type, "label": d.label,
                "surface": _type_surface(d.type)}
               for d in config.devices]
    return {
        "devices": sorted(devices, key=lambda p: p["name"]),
        "apps": sorted(apps, key=lambda p: p["instance"]),
        "contacts": sorted(config.contacts),
        "modes": list(config.modes),
        "initial_mode": config.initial_mode,
        "association": dict(config.association),
        "http_allowed": sorted(config.http_allowed),
    }


def _job_properties_payload(properties):
    if properties is None:
        return "catalog"
    if all(isinstance(p, str) for p in properties):
        return sorted(properties)
    return properties_payload(properties)


def job_config_digest(job, registry=None):
    """Digest of the job's deployment alone (no options/properties).

    Groups every stored result of one system configuration regardless of
    the run options it was verified under.
    """
    registry = _job_registry(job) if registry is None else registry
    return payload_digest({"v": DIGEST_SCHEMA_VERSION,
                           "config": config_payload(job.config, registry)})


def job_cache_key(job, registry=None):
    """The content-addressed store key of one verification job."""
    registry = _job_registry(job) if registry is None else registry
    payload = {
        "v": DIGEST_SCHEMA_VERSION,
        "config": config_payload(job.config, registry),
        "options": options_payload(job.options),
        "properties": _job_properties_payload(job.properties),
        "select": bool(job.select),
        "strict": bool(job.strict),
        "enable_failures": bool(job.enable_failures),
        "user_mode_events": bool(job.user_mode_events),
        "sources": {name: source_digest(source)
                    for name, source in (job.sources or {}).items()},
    }
    return payload_digest(payload)


def _job_registry(job):
    from repro.engine.batch import resolve_job_registry

    return resolve_job_registry(job)
