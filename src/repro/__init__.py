"""IotSan reproduction: model-checking based safety analysis of IoT systems.

Reproduction of "IotSan: Fortifying the Safety of IoT Systems" (Nguyen et
al., CoNEXT 2018) as a pure-Python library.  The pipeline mirrors the
paper's five modules:

1. :mod:`repro.deps` - App Dependency Analyzer (§5);
2. :mod:`repro.groovy` / :mod:`repro.translator` - Translator (§6);
3. :mod:`repro.config` - Configuration Extractor (§7);
4. :mod:`repro.model` + :mod:`repro.properties` - Model Generator (§8);
5. :mod:`repro.checker` + :mod:`repro.attribution` - model checking and
   Output Analyzer (§9).

Quickstart::

    from repro import check_configuration
    from repro.config import SystemConfiguration

    config = SystemConfiguration(contacts=["+1-555-0100"])
    config.add_device("alicePresence", "smartsense-presence")
    config.add_device("doorLock", "zwave-lock")
    config.association["main_door_lock"] = "doorLock"
    config.add_app("Auto Mode Change", {"people": ["alicePresence"],
                                        "awayMode": "Away", "homeMode": "Home"})
    config.add_app("Unlock Door", {"lock1": "doorLock"})
    result = check_configuration(config)
    print(result.summary())
"""

from repro.engine import EngineOptions

__version__ = "1.0.0"


def check_configuration(config, registry=None, properties=None,
                        relevant_only=True, enable_failures=False, **options):
    """Verify one system configuration end-to-end.

    ``registry`` defaults to the bundled corpus; ``properties`` defaults to
    the 45-property catalog (filtered for relevance unless
    ``relevant_only=False``).  Remaining keyword arguments become
    :class:`~repro.engine.EngineOptions` (``max_events``, ``mode``,
    ``visited``, ``scenario``, ...).  Returns an
    :class:`~repro.engine.ExplorationResult`.
    """
    from repro.engine import ExplorationEngine

    system = build_system(config, registry=registry,
                          enable_failures=enable_failures)
    if properties is None:
        from repro.properties import build_properties
        properties = build_properties()
    if relevant_only:
        from repro.properties import select_relevant
        properties = select_relevant(system, properties)
    engine = ExplorationEngine(system, properties, EngineOptions(**options))
    return engine.run()


def check_configurations(named_configs, workers=None, properties=None,
                         relevant_only=True, enable_failures=False,
                         **options):
    """Verify several independent configurations, in parallel.

    ``named_configs`` maps job names to configurations (or is an iterable
    of ``(name, config)`` pairs).  Fans the jobs across a process pool
    (:func:`repro.engine.verify_many`); returns a
    :class:`~repro.engine.BatchResult` with merged statistics.
    """
    from repro.engine import VerificationJob, verify_many

    if hasattr(named_configs, "items"):
        named_configs = named_configs.items()
    jobs = [VerificationJob(name, config, EngineOptions(**options),
                            properties=properties, select=relevant_only,
                            strict=False, enable_failures=enable_failures)
            for name, config in named_configs]
    return verify_many(jobs, workers=workers)


def build_system(config, registry=None, enable_failures=False):
    """Bind a configuration into an :class:`~repro.model.system.IoTSystem`."""
    from repro.corpus import load_all_apps
    from repro.model.generator import ModelGenerator

    if registry is None:
        registry = load_all_apps()
    return ModelGenerator(registry).build(config, strict=False,
                                          enable_failures=enable_failures)


__all__ = ["check_configuration", "check_configurations", "build_system",
           "EngineOptions", "__version__"]
