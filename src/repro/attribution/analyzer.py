"""The two-phase attribution algorithm of §9.

Phase 1: the newly installed app is verified *alone* under every
enumerated configuration.  A violation ratio above the threshold means the
app misbehaves regardless of how it is wired - the signature of a
malicious app ("malicious apps are likely to consistently try to coerce
the IoT system into exploitable bad states", §1).

Phase 2: otherwise the app is verified *in conjunction with* the
previously installed apps, again under every configuration of the new
app.  A ratio above the threshold now flags a bad app; below it, the
violations are attributed to misconfiguration and the safe configurations
found along the way are offered as suggestions.
"""

from repro.attribution.enumerator import ConfigurationEnumerator
from repro.config.schema import SystemConfiguration
from repro.engine import EngineOptions, ExplorationEngine
from repro.model.generator import ModelGenerator
from repro.properties.catalog import build_properties
from repro.properties.selection import select_relevant

VERDICT_MALICIOUS = "malicious"
VERDICT_BAD_APP = "bad-app"
VERDICT_MISCONFIGURED = "misconfiguration"
VERDICT_SAFE = "safe"

#: "If the proportion of violations (violation ratio) is greater than a
#: predefined threshold (e.g., 90%) ..." (§9)
DEFAULT_THRESHOLD = 0.9


class PhaseResult:
    """Outcome of one attribution phase across all configurations."""

    def __init__(self, phase):
        self.phase = phase
        #: list of (bindings, [violation, ...]) per verified configuration
        self.runs = []

    def record(self, bindings, violations):
        self.runs.append((bindings, list(violations)))

    @property
    def configurations(self):
        return len(self.runs)

    @property
    def violating(self):
        return sum(1 for _bindings, violations in self.runs if violations)

    @property
    def ratio(self):
        if not self.runs:
            return 0.0
        return self.violating / float(self.configurations)

    def safe_bindings(self):
        """Configurations that verified clean (misconfig suggestions)."""
        return [bindings for bindings, violations in self.runs
                if not violations]

    def violated_property_ids(self):
        ids = set()
        for _bindings, violations in self.runs:
            ids.update(v.property.id for v in violations)
        return sorted(ids)

    def __repr__(self):
        return "PhaseResult(phase=%d, ratio=%.2f, configs=%d)" % (
            self.phase, self.ratio, self.configurations)


class AttributionReport:
    """The verdict for one newly installed app."""

    def __init__(self, app_name, verdict, phase1, phase2=None,
                 threshold=DEFAULT_THRESHOLD):
        self.app_name = app_name
        self.verdict = verdict
        self.phase1 = phase1
        self.phase2 = phase2
        self.threshold = threshold

    @property
    def is_flagged(self):
        return self.verdict in (VERDICT_MALICIOUS, VERDICT_BAD_APP)

    def suggestions(self):
        """Safe configurations to offer for a misconfiguration verdict."""
        if self.verdict != VERDICT_MISCONFIGURED or self.phase2 is None:
            return []
        return self.phase2.safe_bindings()

    def summary(self):
        lines = ["%s: %s (threshold %.0f%%)" % (
            self.app_name, self.verdict.upper(), self.threshold * 100)]
        lines.append("  phase 1 (alone): %d/%d configurations violate "
                     "(ratio %.0f%%)" % (self.phase1.violating,
                                         self.phase1.configurations,
                                         self.phase1.ratio * 100))
        if self.phase2 is not None:
            lines.append("  phase 2 (with installed apps): %d/%d "
                         "configurations violate (ratio %.0f%%)"
                         % (self.phase2.violating,
                            self.phase2.configurations,
                            self.phase2.ratio * 100))
        properties = (self.phase2 or self.phase1).violated_property_ids()
        if properties:
            lines.append("  violated properties: %s" % ", ".join(properties))
        suggestions = self.suggestions()
        if suggestions:
            lines.append("  %d safe configuration(s) available"
                         % len(suggestions))
        return "\n".join(lines)

    def __repr__(self):
        return "AttributionReport(%r, %s)" % (self.app_name, self.verdict)


class OutputAnalyzer:
    """Runs the §9 attribution for newly installed apps.

    ``registry`` maps app names to parsed SmartApps (the corpus);
    ``properties`` defaults to the full 45-property catalog.
    """

    def __init__(self, registry, properties=None, threshold=DEFAULT_THRESHOLD,
                 max_configs=64, explorer_options=None):
        self.registry = dict(registry)
        self.properties = (list(properties) if properties is not None
                           else build_properties())
        self.threshold = threshold
        self.max_configs = max_configs
        self.explorer_options = explorer_options or EngineOptions(
            max_events=2, max_states=20000)
        self._generator = ModelGenerator(self.registry)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def attribute(self, app_name, deployment, installed=(),
                  origin="unknown"):
        """Attribute ``app_name`` newly installed into ``deployment``.

        ``installed`` lists (app name, bindings) pairs for the apps already
        present.  ``origin`` labels the app's provenance: a phase-1 flag on
        an ``"unknown"`` app reads *malicious*; on a vetted ``"market"``
        app the same signal reads *bad app* (§10.3 attributes the 100%%-
        ratio market apps as bad, not malicious).  Returns an
        :class:`AttributionReport`.
        """
        smart_app = self.registry.get(app_name)
        if smart_app is None:
            raise KeyError("unknown app %r" % (app_name,))
        enumerator = ConfigurationEnumerator(deployment,
                                             limit=self.max_configs)

        phase1 = self._run_phase(1, smart_app, deployment, enumerator,
                                 installed=())
        if phase1.ratio > self.threshold:
            verdict = (VERDICT_BAD_APP if origin == "market"
                       else VERDICT_MALICIOUS)
            return AttributionReport(app_name, verdict, phase1,
                                     threshold=self.threshold)

        phase2 = self._run_phase(2, smart_app, deployment, enumerator,
                                 installed=installed)
        if phase2.ratio > self.threshold:
            verdict = VERDICT_BAD_APP
        elif phase2.violating:
            verdict = VERDICT_MISCONFIGURED
        else:
            verdict = VERDICT_SAFE
        return AttributionReport(app_name, verdict, phase1, phase2,
                                 threshold=self.threshold)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _run_phase(self, phase, smart_app, deployment, enumerator, installed):
        result = PhaseResult(phase)
        instance_name = "%s (new)" % smart_app.name
        for bindings in enumerator.enumerate_bindings(smart_app):
            violations = self._verify(smart_app, bindings, deployment,
                                      installed)
            if phase == 2:
                # phase 2 asks whether the *new* app misbehaves alongside
                # the installed ones; violations the installed apps cause
                # entirely on their own do not count against it
                violations = [v for v in violations
                              if not v.apps or instance_name in v.apps]
            result.record(bindings, violations)
        return result

    def _verify(self, smart_app, bindings, deployment, installed):
        config = SystemConfiguration(
            devices=list(deployment.devices),
            contacts=list(deployment.contacts),
            modes=list(deployment.modes),
            initial_mode=deployment.initial_mode,
            association=dict(deployment.association),
            http_allowed=list(deployment.http_allowed),
        )
        for name, app_bindings in installed:
            config.add_app(name, dict(app_bindings))
        config.add_app(smart_app.name, dict(bindings),
                       instance_name="%s (new)" % smart_app.name)
        try:
            # user mode changes are environment choices here so that
            # mode-triggered apps can be vetted in isolation (§10.3)
            system = self._generator.build(config, strict=False,
                                           user_mode_events=True)
        except Exception:  # unbuildable binding combination counts clean
            return []
        properties = select_relevant(system, self.properties)
        engine = ExplorationEngine(system, properties, self.explorer_options)
        return engine.run().violations
