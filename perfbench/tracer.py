"""Spans recorded from outside the program, around its layer calls.

A traced pass installs wrappers around the public calls that cross a
layer boundary (model build, property selection, the engine's
constructor and ``run``) and records one span per call: name, start,
end, parent span and the verdict (configuration) it belongs to.  The
engine's own phase split (``result.profile``: codegen, explore,
canonicalize) is attached as child spans of ``engine.run``.  Calls the
engine makes internally (replay engines built while canonicalizing
traces) are not layer boundaries and are not recorded.

Spans stay in memory and are written once, by the caller, at exit.
"""

import contextlib
import time

#: engine phases reported in ``result.profile``, in execution order
ENGINE_PHASES = ("codegen", "explore", "canonicalize")


class Tracer:
    """An in-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.verdict = None
        #: one record per top-level engine run (counts the result carries)
        self.runs = []
        #: relevance selection: properties kept / properties offered
        self.selected = 0
        self.offered = 0
        self._stack = []
        self._patches = []

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the ``with`` body."""
        record = {"id": len(self.spans), "name": name,
                  "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "verdict": self.verdict}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _in_engine(self):
        return any(self.spans[index]["name"] == "engine.run"
                   for index in self._stack)

    def _wrap(self, owner, attribute, name, after=None):
        original = getattr(owner, attribute)
        tracer = self

        def traced(*args, **kwargs):
            if tracer._in_engine():
                return original(*args, **kwargs)
            with tracer.span(name) as record:
                value = original(*args, **kwargs)
            if after is not None:
                after(record, args, value)
            return value

        traced.__wrapped__ = original
        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def _after_select(self, record, args, value):
        self.offered += len(args[1])
        self.selected += len(value)

    def _after_run(self, record, args, result):
        start = record["start"]
        for phase in ENGINE_PHASES:
            seconds = result.profile.get(phase)
            if seconds is None:
                continue
            self.spans.append({"id": len(self.spans),
                               "name": "engine." + phase, "start": start,
                               "end": start + seconds, "parent": record["id"],
                               "verdict": record["verdict"]})
            start += seconds
        stats = result.visited_stats or {}
        self.runs.append({
            "verdict": record["verdict"],
            "run_s": record["end"] - record["start"],
            "profile": {phase: result.profile.get(phase, 0.0)
                        for phase in ENGINE_PHASES},
            "states": result.states_explored,
            "transitions": result.transitions,
            "violations": len(result.counterexamples),
            "cache_hits": result.cache_hits,
            "cache_misses": result.cache_misses,
            "visited_bytes": stats.get("approx_bytes", 0),
            "visited_stored": stats.get("stored", 0),
        })

    def install(self):
        """Wrap the layer calls; :meth:`uninstall` restores them."""
        import repro.cli
        import repro.properties
        from repro.engine.core import ExplorationEngine
        from repro.model.generator import ModelGenerator

        self._wrap(ModelGenerator, "build", "model.build")
        # repro.cli imported these names at module import; the batch
        # path imports them from repro.properties at call time
        for module in (repro.properties, repro.cli):
            self._wrap(module, "build_properties", "properties.select")
            self._wrap(module, "select_relevant", "properties.select",
                       after=self._after_select)
        self._wrap(ExplorationEngine, "__init__", "engine.init")
        self._wrap(ExplorationEngine, "run", "engine.run",
                   after=self._after_run)

    def uninstall(self):
        """Restore every wrapped call."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
