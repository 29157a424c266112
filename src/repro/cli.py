"""Command-line driver: ``python -m repro <command>``.

Commands mirror the IotSan pipeline:

* ``apps`` - list the bundled corpus (market / malicious / IFTTT rules);
* ``analyze`` - run the App Dependency Analyzer on a configuration and
  print the dependency graph and related sets (§5);
* ``check`` - model-check a configuration (JSON file or bundled group)
  against the safety properties and print violations (§8);
* ``emit`` - emit the Promela model for a configuration (§8), for
  inspection: this tool never runs SPIN on it;
* ``attribute`` - run the Output Analyzer on a newly installed app (§9);
* ``batch`` - verify several configurations in parallel across a process
  pool (``verify_many``); ``--json`` emits the machine-readable schema;
* ``properties`` - list the 45-property catalog;
* ``report`` - render a run timeline (phases, throughput sparkline)
  from a ``--telemetry-out`` JSONL sink;
* ``serve`` - run the continuous vetting service (content-addressed
  result store + incremental scheduler behind a JSON API);
* ``submit`` / ``results`` / ``gc`` - talk to a running service: submit
  configurations (optionally with out-of-corpus ``.groovy`` files),
  fetch stored verdicts and counterexamples, evict old store entries.
"""

import argparse
import json
import sys
import time

from repro import build_system
from repro.checker.trace import render_violation_log
from repro.config.schema import SystemConfiguration
from repro.engine.options import ENGINE_MODES, EXPLORATION_MODES
from repro.model.faults import scenario_names
from repro.engine import (
    EngineOptions,
    ExplorationEngine,
    VerificationJob,
    verify_many,
    visited_store_names,
)
from repro.properties import build_properties, select_relevant


def _load_registry(include_ifttt=False):
    from repro.engine.batch import (
        REGISTRY_CORPUS,
        REGISTRY_CORPUS_IFTTT,
        _resolve_registry,
    )

    spec = REGISTRY_CORPUS_IFTTT if include_ifttt else REGISTRY_CORPUS
    # copy: some commands extend the registry (scan adds discovery apps)
    # and must not poison the resolver's cache
    return dict(_resolve_registry(spec))


def _load_configuration(source):
    """A configuration from a JSON file path or a bundled group name."""
    from repro.corpus.groups import GROUP_BUILDERS

    if source in GROUP_BUILDERS:
        return GROUP_BUILDERS[source]()
    try:
        with open(source, "r", encoding="utf-8") as handle:
            return SystemConfiguration.from_json(handle.read())
    except FileNotFoundError:
        raise SystemExit(
            "no such configuration %r (not a file, and bundled groups are: "
            "%s)" % (source, ", ".join(sorted(GROUP_BUILDERS))))


def cmd_apps(args):
    """List the bundled corpus (market / malicious / IFTTT)."""
    from repro.corpus import load_malicious_apps, load_market_apps

    sections = [("market", load_market_apps())]
    if args.malicious or args.all:
        sections.append(("malicious", load_malicious_apps()))
    if args.ifttt or args.all:
        from repro.ifttt.table9 import table9_registry
        sections.append(("ifttt", table9_registry()))
    for label, registry in sections:
        print("%s apps (%d):" % (label, len(registry)))
        for name in sorted(registry):
            app = registry[name]
            description = app.definition.get("description", "")
            print("  %-38s %s" % (name, description[:70]))
    return 0


def cmd_properties(args):
    """List the 45-property catalog by Table-4 category."""
    from repro.properties import properties_by_category

    for category, props in properties_by_category().items():
        print("%s (%d):" % (category, len(props)))
        for prop in props:
            print("  %-4s %s" % (prop.id, prop.name))
            if args.verbose and prop.ltl:
                print("       LTL: %s" % prop.ltl)
    return 0


def cmd_analyze(args):
    """Run the App Dependency Analyzer on a configuration (§5)."""
    from repro.deps import analyze_apps

    registry = _load_registry()
    config = _load_configuration(args.config)
    apps = [registry[a.app] for a in config.apps if a.app in registry]
    analysis = analyze_apps(apps)
    print(analysis.describe())
    print("scale ratio: %.1fx (original %d handlers -> largest related "
          "set %d)" % (analysis.scale_ratio, analysis.original_size,
                       analysis.new_size))
    return 0


def cmd_check(args):
    """Model-check a configuration against the safety properties (§8)."""
    phase_times = {}
    phase_started = time.monotonic()
    config = _load_configuration(args.config)
    phase_times["parse"] = time.monotonic() - phase_started
    options = _engine_options(args)
    if args.telemetry_out or args.progress:
        from repro.obs import resolve_telemetry
        options.telemetry = resolve_telemetry(
            {"path": args.telemetry_out, "progress": args.progress})
    phase_started = time.monotonic()
    system = build_system(config,
                          registry=_load_registry(include_ifttt=args.ifttt),
                          enable_failures=args.failures)
    properties = build_properties(args.properties or None)
    if not args.all_properties:
        properties = select_relevant(system, properties)
    phase_times["build"] = time.monotonic() - phase_started
    engine = ExplorationEngine(system, properties, options)
    result = engine.run()
    # result.profile carries the engine's explore phase; the CLI
    # prepends its own parse/build phases
    phase_times.update(result.profile)
    result.profile = phase_times
    if getattr(args, "json", False):
        print(result.to_json(indent=2))
        return 1 if result.has_violations else 0
    print(result.summary())
    if args.profile:
        total = sum(phase_times.values()) or 1.0
        print("phase breakdown:")
        for name, seconds in sorted(phase_times.items(),
                                    key=lambda kv: -kv[1]):
            print("  %-14s %8.3fs  %5.1f%%"
                  % (name, seconds, 100.0 * seconds / total))
        if engine.cascade_stats:
            from repro.obs.report import cascade_line
            print("cascades: %s" % cascade_line(engine.cascade_stats))
    if args.trace and result.counterexamples:
        for counterexample in result.counterexamples.values():
            print()
            print(render_violation_log(system, counterexample))
            if not args.all_traces:
                break
    return 1 if result.has_violations else 0


def cmd_batch(args):
    """Verify several configurations in parallel (``verify_many``)."""
    from repro.corpus.groups import GROUP_BUILDERS
    from repro.engine.batch import REGISTRY_CORPUS, REGISTRY_CORPUS_IFTTT

    sources = args.configs
    if not sources:
        sources = sorted(GROUP_BUILDERS)
    options = _engine_options(args)
    registry = REGISTRY_CORPUS_IFTTT if args.ifttt else REGISTRY_CORPUS
    seen, names = {}, []
    for source in sources:  # uniquify repeated sources for result keying
        count = seen.get(source, 0)
        seen[source] = count + 1
        names.append(source if count == 0 else "%s#%d" % (source, count + 1))
    def _job_options(name):
        # every job appends to the same sink, disambiguated by the
        # ``job`` key so `repro report` renders one section per job
        if not args.telemetry_out:
            return options
        import copy
        from repro.obs import TelemetryConfig
        job_options = copy.copy(options)
        job_options.telemetry = TelemetryConfig(path=args.telemetry_out,
                                                job=name)
        return job_options

    jobs = [VerificationJob(name, _load_configuration(source),
                            _job_options(name),
                            properties=args.properties or None,
                            registry=registry,
                            strict=False,  # match `check` (build_system)
                            enable_failures=args.failures)
            for name, source in zip(names, sources)]
    batch = verify_many(jobs, workers=args.workers)
    if args.json:
        print(batch.to_json(indent=2))
    else:
        print(batch.summary())
    return 1 if (batch.has_violations or batch.errors) else 0


def cmd_report(args):
    """Render a run timeline from a ``--telemetry-out`` JSONL sink."""
    from repro.obs import read_events, render_report

    try:
        events = read_events(args.sink)
    except OSError as exc:
        print("cannot read %s: %s" % (args.sink, exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        print("bad telemetry sink %s: %s" % (args.sink, exc),
              file=sys.stderr)
        return 2
    print(render_report(events))
    return 0


def cmd_emit(args):
    """Emit the Promela model for a configuration (§8)."""
    from repro.translator.promela import emit_promela

    registry = _load_registry(include_ifttt=args.ifttt)
    config = _load_configuration(args.config)
    system = build_system(config, registry=registry)
    properties = select_relevant(system, build_properties())
    text = emit_promela(system, properties)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print("wrote %d bytes to %s" % (len(text), args.output))
    else:
        print(text)
    return 0


def cmd_scan(args):
    """Flag apps using dynamic device discovery (§11 limitation 2)."""
    from repro.corpus import load_discovery_apps
    from repro.smartapp import scan_registry

    registry = _load_registry()
    if args.include_unverifiable:
        registry.update(load_discovery_apps())
    flagged = scan_registry(registry)
    if not flagged:
        print("no dynamic device discovery detected in %d apps"
              % len(registry))
        return 0
    for name in sorted(flagged):
        print(flagged[name].describe())
    print()
    print("%d app(s) flagged; these cannot be model-checked and can "
          "control devices the user never granted" % len(flagged))
    return 1


def cmd_attribute(args):
    """Run the Output Analyzer on a newly installed app (§9)."""
    from repro.attribution import OutputAnalyzer

    registry = _load_registry()
    deployment = _load_configuration(args.config)
    installed = [(a.app, a.bindings) for a in deployment.apps
                 if a.app != args.app]
    analyzer = OutputAnalyzer(registry, threshold=args.threshold,
                              max_configs=args.max_configs)
    report = analyzer.attribute(args.app, deployment, installed=installed)
    print(report.summary())
    if args.json:
        payload = {
            "app": report.app_name,
            "verdict": report.verdict,
            "phase1_ratio": report.phase1.ratio,
            "phase2_ratio": report.phase2.ratio if report.phase2 else None,
            "suggestions": report.suggestions()[:5],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 1 if report.is_flagged else 0


def cmd_serve(args):
    """Run the continuous vetting service (``repro serve``)."""
    from repro.service import ResultStore, create_server

    store = ResultStore(args.store)
    server, service = create_server(store=store, host=args.host,
                                    port=args.port, workers=args.workers,
                                    job_timeout=args.job_timeout,
                                    verbose=args.verbose)
    host, port = server.server_address[:2]
    print("repro vetting service on http://%s:%d (result store: %s)"
          % (host, port, args.store))
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.shutdown()
        store.close()
    return 0


def _submit_payload(args):
    """The ``POST /submit`` body for the shared engine arguments."""
    from repro.corpus.groups import GROUP_BUILDERS

    payload = {
        "options": {
            "max_events": args.max_events,
            "mode": args.mode,
            "visited": args.visited,
            "max_states": args.max_states,
            "scenario": args.scenario,
        },
        "failures": args.failures,
        "priority": args.priority,
    }
    if args.engine:
        payload["options"]["engine"] = args.engine
    if args.config in GROUP_BUILDERS:
        payload["group"] = args.config
    else:
        payload["config"] = _load_configuration(args.config).to_dict()
    if args.properties:
        payload["properties"] = args.properties
    if args.all_properties:
        payload["all_properties"] = True
    if args.name:
        payload["name"] = args.name
    if args.app:
        from repro.corpus import read_app_sources
        payload["sources"] = read_app_sources(args.app)
    if args.wait:
        payload["wait"] = args.wait
    return payload


def cmd_submit(args):
    """Submit a configuration to a running vetting service."""
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.url, timeout=max(60.0, (args.wait or 0) + 30))
    try:
        snapshot = client.submit(_submit_payload(args))
    except ServiceError as exc:
        raise SystemExit(str(exc))
    print("job %s (%s): %s%s" % (
        snapshot["id"], snapshot["name"], snapshot["status"],
        " [cached]" if snapshot.get("from_cache") else ""))
    print("cache key: %s" % snapshot["cache_key"])
    if snapshot.get("verdict"):
        print("verdict: %s (%d violation(s): %s; %d states, %.2fs)" % (
            snapshot["verdict"], snapshot.get("violations", 0),
            ", ".join(snapshot.get("violated_property_ids", [])) or "-",
            snapshot.get("states_explored", 0), snapshot.get("elapsed", 0.0)))
    return 1 if snapshot.get("verdict") in ("violated", "error") else 0


def cmd_results(args):
    """Fetch a stored result (by cache key or job id) from the service."""
    from repro.engine.result import ExplorationResult
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        key = args.key
        if key is None:
            entries = client.results()
            if not entries:
                print("result store is empty")
                return 0
            for entry in entries:
                print("%s  %-9s %-28s %d violation(s), %d states, hits=%d"
                      % (entry["cache_key"][:16], entry["verdict"],
                         (entry["name"] or "-")[:28], entry["violations"],
                         entry["states_explored"], entry["hits"]))
            return 0
        if key.startswith("job-"):
            snapshot = client.job(key)
            if not snapshot.get("cache_key"):
                raise SystemExit("job %s has no cache key yet" % key)
            key = snapshot["cache_key"]
        stored = client.result(key)
    except ServiceError as exc:
        raise SystemExit(str(exc))
    result = ExplorationResult.from_dict(stored["result"])
    print("%s (%s), stored %s, hits=%d" % (
        stored["cache_key"][:16], stored["verdict"],
        time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(stored["created"])),
        stored["hits"]))
    print(result.summary())
    if args.trace and result.counterexamples and stored.get("config"):
        from repro.engine.batch import overlay_sources

        config = SystemConfiguration.from_dict(stored["config"])
        # rebuild the same registry the job ran with (including any
        # out-of-corpus overlays) so the rendered system matches the trace
        registry = overlay_sources(_load_registry(), stored.get("sources"))
        system = build_system(config, registry=registry)
        for counterexample in result.counterexamples.values():
            print()
            print(render_violation_log(system, counterexample))
            if not args.all_traces:
                break
    return 1 if stored["verdict"] == "violated" else 0


def cmd_gc(args):
    """Evict result-store entries, via the service or a store file."""
    max_age = (args.max_age_days * 86400.0
               if args.max_age_days is not None else None)
    if args.store:
        from repro.service import ResultStore

        with ResultStore(args.store) as store:
            removed = store.gc(max_age=max_age, keep=args.keep)
            stats = store.stats()
    else:
        from repro.service import ServiceClient, ServiceError

        try:
            answer = ServiceClient(args.url).gc(max_age=max_age,
                                                keep=args.keep)
        except ServiceError as exc:
            raise SystemExit(str(exc))
        removed, stats = answer["removed"], answer["store"]
    print("removed %d entr%s; %d left (%d violated / %d safe)"
          % (removed, "y" if removed == 1 else "ies", stats["entries"],
             stats["violated"], stats["safe"]))
    return 0


def _add_engine_arguments(parser):
    """The engine tunables shared by ``check`` and ``batch``."""
    parser.add_argument("--max-events", type=int, default=3)
    parser.add_argument("--mode", choices=list(EXPLORATION_MODES),
                        default="sequential",
                        help="exploration semantics: sequential (the "
                             "default interleaving model) or concurrent "
                             "(simultaneous event batches)")
    parser.add_argument("--visited", choices=visited_store_names(),
                        default="fingerprint",
                        help="visited-state store: fingerprint (one 64-bit "
                             "word per state, ~2^-64 false positives; the "
                             "default), exact (full canonical keys, no hash "
                             "shortcuts - the oracle) or bitstate (Spin "
                             "supertrace: a depth-tagged k-hash bit "
                             "field, fixed here at 2^23 bits (1 MiB); "
                             "coverage=partial)")
    parser.add_argument("--max-states", type=int, default=200000)
    parser.add_argument("--engine", choices=list(ENGINE_MODES), default=None,
                        help="transition relation the search expands: "
                             "interpreted (the traced relation, every "
                             "cascade run live - the oracle) or lean "
                             "(each distinct cascade run once, its "
                             "repeats replayed with their recorded "
                             "traces; the default).  Verdicts and "
                             "traces are identical on both")
    parser.add_argument("--failures", action="store_true",
                        help="enumerate device/communication failures")
    parser.add_argument("--scenario", choices=list(scenario_names()),
                        default="clean",
                        help="fault-injection profile layered onto the "
                             "transition relation: clean (ideal delivery; "
                             "the default), lossy (sensor reports lost in "
                             "transit), delayed (cascade events delivered "
                             "newest-first), duplicated (reports delivered "
                             "twice), device-death (one device stops "
                             "reporting and acting per cascade) or "
                             "stale-reads (app reads see the pre-event "
                             "value).  See docs/scenarios.md")
    parser.add_argument("--properties", nargs="*",
                        help="property ids or categories to verify")


def _engine_options(args):
    """Build :class:`EngineOptions` from the shared CLI arguments."""
    return EngineOptions(max_events=args.max_events, mode=args.mode,
                         visited=args.visited,
                         max_states=args.max_states,
                         engine=args.engine or "lean",
                         scenario=args.scenario)


def build_parser():
    """The argparse command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IotSan reproduction: IoT safety analysis via model "
                    "checking (CoNEXT 2018)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_apps = sub.add_parser("apps", help="list the bundled app corpus")
    p_apps.add_argument("--malicious", action="store_true")
    p_apps.add_argument("--ifttt", action="store_true")
    p_apps.add_argument("--all", action="store_true")
    p_apps.set_defaults(func=cmd_apps)

    p_props = sub.add_parser("properties", help="list the property catalog")
    p_props.add_argument("-v", "--verbose", action="store_true")
    p_props.set_defaults(func=cmd_properties)

    p_analyze = sub.add_parser(
        "analyze", help="dependency graph + related sets for a configuration")
    p_analyze.add_argument("config",
                           help="configuration JSON file or bundled group")
    p_analyze.set_defaults(func=cmd_analyze)

    p_check = sub.add_parser("check", help="model-check a configuration")
    p_check.add_argument("config")
    _add_engine_arguments(p_check)
    p_check.add_argument("--all-properties", action="store_true",
                         help="skip relevance-based property selection")
    p_check.add_argument("--trace", action="store_true",
                         help="print a Fig-7 style violation log")
    p_check.add_argument("--all-traces", action="store_true")
    p_check.add_argument("--profile", action="store_true",
                         help="print a per-phase wall-time breakdown "
                              "(parse, build, explore)")
    p_check.add_argument("--json", action="store_true",
                         help="emit the machine-readable result schema "
                              "(profile included) instead of the summary")
    p_check.add_argument("--telemetry-out", default=None, metavar="FILE",
                         help="append versioned telemetry JSONL events "
                              "(progress snapshots, phase spans, the run "
                              "outcome) to FILE; render it later with "
                              "`repro report FILE`.  Pure observability: "
                              "verdicts, traces and cache keys are "
                              "unchanged")
    p_check.add_argument("--progress", action="store_true",
                         help="live single-line progress meter on stderr "
                              "(states, transitions, states/s, frontier, "
                              "depth)")
    p_check.add_argument("--ifttt", action="store_true",
                         help="include translated IFTTT rules in the registry")
    p_check.set_defaults(func=cmd_check)

    p_batch = sub.add_parser(
        "batch", help="verify several configurations in parallel")
    p_batch.add_argument("configs", nargs="*",
                         help="configuration files or bundled groups "
                              "(default: all six expert groups)")
    p_batch.add_argument("--workers", type=int, default=None,
                         help="process-pool size (default: one per job "
                              "up to the core count)")
    _add_engine_arguments(p_batch)
    p_batch.add_argument("--ifttt", action="store_true",
                         help="include translated IFTTT rules in the "
                              "registry")
    p_batch.add_argument("--json", action="store_true",
                         help="emit the machine-readable BatchResult "
                              "schema instead of the text summary (the "
                              "exit code stays nonzero when any job "
                              "reports a violation)")
    p_batch.add_argument("--telemetry-out", default=None, metavar="FILE",
                         help="append every job's telemetry JSONL events "
                              "to FILE (events carry the job name; "
                              "`repro report FILE` renders one section "
                              "per job)")
    p_batch.set_defaults(func=cmd_batch)

    p_report = sub.add_parser(
        "report", help="render a run timeline from a telemetry JSONL sink")
    p_report.add_argument("sink",
                          help="JSONL file written by --telemetry-out")
    p_report.set_defaults(func=cmd_report)

    from repro.service.defaults import DEFAULT_PORT
    default_url = "http://127.0.0.1:%d" % DEFAULT_PORT

    p_serve = sub.add_parser(
        "serve", help="run the continuous vetting service (JSON API)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                         help="TCP port (0 binds an ephemeral free port)")
    p_serve.add_argument("--store", default="repro-results.sqlite",
                         help="result-store SQLite file (':memory:' for "
                              "an ephemeral store)")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="engine process-pool size per drain cycle")
    p_serve.add_argument("--job-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-job wall-clock budget: a job still "
                              "running after this many seconds is marked "
                              "errored and its in-flight dedup key is "
                              "released (default: no timeout)")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log every HTTP request")
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit a configuration to a running service")
    p_submit.add_argument("config",
                          help="configuration JSON file or bundled group")
    p_submit.add_argument("--url", default=default_url,
                          help="service base URL")
    p_submit.add_argument("--app", action="append", default=[],
                          metavar="GROOVY_FILE",
                          help="overlay an out-of-corpus .groovy app onto "
                               "the registry (repeatable)")
    p_submit.add_argument("--name", help="display name for the job")
    p_submit.add_argument("--priority", type=int, default=0,
                          help="scheduling priority (higher runs first)")
    p_submit.add_argument("--wait", type=float, default=0.0,
                          metavar="SECONDS",
                          help="block up to SECONDS for the verdict "
                               "(0: return the job id immediately)")
    _add_engine_arguments(p_submit)
    p_submit.add_argument("--all-properties", action="store_true",
                          help="skip relevance-based property selection")
    p_submit.set_defaults(func=cmd_submit)

    p_results = sub.add_parser(
        "results", help="fetch stored verdicts and counterexamples")
    p_results.add_argument("key", nargs="?",
                           help="cache key or job id (omit to list "
                                "recent store entries)")
    p_results.add_argument("--url", default=default_url)
    p_results.add_argument("--trace", action="store_true",
                           help="re-render the stored counterexample as a "
                                "Fig-7 style violation log")
    p_results.add_argument("--all-traces", action="store_true")
    p_results.set_defaults(func=cmd_results)

    p_gc = sub.add_parser(
        "gc", help="evict result-store entries by age / count")
    p_gc.add_argument("--url", default=default_url)
    p_gc.add_argument("--store",
                      help="operate directly on a store file instead of a "
                           "running service")
    p_gc.add_argument("--max-age-days", type=float, default=None,
                      help="drop entries recorded more than N days ago")
    p_gc.add_argument("--keep", type=int, default=None,
                      help="retain only the N most recently used entries")
    p_gc.set_defaults(func=cmd_gc)

    p_emit = sub.add_parser(
        "emit", help="emit the Promela model (for inspection; this tool "
        "does not run SPIN)",
        description="Emit the Promela model of a configuration: device "
        "typedefs, app handlers, the event loop, and one #define per atom "
        "plus an ltl block per applicable invariant, in the sequential "
        "design (one process, handlers as inlines).  The model is "
        "generated for inspection and is not checked by SPIN: this tool "
        "never runs SPIN, and the verdicts of `repro check` come from the "
        "Python checker.")
    p_emit.add_argument("config")
    p_emit.add_argument("-o", "--output")
    p_emit.add_argument("--ifttt", action="store_true")
    p_emit.set_defaults(func=cmd_emit)

    p_scan = sub.add_parser(
        "scan", help="flag dynamic-device-discovery apps (unverifiable)")
    p_scan.add_argument("--include-unverifiable", action="store_true",
                        help="also scan the bundled ContexIoT discovery "
                             "apps (Midnight Camera et al.)")
    p_scan.set_defaults(func=cmd_scan)

    p_attr = sub.add_parser(
        "attribute", help="attribute a newly installed app (§9)")
    p_attr.add_argument("app", help="app name from the corpus")
    p_attr.add_argument("config",
                        help="deployment (JSON file or bundled group)")
    p_attr.add_argument("--threshold", type=float, default=0.9)
    p_attr.add_argument("--max-configs", type=int, default=64)
    p_attr.add_argument("--json", action="store_true")
    p_attr.set_defaults(func=cmd_attribute)

    return parser


def main(argv=None):
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
