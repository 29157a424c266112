"""Swarm exploration: sharding one verification run across processes.

The classic SPIN multi-core gap: ``verify_many`` scales *across*
independent jobs, but a single deep ``repro check`` still explores its
state space on one core.  This module partitions one run instead:

* **pluggable ownership** - every reachable state is owned by exactly
  one of N worker processes, so the distinct-state count and the
  depth-aware revisit semantics are preserved globally while each shard
  keeps its own frontier, visited store (exact / fingerprint / collapse
  all work unchanged) and sleep sets.  The owner map
  is a :mod:`repro.engine.partition` strategy: ``fingerprint`` (the
  balanced zero-locality baseline) or ``locality`` (the default - a
  stable projection of the packed slot grid that keeps successor
  chains shard-local);
* **delta-encoded handoff** - a successor owned by another shard ships
  as a packed-slot delta against the shared initial state plus an app
  overlay, its depth, sleep set and a *skeleton* event prefix (labels
  plus only the command/mode steps violation attribution reads) -
  never a full state pickle, never a full TraceStep path.  Batches are
  pickled once per flush and their wire bytes are accounted
  (``handoff_bytes``); full traces are reconstructed on the parent by
  replay during trace canonicalization;
* **bounded work stealing with ownership leases** - an idle shard asks
  a peer for work instead of idling through the run; a loaded victim
  leases it a bounded slice from the cold end of its frontier over the
  same delta wire format.  Leases ride the sent/received counters, so
  counting termination stays exact; ownership itself never moves -
  dedup responsibility for a leased node's successors stays with their
  owners, which is what keeps stealing sound (and why it is bounded:
  work done off-owner pays for itself in extra handoffs);
* **counting termination with a confirmation round** - workers report
  ``(idle, sent, received)`` snapshots to the parent; when every worker
  is idle and the global sent/received counters agree, the parent
  holds the tentative verdict until every worker re-reports *after*
  that observation with unchanged counters (stale reports can balance
  spuriously - the classic distributed-termination pitfall); only the
  confirmed double-barrier guarantees nothing is buffered, in flight
  or unprocessed anywhere, i.e. the bounded space is exhausted.  Steal
  requests carry no work and are deliberately uncounted; idle and
  halted workers never grant leases, so no request in flight during a
  confirmation round can produce a send;
* **deterministic traces** - shards report counterexamples as event
  sequences; the parent selects the canonical one per violation (the
  shortest path, ties broken by label order - the same rule the
  sequential recorder applies) and *replays* it on its own system, so
  the rendered trace is independent of shard scheduling races.

Sharding is a pure performance knob: verdicts, violation sets and the
canonical traces match the single-worker run, which is why
``EngineOptions.workers`` and ``EngineOptions.partition`` are excluded
from the vetting service's content digests.

Worker processes prefer the ``fork`` start method: children inherit the
parent's hash seed, which keeps :meth:`ModelState.fingerprint` - and
therefore fingerprint-partitioned ownership - consistent across every
shard.  Where only ``spawn`` exists the parent pins ``PYTHONHASHSEED``
for its children instead.  (The locality partitioner hashes
deterministically and does not depend on the seed at all.)
"""

import os
import pickle
import queue as _queue_mod
import time
import traceback

from repro.checker.violations import TraceStep
from repro.engine.core import (
    _NO_SLEEP,
    _Node,
    ExplorationEngine,
    path_order_key,
    replay_path,
)
from repro.engine.partition import make_partitioner
from repro.engine.result import ExplorationResult

#: cross-shard handoffs per queue message (batching amortizes pickling)
HANDOFF_BATCH = 64
#: frontier nodes expanded between inbox polls
EXPAND_CHUNK = 256
#: transitions between unsolicited worker status reports
STATUS_EVERY = 4096
#: seconds a blocked worker waits on its inbox per poll
IDLE_POLL = 0.1
#: a victim grants a lease only while its frontier holds more than this
#: many nodes: a near-empty frontier is cheaper to finish than to ship
STEAL_MIN = 64
#: nodes per ownership lease: work stealing is *bounded* because every
#: node expanded off-owner exports its foreign successors back, so big
#: leases on an imbalanced run buy idle-time back at a handoff premium
STEAL_BATCH = 32
#: steal-request backoff ceiling (seconds): a starved shard's first
#: request goes out after one idle poll and the interval doubles while
#: no owned work arrives, so a structurally starved shard (a skewed
#: ownership map, or more shards than cores) leases occasionally
#: instead of turning the victim's whole frontier into wire traffic
STEAL_BACKOFF_MAX = 3.2

_WIRE_PICKLE = pickle.HIGHEST_PROTOCOL


#: hard ceiling on shards per run: beyond this, per-shard queues and
#: model rebuilds cost more than any realistic core count returns, and
#: an unbounded request (e.g. through the service API) must never fork
#: the host to death
MAX_SHARD_WORKERS = 64


def default_shard_workers(requested=None):
    """Resolve a worker count: ``None``/0 means one shard per core;
    explicit requests are clamped to :data:`MAX_SHARD_WORKERS`."""
    if requested:
        return max(1, min(int(requested), MAX_SHARD_WORKERS))
    return max(1, min(os.cpu_count() or 1, MAX_SHARD_WORKERS))


def _mp_context():
    """A start-method context with cross-worker-consistent hashing.

    ``fork`` children inherit the parent's hash seed, so fingerprints
    (built on ``hash()``) agree across shards for free.  Under ``spawn``
    the children re-exec, so the parent pins ``PYTHONHASHSEED`` in the
    environment they inherit; :func:`explore_sharded` verifies agreement
    after the fact via each shard's reported root fingerprint.
    """
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork"), None
    return multiprocessing.get_context("spawn"), "0"


def _skeleton_steps(steps):
    """The attribution skeleton of one cascade's steps.

    Keeps exactly what violation dedup keys read (the same filter as
    the codegen lean relation): command/mode steps with an acting app.
    Idempotent, so re-exporting an already-skeletal prefix is a no-op.
    """
    return tuple(TraceStep(step.kind, step.text, app=step.app)
                 for step in steps
                 if step.app is not None
                 and (step.kind == "command" or step.kind == "mode"))


class _HandoffCodec:
    """Delta wire format for states crossing a shard boundary.

    Every shard builds the same initial state from the job description,
    so its packed form is a shared implicit dictionary: a crossing
    state ships as the :meth:`StateSchema.delta` edit list against that
    base (apps excluded) plus a raw app-state overlay of just the apps
    that differ.  App maps are overlaid raw - live dicts, outside the
    schema's frozen canonical form - because the receiver's exploration
    must keep mutating them, and thawing a frozen block is ambiguous.

    One wire unit is::

        (delta, app_overlay, removed_apps, history, time, depth, sleep,
         prefix)

    where ``prefix`` is the skeleton event path (see
    :func:`_skeleton_steps`) and ``history``/``sleep`` are None in the
    common empty cases.  :meth:`decode` rebuilds a live state that is
    canonically equal to the encoded one: base-inherited app maps are
    shared copy-on-write against the codec's private base copy, exactly
    like a :meth:`ModelState.copy` branch.
    """

    #: packed components carrying app state (shipped via the overlay)
    _APP_COMPONENTS = (3, 4)

    def __init__(self, system):
        from repro.model.state import _copy_value

        self.schema = system.state_schema()
        base = system.initial_state()
        packed = self.schema.pack(base)
        #: the shared delta base: the initial state's packed form with
        #: the app sections blanked (apps travel in the overlay)
        self.base_packed = (packed[0], packed[1], packed[2], (), (),
                            packed[5], packed[6], packed[7])
        #: private deep copy of the initial app-state maps; handed to
        #: decoded states as COW-shared references, never mutated here
        self.base_apps = {name: _copy_value(mapping)
                          for name, mapping in base._app_states.items()}

    def encode(self, state, depth, sleep, prefix):
        """One crossing state as a compact wire unit: the packed-slot
        delta vs the shared initial state (app components carried
        separately as a changed-maps overlay + removed-names tuple),
        device history, clock, search depth, sleep set and the
        skeleton event prefix."""
        packed = self.schema.pack(state)
        delta = tuple(entry for entry in
                      self.schema.delta(self.base_packed, packed)
                      if entry[0] not in self._APP_COMPONENTS)
        overlay = {}
        removed = ()
        base_apps = self.base_apps
        apps = state._app_states
        for name, mapping in apps.items():
            if base_apps.get(name) != mapping:
                overlay[name] = mapping
        if len(apps) - len(overlay) != len(base_apps) - len(
                [name for name in overlay if name in base_apps]):
            removed = tuple(sorted(name for name in base_apps
                                   if name not in apps))
        history = state._history or None
        return (delta, overlay, removed, history, state.time, depth,
                sleep, prefix)

    def decode(self, unit):
        """Rebuild a full :class:`ModelState` from a wire unit,
        COW-sharing the unchanged base app maps so decoding costs only
        the delta."""
        (delta, overlay, removed, history, time_, depth, sleep,
         prefix) = unit
        packed = self.schema.apply_delta(self.base_packed, delta)
        state = self.schema.unpack(packed, time=time_)
        apps = {}
        shared = set()
        for name, mapping in self.base_apps.items():
            if name in overlay or name in removed:
                continue
            # COW-share the codec's base copy; the first mutation (or
            # branch) copies it, exactly like a state-to-state share
            apps[name] = mapping
            shared.add(name)
        apps.update(overlay)  # unpickled fresh: exclusively owned
        state._app_states = apps
        state._shared_apps = shared
        state._dirty_apps = set(apps)
        if history:
            # direct slot assignment: the ``history`` property setter
            # would mark the map escaped and force deep copies on every
            # branch below this state
            state._history = history
            state._history_shared = False
        return state, depth, sleep, prefix


class _SeedNode(_Node):
    """A shard-local root for a state handed off by another shard.

    ``base_path`` is the skeleton event prefix (label + attribution
    steps per level) that led to this state wherever it was discovered;
    :meth:`_Node.path` prepends it, so violations found below a seed
    report paths with exact dedup keys (the parent replays the labels
    for the full human-readable trace).
    """

    __slots__ = ("base_path",)

    def __init__(self, state, depth, base_path, sleep=None):
        super().__init__(state, depth, sleep=sleep)
        self.base_path = base_path


class _ShardEngine(ExplorationEngine):
    """One shard's search loop: the sequential engine plus routing.

    Reuses the parent class's transition generation, sleep-set
    propagation, violation recording and limit checks; only the
    admission step changes - successors owned by another shard are
    exported instead of explored.
    """

    #: shards report raw candidates; the parent canonicalizes once
    #: after the merge instead of every shard permuting its own
    canonicalize_traces = False

    def _open_telemetry(self):
        """Shards never open the sink/meter/board themselves: the parent
        owns them for the whole run, and workers forward compact
        snapshots over the control queue (:meth:`_send_status`)."""
        return None

    def __init__(self, system, properties, options, worker_id, shards,
                 inbox, peer_queues, control, stop_event):
        super().__init__(system, properties, options)
        self.worker_id = worker_id
        self.shards = shards
        self.inbox = inbox
        self.peer_queues = peer_queues
        self.control = control
        #: the parent's stop broadcast.  Deliberately an Event, not an
        #: inbox message: a queue's cross-process writelock can be
        #: orphaned by a peer that exits while its feeder thread is
        #: blocked on a full pipe, and a stop that has to wait for that
        #: lock would deadlock the swarm - an Event has no lock to lose
        self.stop_event = stop_event
        self.partitioner = make_partitioner(options.partition, system,
                                            shards)
        self.codec = _HandoffCodec(system)
        #: peer id -> buffered wire units awaiting a batched flush
        self._outbox = {peer: [] for peer in range(shards)
                        if peer != worker_id}
        #: fingerprint -> (min exported depth, sleep intersection):
        #: sender-side dedup mirroring the receiver's prune conditions,
        #: so re-discovering an already-shipped state exports nothing
        self._exported = {}
        self.sent = 0
        self.received = 0
        self.handoff_bytes = 0
        self.steals = 0
        self.stolen_states = 0
        self._steal_cursor = worker_id
        self._steal_backoff = IDLE_POLL
        self._next_steal_at = 0.0
        self._seq = 0
        self._last_status = None
        telemetry = getattr(options, "telemetry", None)
        #: forward progress snapshots to the parent's telemetry session
        #: (piggybacked on the status cadence, sent only on real change)
        self._telemetry_on = telemetry is not None and telemetry.enabled
        self._halted = False
        self._found = False
        self._last_distinct = 0
        self._root_owner = False

    # ------------------------------------------------------------------
    # the sharded search loop
    # ------------------------------------------------------------------

    def _run(self):
        result = self._result = ExplorationResult()
        self._started = time.monotonic()
        (self._visited, self._frontier, self._reducer,
         self._matcher) = self._setup_search()
        # same graceful degradation as the sequential loop: third-party
        # stores without the O(1) counter fall back to fresh-equals-new
        self._count_distinct = getattr(self._visited, "distinct_count", None)

        root = self.system.initial_state()
        self._root_fp = root.fingerprint()
        self._root_owner = self.partitioner.owner(root) == self.worker_id
        if self._root_owner:
            self._admit(root, 0,
                        _NO_SLEEP if self._reducer is not None else None, ())

        while not self.stop_event.is_set():
            progressed = self._poll_inbox(block=False)
            if self._frontier and not self._halted:
                self._expand_chunk()
                continue
            if progressed:
                continue
            # locally exhausted: flush partial batches, report idle and
            # wait for more work or the stop broadcast.  The idle report
            # repeats once per empty poll (``force``): the parent's
            # termination confirmation round needs a fresh post-decision
            # report from every worker, not just a deduplicated one
            self._flush_outboxes()
            self._send_status(idle=True, force=True)
            self._request_steal()
            self._poll_inbox(block=True)
        return self._finish_shard()

    def _expand_chunk(self):
        """Expand up to :data:`EXPAND_CHUNK` nodes, routing successors."""
        result = self._result
        options = self.options
        frontier = self._frontier
        owner_of = self.partitioner.owner
        status_mark = result.transitions
        for _ in range(EXPAND_CHUNK):
            if not frontier or self._halted:
                break
            if self._limits_hit(result, self._started):
                self._halt()
                break
            node = frontier.pop()
            expanded_keys = [] if self._reducer is not None else None
            #: skeleton root-to-node prefix, shared by every export from
            #: this node (computed on the first foreign-owned successor)
            node_prefix = None
            event_filter = self._sleep_filter(node, self._reducer, result)
            for transition in self._search_transitions_from(node,
                                                            event_filter):
                label, new_state, consumed, violations, steps = transition
                result.transitions += 1
                depth = node.depth + (1 if consumed else 0)
                child_sleep = None
                if self._reducer is not None:
                    child_sleep = self._child_sleep(node, self._reducer,
                                                    label, expanded_keys)
                if violations:
                    child = _Node(new_state, depth, parent=node, label=label,
                                  steps=steps, sleep=child_sleep)
                    self._record(result, child, violations)
                    if options.stop_on_first:
                        self._found = True
                        self._halt()
                        break
                if depth <= options.max_events:
                    owner = owner_of(new_state)
                    if owner == self.worker_id:
                        self._admit_child(node, label, steps, new_state,
                                          depth, child_sleep)
                    else:
                        if node_prefix is None:
                            node_prefix = tuple(
                                (lvl_label, _skeleton_steps(lvl_steps))
                                for lvl_label, lvl_steps in node.path())
                        self._export(owner, node_prefix, label, steps,
                                     new_state, depth, child_sleep)
                if self._cheap_limits_hit(result):
                    self._halt()
                    break
        if result.transitions - status_mark or self._halted:
            if (result.transitions // STATUS_EVERY
                    != status_mark // STATUS_EVERY) or self._halted:
                self._send_status(idle=False)

    def _visit(self, state, depth, sleep):
        """Shared visited/matcher bookkeeping; ``(fresh, sleep, is_new)``.

        ``is_new`` is the distinct-state signal (same accounting as the
        sequential engine: depth-improved revisits re-expand without
        re-counting), so the summed shard counts equal the single-worker
        ``states_explored``.
        """
        if self._matcher is None:
            fresh = not self._visited.seen_state(state, depth)
            is_new = fresh
            if fresh and self._count_distinct is not None:
                # a pruned revisit can never have grown the store
                now = self._count_distinct()
                is_new = now > self._last_distinct
                self._last_distinct = now
            return fresh, sleep, is_new
        pruned, sleep, is_new = self._matcher.seen_state(
            state, depth, sleep if sleep is not None else _NO_SLEEP)
        return not pruned, sleep, is_new

    def _admit_child(self, node, label, steps, state, depth, sleep):
        """Local admission of a successor this shard owns (the engine's
        child-admission block, minus the violation half already done)."""
        fresh, sleep, is_new = self._visit(state, depth, sleep)
        if not fresh:
            return
        if is_new:
            self._result.states_explored += 1
        if depth < self.options.max_events or state.pending:
            child = _Node(state, depth, parent=node, label=label,
                          steps=steps, sleep=sleep)
            self._frontier.push(child)

    def _admit(self, state, depth, sleep, base_path):
        """Admission of a state arriving over the wire (or the root)."""
        fresh, sleep, is_new = self._visit(state, depth, sleep)
        if not fresh:
            return
        if is_new:
            self._result.states_explored += 1
        if depth < self.options.max_events or state.pending:
            self._frontier.push(_SeedNode(state, depth, tuple(base_path),
                                          sleep=sleep))

    def _export(self, owner, node_prefix, label, steps, state, depth,
                sleep):
        """Buffer one handoff unless a previous export provably covers
        it (the receiver would prune the revisit anyway)."""
        fingerprint = state.fingerprint()
        recorded = self._exported.get(fingerprint)
        if recorded is not None:
            rdepth, rsleep = recorded
            if rdepth <= depth and (
                    rsleep is None
                    or (sleep is not None and sleep >= rsleep)):
                # the receiver has (or will see) this state at a depth
                # no worse and a sleep set no larger: its store/matcher
                # prune conditions are both implied, so the handoff
                # would be dead weight on the wire
                return
            self._exported[fingerprint] = (
                min(rdepth, depth),
                rsleep & sleep if (rsleep is not None
                                   and sleep is not None) else None)
        else:
            self._exported[fingerprint] = (depth, sleep)
        prefix = node_prefix + ((label, _skeleton_steps(steps)),)
        buffered = self._outbox[owner]
        buffered.append(self.codec.encode(state, depth, sleep, prefix))
        if len(buffered) >= HANDOFF_BATCH:
            self._flush_peer(owner)

    def _flush_peer(self, owner):
        buffered = self._outbox[owner]
        if not buffered:
            return
        blob = pickle.dumps(buffered, protocol=_WIRE_PICKLE)
        self.peer_queues[owner].put(("states", len(buffered), blob))
        self.sent += len(buffered)
        self.handoff_bytes += len(blob)
        self._outbox[owner] = []

    def _flush_outboxes(self):
        for peer in self._outbox:
            self._flush_peer(peer)

    # ------------------------------------------------------------------
    # work stealing
    # ------------------------------------------------------------------

    def _request_steal(self):
        """Ask one peer (round-robin) for a work lease before blocking
        on the inbox.  Requests are cheap, carry no work, and are not
        counted: an idle or halted victim simply ignores them.

        Requests back off exponentially (up to ``STEAL_BACKOFF_MAX``)
        while no *owned* work arrives: leases cost backflow handoffs,
        so a shard that stays starved because the ownership map gave it
        the small side should idle into termination, not strip-mine its
        peer.  Any regular handoff batch resets the backoff - that is
        the signal the search still produces work for this shard."""
        if self.shards < 2 or self._halted or self.stop_event.is_set():
            return
        now = time.monotonic()
        if now < self._next_steal_at:
            return
        self._next_steal_at = now + self._steal_backoff
        self._steal_backoff = min(self._steal_backoff * 2,
                                  STEAL_BACKOFF_MAX)
        cursor = self._steal_cursor
        for _ in range(self.shards - 1):
            cursor = (cursor + 1) % self.shards
            if cursor != self.worker_id:
                break
        self._steal_cursor = cursor
        try:
            self.peer_queues[cursor].put(("steal", self.worker_id))
        except (OSError, ValueError):
            pass  # a dying peer's queue; the parent will notice

    def _grant_lease(self, thief):
        """Lease a bounded slice of near-leaf frontier nodes to an
        idle peer (see :meth:`Frontier.steal` for why the deep end).

        Leased units use the same wire format and ride the same
        sent/received counters as handoffs, so counting termination
        still proves global exhaustion.  Ownership does not move: the
        thief expands the nodes and routes their successors normally.
        """
        if self._halted or len(self._frontier) <= STEAL_MIN:
            return
        candidates = self._frontier.steal(STEAL_BATCH)
        if not candidates:
            return
        # lease only near-leaf nodes: their children land at the event
        # bound, so a stolen node costs exactly one expansion of
        # backflow.  Anything shallower roots a whole subtree - the
        # thief would drag it through foreign territory, converting
        # edges that were shard-local under the locality map into
        # handoffs (measured: shallow leases double crossing traffic
        # at depth 4).  Shallow nodes drawn by the frontier go back.
        bound = self.options.max_events
        nodes = []
        for node in candidates:
            if node.depth + 1 >= bound:
                nodes.append(node)
            else:
                self._frontier.push(node)
        if not nodes:
            return
        units = []
        for node in nodes:
            prefix = tuple((label, _skeleton_steps(steps))
                           for label, steps in node.path())
            units.append(self.codec.encode(node.state, node.depth,
                                           node.sleep, prefix))
        blob = pickle.dumps(units, protocol=_WIRE_PICKLE)
        self.peer_queues[thief].put(("leased", len(units), blob))
        self.sent += len(units)
        self.handoff_bytes += len(blob)

    # ------------------------------------------------------------------
    # inbox + control plumbing
    # ------------------------------------------------------------------

    def _poll_inbox(self, block):
        """Drain available inbox messages; True when any state arrived."""
        progressed = False
        while True:
            try:
                message = self.inbox.get(timeout=IDLE_POLL if block else 0)
            except _queue_mod.Empty:
                return progressed
            kind = message[0]
            if kind == "states":
                self.received += message[1]
                # owned work arrived: the search still feeds this shard,
                # so future idle gaps earn an eager steal again
                self._steal_backoff = IDLE_POLL
                self._next_steal_at = 0.0
                if not self._halted:
                    for unit in pickle.loads(message[2]):
                        state, depth, sleep, prefix = self.codec.decode(
                            unit)
                        self._admit(state, depth, sleep, prefix)
                progressed = True
            elif kind == "steal":
                self._grant_lease(message[1])
            elif kind == "leased":
                self.received += message[1]
                self.steals += 1
                self.stolen_states += message[1]
                if not self._halted:
                    for unit in pickle.loads(message[2]):
                        state, depth, sleep, prefix = self.codec.decode(
                            unit)
                        # the victim already admitted these states (its
                        # visited store keeps the dedup record); they
                        # re-enter a frontier directly, not _visit
                        self._frontier.push(_SeedNode(state, depth,
                                                      tuple(prefix),
                                                      sleep=sleep))
                    progressed = True
            # drain the rest without waiting; the stop broadcast is an
            # Event checked by the main loop, never an inbox message
            block = False

    def _halt(self):
        """Stop expanding (limit hit / first violation) but keep
        draining the inbox so peers and the parent never stall."""
        self._halted = True

    def _send_status(self, idle, force=False):
        snapshot = (idle, self.sent, self.received,
                    self._result.states_explored, self._result.transitions,
                    self._found, self._result.truncated)
        changed = snapshot != self._last_status
        if not changed and not force:
            return
        self._last_status = snapshot
        self._seq += 1
        self.control.put(("status", self.worker_id, self._seq) + snapshot)
        if changed and self._telemetry_on:
            # telemetry rides the existing status channel but only on
            # genuine progress: a worker idling through the termination
            # confirmation's forced re-reports stays silent
            self.control.put(("telemetry", self.worker_id,
                              self._telemetry_fields()))

    def _telemetry_fields(self):
        """One worker's compact progress snapshot for the parent merge."""
        result = self._result
        return {
            "worker": self.worker_id,
            "states": result.states_explored,
            "transitions": result.transitions,
            "frontier": len(self._frontier),
            "elapsed": round(time.monotonic() - self._started, 6),
            "visited_bytes": self._visited.stats().get("approx_bytes", 0),
            "handoffs_sent": self.sent,
            "handoffs_received": self.received,
            "handoff_bytes": self.handoff_bytes,
            "steals": self.steals,
            "stolen_states": self.stolen_states,
        }

    def _finish_shard(self):
        return self._finish(self._result, self._visited, self._started)


def _worker_main(worker_id, shards, job, queues, control, stop_event):
    """Process entry point of one shard."""
    from repro.engine.batch import build_job_context

    kill = os.environ.get("REPRO_SHARD_TEST_KILL")
    if kill is not None and kill.strip().isdigit() \
            and int(kill) == worker_id:
        # deterministic crash hook for the degradation tests: die before
        # reporting anything, exactly like a hard worker crash would
        os._exit(17)

    inbox = queues[worker_id]
    try:
        system, properties = build_job_context(job)
        engine = _ShardEngine(system, properties, job.options, worker_id,
                              shards, inbox, queues, control, stop_event)
        result = engine.run()
        payload = {
            "result": result.to_dict(),
            "sent": engine.sent,
            "received": engine.received,
            "handoff_bytes": engine.handoff_bytes,
            "steals": engine.steals,
            "stolen_states": engine.stolen_states,
            "root_fp": engine._root_fp,
            "root_owner": engine._root_owner,
        }
        control.put(("result", worker_id, payload))
    except Exception:
        control.put(("error", worker_id, traceback.format_exc()))
    finally:
        # exit must never hang on undelivered handoffs: receivers may
        # already be gone, and the data is meaningless after stop
        for peer, peer_queue in enumerate(queues):
            if peer != worker_id:
                peer_queue.cancel_join_thread()
        try:  # drain what peers managed to enqueue, unblocking their feeders
            while True:
                inbox.get_nowait()
        except (_queue_mod.Empty, OSError):
            pass


# ---------------------------------------------------------------------------
# parent-side orchestration
# ---------------------------------------------------------------------------


class ShardError(RuntimeError):
    """The sharded run's results would be unsound (soundness errors
    only: worker *crashes* degrade gracefully into a truncated result
    with a ``shard_failure`` record instead of raising)."""


def explore_sharded(job, workers=None, keep_replay_system=False):
    """Verify one job with a sharded multi-process search.

    ``job`` is a picklable :class:`~repro.engine.batch.VerificationJob`
    (the same contract as ``verify_many``: workers rebuild the system
    from the declarative description).  Returns a merged
    :class:`~repro.engine.result.ExplorationResult` whose verdict,
    violation set and counterexample traces match the single-worker
    run; ``workers``/``shard_stats`` carry the per-shard accounting.

    ``keep_replay_system=True`` attaches the system the canonical trace
    replay ran against as ``result.replay_system``, so an in-process
    caller rendering traces need not build another one.  Off by
    default: a bound system does not pickle, and batch/service runs
    ship results across process boundaries.
    """
    from repro.engine.batch import _warm_registries, build_job_context

    workers = default_shard_workers(workers or job.options.workers)
    if workers <= 1:
        from repro.engine.batch import execute_job_inline
        return execute_job_inline(job)

    ctx, hash_seed = _mp_context()
    _warm_registries([job])  # fork children inherit the parsed corpus
    queues = [ctx.Queue() for _ in range(workers)]
    control = ctx.Queue()
    stop_event = ctx.Event()
    restore_seed = _pin_hash_seed(hash_seed)
    try:
        procs = [ctx.Process(target=_worker_main,
                             args=(wid, workers, job, queues, control,
                                   stop_event),
                             daemon=True, name="repro-shard-%d" % wid)
                 for wid in range(workers)]
        for proc in procs:
            proc.start()
    finally:
        if restore_seed is not None:
            restore_seed()

    # the parent owns the run's telemetry: workers forward compact
    # snapshots over the control queue and the merged cluster view is
    # written (and board-published) from exactly one process
    from repro.obs.telemetry import open_session
    telemetry = open_session(job.options.telemetry)
    started = time.monotonic()
    try:
        if telemetry is not None:
            telemetry.run_start(job.options, workers=workers)
        try:
            payloads, stop_reason, failure = _coordinate(
                job.options, workers, stop_event, control, procs, started,
                telemetry)
        except BaseException:
            stop_event.set()  # no worker may outlive a coordination error
            _shutdown(procs, queues, control)
            raise
        stop_event.set()
        if failure is not None:
            # Handoffs parked in a dead shard's inbox cannot be requeued:
            # state ownership is a static pure function of state content,
            # so no surviving worker may explore them, and the
            # sent/received termination counters could never balance again
            # anyway.  Drain and count them instead, so the failure record
            # quantifies the lost frontier.
            failure["lost_handoffs"] = sum(
                _drain_lost_handoffs(queues[wid])
                for wid in failure["workers"])
        _shutdown(procs, queues, control)

        merged, candidates = _merge_shards(payloads, workers)
        if failure is not None:
            merged.shard_failure = failure
        if stop_reason is not None and not merged.truncated:
            merged.truncated = True
            merged.truncated_reason = stop_reason
        replay_system = _rebuild_counterexamples(job, merged, candidates)
        if keep_replay_system:
            merged.replay_system = replay_system
        # stamped after the trace rebuild: the canonical replay is part of
        # the sharded run's cost, and states/sec must not hide it
        merged.elapsed = time.monotonic() - started
        if telemetry is not None:
            for name in sorted(merged.profile):
                telemetry.span(name, merged.profile[name])
            telemetry.run_end(merged)
        return merged
    finally:
        if telemetry is not None:
            telemetry.close()


def _pin_hash_seed(hash_seed):
    """Pin ``PYTHONHASHSEED`` for spawn children; returns the undo."""
    if hash_seed is None:
        return None
    previous = os.environ.get("PYTHONHASHSEED")
    os.environ["PYTHONHASHSEED"] = hash_seed

    def restore():
        if previous is None:
            os.environ.pop("PYTHONHASHSEED", None)
        else:
            os.environ["PYTHONHASHSEED"] = previous

    return restore


def _coordinate(options, workers, stop_event, control, procs, started,
                telemetry=None):
    """The parent's event loop: statuses in, one stop decision out.

    Exhaustive termination needs two barriers.  The *tentative* verdict
    fires when every worker's latest report says idle and the summed
    sent/received handoff counters agree.  Reports are stale snapshots,
    though: a worker may have woken on a late handoff and be flushing
    new work that neither counter reflects yet, so a lone balanced
    observation can be spurious (the classic pitfall of naive counting
    termination detection).  The parent therefore *confirms*: it stops
    only once every worker has reported again - strictly after the
    tentative observation - still idle with unchanged counters.  Any
    counter movement in between cancels the confirmation.  A send after
    a worker's first report would change its counters; a receipt
    implies such a send; so double-barrier equality proves nothing is
    buffered, in flight or unprocessed anywhere.  (Work leases ride the
    same counters; steal *requests* carry no work and idle workers
    never grant, so an in-flight request cannot break the proof.)

    Global limits (state/transition counts aggregated across shards,
    the wall clock) and ``stop_on_first`` route through the same stop
    broadcast without confirmation - they do not claim exhaustiveness.

    Worker failures - a reported exception or a process found dead
    twice without a result - degrade gracefully: the swarm is stopped,
    surviving shards flush their partial results, and the failure is
    returned as a structured record instead of raised, so callers get
    a typed ``shard_failure`` on the merged result rather than a stack
    trace.  Returns ``(per-worker result payloads, stop reason,
    failure-record-or-None)``.
    """
    statuses = {}   # wid -> (seq, snapshot)
    shard_snaps = {}  # wid -> latest forwarded telemetry fields
    payloads = {}
    failed = {}     # wid -> exit code (None when the worker reported
                    # an exception and exited normally)
    detail = None   # first reported traceback, if any
    stop_reason = None
    #: wid -> (seq, sent, received) at the tentative balanced
    #: observation; None when no confirmation round is open
    confirming = None
    confirmed = set()
    suspects = set()
    next_liveness = time.monotonic() + 1.0

    def broadcast_stop(reason):
        nonlocal stop_reason
        if not stop_event.is_set():
            stop_reason = reason
            stop_event.set()

    while len(payloads) + len(failed) < workers:
        now = time.monotonic()
        if now >= next_liveness:
            next_liveness = now + 1.0
            # a worker flushes its result before exiting, so a dead
            # worker without one is a crash; requiring two sweeps ~1s
            # apart bridges the flush-visible-to-exit-visible race
            suspects = _check_liveness(procs, payloads, failed, suspects,
                                       broadcast_stop)
        try:
            message = control.get(timeout=IDLE_POLL)
        except _queue_mod.Empty:
            if not stop_event.is_set() and _time_limit_exceeded(options,
                                                                started):
                broadcast_stop("time_limit")
            continue
        kind = message[0]
        if kind == "result":
            payloads[message[1]] = message[2]
            continue
        if kind == "error":
            failed.setdefault(message[1], None)
            if detail is None:
                detail = message[2]
            broadcast_stop("shard_failure")
            continue
        if kind == "telemetry":
            # a compact per-worker progress dict, sent alongside a real
            # status change (so the STATUS_EVERY cadence bounds it);
            # the parent records the raw shard view and re-derives the
            # merged cluster snapshot from the latest report per worker
            shard_snaps[message[1]] = message[2]
            if telemetry is not None:
                telemetry.shard_snapshot(message[2])
                telemetry.snapshot(_cluster_fields(
                    shard_snaps, time.monotonic() - started))
            continue
        if kind == "status":
            statuses[message[1]] = (message[2], message[3:])
        if stop_event.is_set():
            continue
        if _time_limit_exceeded(options, started):
            broadcast_stop("time_limit")
            continue
        snapshots = {wid: entry[1] for wid, entry in statuses.items()}
        reason = _limits_tripped(options, snapshots)
        if reason is not None:
            broadcast_stop(reason)
            continue
        if options.stop_on_first and any(s[5] for s in snapshots.values()):
            broadcast_stop(None)
            continue
        balanced = (len(statuses) == workers
                    and all(s[0] for s in snapshots.values())
                    and sum(s[1] for s in snapshots.values())
                    == sum(s[2] for s in snapshots.values()))
        if not balanced:
            confirming = None
            continue
        if confirming is None:
            confirming = {wid: (seq, snap[1], snap[2])
                          for wid, (seq, snap) in statuses.items()}
            confirmed = set()
            continue
        wid = message[1]
        seq, snap = statuses[wid]
        first_seq, first_sent, first_received = confirming[wid]
        if (snap[0], snap[1], snap[2]) != (True, first_sent, first_received):
            # counters moved (or the worker woke): the balance was a
            # stale mirage; re-arm from scratch
            confirming = None
            continue
        if seq > first_seq:
            confirmed.add(wid)
            if len(confirmed) == workers:
                broadcast_stop(None)
    failure = None
    if failed:
        failure = {"workers": sorted(failed),
                   "exitcodes": [failed[wid] for wid in sorted(failed)],
                   "detail": detail}
    return payloads, stop_reason, failure


def _cluster_fields(shard_snaps, elapsed):
    """The merged cluster view: sums over the latest per-worker
    telemetry reports, stamped with the parent's clock."""
    def total(key):
        return sum(snap.get(key, 0) for snap in shard_snaps.values())

    return {
        "states": total("states"),
        "transitions": total("transitions"),
        "frontier": total("frontier"),
        "visited_bytes": total("visited_bytes"),
        "handoffs_sent": total("handoffs_sent"),
        "handoff_bytes": total("handoff_bytes"),
        "steals": total("steals"),
        "stolen_states": total("stolen_states"),
        "workers_reporting": len(shard_snaps),
        "elapsed": round(elapsed, 6),
    }


def _time_limit_exceeded(options, started):
    return (options.time_limit
            and time.monotonic() - started > options.time_limit)


def _limits_tripped(options, statuses):
    """A global limit reached by the *aggregate* shard counters."""
    states = sum(s[3] for s in statuses.values())
    transitions = sum(s[4] for s in statuses.values())
    if options.max_states and states >= options.max_states:
        return "max_states"
    if options.max_transitions and transitions >= options.max_transitions:
        return "max_transitions"
    if any(s[6] for s in statuses.values()):  # a shard-local backstop hit
        return "max_states"
    return None


def _check_liveness(procs, payloads, failed, suspects, broadcast_stop):
    """Crash detection: returns the new suspect set.

    A dead worker without a result is suspicious once and *failed*
    twice - the worker's exit joins its control-queue feeder, so by the
    second sweep (~1s later) a legitimately finished worker's result
    would have been read from the control queue already.  Twice-
    suspected workers are recorded in ``failed`` (with their exit
    codes) and the swarm is stopped; the coordinator then collects the
    surviving shards' partial results instead of raising.
    """
    dead = {wid for wid, proc in enumerate(procs)
            if wid not in payloads and wid not in failed
            and not proc.is_alive()}
    repeat = dead & suspects
    if repeat:
        for wid in sorted(repeat):
            failed[wid] = procs[wid].exitcode
        broadcast_stop("shard_failure")
    return dead - set(failed)


def _drain_lost_handoffs(inbox):
    """Count the cross-shard states parked in a dead worker's inbox.

    Best effort: peers that exited mid-send may have dropped batches on
    the floor already (their queue feeders are cancelled on exit), so
    this is a lower bound on the lost frontier.  Wire messages carry
    their unit count, so the blobs never need unpickling here.
    """
    lost = 0
    try:
        while True:
            message = inbox.get_nowait()
            if message[0] in ("states", "leased"):
                lost += message[1]
    except (_queue_mod.Empty, OSError, ValueError):
        pass
    return lost


def _shutdown(procs, queues, control):
    for proc in procs:
        proc.join(timeout=10.0)
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
    for peer_queue in queues:
        peer_queue.cancel_join_thread()
        peer_queue.close()
    control.cancel_join_thread()
    control.close()


# ---------------------------------------------------------------------------
# merging + deterministic trace reconstruction
# ---------------------------------------------------------------------------


def _merge_shards(payloads, workers):
    """Sum shard statistics into one result; collect trace candidates."""
    merged = ExplorationResult()
    merged.workers = workers
    candidates = []
    root_fps = set()
    root_owners = 0
    visited_stored = 0
    visited_bytes = 0
    for wid in sorted(payloads):
        payload = payloads[wid]
        shard = ExplorationResult.from_dict(payload["result"])
        root_fps.add(payload.get("root_fp"))
        root_owners += 1 if payload.get("root_owner") else 0
        merged.states_explored += shard.states_explored
        merged.transitions += shard.transitions
        for phase, seconds in shard.profile.items():
            # summed across shards: aggregate worker time per phase
            merged.profile[phase] = merged.profile.get(phase, 0.0) + seconds
        merged.commutes_pruned += shard.commutes_pruned
        if shard.truncated and not merged.truncated:
            merged.truncated = True
            merged.truncated_reason = shard.truncated_reason
        visited_stored += shard.visited_stats.get("stored", 0)
        visited_bytes += shard.visited_stats.get("approx_bytes", 0)
        for key, value in shard.property_stats.items():
            if isinstance(value, (int, float)):
                merged.property_stats[key] = (
                    merged.property_stats.get(key, 0) + value)
        merged.shard_stats.append({
            "worker": wid,
            "states_explored": shard.states_explored,
            "transitions": shard.transitions,
            "handoffs_sent": payload.get("sent", 0),
            "handoffs_received": payload.get("received", 0),
            "handoff_bytes": payload.get("handoff_bytes", 0),
            "steals": payload.get("steals", 0),
            "stolen_states": payload.get("stolen_states", 0),
            "commutes_pruned": shard.commutes_pruned,
            "visited_stats": dict(shard.visited_stats),
        })
        candidates.extend(shard.counterexamples.values())
    if len(root_fps) > 1:
        raise ShardError(
            "shards disagree on the root fingerprint (%s): state ownership "
            "was inconsistent, results are unsound - the worker start "
            "method must give every shard the same hash seed" % root_fps)
    if len(payloads) == workers and root_owners != 1:
        raise ShardError(
            "%d shards claimed the root state (expected exactly 1): the "
            "partitioner's owner map was inconsistent across shards, "
            "results are unsound" % root_owners)
    merged.visited_stats = {
        "stored": visited_stored,
        "approx_bytes": visited_bytes,
        "bytes_per_state": (round(visited_bytes / visited_stored, 1)
                            if visited_stored else 0.0),
    }
    return merged, candidates


def _rebuild_counterexamples(job, merged, candidates):
    """Replay the canonical violating paths in the parent process.

    Shard-reported counterexamples carry exact labels and dedup keys
    (their skeleton prefixes keep attribution intact), but which shard
    found a given violation first - and through which of several
    equal-length commuting prefixes - is a scheduling race, and their
    handed-off prefixes are attribution skeletons, not full cascade
    logs.  The parent therefore replays each candidate event sequence
    on its own freshly built system, records the violations through
    the engine's canonical-minimum recorder, and then runs the shared
    trace canonicalization (permutation replay), so the rendered
    traces are a function of the state space alone - byte-identical to
    the single-worker run's.

    Returns the replay system (None when there was nothing to replay)
    so callers that render traces need not build yet another one.
    """
    if not candidates:
        return None
    from repro.engine.batch import build_job_context

    system, properties = build_job_context(job)
    engine = ExplorationEngine(system, properties, job.options)
    engine.system.use_compiled = job.options.compiled
    if job.options.engine == "codegen":
        # replay through the same generated executors the shards ran
        # (regenerated from the digest-keyed source cache, not pickled)
        from repro.model.codegen import CodegenPlan

        plan = CodegenPlan(engine.system,
                           cache_dir=job.options.codegen_cache)
        engine.system.executor_factory = plan.executor_factory
    paths = {}
    for candidate in candidates:
        paths.setdefault(tuple(candidate.event_labels()), candidate)
    for labels in sorted(paths, key=lambda L: (len(L), L)):
        replayed = replay_path(engine, labels)
        if replayed is None:
            _fallback_record(merged, paths[labels])
            continue
        node, violations = replayed
        engine._record(merged, node, violations)
    # safety net: a replay must never *lose* a violation a shard proved
    for candidate in candidates:
        if candidate.violation.dedup_key() not in merged.counterexamples:
            _fallback_record(merged, candidate)
    engine._canonicalize_traces(merged)
    return system


def _fallback_record(merged, candidate):
    key = candidate.violation.dedup_key()
    existing = merged.counterexamples.get(key)
    if (existing is None
            or path_order_key(candidate.path) < path_order_key(existing.path)):
        merged.counterexamples[key] = candidate
