"""The replica worker: the one read follower every serving path runs.

A worker bootstraps its store from a
leader ``checkpoint`` file plus the binary tail shipped after it, applies
shipped ``batch`` frames through
:meth:`~repro.store.PropertyGraphStore.apply_replicated_batch` (so its
delta log mirrors the leader's and its read snapshot advances with the
shared incremental patcher), and answers ``request`` frames —
lineage/impact/blame walks, PgSeg, CypherLite — against its own armed
snapshot. A ``requests`` **bundle** frame executes many requests against
one armed snapshot and answers with a single ``responses`` frame, with
per-request error isolation: one bad request becomes one error record,
never poisoning its siblings.

The protocol is strictly leader-driven and processed **in order**: the
pool writes any missing batch frames *before* a stamped request on the
same stream, so by the time the worker reads the request it has already
replayed the span the stamp requires. The worker never initiates
catch-up; it only reports.

**Result caching (footprint retention).** Dashboard workloads re-ask the
same questions at a fixed graph version, so the worker keeps its
answers in the same :class:`~repro.store.delta.ResultCache` the session
uses, keyed by ``(method, canonical-params)``. Each answer is a
:class:`~repro.serve.wire.WireValue`: the value the handler produced
plus, once a socket transport packed it, its canonical JSON text — a
hit over a socket copies that text, over the in-memory link it hands
the value on, and neither encodes anything. Each entry's kind and
footprint come from its handler (``ancestry`` for lineage/blame,
``closure`` for impact, ``segment`` for bare PgSeg answers, ``global``
for bounded or keyed PgSeg answers — a boundary or key may read
properties — and for CypherLite rows). Applying a batch never touches
the cache: the batch lands in the store's delta log, which mirrors the
leader's, and the next request revalidates the cache and every view
once against the whole span since
(:meth:`~repro.store.delta.ResultCache.revalidate`). A (re-)bootstrap
clears everything: it crosses an unknown span, so nothing is provable
(``docs/consistency.md`` §"Worker result cache (footprint retention)").
Budgeted CypherLite queries with a wall-clock timeout are never cached
(their truncation point is nondeterministic).

**Materialized summary views.** A ``summarize`` request (PgSeg queries +
one PgSum query) is answered from a per-request materialized view: the
worker keeps the merged summary *and* its input segments. Bare segment
membership (:attr:`~repro.segment.pgseg.PgSegQuery.is_bare`) is
structure-only, and appends that leave every pre-existing vertex's
out-row alone cannot move it (the ``segment`` rule), so such a span
leaves the cached segments valid —
the view is **patched** by re-merging the summary from them
(properties re-read through the live store) instead of re-deriving the
segments; past a crossover of stale span records (mirroring
:meth:`GraphSnapshot.advance`'s full-rebuild fallback) or after a span
that could move membership the view is recomputed from scratch. A view
over any non-bare query follows the ``global`` rule instead: any
non-empty span drops it, and it is never patched, since a property
write can move its membership. Served/patched/recomputed counters ride
every ``pong``.

Pong frames also carry a monotonic ``generation``: the pool passes its
restart count on the worker command line, so cumulative-since-spawn
counters can be told apart from a crash-restart that silently reset them
(hit-rate math across restarts needs it).

Failure contract:

- a query error is **not** fatal — it returns as an error response with
  the exception type preserved (:func:`repro.serve.wire.error_to_wire`);
- a batch that fails to apply means this follower diverged; the local
  state is untrusted, so the worker sends a ``diverged`` event and exits
  non-zero. The pool restarts it with a fresh bootstrap (never a partial
  replay);
- EOF on the control stream means the leader is gone; the worker exits
  cleanly, so killing the pool never leaks worker processes.

:meth:`ReplicaWorker.handle` is the one frame dispatch, and the pool
spawns a worker one of two ways (``ServeConfig.out_of_process``):

- as a process, ``python -m repro.cli serve-worker --connect host:port``
  (see :func:`repro.cli._cmd_serve_worker`): the worker dials the pool's
  loopback listener, sends its ``hello`` and serves from :meth:`run`,
  the welcome check plus a loop over ``handle``;
- in the pool's own process, behind a
  :class:`~repro.serve.transport.MemoryTransport` that calls ``handle``
  on the sending thread.
"""

from __future__ import annotations

import json
from collections import OrderedDict, deque
from dataclasses import dataclass
from time import perf_counter
from typing import Any

from repro.errors import (
    ModelError,
    SerializationError,
    StoreError,
    TransportClosed,
)
from repro.model.graph import ProvenanceGraph
from repro.obs import MetricAttr, MetricsRegistry, span
from repro.query.cypherlite import run_query
from repro.query.ops import blame as _blame
from repro.query.ops import impacted as _impacted
from repro.query.ops import lineage as _lineage
from repro.segment.pgseg import PgSegOperator, PgSegQuery, Segment
from repro.serve.transport import BinaryTransport
from repro.serve.wire import (
    WIRE_FORMAT_V2,
    WireValue,
    batch_from_wire,
    blame_to_wire,
    budget_from_wire,
    bundle_trace_ids,
    bye_frame,
    checkpoint_from_wire,
    error_to_wire,
    event_frame,
    lineage_to_wire,
    pgseg_query_from_wire,
    pgsum_query_from_wire,
    pong_frame,
    psg_to_wire,
    request_from_wire,
    requests_bundle_from_wire,
    response_to_wire,
    responses_bundle_to_wire,
    rows_to_wire,
    segment_to_wire,
    trace_id_from_wire,
    welcome_wire_format,
)
from repro.store.checkpoint import read_checkpoint
from repro.store.delta import (
    ResultCache,
    SpanEffects,
    entry_survives,
    segment_members_survive,
)
from repro.store.snapshot import GraphSnapshot, default_crossover
from repro.summarize.pgsum import PgSumOperator, PgSumQuery

#: Bound on materialized summary views (views are much heavier than
#: result cache entries: each holds its input segments).
VIEW_LIMIT = 32

#: Bound on the worker's ring of recent traced-request span lists.
TRACE_RING = 32


@dataclass(slots=True)
class _SummaryView:
    """One materialized summary: the merged Psg plus its ingredients.

    ``result`` is valid exactly at ``epoch``; ``horizon`` is the store's
    vertex capacity when the segments were derived. A span that leaves
    a bare view's membership alone (:func:`~repro.store.delta.
    segment_members_survive`) but writes a footprint property stales
    only the merged labels; the view then waits, accumulating
    ``stale_records``, until the next request patches it by re-merging
    from the cached segments — or recomputes from scratch past the
    crossover.
    """

    result: WireValue
    queries: list[PgSegQuery]
    pgsum: PgSumQuery
    segments: list[Segment]
    footprint: frozenset[int]
    horizon: int
    epoch: int
    stale_records: int = 0


class ReplicaWorker:
    """One read replica: its store, caches, views and frame dispatch.

    Every ok answer leaves as a :class:`~repro.serve.wire.WireValue`
    (cache entries and summary views keep theirs), so an answer is
    encoded at most once — by a socket transport's packer, the first
    time it ships — and never over the in-memory link.

    Shipped batches cost O(batch) here whatever the cache holds: the
    cache and views are revalidated against the store's delta log once,
    by the first request after them (:meth:`_revalidate`).
    ``cache_retained`` / ``cache_evicted`` count entries per
    revalidation, not per batch.

    Args:
        transport: the duplex framed channel to the pool (a socket
            transport in a ``serve-worker`` process, the worker end of a
            :class:`~repro.serve.transport.MemoryTransport` in-process).
        worker_id: the pool-assigned identifier (stats/logging only).
        generation: monotonic spawn counter assigned by the pool (0 for
            the first spawn, bumped per restart); echoed in pong stats so
            clients can detect counter resets across crash-restarts.
        registry: the process metrics registry; every counter below is
            stored in it (the public attribute names stay — see
            :class:`repro.obs.MetricAttr`). ``None`` creates a fresh
            :class:`~repro.obs.MetricsRegistry`; the overhead benchmark
            passes a :class:`~repro.obs.NullRegistry`.
    """

    #: Counters mirrored into pong frames for pool health dashboards;
    #: each is backed by the worker's registry under ``worker.<name>``.
    batches_applied = MetricAttr("batches_applied")
    requests_served = MetricAttr("requests_served")
    bundles_served = MetricAttr("bundles_served")
    #: Bootstraps served from a binary checkpoint file.
    checkpoints = MetricAttr("checkpoints")
    #: The result cache counts into the same four registry counters.
    cache_hits = MetricAttr("cache_hits")
    cache_misses = MetricAttr("cache_misses")
    cache_retained = MetricAttr("cache_retained")
    cache_evicted = MetricAttr("cache_evicted")
    views_served = MetricAttr("views_served")
    views_patched = MetricAttr("views_patched")
    views_recomputed = MetricAttr("views_recomputed")
    traces_recorded = MetricAttr("traces_recorded")

    def __init__(self, transport, worker_id: int = 0, generation: int = 0,
                 registry=None, shard: int | None = None):
        self._obs_registry = registry if registry is not None \
            else MetricsRegistry()
        self._obs_prefix = "worker" if shard is None else f"shard{shard}.worker"
        self._transport = transport
        self.worker_id = worker_id
        #: Shard index when spawned by a sharded pool (``--shard``);
        #: echoed in pong stats — additive, absent unsharded.
        self.shard = shard
        self.generation = int(generation)
        self.store = None
        self.graph: ProvenanceGraph | None = None
        self._snapshot: GraphSnapshot | None = None
        self._operator: PgSegOperator | None = None
        #: Answers keyed (method, canonical params).
        self.result_cache = ResultCache(self._obs_registry, self._obs_prefix)
        #: Materialized summary views keyed by canonical summarize params;
        #: valid at ``result_cache.epoch``.
        self._views: OrderedDict[str, _SummaryView] = OrderedDict()
        #: Span lists of recently traced requests. Only a frame carrying
        #: a ``trace_id`` ever touches this — untraced traffic leaves
        #: zero trace state behind.
        self._trace_ring: deque[dict[str, Any]] = deque(maxlen=TRACE_RING)
        self._compute_hist = self._obs_registry.histogram("worker.compute_s")

    # ------------------------------------------------------------------
    # Serve loop
    # ------------------------------------------------------------------

    def run(self) -> int:
        """A ``serve-worker`` process's loop: :meth:`handle` every frame
        until shutdown, divergence or EOF; returns the exit code.

        The pool answers the ``hello`` with a ``welcome`` naming
        ``repro-wire-v2`` — the last line-framed frame; everything after
        it is length-prefixed binary framing on the same fds. Any other
        first frame is a peer this worker cannot serve: it exits non-zero
        and the pool's restart path takes over.
        """
        try:
            if welcome_wire_format(self._transport.recv()) != WIRE_FORMAT_V2:
                return 1
        except TransportClosed:
            return 0
        except SerializationError:
            return 1
        self._transport = BinaryTransport.adopt(self._transport)
        while True:
            try:
                frame = self._transport.recv()
            except TransportClosed:
                # Leader gone: exit quietly, never outlive the pool.
                return 0
            if not self.handle(frame):
                return 0 if frame.get("kind") == "shutdown" else 1

    def handle(self, frame: dict[str, Any]) -> bool:
        """Process one frame; ``False`` means exit (diverged or shutdown)."""
        kind = frame.get("kind")
        if kind == "checkpoint":
            self._bootstrap_checkpoint(frame)
        elif kind == "batch":
            return self._apply(frame)
        elif kind == "request":
            self._answer(frame)
        elif kind == "requests":
            self._answer_bundle(frame)
        elif kind == "ping":
            self._transport.send(pong_frame(self.epoch, self.stats()))
        elif kind == "shutdown":
            self._transport.send(bye_frame())
            return False
        else:
            # Unknown frames are a protocol bug on a private channel;
            # report and keep serving (forward compatibility).
            self._transport.send(event_frame("unknown-frame", str(kind)))
        return True

    @property
    def epoch(self) -> int:
        """The epoch this worker has replayed up to (-1 before bootstrap)."""
        return -1 if self.store is None else self.store.epoch

    def stats(self) -> dict[str, Any]:
        """Counters for pong frames.

        All counters are cumulative since *this* spawn; ``generation``
        tells clients which spawn they are looking at, so rate math can
        detect the silent reset a crash-restart causes.
        """
        stats: dict[str, Any] = {
            "worker_id": self.worker_id,
            "generation": self.generation,
            "batches_applied": self.batches_applied,
            "requests_served": self.requests_served,
            "bundles_served": self.bundles_served,
            "checkpoints": self.checkpoints,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_retained": self.cache_retained,
            "cache_evicted": self.cache_evicted,
            "cache_size": len(self.result_cache),
            "views_served": self.views_served,
            "views_patched": self.views_patched,
            "views_recomputed": self.views_recomputed,
            "view_count": len(self._views),
        }
        if self.shard is not None:
            stats["shard"] = self.shard
        return stats

    def close(self) -> None:
        """Close the control stream — the *current* one.

        The welcome swaps ``self._transport`` for an adopted binary
        framer over the same fds (the original is neutered so its
        close is a no-op); callers holding the original transport must
        close through here or the fds leak.
        """
        self._transport.close()

    # ------------------------------------------------------------------
    # Replication inputs
    # ------------------------------------------------------------------

    def _bootstrap_checkpoint(self, frame: dict[str, Any]) -> None:
        """(Re-)build local state from a leader checkpoint file.

        The frame names a file on shared local storage instead of
        carrying the store itself. Success is acked with a pong at the
        checkpoint's epoch — the pool ships the delta-log tail only
        after that ack. Any failure to load (file gone, corrupt, wrong
        format) is reported as a ``checkpoint-failed`` event with local
        state untouched-or-None; the pool then captures a fresh
        checkpoint once (:meth:`~repro.serve.replication.ReplicationLog.
        bootstrap`).

        A bootstrap crosses an *unknown* span (truncation, restart), so
        no footprint argument applies: the result cache and every
        materialized view are cleared unconditionally — the conservative
        fallback both delta-driven caches share with the snapshot layer.
        """
        path, _epoch, _generation = checkpoint_from_wire(frame)
        try:
            store = read_checkpoint(path)
        except Exception as exc:   # noqa: BLE001 - any load failure just
            # means "capture again"; the pool decides, not us.
            self._transport.send(event_frame("checkpoint-failed", str(exc)))
            return
        self.store = store
        self.graph = ProvenanceGraph(store)
        self._snapshot = GraphSnapshot(self.graph)
        self._operator = PgSegOperator(self.graph, snapshot=self._snapshot)
        self.result_cache.clear(store.epoch)
        self._views.clear()
        self.checkpoints += 1
        self._transport.send(pong_frame(self.epoch))

    def _apply(self, frame: dict[str, Any]) -> bool:
        """Apply one shipped batch, O(batch); False means diverged
        (worker exits). The cache reads the batch back from the delta
        log on the next request."""
        if self.store is None:
            self._transport.send(event_frame(
                "diverged", "batch before bootstrap"))
            return False
        batch, payloads = batch_from_wire(frame)
        try:
            self.store.apply_replicated_batch(batch, payloads)
        except (ValueError, StoreError, ModelError) as exc:
            # Possibly mid-batch with earlier deltas applied: the local
            # state is untrusted. Report, exit, let the pool re-sync us.
            self._transport.send(event_frame("diverged", str(exc)))
            return False
        self.batches_applied += 1
        return True

    def _revalidate(self) -> None:
        """Bring the cache and views to the replayed epoch, once per read.

        :meth:`~repro.store.delta.ResultCache.revalidate` keeps every
        entry the span since the last read provably missed; the views
        follow the span it folded, or are all dropped when the span
        fell out of the delta log.
        """
        if self.result_cache.epoch == self.store.epoch:
            return
        span = self.result_cache.revalidate(self.store,
                                            fold=bool(self._views))
        if span is None:
            self._views.clear()
        elif self._views:
            self._revalidate_views(*span)

    def _revalidate_views(self, effects: SpanEffects,
                          record_count: int) -> None:
        """Advance/stale/drop each materialized view for one span.

        - membership may have moved (an old vertex's out-row changed, or
          a footprint activity adopted an entity — the ``segment``
          rule; for a view over a non-bare query, any non-empty span —
          the ``global`` rule): the view is dropped and the next request
          recomputes it from scratch;
        - otherwise, footprint-disjoint from the property writes: nothing
          the summary reads changed; the view stays current at the new
          epoch for free;
        - otherwise: segment *membership* is still exact (bare
          queries read no properties) but merged labels are stale; the
          view keeps its segments and waits for the next request to
          re-merge (lazy patching — no work for views nobody re-asks
          for).
        """
        epoch = self.store.epoch
        for key, view in list(self._views.items()):
            bare = all(query.is_bare for query in view.queries)
            if not (segment_members_survive(view.footprint, effects,
                                            view.horizon) if bare
                    else entry_survives("global", view.footprint, effects)):
                del self._views[key]
            elif view.stale_records == 0 \
                    and view.footprint.isdisjoint(effects.prop_subjects):
                view.epoch = epoch
            else:
                view.stale_records += record_count

    # ------------------------------------------------------------------
    # Request serving
    # ------------------------------------------------------------------

    def _armed_snapshot(self) -> GraphSnapshot:
        """The memoized read snapshot, advanced to the replayed epoch."""
        if self._snapshot.epoch != self.store.epoch:
            self._snapshot = self._snapshot.advance(self.store)
            self._operator.snapshot = self._snapshot
        return self._snapshot

    def _answer(self, frame: dict[str, Any]) -> None:
        self._transport.send(
            self._response_for(*request_from_wire(frame),
                               trace_id=trace_id_from_wire(frame)))

    def _answer_bundle(self, frame: dict[str, Any]) -> None:
        """Serve a requests bundle: one armed snapshot, one answer frame.

        Error isolation is per request — a failing request contributes an
        error record while its siblings are still served — and the
        responses ride one ``responses`` frame in request order, all at
        the same epoch (no batch can apply between two requests of one
        bundle: frames are processed strictly in order).
        """
        calls = requests_bundle_from_wire(frame)
        trace_ids = bundle_trace_ids(frame)
        responses = [self._response_for(request_id, method, params,
                                        trace_id=trace_ids.get(request_id))
                     for request_id, method, params in calls]
        self.bundles_served += 1
        # The read path's highest-volume frame: a socket transport packs
        # it with the binary responses codec, copying each answer's text;
        # the in-memory link hands the dict, values and all, over.
        self._transport.send(responses_bundle_to_wire(self.epoch, responses))

    def metrics(self) -> dict[str, Any]:
        """The ``metrics`` wire method: registry snapshot + recent traces.

        ``traces`` holds the span lists of recently traced requests (the
        worker-side halves; the client splices them into full traces).
        Served outside the result cache — a snapshot is never a pure
        function of the epoch.
        """
        registry = self._obs_registry
        registry.gauge("worker.epoch").set(self.epoch)
        registry.gauge("worker.cache_size").set(len(self.result_cache))
        registry.gauge("worker.view_count").set(len(self._views))
        return {"metrics": registry.snapshot(),
                "traces": list(self._trace_ring)}

    def _response_for(self, request_id: int, method: str,
                      params: dict[str, Any],
                      trace_id: str | None = None) -> dict[str, Any]:
        """One request's response frame (never raises on query errors)."""
        self.requests_served += 1
        if method == "metrics":
            # Pre-bootstrap snapshots are legal: health tooling must be
            # able to inspect a worker that never finished syncing.
            return response_to_wire(request_id, self.epoch,
                                    result=WireValue(self.metrics()))
        hits0, views0 = self.cache_hits, self.views_served
        patched0 = self.views_patched
        started = perf_counter()
        try:
            if self.store is None:
                raise SerializationError("request before bootstrap")
            result = self._serve_cached(method, params)
        except Exception as exc:   # noqa: BLE001 - query errors must not
            # kill the worker; the type crosses back in the error record.
            elapsed = perf_counter() - started
            self._compute_hist.observe(elapsed)
            trace = self._trace(trace_id, method, elapsed, "error")
            return response_to_wire(
                request_id, self.epoch, error=error_to_wire(exc),
                trace=trace)
        elapsed = perf_counter() - started
        self._compute_hist.observe(elapsed)
        if method == "summarize":
            outcome = ("view-hit" if self.views_served > views0 else
                       "view-patch" if self.views_patched > patched0 else
                       "view-recompute")
        else:
            outcome = "hit" if self.cache_hits > hits0 else "miss"
        trace = self._trace(trace_id, method, elapsed, outcome)
        return response_to_wire(request_id, self.epoch, result=result,
                                trace=trace)

    def _trace(self, trace_id: str | None, method: str, elapsed: float,
               cache_outcome: str) -> "list[dict[str, Any]] | None":
        """The worker's span list for a traced request (None = untraced)."""
        if trace_id is None:
            return None
        spans = [span("worker", "compute", elapsed, method=method,
                      cache=cache_outcome, worker_id=self.worker_id,
                      epoch=self.epoch)]
        self._trace_ring.append({"trace_id": trace_id, "spans": spans})
        self.traces_recorded += 1
        return spans

    # ------------------------------------------------------------------
    # Result cache
    # ------------------------------------------------------------------

    @staticmethod
    def _cacheable(method: str, params: dict[str, Any]) -> bool:
        """Whether a request's result is a pure function of the epoch.

        A budgeted CypherLite query with a wall-clock timeout can be
        truncated at a nondeterministic row, so its result must not be
        replayed from cache.
        """
        if method == "cypher":
            budget = params.get("budget")
            if isinstance(budget, dict) \
                    and budget.get("timeout_seconds") is not None:
                return False
        return True

    def _serve_cached(self, method: str,
                      params: dict[str, Any]) -> WireValue:
        """Serve one request through the footprint-retaining result cache.

        A hit returns the cached :class:`~repro.serve.wire.WireValue`
        itself, so its text is encoded at most once, by whichever packer
        needs it first.
        """
        self._revalidate()
        if method == "summarize":
            return self._serve_summarize(params)
        if not self._cacheable(method, params):
            return WireValue(getattr(self, f"_serve_{method}")(params)[0])
        key = (method, json.dumps(params, sort_keys=True))
        answer = self.result_cache.get(key)
        if answer is None:
            horizon = self.store.vertex_capacity
            result, kind, footprint = getattr(
                self, f"_serve_{method}")(params)
            answer = WireValue(result)
            self.result_cache.put(key, answer, kind, footprint, horizon)
        return answer

    def _serve_summarize(self, params: dict[str, Any]) -> WireValue:
        """Serve one summary through the materialized-view layer.

        View states (see :meth:`_revalidate_views` for how spans move
        views between them):

        - **current** (``epoch`` matches): served as-is;
        - **stale** (property drift on a bare view's footprint): patched by
          re-merging the summary from the cached segments — membership is
          still exact, and the merge re-reads properties through the live
          store — unless the pending span outgrew the crossover
          (:func:`repro.store.snapshot.default_crossover`, the same
          economics as :meth:`GraphSnapshot.advance`), in which case the
          segments are re-derived too;
        - **absent** (first ask, or dropped by a span that could move its
          membership / re-sync): full recompute.
        """
        key = json.dumps(params, sort_keys=True)
        view = self._views.get(key)
        if view is not None:
            self._views.move_to_end(key)
            if view.epoch == self.epoch:
                self.views_served += 1
                return view.result
            if view.stale_records <= default_crossover(self.store):
                # Patch: segments are structurally exact; only merged
                # labels drifted. Re-merge against live properties.
                psg = PgSumOperator(view.segments).evaluate(view.pgsum)
                view.result = WireValue(psg_to_wire(psg))
                view.epoch = self.epoch
                view.stale_records = 0
                self.views_patched += 1
                return view.result
            self._views.pop(key)        # past crossover: start over
        horizon = self.store.vertex_capacity
        result, queries, pgsum, segments = self._compute_summary(params)
        self._views[key] = _SummaryView(
            result=result,
            queries=queries,
            pgsum=pgsum,
            segments=segments,
            footprint=frozenset(
                vertex for segment in segments
                for vertex in segment.vertices),
            horizon=horizon,
            epoch=self.epoch,
        )
        self.views_recomputed += 1
        if len(self._views) > VIEW_LIMIT:
            self._views.popitem(last=False)
        return result

    def _compute_summary(self, params: dict[str, Any],
                         ) -> tuple[WireValue, list[PgSegQuery],
                                    PgSumQuery, list[Segment]]:
        """Evaluate one summarize request from scratch."""
        queries = [pgseg_query_from_wire(record, self.graph)
                   for record in params["queries"]]
        pgsum = pgsum_query_from_wire(params["pgsum"])
        self._armed_snapshot()          # arm the operator fast path
        segments = [self._operator.evaluate(query) for query in queries]
        psg = PgSumOperator(segments).evaluate(pgsum)
        return WireValue(psg_to_wire(psg)), queries, pgsum, segments

    # ------------------------------------------------------------------
    # Method handlers — each returns (wire result, kind, footprint), the
    # classification the result cache's retention needs (kind/footprint
    # are ignored on the uncached path). A walk's own vertex set becomes
    # the footprint: the walk result is dropped once encoded, so the
    # cache is that set's only owner and no copy is needed.
    # ------------------------------------------------------------------

    def _serve_lineage(self, params: dict[str, Any],
                       ) -> tuple[dict[str, Any], str, set[int]]:
        result = _lineage(
            self.graph, int(params["entity"]),
            max_depth=params.get("max_depth"),
            snapshot=self._armed_snapshot())
        return lineage_to_wire(result), "ancestry", result.vertices

    def _serve_impacted(self, params: dict[str, Any],
                        ) -> tuple[dict[str, Any], str, set[int]]:
        result = _impacted(
            self.graph, int(params["entity"]),
            max_depth=params.get("max_depth"),
            snapshot=self._armed_snapshot())
        return lineage_to_wire(result), "closure", result.vertices

    def _serve_blame(self, params: dict[str, Any],
                     ) -> tuple[dict[str, Any], str, set[int]]:
        # Walk the ancestry once, hand it to blame, and footprint the
        # *whole* closure (the entity included) plus the owning agents —
        # a new attribution to any ancestor changes the report (same deps
        # the session uses).
        entity = int(params["entity"])
        snapshot = self._armed_snapshot()
        ancestry = _lineage(self.graph, entity, snapshot=snapshot)
        report = _blame(self.graph, entity, snapshot=snapshot,
                        ancestry=ancestry)
        footprint = ancestry.vertices
        footprint.update(report)
        return blame_to_wire(report), "ancestry", footprint

    def _serve_segment(self, params: dict[str, Any],
                       ) -> tuple[dict[str, Any], str, frozenset[int]]:
        query = pgseg_query_from_wire(params["query"], self.graph)
        self._armed_snapshot()          # arm the operator fast path
        segment = self._operator.evaluate(query)
        return (segment_to_wire(segment),
                "segment" if query.is_bare else "global",
                frozenset(segment.vertices))

    def _serve_cypher(self, params: dict[str, Any],
                      ) -> tuple[list[dict[str, Any]], str, frozenset[int]]:
        budget = budget_from_wire(params.get("budget"))
        rows = run_query(self.graph, str(params["text"]), budget,
                         snapshot=self._armed_snapshot())
        # CypherLite may scan any slice of the graph: no footprint bounds
        # it, so the "global" kind evicts on any non-empty span.
        return rows_to_wire(rows), "global", frozenset()
