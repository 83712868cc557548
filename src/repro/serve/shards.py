"""ShardedCluster: segment-partitioned serving with scatter-gather reads.

`ProvCluster` scales *reads* by replication; every byte of every batch
still ships to every worker, so ingest fan-out is the wall the ROADMAP
predicted. This module partitions the serving tier into ``shards`` —
each shard a full :class:`~repro.serve.cluster.ProvCluster` (its own
replication feed, replica set / worker pool, router) — behind one
coordinator that owns the leader store and splits its delta stream.

**Replication rule: structure broadcast, properties partitioned.** Every
leader batch is split by :func:`repro.store.sharding.split_batch`:
structural deltas (vertex/edge add/remove) go to *every* shard's feed,
so each shard store keeps the leader's dense vertex *and* edge id spaces
and exact topology; property writes ship only to the subject's owner
shard (:class:`~repro.store.sharding.ShardMap`). The ingest win is that
each shard's worker fleet receives only its shard of the property
stream — on property-heavy workloads (the common case: lifecycle
ingestion is mostly annotation) the per-worker wire volume drops by
``~1/shards`` (`benchmarks/bench_replication.py --sharded` gates it).

**Why cross-shard reads stay bit-identical.** Bare PgSeg membership
(`PgSegQuery.is_bare`: no boundaries, no keys) and the lineage/impact/
blame walks are structure-only, and structure is fully replicated —
*any* shard answers them identically to a single-store recompute.
Queries that may read properties (CypherLite, bounded or keyed
segmentation) are always served coordinator-local against the leader
graph — a data-placement rule: a shard holds only the properties it
owns — and scatter-gathered
segments are re-bound to the leader graph before PgSum merges them, so
property reads are leader-exact by construction. A shard store's stale
properties for non-owned vertices are therefore unobservable.
``tests/test_sharded_differential.py`` pins all of this with 200+
random interleavings (including kill-mid-scatter and per-shard lag
skew); the merge rules live in ``docs/architecture.md`` §"Sharding".

**Epoch vector.** A shard whose split of a batch is empty receives no
batch at all, so per-shard feed epochs advance independently —
:attr:`ShardedCluster.shard_epochs` is the per-shard vector (additive
``shard_epochs`` welcome-frame field). Externally, consistency stamps
stay on the *leader* timeline: a strict read (``min_epoch=None`` or any
``0 < m <= leader_epoch``) drains the leader log into every feed first
(read-your-writes across shards); ``min_epoch=0`` skips the drain and
serves each shard at whatever epoch it has; a stamp ahead of the leader
raises exactly like the unsharded router (``docs/consistency.md``).
"""

from __future__ import annotations

import threading
from typing import Any, Iterable

from repro.errors import ConfigError
from repro.model.graph import ProvenanceGraph
from repro.obs import ObsContext
from repro.query.cypherlite import Budget, run_query
from repro.query.ops import Lineage
from repro.segment.pgseg import PgSegOperator, PgSegQuery, Segment
from repro.serve.api import ServeConfig, normalize_specs
from repro.serve.cluster import ProvCluster
from repro.store.checkpoint import CheckpointManager, read_checkpoint
from repro.store.delta import DeltaBatch
from repro.store.sharding import ShardMap, delta_payload, split_batch
from repro.summarize.pgsum import PgSumOperator, PgSumQuery
from repro.summarize.psg import Psg

__all__ = ["ShardedCluster"]


class _ShardFeed:
    """Coordinator-side follower store for one shard.

    Bootstrapped from a full leader snapshot (ids, ordinals, epoch
    exact), then fed re-stamped sub-batches on its *own* timeline: each
    applied batch is stamped ``feed.epoch + 1``, so the feed's delta log
    stays contiguous and the shard's :class:`ProvCluster` replicates
    from it with the ordinary machinery, completely unaware it serves a
    shard.
    """

    def __init__(self, shard: int, store):
        self.shard = shard
        self.store = store
        self.graph = ProvenanceGraph(self.store)

    @property
    def epoch(self) -> int:
        return self.store.epoch

    def apply(self, deltas: list, leader_store) -> None:
        """Apply one split sub-batch, payloads read from the leader.

        Payload enrichment mirrors the wire path's ship-time reads
        (:func:`repro.store.sharding.delta_payload`): drain-time state is
        the final state of the drained span, so replaying the span
        converges the feed store exactly.
        """
        payloads = [delta_payload(delta, leader_store) for delta in deltas]
        batch = DeltaBatch(epoch=self.store.epoch + 1, deltas=tuple(deltas))
        self.store.apply_replicated_batch(batch, payloads)


class ShardedCluster:
    """Scatter-gather coordinator over per-shard :class:`ProvCluster`\\ s.

    Drop-in for :class:`ProvCluster` on the full query surface
    (``lineage`` / ``impacted`` / ``blame`` / ``segment`` / ``summarize``
    / ``cypher`` / ``query_many`` plus ``stats`` / ``metrics`` /
    ``refresh`` / ``health_check`` / ``close``) — ``ServeConfig(shards=N)``
    through ``session.serve()`` or the CLI is the one-flag switch, and
    the async front-end binds to either unchanged.

    Args:
        source: the leader — a :class:`ProvenanceGraph`, a bare store,
            or anything exposing ``.store``. Stays the sole writer.
        config: the serving configuration; ``config.shards`` clusters of
            ``config.replicas`` replicas each are bootstrapped (every
            other knob except the front-end applies per shard).
        shard_map: an explicit vertex->shard assignment; defaults to a
            hash-mode :class:`~repro.store.sharding.ShardMap` over
            ``config.shards``. Must agree with ``config.shards``.
    """

    def __init__(self, source, config: ServeConfig | None = None,
                 shard_map: ShardMap | None = None):
        config = ServeConfig.of(config)
        self.config = config
        self.obs = ObsContext.of(config)
        store = getattr(source, "store", source)
        self.graph = source if isinstance(source, ProvenanceGraph) \
            else ProvenanceGraph(store)
        self.store = store
        self.shard_map = shard_map if shard_map is not None \
            else ShardMap(config.shards)
        if self.shard_map.shards != config.shards:
            raise ConfigError(
                f"shard_map covers {self.shard_map.shards} shards but "
                f"config.shards is {config.shards}")
        #: Full feed re-bootstraps forced by leader delta-log truncation
        #: (the drain cursor fell off the retained window).
        self.resyncs = 0
        self.feeds: list[_ShardFeed] = []
        self.shards: list[ProvCluster] = []
        self._drained = 0
        self._closed = False
        self._bootstrap_shards()
        self.frontend = None
        if config.frontend:
            from repro.serve.frontend import AsyncFrontend

            try:
                self.frontend = AsyncFrontend(self, config=config)
                self.frontend.start()
            except BaseException:
                self.close()
                raise

    # ------------------------------------------------------------------
    # Feeds: bootstrap + drain
    # ------------------------------------------------------------------

    def _bootstrap_shards(self) -> None:
        """(Re-)build every feed and shard cluster from one leader snapshot.

        The leader store is checkpointed once and every feed store reads
        it back — one O(graph) encode regardless of shard count. The file
        is bootstrap-scratch, deleted before any shard serves; per-shard
        replicas and workers bootstrap from each shard log's own
        checkpoint through the ordinary replication machinery.
        """
        with CheckpointManager() as manager:
            path = manager.capture(self.store).path
            feeds = [_ShardFeed(k, read_checkpoint(path))
                     for k in range(self.config.shards)]
        shard_config = self.config.with_(shards=1, frontend=False)
        shards: list[ProvCluster] = []
        try:
            for k, feed in enumerate(feeds):
                shards.append(ProvCluster(feed.graph, config=shard_config,
                                          obs=self.obs, shard=k))
        except BaseException:
            for cluster in shards:
                cluster.close()
            raise
        self.feeds = feeds
        self.shards = shards
        self._drained = self.store.epoch

    def _teardown_shards(self) -> None:
        shards, self.shards = self.shards, []
        self.feeds = []
        for cluster in shards:
            try:
                cluster.close()
            except Exception:   # pragma: no cover - best-effort teardown
                pass

    def _order_of(self, vertex_id: int) -> int:
        return self.store.order_of(vertex_id)

    def _drain(self) -> None:
        """Split and feed every leader batch committed since last drain.

        Runs on every strict read (read-your-writes across shards needs
        the feeds at the leader's state before any shard serves). A
        drain cursor that fell off the leader log's retained window
        degrades to a full re-bootstrap of every feed *and* every shard
        cluster — the same never-serve-stale fallback the unsharded
        replica path takes, counted in :attr:`resyncs`.
        """
        epoch = self.store.epoch
        if epoch == self._drained:
            return
        span = self.store.delta_log.batches_since(self._drained)
        if span is None:
            self.resyncs += 1
            self._teardown_shards()
            self._bootstrap_shards()
            return
        order_of = self._order_of if self.shard_map.mode == "range" else None
        for batch in span:
            parts = split_batch(batch, self.shard_map, order_of)
            for feed, deltas in zip(self.feeds, parts):
                if deltas:
                    feed.apply(deltas, self.store)
        self._drained = epoch

    def _resolve(self, min_epoch: int | None) -> int | None:
        """Map a leader-timeline stamp to the per-shard stamp policy.

        Strict (``None`` or ``0 < m <= leader_epoch``) drains first and
        returns ``None`` — each shard cluster then serves strictly at
        its own (just-drained) feed epoch, which *is* the leader state.
        ``0`` skips the drain and returns ``0`` (bounded staleness on
        every shard). A stamp ahead of the leader raises exactly like
        :meth:`QueryRouter.route <repro.serve.cluster.QueryRouter.route>`.
        """
        if min_epoch is not None and min_epoch > self.store.epoch:
            raise ValueError(
                f"consistency stamp {min_epoch} is ahead of the leader "
                f"(epoch {self.store.epoch}); cannot serve a strong read")
        if min_epoch == 0:
            return 0
        self._drain()
        return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def leader_epoch(self) -> int:
        """The leader's current mutation epoch (the external timeline)."""
        return self.store.epoch

    @property
    def shard_epochs(self) -> list[int]:
        """Per-shard feed epochs, indexed by shard (the epoch vector).

        Reported as currently fed (no drain): entries advance only when
        a drained batch actually touched the shard, so under skewed
        writes the vector diverges — that divergence is the point.
        """
        return [feed.epoch for feed in self.feeds]

    # ------------------------------------------------------------------
    # Routing helpers
    # ------------------------------------------------------------------

    def _owner(self, vertex_id: int) -> int:
        """The owner shard of a vertex, for single-shard routing.

        Structure is fully replicated, so owner routing is a locality
        heuristic, never a correctness requirement — a vertex whose
        ordinal cannot be resolved (range mode, subject gone) routes to
        shard 0 and is answered identically there.
        """
        try:
            order = self._order_of(vertex_id) \
                if self.shard_map.mode == "range" else None
            return self.shard_map.shard_of(vertex_id, order=order)
        except Exception:   # noqa: BLE001 - any shard answers identically
            return 0

    def _segment_home(self, query: PgSegQuery) -> int:
        src = tuple(query.src or ())
        return self._owner(src[0]) if src else 0

    def _rebind(self, segment: Segment) -> Segment:
        """Re-anchor a shard-served segment onto the leader graph.

        Membership (vertices / edge ids / categories) is graph-state
        independent once computed; re-binding makes every later property
        read (``segment.edges()``, PgSum label aggregation) leader-exact
        instead of reading the shard store's stale non-owned properties.
        """
        return Segment(self.graph, segment.vertices, segment.edge_ids,
                       segment.categories, segment.query)

    # ------------------------------------------------------------------
    # Query surface (ProvCluster-compatible)
    # ------------------------------------------------------------------

    def lineage(self, entity: int, max_depth: int | None = None,
                min_epoch: int | None = None) -> Lineage:
        """Ancestry walk, served by the entity's owner shard."""
        stamp = self._resolve(min_epoch)
        return self.shards[self._owner(entity)].lineage(
            entity, max_depth=max_depth, min_epoch=stamp)

    def impacted(self, entity: int, max_depth: int | None = None,
                 min_epoch: int | None = None) -> Lineage:
        """Impact walk, served by the entity's owner shard."""
        stamp = self._resolve(min_epoch)
        return self.shards[self._owner(entity)].impacted(
            entity, max_depth=max_depth, min_epoch=stamp)

    def blame(self, entity: int,
              min_epoch: int | None = None) -> dict[int, set[int]]:
        """Blame report, served by the entity's owner shard."""
        stamp = self._resolve(min_epoch)
        return self.shards[self._owner(entity)].blame(
            entity, min_epoch=stamp)

    def segment(self, query: PgSegQuery,
                min_epoch: int | None = None) -> Segment:
        """PgSeg, shard-served when bare, else coordinator-local.

        Bare queries (no boundaries, no keys) have structure-only
        membership: the source-anchor's owner shard serves them and the
        result is re-bound to the leader graph. Queries that may read
        properties evaluate coordinator-local on the leader — one graph,
        leader-exact properties.
        """
        stamp = self._resolve(min_epoch)
        if not query.is_bare:
            return PgSegOperator(self.graph).evaluate(query)
        segment = self.shards[self._segment_home(query)].segment(
            query, min_epoch=stamp)
        return self._rebind(segment)

    def summarize(self, queries: Iterable[PgSegQuery],
                  pgsum: PgSumQuery | None = None,
                  min_epoch: int | None = None) -> Psg:
        """PgSum via scatter-gather: per-shard segments, one merge.

        Strict summaries drain first, so every shard serves the same
        leader state — segment specs scatter to their owner shards
        (each shard's share as one ``query_many`` bundle), the partial
        segments re-bind to the leader graph, and one
        :class:`~repro.summarize.pgsum.PgSumOperator` merges them at
        the coordinator. That keeps the single-graph-state coherence
        rule :meth:`ProvCluster.summarize` enforces: membership comes
        from the drained (= leader) state, labels from the leader.

        A summary containing any non-bare query, or served under a
        relaxed ``min_epoch=0`` stamp (shards may sit at *different*
        epochs — merging them would mix states that never coexisted),
        is evaluated wholly coordinator-local instead.
        """
        stamp = self._resolve(min_epoch)
        queries = list(queries)
        pgsum = pgsum if pgsum is not None else PgSumQuery()
        if stamp == 0 \
                or not all(q.is_bare for q in queries):
            operator = PgSegOperator(self.graph)
            segments = [operator.evaluate(query) for query in queries]
            return PgSumOperator(segments).evaluate(pgsum)
        # Scatter through query_many: every query is bare here, so
        # each routes to its owner shard, the per-shard bundles go down
        # concurrently (see _scatter), and the gathered segments come
        # back already re-bound to the leader graph.
        values = self.query_many(
            [("segment", {"query": query}) for query in queries],
            min_epoch=min_epoch)
        segments: list[Segment] = []
        for value in values:
            if isinstance(value, BaseException):
                raise value
            segments.append(value)
        return PgSumOperator(segments).evaluate(pgsum)

    def cypher(self, text: str, budget: Budget | None = None,
               min_epoch: int | None = None) -> list:
        """CypherLite, always coordinator-local (property reads)."""
        self._resolve(min_epoch)
        return run_query(self.graph, text, budget)

    # ------------------------------------------------------------------
    # Batched fan-out
    # ------------------------------------------------------------------

    def query_many(self, specs, min_epoch: int | None = None,
                   raw: bool = False,
                   trace_ids: "list[str | None] | None" = None,
                   ) -> list[Any]:
        """Serve a batch across shards; results index-aligned with specs.

        Each spec routes like its single-query method: walks to the
        entity's owner shard, bare segments to the source anchor's
        owner, everything property-reading coordinator-local. Every
        shard's share goes down as one :meth:`ProvCluster.query_many`
        bundle (striding, pipelining, and mid-bundle crash re-routing
        all apply per shard). Per-spec isolation is preserved: a failing
        spec contributes its exception instance at its index.

        ``raw=True`` passes through to the shard pools; shard-served
        segments are only re-bound to the leader graph when they arrive
        decoded (wire forms are graph-independent, so raw splice is
        unaffected). Coordinator-local entries stay domain objects, as
        on the unsharded path.
        """
        stamp = self._resolve(min_epoch)
        normalized = normalize_specs(specs)
        if not normalized:
            return []
        if trace_ids is None:
            trace_ids = [None] * len(normalized)
        results: list[Any] = [None] * len(normalized)
        groups: dict[int, list[int]] = {}
        local: list[int] = []
        for index, spec in enumerate(normalized):
            home = self._spec_home(spec)
            if home is None:
                local.append(index)
            else:
                groups.setdefault(home, []).append(index)
        for shard, values in self._scatter(groups, normalized, stamp,
                                           raw, trace_ids):
            if isinstance(values, BaseException):
                raise values
            for index, value in zip(groups[shard], values):
                if isinstance(value, Segment):
                    value = self._rebind(value)
                results[index] = value
        for index in local:
            try:
                results[index] = self._serve_local(normalized[index])
            except Exception as exc:   # noqa: BLE001 - per-spec isolation
                results[index] = exc
        return results

    def _scatter(self, groups: dict[int, list[int]], normalized: list,
                 stamp: int | None, raw: bool,
                 trace_ids: list) -> list[tuple[int, Any]]:
        """Dispatch every shard's bundle; gather ``(shard, values)`` pairs.

        Shard clusters are fully independent (own pool, own sockets), so
        with out-of-process workers each bundle goes down on its own
        thread — the shards execute concurrently and the gather's wall
        time is the *slowest* shard, not the sum. A whole-bundle failure
        surfaces as the exception instance in that shard's slot (the
        caller re-raises); shards with in-process workers serve inline,
        where a thread would only add GIL ping-pong to pure-Python compute.
        """
        def dispatch(shard: int, indices: list[int]) -> Any:
            try:
                return self.shards[shard].query_many(
                    [normalized[i] for i in indices], min_epoch=stamp,
                    raw=raw, trace_ids=[trace_ids[i] for i in indices])
            except BaseException as exc:   # noqa: BLE001 - re-raised by caller
                return exc

        items = list(groups.items())
        if len(items) <= 1 or not self.config.out_of_process:
            return [(shard, dispatch(shard, indices))
                    for shard, indices in items]
        gathered: dict[int, Any] = {}

        def run(shard: int, indices: list[int]) -> None:
            gathered[shard] = dispatch(shard, indices)

        threads = [threading.Thread(target=run, args=item,
                                    name=f"scatter-shard{item[0]}")
                   for item in items]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [(shard, gathered[shard]) for shard, _ in items]

    def _spec_home(self, spec) -> int | None:
        """The shard serving one spec, or ``None`` for coordinator-local."""
        method, params = spec.as_tuple()
        if method in ("lineage", "impacted", "blame"):
            return self._owner(params["entity"])
        if method == "segment":
            query = params["query"]
            return self._segment_home(query) if query.is_bare else None
        return None    # cypher: property reads stay on the leader

    def _serve_local(self, spec) -> Any:
        method, params = spec.as_tuple()
        if method == "segment":
            return PgSegOperator(self.graph).evaluate(params["query"])
        if method == "cypher":
            return run_query(self.graph, params["text"],
                             params.get("budget"))
        raise ValueError(
            f"method {method!r} has no coordinator-local path")

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def refresh(self) -> int:
        """Drain the leader log into every feed, then every shard fleet.

        Returns total batches applied across every shard's replicas.
        """
        self._drain()
        return sum(cluster.refresh() for cluster in self.shards)

    def stats(self, ping: bool = False) -> dict[str, Any]:
        """Cluster-wide counters: the ProvCluster schema plus shards.

        ``replicas`` is the flat list across every shard (each entry
        additionally tagged ``shard``), so unsharded readers keep
        working; ``shards`` holds the per-shard sub-stats and
        ``shard_epochs`` the feed epoch vector. All additive — with
        ``shards=1`` serving goes through :class:`ProvCluster`, whose
        schema is byte-identical to before this layer existed.
        """
        shard_stats = []
        replicas: list[dict[str, Any]] = []
        for index, cluster in enumerate(self.shards):
            sub = cluster.stats(ping=ping)
            sub.pop("metrics", None)
            sub.pop("frontend", None)
            sub["shard"] = index
            shard_stats.append(sub)
            replicas.extend(sub["replicas"])
        return {
            "leader_epoch": self.leader_epoch,
            "out_of_process": self.config.out_of_process,
            "frontend": self.frontend.stats()
            if self.frontend is not None else None,
            "replicas": replicas,
            "shards": shard_stats,
            "shard_epochs": self.shard_epochs,
            "shard_map": self.shard_map.to_record(),
            "resyncs": self.resyncs,
            "metrics": self.obs.registry.snapshot(),
        }

    def metrics(self) -> dict[str, Any]:
        """Observability snapshot; workers flattened across shards."""
        self.obs.registry.gauge("cluster.leader_epoch").set(
            self.leader_epoch)
        for index, feed in enumerate(self.feeds):
            self.obs.registry.gauge(
                f"cluster.shard{index}.epoch").set(feed.epoch)
        workers: list[dict[str, Any] | None] = []
        for cluster in self.shards:
            workers.extend(cluster.metrics()["workers"])
        return {
            "leader_epoch": self.leader_epoch,
            "out_of_process": self.config.out_of_process,
            "process": self.obs.registry.snapshot(),
            "workers": workers,
            "shard_epochs": self.shard_epochs,
            "traces": {
                "recent": self.obs.collector.recent(),
                "slow": self.obs.collector.slow_queries(),
            },
        }

    def health_check(self) -> list[tuple[int, int]]:
        """Ping every shard's workers; returns restarted ``(shard,
        replica_id)`` pairs."""
        restarted = []
        for index, cluster in enumerate(self.shards):
            restarted.extend(
                (index, replica_id) for replica_id in cluster.health_check())
        return restarted

    def close(self) -> None:
        """Shut down the front-end and every shard cluster (idempotent)."""
        if self._closed:
            return
        self._closed = True
        frontend, self.frontend = getattr(self, "frontend", None), None
        if frontend is not None:
            try:
                frontend.stop()
            except Exception:   # pragma: no cover - best-effort teardown
                pass
        self._teardown_shards()

    def __enter__(self) -> "ShardedCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:   # pragma: no cover - cosmetic
        return (f"ShardedCluster(shards={len(self.shards)}, "
                f"replicas={self.config.replicas}, "
                f"out_of_process={self.config.out_of_process}, "
                f"leader_epoch={self.leader_epoch})")
