"""ProvCluster: leader + N read replicas behind an epoch-aware router.

The paper's ProvDB architecture assumes one process owns the provenance
graph; the ROADMAP north-star is heavy read traffic. :class:`ProvCluster`
keeps the single leader as the only writer and fans every read family —
introspection (PgSeg), overview (PgSum), lineage/impact/blame, CypherLite —
out across the :class:`~repro.serve.worker.ReplicaWorker` followers of one
:class:`~repro.serve.pool.WorkerPool` (processes or in-memory workers,
per ``ServeConfig.out_of_process``), fed by the delta-log replication
stream.

**Consistency: epoch-stamped read-your-writes.** Every query is stamped
with a minimum epoch (by default the leader's current epoch, i.e. strict
read-your-writes). The :class:`QueryRouter` rotates strictly round-robin
and catches the routed replica up to the stamp on the spot — shipped
batches apply in milliseconds through the incremental snapshot patcher,
and a truncated span degrades to a full re-sync, never to a stale strong
read. Passing an older stamp (e.g. ``min_epoch=0``) opts a query into
bounded-staleness routing with zero catch-up work on the read path.
"""

from __future__ import annotations

import threading
from contextlib import ExitStack
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterable, TypeVar

from repro.errors import ReplicaUnavailable
from repro.model.graph import ProvenanceGraph
from repro.obs import ObsContext
from repro.query.cypherlite import Budget
from repro.query.ops import Lineage
from repro.segment.pgseg import PgSegQuery, Segment
from repro.serve.api import ServeConfig, normalize_specs
from repro.serve.pool import WorkerClient, WorkerPool
from repro.summarize.pgsum import PgSumQuery
from repro.summarize.psg import Psg

if TYPE_CHECKING:   # pragma: no cover - types only
    from repro.serve.frontend import AsyncFrontend

T = TypeVar("T")


class QueryRouter:
    """Routes epoch-stamped reads across replicas, strict round-robin.

    Every read advances the rotation and is served by the rotation-target
    replica, caught up to the stamp on the spot when it lags. Picking the
    rotation target (rather than skipping to an already-fresh replica) is
    deliberate: after a write *every* replica lags, and a skip-to-fresh
    policy funnels the whole read stream onto whichever replica the first
    read warmed — N replicas with no fan-out. Catch-up is cheap
    (incremental delta replay through the snapshot patcher), so paying it
    in rotation keeps the entire fleet warm and the load spread.

    Separated from :class:`ProvCluster` so the routing policy is testable
    (and swappable) on its own.
    """

    def __init__(self, replicas: list[WorkerClient]):
        if not replicas:
            raise ValueError("a cluster needs at least one replica")
        self.replicas = replicas
        self._cursor = 0
        self._lock = threading.Lock()    # the cursor is read-modify-write

    def route(self, min_epoch: int) -> WorkerClient:
        """The next replica in rotation, caught up to ``min_epoch``.

        A stale-tolerant stamp (e.g. ``0``) routes with zero catch-up work
        on the read path; the replica answers for its own epoch.

        A replica that crashes *during* catch-up (a worker can die at any
        frame) is not an error the caller sees: the pool
        restarts it with a full re-sync and the router retries the next
        replica in rotation. Only when the entire rotation is unavailable
        does :class:`~repro.errors.ReplicaUnavailable` propagate.

        Raises:
            ValueError: when the stamp is unsatisfiable even after
                catch-up (it exceeds what the leader has published) — a
                strong read must never silently degrade to stale data.
            ReplicaUnavailable: every replica in the rotation failed.
        """
        last_crash: ReplicaUnavailable | None = None
        # One lap over the rotation plus one extra slot: a crashed worker
        # comes back restarted *and re-synced*, so revisiting the first
        # casualty succeeds even when every replica crashed at once (or
        # the rotation only has one replica to retry on).
        for _ in range(len(self.replicas) + 1):
            with self._lock:
                replica = self.replicas[self._cursor]
                self._cursor = (self._cursor + 1) % len(self.replicas)
            if replica.epoch < min_epoch:
                try:
                    replica.catch_up()
                except ReplicaUnavailable as exc:
                    last_crash = exc
                    continue
            self._require(replica, min_epoch)
            return replica
        raise ReplicaUnavailable(
            f"all {len(self.replicas)} replicas failed catch-up to "
            f"epoch {min_epoch}"
        ) from last_crash

    @staticmethod
    def _require(replica: WorkerClient, min_epoch: int) -> None:
        if replica.epoch < min_epoch:
            raise ValueError(
                f"consistency stamp {min_epoch} is ahead of the leader "
                f"(epoch {replica.epoch}); cannot serve a strong read"
            )

    def caught_up(self, targets: list[WorkerClient],
                  min_epoch: int) -> list[WorkerClient]:
        """Caller-chosen ``targets`` (the front-end's leased workers)
        brought to ``min_epoch``, without advancing the rotation.

        Same contract as :meth:`route`: a target that crashes catching up
        has been restarted and re-synced by the pool and drops out of
        this batch; when none is left the rotation supplies one; a stamp
        ahead of the leader raises ``ValueError``.
        """
        ready = []
        for replica in targets:
            if replica.epoch < min_epoch:
                try:
                    replica.catch_up()
                except ReplicaUnavailable:
                    continue
                self._require(replica, min_epoch)
            ready.append(replica)
        return ready or [self.route(min_epoch)]

    def route_many(self, min_epoch: int,
                   count: int) -> list[WorkerClient]:
        """Up to ``count`` distinct caught-up replicas for a batch fan-out.

        The first target comes from :meth:`route` with its full
        crash-retry/healing semantics (so the usual ``ValueError`` /
        :class:`~repro.errors.ReplicaUnavailable` contracts hold); extra
        targets are best-effort — a rotation where only one replica is
        healthy still serves the whole batch on that one. Targets are
        distinct by identity and returned in rotation order, so splitting
        a batch across them keeps the fleet-warming property of the
        strict rotation. Ask for no more replicas than the batch can
        use: every target taken advances the rotation, so asking for the
        whole fleet on behalf of a one-spec batch brings the cursor back
        to where it started and the next small batch lands on the same
        replica again.
        """
        count = max(1, min(count, len(self.replicas)))
        targets = [self.route(min_epoch)]
        while len(targets) < count:
            try:
                replica = self.route(min_epoch)
            except ReplicaUnavailable:
                break          # serve the batch on the healthy subset
            if any(replica is target for target in targets):
                break          # rotation wrapped: no more distinct slots
            targets.append(replica)
        return targets


class ProvCluster:
    """A leader store plus ``replicas`` read replicas and a router.

    Args:
        source: the leader — a :class:`ProvenanceGraph`, a
            :class:`~repro.store.PropertyGraphStore`, or anything exposing
            ``.store``. The leader remains the sole writer; keep mutating
            it directly (or through a session) and the cluster ships the
            deltas.
        replicas: number of read replicas to bootstrap.
        out_of_process: spawn each replica's worker as a process
            instead of in this one (see :mod:`repro.serve.pool`). Same
            worker, routing and consistency stamps either way; call
            :meth:`close` (or use the cluster as a context manager) when
            done so the workers shut down.
        config: a :class:`~repro.serve.api.ServeConfig` naming every
            serving knob (including the async front-end fields) in one
            validated value; mutually exclusive with the two shorthand
            kwargs above. ``config.frontend=True`` also starts
            an :class:`~repro.serve.frontend.AsyncFrontend` bound to
            this cluster (exposed as :attr:`frontend`, shut down by
            :meth:`close`).
    """

    def __init__(self, source, replicas: int | None = None,
                 out_of_process: bool | None = None,
                 config: ServeConfig | None = None,
                 obs: ObsContext | None = None,
                 shard: int | None = None):
        config = ServeConfig.of(config, replicas=replicas,
                                out_of_process=out_of_process)
        if config.shards != 1 and shard is None:
            from repro.errors import ConfigError

            raise ConfigError(
                f"ServeConfig(shards={config.shards}) needs the "
                "ShardedCluster coordinator (repro.serve.shards); "
                "ProvCluster serves exactly one shard")
        self.config = config
        #: When serving as one shard of a ShardedCluster, the shard index
        #: (``None`` for a standalone cluster — stats stay byte-compatible).
        self.shard = shard
        #: The leader process's one observability handle (registry +
        #: trace collector): shared by the pool, the router, and the
        #: front-end, so "one registry per process" holds. A coordinator
        #: passes its own handle down so every shard shares one registry.
        self.obs = obs if obs is not None else ObsContext.of(config)
        store = getattr(source, "store", source)
        self.graph = source if isinstance(source, ProvenanceGraph) \
            else ProvenanceGraph(store)
        self.pool = WorkerPool(self.graph, config=config, obs=self.obs,
                               shard=shard)
        self.log = self.pool.log
        self.replicas = list(self.pool.clients)
        self.router = QueryRouter(self.replicas)
        self.frontend: "AsyncFrontend | None" = None
        if config.frontend:
            from repro.serve.frontend import AsyncFrontend

            try:
                self.frontend = AsyncFrontend(self, config=config)
                self.frontend.start()
            except BaseException:
                self.close()
                raise

    # ------------------------------------------------------------------

    @property
    def leader_epoch(self) -> int:
        """The leader's current mutation epoch."""
        return self.log.epoch

    def refresh(self) -> int:
        """Ship pending batches to every replica (e.g. after a write burst).

        Optional — the router catches replicas up lazily on the read path —
        but useful to move replication work off the serving hot path.
        Returns the total number of batches applied across replicas. A
        worker that dies mid-refresh is restarted at the leader epoch (a
        restart *is* a refresh), so the sweep keeps going — that policy
        lives in :meth:`repro.serve.pool.WorkerPool.refresh`.
        """
        return self.pool.refresh()

    def _serve(self, min_epoch: int | None,
               request: Callable[[WorkerClient], T], queries: int = 1) -> T:
        """Route one request (counting ``queries`` reads), retrying on
        worker crashes.

        A replica that dies *while serving* has already been restarted
        and re-synced by the pool when
        :class:`~repro.errors.ReplicaUnavailable` surfaces; the read is
        then re-routed — the acceptance contract is that killing a worker
        mid-run loses no queries. One attempt per replica bounds the loop.
        """
        stamp = self.leader_epoch if min_epoch is None else min_epoch
        attempts = len(self.replicas) + 1
        for attempt in range(attempts):
            replica = self.router.route(stamp)
            try:
                with replica.lease:     # the counter is the holder's too
                    replica.queries_served += queries
                    return request(replica)
            except ReplicaUnavailable:
                if attempt == attempts - 1:
                    raise
        raise AssertionError("unreachable")   # pragma: no cover

    # ------------------------------------------------------------------
    # Routed read families (ids are leader ids: replication is id-exact)
    # ------------------------------------------------------------------

    def call(self, method: str, params: dict[str, Any],
             min_epoch: int | None = None) -> Any:
        """One read on a caught-up replica; ``params`` and the answer in
        domain form (:meth:`WorkerClient.call`)."""
        return self._serve(min_epoch, lambda r: r.call(method, params))

    def lineage(self, entity: int, max_depth: int | None = None,
                min_epoch: int | None = None) -> Lineage:
        return self.call("lineage", {"entity": entity,
                                     "max_depth": max_depth}, min_epoch)

    def impacted(self, entity: int, max_depth: int | None = None,
                 min_epoch: int | None = None) -> Lineage:
        return self.call("impacted", {"entity": entity,
                                      "max_depth": max_depth}, min_epoch)

    def blame(self, entity: int,
              min_epoch: int | None = None) -> dict[int, set[int]]:
        return self.call("blame", {"entity": entity}, min_epoch)

    def segment(self, query: PgSegQuery,
                min_epoch: int | None = None) -> Segment:
        return self.call("segment", {"query": query}, min_epoch)

    def summarize(self, queries: Iterable[PgSegQuery],
                  pgsum: PgSumQuery | None = None,
                  min_epoch: int | None = None) -> Psg:
        """PgSum over PgSeg evaluations served by **one** replica.

        A summary must describe a single graph state: with a relaxed
        ``min_epoch``, independently routed segments could come from
        replicas at different epochs and merge states that never coexisted.
        So one replica is routed once and evaluates the *entire* summary —
        segments and merge — worker-side, as one ``summarize`` wire
        request, which also lets the worker serve repeat summaries from
        its incrementally maintained materialized views. A replica crash
        mid-summary restarts the *whole* summary on the next replica —
        partial segment sets must never merge across replicas. Bounded
        and keyed segment queries ride the same request; one the codec
        refuses raises :class:`~repro.errors.SerializationError`.
        """
        queries = list(queries)
        pgsum = pgsum if pgsum is not None else PgSumQuery()
        return self._serve(min_epoch,
                           lambda r: r.summarize(queries, pgsum),
                           len(queries))

    def cypher(self, text: str, budget: Budget | None = None,
               min_epoch: int | None = None) -> list:
        return self.call("cypher", {"text": text, "budget": budget},
                         min_epoch)

    # ------------------------------------------------------------------
    # Batched fan-out
    # ------------------------------------------------------------------

    def query_many(self, specs, min_epoch: int | None = None,
                   raw: bool = False,
                   trace_ids: "list[str | None] | None" = None,
                   targets: "list[WorkerClient] | None" = None,
                   ) -> list[Any]:
        """Serve a batch of read specs as one fan-out; results in order.

        ``specs`` is a sequence of :class:`~repro.serve.api.QuerySpec`
        values (build them with ``QuerySpec.lineage(entity)``,
        ``.segment(query)``, ``.cypher(text, budget)``, ...); the legacy
        bare ``(method, params)`` pairs stay accepted — this method is
        the one normalization point
        (:func:`~repro.serve.api.normalize_specs`), so tuple-speaking
        callers migrate incrementally. The batch is split strided across
        up to ``min(len(specs), len(replicas))`` distinct caught-up
        replicas (:meth:`QueryRouter.route_many`) — or across ``targets``
        when the caller already chose them (the async front-end leases
        idle workers itself; :meth:`QueryRouter.caught_up`) — and their
        leases are held, taken in ``replica_id`` order, until every
        share is collected. Each worker gets its whole share as **one
        pipelined** ``requests`` bundle, so N worker processes execute
        concurrently while the client drains answers — the per-request
        round trip the lockstep path paid disappears.

        The returned list is index-aligned with ``specs``. A spec the
        server answered with an error contributes the rebuilt exception
        *instance* at its index (per-request isolation: one bad request
        never poisons its siblings — callers check with
        ``isinstance(r, BaseException)``). A replica that dies mid-bundle
        has its whole share re-routed to the next healthy replica, so a
        worker kill loses no queries.

        Each entry honors the consistency stamp exactly like the
        corresponding single-query method; with a relaxed ``min_epoch``
        different entries may be answered at different (stamp-satisfying)
        epochs — use :meth:`summarize` when a *merge* needs one coherent
        epoch.

        ``raw=True`` asks for ok answers in wire form
        (:class:`~repro.serve.pool.RawResult`) instead of decoded ones —
        the async front-end re-serves the same wire format, so the
        decode/re-encode round trip is pure overhead there. Best-effort:
        entries re-routed after a mid-bundle crash come back as domain
        objects, so raw consumers must handle both shapes.

        ``trace_ids`` (parallel to ``specs``; ``None`` entries untraced)
        threads sampled requests' trace ids down to the workers: the
        route span is recorded here, the transport/worker spans by the
        worker client as answers arrive.
        """
        stamp = self.leader_epoch if min_epoch is None else min_epoch
        # Normalizing validates the whole batch before any bundle goes on
        # the wire: a caller typo surfacing from a *later* chunk's encode
        # would leave earlier chunks' requests pending forever (their
        # answers stashed, never collected). Downstream replica surfaces
        # keep speaking (method, params) tuples.
        specs = [spec.as_tuple() for spec in normalize_specs(specs)]
        if not specs:
            return []
        if trace_ids is None:
            trace_ids = [None] * len(specs)
        route_started = perf_counter()
        if targets is None:
            targets = self.router.route_many(
                stamp, min(len(specs), len(self.replicas)))
        else:
            targets = self.router.caught_up(targets, stamp)
        route_s = perf_counter() - route_started
        for trace_id in trace_ids:
            if trace_id is not None:
                # Replica selection + catch-up is shared batch work; it
                # is real wall time on every traced request's path.
                self.obs.collector.add_span(
                    trace_id, "cluster", "route", route_s,
                    targets=len(targets))
        chunks: list[list[tuple[int, Any]]] = [[] for _ in targets]
        traces: list[list[str | None]] = [[] for _ in targets]
        for index, spec in enumerate(specs):
            chunks[index % len(targets)].append((index, spec))
            traces[index % len(targets)].append(trace_ids[index])
        results: list[Any] = [None] * len(specs)
        with ExitStack() as leases:
            for target in sorted(targets, key=lambda r: r.replica_id):
                leases.enter_context(target.lease)
            failed = self._fan_out(targets, chunks, traces, raw, results)
        # Leases released: a re-route may wait on a replica another batch
        # holds, and must not do so while holding one that batch may want.
        for chunk in failed:
            share = [spec for _, spec in chunk]
            values = self._serve(stamp, lambda r: r.query_many(share),
                                 len(share))
            for (index, _), value in zip(chunk, values):
                results[index] = value
        return results

    def _fan_out(self, targets: list, chunks: list, traces: list,
                 raw: bool, results: list[Any]) -> list:
        """Serve each target its chunk (caller holds the leases), filing
        answers into ``results``; returns the chunks whose worker died."""
        failed: list[list[tuple[int, Any]]] = []
        # Pipeline: every bundle on the wire before any collect.
        begun = []
        for target, chunk, chunk_traces in zip(targets, chunks, traces):
            if not chunk:
                continue
            try:
                handle = target.begin_many(
                    [spec for _, spec in chunk], trace_ids=chunk_traces)
            except ReplicaUnavailable:
                failed.append(chunk)
                continue
            begun.append((target, chunk, handle))
        for target, chunk, handle in begun:
            try:
                values = target.collect_many(handle, raw=raw)
            except ReplicaUnavailable:
                failed.append(chunk)
                continue
            target.queries_served += len(chunk)
            for (index, _), value in zip(chunk, values):
                results[index] = value
        return failed

    # ------------------------------------------------------------------

    #: Per-replica counter keys every :meth:`stats` entry carries. One
    #: schema, one place to read it.
    REPLICA_STAT_KEYS = (
        "replica_id", "epoch", "lag", "alive", "generation",
        "batches_applied", "resyncs", "restarts", "queries_served",
        "late_responses", "timeouts", "poisoned",
    )

    def stats(self, ping: bool = False) -> dict[str, Any]:
        """Cluster-wide serving/replication counters, one schema.

        The per-replica counters that used to be scattered across
        ``WorkerClient`` attributes and pong payloads surface here
        uniformly. Schema::

            {"leader_epoch": int,       # leader's mutation epoch
             "out_of_process": bool,
             "frontend": dict | None,   # AsyncFrontend.stats() when run
             "replicas": [{
                "replica_id": int,
                "epoch": int,           # replayed epoch (shipping ledger)
                "lag": int,             # epochs behind the leader
                "alive": bool,          # process running / link open
                "generation": int,      # spawn generation = restart count
                "batches_applied": int, # batches shipped to the worker
                "resyncs": int,
                "restarts": int,
                "queries_served": int,
                "late_responses": int,  # answers for abandoned requests
                "timeouts": int,        # deadline-abandoned requests
                "poisoned": int,        # mid-frame timeouts (crash path)
                ...                     # WorkerClient.stats() extras
             }, ...]}

        Every replica entry carries every :data:`REPLICA_STAT_KEYS` key
        (an in-memory worker never times out, so its ``timeouts`` stay
        ``0``). With ``ping=True``, each entry's ``"worker"`` is the
        worker's own counters (cache/view telemetry and the
        worker-echoed ``generation``) fetched now — this sends a ping
        frame per worker, so it is not free on the serving path.
        (Without a ping, ``worker`` holds the last observed pong's
        counters folded restart-aware by :meth:`WorkerClient.stats
        <repro.serve.pool.WorkerClient.stats>`.)

        The top level also carries the leader process's registry
        snapshot under ``"metrics"``; :meth:`metrics` aggregates the
        workers' registries on top.
        """
        replicas = []
        for replica in self.replicas:
            entry = dict(replica.stats())
            entry["batches_applied"] = entry.pop("batches_shipped")
            if ping:
                try:
                    _epoch, worker_stats = replica.ping()
                except Exception:
                    worker_stats = None
                    # A worker that cannot answer a ping *now* is not
                    # healthy now, whatever the last health check said —
                    # surface it immediately rather than reporting the
                    # cached alive flag until the next sweep.
                    entry["alive"] = False
                entry["worker"] = worker_stats
            if self.shard is not None:
                entry["shard"] = self.shard
            replicas.append(entry)
        return {
            "leader_epoch": self.leader_epoch,
            "out_of_process": self.config.out_of_process,
            "frontend": self.frontend.stats()
            if self.frontend is not None else None,
            "replicas": replicas,
            "metrics": self.obs.registry.snapshot(),
        }

    def metrics(self) -> dict[str, Any]:
        """Cluster-wide observability snapshot (the exposition payload).

        Aggregates the leader process's registry with every worker
        process's (fetched via the ``metrics`` wire method — one request
        per worker, so not free on the serving path; a worker that
        cannot answer contributes ``None``). ``traces`` carries the
        leader-side recent-trace ring and slow-query log. Schema::

            {"leader_epoch": int,
             "out_of_process": bool,
             "process": <registry snapshot>,       # leader process
             "workers": [{"metrics": <snapshot>,
                          "traces": [...]} | None, ...],
             "traces": {"recent": [...], "slow": [...]}}
        """
        self.obs.registry.gauge("cluster.leader_epoch").set(
            self.leader_epoch)
        workers: list[dict[str, Any] | None] = []
        for client in self.replicas:
            try:
                workers.append(client.metrics())
            except Exception:   # noqa: BLE001 - health tooling must
                # degrade per worker, never fail the whole snapshot.
                workers.append(None)
        return {
            "leader_epoch": self.leader_epoch,
            "out_of_process": self.config.out_of_process,
            "process": self.obs.registry.snapshot(),
            "workers": workers,
            "traces": {
                "recent": self.obs.collector.recent(),
                "slow": self.obs.collector.slow_queries(),
            },
        }

    def health_check(self) -> list[int]:
        """Ping every worker, restarting dead ones; returns restarted ids."""
        return self.pool.health_check()

    def close(self) -> None:
        """Shut down the front-end and worker pool, and delete the log's
        checkpoint directory (idempotent).

        Safe to call repeatedly and safe when a worker already died
        mid-shutdown: the front-end is stopped first (no new client work
        can reach a closing pool), and each teardown step is isolated so
        one casualty cannot leave the rest running.
        """
        frontend, self.frontend = getattr(self, "frontend", None), None
        if frontend is not None:
            try:
                frontend.stop()
            except Exception:   # pragma: no cover - best-effort teardown
                pass
        self.pool.close()

    def __enter__(self) -> "ProvCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:   # pragma: no cover - cosmetic
        return (
            f"ProvCluster(replicas={len(self.replicas)}, "
            f"out_of_process={self.config.out_of_process}, "
            f"leader_epoch={self.leader_epoch})"
        )
