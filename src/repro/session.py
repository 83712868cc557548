"""LifecycleSession: the ProvDB-style high-level facade (Fig. 1).

Ties the whole stack together the way the paper's system architecture does —
ingestion (builder + transactions), storage (property graph store), and the
query facilities (introspection via PgSeg, monitoring via diffs, overview
via PgSum) — so a downstream user records work and asks questions without
touching the operator plumbing:

    >>> from repro.session import LifecycleSession
    >>> s = LifecycleSession(project="faces")
    >>> s.record("alice", "train", uses=["model", "dataset"],
    ...          generates=["weights"], opt="-gpu")
    'train'
    >>> seg = s.how_was_it_made("weights")
    >>> summary = s.typical_pipeline("weights")
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.errors import ModelError
from repro.model.builder import ProvBuilder
from repro.model.graph import ProvenanceGraph
from repro.model.statistics import GraphStatistics, compute_statistics
from repro.model.types import EdgeType, VertexType
from repro.model.validation import ValidationReport, validate
from repro.model.versioning import VersionCatalog
from repro.query.ops import blame as _blame
from repro.query.ops import lineage as _lineage
from repro.segment.boundary import BoundaryCriteria
from repro.segment.diff import SegmentDiff, diff_segments
from repro.segment.pgseg import PgSegOperator, PgSegQuery, Segment
from repro.store.delta import ResultCache
from repro.store.snapshot import GraphSnapshot
from repro.summarize.aggregation import PropertyAggregation
from repro.summarize.pgsum import PgSumOperator, PgSumQuery
from repro.summarize.psg import Psg

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.serve.api import ServeConfig
    from repro.serve.cluster import ProvCluster

#: Default aggregation for session summaries: artifact names + commands.
SESSION_AGGREGATION = PropertyAggregation.of(
    entity=("name",), activity=("command",)
)


@dataclass(slots=True)
class RecordedRun:
    """Bookkeeping for one recorded activity execution."""

    index: int
    member: str
    command: str
    activity_id: int
    used: list[int] = field(default_factory=list)
    generated: list[int] = field(default_factory=list)


class LifecycleSession:
    """A recording + querying session over one project's provenance.

    Read-heavy deployments ask the same introspection questions again and
    again between appends, so the session keeps an epoch-keyed read layer:

    - :meth:`snapshot` memoizes one :class:`GraphSnapshot` per store epoch
      and threads it through the PgSeg operator and lineage walks;
    - :meth:`how_was_it_made`, :meth:`typical_pipeline`,
      :meth:`who_touched`, and :meth:`depth_of` memoize their results.

    Any mutation (``record``, ``add_artifact``, direct graph edits) bumps
    the store epoch; repeated calls on an untouched store return the
    *same* cached objects. They live in the bounded
    :class:`~repro.store.delta.ResultCache` the replica workers use too:
    the next cached read after a run of writes folds the delta-log span
    once and keeps every entry it provably cannot have changed (ancestry
    walks survive appends that leave their closure's out-rows alone,
    segments appends that touch no older vertex's out-row; see
    :func:`repro.store.delta.entry_survives`).

    :meth:`serve` attaches a :class:`repro.serve.cluster.ProvCluster`, after
    which the introspection/overview reads fan out across read replicas
    with read-your-writes consistency; the memoized result layer stays in
    front either way.
    """

    def __init__(self, project: str = "project",
                 graph: ProvenanceGraph | None = None):
        self.project = project
        self.builder = ProvBuilder(graph)
        self.runs: list[RecordedRun] = []
        self._operator = PgSegOperator(self.builder.graph)
        self._snapshot: GraphSnapshot | None = None
        self.result_cache = ResultCache()
        self._cluster: "ProvCluster | None" = None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    @property
    def graph(self) -> ProvenanceGraph:
        """The underlying provenance graph."""
        return self.builder.graph

    @property
    def epoch(self) -> int:
        """The store's mutation epoch (see :class:`PropertyGraphStore`)."""
        return self.builder.graph.store.epoch

    # ------------------------------------------------------------------
    # Epoch-keyed read layer
    # ------------------------------------------------------------------

    def snapshot(self) -> GraphSnapshot:
        """The memoized read snapshot for the current epoch.

        Recaptured lazily after any mutation — incrementally, via
        :meth:`GraphSnapshot.advance`, when the store's delta log shows the
        change was small (the common append-then-query loop), with a full
        rebuild past the crossover threshold. Callers may hold the returned
        object across queries — it stays valid for the epoch it captured.
        """
        if self._snapshot is None:
            self._snapshot = GraphSnapshot(self.builder.graph)
            self._operator.snapshot = self._snapshot
        elif self._snapshot.epoch != self.epoch:
            self._snapshot = self._snapshot.advance(self.builder.graph)
            self._operator.snapshot = self._snapshot
        return self._snapshot

    def _cached(self, key: tuple, compute: Callable[[], Any],
                kind: str = "paths",
                deps: Callable[[Any], Iterable[int]] | None = None) -> Any:
        """Memoize ``compute()`` under ``key`` with delta-driven retention;
        ``kind`` and ``deps`` (result -> footprint vertex ids) classify
        the entry for :func:`repro.store.delta.entry_survives`."""
        store = self.builder.graph.store
        self.result_cache.revalidate(store)
        value = self.result_cache.get(key)
        if value is None:
            horizon = store.vertex_capacity
            value = compute()
            footprint = frozenset(deps(value)) if deps is not None \
                else frozenset()
            self.result_cache.put(key, value, kind, footprint, horizon)
        return value

    def add_artifact(self, name: str, member: str | None = None,
                     **properties: Any) -> int:
        """Register an externally created artifact (e.g. a download)."""
        agent = self.builder.agent(member) if member else None
        return self.builder.artifact(name, agent=agent, **properties)

    def record(self, member: str, command: str,
               uses: Iterable[str] = (), generates: Iterable[str] = (),
               **properties: Any) -> str:
        """Record one activity execution (a command run).

        Unknown input artifact names are auto-registered (schema-later
        ingestion) *before* the activity record, keeping creation ordinals
        consistent with use-after-creation; outputs mint new snapshots.
        Returns the command name for chaining/logging.
        """
        for name in uses:
            if self.builder.latest(name) is None:
                self.builder.artifact(name)
        with self.builder.activity(command, agent=member,
                                   **properties) as act:
            for name in uses:
                act.uses(name)
            for name in generates:
                act.generates(name)
        run = RecordedRun(
            index=len(self.runs),
            member=member,
            command=command,
            activity_id=act.activity_id,
            used=self.graph.used_entities(act.activity_id),
            generated=self.graph.generated_entities(act.activity_id),
        )
        self.runs.append(run)
        return command

    # ------------------------------------------------------------------
    # Introspection (retrospective provenance, PgSeg)
    # ------------------------------------------------------------------

    def _snapshot_id(self, artifact: str, version: int | None = None) -> int:
        """Resolve an artifact name (+ optional version) to its entity id."""
        if version is not None:
            return self.builder.version_of(artifact, version)
        snapshot = self.builder.latest(artifact)
        if snapshot is None:
            raise ModelError(f"unknown artifact {artifact!r}")
        return snapshot

    def _roots(self) -> list[int]:
        """Initial entities: snapshots with no generating activity."""
        def compute() -> list[int]:
            snapshot = self.snapshot()
            gen_out = snapshot.out_lists(EdgeType.WAS_GENERATED_BY)
            return [
                entity for entity in snapshot.vertex_ids(VertexType.ENTITY)
                if not gen_out[entity]
            ]
        return self._cached(("roots",), compute, kind="scan")

    def _segment_of(self, query: PgSegQuery) -> Segment:
        """Evaluate one PgSeg query — routed to a replica when serving."""
        if self._cluster is not None:
            return self._cluster.segment(query)
        self.snapshot()                         # arm the operator fast path
        return self._operator.evaluate(query)

    def how_was_it_made(self, artifact: str, version: int | None = None,
                        from_artifacts: Iterable[str] = (),
                        boundaries: BoundaryCriteria | None = None,
                        ) -> Segment:
        """PgSeg from source artifacts (default: all initial entities) to
        one artifact snapshot (default: its latest version).

        Results are memoized (for the default, boundary-free form) under
        the *resolved* entity ids, so a freshly recorded version misses
        the cache by key: repeated calls on an untouched store return the
        same :class:`Segment` object. While the session serves, a
        replica evaluates the query, so ``boundaries`` must be built from
        the :mod:`repro.segment.boundary` factories; a bare callable
        raises :class:`~repro.errors.SerializationError`.
        """
        dst = self._snapshot_id(artifact, version)
        src = tuple(
            [self._snapshot_id(name) for name in from_artifacts]
            or self._roots()
        )
        if boundaries is not None:
            # Boundary criteria hold arbitrary predicates; don't cache.
            return self._segment_of(PgSegQuery(
                src=src, dst=(dst,), boundaries=boundaries))
        return self._derivation(src, dst)

    def _derivation(self, src: tuple[int, ...], dst: int) -> Segment:
        """The memoized boundary-free segment from ``src`` to ``dst``."""
        return self._cached(
            ("segment", src, dst),
            lambda: self._segment_of(PgSegQuery(src=src, dst=(dst,))),
            kind="segment", deps=lambda segment: segment.vertices,
        )

    def compare_versions(self, artifact: str, old: int, new: int,
                         ) -> SegmentDiff:
        """Diff the derivation segments of two versions of one artifact."""
        left = self.how_was_it_made(artifact, old)
        right = self.how_was_it_made(artifact, new)
        return diff_segments(left, right)

    def _lineage_cached(self, entity: int):
        """The memoized ancestry walk for one entity (ancestry-class)."""
        def compute():
            if self._cluster is not None:
                return self._cluster.lineage(entity)
            return _lineage(self.graph, entity, snapshot=self.snapshot())

        return self._cached(
            ("lineage", entity), compute, kind="ancestry",
            deps=lambda result: result.vertices,
        )

    def who_touched(self, artifact: str,
                    version: int | None = None) -> dict[str, int]:
        """Blame report: member name -> number of ancestry vertices owned.

        Memoized until a mutation touches the ancestry footprint.
        """
        entity = self._snapshot_id(artifact, version)
        # The report depends on the *whole* ancestry closure (a new
        # attribution to any ancestor changes it), so the footprint is the
        # lineage closure plus the agents — not just the owned vertices.
        ancestry = self._lineage_cached(entity)

        def compute() -> dict[int, set[int]]:
            if self._cluster is not None:
                return self._cluster.blame(entity)
            # Reuse the cached closure: no second ancestry walk.
            return _blame(self.graph, entity, snapshot=self.snapshot(),
                          ancestry=ancestry)

        report = self._cached(
            ("blame", entity), compute, kind="ancestry",
            deps=lambda rep: {entity, *ancestry.vertices, *rep},
        )
        # Build afresh per call, so callers may mutate their report without
        # poisoning the cache.
        return {
            self.graph.vertex(agent).get("name", str(agent)): len(owned)
            for agent, owned in sorted(report.items())
        }

    def depth_of(self, artifact: str, version: int | None = None) -> int:
        """How many activity generations deep the snapshot's history is.

        Memoized until a mutation touches the ancestry footprint.
        """
        return self._lineage_cached(
            self._snapshot_id(artifact, version)).depth

    # ------------------------------------------------------------------
    # Monitoring / overview (prospective provenance, PgSum)
    # ------------------------------------------------------------------

    def typical_pipeline(self, artifact: str, last: int | None = None,
                         aggregation: PropertyAggregation = SESSION_AGGREGATION,
                         k: int = 0) -> Psg:
        """Summarize the derivations of an artifact's versions into a Psg.

        Memoized: the monitoring dashboards the paper motivates re-render
        the same summary until new runs land. Each version's segment is
        read through the same cached entry :meth:`how_was_it_made` uses,
        so re-summarizing after an append re-induces only new versions.

        Args:
            artifact: the artifact whose version history to summarize.
            last: only the most recent ``last`` versions (None = all).
        """
        footprint: set[int] = set()

        def compute() -> Psg:
            versions = self.builder.versions(artifact)
            if not versions:
                raise ModelError(f"unknown artifact {artifact!r}")
            scoped = versions if last is None else versions[-last:]
            src = tuple(self._roots())
            segments = [self._derivation(src, snapshot)
                        for snapshot in scoped]
            footprint.update(
                vertex for segment in segments for vertex in segment.vertices
            )
            return PgSumOperator(segments).evaluate(PgSumQuery(
                aggregation=aggregation, k=k,
            ))
        return self._cached(("psg", artifact, last, aggregation, k), compute,
                            kind="paths", deps=lambda _: footprint)

    # ------------------------------------------------------------------
    # Serving (leader + read replicas)
    # ------------------------------------------------------------------

    @property
    def cluster(self) -> "ProvCluster | None":
        """The attached serving cluster, or None when serving is off."""
        return self._cluster

    def serve(self, replicas: int | None = None,
              out_of_process: bool | None = None,
              config: "ServeConfig | None" = None) -> "ProvCluster":
        """Fan session reads out across read replicas.

        Configure with one :class:`repro.serve.ServeConfig` —
        ``session.serve(config=ServeConfig(replicas=4,
        out_of_process=True, frontend=True))`` — or through the
        ``replicas=`` / ``out_of_process=`` shorthand, which builds the
        same ``ServeConfig`` internally (mixing both raises).

        Bootstraps a :class:`repro.serve.cluster.ProvCluster` over this
        session's graph (the session stays the sole writer) and routes
        :meth:`how_was_it_made`, :meth:`who_touched`, :meth:`depth_of`, and
        :meth:`typical_pipeline` through it with read-your-writes
        consistency. The memoized result layer stays in front, so cache
        hits never touch a replica. Returns the cluster for direct use
        (e.g. ``session.serve(4).cypher(...)``).

        Every replica is a :class:`repro.serve.worker.ReplicaWorker`
        with its own result cache and summary views. By default each runs
        in this process behind an in-memory link; with
        ``out_of_process=True`` each is a worker *process* speaking the
        wire protocol over a loopback socket — true parallel reads across
        cores. Either way, crashed workers are restarted and re-synced
        transparently. ``ServeConfig(frontend=True, ...)`` additionally starts the
        asyncio front-end (:mod:`repro.serve.frontend`) so remote
        clients fan in over the wire protocol — reachable at
        ``session.cluster.frontend.address``. Call :meth:`stop_serving`
        when done so the workers (and front-end) shut down.

        Calling again re-bootstraps with the new configuration (shutting
        down any previous worker pool first).

        ``ServeConfig(shards=N)`` with ``N > 1`` serves through the
        scatter-gather :class:`repro.serve.shards.ShardedCluster`
        coordinator instead (same query surface; per-shard replica
        sets) — the one-flag switch.
        """
        from repro.serve.api import ServeConfig
        from repro.serve.cluster import ProvCluster

        config = ServeConfig.of(config, replicas=replicas,
                                out_of_process=out_of_process)
        self.stop_serving()
        if config.shards > 1:
            from repro.serve.shards import ShardedCluster

            self._cluster = ShardedCluster(self.graph, config=config)
        else:
            self._cluster = ProvCluster(self.graph, config=config)
        return self._cluster

    def stop_serving(self) -> None:
        """Detach the serving cluster (shutting down any worker pool);
        reads run on the leader again.

        Idempotent, including when a worker already died mid-shutdown:
        the cluster is detached *before* teardown runs, so even a
        teardown failure leaves the session serving locally and a repeat
        call a no-op rather than a second crash.
        """
        cluster, self._cluster = self._cluster, None
        if cluster is not None:
            cluster.close()

    def serving_metrics(self) -> "dict[str, Any] | None":
        """The serving cluster's observability snapshot, or ``None``.

        A convenience passthrough to
        :meth:`repro.serve.cluster.ProvCluster.metrics` (leader + worker
        registries, recent/slow traces) that returns ``None`` instead of
        raising when no cluster is attached — dashboards can poll it
        unconditionally.
        """
        if self._cluster is None:
            return None
        return self._cluster.metrics()

    def query_many(self, specs) -> list[Any]:
        """Evaluate a batch of read specs; one routed fan-out when serving.

        ``specs`` is a sequence of :class:`repro.serve.QuerySpec` values
        (``QuerySpec.lineage(id)``, ``.segment(query)``,
        ``.cypher(text)``, ...) — bare ``(method, params)`` pairs stay
        accepted, the same interop
        :meth:`repro.serve.cluster.ProvCluster.query_many` keeps. With
        serving attached the whole batch is routed as pipelined worker
        bundles (the dashboard fan-in path); without, it is evaluated
        against the session's armed snapshot. Either way the returned
        list is index-aligned with ``specs`` and a failing spec
        contributes its exception *instance* rather than aborting its
        siblings.
        """
        specs = list(specs)
        if self._cluster is not None:
            return self._cluster.query_many(specs)
        if not specs:
            return []
        from repro.serve.api import normalize_specs
        from repro.serve.methods import METHODS

        specs = normalize_specs(specs)
        snapshot = self.snapshot()           # arms the operator too
        results: list[Any] = []
        for spec in specs:
            try:
                results.append(METHODS[spec.method].evaluate(
                    self.graph, snapshot, self._operator, spec.params)[0])
            except Exception as exc:       # noqa: BLE001 - per-spec
                results.append(exc)        # isolation, like the cluster
        return results

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    def statistics(self) -> GraphStatistics:
        """Shape statistics of the recorded provenance."""
        return compute_statistics(self.graph)

    def check(self) -> ValidationReport:
        """Run PROV constraint validation."""
        return validate(self.graph)

    def catalog(self) -> VersionCatalog:
        """Artifact/version catalog over the recorded provenance."""
        return VersionCatalog(self.graph)

    def __repr__(self) -> str:   # pragma: no cover - cosmetic
        return (
            f"LifecycleSession({self.project!r}, runs={len(self.runs)}, "
            f"graph={self.graph!r})"
        )
