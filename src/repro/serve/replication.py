"""Leader/replica replication over the store's delta log.

The store already commits one atomic, epoch-tagged
:class:`~repro.store.delta.DeltaBatch` per mutation (PR 2); this module
turns that log into a replication stream with **one state-transfer
format** for every follower, in-process or not:

- :class:`ReplicationLog` — the leader-side publisher. ``checkpoint()``
  maintains the binary snapshot file (:mod:`repro.store.checkpoint`) a
  follower loads its state from; ``ship_binary_since(epoch)`` emits the
  ``repro-wire-v2`` binary batch payloads covering ``(epoch,
  leader_epoch]``, or ``None`` when the bounded log has truncated the
  span — the follower must bootstrap again, never partially replay (the
  same contract
  :meth:`GraphSnapshot.advance <repro.store.snapshot.GraphSnapshot.advance>`
  obeys). ``bootstrap(load)`` is the one fault policy around the two: a
  checkpoint the follower cannot load, or a log that truncated between
  capture and ship, is dropped and captured fresh once; a second failure
  raises :class:`~repro.errors.ReplicaUnavailable`.

- :class:`Replica` — a read-only in-process follower. It bootstraps from
  the same inputs an out-of-process worker gets (``read_checkpoint``,
  then the binary tail — id-, ordinal-, and epoch-exact), then catches up
  by decoding shipped binary batches and applying them through
  :meth:`~repro.store.PropertyGraphStore.apply_replicated_batch`; its local
  delta log therefore mirrors the leader's, and its memoized read snapshot
  advances with the same incremental patching / crossover policy as the
  leader's (:func:`repro.store.snapshot.default_crossover`). On truncation
  or divergence it bootstraps again and counts the re-sync.

Replicas serve every read family in the repo — lineage/impact/blame walks,
PgSeg (with the operator's epoch-synced segment cache), and CypherLite —
each against the replica's own armed snapshot, so a fleet of replicas
multiplies warm read capacity without touching the leader's write path.
"""

from __future__ import annotations

import threading
from functools import wraps
from typing import Any, Callable

from repro.errors import (
    ModelError,
    ReplicaUnavailable,
    SerializationError,
    StoreError,
)
from repro.model.graph import ProvenanceGraph
from repro.obs import MetricAttr, MetricsRegistry
from repro.query.cypherlite import Budget, run_query
from repro.query.ops import Lineage
from repro.query.ops import blame as _blame
from repro.query.ops import impacted as _impacted
from repro.query.ops import lineage as _lineage
from repro.segment.pgseg import PgSegOperator, PgSegQuery, Segment
from repro.serve.api import QUERY_METHODS
from repro.serve.wire import (
    batch_from_wire,
    encode_batch_binary,
    unpack_batch_frame,
)
from repro.store.checkpoint import (
    Checkpoint,
    CheckpointManager,
    read_checkpoint,
)
from repro.summarize.pgsum import PgSumOperator, PgSumQuery
from repro.summarize.psg import Psg
from repro.store.snapshot import GraphSnapshot
from repro.store.store import PropertyGraphStore


def leased(method):
    """Run a replica method holding that replica's ``lease``.

    The lease (a ``threading.RLock`` on every :class:`Replica` and
    :class:`~repro.serve.pool.WorkerClient`) is the ownership rule: one
    thread at a time touches a replica's transport or state. Whoever
    holds several takes them in ``replica_id`` order.
    """
    @wraps(method)
    def run(self, *args, **kwargs):
        with self.lease:
            return method(self, *args, **kwargs)
    return run


class ReplicationLog:
    """Leader-side publisher of the delta-log replication stream.

    Stateless over the leader store: followers track their own replayed
    epoch and ask for the span they are missing, so one publisher serves
    any number of replicas.

    Args:
        source: the leader — a :class:`PropertyGraphStore` or anything
            exposing ``.store`` (a :class:`ProvenanceGraph`, a session's
            graph).
    """

    #: Tail length (delta records, not batches) past which an existing
    #: checkpoint is refreshed instead of reused: shipping a very long
    #: tail on top of an old checkpoint costs more than recapturing, and
    #: a bounded refresh keeps checkpoints "periodic" without a timer.
    CHECKPOINT_REFRESH_RECORDS = 1024

    def __init__(self, source):
        self.store: PropertyGraphStore = getattr(source, "store", source)
        self._checkpoints = CheckpointManager()
        #: Guards the checkpoint memo: followers bootstrap on any thread.
        self._lock = threading.Lock()

    @property
    def epoch(self) -> int:
        """The leader's current mutation epoch."""
        return self.store.epoch

    def ship_binary_since(self, epoch: int) -> list[bytes] | None:
        """Binary batch payloads covering ``(epoch, leader_epoch]``.

        Returns ``None`` when the span is no longer fully retained by the
        leader's bounded delta log — the follower must bootstrap again
        (partial replay is never allowed). Every follower is shipped these
        (:func:`repro.serve.wire.encode_batch_binary`).
        """
        batches = self.store.delta_log.batches_since(epoch)
        if batches is None:
            return None
        return [encode_batch_binary(batch, self.store) for batch in batches]

    # ------------------------------------------------------------------
    # Checkpoint lifecycle (binary bootstrap snapshots)
    # ------------------------------------------------------------------

    def checkpoint(self) -> Checkpoint:
        """The checkpoint a follower should bootstrap from right now.

        The current checkpoint is reused while its tail is still fully
        retained by the delta log and shorter than
        :attr:`CHECKPOINT_REFRESH_RECORDS` (the common path: N replicas
        or a restart share one file + a short tail). Otherwise — none
        yet, a long tail, or a checkpoint that predates the log's
        truncation horizon — one is captured at the current epoch,
        replacing the old file; its tail is empty, so that bootstrap is
        checkpoint-only.
        """
        with self._lock:
            latest = self._checkpoints.latest
            if latest is not None:
                # None: the tail fell off the log's truncation horizon.
                tail = self.store.delta_log.record_count_since(latest.epoch)
                if tail is not None \
                        and tail <= self.CHECKPOINT_REFRESH_RECORDS:
                    return latest
            return self._checkpoints.capture(self.store)

    def bootstrap(self, load: Callable[[Checkpoint, list[bytes]], bool],
                  ) -> tuple[Checkpoint, list[bytes], bool]:
        """Bring one follower to the leader: checkpoint + binary tail.

        ``load(checkpoint, tail)`` is the follower's load step: load the
        file, apply the tail, and return ``False`` — with nothing
        half-applied — when the file cannot be loaded. The one fault
        policy every follower shares: when the load fails, or the log
        truncated past the checkpoint between capture and ship, the
        checkpoint is dropped and one fresh capture is tried.

        Returns ``(checkpoint, tail, recaptured)``. The follower's cursor
        is ``checkpoint.epoch + len(tail)``, not the leader epoch by the
        time the load finished: a write landing after the tail was read
        belongs to the next ship.

        Raises:
            ReplicaUnavailable: the fresh capture could not be loaded
                either.
        """
        for recaptured in (False, True):
            ckpt = self.checkpoint()
            tail = self.ship_binary_since(ckpt.epoch)
            if tail is not None and load(ckpt, tail):
                return ckpt, tail, recaptured
            with self._lock:
                if self._checkpoints.latest == ckpt:
                    self._checkpoints.invalidate()
        raise ReplicaUnavailable(
            f"follower could not load a fresh checkpoint at epoch "
            f"{ckpt.epoch}")

    def close(self) -> None:
        """Delete the checkpoint directory; a closed log captures no
        more. Idempotent."""
        with self._lock:
            self._checkpoints.close()


class Replica:
    """A read-only follower serving queries from its own armed snapshot.

    Args:
        log: the leader's :class:`ReplicationLog`.
        replica_id: cosmetic identifier used by the router and stats.
        registry: the process :class:`~repro.obs.MetricsRegistry` backing
            the counters below (attribute names unchanged — see
            :class:`repro.obs.MetricAttr`); ``None`` creates a private
            one, so standalone replicas need no wiring.
    """

    #: Number of re-bootstraps forced by log truncation or divergence.
    resyncs = MetricAttr("resyncs")
    #: Total shipped batches applied since construction.
    batches_applied = MetricAttr("batches_applied")
    #: Total queries served (maintained by the router).
    queries_served = MetricAttr("queries_served")

    def __init__(self, log: ReplicationLog, replica_id: int = 0,
                 registry=None, obs_prefix: str | None = None):
        self._log = log
        self.replica_id = replica_id
        self._obs_registry = registry if registry is not None \
            else MetricsRegistry()
        # Sharded clusters pass "shard{k}.replica{i}" so per-shard fleets
        # sharing one registry never collide on counter names.
        self._obs_prefix = obs_prefix if obs_prefix is not None \
            else f"replica{replica_id}"
        #: Held by whichever thread is replaying into or reading from this
        #: replica (see :func:`leased`).
        self.lease = threading.RLock()
        self._bootstrap()

    def _bootstrap(self) -> None:
        """(Re-)build local state from the leader's checkpoint + tail."""
        self._log.bootstrap(self._load)

    def _load(self, ckpt: Checkpoint, tail: list[bytes]) -> bool:
        """The load step :meth:`ReplicationLog.bootstrap` drives: install
        the checkpoint plus its tail, or report ``False`` with the current
        state untouched when the file cannot be read."""
        try:
            store = read_checkpoint(ckpt.path)
        except (SerializationError, OSError):
            return False
        for payload in tail:
            store.apply_replicated_batch(
                *batch_from_wire(unpack_batch_frame(payload)))
        self.batches_applied += len(tail)
        self.store = store
        self.graph = ProvenanceGraph(store)
        self._snapshot = GraphSnapshot(self.graph)
        self._operator = PgSegOperator(self.graph, snapshot=self._snapshot)
        return True

    # ------------------------------------------------------------------
    # Catch-up protocol
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The epoch this replica has replayed up to."""
        return self.store.epoch

    @property
    def lag(self) -> int:
        """Epochs behind the leader."""
        return self._log.epoch - self.epoch

    @leased
    def catch_up(self) -> int:
        """Replay every batch the leader has shipped since our epoch.

        Returns the number of batches applied (a full re-sync counts as
        the whole missing span). Applying nothing is a cheap no-op, so the
        router calls this on the read path for read-your-writes routing.
        """
        start_epoch = self.epoch
        span = self._log.ship_binary_since(start_epoch)
        if span is None:
            # The span fell out of the leader's bounded log: full re-sync,
            # exactly like GraphSnapshot.advance falling back to a rebuild.
            self._bootstrap()
            self.resyncs += 1
            return self.epoch - start_epoch
        # Decode first: a malformed payload is a codec bug and must
        # propagate — only *apply* failures mean this follower diverged.
        decoded = [batch_from_wire(unpack_batch_frame(payload))
                   for payload in span]
        try:
            for batch, payloads in decoded:
                self.store.apply_replicated_batch(batch, payloads)
        except (ValueError, StoreError, ModelError):
            # Divergence — an epoch gap, an id mismatch, or a delta that no
            # longer applies to the local state (possibly mid-batch, with
            # earlier deltas already applied): the local state is untrusted,
            # so honor apply_replicated_batch's contract and bootstrap again
            # instead of wedging forever. The span counted is
            # everything covered since entry, including already-applied
            # batches superseded by the re-sync.
            self._bootstrap()
            self.resyncs += 1
            return self.epoch - start_epoch
        self.batches_applied += len(decoded)
        return len(decoded)

    def snapshot(self) -> GraphSnapshot:
        """The replica's memoized read snapshot at its replayed epoch.

        Advanced incrementally through the replica's own delta log (which
        mirrors the leader's batches), with the shared crossover policy.
        """
        if self._snapshot.epoch != self.store.epoch:
            self._snapshot = self._snapshot.advance(self.store)
            self._operator.snapshot = self._snapshot
        return self._snapshot

    # ------------------------------------------------------------------
    # Read serving (ids are leader ids: replication is id-exact)
    # ------------------------------------------------------------------

    @leased
    def lineage(self, entity: int,
                max_depth: int | None = None) -> Lineage:
        """Ancestry walk served from the replica snapshot."""
        return _lineage(self.graph, entity, max_depth=max_depth,
                        snapshot=self.snapshot())

    @leased
    def impacted(self, entity: int,
                 max_depth: int | None = None) -> Lineage:
        """Impact walk served from the replica snapshot."""
        return _impacted(self.graph, entity, max_depth=max_depth,
                         snapshot=self.snapshot())

    @leased
    def blame(self, entity: int) -> dict[int, set[int]]:
        """Blame report served from the replica snapshot."""
        return _blame(self.graph, entity, snapshot=self.snapshot())

    @leased
    def segment(self, query: PgSegQuery) -> Segment:
        """PgSeg served by this replica's epoch-synced operator."""
        self.snapshot()                    # arm the operator fast path
        return self._operator.evaluate(query)

    @leased
    def summarize(self, queries: "list[PgSegQuery]",
                  pgsum: PgSumQuery) -> Psg:
        """PgSum over per-query segments, evaluated entirely replica-side.

        The in-process twin of
        :meth:`repro.serve.pool.WorkerClient.summarize`: each segment is
        produced by this replica's epoch-synced operator (so repeat
        queries hit its segment cache), then merged with
        :class:`~repro.summarize.pgsum.PgSumOperator` against the
        replica's own store.
        """
        self.snapshot()                    # arm the operator fast path
        segments = [self._operator.evaluate(query) for query in queries]
        return PgSumOperator(segments).evaluate(pgsum)

    @leased
    def cypher(self, text: str, budget: Budget | None = None) -> list:
        """CypherLite rows served from the replica snapshot."""
        return run_query(self.graph, text, budget, snapshot=self.snapshot())

    @leased
    def query_many(self,
                   specs: "list[tuple[str, dict[str, Any]]]") -> list[Any]:
        """Serve a batch of query specs in order, with per-spec isolation.

        The in-process twin of
        :meth:`repro.serve.pool.WorkerClient.query_many`: ``specs`` are
        ``(method, params)`` pairs (``lineage`` / ``impacted`` / ``blame``
        take ``entity`` + optional ``max_depth``; ``segment`` takes a
        :class:`PgSegQuery` under ``"query"``; ``cypher`` takes ``text``
        + optional ``budget``). Each entry of the returned list is the
        result — or the exception *instance* a failing spec raised, so
        one bad request never poisons its siblings (the same error
        isolation a worker bundle guarantees across the wire).
        """
        for method, _ in specs:
            if method not in QUERY_METHODS:    # caller bug, not a query error
                raise ValueError(f"unknown query_many method {method!r}")
        results: list[Any] = []
        for method, params in specs:
            try:
                if method in ("lineage", "impacted"):
                    serve = self.lineage if method == "lineage" \
                        else self.impacted
                    results.append(serve(
                        int(params["entity"]),
                        max_depth=params.get("max_depth")))
                elif method == "blame":
                    results.append(self.blame(int(params["entity"])))
                elif method == "segment":
                    results.append(self.segment(params["query"]))
                else:
                    results.append(self.cypher(
                        str(params["text"]), params.get("budget")))
            except Exception as exc:       # noqa: BLE001 - isolated
                results.append(exc)
        return results

    def stats(self) -> dict[str, Any]:
        """Replication/serving counters for dashboards and tests."""
        return {
            "replica_id": self.replica_id,
            "epoch": self.epoch,
            "lag": self.lag,
            "batches_applied": self.batches_applied,
            "resyncs": self.resyncs,
            "queries_served": self.queries_served,
        }

    def __repr__(self) -> str:   # pragma: no cover - cosmetic
        return (
            f"Replica(id={self.replica_id}, epoch={self.epoch}, "
            f"lag={self.lag}, resyncs={self.resyncs})"
        )
