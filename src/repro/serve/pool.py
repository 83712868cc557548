"""WorkerPool: N read replicas, each a worker behind a client handle.

A :class:`WorkerPool` runs N :class:`~repro.serve.worker.ReplicaWorker`
followers, bootstraps each from the leader's snapshot checkpoint plus
the delta-log tail, and hands back one :class:`WorkerClient` per worker
— the ``epoch`` / ``catch_up()`` / query-family surface the
:class:`~repro.serve.cluster.QueryRouter` and
:class:`~repro.serve.cluster.ProvCluster` route. ``ServeConfig.
out_of_process`` only chooses how a worker is spawned:

- ``True``: a ``repro.cli serve-worker`` subprocess that dials back to
  the pool's loopback listener and upgrades its stream to
  ``repro-wire-v2`` binary framing (``hello`` -> ``welcome``);
- ``False``: the same worker, built with the arguments ``serve-worker``
  would pass it, behind a :class:`~repro.serve.transport.MemoryTransport`
  that runs it on the calling thread. Frames cross as dicts, so every
  record codec still runs; only JSON text is skipped.

Catch-up stays leader-driven and **in-order**: shipping writes the
missing batch frames onto the worker's stream immediately before the
stamped request, and the worker processes frames serially, so
read-your-writes needs no acknowledgement round-trip.

**Pipelining.** Responses are correlated through a pending-request map,
not a lockstep id check: a client can put N request frames (or one
``requests`` bundle) on the wire before draining any answer, and answers
are matched by id as they arrive. A response for an id no longer pending
— e.g. the answer to a request abandoned by a timeout — is dropped and
counted (``late_responses``), never fatal: the worker is healthy, it was
merely slow. :meth:`WorkerClient.begin_many` / :meth:`collect_many` are
the bundle surface :meth:`repro.serve.cluster.ProvCluster.query_many`
fans out over.

Failure handling (the contract ``tests/test_serve_pool.py`` pins):

- a worker crash (kill, divergence exit, hang past the deadline; an
  in-process worker that raises or diverges closes its link) surfaces
  as :class:`~repro.errors.ReplicaUnavailable` after the pool has already
  respawned the worker and queued its full re-sync — the router then
  retries the query on the next replica in rotation, so no query is lost;
- a request timeout on a clean frame boundary abandons only that request
  (the transport and worker stay up; the late answer is dropped on
  arrival); a timeout that tore a frame mid-read poisons the transport
  (see :mod:`repro.serve.transport`) and takes the crash path —
  restart + full re-sync — because the stream can no longer be framed;
- :meth:`WorkerPool.health_check` proactively pings every worker and
  restarts the dead ones (crash recovery off the read path);
- killing the pool (or the leader process) closes every control stream,
  and workers exit on EOF — no leaked processes or fds (transport close
  sweeps the socket's ``makefile`` wrappers too).

Every read crosses the wire, PgSeg queries with boundary criteria and
property keys included (:func:`~repro.serve.wire.query_call_to_wire`);
a query with no record — a predicate or key built as a bare callable —
raises :class:`~repro.errors.SerializationError` and is never evaluated
here.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
from functools import wraps
from pathlib import Path
from typing import Any
from uuid import uuid4

from repro.errors import (
    ReplicaUnavailable,
    SerializationError,
    TransportClosed,
    TransportTimeout,
)
from repro.model.graph import ProvenanceGraph
from repro.obs import MetricAttr, NullRegistry, ObsContext
from repro.query.cypherlite import Budget
from repro.query.ops import Lineage
from repro.segment.pgseg import PgSegQuery, Segment
from repro.serve.api import ServeConfig
from repro.serve.methods import METHODS, RawResult
from repro.serve.replication import ReplicationLog
from repro.serve.transport import BinaryTransport, LineTransport, MemoryTransport
from repro.serve.wire import (
    WIRE_FORMAT_V2,
    checkpoint_frame,
    error_from_wire,
    hello_from_wire,
    hello_wire_formats,
    ping_frame,
    pong_from_wire,
    query_call_to_wire,
    request_to_wire,
    requests_bundle_to_wire,
    response_from_wire,
    response_trace_from_wire,
    responses_bundle_from_wire,
    shutdown_frame,
    welcome_frame,
)
from repro.serve.worker import ReplicaWorker

#: Pong keys that are point-in-time (not cumulative): a restart fold
#: takes the latest value, never a sum.
_PONG_GAUGE_KEYS = frozenset({"cache_size", "view_count"})

#: Pong keys that identify the spawn rather than count anything.
_PONG_IDENTITY_KEYS = frozenset({"worker_id", "generation"})


def leased(method):
    """Run a client method holding that client's ``lease``.

    The lease (a ``threading.RLock`` on every :class:`WorkerClient`) is
    the ownership rule: one thread at a time touches a worker's stream or
    state. Whoever holds several takes them in ``replica_id`` order.
    """
    @wraps(method)
    def run(self, *args, **kwargs):
        with self.lease:
            return method(self, *args, **kwargs)
    return run


def _worker_env() -> dict[str, str]:
    """The child environment: this repro package importable via PYTHONPATH."""
    src_root = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if src_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            src_root + (os.pathsep + existing if existing else "")
        )
    return env


class WorkerClient:
    """The pool's handle on one worker, process or in-memory.

    The pool tracks the worker's replayed ``epoch`` leader-side (shipping
    is in-order and unacknowledged); responses echo the worker's epoch so
    the stamp accounting is verified on every answer. Multiple requests
    may be in flight at once (see the pending map in the module
    docstring). One thread at a time owns the client: every method that
    touches the stream, the cursor or the pending map runs under
    :attr:`lease` (:func:`leased`), so a
    leader-side ``summarize`` racing a front-end batch waits its turn
    instead of reading the other's frames — and an in-memory worker
    computes under the lease of the thread that asked it. Distinct
    clients are fully independent (own worker, own stream, own lease).
    """

    #: Each counter is backed by the pool registry under
    #: ``pool.worker<i>.<name>``.
    resyncs = MetricAttr("resyncs")
    restarts = MetricAttr("restarts")
    batches_shipped = MetricAttr("batches_shipped")
    queries_served = MetricAttr("queries_served")
    #: Responses for requests nobody was waiting on anymore (dropped).
    late_responses = MetricAttr("late_responses")
    #: Requests abandoned by a deadline (worker kept unless poisoned).
    timeouts = MetricAttr("timeouts")
    #: Mid-frame timeouts that poisoned the transport (crash path).
    poisoned = MetricAttr("poisoned")
    #: Bundles put on the wire via begin_many.
    bundles_sent = MetricAttr("bundles_sent")

    def __init__(self, pool: "WorkerPool", replica_id: int):
        self._pool = pool
        self.replica_id = replica_id
        self._obs_registry = pool.obs.registry
        self._obs_prefix = f"{pool.obs_label}.worker{replica_id}"
        #: The ownership lock. Order: leases by ascending ``replica_id``,
        #: then the pool's ``_restart_lock`` — never the reverse.
        self.lease = threading.RLock()
        #: The worker process (``None`` for an in-memory worker).
        self.proc: subprocess.Popen | None = None
        self.transport: BinaryTransport | MemoryTransport | None = None
        #: The epoch the pool has shipped this worker up to.
        self.epoch = -1
        self._next_request = 0
        #: Request ids on the wire with no consumed answer yet.
        self._pending: set[int] = set()
        #: Answers that arrived while awaiting a different id:
        #: request id -> (ok, payload).
        self._arrived: dict[int, tuple[bool, Any]] = {}
        #: Traced in-flight requests: request id -> (trace_id, t_send).
        self._trace_marks: dict[int, tuple[str, float]] = {}
        #: Restart-aware pong accounting (see stats()): counters folded
        #: from completed spawns, and the latest pong of the current one.
        self._pong_base: dict[str, Any] = {}
        self._pong_last: dict[str, Any] = {}
        #: Last shipped-but-unobserved batch: (epoch, t_ship). The first
        #: answer/pong echoing that epoch observes ship->apply latency.
        self._ship_mark: tuple[int, float] | None = None
        self._apply_hist = pool.obs.registry.histogram(
            "replication.ship_apply_s")
        self._roundtrip_hist = pool.obs.registry.histogram(
            "pool.transport_roundtrip_s")

    # ------------------------------------------------------------------
    # Replication surface (router-facing)
    # ------------------------------------------------------------------

    @property
    def lag(self) -> int:
        """Epochs behind the leader (by the pool's shipping ledger)."""
        return self._pool.log.epoch - self.epoch

    def alive(self) -> bool:
        """True while the worker process runs (or its link is open)."""
        if self.proc is not None:
            return self.proc.poll() is None
        return isinstance(self.transport, MemoryTransport) \
            and not self.transport.closed

    @leased
    def catch_up(self) -> int:
        """Ship every batch since our epoch (or a full re-sync).

        Raises:
            ReplicaUnavailable: the worker died mid-ship; it has already
                been restarted and re-synced, the router should retry the
                read on the next replica.
        """
        start = self.epoch
        stream = self.transport
        if stream is None:
            # A previously failed restart left us detached; a successful
            # restart here *is* the catch-up (full re-sync to the leader).
            self._pool.restart(self, failed=None)
            return self.epoch - start
        try:
            return self._pool.ship(self)
        except (TransportClosed, TransportTimeout) as exc:
            self._pool.restart(self, failed=stream)
            raise ReplicaUnavailable(
                f"worker {self.replica_id} died during catch-up from "
                f"epoch {start} (restarted + re-synced)"
            ) from exc

    # ------------------------------------------------------------------
    # Request plumbing (pending-map correlation; pipelining-safe)
    # ------------------------------------------------------------------

    def _ensure_transport(self) -> BinaryTransport | MemoryTransport:
        """The live stream, healing a detached client first.

        A previously failed restart leaves ``transport is None``; heal
        (or raise ReplicaUnavailable) before touching the wire, so a
        broken client never leaks an AttributeError past the router.
        """
        stream = self.transport
        if stream is None:
            self._pool.restart(self, failed=None)
            stream = self.transport
        return stream

    def _accept(self, frame: dict[str, Any]) -> None:
        """File one response frame into the pending map (or drop it)."""
        got_id, epoch, ok, payload = response_from_wire(frame)
        self._observe_apply(epoch)
        mark = self._trace_marks.pop(got_id, None)
        if mark is not None:
            self._record_trace(mark, frame)
        if got_id in self._pending:
            if epoch > self.epoch:
                # The worker's replayed epoch is authoritative when it is
                # *ahead* of the shipping ledger (e.g. an unnoticed
                # restart re-synced it). An echo *behind* the ledger is
                # just a pipelined answer computed before later-shipped
                # batches — regressing the cursor from it would re-ship
                # applied batches, which the worker must treat as
                # divergence.
                self.epoch = epoch
            self._pending.discard(got_id)
            self._arrived[got_id] = (ok, payload)
        else:
            # The answer to an abandoned (timed-out) or superseded
            # request: the worker is healthy — drop, count, carry on.
            # Its epoch is stale by definition (batches may have shipped
            # since it was computed); adopting it would regress the
            # shipping cursor and re-ship already-applied batches, which
            # the worker must treat as divergence.
            self.late_responses += 1

    def _observe_apply(self, echoed_epoch: int) -> None:
        """Observe ship->apply latency: the first echo at (or past) the
        last-shipped epoch proves the worker applied that batch."""
        mark = self._ship_mark
        if mark is not None and echoed_epoch >= mark[0]:
            self._apply_hist.observe(time.perf_counter() - mark[1])
            self._ship_mark = None

    def _record_trace(self, mark: tuple[str, float],
                      frame: dict[str, Any]) -> None:
        """Append this hop's spans for a traced request.

        The transport span is the round trip *minus* the worker's own
        reported compute — wire time plus queueing behind pipelined
        siblings — so a trace's spans stay disjoint and sum to at most
        the caller's wall time.
        """
        trace_id, t_send = mark
        roundtrip = time.perf_counter() - t_send
        self._roundtrip_hist.observe(roundtrip)
        try:
            worker_spans = response_trace_from_wire(frame) or []
        except SerializationError:
            worker_spans = []
        worker_s = sum(entry.get("dur_s", 0.0) for entry in worker_spans)
        collector = self._pool.obs.collector
        collector.add_span(trace_id, "transport", "roundtrip",
                           max(0.0, roundtrip - worker_s),
                           replica_id=self.replica_id)
        if worker_spans:
            collector.extend(trace_id, worker_spans)

    def _absorb(self, frame: dict[str, Any]) -> bool:
        """Consume response/event frames; False for anything else."""
        kind = frame.get("kind")
        if kind == "event":
            # Unsolicited (e.g. "diverged" right before the worker
            # exits); keep draining — a crash shows up as EOF.
            return True
        if kind == "response":
            self._accept(frame)
            return True
        if kind == "responses":
            _, responses = responses_bundle_from_wire(frame)
            for inner in responses:
                self._accept(inner)
            return True
        return False

    def _send_calls(self,
                    calls: "list[tuple[str, dict[str, Any]]]",
                    trace_ids: "list[str | None] | None" = None,
                    ) -> list[int]:
        """Put one frame on the wire: a single request, or one bundle.

        Returns the allocated request ids (now pending), in call order.
        ``trace_ids`` (parallel to ``calls``) tags traced requests: their
        ids are marked so the answering frame records a transport span
        and splices the worker's spans in (see :meth:`_record_trace`).
        """
        stream = self._ensure_transport()
        ids = []
        for _ in calls:
            ids.append(self._next_request)
            self._next_request += 1
        if trace_ids is None:
            trace_ids = [None] * len(calls)
        if len(calls) == 1:
            method, params = calls[0]
            frame = request_to_wire(ids[0], method, params,
                                    trace_id=trace_ids[0])
        else:
            frame = requests_bundle_to_wire([
                (request_id, method, params)
                for request_id, (method, params) in zip(ids, calls)
            ], trace_ids=trace_ids)
            self.bundles_sent += 1
        now = time.perf_counter()
        for request_id, trace_id in zip(ids, trace_ids):
            if trace_id is not None:
                self._trace_marks[request_id] = (trace_id, now)
        try:
            # Bounded send: a worker that stopped draining its stream
            # (e.g. itself blocked writing a huge late response) must
            # surface as a timeout -> crash path, never a client that
            # blocks in write forever with no deadline anywhere.
            stream.send(frame, timeout=self._pool.request_timeout)
        except (TransportClosed, TransportTimeout) as exc:
            self._pool.restart(self, failed=stream)
            raise ReplicaUnavailable(
                f"worker {self.replica_id} died taking a request "
                f"(restarted + re-synced)"
            ) from exc
        self._pending.update(ids)
        return ids

    def _await(self, request_id: int) -> tuple[bool, Any]:
        """Block until ``request_id``'s answer is available.

        Out-of-order safe: frames for *other* pending ids arriving first
        are filed, frames for unknown ids are dropped and counted.

        Raises:
            ReplicaUnavailable: the worker died (restarted + re-synced),
                or the deadline expired — on a clean frame boundary only
                this request is abandoned and the worker is kept; on a
                torn frame the transport is poisoned and the crash path
                (restart + re-sync) is taken.
        """
        if request_id in self._arrived:
            return self._arrived.pop(request_id)
        if request_id not in self._pending:
            raise ReplicaUnavailable(
                f"worker {self.replica_id} request {request_id} is no "
                f"longer pending (worker restarted or request abandoned)"
            )
        stream = self.transport
        if stream is None:
            raise ReplicaUnavailable(
                f"worker {self.replica_id} restarted while request "
                f"{request_id} was in flight"
            )
        timeout = self._pool.request_timeout
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        try:
            while True:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                frame = stream.recv(timeout=remaining)
                if not self._absorb(frame):
                    continue      # stray non-response frame: keep going
                if request_id in self._arrived:
                    return self._arrived.pop(request_id)
        except TransportTimeout as exc:
            self._pending.discard(request_id)
            self.timeouts += 1
            if stream.poisoned:
                # Partial frame on the stream: unframeable, treat the
                # timeout exactly like a crash.
                self.poisoned += 1
                self._pool.restart(self, failed=stream)
                raise ReplicaUnavailable(
                    f"worker {self.replica_id} timed out mid-frame on "
                    f"request {request_id} (restarted + re-synced)"
                ) from exc
            raise ReplicaUnavailable(
                f"worker {self.replica_id} timed out serving request "
                f"{request_id} (request abandoned; worker kept)"
            ) from exc
        except TransportClosed as exc:
            self._pool.restart(self, failed=stream)
            raise ReplicaUnavailable(
                f"worker {self.replica_id} died serving request "
                f"{request_id} (restarted + re-synced)"
            ) from exc

    @leased
    def _request(self, method: str, params: dict[str, Any]) -> Any:
        """One request's ok answer as JSON values: a text that crossed a
        socket is parsed here, for the caller's domain decoder."""
        [request_id] = self._send_calls([(method, params)])
        ok, payload = self._await(request_id)
        if not ok:
            raise error_from_wire(payload)
        return payload.value

    # ------------------------------------------------------------------
    # Batched serving (spec form shared with the cluster)
    # ------------------------------------------------------------------

    @leased
    def begin_many(self, specs: "list[tuple[str, dict[str, Any]]]",
                   trace_ids: "list[str | None] | None" = None,
                   ) -> "_BundleHandle":
        """Pipeline a batch of query specs as one ``requests`` bundle.

        ``specs`` are ``(method, params)`` pairs in *domain* form,
        encoded here by the method's row
        (:func:`~repro.serve.wire.query_call_to_wire`). A spec the codec
        refuses never goes on the wire: its
        :class:`~repro.errors.SerializationError` is its result. The
        bundle frame goes on the wire before this method returns, so
        several workers' bundles can be in flight at once; redeem the
        handle with :meth:`collect_many`.

        Raises:
            ReplicaUnavailable: the worker died taking the bundle
                (restarted + re-synced; retry on another replica).
            ValueError: an unknown spec method (caller bug).
        """
        if trace_ids is None:
            trace_ids = [None] * len(specs)
        entries: list[tuple[str, int | SerializationError]] = []
        wire_calls: list[tuple[str, dict[str, Any]]] = []
        wire_traces: list[str | None] = []
        for (method, params), trace_id in zip(specs, trace_ids):
            try:
                wire_calls.append(query_call_to_wire(method, params))
            except SerializationError as exc:
                entries.append((method, exc))
                continue
            entries.append((method, len(wire_calls) - 1))
            wire_traces.append(trace_id)
        ids = self._send_calls(wire_calls, wire_traces) if wire_calls else []
        return _BundleHandle(entries, ids)

    @leased
    def collect_many(self, handle: "_BundleHandle",
                     raw: bool = False) -> list[Any]:
        """Redeem a :meth:`begin_many` handle, in spec order.

        Returns one entry per spec: the decoded result, or the rebuilt
        exception *instance* for a request the worker answered with an
        error (per-request isolation — a bad request never poisons its
        siblings). A transport-level failure is different: the whole
        bundle is abandoned and :class:`~repro.errors.ReplicaUnavailable`
        raised so the caller can retry the batch on another replica.

        With ``raw=True`` an ok wire answer comes back as a
        :class:`RawResult` (undecoded payload) instead of a domain
        object — for consumers that re-serve the wire format. Error
        entries are still exception instances.
        """
        results: list[Any] = []
        try:
            for method, slot in handle.entries:
                if isinstance(slot, SerializationError):
                    results.append(slot)
                    continue
                ok, payload = self._await(handle.ids[slot])
                if not ok:
                    results.append(error_from_wire(payload))
                elif raw:
                    results.append(RawResult(method, payload))
                else:
                    results.append(METHODS[method].result_from_wire(
                        payload.value, self._pool.graph))
        except ReplicaUnavailable:
            self.abandon(handle.ids)
            raise
        return results

    @leased
    def query_many(self,
                   specs: "list[tuple[str, dict[str, Any]]]") -> list[Any]:
        """One-shot :meth:`begin_many` + :meth:`collect_many`."""
        if not specs:
            return []
        return self.collect_many(self.begin_many(specs))

    def abandon(self, ids: "list[int]") -> None:
        """Forget in-flight requests; their late answers will be dropped
        (and counted) instead of filed."""
        for request_id in ids:
            self._pending.discard(request_id)
            self._arrived.pop(request_id, None)
            # The trace itself survives (a re-routed retry keeps adding
            # spans); only this request's transport mark is forgotten.
            self._trace_marks.pop(request_id, None)

    # ------------------------------------------------------------------
    # Read serving (ids are leader ids: replication is id-exact)
    # ------------------------------------------------------------------

    def call(self, method: str, params: dict[str, Any]) -> Any:
        """One read served by the worker, ``params`` and the answer in
        domain form (the method's row codes both). Segments and rows
        are rebound to the leader graph, so their accessors resolve
        records exactly as on an answer evaluated in-process."""
        row = METHODS[method]
        return row.result_from_wire(
            self._request(method, row.params_to_wire(params)),
            self._pool.graph)

    def lineage(self, entity: int, max_depth: int | None = None) -> Lineage:
        return self.call("lineage", {"entity": entity, "max_depth": max_depth})

    def impacted(self, entity: int,
                 max_depth: int | None = None) -> Lineage:
        return self.call("impacted",
                         {"entity": entity, "max_depth": max_depth})

    def blame(self, entity: int) -> dict[int, set[int]]:
        return self.call("blame", {"entity": entity})

    def segment(self, query: PgSegQuery) -> Segment:
        return self.call("segment", {"query": query})

    def summarize(self, queries: "list[PgSegQuery]", pgsum) -> Any:
        """A merged PgSum summary: every segment *and* the merge at one
        replayed epoch, answered from the worker's materialized view."""
        return self.call("summarize", {"queries": queries, "pgsum": pgsum})

    def cypher(self, text: str, budget: Budget | None = None) -> list:
        return self.call("cypher", {"text": text, "budget": budget})

    # ------------------------------------------------------------------

    @leased
    def ping(self, timeout: float | None = None) -> tuple[int, dict]:
        """Health probe; returns ``(worker_epoch, worker_stats)``.

        The worker's serving counters include the result-cache telemetry
        (``cache_hits`` / ``cache_misses`` / ``cache_size``), so cache
        effectiveness is observable without a dedicated frame. Late
        responses arriving ahead of the pong are absorbed into the
        pending map, not mistaken for a bad pong.
        """
        if self.transport is None:
            raise TransportClosed(
                f"worker {self.replica_id} has no transport (failed "
                f"restart)"
            )
        self.transport.send(ping_frame())
        deadline = timeout if timeout is not None \
            else self._pool.ping_timeout
        while True:
            frame = self.transport.recv(timeout=deadline)
            if self._absorb(frame):
                continue
            epoch, stats = pong_from_wire(frame)
            self._observe_apply(epoch)
            self._note_pong(stats)
            return epoch, stats

    def metrics(self) -> dict[str, Any]:
        """The worker's registry snapshot + recent worker-side traces
        (the ``metrics`` wire method)."""
        return self._request("metrics", {})

    # ------------------------------------------------------------------
    # Restart-aware pong accounting
    # ------------------------------------------------------------------

    def _note_pong(self, stats: dict[str, Any]) -> None:
        """Track the latest pong, folding across a generation change.

        The normal restart path folds in :meth:`_discard_process`; the
        generation check here additionally catches a worker that was
        restarted *without* this client observing the teardown (defense
        in depth — generations are stamped on the worker command line
        precisely so resets are detectable).
        """
        if not stats:
            return
        if self._pong_last and \
                stats.get("generation") != self._pong_last.get("generation"):
            self._fold_pong()
        self._pong_last = dict(stats)

    def _fold_pong(self) -> None:
        """Accumulate the dying spawn's counters into the fold base."""
        for key, value in self._pong_last.items():
            if key in _PONG_IDENTITY_KEYS or key in _PONG_GAUGE_KEYS:
                continue
            if isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                self._pong_base[key] = self._pong_base.get(key, 0) + value
        self._pong_last = {}

    def _folded_worker_counters(self) -> dict[str, Any]:
        """Worker counters continuous across restarts (base + current)."""
        folded = dict(self._pong_base)
        for key, value in self._pong_last.items():
            if key in _PONG_IDENTITY_KEYS or key in _PONG_GAUGE_KEYS:
                folded[key] = value
            elif isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                folded[key] = folded.get(key, 0) + value
            else:
                folded[key] = value
        return folded

    def stats(self) -> dict[str, Any]:
        """Replication/serving counters.

        ``generation`` is the worker's current spawn generation — the
        restart count the pool stamped on its command line, matched by
        the ``generation`` the worker echoes in pong stats — so
        cumulative counters can be read restart-aware from the client
        side alone.

        ``worker`` carries the worker-process counters of the last
        observed pong **folded across restarts** (a respawn's counter
        reset is absorbed into a running base, so rate math needs no
        hand-applied generation resets); ``raw`` keeps the un-folded
        values — the current spawn's counters exactly as the worker
        reported them.
        """
        self._obs_registry.gauge(self._obs_prefix + ".lag").set(self.lag)
        return {
            "replica_id": self.replica_id,
            "epoch": self.epoch,
            "lag": self.lag,
            "alive": self.alive(),
            "batches_shipped": self.batches_shipped,
            "resyncs": self.resyncs,
            "restarts": self.restarts,
            "generation": self.restarts,
            "queries_served": self.queries_served,
            "late_responses": self.late_responses,
            "timeouts": self.timeouts,
            "poisoned": self.poisoned,
            "bundles_sent": self.bundles_sent,
            "worker": self._folded_worker_counters(),
            "raw": {"worker": dict(self._pong_last)},
        }

    # ------------------------------------------------------------------

    def _attach(self, proc: subprocess.Popen | None,
                transport: BinaryTransport | MemoryTransport) -> None:
        self.proc = proc
        self.transport = transport

    def _discard_process(self) -> None:
        """Drop the current worker hard (crash path / teardown)."""
        if self.transport is not None:
            self.transport.close()
            self.transport = None
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc = None
        # Every in-flight request died with the worker; late answers can
        # never arrive on the fresh stream (ids are never reused, so a
        # stale entry could only leak memory, not misroute).
        self._pending.clear()
        self._arrived.clear()
        self._trace_marks.clear()
        self._ship_mark = None
        # The dying spawn's last-seen counters roll into the fold base so
        # stats() stays continuous across the restart.
        self._fold_pong()

    def __repr__(self) -> str:   # pragma: no cover - cosmetic
        return (
            f"WorkerClient(id={self.replica_id}, epoch={self.epoch}, "
            f"alive={self.alive()}, restarts={self.restarts})"
        )


class _BundleHandle:
    """An in-flight begin_many bundle: one ``(method, slot)`` entry per
    spec — an index into the wire request ids, or the encode error."""

    __slots__ = ("entries", "ids")

    def __init__(self, entries: list[tuple[str, int | SerializationError]],
                 ids: list[int]):
        self.entries = entries
        self.ids = ids


class WorkerPool:
    """Spawns and replicates to N replica workers.

    Args:
        source: the leader — a :class:`ProvenanceGraph`, a bare store, or
            anything exposing ``.store``. Stays the sole writer.
        count: number of workers.
        request_timeout: seconds to wait for one answer before declaring
            the request lost (None = wait forever). A clean-boundary
            timeout abandons the request and keeps the worker; a
            mid-frame timeout restarts it.
        spawn_timeout: seconds to wait for a spawned worker's handshake.
        config: a :class:`~repro.serve.api.ServeConfig`; mutually
            exclusive with the ``count=`` shorthand for
            ``ServeConfig(replicas=count)``. ``config.out_of_process``
            chooses worker processes or in-memory workers.
    """

    def __init__(self, source, count: int | None = None,
                 request_timeout: float | None = 120.0,
                 spawn_timeout: float = 60.0,
                 ping_timeout: float = 10.0,
                 config: "ServeConfig | None" = None,
                 obs: ObsContext | None = None,
                 shard: int | None = None):
        config = ServeConfig.of(config, replicas=count)
        self.config = config
        #: The leader process's observability handle. The cluster passes
        #: its own so leader, pool, and front-end share one registry; a
        #: bare pool builds one from the config.
        self.obs = obs if obs is not None else ObsContext.of(config)
        #: Shard index when this pool serves one shard of a ShardedCluster
        #: (``None`` standalone). Stamped on worker command lines and on
        #: every metric label, so per-shard fleets sharing one registry
        #: never collide — and operators can read per-shard lag directly.
        self.shard = shard
        self.obs_label = "pool" if shard is None else f"shard{shard}.pool"
        store = getattr(source, "store", source)
        self.graph = source if isinstance(source, ProvenanceGraph) \
            else ProvenanceGraph(store)
        self.log = ReplicationLog(store)
        self.request_timeout = request_timeout
        self.spawn_timeout = spawn_timeout
        self.ping_timeout = ping_timeout
        self._restart_lock = threading.Lock()
        self._closed = False
        self._listener: socket.socket | None = None
        if config.out_of_process:
            self._env = _worker_env()
            self._token = uuid4().hex
            self._listener = socket.create_server(("127.0.0.1", 0))
            self._listener.settimeout(spawn_timeout)
        self.clients = [WorkerClient(self, i)
                        for i in range(config.replicas)]
        try:
            self._bootstrap()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------

    def _spawn(self, clients: list[WorkerClient]) -> None:
        """Start one worker per client and attach it: the one spawn branch.

        In-process, each worker is built with exactly the arguments
        ``serve-worker`` would pass it, behind a
        :class:`~repro.serve.transport.MemoryTransport`. Otherwise every
        process is launched before any handshake is awaited, so their
        interpreter starts overlap; a worker that cannot be handshaken is
        killed, never left half-connected.

        The spawn generation is the client's restart count: 0 for the
        bootstrap spawn, bumped (in restart()) before each respawn. The
        worker echoes it in pong stats, so clients reading cumulative
        counters can detect the silent reset a crash-restart causes.
        """
        if not self.config.out_of_process:
            registry = None if self.config.metrics else NullRegistry()
            for client in clients:
                client._attach(None, MemoryTransport.connect(
                    lambda end, client=client: ReplicaWorker(
                        end, client.replica_id, generation=client.restarts,
                        registry=registry, shard=self.shard)))
            return
        procs = {client.replica_id: self._spawn_process(client)
                 for client in clients}
        expect = clients[0].replica_id if len(clients) == 1 else None
        transports: dict[int, BinaryTransport] = {}
        try:
            for _ in clients:
                worker_id, transport = self._handshake(expect)
                if worker_id in transports or worker_id not in procs:
                    transport.close()
                    raise ReplicaUnavailable(
                        f"unexpected worker id {worker_id} in handshake")
                transports[worker_id] = transport
        except BaseException:
            # Unattached transports would hold their fds past teardown
            # (close() only sweeps attached clients).
            for transport in transports.values():
                transport.close()
            for proc in procs.values():
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
            raise
        for client in clients:
            client._attach(procs[client.replica_id],
                           transports[client.replica_id])

    def _spawn_process(self, client: WorkerClient) -> subprocess.Popen:
        worker_id, generation = client.replica_id, client.restarts
        host, port = self._listener.getsockname()
        command = [sys.executable, "-m", "repro.cli", "serve-worker",
                   "--connect", f"{host}:{port}",
                   "--worker-id", str(worker_id), "--token", self._token,
                   "--generation", str(generation)]
        if not self.config.metrics:
            # The overhead-benchmark baseline: workers run the no-op
            # registry too, so the whole stack is uninstrumented.
            command += ["--no-metrics"]
        if self.shard is not None:
            # The worker echoes its shard in pong stats, so cluster-wide
            # telemetry can attribute counters without positional guessing.
            command += ["--shard", str(self.shard)]
        # stderr stays inherited: worker tracebacks reach the operator.
        return subprocess.Popen(command, env=self._env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL)

    def _handshake(self, expect: int | None = None,
                   ) -> tuple[int, BinaryTransport]:
        """Accept one worker connection; returns ``(id, transport)``.

        The exchange is ``hello`` (worker: id, spawn token, wire
        capabilities) then ``welcome`` naming ``repro-wire-v2`` — the
        last line-framed frame on the stream; both ends then swap to
        length-prefixed binary framing on the same fds. A connection
        whose hello is malformed, carries the wrong token or does not
        advertise ``repro-wire-v2`` is dropped and the accept loop goes
        on: the spawn deadline, not the stray peer, decides the outcome.

        With ``expect`` set (one worker spawned), connections from any
        *other* worker id are dropped too: an orphaned dial from an
        earlier failed restart must not be mistaken for the respawn (the
        dropped worker exits on EOF). A fleet spawn passes ``None`` and
        routes accepted connections by their announced id instead.
        """
        while True:
            try:
                conn, _addr = self._listener.accept()
            except (socket.timeout, OSError) as exc:
                raise ReplicaUnavailable(
                    "no worker connected before the spawn deadline"
                ) from exc
            transport = LineTransport.over_socket(conn)
            try:
                hello = transport.recv(timeout=self.spawn_timeout)
                worker_id, token = hello_from_wire(hello)
                accepted = token == self._token \
                    and WIRE_FORMAT_V2 in hello_wire_formats(hello) \
                    and expect in (None, worker_id)
                if accepted:
                    transport.send(welcome_frame(
                        worker_id, self.log.epoch, wire=WIRE_FORMAT_V2))
            except (TransportClosed, TransportTimeout,
                    SerializationError):
                accepted = False      # stray or broken connection
            if not accepted:
                transport.close()
                continue
            return worker_id, BinaryTransport.adopt(transport)

    def _bootstrap(self) -> None:
        """Spawn everyone, then send each one shared state load."""
        self._spawn(self.clients)
        for client in self.clients:
            self._send_state(client)
        # Pong arrives only after the state frames ahead of it are
        # processed: one ping per worker is a bootstrap barrier, so
        # construction (not the first serving burst) pays the store load
        # — and a worker that cannot bootstrap fails fast, here.
        for client in self.clients:
            try:
                client.ping(timeout=self.spawn_timeout)
            except (TransportClosed, TransportTimeout) as exc:
                raise ReplicaUnavailable(
                    f"worker {client.replica_id} failed to bootstrap"
                ) from exc

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------

    def _send_state(self, client: WorkerClient) -> None:
        """Bring a fresh worker to the leader epoch: checkpoint + tail.

        The worker reads a binary snapshot the leader already wrote (only
        the frame naming the file crosses the stream) and replays just the
        batches logged after it, under the fault policy every follower
        shares (:meth:`ReplicationLog.bootstrap
        <repro.serve.replication.ReplicationLog.bootstrap>`). A bootstrap
        that needed its fault recapture counts as ``full_syncs``, the rest
        as ``checkpoint_hits``. When the fresh capture fails too, the
        worker is discarded — the detached client restarts on its next
        entry point — and :class:`~repro.errors.ReplicaUnavailable`
        propagates.
        """
        registry = self.obs.registry
        start = time.perf_counter()
        try:
            ckpt, tail, recaptured = self.log.bootstrap(
                lambda ckpt, tail: self._ship_checkpoint(client, ckpt, tail))
        except ReplicaUnavailable:
            client._discard_process()
            raise
        outcome = "full_syncs" if recaptured else "checkpoint_hits"
        registry.counter(f"{self.obs_label}.bootstrap.{outcome}").inc()
        registry.counter(f"{self.obs_label}.bootstrap.bytes_shipped").inc(
            ckpt.nbytes + sum(len(payload) for payload in tail))
        registry.histogram(f"{self.obs_label}.bootstrap.duration_s").observe(
            time.perf_counter() - start)

    def _ship_checkpoint(self, client: WorkerClient, ckpt,
                         tail: list[bytes]) -> bool:
        """Point the worker at a checkpoint file; ship the tail on its ack.

        The worker pongs at the checkpoint's epoch once the file is
        loaded — only then does the tail go out, so a worker that cannot
        read the file (unlinked by a concurrent refresh, corrupt, ...)
        reports a ``checkpoint-failed`` event instead and this returns
        ``False`` with nothing half-applied (the caller recaptures).
        """
        client.transport.send(checkpoint_frame(
            str(ckpt.path), ckpt.epoch, ckpt.generation))
        while True:
            frame = client.transport.recv(timeout=self.spawn_timeout)
            kind = frame.get("kind")
            if kind == "event":
                return False         # checkpoint-failed: recapture
            if kind == "pong":
                epoch, stats = pong_from_wire(frame)
                client._note_pong(stats)
                if epoch != ckpt.epoch:
                    return False
                break
            if not client._absorb(frame):
                raise SerializationError(
                    f"unexpected {kind!r} frame during checkpoint load")
        for payload in tail:
            client.transport.send_binary(payload)
        client.epoch = ckpt.epoch + len(tail)    # see ship(): not "now"
        client.batches_shipped += len(tail)
        return True

    def ship(self, client: WorkerClient) -> int:
        """Ship the span ``(client.epoch, leader_epoch]`` in-order.

        A truncated span degrades to a fresh bootstrap (never a partial
        replay, the rule ``GraphSnapshot.advance`` follows too). Returns the number
        of batches (or re-synced epochs) shipped. The span crosses as
        binary batch frames (the packed codec).
        """
        with client.lease:
            start = client.epoch
            span = self.log.ship_binary_since(start)
            if span is None:
                self._send_state(client)
                client.resyncs += 1
                return client.epoch - start
            for payload in span:
                client.transport.send_binary(payload)
            count = len(span)
            # The log holds one batch per epoch, so the span read above ends
            # at ``start + count`` — not at ``self.log.epoch``, which a
            # writer may have moved since: that batch belongs to the next
            # ship.
            client.epoch = start + count
            client.batches_shipped += count
            if count:
                # Arm the ship->apply latency probe: the next frame echoing
                # this epoch (answer or pong) closes the measurement.
                client._ship_mark = (client.epoch, time.perf_counter())
                self.obs.registry.gauge(
                    client._obs_prefix + ".lag").set(client.lag)
            return count

    def refresh(self) -> int:
        """Ship pending batches to every worker.

        A worker that dies mid-refresh is restarted at the leader epoch
        by its own ``catch_up`` crash path (a restart *is* a refresh), so
        one casualty never aborts the sweep for the rest of the fleet.
        """
        total = 0
        for client in self.clients:
            try:
                total += client.catch_up()
            except ReplicaUnavailable:
                continue     # restarted + re-synced == refreshed
        return total

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    def restart(self, client: WorkerClient,
                failed: BinaryTransport | MemoryTransport | None = None,
                ) -> None:
        """Respawn one worker and queue its state reload.

        The state (checkpoint + tail) is written to the fresh stream
        immediately, so by the time the router rotates back to this
        replica it answers at the leader's epoch without special-casing.

        Restarts are serialized pool-wide (the socket listener is shared,
        and two concurrent restarts could cross-accept each other's
        process) and idempotent per casualty: ``failed`` is the transport
        the caller observed dying — if another thread already replaced it
        (the client is attached to a *different*, live stream), the
        restart is complete and this call returns without churning the
        fresh worker. A restart that fails partway leaves the client
        detached (``transport is None``); every client entry point treats
        that state as "restart me first", never as an attribute error.
        """
        if self._closed:
            raise ReplicaUnavailable("worker pool is closed")
        with client.lease, self._restart_lock:
            if client.transport is not None \
                    and client.transport is not failed and client.alive():
                return                # another thread already healed it
            client._discard_process()
            client.restarts += 1
            try:
                # After a successful attach the client owns the worker; a
                # failed state load there is healed by the next entry point.
                self._spawn([client])
                client.resyncs += 1
                self._send_state(client)
            except (TransportClosed, TransportTimeout) as exc:
                raise ReplicaUnavailable(
                    f"worker {client.replica_id} failed to restart"
                ) from exc

    def health_check(self) -> list[int]:
        """Ping every worker; restart the dead ones. Returns restarted ids.

        Crash recovery off the read path: routed reads also self-heal (a
        dead worker surfaces as a routed retry), but a periodic health
        check brings crashed workers back *before* their rotation slot
        pays the restart.
        """
        restarted: list[int] = []
        for client in self.clients:
            with client.lease:    # probe + restart as one owner, one at a time
                probed = client.transport
                healthy = client.alive()
                if healthy:
                    try:
                        client.ping()
                    except (TransportClosed, TransportTimeout,
                            SerializationError):
                        healthy = False
                if not healthy:
                    # Pass the probed transport so a hung-but-alive worker
                    # is really restarted (the idempotence check must not
                    # mistake its current stream for a fresh one).
                    self.restart(client, failed=probed)
                    restarted.append(client.replica_id)
        return restarted

    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Pool-wide spawn/replication/serving counters.

        ``bootstrap`` counts state loads: ``checkpoint_hits`` served by
        the first checkpoint tried, ``full_syncs`` by the fault
        recapture (the key keeps the name readers of it already use).
        """
        registry = self.obs.registry
        return {
            "leader_epoch": self.log.epoch,
            "bootstrap": {
                "checkpoint_hits": registry.counter(
                    f"{self.obs_label}.bootstrap.checkpoint_hits").value,
                "full_syncs": registry.counter(
                    f"{self.obs_label}.bootstrap.full_syncs").value,
                "bytes_shipped": registry.counter(
                    f"{self.obs_label}.bootstrap.bytes_shipped").value,
            },
            "workers": [client.stats() for client in self.clients],
        }

    def close(self) -> None:
        """Shut every worker down and release the listener (idempotent).

        Each worker's teardown is isolated: a worker that already died
        mid-shutdown (its process gone, its transport torn; an in-memory
        worker's link closes as it says ``bye``) must not
        keep its siblings running or the listener held — a second
        ``close()``/``stop_serving()`` after such a casualty is a no-op,
        never a raise.
        """
        if self._closed:
            return
        self._closed = True
        try:
            for client in self.clients:
                try:
                    if client.transport is not None and client.alive():
                        client.transport.send(shutdown_frame())
                        if client.proc is not None:
                            client.proc.wait(timeout=5.0)
                except (TransportClosed, TransportTimeout,
                        subprocess.TimeoutExpired, OSError):
                    pass
                finally:
                    client._discard_process()
        finally:
            if self._listener is not None:
                self._listener.close()
                self._listener = None
            # Checkpoint files live only to bootstrap workers; none may
            # outlive the pool (the fd test pins zero stale-file growth).
            self.log.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:   # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:   # pragma: no cover - cosmetic
        return (
            f"WorkerPool(workers={len(self.clients)}, "
            f"leader_epoch={self.log.epoch})"
        )
