"""Async serving front-end: many-client fan-in over the wire protocol.

The pool scales *workers*; this module scales *connections*. Every
pre-frontend client owned a blocking ``WorkerClient`` socket on its own
thread, so a thousand dashboards meant a thousand threads. The
:class:`AsyncFrontend` instead runs one asyncio event loop that accepts
thousands of client connections speaking the same ``repro-wire-v1``
newline-framed protocol (``client_hello``/``welcome`` to open a session,
then ``request``/``requests`` frames), and multiplexes their requests
onto the existing cluster fan-out — whenever work is queued and a worker
is idle, admitted requests are gathered into one batch served through
:meth:`ProvCluster.query_many <repro.serve.cluster.ProvCluster.query_many>`,
i.e. the pool's pipelined ``begin_many`` bundles, on the workers that
batch leased: N workers execute concurrently no matter how many clients
fed them, whether as one wide batch or as N narrow ones.

Three invariants hold under any client behavior (guarded by
``tests/test_serve_frontend.py``):

- **Bounded in-flight (admission control).** At most
  ``ServeConfig.admission_budget`` requests are admitted-but-unanswered
  across all connections. A request arriving past the budget is answered
  *immediately* with a typed :class:`~repro.errors.Overloaded` error
  response — a fast rejection, never a queue and never a hang.
- **Per-client fairness.** The dispatcher drains per-connection queues
  round-robin, one frame per connection per rotation (rotation origin
  advancing every cycle), so a flooding client cannot starve a light
  one; a connection has frames in at most one batch at a time, so its
  requests are still answered in arrival order.
- **Backpressure.** A connection is read only while its response queue
  has room and its own admitted-but-unanswered count is below
  ``ServeConfig.session_budget``; a client that stops draining responses
  stops being read (its TCP window fills, *its* sender blocks) while
  server-side buffers for that connection stay bounded by
  ``session_budget``-sized queues. Other connections are unaffected.

**Dispatch is work-conserving.** The loop thread keeps the cluster's
replicas in an idle FIFO. A batch takes ``min(len(specs), idle)`` of them
off the front, runs ``cluster.query_many(..., targets=leased)`` on an
executor with one thread per replica (the loop thread itself never
blocks on a worker), and hands them back to the rear when it completes —
so a 16-tile bundle reaching an idle pool is still split across every
worker, and two readers asking one thing each are served side by side
instead of one after the other. Inside ``query_many`` each target's
``lease`` is held (see :func:`repro.serve.replication.leased`), which is
what makes leader-side traffic to the same worker a wait rather than a
race. A :class:`~repro.serve.shards.ShardedCluster` has no ``replicas``
of its own — its scatter-gather already fans out on threads — and is
dispatched as a single slot.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from time import perf_counter
from typing import TYPE_CHECKING, Any

from repro.errors import (
    Overloaded,
    ReplicaUnavailable,
    SerializationError,
)
from repro.obs import MetricAttr, ObsContext, new_trace_id
from repro.serve import wire
from repro.serve.api import ServeConfig
from repro.serve.methods import METHODS, encode_result
from repro.serve.transport import LineTransport

if TYPE_CHECKING:   # pragma: no cover - types only
    from repro.serve.cluster import ProvCluster

__all__ = ["AsyncFrontend", "FrontendClient"]

#: readline limit per connection — requests bundles can be large, sync
#: frames never ride client sessions, so 16MB is generous headroom.
_LIMIT = 1 << 24

#: Seconds a fresh connection gets to present its ``client_hello``.
_HELLO_TIMEOUT = 30.0

#: Outbound sentinel: flush everything queued before it, then close.
_CLOSE = object()

#: Answers a :class:`FrontendClient` holds for conditional re-asks, LRU
#: (the bound of the workers' ``ResultCache``).
HELD_ANSWERS = 256


def _encode_frame(frame: dict[str, Any]) -> bytes:
    # Byte-compatible with LineTransport.send's framing; answers that
    # arrived as text are spliced in, never parsed.
    return wire.frame_text(frame).encode("utf-8") + b"\n"


_CONTAINERS = frozenset((dict, list))


def _fresh(value: Any) -> Any:
    """A deep copy of a JSON value: every dict and list new, scalars
    (immutable) shared."""
    if type(value) is list:
        items = value
    elif type(value) is dict:
        items = value.values()
    else:
        return value
    if _CONTAINERS.isdisjoint(map(type, items)):
        return value.copy()
    if type(value) is list:
        return [_fresh(item) for item in value]
    return {key: _fresh(item) for key, item in value.items()}


class _Entry:
    """One client request inside a work item."""

    __slots__ = ("request_id", "method", "spec", "error", "have", "result",
                 "trace_id", "t_read")

    def __init__(self, request_id: int, method: str,
                 spec: "tuple[str, dict] | None", error: BaseException | None,
                 have: str | None = None):
        self.request_id = request_id
        self.method = method
        self.spec = spec          # domain-decoded (method, params), or None
        self.error = error        # decode-time failure, answered in place
        self.have = have          # the client's held answer tag, or None
        self.result = None
        self.trace_id: str | None = None   # set when the frame is sampled
        self.t_read = 0.0                  # admission timestamp (perf clock)


class _WorkItem:
    """One inbound frame's worth of requests (a single or a bundle).

    A bundle is dispatched whole in one batch so its answers ride one
    epoch-atomic ``responses`` frame, exactly like worker bundles.
    """

    __slots__ = ("session", "bundle", "entries")

    def __init__(self, session: "_ClientSession", bundle: bool,
                 entries: list[_Entry]):
        self.session = session
        self.bundle = bundle
        self.entries = entries


class _ClientSession:
    """Per-connection state: queues, budgets, counters."""

    __slots__ = ("id", "client", "inbound", "outbound", "unanswered",
                 "served", "errors", "overloaded", "closed", "busy",
                 "_resume")

    def __init__(self, session_id: int, client: str):
        self.id = session_id
        self.client = client
        #: Admitted work items awaiting dispatch (drained round-robin).
        self.inbound: deque[_WorkItem] = deque()
        #: Response frames awaiting the writer task. Bounded by
        #: discipline, not maxsize: the reader never reads past
        #: session_budget queued frames, so the dispatcher's put_nowait
        #: can never make this grow without bound.
        self.outbound: asyncio.Queue = asyncio.Queue()
        #: Requests admitted whose response frame is not yet enqueued.
        self.unanswered = 0
        self.served = 0
        self.errors = 0
        self.overloaded = 0
        self.closed = False
        #: Frames of this session are inside an in-flight batch; later
        #: ones wait for it, which keeps answers in request order.
        self.busy = False
        self._resume: asyncio.Future | None = None

    def stats(self) -> dict[str, Any]:
        return {
            "session": self.id,
            "client": self.client,
            "unanswered": self.unanswered,
            "queued": len(self.inbound),
            "outbound": self.outbound.qsize(),
            "served": self.served,
            "errors": self.errors,
            "overloaded": self.overloaded,
        }


class AsyncFrontend:
    """The asyncio fan-in server bound to one :class:`ProvCluster`.

    Runs its event loop on a dedicated thread so blocking callers (the
    session facade, tests, the CLI) drive it with plain
    :meth:`start`/:meth:`stop`. Usually constructed for you by
    ``ProvCluster(config=ServeConfig(frontend=True, ...))``; the address
    it bound (host, port) is :attr:`address` after :meth:`start`.
    """

    #: Connections accepted (including ones refused at handshake).
    connections_total = MetricAttr("connections_total")
    #: client_hello frames with a rejected token.
    auth_failures = MetricAttr("auth_failures")
    #: Requests answered (served or failed), excluding rejections.
    requests_served = MetricAttr("requests_served")
    #: Requests answered with a typed Overloaded rejection.
    overloaded_rejections = MetricAttr("overloaded_rejections")
    #: Dispatch cycles executed against the cluster.
    batches_dispatched = MetricAttr("batches_dispatched")
    #: Largest single dispatched batch (a high-water mark, not a rate).
    max_batch = MetricAttr("max_batch")
    #: Most batches ever in flight at once (high-water mark).
    max_concurrent_batches = MetricAttr("max_concurrent_batches")
    #: Requests admitted-but-unanswered right now (shared budget gauge).
    admitted = MetricAttr("admitted")
    #: Conditional requests answered ``same`` (the client's held answer
    #: is byte-identical, so no result was shipped).
    unchanged_answers = MetricAttr("unchanged_answers")

    def __init__(self, cluster: "ProvCluster",
                 config: ServeConfig | None = None):
        if config is None:
            config = getattr(cluster, "config", None) or ServeConfig()
        self.cluster = cluster
        self.config = config
        self.address: tuple[str, int] | None = None
        # -- observability (shared with the cluster when it has one) ---
        self.obs: ObsContext = getattr(cluster, "obs", None) \
            or ObsContext.of(config)
        self._obs_registry = self.obs.registry
        self._obs_prefix = "frontend"
        self._request_hist = self.obs.registry.histogram(
            "frontend.request_s")
        for name, attr in type(self).__dict__.items():
            if isinstance(attr, MetricAttr):
                getattr(self, name)    # materialize at 0 for snapshots
        # -- loop plumbing ---------------------------------------------
        self._sessions: dict[int, _ClientSession] = {}
        self._next_session = 0
        self._rr = 0                      # fairness rotation origin
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.Server | None = None
        self._stopping: asyncio.Event | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._ready = threading.Event()
        self._done = threading.Event()
        self._startup_error: BaseException | None = None
        #: Idle dispatch slots, FIFO, touched on the loop thread only: the
        #: cluster's replicas, or one anonymous slot for a cluster that
        #: has none to lease (ShardedCluster).
        self._idle: deque = deque(getattr(cluster, "replicas", None)
                                  or [None])
        self._batches: set[asyncio.Task] = set()
        self._executor = ThreadPoolExecutor(
            max_workers=len(self._idle),
            thread_name_prefix="frontend-dispatch")
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle (caller-thread surface)
    # ------------------------------------------------------------------

    def start(self, timeout: float = 30.0) -> "AsyncFrontend":
        """Bind the listener and start serving; returns self.

        Raises whatever the bind raised (e.g. ``OSError`` on a taken
        port) on the calling thread.
        """
        if self._started:
            return self
        self._started = True
        self._thread = threading.Thread(
            target=self._run, name="frontend-loop", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            self.stop()
            raise TimeoutError("front-end event loop failed to start")
        if self._startup_error is not None:
            error = self._startup_error
            self.stop()
            raise error
        return self

    def stop(self) -> None:
        """Stop serving and join the loop thread (idempotent)."""
        if self._closed:
            return
        self._closed = True
        loop = self._loop
        if loop is not None and self._stopping is not None:
            try:
                loop.call_soon_threadsafe(self._stopping.set)
            except RuntimeError:     # loop already closed
                pass
            self._done.wait(timeout=30.0)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
        self._executor.shutdown(wait=False, cancel_futures=True)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the front-end stops; True when it has.

        Polls in short slices so a foreground caller (the CLI) stays
        KeyboardInterrupt-able on every platform.
        """
        remaining = timeout
        while True:
            slice_ = 1.0 if remaining is None else min(1.0, remaining)
            if self._done.wait(slice_):
                return True
            if remaining is not None:
                remaining -= slice_
                if remaining <= 0:
                    return False

    def __enter__(self) -> "AsyncFrontend":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def stats(self) -> dict[str, Any]:
        """Front-end counters + per-session queue depths (one snapshot)."""
        return {
            "address": self.address,
            "connections_total": self.connections_total,
            "auth_failures": self.auth_failures,
            "admitted": self.admitted,
            "requests_served": self.requests_served,
            "overloaded_rejections": self.overloaded_rejections,
            "batches_dispatched": self.batches_dispatched,
            "max_batch": self.max_batch,
            "max_concurrent_batches": self.max_concurrent_batches,
            "unchanged_answers": self.unchanged_answers,
            "sessions": [session.stats()
                         for session in list(self._sessions.values())],
        }

    # ------------------------------------------------------------------
    # Event loop body
    # ------------------------------------------------------------------

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        finally:
            self._ready.set()
            self._done.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, self.config.frontend_host,
                self.config.frontend_port, limit=_LIMIT)
        except BaseException as exc:   # surface the bind error to start()
            self._startup_error = exc
            return
        self.address = self._server.sockets[0].getsockname()[:2]
        self._ready.set()
        await self._stopping.wait()
        self._server.close()
        await self._server.wait_closed()
        tasks = [*self._batches, *self._conn_tasks]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    # -- connection handling -------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self.connections_total += 1
        session: _ClientSession | None = None
        writer_task: asyncio.Task | None = None
        try:
            session = await self._open_session(reader, writer)
            if session is None:
                return
            writer_task = asyncio.ensure_future(
                self._write_loop(session, writer))
            await self._read_loop(session, reader)
        except (asyncio.CancelledError, ConnectionError,
                asyncio.IncompleteReadError):
            pass
        except Exception:    # a protocol bug must not kill the server
            pass
        finally:
            self._conn_tasks.discard(task)
            if session is not None:
                self._retire_session(session)
                session.outbound.put_nowait(_CLOSE)
                if writer_task is not None:
                    try:
                        await asyncio.wait_for(writer_task, timeout=5.0)
                    except (asyncio.TimeoutError, asyncio.CancelledError,
                            Exception):
                        writer_task.cancel()
            writer.close()

    async def _open_session(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter,
                            ) -> _ClientSession | None:
        """Handshake: ``client_hello`` in, ``welcome`` (or refusal) out."""
        try:
            line = await asyncio.wait_for(reader.readline(), _HELLO_TIMEOUT)
            frame = json.loads(line) if line else None
        except (asyncio.TimeoutError, ValueError):
            frame = None
        if not isinstance(frame, dict):
            writer.write(_encode_frame(wire.event_frame(
                "bad-hello", "expected a client_hello frame")))
            await writer.drain()
            return None
        try:
            client, token = wire.client_hello_from_wire(frame)
        except SerializationError:
            writer.write(_encode_frame(wire.event_frame(
                "bad-hello", "expected a client_hello frame")))
            await writer.drain()
            return None
        if self.config.frontend_token is not None \
                and token != self.config.frontend_token:
            self.auth_failures += 1
            writer.write(_encode_frame(wire.event_frame(
                "auth-failed", "client_hello token rejected")))
            await writer.drain()
            return None
        self._next_session += 1
        session = _ClientSession(self._next_session, client)
        self._sessions[session.id] = session
        session.outbound.put_nowait(wire.welcome_frame(
            session.id, self.cluster.leader_epoch, limits={
                "session_budget": self.config.session_budget,
                "admission_budget": self.config.admission_budget,
            },
            # Sharded clusters expose a per-shard epoch vector; the field
            # is additive and absent for plain ProvCluster serving.
            shard_epochs=getattr(self.cluster, "shard_epochs", None)))
        return session

    def _retire_session(self, session: _ClientSession) -> None:
        """Release everything a dead connection still holds.

        Queued-but-undispatched items give their admission slots back
        here; items already inside a dispatch batch give theirs back in
        :meth:`_complete` (which sees ``closed`` and drops the frame).
        """
        session.closed = True
        self._sessions.pop(session.id, None)
        while session.inbound:
            item = session.inbound.popleft()
            self.admitted -= len(item.entries)
        session.unanswered = 0

    # -- reading (admission + backpressure live here) -------------------

    async def _read_loop(self, session: _ClientSession,
                         reader: asyncio.StreamReader) -> None:
        config = self.config
        while True:
            # Backpressure, part 1: never read ahead of a response queue
            # the client isn't draining. Every frame read below enqueues
            # at most one response frame, so server-side buffering for
            # this connection is bounded no matter what the client does.
            while session.outbound.qsize() >= config.session_budget:
                await self._paused(session)
            line = await reader.readline()
            if not line:
                return
            try:
                frame = json.loads(line)
                if not isinstance(frame, dict):
                    raise ValueError("frame is not an object")
            except ValueError:
                session.outbound.put_nowait(wire.event_frame(
                    "malformed-frame", "line is not a JSON object"))
                return
            kind = frame.get("kind")
            if kind == "ping":
                session.outbound.put_nowait(wire.pong_frame(
                    self.cluster.leader_epoch, session.stats()))
                continue
            if kind in ("shutdown", "bye"):
                session.outbound.put_nowait(wire.bye_frame())
                return
            if kind in ("request", "requests"):
                try:
                    if kind == "request":
                        request_id, method, params = \
                            wire.request_from_wire(frame)
                        if method == "metrics":
                            # Served out-of-band: a snapshot read must
                            # not queue behind (or consume budget from)
                            # the query batches it is meant to observe.
                            asyncio.ensure_future(
                                self._serve_metrics(session, request_id))
                            continue
                        entries = [self._entry(request_id, method, params,
                                               frame)]
                        bundle = False
                    else:
                        calls = wire.requests_bundle_from_wire(frame)
                        entries = [self._entry(*call, record) for call, record
                                   in zip(calls, frame["requests"])]
                        bundle = True
                except SerializationError as exc:
                    # A malformed frame gets an event answer, not a dead
                    # session — ids are unrecoverable from a frame that
                    # did not decode, so no response frame is possible.
                    session.outbound.put_nowait(wire.event_frame(
                        "malformed-frame", str(exc)))
                    continue
            else:
                # Additive-versioning contract: unknown kinds get an
                # event answer, the session lives on.
                session.outbound.put_nowait(wire.event_frame(
                    "unknown-frame", f"kind {kind!r} not servable here"))
                continue
            count = len(entries)
            if count > config.session_budget:
                # Could never be admitted whole; bundles are epoch-atomic
                # so partial admission is not an option.
                self._reject(session, bundle, entries,
                             "bundle exceeds session_budget "
                             f"({count} > {config.session_budget})")
                continue
            # Backpressure, part 2: this client has a full backlog of its
            # own — stop reading it (instead of rejecting) until its
            # answers drain. Other connections keep being served.
            while session.unanswered + count > config.session_budget:
                await self._paused(session)
            if self.admitted + count > config.admission_budget:
                # Admission control: the *shared* budget is exhausted —
                # reject fast with the typed error, never queue.
                self._reject(session, bundle, entries,
                             f"admission budget ({config.admission_budget}"
                             ") exhausted; retry after draining")
                continue
            self.admitted += count
            session.unanswered += count
            now = perf_counter()
            traced = self.obs.sampled()
            for entry in entries:
                entry.t_read = now
                if traced:
                    entry.trace_id = new_trace_id()
            session.inbound.append(_WorkItem(session, bundle, entries))
            self._dispatch()

    def _entry(self, request_id: int, method: str, params: dict[str, Any],
               record: dict[str, Any]) -> _Entry:
        """Decode one wire request into a domain spec (errors in place)."""
        try:
            have = wire.have_from_wire(record)
            spec = wire.query_call_from_wire(method, params,
                                             self.cluster.graph)
        except Exception as exc:   # noqa: BLE001 - per-request isolation
            return _Entry(request_id, method, None, exc)
        return _Entry(request_id, method, spec, None, have)

    def _reject(self, session: _ClientSession, bundle: bool,
                entries: list[_Entry], detail: str) -> None:
        """Answer a frame's every request with a typed Overloaded error."""
        count = len(entries)
        self.overloaded_rejections += count
        session.overloaded += count
        error = wire.error_to_wire(Overloaded(detail))
        epoch = self.cluster.leader_epoch
        responses = [wire.response_to_wire(entry.request_id, epoch,
                                           error=error)
                     for entry in entries]
        frame = wire.responses_bundle_to_wire(epoch, responses) \
            if bundle else responses[0]
        session.outbound.put_nowait(frame)

    async def _paused(self, session: _ClientSession) -> None:
        """Park the reader until _wake (response drained or answered)."""
        future = self._loop.create_future()
        session._resume = future
        try:
            await future
        finally:
            session._resume = None

    def _wake(self, session: _ClientSession) -> None:
        future = session._resume
        if future is not None and not future.done():
            future.set_result(None)

    # -- writing --------------------------------------------------------

    async def _write_loop(self, session: _ClientSession,
                          writer: asyncio.StreamWriter) -> None:
        """Single writer per connection; drain() is the flow control.

        A stalled client blocks only this coroutine: the transport's
        write buffer fills, ``drain()`` parks, the outbound queue backs
        up, and the read loop's part-1 check stops reading the
        connection. Nothing here is shared with other sessions.
        """
        try:
            while True:
                frame = await session.outbound.get()
                if frame is _CLOSE:
                    break
                writer.write(_encode_frame(frame))
                await writer.drain()
                self._wake(session)
        except (ConnectionError, asyncio.CancelledError):
            pass

    # -- dispatching ----------------------------------------------------

    def _gather_batch(self) -> list[_WorkItem]:
        """Round-robin drain: one frame per connection per rotation.

        The rotation origin advances every cycle, so no session is
        structurally first. Items are whole frames — a bundle moves
        atomically — and gathering stops once the batch holds
        ``max_inflight`` requests (the current frame always completes,
        so one oversized rotation can overshoot by at most one frame).
        """
        sessions = [s for s in self._sessions.values()
                    if s.inbound and not s.busy]
        if not sessions:
            return []
        self._rr = (self._rr + 1) % len(sessions)
        order = sessions[self._rr:] + sessions[:self._rr]
        items: list[_WorkItem] = []
        taken = 0
        progress = True
        while progress and taken < self.config.max_inflight:
            progress = False
            for session in order:
                if not session.inbound:
                    continue
                item = session.inbound.popleft()
                items.append(item)
                taken += len(item.entries)
                progress = True
                if taken >= self.config.max_inflight:
                    break
        return items

    def _dispatch(self) -> None:
        """Start one batch per idle worker while work is queued.

        Runs on the loop thread whenever a frame is admitted or a batch
        completes, so neither a queued request nor an idle worker ever
        waits for the other. A batch's sessions are ``busy`` until it
        completes: a connection's frames are served one batch at a time,
        which makes per-session response order equal request order.
        """
        while self._idle:
            items = self._gather_batch()
            if not items:
                return
            owners = [entry for item in items for entry in item.entries
                      if entry.spec is not None]
            for item in items:
                item.session.busy = True
            leased = [self._idle.popleft() for _ in range(
                min(max(1, len(owners)), len(self._idle)))]
            task = asyncio.ensure_future(
                self._serve_batch(items, owners, leased))
            self._batches.add(task)
            self.batches_dispatched += 1
            self.max_batch = max(self.max_batch, len(owners))
            self.max_concurrent_batches = max(self.max_concurrent_batches,
                                              len(self._batches))

    async def _serve_batch(self, items: list[_WorkItem],
                           owners: list[_Entry], leased: list) -> None:
        """One batch on its leased workers; then re-arm dispatch."""
        stamp = self.cluster.leader_epoch
        trace_ids = [entry.trace_id for entry in owners]
        if any(trace_id is not None for trace_id in trace_ids):
            collector = self.obs.collector
            now = perf_counter()
            for entry in owners:
                if entry.trace_id is not None:
                    collector.add_span(
                        entry.trace_id, "frontend", "queue",
                        now - entry.t_read, method=entry.method)
        else:
            trace_ids = None
        results: list = []
        try:
            if owners:
                # A cluster with no replicas to lease picks its own.
                targets = {} if leased[0] is None else {"targets": leased}
                results = await self._loop.run_in_executor(
                    self._executor,
                    partial(self.cluster.query_many,
                            [entry.spec for entry in owners],
                            min_epoch=stamp, raw=True,
                            trace_ids=trace_ids, **targets))
        except asyncio.CancelledError:
            raise
        except BaseException as exc:      # total fan-out failure:
            results = [exc] * len(owners)       # typed error per spec
        finally:
            self._idle.extend(leased)
            self._batches.discard(asyncio.current_task())
        for entry, result in zip(owners, results):
            entry.result = result
        for item in items:
            item.session.busy = False
            self._finish_item(item, stamp)
        self._dispatch()

    def _finish_item(self, item: _WorkItem, stamp: int) -> None:
        session = item.session
        collector = self.obs.collector
        now = perf_counter()
        responses = []
        unchanged = 0
        for entry in item.entries:
            failure = entry.error if entry.error is not None else (
                entry.result if isinstance(entry.result, BaseException)
                else None)
            wall = now - entry.t_read
            self._request_hist.observe(wall)
            if entry.trace_id is not None:
                collector.finish(
                    entry.trace_id, method=entry.method, wall_s=wall,
                    error=type(failure).__name__ if failure is not None
                    else None)
            if failure is not None:
                session.errors += 1
                responses.append(wire.response_to_wire(
                    entry.request_id, stamp,
                    error=wire.error_to_wire(failure)))
            else:
                # A conditional request ships its answer only when the
                # client does not already hold it.
                value = encode_result(entry.method, entry.result)
                tag = None if entry.have is None else wire.answer_tag(value)
                same = tag is not None and tag == entry.have
                unchanged += same
                responses.append(wire.response_to_wire(
                    entry.request_id, stamp, result=value, tag=tag,
                    same=same))
        frame = wire.responses_bundle_to_wire(stamp, responses) \
            if item.bundle else responses[0]
        count = len(item.entries)
        self.admitted -= count
        self.requests_served += count
        self.unchanged_answers += unchanged
        if not session.closed:
            session.unanswered -= count
            session.served += count
            session.outbound.put_nowait(frame)
            self._wake(session)

    # -- metrics exposition ---------------------------------------------

    async def _serve_metrics(self, session: _ClientSession,
                             request_id: int) -> None:
        """Answer one client-session ``metrics`` request.

        Runs :meth:`ProvCluster.metrics` on the dispatch executor (each
        worker's share waits for that worker's lease), but outside the
        admission path: a monitoring probe neither consumes budget nor
        waits behind a full batch queue.
        """
        try:
            payload = await self._loop.run_in_executor(
                self._executor, self.cluster.metrics)
            payload["frontend"] = {
                "connections_total": self.connections_total,
                "admitted": self.admitted,
                "requests_served": self.requests_served,
                "overloaded_rejections": self.overloaded_rejections,
                "batches_dispatched": self.batches_dispatched,
                "max_batch": self.max_batch,
                "max_concurrent_batches": self.max_concurrent_batches,
                "unchanged_answers": self.unchanged_answers,
                "sessions": len(self._sessions),
            }
            frame = wire.response_to_wire(
                request_id, self.cluster.leader_epoch,
                result=wire.WireValue(payload))
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            frame = wire.response_to_wire(
                request_id, self.cluster.leader_epoch,
                error=wire.error_to_wire(exc))
        if not session.closed:
            session.outbound.put_nowait(frame)
            self._wake(session)


# ---------------------------------------------------------------------------
# Blocking client (tests, CLI, benchmarks)
# ---------------------------------------------------------------------------


class FrontendClient:
    """A blocking ``repro-wire-v1`` client session against the front-end.

    Thin by design — one socket, one pending map, no threads — so tests
    and the benchmark's simulated clients can pipeline requests
    (:meth:`begin`, :meth:`collect`) or stay lockstep (:meth:`query`,
    :meth:`query_many`). Out-of-order arrival is correlated by request
    id, exactly like :class:`~repro.serve.pool.WorkerClient`.

    ``graph`` (optional) rebinds ``segment``/``cypher`` results to a
    local graph object; without it those results are returned in wire
    form (lineage/blame decode without a graph).

    :meth:`query_many` asks *conditionally*: the client holds the last
    answer (its tag and wire value) to each ``(method, params)`` it
    bundled, up to :data:`HELD_ANSWERS` of them, and the front-end sends
    ``same`` instead of an answer that has not changed. The held value is
    decoded again for every return, so callers always get an object of
    their own.
    """

    def __init__(self, address: tuple[str, int], token: str | None = None,
                 client: str = "client", graph: Any = None,
                 timeout: float | None = 30.0):
        self.graph = graph
        self.timeout = timeout
        sock = socket.create_connection(tuple(address))
        self.transport = LineTransport.over_socket(sock)
        self.transport.send(wire.client_hello_frame(client, token))
        frame = self.transport.recv(timeout=timeout)
        if frame.get("kind") == "event":
            self.transport.close()
            raise ReplicaUnavailable(
                f"front-end refused the session: {frame.get('event')} "
                f"({frame.get('detail')})")
        self.session_id, self.epoch, self.limits = wire.welcome_from_wire(
            frame)
        self._next_id = 0
        #: id -> (ok, payload, method, payload is a held value)
        self._arrived: dict[int, tuple[bool, Any, str, bool]] = {}
        self._methods: dict[int, str] = {}
        #: (method, canonical params) -> (tag, wire value), least recently
        #: used first.
        self._held: OrderedDict[tuple[str, str], tuple[str, Any]] = \
            OrderedDict()
        #: Conditional requests in flight: id -> (held key, the entry held
        #: when the request was sent, or None).
        self._asked: dict[int, tuple[tuple[str, str],
                                     tuple[str, Any] | None]] = {}

    # -- pipelined surface ---------------------------------------------

    def begin(self, method: str, params: dict[str, Any]) -> int:
        """Put one request on the wire; returns its id (collect later)."""
        self._next_id += 1
        request_id = self._next_id
        self._methods[request_id] = method
        self.transport.send(wire.request_to_wire(request_id, method, params))
        return request_id

    def collect(self, request_id: int, decode: bool = True) -> Any:
        """The answer for ``request_id`` (raises rebuilt typed errors)."""
        while request_id not in self._arrived:
            self._absorb(self.transport.recv(timeout=self.timeout))
        ok, payload, method, held = self._arrived.pop(request_id)
        if not ok:
            raise wire.error_from_wire(payload)
        row = METHODS.get(method)       # ``metrics`` has none: plain JSON
        if row is None or not decode:
            return payload
        result = row.result_from_wire(payload, self.graph)
        # Every decoder builds new containers except a graph-bound row
        # without a graph, which returns the wire value itself: never
        # hand out the held one.
        return _fresh(result) if held and result is payload else result

    def _absorb(self, frame: dict[str, Any]) -> None:
        kind = frame.get("kind")
        if kind == "response":
            self._file(frame)
        elif kind == "responses":
            _epoch, responses = wire.responses_bundle_from_wire(frame)
            for inner in responses:
                self._file(inner)
        # events/pongs between responses are ignored here; ping() reads
        # its pong through the same absorb path below.

    def _file(self, record: dict[str, Any]) -> None:
        request_id, _epoch, ok, payload = wire.response_from_wire(record)
        tag, same = wire.response_tag_from_wire(record)
        # A response to an id this client never sent (or already
        # collected) is dropped: filing it would keep it forever.
        method = self._methods.pop(request_id, None)
        if method is None:
            return
        key, had = self._asked.pop(request_id, (None, None))
        if same:
            if had is not None and had[0] == tag:
                payload = had[1]
            else:
                ok, payload = False, wire.error_to_wire(SerializationError(
                    f"response {request_id} says 'same' as tag {tag!r}, "
                    "which this client does not hold"))
        held = key is not None and ok and tag is not None
        if held:
            self._hold(key, (tag, payload))
        elif key is not None:   # an error (or an untagged answer) drops it
            self._held.pop(key, None)
        self._arrived[request_id] = (ok, payload, method, held)

    def _hold(self, key: tuple[str, str], entry: tuple[str, Any]) -> None:
        held = self._held
        held[key] = entry
        held.move_to_end(key)
        if len(held) > HELD_ANSWERS:
            held.popitem(last=False)

    # -- lockstep surface ----------------------------------------------

    def query(self, method: str, params: dict[str, Any]) -> Any:
        """One request with ``params`` already in wire form."""
        return self.collect(self.begin(method, params))

    def call(self, method: str, params: dict[str, Any]) -> Any:
        """One request with ``params`` in domain form (its row encodes)."""
        return self.query(method, METHODS[method].params_to_wire(params))

    def lineage(self, entity: int, max_depth: int | None = None) -> Any:
        return self.call("lineage", {"entity": entity, "max_depth": max_depth})

    def impacted(self, entity: int, max_depth: int | None = None) -> Any:
        return self.call("impacted",
                         {"entity": entity, "max_depth": max_depth})

    def blame(self, entity: int) -> Any:
        return self.call("blame", {"entity": entity})

    def segment(self, query: Any) -> Any:
        return self.call("segment", {"query": query})

    def cypher(self, text: str, budget: Any = None) -> Any:
        return self.call("cypher", {"text": text, "budget": budget})

    def metrics(self) -> dict[str, Any]:
        """The cluster-wide metrics document (see ProvCluster.metrics)."""
        return self.query("metrics", {})

    def query_many(self, specs) -> list[Any]:
        """One ``requests`` bundle; index-aligned results, errors as
        exception *instances* (mirrors ``ProvCluster.query_many``).

        Every request is conditional on the answer held for it (see the
        class docstring); an error answer drops the held one.
        """
        from repro.serve.api import normalize_specs

        # One slot per spec: a request id, or the exception that kept a
        # spec off the wire (it never gets an id, so nothing leaks).
        slots: list[int | Exception] = []
        calls = []
        haves = []
        for spec in normalize_specs(specs):
            method, params = spec.as_tuple()
            try:
                call = wire.query_call_to_wire(method, params)
            except Exception as exc:   # noqa: BLE001 - per-spec isolation
                slots.append(exc)
                continue
            key = (method, json.dumps(call[1], sort_keys=True))
            had = self._held.get(key)
            self._next_id += 1
            self._methods[self._next_id] = method
            self._asked[self._next_id] = (key, had)
            calls.append((self._next_id, *call))
            haves.append("" if had is None else had[0])
            slots.append(self._next_id)
        if calls:
            self.transport.send(wire.requests_bundle_to_wire(calls,
                                                             haves=haves))
        results = []
        for slot in slots:
            if isinstance(slot, Exception):
                results.append(slot)
                continue
            try:
                results.append(self.collect(slot))
            except Exception as exc:   # noqa: BLE001 - per-spec isolation
                results.append(exc)
        return results

    def ping(self) -> tuple[int, dict[str, Any]]:
        """Front-end liveness probe: ``(leader_epoch, session_stats)``."""
        self.transport.send(wire.ping_frame())
        while True:
            frame = self.transport.recv(timeout=self.timeout)
            if frame.get("kind") == "pong":
                return wire.pong_from_wire(frame)
            self._absorb(frame)

    def close(self) -> None:
        """Polite goodbye (best-effort) then drop the socket."""
        try:
            self.transport.send(wire.shutdown_frame())
            while True:
                frame = self.transport.recv(timeout=5.0)
                if frame.get("kind") == "bye":
                    break
                self._absorb(frame)
        except Exception:   # noqa: BLE001 - teardown is best-effort
            pass
        self.transport.close()

    def __enter__(self) -> "FrontendClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
