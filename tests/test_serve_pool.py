"""Out-of-process serving: transport framing, pool lifecycle, crash retry.

Process-spawning tests are deliberately few and reuse one pool per class
scope where possible — each worker spawn pays a Python interpreter start.
The crash contract (the PR's acceptance criterion) is pinned here:

- a worker killed mid-run surfaces as a **routed retry** — the caller
  gets its answer, never an opaque transport error;
- the pool restarts the casualty with a full re-sync to the leader epoch;
- `QueryRouter.route` turns a crash during on-the-spot catch-up into
  rotation (regression test with a genuinely killed worker).
"""

import socket

import pytest

from repro.errors import (
    ReplicaUnavailable,
    SerializationError,
    TransportClosed,
    TransportTimeout,
    VertexNotFound,
)
from repro.query.ops import blame, lineage
from repro.model.types import EdgeType, VertexType
from repro.segment.boundary import (
    BoundaryCriteria,
    exclude_edge_types,
    exclude_vertex_types,
    property_not_equals,
)
from repro.segment.pgseg import PgSegOperator, PgSegQuery
from repro.serve.api import ServeConfig
from repro.serve.cluster import ProvCluster, QueryRouter
from repro.serve.pool import WorkerPool
from repro.serve.transport import LineTransport
from repro.serve.wire import (
    pgseg_query_from_wire,
    pgseg_query_to_wire,
    psg_to_wire,
    segment_to_wire,
)
from repro.summarize.pgsum import PgSumOperator, PgSumQuery
from repro.workloads.lifecycle import build_paper_example
from faults import break_checkpoint, open_fds, truncate_log

#: A pool of worker *processes*: what the timeout, fd and process
#: lifecycle tests below need (an in-memory worker answers synchronously
#: and holds no fd).
PROCESSES = ServeConfig(replicas=1, out_of_process=True)


def socketpair_transports():
    left, right = socket.socketpair()
    return LineTransport.over_socket(left), LineTransport.over_socket(right)


class TestLineTransport:
    def test_frames_round_trip_both_directions(self):
        a, b = socketpair_transports()
        with a, b:
            a.send({"kind": "ping", "n": 1})
            assert b.recv(timeout=5) == {"kind": "ping", "n": 1}
            b.send_text('{"kind": "pong"}')
            assert a.recv(timeout=5) == {"kind": "pong"}

    def test_many_frames_one_chunk(self):
        """Framing must split on newlines, not on read boundaries."""
        a, b = socketpair_transports()
        with a, b:
            for index in range(50):
                a.send({"i": index})
            assert [b.recv(timeout=5)["i"] for _ in range(50)] \
                == list(range(50))

    def test_eof_raises_transport_closed(self):
        a, b = socketpair_transports()
        with b:
            a.close()
            with pytest.raises(TransportClosed):
                b.recv(timeout=5)

    def test_send_after_peer_close_raises(self):
        a, b = socketpair_transports()
        with a:
            b.close()
            with pytest.raises(TransportClosed):
                for _ in range(64):       # until buffers hit the RST
                    a.send({"kind": "ping"})

    def test_timeout_raises(self):
        a, b = socketpair_transports()
        with a, b:
            with pytest.raises(TransportTimeout):
                b.recv(timeout=0.05)

    def test_malformed_frames_raise_serialization_error(self):
        a, b = socketpair_transports()
        with a, b:
            a.send_raw(b"not json\n")
            with pytest.raises(SerializationError):
                b.recv(timeout=5)
            a.send_raw(b"[1, 2]\n")
            with pytest.raises(SerializationError):
                b.recv(timeout=5)

    def test_clean_boundary_timeout_leaves_transport_usable(self):
        """A timeout with no partial bytes buffered is not poisonous:
        the in-flight answer is merely late, the stream is still framed."""
        a, b = socketpair_transports()
        with a, b:
            with pytest.raises(TransportTimeout):
                b.recv(timeout=0.05)
            assert not b.poisoned
            a.send({"kind": "ping"})
            assert b.recv(timeout=5) == {"kind": "ping"}

    def test_mid_frame_timeout_poisons_transport(self):
        """Satellite regression (slow writer): a timeout that strikes
        mid-frame must poison the transport — a later read would splice
        the abandoned frame's tail onto the next frame."""
        a, b = socketpair_transports()
        with a, b:
            a.send_raw(b'{"kind": "resp')     # slow writer: half a frame
            with pytest.raises(TransportTimeout):
                b.recv(timeout=0.05)
            assert b.poisoned
            # The writer completes the frame and sends another; a reused
            # transport would now splice them — poisoned refuses instead.
            a.send_raw(b'onse", "id": 1}\n')
            a.send({"kind": "response", "id": 2})
            with pytest.raises(TransportClosed, match="poisoned"):
                b.recv(timeout=5)
            with pytest.raises(TransportClosed, match="poisoned"):
                b.send({"kind": "ping"})


class _CrashingReplica:
    """Replica double whose catch-up dies until 'restarted'."""

    def __init__(self, replica_id, epoch=0):
        self.replica_id = replica_id
        self.epoch = epoch
        self.queries_served = 0
        self.crashes = 0

    def catch_up(self):
        self.crashes += 1
        self.epoch = 10          # the pool re-syncs a restarted worker
        raise ReplicaUnavailable(f"replica {self.replica_id} crashed")


class _HealthyReplica:
    def __init__(self, replica_id, epoch=10):
        self.replica_id = replica_id
        self.epoch = epoch
        self.queries_served = 0

    def catch_up(self):
        return 0


class TestRouterCrashRetry:
    def test_crash_during_catch_up_routes_next_replica(self):
        crasher = _CrashingReplica(0)
        healthy = _HealthyReplica(1)
        router = QueryRouter([crasher, healthy])
        assert router.route(min_epoch=10) is healthy
        assert crasher.crashes == 1

    def test_single_replica_heals_on_the_extra_slot(self):
        """Restart re-syncs, so the extra rotation slot finds it fresh."""
        crasher = _CrashingReplica(0, epoch=0)
        router = QueryRouter([crasher])
        assert router.route(min_epoch=10) is crasher
        assert crasher.crashes == 1

    def test_unsatisfiable_stamp_still_raises_value_error(self):
        healthy = _HealthyReplica(0, epoch=3)
        router = QueryRouter([healthy])
        with pytest.raises(ValueError, match="ahead of the leader"):
            router.route(min_epoch=99)


@pytest.fixture(scope="class")
def oop_cluster():
    example = build_paper_example()
    cluster = ProvCluster(example.graph, replicas=2, out_of_process=True)
    try:
        yield example, cluster
    finally:
        cluster.close()


class TestWorkerPoolServing:
    def test_queries_match_leader(self, oop_cluster):
        example, cluster = oop_cluster
        graph = example.graph
        target = example["weight-v2"]
        assert cluster.lineage(target).vertices \
            == lineage(graph, target).vertices
        assert cluster.blame(target) == blame(graph, target)
        rows = cluster.cypher(
            f"MATCH (e:E) WHERE id(e) = {target} RETURN id(e)")
        assert rows == [{"col0": target}]

    def test_read_your_writes_across_the_process_boundary(self, oop_cluster):
        example, cluster = oop_cluster
        graph = example.graph
        activity = graph.add_activity(command="retrain")
        graph.used(activity, example["weight-v2"])
        out = graph.add_entity(name="oop-out")
        graph.was_generated_by(out, activity)
        assert cluster.lineage(out).vertices \
            == lineage(graph, out).vertices

    def test_boundary_query_served_by_worker(self, oop_cluster):
        example, cluster = oop_cluster
        graph = example.graph
        roots = tuple(v for v in graph.entities()
                      if not graph.generating_activities(v))
        query = PgSegQuery(
            src=roots, dst=(example["weight-v2"],),
            boundaries=BoundaryCriteria().exclude_vertices(
                exclude_vertex_types(VertexType.AGENT)),
        )
        served_before = sum(r.queries_served for r in cluster.replicas)
        routed = cluster.segment(query)
        assert routed.vertices == PgSegOperator(graph).evaluate(query).vertices
        assert sum(r.queries_served for r in cluster.replicas) \
            == served_before + 1
        # A predicate with no record is refused, never evaluated here.
        opaque = PgSegQuery(
            src=roots, dst=(example["weight-v2"],),
            boundaries=BoundaryCriteria().exclude_vertices(lambda v: True),
        )
        with pytest.raises(SerializationError, match="lambda"):
            cluster.segment(opaque)

    def test_mixed_summary_served_by_one_worker(self, oop_cluster):
        """A summary mixing plain and bounded queries is one ``summarize``
        request to one worker: every segment from one replayed epoch."""
        example, cluster = oop_cluster
        graph = example.graph
        roots = tuple(v for v in graph.entities()
                      if not graph.generating_activities(v))
        plain = PgSegQuery(src=roots, dst=(example["weight-v2"],))
        bounded = PgSegQuery(
            src=roots, dst=(example["weight-v3"],),
            boundaries=BoundaryCriteria().exclude_vertices(
                property_not_equals("command", "update")),
        )
        served_before = [r.queries_served for r in cluster.replicas]
        psg = cluster.summarize([plain, bounded])
        operator = PgSegOperator(graph)
        assert psg_to_wire(psg) == psg_to_wire(PgSumOperator(
            [operator.evaluate(plain), operator.evaluate(bounded)]).evaluate(
                PgSumQuery()))
        grown = [after - before for after, before in zip(
            [r.queries_served for r in cluster.replicas], served_before)]
        assert sorted(grown) == [0, 2]

    def test_kill_mid_run_loses_no_queries(self, oop_cluster):
        """The acceptance criterion: kill -> routed retry -> re-sync."""
        example, cluster = oop_cluster
        graph = example.graph
        target = example["weight-v2"]
        casualty = cluster.replicas[0]
        restarts_before = casualty.restarts
        casualty.proc.kill()
        casualty.proc.wait()
        for _ in range(4):       # rotation passes over the dead worker
            assert cluster.lineage(target).vertices \
                == lineage(graph, target).vertices
        assert casualty.restarts == restarts_before + 1
        assert casualty.alive()
        assert casualty.epoch == cluster.leader_epoch   # re-synced

    def test_kill_during_catch_up_routes_retry(self, oop_cluster):
        """Satellite regression: the crash happens in route()'s catch-up."""
        example, cluster = oop_cluster
        graph = example.graph
        casualty = cluster.replicas[cluster.router._cursor]
        graph.add_entity(name="pending-ship")   # every replica now lags
        casualty.proc.kill()
        casualty.proc.wait()
        target = example["weight-v2"]
        # Strict read: router must catch the crash mid-catch-up and rotate.
        assert cluster.lineage(target).vertices \
            == lineage(graph, target).vertices
        assert casualty.alive()

    def test_detached_client_heals_instead_of_attribute_error(
            self, oop_cluster):
        """A failed restart leaves transport=None; the next routed read
        must heal (or raise ReplicaUnavailable), never AttributeError."""
        example, cluster = oop_cluster
        graph = example.graph
        casualty = cluster.replicas[0]
        casualty._discard_process()        # the state a failed restart leaves
        assert casualty.transport is None
        target = example["weight-v2"]
        for _ in range(len(cluster.replicas) + 1):
            assert cluster.lineage(target).vertices \
                == lineage(graph, target).vertices
        assert casualty.alive()
        assert casualty.transport is not None

    def test_all_workers_killed_still_serves(self, oop_cluster):
        """Even a fully-dead fleet answers: restart + healing rotation."""
        example, cluster = oop_cluster
        graph = example.graph
        for client in cluster.replicas:
            client.proc.kill()
            client.proc.wait()
        target = example["weight-v2"]
        assert cluster.blame(target) == blame(graph, target)
        assert all(r.alive() for r in cluster.replicas)

    def test_mixed_summary_honors_unsatisfiable_stamp(self, oop_cluster):
        """A bounded summary is routed like any other: a stamp from the
        future raises, never silently serves."""
        example, cluster = oop_cluster
        graph = example.graph
        roots = tuple(v for v in graph.entities()
                      if not graph.generating_activities(v))
        bounded = PgSegQuery(
            src=roots, dst=(example["weight-v2"],),
            boundaries=BoundaryCriteria().exclude_edges(
                exclude_edge_types(EdgeType.WAS_DERIVED_FROM)),
        )
        with pytest.raises(ValueError, match="ahead of the leader"):
            cluster.summarize([bounded],
                              min_epoch=cluster.leader_epoch + 1)

    def test_health_check_restarts_dead_workers(self, oop_cluster):
        _, cluster = oop_cluster
        casualty = cluster.replicas[1]
        casualty.proc.kill()
        casualty.proc.wait()
        assert cluster.health_check() == [1]
        assert casualty.alive()
        assert cluster.health_check() == []

    def test_stale_read_error_type_crosses_the_wire(self, oop_cluster):
        example, cluster = oop_cluster
        graph = example.graph
        cluster.refresh()
        stamp = cluster.leader_epoch
        ghost = graph.add_entity(name="not-shipped-yet")
        with pytest.raises(VertexNotFound):
            cluster.lineage(ghost, min_epoch=stamp)


@pytest.fixture(scope="class")
def single_worker_pool():
    example = build_paper_example()
    pool = WorkerPool(example.graph, config=PROCESSES)
    try:
        yield example, pool
    finally:
        pool.close()


class TestPipelinedClient:
    """The pending-map refactor: N frames in flight, out-of-order safe."""

    def test_in_flight_requests_consumed_out_of_order(
            self, single_worker_pool):
        """Two requests on the wire at once; awaiting the second first
        must stash (not reject) the first's answer."""
        example, pool = single_worker_pool
        client = pool.clients[0]
        target = example["weight-v2"]
        [first] = client._send_calls(
            [("lineage", {"entity": target, "max_depth": None})])
        [second] = client._send_calls([("blame", {"entity": target})])
        ok, payload = client._await(second)
        assert ok
        from repro.serve.wire import blame_from_wire, lineage_from_wire
        assert blame_from_wire(payload.value) == blame(example.graph, target)
        ok, payload = client._await(first)
        assert ok
        assert lineage_from_wire(payload.value).vertices \
            == lineage(example.graph, target).vertices

    def test_bundle_isolates_bad_requests(self, single_worker_pool):
        """One bad request in a bundle becomes one exception instance at
        its index; its siblings are still served."""
        example, pool = single_worker_pool
        client = pool.clients[0]
        target = example["weight-v2"]
        results = client.query_many([
            ("lineage", {"entity": target}),
            ("blame", {"entity": 10 ** 6}),          # no such vertex
            ("cypher", {"text":
                        f"MATCH (e:E) WHERE id(e) = {target} "
                        f"RETURN id(e)"}),
        ])
        assert results[0].vertices == lineage(example.graph, target).vertices
        assert isinstance(results[1], VertexNotFound)
        assert results[2] == [{"col0": target}]
        assert client.bundles_sent >= 1

    def test_bundle_isolates_malformed_query(self, single_worker_pool):
        """A bounded query whose record does not decode gets one
        SerializationError record; its bundle sibling is still served."""
        example, pool = single_worker_pool
        client = pool.clients[0]
        target = example["weight-v2"]
        good = pgseg_query_to_wire(PgSegQuery(
            src=(example["dataset-v1"],), dst=(target,),
            boundaries=BoundaryCriteria().expand((target,), k=1)))
        bad = dict(good, boundaries={
            "vertex_filters": [{"predicate": "no_such_predicate"}],
            "edge_filters": [], "expansions": []})
        bad_id, good_id = client._send_calls(
            [("segment", {"query": bad}), ("segment", {"query": good})])
        ok, error = client._await(bad_id)
        assert not ok and error["type"] == "SerializationError"
        ok, payload = client._await(good_id)
        assert ok and payload.value == segment_to_wire(
            PgSegOperator(example.graph).evaluate(pgseg_query_from_wire(good)))

    def test_late_response_dropped_not_fatal(self, single_worker_pool):
        """Satellite regression: a response arriving after its request
        timed out must be dropped with a counter, not kill the client —
        the worker is healthy, it was merely slow."""
        example, pool = single_worker_pool
        client = pool.clients[0]
        target = example["weight-v2"]
        restarts_before = client.restarts
        # Make the worker genuinely slow for the probed request: pile an
        # unawaited bundle of distinct (uncacheable-by-repeat) queries in
        # front of it — in-order processing guarantees the probe's
        # answer cannot arrive before the pile is served.
        pile = [("cypher", {"text": f"MATCH (e:E) WHERE id(e) = {i} "
                                    f"RETURN id(e)"})
                for i in range(40)]
        client.begin_many(pile)
        old_timeout = pool.request_timeout
        pool.request_timeout = 0.0002     # expires before any answer
        try:
            with pytest.raises(ReplicaUnavailable, match="abandoned"):
                client.blame(target)
        finally:
            pool.request_timeout = old_timeout
        assert client.timeouts >= 1
        assert client.restarts == restarts_before     # worker kept
        late_before = client.late_responses
        # The abandoned request's answer arrives ahead of the next one:
        # dropped + counted (the pile's answers are still pending, so
        # they are stashed, not counted), and the fresh request is
        # served normally.
        assert client.lineage(target).vertices \
            == lineage(example.graph, target).vertices
        assert client.late_responses == late_before + 1

    def test_poisoned_transport_takes_the_crash_path(
            self, single_worker_pool):
        """A timeout that tore a frame mid-read cannot keep the stream:
        the client must restart + re-sync exactly like a crash."""
        example, pool = single_worker_pool
        client = pool.clients[0]
        target = example["weight-v2"]
        restarts_before = client.restarts
        old_timeout = pool.request_timeout
        pool.request_timeout = 0.05
        client.transport._buffer.extend(b'{"kind": "resp')  # torn frame
        client._pending.add(999_999)
        try:
            with pytest.raises(ReplicaUnavailable, match="mid-frame"):
                client._await(999_999)
        finally:
            pool.request_timeout = old_timeout
        assert client.restarts == restarts_before + 1
        assert client.alive()
        assert client.lineage(target).vertices \
            == lineage(example.graph, target).vertices


class TestWorkerResultCache:
    """The footprint-retaining result cache: a batch's write set decides
    which entries survive an epoch advance (see docs/consistency.md,
    "Worker result cache (footprint retention)")."""

    def test_disjoint_write_retains_overlapping_write_evicts(self):
        example = build_paper_example()
        graph = example.graph
        target = example["weight-v2"]
        with WorkerPool(graph, count=1) as pool:
            client = pool.clients[0]
            client.lineage(target)
            client.lineage(target)                    # identical re-ask
            _, stats = client.ping()
            assert stats["cache_misses"] >= 1
            assert stats["cache_hits"] >= 1
            assert stats["cache_size"] >= 1
            hits_before = stats["cache_hits"]
            misses_before = stats["cache_misses"]
            # A write provably disjoint from the lineage closure: the
            # entry survives the epoch advance and the re-ask still hits.
            graph.add_entity(name="cache-buster")
            client.catch_up()
            client.lineage(target)
            _, stats = client.ping()
            assert stats["cache_hits"] == hits_before + 1
            assert stats["cache_misses"] == misses_before
            assert stats["cache_retained"] >= 1
            hits_before = stats["cache_hits"]
            # A write *inside* the closure (property flip on the target)
            # must evict: the same re-ask misses and recomputes.
            graph.store.set_vertex_property(target, "note", "tweaked")
            client.catch_up()
            client.lineage(target)
            _, stats = client.ping()
            assert stats["cache_hits"] == hits_before
            assert stats["cache_misses"] == misses_before + 1
            assert stats["cache_evicted"] >= 1
            client.lineage(target)                    # warm again
            _, stats = client.ping()
            assert stats["cache_hits"] == hits_before + 1

    def test_budgeted_cypher_with_timeout_never_cached(self):
        """Wall-clock budgets truncate nondeterministically; replaying
        such a result from cache could serve a different row set."""
        from repro.query.cypherlite import Budget
        from repro.serve.wire import budget_to_wire

        example = build_paper_example()
        with WorkerPool(example.graph, count=1) as pool:
            client = pool.clients[0]
            worker = client.transport.worker       # in-process: observable
            params = {
                "text": "MATCH (e:E) RETURN id(e)",
                "budget": budget_to_wire(Budget(timeout_seconds=30.0)),
            }
            client._request("cypher", params)
            client._request("cypher", params)
            assert worker.cache_hits == 0
            assert worker.cache_misses == 0           # never entered
            # The same query without a wall clock budget caches fine.
            free = {"text": "MATCH (e:E) RETURN id(e)", "budget": None}
            client._request("cypher", free)
            client._request("cypher", free)
            assert worker.cache_hits == 1
            assert worker.cache_misses == 1


class TestTransportFds:
    """Satellite regression: pool restart loops must not leak fds
    (the socket and both of its ``makefile`` wrappers)."""

    def test_restart_loop_does_not_leak_fds(self):
        import gc

        def checkpoint_files(pool):
            manager = pool.log._checkpoints
            if manager is None or manager._dir is None \
                    or not manager._dir.is_dir():
                return []
            return sorted(manager._dir.iterdir())

        example = build_paper_example()
        graph = example.graph
        target = example["weight-v2"]
        with WorkerPool(graph, config=PROCESSES) as pool:
            client = pool.clients[0]
            assert client.lineage(target).root == target
            gc.collect()
            baseline = open_fds()
            for _ in range(4):
                client.proc.kill()
                client.proc.wait()
                pool.restart(client, failed=client.transport)
                assert client.lineage(target).root == target
                # Checkpoint bootstraps must not accrete snapshot files:
                # at most the one live checkpoint, regardless of how
                # many restarts reused it.
                assert len(checkpoint_files(pool)) <= 1
            gc.collect()
            assert open_fds() <= baseline
        assert client.restarts == 4
        # stop_serving()/close() removes the checkpoint scratch directory
        # with everything in it — nothing stale survives the pool.
        assert checkpoint_files(pool) == []
        manager = pool.log._checkpoints
        assert manager is None or manager._dir is None \
            or not manager._dir.is_dir()


class TestShipCursor:
    """A batch committed between ``ship``'s span read and its cursor set
    belongs to the *next* ship; the cursor must not jump over it."""

    def test_write_racing_the_span_read_is_not_skipped(self, monkeypatch):
        graph = build_paper_example().graph
        with WorkerPool(graph, count=1) as pool:
            client = pool.clients[0]
            graph.add_entity(name="in-span")
            read_span = pool.log.ship_binary_since

            def read_then_lose_the_race(epoch):
                span = read_span(epoch)
                graph.add_entity(name="raced")
                return span

            monkeypatch.setattr(pool.log, "ship_binary_since",
                                read_then_lose_the_race)
            assert pool.ship(client) == 1
            monkeypatch.undo()
            assert client.epoch == pool.log.epoch - 1
            assert client.lag == 1
            assert pool.ship(client) == 1            # the raced batch
            worker_epoch, _stats = client.ping()
            assert worker_epoch == client.epoch == pool.log.epoch
            assert client.restarts == 0

    def test_write_racing_the_fault_recapture_is_not_skipped(
            self, monkeypatch):
        """The fault recapture's cursor is its checkpoint epoch plus the
        tail it read, not the leader epoch once the frames are out."""
        graph = build_paper_example().graph
        with WorkerPool(graph, count=1) as pool:
            client = pool.clients[0]
            truncate_log(graph.store, 4)
            for tag in range(8):            # the span falls off the log
                graph.add_entity(name=f"burst{tag}")
            break_checkpoint(pool)          # the first load fails
            load = pool._ship_checkpoint
            loaded = []

            def load_then_lose_the_race(client, ckpt, tail):
                loaded.append(ckpt.generation)
                if len(loaded) == 2:        # the recapture: tail is read
                    graph.add_entity(name="raced")
                return load(client, ckpt, tail)

            monkeypatch.setattr(pool, "_ship_checkpoint",
                                load_then_lose_the_race)
            pool.ship(client)               # truncated: state reload
            monkeypatch.undo()
            assert len(loaded) == 2 and loaded[1] > loaded[0]
            assert pool.stats()["bootstrap"]["full_syncs"] == 1
            assert client.resyncs == 1
            assert client.epoch == pool.log.epoch - 1
            assert pool.ship(client) == 1            # the raced batch
            worker_epoch, _stats = client.ping()
            assert worker_epoch == client.epoch == pool.log.epoch
            assert client.restarts == 0


class TestWorkerPoolLifecycle:
    def test_clean_close_is_idempotent(self):
        graph = build_paper_example().graph
        with WorkerPool(graph, config=PROCESSES) as pool:
            client = pool.clients[0]
            entities = list(graph.entities())
            assert client.lineage(entities[0]).root == entities[0]
            proc = client.proc
        assert proc.poll() is not None        # worker exited on close
        pool.close()                          # idempotent

    def test_workers_exit_when_pool_closes_sockets(self):
        graph = build_paper_example().graph
        pool = WorkerPool(graph, config=PROCESSES.with_(replicas=2))
        procs = [client.proc for client in pool.clients]
        pool.close()
        for proc in procs:
            assert proc.wait(timeout=10) is not None

    def test_restart_after_close_refused(self):
        graph = build_paper_example().graph
        pool = WorkerPool(graph, count=1)
        client = pool.clients[0]
        pool.close()
        with pytest.raises(ReplicaUnavailable):
            pool.restart(client)

    def test_bad_arguments_rejected(self):
        graph = build_paper_example().graph
        with pytest.raises(ValueError):
            WorkerPool(graph, count=0)
