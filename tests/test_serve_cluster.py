"""Replica catch-up protocol, router consistency, and session serving."""

import pytest

from repro.errors import ReplicaUnavailable, TransportClosed
from repro.model.types import EdgeType, VertexType
from repro.query.ops import blame, lineage
from repro.segment.pgseg import PgSegQuery
from repro.serve.cluster import ProvCluster, QueryRouter
from repro.serve.pool import WorkerPool
from repro.serve.wire import batch_to_wire
from repro.session import LifecycleSession
from repro.store.checkpoint import CheckpointManager
from repro.store.delta import Delta, DeltaBatch, DeltaOp
from repro.store.store import PropertyGraphStore
from repro.workloads.lifecycle import build_paper_example
from faults import poison_transport
from test_store_persistence import stores_identical


def grow(graph, tag):
    """Append one run: activity uses an existing entity, generates one."""
    entities = list(graph.entities())
    activity = graph.add_activity(command=f"cmd{tag}")
    graph.used(activity, entities[tag % len(entities)])
    out = graph.add_entity(name=f"out{tag}")
    graph.was_generated_by(out, activity)
    return out


def worker_of(client):
    """The in-process ``ReplicaWorker`` behind a pool client's link."""
    return client.transport.worker


class TestReplica:
    """The follower contract, pinned on in-process pool clients: every
    replica is a ``ReplicaWorker`` behind a ``WorkerClient``."""

    def test_bootstrap_is_id_and_epoch_exact(self, paper):
        with WorkerPool(paper.graph, count=1) as pool:
            [client] = pool.clients
            assert stores_identical(paper.graph.store,
                                    worker_of(client).store)
            assert client.epoch == worker_of(client).epoch \
                == paper.graph.store.epoch
            assert client.lag == 0

    def test_catch_up_applies_shipped_batches(self, paper):
        graph = paper.graph
        with WorkerPool(graph, count=1) as pool:
            [client] = pool.clients
            for tag in range(5):
                grow(graph, tag)
            assert client.lag > 0
            applied = client.catch_up()
            assert applied == client.batches_shipped \
                == worker_of(client).batches_applied > 0
            assert client.lag == 0
            assert stores_identical(graph.store, worker_of(client).store)
            assert client.resyncs == 0

    def test_catch_up_is_noop_when_fresh(self, paper):
        with WorkerPool(paper.graph, count=1) as pool:
            assert pool.clients[0].catch_up() == 0

    def test_truncation_forces_full_resync(self):
        graph = build_paper_example().graph
        # Shrink the leader's log so a mutation burst overflows it.
        graph.store.delta_log.capacity = 8
        with WorkerPool(graph, count=1) as pool:
            [client] = pool.clients
            for tag in range(12):
                grow(graph, tag)
            assert graph.store.delta_log.truncated
            client.catch_up()
            assert client.resyncs == 1 and client.restarts == 0
            assert stores_identical(graph.store, worker_of(client).store)
            assert client.epoch == worker_of(client).epoch \
                == graph.store.epoch

    def test_replica_queries_match_leader(self, paper):
        graph = paper.graph
        with WorkerPool(graph, count=1) as pool:
            [client] = pool.clients
            for tag in range(3):
                target = grow(graph, tag)
            client.catch_up()
            assert client.lineage(target).vertices == \
                lineage(graph, target).vertices
            assert client.blame(target) == blame(graph, target)

    def test_replica_local_delta_log_mirrors_leader(self, paper):
        graph = paper.graph
        start = graph.store.epoch
        with WorkerPool(graph, count=1) as pool:
            [client] = pool.clients
            for tag in range(3):
                grow(graph, tag)
            client.catch_up()
            leader_span = graph.store.delta_log.batches_since(start)
            replica_span = \
                worker_of(client).store.delta_log.batches_since(start)
            assert replica_span == leader_span

    def test_loose_signature_leader_is_servable(self):
        """A check_signatures=False leader must replicate in its own mode."""
        store = PropertyGraphStore(check_signatures=False)
        a = store.add_vertex(VertexType.ENTITY, {"name": "a"})
        b = store.add_vertex(VertexType.ENTITY, {"name": "b"})
        store.add_edge(EdgeType.USED, a, b)     # violates the PROV signature
        with ProvCluster(store, replicas=1) as cluster:
            replica = cluster.replicas[0]
            assert not worker_of(replica).store.check_signatures
            assert stores_identical(store, worker_of(replica).store)
            # Loose edges must also replicate through the batch stream.
            store.add_edge(EdgeType.USED, b, a)
            replica.catch_up()
            assert stores_identical(store, worker_of(replica).store)

    def test_divergence_recovers_via_resync(self, paper):
        """A corrupted follower must be replaced, not wedge forever: the
        worker exits on the batch it cannot apply, and catch-up takes the
        crash path (restart, then checkpoint + tail)."""
        graph = paper.graph
        with WorkerPool(graph, count=1) as pool:
            [client] = pool.clients
            worker_of(client).store.add_vertex(VertexType.ENTITY)
            target = grow(graph, 0)
            with pytest.raises(ReplicaUnavailable):
                client.catch_up()
            assert client.restarts == client.resyncs == 1
            assert stores_identical(graph.store, worker_of(client).store)
            # Serves the leader's answers again after recovery.
            assert client.lineage(target).vertices \
                == lineage(graph, target).vertices

    def test_poisoned_link_takes_the_crash_path(self, paper):
        """A poisoned in-memory link is refused like a torn socket: the
        ask fails over to a restarted worker, which answers again."""
        graph = paper.graph
        target = paper["weight-v2"]
        with WorkerPool(graph, count=1) as pool:
            [client] = pool.clients
            poison_transport(client)
            with pytest.raises(ReplicaUnavailable):
                client.lineage(target)
            assert client.restarts == 1 and client.alive()
            assert client.lineage(target).vertices \
                == lineage(graph, target).vertices

    def test_replicas_bootstrap_from_one_capture(self, paper, monkeypatch):
        """N in-process workers load one checkpoint file: the store is
        encoded once, not once per replica."""
        captured = []
        capture = CheckpointManager.capture

        def counting_capture(manager, store):
            captured.append(store.epoch)
            return capture(manager, store)

        monkeypatch.setattr(CheckpointManager, "capture", counting_capture)
        with ProvCluster(paper.graph, replicas=3) as cluster:
            assert captured == [paper.graph.store.epoch]
            for replica in cluster.replicas:
                assert stores_identical(paper.graph.store,
                                        worker_of(replica).store)

    def test_unlinked_checkpoint_is_recaptured_once(self, paper):
        """A restart whose checkpoint file vanished captures a fresh one
        (exactly one) and converges on the leader."""
        graph = paper.graph
        with ProvCluster(graph, replicas=1) as cluster:
            replica = cluster.replicas[0]
            stale = cluster.log.checkpoint()
            stale.path.unlink()
            worker_of(replica).store.add_vertex(VertexType.ENTITY)
            target = grow(graph, 0)
            with pytest.raises(ReplicaUnavailable):
                replica.catch_up()              # apply fails: crash path
            assert replica.resyncs == 1
            assert cluster.pool.stats()["bootstrap"]["full_syncs"] == 1
            assert cluster.log.checkpoint().generation \
                == stale.generation + 1
            assert stores_identical(graph.store, worker_of(replica).store)
            assert cluster.lineage(target).vertices \
                == lineage(graph, target).vertices

    def test_close_removes_checkpoint_directory(self, paper):
        cluster = ProvCluster(paper.graph, replicas=2)
        directory = cluster.log.checkpoint().path.parent
        assert directory.is_dir()
        cluster.close()
        assert not directory.exists()
        cluster.close()                         # idempotent

    def test_payload_count_mismatch_rejected(self, paper):
        with WorkerPool(paper.graph, count=1) as pool:
            store = worker_of(pool.clients[0]).store
            batch = DeltaBatch(epoch=store.epoch + 1, deltas=(
                Delta(DeltaOp.ADD_VERTEX, store.vertex_capacity,
                      vertex_type=VertexType.ENTITY, order=0),
            ))
            with pytest.raises(ValueError):
                store.apply_replicated_batch(batch, [])   # short list

    def test_divergence_is_detected(self, paper):
        graph = paper.graph
        with WorkerPool(graph, count=1) as pool:
            [client] = pool.clients
            store = worker_of(client).store
            # A batch from the future (epoch gap) must be rejected.
            bad = DeltaBatch(epoch=store.epoch + 2, deltas=())
            with pytest.raises(ValueError, match="does not follow"):
                store.apply_replicated_batch(bad)
            # An id mismatch (follower diverged) must be rejected too.
            bad_id = DeltaBatch(epoch=store.epoch + 1, deltas=(
                Delta(DeltaOp.ADD_VERTEX, store.vertex_capacity + 5,
                      vertex_type=VertexType.ENTITY, order=0),
            ))
            with pytest.raises(ValueError, match="diverged"):
                store.apply_replicated_batch(bad_id, [{}])
            # Shipped, it makes the worker exit — its link closes like a
            # dead process's socket — and the next catch-up takes the
            # crash path.
            with pytest.raises(TransportClosed):
                client.transport.send(batch_to_wire(bad_id))
            assert not client.alive()
            target = grow(graph, 0)
            with pytest.raises(ReplicaUnavailable):
                client.catch_up()
            assert client.restarts == client.resyncs == 1
            assert client.alive() and client.lag == 0
            assert client.lineage(target).vertices \
                == lineage(graph, target).vertices


class TestRouter:
    def test_round_robin_across_fresh_replicas(self, paper):
        with WorkerPool(paper.graph, count=3) as pool:
            router = QueryRouter(pool.clients)
            picks = [router.route(min_epoch=0).replica_id for _ in range(6)]
            assert picks == [0, 1, 2, 0, 1, 2]

    def test_stale_rotation_target_caught_up_in_place(self, paper):
        graph = paper.graph
        with WorkerPool(graph, count=2) as pool:
            replicas = pool.clients
            grow(graph, 0)
            router = QueryRouter(replicas)
            pick = router.route(min_epoch=graph.store.epoch)
            assert pick.replica_id == 0 and pick.lag == 0
            assert replicas[1].lag > 0       # not its turn: untouched

    def test_stale_tolerant_stamp_never_forces_catch_up(self, paper):
        graph = paper.graph
        with WorkerPool(graph, count=2) as pool:
            grow(graph, 0)
            router = QueryRouter(pool.clients)
            pick = router.route(min_epoch=0)
            assert pick.lag > 0              # serves its own (stale) epoch

    def test_strict_reads_fan_out_after_a_write(self, paper):
        """A write must not funnel the whole read stream onto one replica."""
        graph = paper.graph
        with WorkerPool(graph, count=4) as pool:
            replicas = pool.clients
            router = QueryRouter(replicas)
            grow(graph, 0)
            picks = [router.route(min_epoch=graph.store.epoch).replica_id
                     for _ in range(8)]
            assert picks == [0, 1, 2, 3, 0, 1, 2, 3]
            assert all(replica.lag == 0 for replica in replicas)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            QueryRouter([])

    def test_unsatisfiable_stamp_raises(self, paper):
        """A strong read must never silently degrade to stale data."""
        with WorkerPool(paper.graph, count=1) as pool:
            router = QueryRouter(pool.clients[:1])
            with pytest.raises(ValueError, match="ahead of the leader"):
                router.route(min_epoch=pool.log.epoch + 1)


class TestProvCluster:
    def test_read_your_writes_without_manual_refresh(self, paper):
        graph = paper.graph
        cluster = ProvCluster(graph, replicas=2)
        target = grow(graph, 0)
        result = cluster.lineage(target)
        assert result.vertices == lineage(graph, target).vertices

    def test_stale_reads_opt_in(self, paper):
        graph = paper.graph
        cluster = ProvCluster(graph, replicas=1)
        stamp = cluster.leader_epoch
        target = grow(graph, 0)
        # A bounded-staleness read routed below the write's epoch must not
        # force catch-up: the replica answers for its own epoch, where the
        # new entity does not exist yet.
        from repro.errors import VertexNotFound
        with pytest.raises(VertexNotFound):
            cluster.lineage(target, min_epoch=stamp)
        assert cluster.replicas[0].lag > 0

    def test_refresh_ships_to_all_replicas(self, paper):
        graph = paper.graph
        cluster = ProvCluster(graph, replicas=3)
        before = graph.store.epoch
        for tag in range(4):
            grow(graph, tag)
        applied = cluster.refresh()
        # Every replica applies one batch per leader epoch bump.
        assert applied == 3 * (graph.store.epoch - before)
        assert all(replica.lag == 0 for replica in cluster.replicas)

    def test_segment_and_cypher_routed(self, paper):
        graph = paper.graph
        cluster = ProvCluster(graph, replicas=2)
        roots = [v for v in graph.entities()
                 if not graph.generating_activities(v)]
        dst = paper["weight-v2"]
        routed = cluster.segment(PgSegQuery(src=tuple(roots), dst=(dst,)))
        from repro.segment.pgseg import PgSegOperator
        local = PgSegOperator(graph).evaluate(
            PgSegQuery(src=tuple(roots), dst=(dst,)))
        assert routed.vertices == local.vertices
        assert sorted(routed.edge_ids) == sorted(local.edge_ids)
        rows = cluster.cypher(f"MATCH (e:E) WHERE id(e) = {dst} RETURN e")
        assert len(rows) == 1
        served = sum(r.queries_served for r in cluster.replicas)
        assert served == 2

    def test_summarize_serves_one_coherent_replica(self, paper):
        """All segments of one summary must come from a single replica."""
        graph = paper.graph
        cluster = ProvCluster(graph, replicas=3)
        roots = tuple(v for v in graph.entities()
                      if not graph.generating_activities(v))
        queries = [PgSegQuery(src=roots, dst=(dst,))
                   for dst in (paper["weight-v2"], paper["weight-v3"])]
        cluster.summarize(queries)
        served = sorted(r.queries_served for r in cluster.replicas)
        assert served == [0, 0, len(queries)]

    def test_accepts_bare_store(self):
        store = PropertyGraphStore()
        store.add_vertex(VertexType.ENTITY, {"name": "only"})
        cluster = ProvCluster(store, replicas=1)
        assert cluster.leader_epoch == store.epoch


class TestQueryMany:
    """The in-process batch fan-out (out-of-process lives in the pool
    and differential suites)."""

    def test_results_in_spec_order_across_replicas(self, paper):
        cluster = ProvCluster(paper.graph, replicas=2)
        entities = list(paper.graph.entities())[:4]
        specs = [("lineage", {"entity": entity}) for entity in entities]
        specs.append(("cypher", {"text":
                      f"MATCH (e:E) WHERE id(e) = {entities[0]} "
                      f"RETURN id(e)"}))
        results = cluster.query_many(specs)
        assert len(results) == len(specs)
        for entity, result in zip(entities, results):
            assert result.vertices \
                == lineage(paper.graph, entity).vertices
        assert results[-1] == [{"col0": entities[0]}]
        # The batch fanned out: both replicas served a share.
        assert all(r.queries_served > 0 for r in cluster.replicas)

    def test_read_your_writes_for_batches(self, paper):
        cluster = ProvCluster(paper.graph, replicas=2)
        out = grow(paper.graph, 41)
        [result] = cluster.query_many([("lineage", {"entity": out})])
        assert out in result.vertices
        assert all(r.epoch == cluster.leader_epoch
                   for r in cluster.replicas
                   if r.queries_served > 0)

    def test_per_spec_error_isolation(self, paper):
        cluster = ProvCluster(paper.graph, replicas=2)
        entity = next(iter(paper.graph.entities()))
        results = cluster.query_many([
            ("blame", {"entity": 10 ** 6}),
            ("blame", {"entity": entity}),
        ])
        assert isinstance(results[0], BaseException)
        assert results[1] == blame(paper.graph, entity)

    def test_unknown_method_raises(self, paper):
        cluster = ProvCluster(paper.graph, replicas=1)
        with pytest.raises(ValueError, match="unknown query method"):
            cluster.query_many([("drop_tables", {})])

    def test_empty_batch(self, paper):
        cluster = ProvCluster(paper.graph, replicas=1)
        assert cluster.query_many([]) == []

    def test_unsatisfiable_stamp_raises(self, paper):
        cluster = ProvCluster(paper.graph, replicas=1)
        entity = next(iter(paper.graph.entities()))
        with pytest.raises(ValueError, match="ahead of the leader"):
            cluster.query_many([("lineage", {"entity": entity})],
                               min_epoch=cluster.leader_epoch + 1)

    @pytest.mark.parametrize("out_of_process", [False, True])
    def test_small_batches_advance_the_rotation_by_what_they_use(
            self, out_of_process):
        """A batch smaller than the fleet used to ask ``route_many`` for
        the whole fleet, bringing the cursor back to where it started:
        every one-spec batch landed on replica 0 (``[20, 0]``)."""
        example = build_paper_example()
        target = example["weight-v2"]
        with ProvCluster(example.graph, replicas=2,
                         out_of_process=out_of_process) as cluster:
            for _ in range(20):
                [result] = cluster.query_many(
                    [("lineage", {"entity": target})])
                assert result.vertices \
                    == lineage(example.graph, target).vertices
            assert [r.queries_served for r in cluster.replicas] == [10, 10]
            # A batch as wide as the fleet still uses all of it.
            cluster.query_many([("blame", {"entity": target})] * 4)
            assert [r.queries_served for r in cluster.replicas] == [12, 12]

    def test_targets_serve_the_batch_without_moving_the_rotation(self, paper):
        cluster = ProvCluster(paper.graph, replicas=3)
        out = grow(paper.graph, 43)            # every replica now lags
        cursor = cluster.router._cursor
        chosen = [cluster.replicas[2], cluster.replicas[1]]
        results = cluster.query_many(
            [("lineage", {"entity": out})] * 4, targets=chosen)
        assert all(out in result.vertices for result in results)
        assert [r.queries_served for r in cluster.replicas] == [0, 2, 2]
        assert cluster.router._cursor == cursor
        # Only the chosen replicas were caught up to the stamp.
        assert [r.lag == 0 for r in cluster.replicas] == [False, True, True]
        with pytest.raises(ValueError, match="ahead of the leader"):
            cluster.query_many([("lineage", {"entity": out})],
                               min_epoch=cluster.leader_epoch + 1,
                               targets=chosen)

    def test_session_query_many_with_and_without_serving(self):
        example = build_paper_example()
        session = LifecycleSession(graph=example.graph)
        target = example["weight-v2"]
        specs = [("lineage", {"entity": target}),
                 ("blame", {"entity": 10 ** 6}),
                 ("segment", {"query": PgSegQuery(
                     src=(example["dataset-v1"],), dst=(target,))})]
        local = session.query_many(specs)
        session.serve(replicas=2)
        try:
            served = session.query_many(specs)
        finally:
            session.stop_serving()
        for low, high in zip(local, served, strict=True):
            if isinstance(low, BaseException):
                assert type(low) is type(high)
            elif hasattr(low, "vertices"):
                assert set(low.vertices) == set(high.vertices)
            else:
                assert low == high


class TestSessionServing:
    def test_serve_routes_session_reads(self):
        session = LifecycleSession(project="serving")
        session.record("alice", "train", uses=["dataset"],
                       generates=["weights"])
        session.record("bob", "evaluate", uses=["weights"],
                       generates=["report"])
        plain_seg = session.how_was_it_made("weights")
        plain_blame = session.who_touched("weights")
        plain_depth = session.depth_of("weights")

        cluster = session.serve(replicas=2)
        session.result_cache.clear(session.epoch)        # force recompute through replicas
        assert session.how_was_it_made("weights").vertices \
            == plain_seg.vertices
        assert session.who_touched("weights") == plain_blame
        assert session.depth_of("weights") == plain_depth
        assert sum(r.queries_served for r in cluster.replicas) >= 3

    def test_serving_sees_new_writes(self):
        session = LifecycleSession(project="serving")
        session.record("alice", "train", uses=["dataset"],
                       generates=["weights"])
        session.serve(replicas=2)
        session.record("carol", "tune", uses=["weights"],
                       generates=["weights"])
        assert "carol" in session.who_touched("weights")

    def test_stop_serving_detaches(self):
        session = LifecycleSession(project="serving")
        session.record("alice", "train", uses=["dataset"],
                       generates=["weights"])
        cluster = session.serve(replicas=1)
        directory = cluster.log.checkpoint().path.parent
        session.stop_serving()
        assert session.cluster is None
        assert not directory.exists()
        session.result_cache.clear(session.epoch)
        session.how_was_it_made("weights")
        assert sum(r.queries_served for r in cluster.replicas) == 0

    def test_serve_out_of_process_is_one_flag(self):
        """Same session reads, now answered by worker processes."""
        session = LifecycleSession(project="serving")
        session.record("alice", "train", uses=["dataset"],
                       generates=["weights"])
        session.record("bob", "evaluate", uses=["weights"],
                       generates=["report"])
        plain_seg = session.how_was_it_made("weights")
        plain_blame = session.who_touched("weights")

        cluster = session.serve(replicas=2, out_of_process=True)
        try:
            session.result_cache.clear(session.epoch)    # force recompute through workers
            assert session.how_was_it_made("weights").vertices \
                == plain_seg.vertices
            assert session.who_touched("weights") == plain_blame
            # Writes recorded after serving starts are readable at once.
            session.record("carol", "tune", uses=["weights"],
                           generates=["weights"])
            assert "carol" in session.who_touched("weights")
            assert sum(r.queries_served for r in cluster.replicas) >= 3
            procs = [r.proc for r in cluster.replicas]
        finally:
            session.stop_serving()
        assert session.cluster is None
        for proc in procs:              # stop_serving shut the pool down
            assert proc.wait(timeout=10) is not None

    def test_reserve_closes_previous_pool(self):
        session = LifecycleSession(project="serving")
        session.record("alice", "train", uses=["dataset"],
                       generates=["weights"])
        first = session.serve(replicas=1, out_of_process=True)
        first_proc = first.replicas[0].proc
        try:
            second = session.serve(replicas=1)    # re-bootstrap in-process
            assert session.cluster is second
            assert first_proc.wait(timeout=10) is not None
        finally:
            session.stop_serving()
