"""Epoch-counter semantics of the store and the session's epoch-keyed caches.

Every mutating :class:`PropertyGraphStore` method must bump the epoch
exactly once per call — including ``remove_vertex``, whose incident-edge
tombstoning is part of one logical mutation — and read-only operations must
never bump it. The session caches (snapshot, segment, blame, depth, psg)
must be reused object-identically while the store is untouched and must
invalidate as soon as any mutation lands.
"""

import pytest

from repro.model.types import EdgeType, VertexType
from repro.session import LifecycleSession
from repro.store.delta import ResultCache
from repro.store.snapshot import GraphSnapshot
from repro.store.store import PropertyGraphStore


@pytest.fixture()
def store() -> PropertyGraphStore:
    return PropertyGraphStore()


class TestEpochBumps:
    def test_fresh_store_is_epoch_zero(self, store):
        assert store.epoch == 0

    def test_add_vertex_bumps_once(self, store):
        before = store.epoch
        store.add_vertex(VertexType.ENTITY, {"name": "e"})
        assert store.epoch == before + 1

    def test_add_edge_bumps_once(self, store):
        a = store.add_vertex(VertexType.ACTIVITY)
        e = store.add_vertex(VertexType.ENTITY)
        before = store.epoch
        store.add_edge(EdgeType.USED, a, e)
        assert store.epoch == before + 1

    def test_remove_edge_bumps_once(self, store):
        a = store.add_vertex(VertexType.ACTIVITY)
        e = store.add_vertex(VertexType.ENTITY)
        edge = store.add_edge(EdgeType.USED, a, e)
        before = store.epoch
        store.remove_edge(edge)
        assert store.epoch == before + 1

    def test_remove_vertex_bumps_once_despite_incident_edges(self, store):
        a = store.add_vertex(VertexType.ACTIVITY)
        e1 = store.add_vertex(VertexType.ENTITY)
        e2 = store.add_vertex(VertexType.ENTITY)
        store.add_edge(EdgeType.USED, a, e1)
        store.add_edge(EdgeType.USED, a, e2)
        store.add_edge(EdgeType.WAS_GENERATED_BY, e2, a)
        before = store.epoch
        store.remove_vertex(a)          # tombstones three edges too
        assert store.epoch == before + 1

    def test_set_vertex_property_bumps_once(self, store):
        e = store.add_vertex(VertexType.ENTITY, {"name": "e"})
        before = store.epoch
        store.set_vertex_property(e, "name", "renamed")
        assert store.epoch == before + 1

    def test_set_edge_property_bumps_once(self, store):
        a = store.add_vertex(VertexType.ACTIVITY)
        e = store.add_vertex(VertexType.ENTITY)
        edge = store.add_edge(EdgeType.USED, a, e)
        before = store.epoch
        store.set_edge_property(edge, "weight", 2)
        assert store.epoch == before + 1

    def test_every_mutating_method_bumped_total(self, store):
        """A scripted mutation sequence lands on exactly len(sequence)."""
        a = store.add_vertex(VertexType.ACTIVITY)           # 1
        e = store.add_vertex(VertexType.ENTITY)             # 2
        edge = store.add_edge(EdgeType.USED, a, e)          # 3
        store.set_vertex_property(e, "name", "x")           # 4
        store.set_edge_property(edge, "k", 1)               # 5
        store.remove_edge(edge)                             # 6
        store.remove_vertex(a)                              # 7
        assert store.epoch == 7

    def test_reads_do_not_bump(self, store):
        a = store.add_vertex(VertexType.ACTIVITY)
        e = store.add_vertex(VertexType.ENTITY)
        store.add_edge(EdgeType.USED, a, e)
        before = store.epoch
        store.vertex(a)
        store.edge(0)
        list(store.vertices())
        list(store.edges())
        list(store.out_edge_ids(a))
        list(store.in_neighbors(e))
        store.summary()
        _ = a in store
        assert store.epoch == before

    def test_index_creation_does_not_bump(self, store):
        store.add_vertex(VertexType.ENTITY, {"name": "e"})
        before = store.epoch
        store.create_property_index(VertexType.ENTITY, "name")
        list(store.lookup(VertexType.ENTITY, "name", "e"))
        assert store.epoch == before


class TestSnapshotFreshness:
    def test_snapshot_records_epoch(self, store):
        store.add_vertex(VertexType.ENTITY)
        snapshot = GraphSnapshot(store)
        assert snapshot.epoch == store.epoch
        assert snapshot.is_fresh

    def test_any_mutation_stales_the_snapshot(self, store):
        e = store.add_vertex(VertexType.ENTITY)
        snapshot = GraphSnapshot(store)
        store.set_vertex_property(e, "name", "new")
        assert not snapshot.is_fresh


class TestEpochPublication:
    """The delta-log append is the one act that publishes an epoch, and a
    reader that folds the log adopts the epoch of the last batch it
    folded — so a reader racing a writer thread never stamps an epoch
    whose batch is missing, nor folds one batch twice."""

    def test_epoch_moves_only_with_the_log_append(self, store):
        log = store.delta_log
        append = log.append
        seen = []

        def observed(batch):
            seen.append((store.epoch, batch.epoch))
            append(batch)

        log.append = observed
        store.add_vertex(VertexType.ENTITY)
        store.add_vertex(VertexType.ENTITY)
        assert seen == [(0, 1), (1, 2)]
        assert store.epoch == log.last_epoch == 2

    def test_snapshot_adopts_the_last_folded_epoch(self, store):
        first = store.add_vertex(VertexType.ENTITY)
        snapshot = GraphSnapshot(store)
        second = store.add_vertex(VertexType.ENTITY)
        log = store.delta_log
        batches_since = log.batches_since
        late = []

        def racing(epoch):
            span = batches_since(epoch)
            if not late:             # a writer commits right after the read
                late.append(store.add_vertex(VertexType.ENTITY))
            return span

        log.batches_since = racing
        advanced = snapshot.advance()
        del log.batches_since
        assert advanced.epoch == store.epoch - 1
        assert advanced.is_entity(second)
        caught_up = advanced.advance()
        assert caught_up.epoch == store.epoch
        assert all(caught_up.is_entity(v) for v in (first, second, *late))

    def test_cache_adopts_the_last_folded_epoch(self, store):
        entity = store.add_vertex(VertexType.ENTITY)
        cache = ResultCache()
        cache.revalidate(store)
        cache.put("walk", "answer", "ancestry", frozenset({entity}),
                  store.vertex_capacity)
        store.add_vertex(VertexType.ENTITY)
        log = store.delta_log
        batches_since = log.batches_since

        def racing(epoch):           # a writer commits before the read
            store.add_vertex(VertexType.ENTITY)
            return batches_since(epoch)

        log.batches_since = racing
        cache.revalidate(store)
        del log.batches_since
        assert cache.epoch == store.epoch
        assert cache.get("walk") == "answer"
        assert cache.retained == 1


@pytest.fixture()
def session() -> LifecycleSession:
    s = LifecycleSession(project="epochs")
    s.record("alice", "train", uses=["dataset"], generates=["weights"])
    s.record("bob", "evaluate", uses=["weights"], generates=["report"])
    return s


class TestSessionCaches:
    def test_snapshot_memoized_until_mutation(self, session):
        first = session.snapshot()
        assert session.snapshot() is first
        session.record("alice", "train", uses=["dataset"],
                       generates=["weights"])
        recaptured = session.snapshot()
        assert recaptured is not first
        assert recaptured.is_fresh and not first.is_fresh

    def test_segment_cache_reused_object_identically(self, session):
        first = session.how_was_it_made("weights")
        assert session.how_was_it_made("weights") is first

    def test_segment_cache_invalidates_after_mutation(self, session):
        first = session.how_was_it_made("weights")
        session.record("bob", "train", uses=["dataset", "weights"],
                       generates=["weights"])
        second = session.how_was_it_made("weights")
        assert second is not first
        # The new latest version is a different entity: results must track
        # the mutation, not just refresh the cache.
        assert second.vertices != first.vertices

    def test_direct_graph_mutation_invalidates(self, session):
        first = session.how_was_it_made("weights")
        # Bypass the session API entirely: a raw store property write must
        # still invalidate (the epoch is bumped at the store layer).
        session.graph.store.set_vertex_property(0, "note", "touched")
        assert session.how_was_it_made("weights") is not first

    def test_blame_and_depth_cached(self, session):
        blame_first = session.who_touched("weights")
        depth_first = session.depth_of("weights")
        assert session.who_touched("weights") == blame_first
        assert session.depth_of("weights") == depth_first
        # Callers get a copy: mutating the report must not poison the cache.
        report = session.who_touched("weights")
        report["mallory"] = 99
        assert "mallory" not in session.who_touched("weights")
        # A mutation that adds a new toucher must show up after the epoch
        # bump — the cache recomputes, not merely survives.
        session.record("carol", "train", uses=["dataset"],
                       generates=["weights"])
        assert "carol" in session.who_touched("weights")
        assert session.who_touched("weights") != blame_first

    def test_typical_pipeline_cached(self, session):
        session.record("alice", "train", uses=["dataset"],
                       generates=["weights"])
        first = session.typical_pipeline("weights")
        assert session.typical_pipeline("weights") is first
        session.record("alice", "train", uses=["dataset"],
                       generates=["weights"])
        assert session.typical_pipeline("weights") is not first

    def test_epoch_property_tracks_store(self, session):
        before = session.epoch
        session.record("dave", "clean", uses=["dataset"],
                       generates=["dataset"])
        assert session.epoch > before
        assert session.epoch == session.graph.store.epoch


class TestOperatorEpochSync:
    def test_operator_cache_and_snapshot_resync(self, session):
        from repro.segment.pgseg import PgSegOperator, PgSegQuery

        graph = session.graph
        operator = PgSegOperator(graph, snapshot=True)
        dst = session.builder.latest("weights")
        roots = tuple(
            e for e in graph.entities()
            if not graph.generating_activities(e)
        )
        query = PgSegQuery(src=roots, dst=(dst,))
        first = operator.evaluate(query)
        snapshot_before = operator.snapshot
        session.record("erin", "train", uses=["dataset"],
                       generates=["weights2"])
        second = operator.evaluate(query)
        assert second is not first
        assert operator.snapshot is not snapshot_before
        assert operator.snapshot.is_fresh
