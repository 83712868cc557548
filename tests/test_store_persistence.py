"""Tests for store snapshots and the write-ahead log."""

import pytest

from repro.errors import SerializationError
from repro.model.types import EdgeType, VertexType
from repro.store.persistence import WriteAheadLog, load_store, replay, save_store
from repro.store.store import PropertyGraphStore


def stores_identical(left: PropertyGraphStore,
                     right: PropertyGraphStore) -> bool:
    """Exact id-level equality (not just isomorphism)."""
    if left.vertex_capacity != right.vertex_capacity:
        return False
    if left.edge_capacity != right.edge_capacity:
        return False
    for vid in range(left.vertex_capacity):
        in_left = vid in left
        if in_left != (vid in right):
            return False
        if in_left:
            lrec, rrec = left.vertex(vid), right.vertex(vid)
            if (lrec.vertex_type, lrec.order, lrec.properties) \
                    != (rrec.vertex_type, rrec.order, rrec.properties):
                return False
    for eid in range(left.edge_capacity):
        in_left = left.has_edge_id(eid)
        if in_left != right.has_edge_id(eid):
            return False
        if in_left:
            lrec, rrec = left.edge(eid), right.edge(eid)
            if (lrec.edge_type, lrec.src, lrec.dst, lrec.properties) \
                    != (rrec.edge_type, rrec.src, rrec.dst, rrec.properties):
                return False
    return True


class TestSnapshot:
    def test_roundtrip_paper_example(self, paper, tmp_path):
        target = tmp_path / "store.jsonl"
        save_store(paper.graph.store, target)
        restored = load_store(target)
        assert stores_identical(paper.graph.store, restored)

    def test_roundtrip_pd(self, pd_small, tmp_path):
        target = tmp_path / "store.jsonl"
        save_store(pd_small.graph.store, target)
        restored = load_store(target)
        assert stores_identical(pd_small.graph.store, restored)

    def test_tombstone_gaps_preserved(self, tmp_path):
        store = PropertyGraphStore()
        keep1 = store.add_vertex(VertexType.ENTITY, {"name": "a"})
        doomed = store.add_vertex(VertexType.ENTITY)
        keep2 = store.add_vertex(VertexType.ACTIVITY)
        eid = store.add_edge(EdgeType.USED, keep2, keep1)
        doomed_edge = store.add_edge(EdgeType.USED, keep2, doomed)
        store.remove_edge(doomed_edge)
        store.remove_vertex(doomed)

        target = tmp_path / "store.jsonl"
        save_store(store, target)
        restored = load_store(target)
        assert stores_identical(store, restored)
        # New ids continue after the gaps, exactly like the original.
        assert restored.add_vertex(VertexType.AGENT) \
            == store.add_vertex(VertexType.AGENT)

    def test_queries_survive_restore(self, paper, tmp_path):
        from repro.segment.pgseg import segment
        target = tmp_path / "store.jsonl"
        save_store(paper.graph.store, target)
        from repro.model.graph import ProvenanceGraph
        restored_graph = ProvenanceGraph(store=load_store(target))
        # Identical ids: the same query returns the same vertex set.
        original = segment(paper.graph, [paper["dataset-v1"]],
                           [paper["weight-v2"]])
        again = segment(restored_graph, [paper["dataset-v1"]],
                        [paper["weight-v2"]])
        assert original.vertices == again.vertices

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json}\n")
        with pytest.raises(SerializationError):
            load_store(bad)

    def test_missing_meta(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "vertex", "id": 0, "type": "E", '
                       '"order": 0, "props": {}}\n')
        with pytest.raises(SerializationError):
            load_store(bad)


class TestWriteAheadLog:
    def test_log_and_replay(self, tmp_path):
        log_path = tmp_path / "wal.jsonl"
        store = PropertyGraphStore()
        with WriteAheadLog(store, log_path) as wal:
            e = wal.add_vertex(VertexType.ENTITY, {"name": "data"})
            a = wal.add_vertex(VertexType.ACTIVITY, {"command": "train"})
            wal.add_edge(EdgeType.USED, a, e)
            wal.set_vertex_property(e, "size", 42)
        recovered = replay(log_path)
        assert stores_identical(store, recovered)
        assert recovered.vertex(0).get("size") == 42

    def test_replay_with_removals(self, tmp_path):
        log_path = tmp_path / "wal.jsonl"
        store = PropertyGraphStore()
        with WriteAheadLog(store, log_path) as wal:
            e1 = wal.add_vertex(VertexType.ENTITY)
            e2 = wal.add_vertex(VertexType.ENTITY)
            eid = wal.add_edge(EdgeType.WAS_DERIVED_FROM, e2, e1)
            wal.remove_edge(eid)
            wal.remove_vertex(e1)
        recovered = replay(log_path)
        assert stores_identical(store, recovered)
        assert recovered.vertex_count == 1
        assert recovered.edge_count == 0

    def test_replay_onto_snapshot(self, tmp_path):
        """Snapshot + incremental log = latest state."""
        store = PropertyGraphStore()
        e = store.add_vertex(VertexType.ENTITY, {"name": "base"})
        snapshot_path = tmp_path / "snap.jsonl"
        save_store(store, snapshot_path)

        log_path = tmp_path / "wal.jsonl"
        with WriteAheadLog(store, log_path) as wal:
            a = wal.add_vertex(VertexType.ACTIVITY)
            wal.add_edge(EdgeType.USED, a, e)

        recovered = replay(log_path, load_store(snapshot_path))
        assert stores_identical(store, recovered)

    def test_replay_bad_op(self, tmp_path):
        log_path = tmp_path / "wal.jsonl"
        log_path.write_text('{"kind": "op", "op": "explode"}\n')
        with pytest.raises(SerializationError):
            replay(log_path)


class TestEpochPersistence:
    def test_epoch_roundtrip(self, paper, tmp_path):
        store = paper.graph.store
        target = tmp_path / "store.jsonl"
        save_store(store, target)
        restored = load_store(target)
        assert restored.epoch == store.epoch

    def test_reloaded_store_continues_timeline(self, tmp_path):
        store = PropertyGraphStore()
        store.add_vertex(VertexType.ENTITY, {"name": "a"})
        store.add_vertex(VertexType.ACTIVITY, {"command": "c"})
        target = tmp_path / "store.jsonl"
        save_store(store, target)
        restored = load_store(target)
        assert restored.epoch == 2
        restored.add_vertex(VertexType.ENTITY, {"name": "later"})
        assert restored.epoch == 3
        assert restored.delta_log.last_epoch == 3

    def test_reloaded_delta_log_is_rebased(self, paper, tmp_path):
        store = paper.graph.store
        target = tmp_path / "store.jsonl"
        save_store(store, target)
        restored = load_store(target)
        # The reconstruction batches must not leak into the restored log:
        # the span since the save point is empty, earlier is unavailable.
        assert restored.delta_log.batches_since(store.epoch) == []
        assert restored.delta_log.batches_since(store.epoch - 1) is None

    def test_signature_mode_roundtrips(self, tmp_path):
        loose = PropertyGraphStore(check_signatures=False)
        a = loose.add_vertex(VertexType.ENTITY)
        b = loose.add_vertex(VertexType.ENTITY)
        loose.add_edge(EdgeType.USED, a, b)    # violates the PROV signature
        target = tmp_path / "store.jsonl"
        save_store(loose, target)
        restored = load_store(target)          # adopts the saved mode
        assert not restored.check_signatures
        assert stores_identical(loose, restored)
        # An explicit override still wins.
        assert load_store(target, check_signatures=False).edge_count == 1

    def test_v1_snapshots_still_load(self, tmp_path):
        import json

        store = PropertyGraphStore()
        store.add_vertex(VertexType.ENTITY, {"name": "a"})
        store.add_vertex(VertexType.ACTIVITY, {"command": "c"})
        store.add_edge(EdgeType.USED, 1, 0)
        target = tmp_path / "store.jsonl"
        save_store(store, target)
        # Rewrite the meta line the way v1 wrote it: no epoch, old tag.
        lines = target.read_text().splitlines()
        meta = json.loads(lines[0])
        meta["format"] = "repro-store-v1"
        del meta["epoch"]
        target.write_text("\n".join([json.dumps(meta)] + lines[1:]) + "\n")
        restored = load_store(target)
        assert stores_identical(store, restored)


class TestWalDeltaUnification:
    def test_wal_replay_equals_shipped_delta_stream(self, tmp_path):
        """Replaying a WAL and applying the equivalent shipped DeltaBatch
        stream must yield stores with identical vertices/edges/epochs."""
        from repro.serve.pool import WorkerPool

        leader = PropertyGraphStore()
        pool = WorkerPool(leader, count=1)      # follows from epoch 0
        [client] = pool.clients
        log_path = tmp_path / "wal.jsonl"
        with WriteAheadLog(leader, log_path) as wal:
            data = wal.add_vertex(VertexType.ENTITY, {"name": "data"})
            act = wal.add_vertex(VertexType.ACTIVITY, {"command": "train"})
            wal.add_edge(EdgeType.USED, act, data)
            out = wal.add_vertex(VertexType.ENTITY, {"name": "weights"})
            wal.add_edge(EdgeType.WAS_GENERATED_BY, out, act)
            wal.set_vertex_property(out, "score", 0.9)
            doomed = wal.add_vertex(VertexType.ENTITY)
            wal.remove_vertex(doomed)

        replayed = replay(log_path)
        with pool:
            client.catch_up()
            follower = client.transport.worker.store   # in-process worker
            assert stores_identical(replayed, leader)
            assert stores_identical(follower, leader)
            assert replayed.epoch == follower.epoch == leader.epoch
