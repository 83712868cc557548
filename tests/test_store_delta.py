"""The delta-log contract and incremental snapshot recapture.

Covers the guarantees ``GraphSnapshot.advance`` relies on:

- exactly one :class:`DeltaBatch` per epoch, with contiguous epochs;
- compound mutations (``remove_vertex``) commit one *atomic* batch, so a
  replayer can never observe an intermediate epoch;
- bounded retention with explicit truncation (``batches_since -> None``);
- ``advance()`` patches incrementally for small spans, shares untouched
  CSR slices, and falls back to a full rebuild on crossover or truncation.
"""

import threading
from collections import deque

import numpy as np
import pytest

from repro.model.types import EdgeType, VertexType
from repro.store.delta import Delta, DeltaBatch, DeltaLog, DeltaOp
from repro.store.snapshot import GraphSnapshot
from repro.store.store import PropertyGraphStore
from repro.workloads.lifecycle import build_paper_example


@pytest.fixture()
def store() -> PropertyGraphStore:
    return PropertyGraphStore()


def _basic_graph(store: PropertyGraphStore) -> tuple[int, int, int]:
    agent = store.add_vertex(VertexType.AGENT, {"name": "alice"})
    activity = store.add_vertex(VertexType.ACTIVITY, {"command": "train"})
    entity = store.add_vertex(VertexType.ENTITY, {"name": "weights"})
    store.add_edge(EdgeType.WAS_ASSOCIATED_WITH, activity, agent)
    store.add_edge(EdgeType.WAS_GENERATED_BY, entity, activity)
    return agent, activity, entity


class TestOneBatchPerEpoch:
    def test_every_mutation_logs_exactly_one_batch(self, store):
        _basic_graph(store)
        log = store.delta_log
        assert len(log) == store.epoch == 5
        assert [batch.epoch for batch in log.batches_since(0)] \
            == [1, 2, 3, 4, 5]

    def test_batch_epochs_are_contiguous_and_tagged(self, store):
        agent, activity, entity = _basic_graph(store)
        store.set_vertex_property(entity, "name", "weights-v2")
        store.remove_edge(
            next(store.out_edge_ids(entity, EdgeType.WAS_GENERATED_BY))
        )
        batches = store.delta_log.batches_since(0)
        assert [b.epoch for b in batches] == list(range(1, store.epoch + 1))
        for batch in batches:
            assert len(batch.deltas) >= 1

    def test_reads_and_index_builds_log_nothing(self, store):
        _basic_graph(store)
        before = len(store.delta_log)
        list(store.vertices())
        store.create_property_index(VertexType.ENTITY, "name")
        store.summary()
        assert len(store.delta_log) == before

    def test_noncontiguous_append_rejected(self):
        log = DeltaLog()
        log.append(DeltaBatch(1, (Delta(DeltaOp.ADD_VERTEX, 0),)))
        with pytest.raises(ValueError):
            log.append(DeltaBatch(3, (Delta(DeltaOp.ADD_VERTEX, 1),)))


class TestAtomicCompoundRemoval:
    def test_remove_vertex_is_one_batch(self, store):
        _, activity, entity = _basic_graph(store)
        store.add_edge(EdgeType.USED, activity, entity)
        epoch_before = store.epoch
        store.remove_vertex(activity)
        assert store.epoch == epoch_before + 1
        batch = store.delta_log.batches_since(epoch_before)[0]
        ops = [delta.op for delta in batch.deltas]
        # Incident S, G, U edges first, then the vertex itself — atomically.
        assert ops.count(DeltaOp.REMOVE_EDGE) == 3
        assert ops[-1] is DeltaOp.REMOVE_VERTEX
        assert batch.deltas[-1].subject_id == activity

    def test_edge_deltas_carry_endpoints_and_type(self, store):
        _, activity, entity = _basic_graph(store)
        epoch_before = store.epoch
        store.remove_vertex(entity)
        (batch,) = store.delta_log.batches_since(epoch_before)
        edge_delta = batch.deltas[0]
        assert edge_delta.op is DeltaOp.REMOVE_EDGE
        assert edge_delta.edge_type is EdgeType.WAS_GENERATED_BY
        assert (edge_delta.src, edge_delta.dst) == (entity, activity)

    def test_remove_vertex_with_self_loop_detaches_once(self, store):
        """A D self-loop (entity -> itself) is incident twice but must be
        tombstoned — and logged — exactly once, atomically."""
        entity = store.add_vertex(VertexType.ENTITY, {"name": "loop"})
        store.add_edge(EdgeType.WAS_DERIVED_FROM, entity, entity)
        snapshot = GraphSnapshot(store)
        epoch_before = store.epoch
        store.remove_vertex(entity)
        assert store.epoch == epoch_before + 1
        assert store.edge_count == 0 and store.vertex_count == 0
        (batch,) = store.delta_log.batches_since(epoch_before)
        assert [d.op for d in batch.deltas] \
            == [DeltaOp.REMOVE_EDGE, DeltaOp.REMOVE_VERTEX]
        advanced = snapshot.advance(store)
        full = GraphSnapshot(store)
        assert advanced.advanced_from == snapshot.epoch
        assert advanced.vertex_ids() == full.vertex_ids() == []
        for edge_type in EdgeType:
            assert advanced.out_edge_lists(edge_type) \
                == full.out_edge_lists(edge_type)

    def test_replaying_batches_never_sees_intermediate_epochs(self, store):
        """Batch boundaries are epoch boundaries: replaying any prefix of
        whole batches lands exactly on a store epoch that existed."""
        _, activity, _ = _basic_graph(store)
        store.remove_vertex(activity)
        epochs = [batch.epoch for batch in store.delta_log.batches_since(0)]
        assert epochs == sorted(set(epochs))
        assert epochs[-1] == store.epoch


class TestBoundedRetention:
    def test_truncation_evicts_oldest_and_flags(self):
        store = PropertyGraphStore(delta_log_capacity=4)
        for index in range(8):
            store.add_vertex(VertexType.ENTITY, {"name": f"e{index}"})
        log = store.delta_log
        assert log.truncated
        assert log.record_count <= 4
        assert log.batches_since(0) is None          # span fell off the log
        assert log.batches_since(log.base_epoch) is not None

    def test_future_epoch_is_unreplayable(self, store):
        _basic_graph(store)
        assert store.delta_log.batches_since(store.epoch + 1) is None

    def test_oversized_batch_is_kept(self):
        """The newest batch survives even when it alone exceeds capacity."""
        store = PropertyGraphStore(delta_log_capacity=2)
        _, activity, entity = _basic_graph(store)
        store.add_edge(EdgeType.USED, activity, entity)
        store.remove_vertex(activity)                # 4-record batch
        span = store.delta_log.batches_since(store.epoch - 1)
        assert span is not None and len(span[0].deltas) == 4

    def test_record_count_since(self, store):
        _basic_graph(store)
        assert store.delta_log.record_count_since(0) == 5
        assert store.delta_log.record_count_since(store.epoch) == 0

    def test_reader_never_sees_an_eviction_half_done(self):
        """A reader on another thread that runs between an eviction's
        ``popleft`` and its base-epoch update must not get a span with
        a batch missing: it gets the whole span or none."""
        log = DeltaLog(capacity=2)
        for epoch in (1, 2):
            log.append(DeltaBatch(epoch, (Delta(DeltaOp.ADD_VERTEX, epoch),)))
        spans = []
        reader = threading.Thread(
            target=lambda: spans.append(log.batches_since(1)))

        class HookedDeque(deque):
            def popleft(self):
                evicted = super().popleft()
                reader.start()
                reader.join(timeout=0.2)    # blocked by the fix, not done
                return evicted

        log._batches = HookedDeque(log._batches)
        log.append(DeltaBatch(3, (Delta(DeltaOp.ADD_VERTEX, 3),)))
        reader.join(timeout=10)
        assert not reader.is_alive()
        (span,) = spans
        assert span is None or [batch.epoch for batch in span] == [2, 3]


class TestAdvance:
    def test_fresh_snapshot_advances_to_itself(self):
        graph = build_paper_example().graph
        snapshot = GraphSnapshot(graph)
        assert snapshot.advance(graph) is snapshot

    def test_small_span_patches_incrementally(self):
        graph = build_paper_example().graph
        snapshot = GraphSnapshot(graph)
        activity = graph.add_activity(command="tune")
        entity = graph.add_entity(name="tuned")
        graph.was_generated_by(entity, activity)
        advanced = snapshot.advance(graph)
        assert advanced is not snapshot
        assert advanced.is_fresh
        assert advanced.advanced_from == snapshot.epoch
        # Untouched edge-type slices are shared, not rebuilt.
        derived = EdgeType.WAS_DERIVED_FROM
        assert advanced.forward[derived].indices \
            is snapshot.forward[derived].indices

    def test_stale_snapshot_keeps_answering_after_advance(self):
        example = build_paper_example()
        graph = example.graph
        snapshot = GraphSnapshot(graph)
        count_before = snapshot.vertex_count
        graph.add_entity(name="late")
        advanced = snapshot.advance(graph)
        assert snapshot.vertex_count == count_before     # time-travel read
        assert advanced.vertex_count == count_before + 1

    def test_crossover_falls_back_to_full_rebuild(self):
        graph = build_paper_example().graph
        snapshot = GraphSnapshot(graph)
        graph.add_entity(name="x")
        advanced = snapshot.advance(graph, crossover=0)
        assert advanced.is_fresh
        assert advanced.advanced_from is None            # full recapture

    def test_truncated_log_falls_back_to_full_rebuild(self):
        store = PropertyGraphStore(delta_log_capacity=2)
        _basic_graph(store)
        snapshot = GraphSnapshot(store)
        for index in range(6):
            store.add_vertex(VertexType.ENTITY, {"name": f"n{index}"})
        advanced = snapshot.advance(store)
        assert advanced.is_fresh
        assert advanced.advanced_from is None

    def test_other_store_falls_back_to_full_rebuild(self):
        left = build_paper_example().graph
        right = build_paper_example().graph
        snapshot = GraphSnapshot(left)
        advanced = snapshot.advance(right)
        assert advanced.store is right.store
        assert advanced.advanced_from is None

    def test_advance_matches_full_after_compound_removal(self):
        graph = build_paper_example().graph
        snapshot = GraphSnapshot(graph)
        snapshot.prov_adjacency()                        # arm the cache
        victim = next(iter(graph.activities()))
        graph.store.remove_vertex(victim)
        graph.add_agent(name="late-agent")
        advanced = snapshot.advance(graph)
        full = GraphSnapshot(graph)
        assert advanced.advanced_from == snapshot.epoch
        assert np.array_equal(advanced.vertex_codes, full.vertex_codes)
        assert np.array_equal(advanced.edge_src, full.edge_src)
        assert advanced.vertex_ids() == full.vertex_ids()
        for edge_type in EdgeType:
            assert advanced.out_edge_lists(edge_type) \
                == full.out_edge_lists(edge_type)
            assert advanced.in_lists(edge_type) == full.in_lists(edge_type)
        for vertex_id in full.vertex_ids():
            assert advanced.out_edges(vertex_id) == full.out_edges(vertex_id)
            assert advanced.in_edges(vertex_id) == full.in_edges(vertex_id)

    def test_prov_adjacency_patched_on_pure_appends(self):
        graph = build_paper_example().graph
        snapshot = GraphSnapshot(graph)
        cached = snapshot.prov_adjacency()
        activity = graph.add_activity(command="merge")
        graph.used(activity, next(iter(graph.entities())))
        advanced = snapshot.advance(graph)
        patched = advanced.prov_adjacency()
        rebuilt = GraphSnapshot(graph).prov_adjacency()
        assert patched is not cached
        assert patched.n == rebuilt.n
        assert patched.user_acts == rebuilt.user_acts
        assert patched.used_ents == rebuilt.used_ents
        assert patched.entity_ids == rebuilt.entity_ids
        assert patched.activity_ids == rebuilt.activity_ids
        assert patched.orders == rebuilt.orders
        # The stale snapshot's cache is untouched (copy-on-write rows).
        assert snapshot.prov_adjacency() is cached
        assert cached.n != patched.n or cached.edge_total_u \
            != patched.edge_total_u

    def test_prov_adjacency_dropped_on_ancestry_removal(self):
        graph = build_paper_example().graph
        snapshot = GraphSnapshot(graph)
        snapshot.prov_adjacency()
        used_edge = next(iter(
            record.edge_id for record in graph.store.edges(EdgeType.USED)
        ))
        graph.store.remove_edge(used_edge)
        advanced = snapshot.advance(graph)
        assert advanced._prov_adjacency is None          # lazily rebuilt
        rebuilt = GraphSnapshot(graph).prov_adjacency()
        assert advanced.prov_adjacency().user_acts == rebuilt.user_acts

    def test_property_only_span_shares_structure(self):
        """SET_* spans advance in O(1): all frozen structure is shared."""
        graph = build_paper_example().graph
        snapshot = GraphSnapshot(graph)
        entity = next(iter(graph.entities()))
        graph.store.set_vertex_property(entity, "note", "touched")
        advanced = snapshot.advance(graph)
        assert advanced is not snapshot
        assert advanced.is_fresh and not snapshot.is_fresh
        assert advanced.advanced_from == snapshot.epoch
        assert advanced.vertex_codes is snapshot.vertex_codes
        assert advanced._out_all is snapshot._out_all
        assert advanced.forward is snapshot.forward
        # The property write shows through the shared records.
        assert advanced.vertex(entity).get("note") == "touched"

    def test_ghost_span_widens_id_space_without_sharing(self):
        """A span whose net effect is empty (add then remove) must still
        widen the id space — id-indexed reads return empty, never crash."""
        graph = build_paper_example().graph
        snapshot = GraphSnapshot(graph)
        activity = graph.add_activity(command="ghost")
        graph.used(activity, next(iter(graph.entities())))
        graph.store.remove_vertex(activity)          # net: nothing visible
        advanced = snapshot.advance(graph)
        full = GraphSnapshot(graph)
        assert advanced.advanced_from == snapshot.epoch
        assert advanced.n == full.n == graph.store.vertex_capacity
        assert advanced.out_lists(EdgeType.USED)[activity] == []
        assert advanced.agents_of(activity) == []
        assert advanced.vertex_ids() == full.vertex_ids()
        for edge_type in EdgeType:
            assert advanced.out_edge_lists(edge_type) \
                == full.out_edge_lists(edge_type)

    def test_property_heavy_span_does_not_cross_over(self):
        """SET_* deltas don't count toward the crossover: hundreds of
        property writes still advance via the O(1) shared path."""
        graph = build_paper_example().graph
        snapshot = GraphSnapshot(graph)
        entity = next(iter(graph.entities()))
        for index in range(200):
            graph.store.set_vertex_property(entity, "note", f"t{index}")
        advanced = snapshot.advance(graph)
        assert advanced.advanced_from == snapshot.epoch
        assert advanced.vertex_codes is snapshot.vertex_codes
        assert advanced.vertex(entity).get("note") == "t199"

    def test_advance_spans_many_epochs_at_once(self):
        graph = build_paper_example().graph
        snapshot = GraphSnapshot(graph)
        for index in range(10):
            activity = graph.add_activity(command=f"step{index}")
            entity = graph.add_entity(name=f"out{index}")
            graph.was_generated_by(entity, activity)
        advanced = snapshot.advance(graph)
        full = GraphSnapshot(graph)
        assert advanced.advanced_from == snapshot.epoch
        assert advanced.vertex_ids() == full.vertex_ids()
        assert advanced.edge_count(EdgeType.WAS_GENERATED_BY) \
            == full.edge_count(EdgeType.WAS_GENERATED_BY)
