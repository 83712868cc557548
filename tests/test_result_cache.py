"""The one result cache: ``repro.store.delta.ResultCache``.

The session and every replica worker keep their answers in one bounded
LRU that revalidates itself from the store's delta log once per read.
These tests pin the cache's own contract (LRU order, the empty-cache
epoch jump, the clear on a span the log no longer holds, counters per
revalidation) and the memory bounds it buys: a session asked far more
distinct questions than the bound, and a worker serving more distinct
segments than the bound at one epoch, both stay flat — the PgSeg
operator keeps no copy of any segment.
"""

import gc
import tracemalloc

from repro.model.types import VertexType
from repro.segment.pgseg import PgSegOperator, PgSegQuery, Segment
from repro.serve.pool import WorkerPool
from repro.serve.wire import psg_to_wire
from repro.session import SESSION_AGGREGATION, LifecycleSession
from repro.store.delta import CACHE_SIZE, ResultCache
from repro.store.store import PropertyGraphStore
from repro.summarize.pgsum import PgSumOperator, PgSumQuery


def _store_with_entities(count, log_capacity=4096):
    store = PropertyGraphStore(delta_log_capacity=log_capacity)
    ids = [store.add_vertex(VertexType.ENTITY) for _ in range(count)]
    return store, ids


# ---------------------------------------------------------------------------
# The cache's own contract
# ---------------------------------------------------------------------------


def test_lru_order_evicts_the_least_recently_used():
    cache = ResultCache()
    for key in range(CACHE_SIZE):
        cache.put(key, f"v{key}", "global", frozenset(), 0)
    assert cache.get(0) == "v0"             # now the most recently used
    cache.put(CACHE_SIZE, "new", "global", frozenset(), 0)
    assert len(cache) == CACHE_SIZE
    assert cache.get(1) is None             # the least recently used went
    assert cache.get(0) == "v0"
    assert cache.values()[-1] == "v0"
    assert cache.values()[-2] == "new"
    assert (cache.hits, cache.misses) == (2, CACHE_SIZE + 1)
    assert cache.evicted == 0               # the bound's drops are not counted


def test_empty_cache_moves_its_epoch_without_reading_the_log():
    store, _ = _store_with_entities(8, log_capacity=2)
    assert store.delta_log.batches_since(0) is None     # log truncated
    cache = ResultCache()
    effects, records = cache.revalidate(store)
    assert cache.epoch == store.epoch
    assert records == 0 and not effects.structural
    # A caller with dependents of its own asks for the span anyway; the
    # log holds it, so it is folded even though the cache is empty.
    vertex = store.add_vertex(VertexType.ENTITY)
    effects, records = cache.revalidate(store, fold=True)
    assert records == 1 and vertex in effects.touched


def test_span_the_log_no_longer_holds_clears_everything():
    store, ids = _store_with_entities(2, log_capacity=2)
    cache = ResultCache()
    cache.clear(store.epoch)
    cache.put("kept?", "value", "ancestry", frozenset({ids[0]}), 0)
    for _ in range(3):                      # disjoint, but overflows the log
        store.add_vertex(VertexType.ENTITY)
    assert store.delta_log.batches_since(cache.epoch) is None
    assert cache.revalidate(store) is None
    assert len(cache) == 0 and cache.epoch == store.epoch


def test_counters_count_entries_per_revalidation_not_per_batch():
    store, ids = _store_with_entities(3)
    cache = ResultCache()
    cache.clear(store.epoch)
    for vertex in ids:
        cache.put(vertex, f"walk{vertex}", "ancestry", frozenset({vertex}),
                  store.vertex_capacity)
    for index in range(5):                  # five batches, one read
        store.set_vertex_property(ids[0], "note", index)
    effects, records = cache.revalidate(store)
    assert records == 5 and effects.prop_subjects == {ids[0]}
    assert (cache.retained, cache.evicted) == (2, 1)
    assert cache.get(ids[0]) is None and cache.get(ids[1]) == f"walk{ids[1]}"
    cache.revalidate(store)                 # epoch unmoved: nothing swept
    assert (cache.retained, cache.evicted) == (2, 1)


# ---------------------------------------------------------------------------
# Memory bounds: far more distinct questions than the bound
# ---------------------------------------------------------------------------


def _chains(session, count):
    for index in range(count):
        session.record("alice", f"run{index}", uses=[f"in{index}"],
                       generates=[f"out{index}"])


def _traced_growth(phases):
    """Bytes each phase leaves allocated, measured with tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        growth = []
        for phase in phases:
            before = tracemalloc.get_traced_memory()[0]
            phase()
            gc.collect()
            growth.append(tracemalloc.get_traced_memory()[0] - before)
        return growth
    finally:
        tracemalloc.stop()


def test_session_cache_stays_bounded_under_distinct_reads():
    """Far more distinct ``how_was_it_made`` / ``depth_of`` reads than the
    bound: once the cache is full, more reads replace entries instead of
    adding them."""
    chains = 3 * CACHE_SIZE
    session = LifecycleSession(project="bound")
    _chains(session, chains)

    def ask(start, stop):
        def phase():
            for index in range(start, stop):
                session.how_was_it_made(f"out{index}",
                                        from_artifacts=[f"in{index}"])
                session.depth_of(f"out{index}")
        return phase

    ask(0, 4)()                             # snapshot and lazy imports
    # Two entries per chain: the first phase fills the cache exactly, the
    # second asks 4x as many distinct questions again.
    fill, more = _traced_growth([ask(4, 4 + CACHE_SIZE // 2),
                                 ask(4 + CACHE_SIZE // 2, chains)])
    assert fill > 0
    assert more < 0.25 * fill, (fill, more)
    assert len(session.result_cache) == CACHE_SIZE


def test_worker_keeps_no_operator_copy_of_served_segments():
    """A worker serving more distinct segments than the bound at one
    epoch holds at most the bound's wire answers: no segment survives
    on the operator side."""
    session = LifecycleSession(project="bound")
    _chains(session, 2 * CACHE_SIZE)
    latest = session.builder.latest
    queries = [PgSegQuery(src=(latest(f"in{index}"),),
                          dst=(latest(f"out{index}"),))
               for index in range(2 * CACHE_SIZE)]
    with WorkerPool(session.graph, count=1) as pool:
        client = pool.clients[0]
        client.segment(queries[0])          # warm the worker's snapshot

        def serve(batch):
            def phase():
                for query in batch:
                    client.segment(query)
            return phase

        fill, more = _traced_growth([serve(queries[1:CACHE_SIZE]),
                                     serve(queries[CACHE_SIZE:])])
        worker = client.transport.worker
        assert len(worker.result_cache) == CACHE_SIZE
        gc.collect()
        assert not [obj for obj in gc.get_objects()
                    if isinstance(obj, Segment) and obj.graph is worker.graph]
        assert more < 0.25 * fill, (fill, more)


# ---------------------------------------------------------------------------
# typical_pipeline reads the segments how_was_it_made caches
# ---------------------------------------------------------------------------


def test_typical_pipeline_reuses_cached_segments(monkeypatch):
    session = LifecycleSession(project="pipeline")
    session.record("alice", "train", uses=["data"], generates=["model"])
    for step in range(2):
        session.record("bob", f"tune{step}", uses=["model", "data"],
                       generates=["model"])
    held = [session.how_was_it_made("model", version)
            for version in (1, 2, 3)]
    induced = [0]
    evaluate = PgSegOperator.evaluate

    def counting(self, *args, **kwargs):
        induced[0] += 1
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(PgSegOperator, "evaluate", counting)
    session.typical_pipeline("model")
    assert induced[0] == 0
    # An append: only the new version's segment is induced, and the old
    # segments survive it.
    session.record("carol", "tune2", uses=["model"], generates=["model"])
    served = session.typical_pipeline("model")
    assert induced[0] == 1
    assert all(session.how_was_it_made("model", version) is segment
               for version, segment in zip((1, 2, 3), held))
    graph = session.graph
    roots = tuple(entity for entity in sorted(graph.entities())
                  if not graph.generating_activities(entity))
    segments = [evaluate(PgSegOperator(graph),
                         PgSegQuery(src=roots, dst=(version,)))
                for version in session.builder.versions("model")]
    expected = PgSumOperator(segments).evaluate(
        PgSumQuery(aggregation=SESSION_AGGREGATION))
    assert psg_to_wire(served) == psg_to_wire(expected)
