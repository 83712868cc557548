"""Cache-soundness differential suite for worker footprint retention.

PR 6 replaced the worker's clear-on-epoch-advance result cache with
**dependency-footprint retention** (entries survive any applied batch
whose write set provably missed their footprint) and added
**incrementally maintained summary views** (patched from shipped deltas,
recomputed past a crossover). Both optimizations must be *invisible*:
every served result — hit, retained hit, patched view, or fresh compute
— must be bit-identical to a leader-live recompute at the same epoch.

This suite drives an in-process :class:`~repro.serve.worker.ReplicaWorker`
through its :class:`~repro.serve.pool.WorkerPool` client — the real ship,
checkpoint and bootstrap path with no process boundary, so hundreds of
interleavings run in seconds — with seed-controlled random schedules of
leader mutations, delta shipping, and repeat queries across every wire
method including ``summarize``. Dedicated scenarios force the
truncation→full-re-sync path and the kill→restart path (the latter
with worker processes).

A second differential asks one **fixed tile set** after every
mutation round, so retained entries and views are re-asked across
writes, and mixes in appends whose new edges leave *pre-existing*
vertices — the writes the ``ancestry`` / ``segment`` rules (sources,
adopted siblings, horizon) exist to catch.

A Hypothesis property test pins the retention predicate itself: no
surviving entry may overlap its kind's write set, with over-eviction
(sound-but-wasteful) quantified separately.

Modes: the default quick run covers ``8 seeds x 25 rounds = 200``
interleavings plus 40 fixed-tile seeds (the tier-1 floor);
``RETENTION_FULL=1`` widens both sweeps for the bench/nightly job.
"""

import os
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import ReplicaUnavailable
from repro.model.types import EdgeType, VertexType
from repro.query.cypherlite import run_query
from repro.query.ops import blame, impacted, lineage
from repro.segment.pgseg import PgSegOperator, PgSegQuery
from repro.serve.cluster import ProvCluster
from repro.serve.pool import WorkerPool
from repro.serve.wire import (
    blame_to_wire,
    budget_from_wire,
    lineage_to_wire,
    pgseg_query_from_wire,
    pgseg_query_to_wire,
    pgsum_query_from_wire,
    pgsum_query_to_wire,
    psg_to_wire,
    rows_to_wire,
    segment_to_wire,
)
from repro.store.snapshot import default_crossover
from repro.store.delta import (
    Delta,
    DeltaBatch,
    DeltaOp,
    ENTRY_KINDS,
    entry_survives,
    span_effects,
)
from repro.summarize.pgsum import PgSumOperator, PgSumQuery
from repro.workloads.lifecycle import build_paper_example
from faults import kill_worker, truncate_log
from test_snapshot_differential import _mutate

FULL = os.environ.get("RETENTION_FULL", "") not in ("", "0")

#: 8 x 25 = 200 interleavings in the quick (tier-1) mode; the full mode
#: (bench job) widens to 24 x 25 = 600.
SEEDS = range(24 if FULL else 8)
ROUNDS = 25

#: Fixed-tile differential: 40 seeds in the quick mode, 160 in full.
TILE_SEEDS = range(160 if FULL else 40)
TILE_ROUNDS = 16


# ---------------------------------------------------------------------------
# Harness: one in-process worker behind its pool client
# ---------------------------------------------------------------------------


class _Harness:
    """One in-process worker, fed and asked through its pool client."""

    def __init__(self, graph):
        self.graph = graph
        self.pool = WorkerPool(graph, count=1)
        self.client = self.pool.clients[0]

    @property
    def worker(self):
        """The worker behind the client's in-memory link."""
        return self.client.transport.worker

    def ship(self):
        """Ship the span the worker is missing; truncation → a fresh
        checkpoint + tail (never partial replay)."""
        self.client.catch_up()
        assert self.client.restarts == 0

    def serve(self, method, params):
        """One request; returns the wire payload the worker answered."""
        return self.client._request(method, params)

    def close(self):
        self.pool.close()


def _expected(graph, method, params):
    """The leader-live wire encoding the worker's answer must equal."""
    if method in ("lineage", "impacted"):
        walk = lineage if method == "lineage" else impacted
        return lineage_to_wire(walk(
            graph, int(params["entity"]),
            max_depth=params.get("max_depth")))
    if method == "blame":
        return blame_to_wire(blame(graph, int(params["entity"])))
    if method == "segment":
        return segment_to_wire(PgSegOperator(graph).evaluate(
            pgseg_query_from_wire(params["query"])))
    if method == "cypher":
        return rows_to_wire(run_query(
            graph, str(params["text"]),
            budget_from_wire(params.get("budget"))))
    assert method == "summarize"
    queries = [pgseg_query_from_wire(record)
               for record in params["queries"]]
    pgsum = pgsum_query_from_wire(params["pgsum"])
    segments = [PgSegOperator(graph).evaluate(query) for query in queries]
    return psg_to_wire(PgSumOperator(segments).evaluate(pgsum))


def _round_params(rng, graph):
    """One round's (method, params) list: every wire method, seeded."""
    entities = list(graph.entities())
    assert entities, "mutation schedule must keep entities alive"
    specs = []
    for entity in rng.sample(entities, k=min(3, len(entities))):
        specs.append(("lineage", {"entity": entity}))
        specs.append(("impacted", {"entity": entity}))
        specs.append(("blame", {"entity": entity}))
    src = tuple(rng.sample(entities, k=min(2, len(entities))))
    specs.append(("segment", {"query": pgseg_query_to_wire(
        PgSegQuery(src=src, dst=(rng.choice(entities),)))}))
    probe = rng.choice(entities)
    specs.append(("cypher", {
        "text": f"MATCH (e:E)<-[:U]-(a:A) WHERE id(e) = {probe} "
                f"RETURN id(a)",
        "budget": None,
    }))
    specs.append(("summarize", {
        "queries": [pgseg_query_to_wire(
            PgSegQuery(src=src, dst=(dst,)))
            for dst in rng.sample(entities, k=min(2, len(entities)))],
        "pgsum": pgsum_query_to_wire(PgSumQuery()),
    }))
    return specs


def _check_round(harness, rng):
    """Serve each spec twice (cold + repeat) and diff both against the
    leader: a repeat answered from a retained entry or materialized view
    must be bit-identical to a fresh recompute."""
    graph = harness.graph
    for method, params in _round_params(rng, graph):
        expected = _expected(graph, method, params)
        first = harness.serve(method, params)
        assert first == expected, \
            f"{method} cold answer diverged at epoch {harness.worker.epoch}"
        again = harness.serve(method, params)
        assert again == expected, \
            f"{method} cached answer diverged at epoch {harness.worker.epoch}"


# ---------------------------------------------------------------------------
# Differential interleavings (satellite 1)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_mutate_ship_query_interleavings(seed):
    rng = random.Random(seed)
    graph = build_paper_example().graph
    harness = _Harness(graph)
    counter = [seed * 10_000]
    try:
        for _ in range(ROUNDS):
            for _ in range(rng.randint(1, 3)):
                _mutate(rng, graph, counter)
            harness.ship()
            assert harness.worker.epoch == graph.store.epoch
            _check_round(harness, rng)
        worker = harness.worker
        # The schedule must actually exercise the retention machinery —
        # a suite that never hits or retains proves nothing.
        assert worker.cache_hits > 0
        assert worker.cache_retained > 0
        assert worker.cache_evicted > 0
        assert worker.views_served + worker.views_patched > 0
    finally:
        harness.close()


@pytest.mark.parametrize("seed", range(3))
def test_truncation_forces_resync_then_answers_match(seed):
    """Bursts overflow a tiny leader log: the worker must full-re-sync
    (clearing cache and views — nothing is provable across an unknown
    span) and keep serving bit-identical answers."""
    rng = random.Random(4200 + seed)
    graph = build_paper_example().graph
    truncate_log(graph.store, 12)
    harness = _Harness(graph)
    counter = [seed * 20_000]
    try:
        for _ in range(10):
            for _ in range(rng.randint(4, 8)):
                _mutate(rng, graph, counter)
            harness.ship()
            _check_round(harness, rng)
        # checkpoints counts the construction bootstrap too, hence > 1.
        assert harness.worker.checkpoints > 1, \
            "the truncation schedule must actually force full re-syncs"
    finally:
        harness.close()


def test_interleaving_budget():
    """The randomized suite exercises at least 200 interleavings."""
    assert len(SEEDS) * ROUNDS >= 200


def _mutate_old_source(rng, graph, counter):
    """One append whose new edge leaves a *pre-existing* vertex.

    ``_mutate`` only adds edges leaving vertices it just minted, which
    the ``ancestry`` and ``segment`` rules keep entries across; these
    are the writes those rules must evict for. Ancestry edges always
    point from newer to older vertices (by creation order), so the graph
    stays acyclic like a recorded lifecycle.
    """
    entities = list(graph.entities())
    activities = list(graph.activities())
    agents = list(graph.agents())
    if not (entities and activities and agents):
        _mutate(rng, graph, counter)
        return
    order = graph.store.order_of
    counter[0] += 1
    roll = rng.randrange(6)
    if roll == 0:
        # An old activity used something older than itself.
        activity = rng.choice(activities)
        older = [e for e in entities if order(e) < order(activity)]
        if older:
            graph.used(activity, rng.choice(older))
    elif roll == 1:
        # A new entity generated by one of the older half of the
        # activities (the likelier to sit on a tile's path): a new VC3
        # sibling.
        entity = graph.add_entity(name=f"sibling{counter[0]}")
        graph.was_generated_by(
            entity, rng.choice(activities[:len(activities) // 2 + 1]))
    elif roll == 2:
        graph.was_attributed_to(rng.choice(entities), rng.choice(agents))
    elif roll == 3:
        graph.was_associated_with(rng.choice(activities), rng.choice(agents))
    elif roll == 4:
        # An old entity derived from an older one.
        entity = rng.choice(entities)
        older = [e for e in entities if order(e) < order(entity)]
        if older:
            graph.was_derived_from(entity, rng.choice(older))
    else:
        # An old entity re-generated by an older activity.
        entity = rng.choice(entities)
        older = [a for a in activities if order(a) < order(entity)]
        if older:
            graph.was_generated_by(entity, rng.choice(older))


def _fixed_tiles(rng, graph):
    """One dashboard's tiles, fixed for a whole run: full and depth-2
    lineage, impact and blame of three derived entities, their segments
    under both SimProv solvers, and one summary."""
    entities = sorted(graph.entities())
    roots = tuple(e for e in entities if not graph.generating_activities(e))
    targets = rng.sample(
        [e for e in entities if graph.generating_activities(e)], k=3)
    tiles = []
    for entity in targets:
        tiles += [("lineage", {"entity": entity}),
                  ("lineage", {"entity": entity, "max_depth": 2}),
                  ("impacted", {"entity": entity}),
                  ("blame", {"entity": entity})]
    for algorithm in ("simprov-tst", "simprov-alg"):
        for dst in targets[:2]:
            tiles.append(("segment", {"query": pgseg_query_to_wire(
                PgSegQuery(src=roots, dst=(dst,), algorithm=algorithm))}))
    tiles.append(("summarize", {
        "queries": [pgseg_query_to_wire(PgSegQuery(src=roots, dst=(dst,)))
                    for dst in targets[1:]],
        "pgsum": pgsum_query_to_wire(PgSumQuery()),
    }))
    return tiles


def _outcome(call, *args):
    """An answer, or ``"error"`` when the call raised (a tile whose
    entity the schedule removed must fail on the worker too)."""
    try:
        return call(*args)
    except ReplicaUnavailable:
        raise
    except Exception:   # noqa: BLE001 - either side's error type
        return "error"


@pytest.mark.parametrize("seed", TILE_SEEDS)
def test_fixed_tiles_match_recompute_after_every_round(seed):
    """Re-ask the same tiles after every round of mixed appends: every
    answer — retained entry, current or patched view, or recompute —
    must equal the leader's fresh recompute."""
    rng = random.Random(7000 + seed)
    graph = build_paper_example().graph
    tiles = _fixed_tiles(rng, graph)
    harness = _Harness(graph)
    counter = [seed * 10_000]
    try:
        for round_index in range(TILE_ROUNDS):
            if round_index:
                for _ in range(rng.randint(1, 3)):
                    mutate = _mutate_old_source if rng.random() < 0.5 \
                        else _mutate
                    mutate(rng, graph, counter)
                harness.ship()
            for method, params in tiles:
                served = _outcome(harness.serve, method, params)
                assert served == _outcome(_expected, graph, method, params), \
                    f"{method} {params} diverged in round {round_index}"
        # Every seed must both keep and drop entries and views: a run
        # that only ever evicts, or only ever keeps, proves nothing.
        worker = harness.worker
        assert worker.cache_retained > 0 and worker.cache_evicted > 0
        assert worker.views_served > 0 and worker.views_recomputed > 1
    finally:
        harness.close()


def test_applied_batches_leave_the_cache_untouched(monkeypatch):
    """A shipped batch costs O(batch), not O(cache): 100 batches applied
    beside a full 256-entry cache call the retention predicate zero
    times; the next request revalidates every entry exactly once."""
    import repro.store.delta as delta_module

    calls = [0]
    predicate = delta_module.entry_survives

    def counting(*args):
        calls[0] += 1
        return predicate(*args)

    monkeypatch.setattr(delta_module, "entry_survives", counting)
    example = build_paper_example()
    graph = example.graph
    harness = _Harness(graph)
    try:
        entities = sorted(graph.entities())
        specs = [("lineage", {"entity": entity, "max_depth": depth})
                 for depth in range(1, 40) for entity in entities]
        assert len(specs) >= 256
        for method, params in specs[:256]:
            harness.serve(method, params)
        worker = harness.worker
        assert len(worker.result_cache) == 256
        applied = worker.batches_applied
        for index in range(100):
            graph.store.set_vertex_property(
                entities[index % len(entities)], "note", f"n{index}")
            harness.ship()
        assert worker.batches_applied == applied + 100
        assert calls[0] == 0
        method, params = specs[0]
        assert harness.serve(method, params) \
            == _expected(graph, method, params)
        assert calls[0] == 256
    finally:
        harness.close()


# ---------------------------------------------------------------------------
# Retention predicate soundness (satellite 2, Hypothesis)
# ---------------------------------------------------------------------------


_VERTEX_IDS = st.integers(min_value=0, max_value=39)


def _delta_strategy():
    add_vertex = st.builds(
        lambda vid, vt: Delta(DeltaOp.ADD_VERTEX, vid, vertex_type=vt),
        _VERTEX_IDS, st.sampled_from(list(VertexType)))
    remove_vertex = st.builds(
        lambda vid, vt: Delta(DeltaOp.REMOVE_VERTEX, vid, vertex_type=vt),
        _VERTEX_IDS, st.sampled_from(list(VertexType)))
    edge = st.builds(
        lambda op, eid, et, src, dst: Delta(
            op, eid, edge_type=et, src=src, dst=dst),
        st.sampled_from([DeltaOp.ADD_EDGE, DeltaOp.REMOVE_EDGE]),
        st.integers(min_value=0, max_value=200),
        st.sampled_from(list(EdgeType)), _VERTEX_IDS, _VERTEX_IDS)
    set_vertex = st.builds(
        lambda vid: Delta(DeltaOp.SET_VERTEX_PROPERTY, vid, key="note"),
        _VERTEX_IDS)
    set_edge = st.builds(
        lambda eid, src, dst: Delta(
            DeltaOp.SET_EDGE_PROPERTY, eid, src=src, dst=dst, key="note"),
        st.integers(min_value=0, max_value=200), _VERTEX_IDS, _VERTEX_IDS)
    return st.one_of(add_vertex, remove_vertex, edge, set_vertex, set_edge)


_SPAN = st.lists(
    st.builds(lambda deltas: DeltaBatch(epoch=1, deltas=tuple(deltas)),
              st.lists(_delta_strategy(), min_size=0, max_size=6)),
    min_size=1, max_size=4)

_FOOTPRINT = st.frozensets(_VERTEX_IDS, max_size=8)

#: Entries as the caches actually store them, ``(kind, footprint,
#: horizon)``: ``ancestry``/``closure``/``paths`` carry vertex
#: footprints; ``segment`` a footprint plus its horizon (the store's
#: vertex capacity when computed); ``scan``/``global`` are footprint-free
#: by contract (their validity is governed by the scan_dirty /
#: empty-span rules, not by vertex intersection).
_ENTRY = st.one_of(
    st.tuples(st.sampled_from(["ancestry", "closure", "paths"]),
              _FOOTPRINT, st.none()),
    st.tuples(st.just("segment"), _FOOTPRINT,
              st.integers(min_value=0, max_value=40)),
    st.tuples(st.sampled_from(["scan", "global"]), st.just(frozenset()),
              st.none()),
)

_hyp_settings = settings(max_examples=300, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])


def test_entry_strategy_covers_every_kind():
    """If a new entry kind appears, the sweep must learn about it."""
    assert set(ENTRY_KINDS) == {"ancestry", "closure", "segment", "scan",
                                "paths", "global"}

#: Aggregated across the Hypothesis sweep: (survivals that would have
#: been unsound, conservative evictions, total trials). Unsound must
#: stay 0; conservative evictions are reported for visibility.
_PREDICATE_TALLY = {"unsound": 0, "over_evicted": 0, "trials": 0}


def _write_set(kind, effects, horizon):
    """The vertex ids a span wrote that an entry of ``kind`` reads:
    out-rows for ``ancestry``; any structural endpoint for ``closure``
    and ``paths``; for ``segment``, every source older than the horizon
    (an old out-row anywhere can reroute a path) plus adopted
    activities. Property subjects count for every kind."""
    if kind == "ancestry":
        written = effects.sources
    elif kind == "segment":
        written = {v for v in effects.sources if v < horizon} \
            | effects.adopted
    else:
        written = effects.touched
    return written | effects.prop_subjects


@_hyp_settings
@given(span=_SPAN, entry=_ENTRY)
def test_retention_never_keeps_a_written_footprint(span, entry):
    """Soundness: an entry whose footprint intersects its kind's write
    set (:func:`_write_set`) must never survive; a ``segment`` entry
    must also die with any source older than its horizon, and
    footprint-free kinds must honor their own rules (``scan`` dies with
    a dirty scan, ``global`` with any real write). Structural /
    scan-dirty spans, and old sources outside a segment, may evict
    disjoint entries too — that is over-eviction, sound by construction
    and tallied below."""
    kind, footprint, horizon = entry
    effects = span_effects(span)
    write_set = _write_set(kind, effects, horizon)
    survives = entry_survives(kind, footprint, effects, horizon)
    _PREDICATE_TALLY["trials"] += 1
    if survives and not footprint.isdisjoint(write_set):
        _PREDICATE_TALLY["unsound"] += 1
    if survives:
        if kind == "scan":
            assert not effects.scan_dirty
        if kind == "global":
            assert not effects.structural and not write_set
        if kind == "paths":
            assert not effects.structural
        if kind == "segment":
            assert all(v >= horizon for v in effects.sources)
    if not survives and footprint.isdisjoint(write_set):
        # Sound-but-wasteful eviction of a provably-untouched entry.
        # Only the deliberately conservative rules may cause it:
        # structural rerouting (paths), a root scan going dirty (scan),
        # an old source anywhere (segment), or the unbounded-footprint
        # global kind.
        _PREDICATE_TALLY["over_evicted"] += 1
        assert (kind == "paths" and effects.structural) \
            or (kind == "scan" and effects.scan_dirty) \
            or (kind == "segment" and write_set) \
            or kind == "global", (
            f"eviction without a conservative rule: kind={kind} "
            f"footprint={sorted(footprint)} effects={effects!r}"
        )
    assert not (survives and not footprint.isdisjoint(write_set)), (
        f"UNSOUND: kind={kind} footprint={sorted(footprint)} survived "
        f"write set {sorted(write_set)}"
    )


def test_retention_over_eviction_quantified():
    """Companion report for the Hypothesis sweep: zero unsound
    survivals; over-eviction (evicting a provably-disjoint entry, which
    the sweep verified only the conservative structural/scan/global
    rules cause) is quantified in the test output."""
    trials = _PREDICATE_TALLY["trials"]
    assert trials > 0, "Hypothesis sweep must run before this report"
    assert _PREDICATE_TALLY["unsound"] == 0
    rate = _PREDICATE_TALLY["over_evicted"] / trials
    print(f"\nretention predicate sweep: {trials} trials, "
          f"0 unsound survivals, "
          f"{_PREDICATE_TALLY['over_evicted']} conservative "
          f"over-evictions ({rate:.1%})")


@_hyp_settings
@given(span=_SPAN, footprint=_FOOTPRINT)
def test_property_only_spans_keep_disjoint_closures(span, footprint):
    """Completeness (anti-over-eviction): on a property-only span, a
    closure entry disjoint from the prop subjects must be *kept* — the
    optimization footprint retention exists to deliver."""
    effects = span_effects(span)
    if effects.structural or effects.scan_dirty:
        return
    if footprint.isdisjoint(effects.prop_subjects):
        assert entry_survives("ancestry", footprint, effects)
        assert entry_survives("closure", footprint, effects)
        assert entry_survives("segment", footprint, effects, 0)
        assert entry_survives("paths", footprint, effects)


_HORIZON = 20

#: Appends as a lifecycle makes them: new vertices (ids at or past the
#: horizon), and new edges that all leave a new vertex — into anything.
_APPEND_SPAN = st.lists(st.one_of(
    st.builds(lambda vid, vt: Delta(DeltaOp.ADD_VERTEX, vid, vertex_type=vt),
              st.integers(_HORIZON, 39), st.sampled_from(list(VertexType))),
    st.builds(lambda eid, et, src, dst: Delta(
        DeltaOp.ADD_EDGE, eid, edge_type=et, src=src, dst=dst),
        st.integers(0, 200),
        st.sampled_from([et for et in EdgeType
                         if et is not EdgeType.WAS_GENERATED_BY]),
        st.integers(_HORIZON, 39), _VERTEX_IDS),
), min_size=1, max_size=8)


@_hyp_settings
@given(deltas=_APPEND_SPAN,
       footprint=st.frozensets(st.integers(0, _HORIZON - 1), max_size=8))
def test_appends_from_new_vertices_keep_ancestry_and_segments(deltas,
                                                              footprint):
    """Completeness for appends: a span whose new edges all leave
    vertices minted after the entry (and adopt no sibling) keeps every
    ``ancestry`` and ``segment`` entry — even one whose footprint the
    new edges point *into*, which the ``closure`` rule must evict."""
    effects = span_effects([DeltaBatch(epoch=1, deltas=tuple(deltas))])
    assert entry_survives("ancestry", footprint, effects)
    assert entry_survives("segment", footprint, effects, _HORIZON)


# ---------------------------------------------------------------------------
# Fault injection: kill mid-summarize, restart, views rebuilt (satellite 3)
# ---------------------------------------------------------------------------


def test_kill_between_patches_rebuilds_views_identical_to_cold():
    """A worker killed while its views are mid-patch (stale, waiting for
    the next request to re-merge) must come back from restart + full
    re-sync serving summaries identical to a cold worker's — and the pong
    ``generation`` must expose the restart (satellite 4)."""
    example = build_paper_example()
    graph = example.graph
    roots = tuple(v for v in graph.entities()
                  if not graph.generating_activities(v))
    queries = [PgSegQuery(src=roots, dst=(dst,))
               for dst in (example["weight-v2"], example["weight-v3"])]
    with ProvCluster(graph, replicas=1, out_of_process=True) as cluster:
        client = cluster.replicas[0]
        cluster.summarize(queries)          # materialize the view
        cluster.summarize(queries)          # and serve it once
        _, stats = client.ping()
        assert stats["generation"] == 0
        assert stats["views_served"] >= 1
        # Leave the view stale (property-only drift on its footprint):
        # the next summarize would patch it — kill before that happens.
        graph.store.set_vertex_property(example["weight-v2"], "note", "x")
        cluster.refresh()
        kill_worker(client)
        served = cluster.summarize(queries)     # restart + re-sync + serve
        assert client.restarts == 1
        # Cold recompute on the leader at the same epoch.
        operator = PgSegOperator(graph)
        cold = PgSumOperator(
            [operator.evaluate(query) for query in queries]
        ).evaluate(PgSumQuery())
        assert psg_to_wire(served) == psg_to_wire(cold)
        _, stats = client.ping()
        # Counters restarted from zero, and generation says why.
        assert stats["generation"] == 1
        assert stats["views_patched"] == 0
        assert stats["views_recomputed"] == 1
        assert stats["view_count"] == 1
        # Another write + repeat: the rebuilt view patches normally.
        graph.store.set_vertex_property(example["weight-v2"], "note", "y")
        cluster.summarize(queries)
        _, stats = client.ping()
        assert stats["generation"] == 1
        assert stats["views_patched"] == 1


def test_generation_increments_across_repeated_restarts():
    """Each crash-restart bumps the pong generation exactly once, so
    cumulative counters from different spawns are never conflated."""
    example = build_paper_example()
    graph = example.graph
    target = example["weight-v2"]
    with ProvCluster(graph, replicas=1, out_of_process=True) as cluster:
        client = cluster.replicas[0]
        for expected_generation in range(3):
            client.lineage(target)
            _, stats = client.ping()
            assert stats["generation"] == expected_generation
            assert stats["generation"] == client.restarts
            kill_worker(client)
            # The in-flight ask dies with the worker (the router would
            # re-route it); the pool restarts + re-syncs underneath.
            with pytest.raises(ReplicaUnavailable):
                client.lineage(target)
        client.lineage(target)
        _, stats = client.ping()
        assert stats["generation"] == 3


# ---------------------------------------------------------------------------
# View maintenance state machine, pinned deterministically
# ---------------------------------------------------------------------------


class TestViewLifecycle:
    def _summarize_params(self, graph, example):
        roots = tuple(v for v in graph.entities()
                      if not graph.generating_activities(v))
        return {
            "queries": [pgseg_query_to_wire(
                PgSegQuery(src=roots, dst=(dst,)))
                for dst in (example["weight-v2"], example["weight-v3"])],
            "pgsum": pgsum_query_to_wire(PgSumQuery()),
        }

    def test_disjoint_property_write_keeps_view_current(self):
        example = build_paper_example()
        graph = example.graph
        harness = _Harness(graph)
        try:
            params = self._summarize_params(graph, example)
            # The bystander exists before the view materializes, so the
            # later property flip is the only epoch move the view sees.
            outside = graph.add_entity(name="bystander")
            harness.ship()
            harness.serve("summarize", params)
            # A property flip on a vertex outside every segment: the view
            # advances for free (no patch, no recompute) and still hits.
            graph.store.set_vertex_property(outside, "note", "x")
            harness.ship()
            assert harness.serve("summarize", params) \
                == _expected(graph, "summarize", params)
            assert harness.worker.views_served == 1
            assert harness.worker.views_patched == 0
            assert harness.worker.views_recomputed == 1
        finally:
            harness.close()

    def test_footprint_property_write_patches_without_rederiving(self):
        example = build_paper_example()
        graph = example.graph
        harness = _Harness(graph)
        try:
            params = self._summarize_params(graph, example)
            harness.serve("summarize", params)
            graph.store.set_vertex_property(
                example["weight-v2"], "note", "inside")
            harness.ship()
            assert harness.serve("summarize", params) \
                == _expected(graph, "summarize", params)
            assert harness.worker.views_patched == 1
            assert harness.worker.views_recomputed == 1
        finally:
            harness.close()

    def test_view_survives_appends_only(self):
        """An append whose edges all leave new vertices keeps the view
        current; a sibling adopted by a footprint activity, or a new
        out-edge on any vertex older than the view, drops it."""
        example = build_paper_example()
        graph = example.graph
        harness = _Harness(graph)
        worker = harness.worker

        def check(served, recomputed):
            assert harness.serve("summarize", params) \
                == _expected(graph, "summarize", params)
            assert worker.views_served == served
            assert worker.views_recomputed == recomputed
            assert worker.views_patched == 0

        try:
            params = self._summarize_params(graph, example)
            harness.serve("summarize", params)
            # An unrelated append: a new run deriving from view members.
            run = graph.add_activity(command="evaluate")
            graph.used(run, example["weight-v2"])
            report = graph.add_entity(name="report")
            graph.was_generated_by(report, run)
            graph.was_derived_from(report, example["weight-v3"])
            harness.ship()
            check(served=1, recomputed=1)
            # A new entity generated by a view activity: a VC3 sibling.
            sibling = graph.add_entity(name="extra-log")
            graph.was_generated_by(sibling, example["train-v2"])
            harness.ship()
            check(served=1, recomputed=2)
            # A new out-edge on an old vertex outside every segment: the
            # horizon rule drops the view (conservatively).
            graph.was_attributed_to(report, example["Bob"])
            harness.ship()
            check(served=1, recomputed=3)
            # A new out-edge on a view member.
            graph.was_attributed_to(example["weight-v2"], example["Bob"])
            harness.ship()
            check(served=1, recomputed=4)
        finally:
            harness.close()

    def test_crossover_falls_back_to_recompute(self):
        """A stale view whose pending span outgrew the crossover is
        re-derived from scratch, mirroring GraphSnapshot.advance."""
        example = build_paper_example()
        graph = example.graph
        harness = _Harness(graph)
        try:
            params = self._summarize_params(graph, example)
            harness.serve("summarize", params)
            crossover = default_crossover(graph.store)
            for index in range(crossover + 1):
                graph.store.set_vertex_property(
                    example["weight-v2"], "note", f"spin{index}")
                harness.ship()
            assert harness.serve("summarize", params) \
                == _expected(graph, "summarize", params)
            assert harness.worker.views_patched == 0
            assert harness.worker.views_recomputed == 2
        finally:
            harness.close()
