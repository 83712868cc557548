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

A Hypothesis property test pins the retention predicate itself: no
surviving entry's footprint may intersect the span's write set, with
over-eviction (sound-but-wasteful) quantified separately.

Modes: the default quick run covers ``8 seeds x 25 rounds = 200``
interleavings (the tier-1 floor); ``RETENTION_FULL=1`` widens the sweep
for the bench/nightly job.
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

#: Entries as the caches actually store them: ``closure``/``paths``
#: carry vertex footprints; ``scan``/``global`` are footprint-free by
#: contract (their validity is governed by the scan_dirty / empty-span
#: rules, not by vertex intersection).
_ENTRY = st.one_of(
    st.tuples(st.sampled_from(["closure", "paths"]), _FOOTPRINT),
    st.tuples(st.sampled_from(["scan", "global"]), st.just(frozenset())),
)

_hyp_settings = settings(max_examples=300, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])


def test_entry_strategy_covers_every_kind():
    """If a new entry kind appears, the sweep must learn about it."""
    assert set(ENTRY_KINDS) == {"closure", "scan", "paths", "global"}

#: Aggregated across the Hypothesis sweep: (survivals that would have
#: been unsound, conservative evictions, total trials). Unsound must
#: stay 0; conservative evictions are reported for visibility.
_PREDICATE_TALLY = {"unsound": 0, "over_evicted": 0, "trials": 0}


@_hyp_settings
@given(span=_SPAN, entry=_ENTRY)
def test_retention_never_keeps_a_written_footprint(span, entry):
    """Soundness: an entry whose footprint intersects the span's write
    set (touched ∪ prop_subjects) must never survive; footprint-free
    kinds must honor their own rules (``scan`` dies with a dirty scan,
    ``global`` with any real write). Structural / scan-dirty spans may
    evict disjoint entries too — that is over-eviction, sound by
    construction and tallied below."""
    kind, footprint = entry
    effects = span_effects(span)
    write_set = effects.touched | effects.prop_subjects
    survives = entry_survives(kind, footprint, effects)
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
    if not survives and footprint.isdisjoint(write_set):
        # Sound-but-wasteful eviction of a provably-untouched entry.
        # Only the deliberately conservative rules may cause it:
        # structural rerouting (paths), a root scan going dirty (scan),
        # or the unbounded-footprint global kind.
        _PREDICATE_TALLY["over_evicted"] += 1
        assert effects.structural or effects.scan_dirty \
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
    optimization the whole PR exists to deliver."""
    effects = span_effects(span)
    if effects.structural or effects.scan_dirty:
        return
    if footprint.isdisjoint(effects.prop_subjects):
        assert entry_survives("closure", footprint, effects)
        assert entry_survives("paths", footprint, effects)


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

    def test_structural_write_drops_views(self):
        example = build_paper_example()
        graph = example.graph
        harness = _Harness(graph)
        try:
            params = self._summarize_params(graph, example)
            harness.serve("summarize", params)
            graph.add_entity(name="structural")
            harness.ship()
            assert harness.serve("summarize", params) \
                == _expected(graph, "summarize", params)
            assert harness.worker.views_patched == 0
            assert harness.worker.views_recomputed == 2
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
