"""Differential testing: replica state must equal a leader full rebuild.

The replication analog of ``tests/test_snapshot_differential.py``.
Seed-controlled random interleavings of leader mutations, delta shipping,
and queries: after every catch-up the replica's read snapshot is asserted
**structurally bit-identical** to a full ``GraphSnapshot`` rebuilt from the
leader — CSR arrays, list views, untyped incident lists, ordinals, epochs,
the cached ``ProvAdjacency``, and record *values* (records live in
different stores, so identity is replaced by field equality). Query
families (lineage/impact/blame, PgSeg, CypherLite) are then run against
both sides through the routed cluster and asserted identical.

A dedicated scenario shrinks the leader's delta log so mutation bursts
truncate the shipped span, forcing the full re-sync path — the replica
must come back bit-identical through that road too.

The default replicas are in-process workers, so their armed snapshots
are read through the link that holds them. The batched and fault
scenarios run in both spawn modes (the ``*_in_process`` twins), and one
seeded stream pins the two modes' wire answers to each other.

8 seeds x 25 rounds = 200 randomized interleavings, matching the snapshot
suite's floor.
"""

import random

import numpy as np
import pytest

from repro.model.types import EdgeType, VertexType
from repro.query.cypherlite import run_query
from repro.query.ops import blame, impacted, lineage
from repro.segment.pgseg import PgSegOperator, PgSegQuery
from repro.serve.api import ServeConfig
from repro.serve.cluster import ProvCluster
from repro.serve.frontend import FrontendClient
from repro.serve.methods import BATCHABLE, METHODS
from repro.serve.wire import psg_to_wire
from repro.session import LifecycleSession
from repro.store.snapshot import GraphSnapshot
from repro.workloads.lifecycle import build_paper_example
from faults import kill_worker, truncate_log
from test_snapshot_differential import (
    _lineage_key,
    _mutate,
    _prov_adjacency_key,
    _segment_key,
)

SEEDS = range(8)
ROUNDS = 25


def _vertex_key(record):
    return (record.vertex_id, record.vertex_type, record.order,
            record.properties)


def _edge_key(record):
    return (record.edge_id, record.edge_type, record.src, record.dst,
            record.properties)


def _assert_snapshots_equivalent(leader_snap, replica_snap):
    """Bit-identical frozen structure; records equal by value."""
    assert replica_snap.epoch == leader_snap.epoch
    assert replica_snap.n == leader_snap.n
    assert replica_snap.vertex_count == leader_snap.vertex_count
    assert np.array_equal(replica_snap.vertex_codes,
                          leader_snap.vertex_codes)
    assert np.array_equal(replica_snap.orders, leader_snap.orders)
    assert np.array_equal(replica_snap.edge_src, leader_snap.edge_src)
    assert np.array_equal(replica_snap.edge_dst, leader_snap.edge_dst)
    assert replica_snap.vertex_ids() == leader_snap.vertex_ids()
    for vertex_type in VertexType:
        assert replica_snap.vertex_ids(vertex_type) \
            == leader_snap.vertex_ids(vertex_type)
    for edge_type in EdgeType:
        assert replica_snap.out_lists(edge_type) \
            == leader_snap.out_lists(edge_type)
        assert replica_snap.in_lists(edge_type) \
            == leader_snap.in_lists(edge_type)
        assert replica_snap.out_edge_lists(edge_type) \
            == leader_snap.out_edge_lists(edge_type)
        assert replica_snap.in_edge_lists(edge_type) \
            == leader_snap.in_edge_lists(edge_type)
        assert replica_snap.edge_count(edge_type) \
            == leader_snap.edge_count(edge_type)
    for vertex_id in leader_snap.vertex_ids():
        assert replica_snap.out_edges(vertex_id) \
            == leader_snap.out_edges(vertex_id)
        assert replica_snap.in_edges(vertex_id) \
            == leader_snap.in_edges(vertex_id)
        assert _vertex_key(replica_snap.vertex(vertex_id)) \
            == _vertex_key(leader_snap.vertex(vertex_id))
    for edge_id in leader_snap.induced_edge_ids(leader_snap.vertex_ids()):
        assert _edge_key(replica_snap.edge(edge_id)) \
            == _edge_key(leader_snap.edge(edge_id))
    assert _prov_adjacency_key(replica_snap.prov_adjacency()) \
        == _prov_adjacency_key(leader_snap.prov_adjacency())


def _armed_snapshot(replica):
    """An in-process replica's read snapshot, from the worker its link
    holds."""
    return replica.transport.worker._armed_snapshot()


def _check_routed_queries(graph, cluster, rng, entities):
    """Every read family must agree between leader-live and routed."""
    for entity in rng.sample(entities, k=min(3, len(entities))):
        assert _lineage_key(cluster.lineage(entity)) \
            == _lineage_key(lineage(graph, entity))
        assert _lineage_key(cluster.impacted(entity)) \
            == _lineage_key(impacted(graph, entity))
        assert cluster.blame(entity) == blame(graph, entity)
    src = tuple(rng.sample(entities, k=min(2, len(entities))))
    dst = (rng.choice(entities),)
    query = PgSegQuery(src=src, dst=dst)
    assert _segment_key(cluster.segment(query)) \
        == _segment_key(PgSegOperator(graph).evaluate(query))
    probe = rng.choice(entities)
    text = f"MATCH (e:E)<-[:U]-(a:A) WHERE id(e) = {probe} RETURN id(a)"
    assert cluster.cypher(text) == run_query(graph, text)


@pytest.mark.parametrize("seed", SEEDS)
def test_mutate_ship_query_interleavings(seed):
    rng = random.Random(seed)
    graph = build_paper_example().graph
    cluster = ProvCluster(graph, replicas=2)
    counter = [0]

    for round_index in range(ROUNDS):
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, graph, counter)
        # Ship to one replica eagerly; the other catches up lazily via the
        # router, so both catch-up paths stay under test.
        cluster.replicas[round_index % 2].catch_up()

        entities = list(graph.entities())
        assert entities, "mutation schedule must keep entities alive"
        _check_routed_queries(graph, cluster, rng, entities)

        # After routing, compare every caught-up replica against a full
        # leader rebuild (replicas that still lag answer for their own
        # epoch by design and are checked once they ship).
        full = GraphSnapshot(graph)
        for replica in cluster.replicas:
            if replica.epoch == graph.store.epoch:
                _assert_snapshots_equivalent(full, _armed_snapshot(replica))

    # Both replicas served and finished convergent.
    cluster.refresh()
    full = GraphSnapshot(graph)
    for replica in cluster.replicas:
        assert replica.queries_served > 0
        _assert_snapshots_equivalent(full, _armed_snapshot(replica))


@pytest.mark.parametrize("seed", range(3))
def test_truncation_resync_interleavings(seed):
    """Bursts overflow a tiny leader log: the re-sync path must converge."""
    rng = random.Random(1000 + seed)
    graph = build_paper_example().graph
    truncate_log(graph.store, 12)
    cluster = ProvCluster(graph, replicas=2)
    counter = [0]

    for _ in range(10):
        # A burst large enough to (often) evict the un-shipped span.
        for _ in range(rng.randint(4, 8)):
            _mutate(rng, graph, counter)
        cluster.refresh()
        full = GraphSnapshot(graph)
        for replica in cluster.replicas:
            _assert_snapshots_equivalent(full, _armed_snapshot(replica))
        entities = list(graph.entities())
        _check_routed_queries(graph, cluster, rng, entities)

    assert any(replica.resyncs > 0 for replica in cluster.replicas), \
        "the truncation schedule must actually force full re-syncs"


def test_interleaving_budget():
    """The randomized suite exercises at least 200 interleavings."""
    assert len(SEEDS) * ROUNDS >= 200


# ---------------------------------------------------------------------------
# Out-of-process mode: socket workers must be indistinguishable
# ---------------------------------------------------------------------------

OOP_SEEDS = range(2)
OOP_ROUNDS = 12


@pytest.mark.parametrize("seed", OOP_SEEDS)
def test_out_of_process_interleavings(seed):
    """Leader mutates, socket workers serve: answers bit-identical.

    The out-of-process analog of the in-process interleaving suite. The
    replica snapshot lives in another process, so equivalence is asserted
    where it is observable: every routed answer (lineage/impact/blame,
    PgSeg, CypherLite) must equal the leader's live evaluation after each
    mutation burst — across shipped adds, removals (tombstones cross the
    wire payload-less), and property writes.
    """
    rng = random.Random(7000 + seed)
    graph = build_paper_example().graph
    cluster = ProvCluster(graph, replicas=2, out_of_process=True)
    counter = [0]
    try:
        for _ in range(OOP_ROUNDS):
            for _ in range(rng.randint(1, 3)):
                _mutate(rng, graph, counter)
            entities = list(graph.entities())
            assert entities, "mutation schedule must keep entities alive"
            _check_routed_queries(graph, cluster, rng, entities)
        assert all(r.queries_served > 0 for r in cluster.replicas)
        assert all(r.restarts == 0 for r in cluster.replicas), \
            "no worker may crash under the plain interleaving schedule"
    finally:
        cluster.close()


def _batch_specs(rng, entities):
    """One round's spec list: every wire method, seeded targets."""
    specs = []
    for entity in rng.sample(entities, k=min(3, len(entities))):
        specs.append(("lineage", {"entity": entity}))
        specs.append(("impacted", {"entity": entity}))
        specs.append(("blame", {"entity": entity}))
    src = tuple(rng.sample(entities, k=min(2, len(entities))))
    specs.append(("segment", {"query": PgSegQuery(
        src=src, dst=(rng.choice(entities),))}))
    probe = rng.choice(entities)
    specs.append(("cypher", {"text":
                  f"MATCH (e:E)<-[:U]-(a:A) WHERE id(e) = {probe} "
                  f"RETURN id(a)"}))
    return specs


def _assert_batched_matches_leader(graph, specs, results):
    """Every batched answer must equal the leader's live evaluation."""
    for (method, params), result in zip(specs, results, strict=True):
        assert not isinstance(result, BaseException), \
            f"{method} spec failed: {result!r}"
        if method == "lineage":
            assert _lineage_key(result) \
                == _lineage_key(lineage(graph, params["entity"]))
        elif method == "impacted":
            assert _lineage_key(result) \
                == _lineage_key(impacted(graph, params["entity"]))
        elif method == "blame":
            assert result == blame(graph, params["entity"])
        elif method == "segment":
            assert _segment_key(result) == _segment_key(
                PgSegOperator(graph).evaluate(params["query"]))
        else:
            assert result == run_query(graph, params["text"])


@pytest.mark.parametrize("seed", range(2))
def test_batched_vs_sequential_interleavings(seed, out_of_process=True):
    """Batched and sequential serving of one query set are identical.

    Each round mutates the leader (mutations interleaved *between*
    bundles), then serves the same spec list twice — sequentially
    through the routed single-query methods and as one ``query_many``
    fan-out — and asserts the two result lists pairwise identical (and
    both equal to the leader's live evaluation). Worker epochs must be
    monotone across rounds, and strict batched reads land every
    participating worker at the leader epoch (read-your-writes).
    """
    rng = random.Random(8800 + seed)
    graph = build_paper_example().graph
    cluster = ProvCluster(graph, replicas=2, out_of_process=out_of_process)
    counter = [0]
    epochs_by_round = []
    try:
        for _ in range(8):
            for _ in range(rng.randint(1, 3)):
                _mutate(rng, graph, counter)
            entities = list(graph.entities())
            assert entities, "mutation schedule must keep entities alive"
            specs = _batch_specs(rng, entities)
            sequential = []
            for method, params in specs:
                if method == "lineage":
                    sequential.append(cluster.lineage(params["entity"]))
                elif method == "impacted":
                    sequential.append(cluster.impacted(params["entity"]))
                elif method == "blame":
                    sequential.append(cluster.blame(params["entity"]))
                elif method == "segment":
                    sequential.append(cluster.segment(params["query"]))
                else:
                    sequential.append(cluster.cypher(params["text"]))
            batched = cluster.query_many(specs)
            _assert_batched_matches_leader(graph, specs, batched)
            for (method, _), seq, bat in zip(specs, sequential, batched,
                                             strict=True):
                if method in ("lineage", "impacted"):
                    assert _lineage_key(seq) == _lineage_key(bat)
                elif method == "segment":
                    assert _segment_key(seq) == _segment_key(bat)
                else:
                    assert seq == bat
            # Strict stamp honored by the fan-out, epochs monotone.
            assert all(replica.epoch == cluster.leader_epoch
                       for replica in cluster.replicas)
            epochs_by_round.append(
                [replica.epoch for replica in cluster.replicas])
        for previous, current in zip(epochs_by_round, epochs_by_round[1:]):
            assert all(c >= p for p, c in zip(previous, current))
        assert sum(r.bundles_sent for r in cluster.replicas) > 0
        assert all(r.restarts == 0 for r in cluster.replicas)
    finally:
        cluster.close()


@pytest.mark.parametrize("seed", range(2))
def test_batched_vs_sequential_interleavings_in_process(seed):
    test_batched_vs_sequential_interleavings(seed, out_of_process=False)


def test_batched_kill_mid_bundle(out_of_process=True):
    """A worker killed while its bundle is in flight loses no queries:
    the dead worker's whole share is re-routed and the reassembled
    results still match the leader."""
    rng = random.Random(9911)
    graph = build_paper_example().graph
    cluster = ProvCluster(graph, replicas=2, out_of_process=out_of_process)
    counter = [0]
    try:
        for round_index in range(6):
            for _ in range(rng.randint(1, 3)):
                _mutate(rng, graph, counter)
            entities = list(graph.entities())
            specs = _batch_specs(rng, entities)
            if round_index == 2:
                casualty = cluster.replicas[0]
                kill_worker(casualty)
            results = cluster.query_many(specs)
            _assert_batched_matches_leader(graph, specs, results)
        assert cluster.replicas[0].restarts == 1
        assert all(r.alive() for r in cluster.replicas)
        # The restarted worker rejoined the fan-out at the leader epoch.
        cluster.refresh()
        assert all(r.epoch == cluster.leader_epoch
                   for r in cluster.replicas)
    finally:
        cluster.close()


def test_batched_kill_mid_bundle_in_process():
    test_batched_kill_mid_bundle(out_of_process=False)


def test_batched_survives_multiple_simultaneous_dead_workers(
        out_of_process=True):
    """TWO of three workers dead when the fan-out begins: the batch is
    still reassembled bit-identically (each orphaned share re-routes,
    the pool restarts the casualties underneath)."""
    rng = random.Random(5150)
    graph = build_paper_example().graph
    cluster = ProvCluster(graph, replicas=3, out_of_process=out_of_process)
    counter = [0]
    try:
        for round_index in range(5):
            for _ in range(rng.randint(1, 3)):
                _mutate(rng, graph, counter)
            entities = list(graph.entities())
            specs = _batch_specs(rng, entities)
            if round_index == 2:
                kill_worker(cluster.replicas[0])
                kill_worker(cluster.replicas[1])
            results = cluster.query_many(specs)
            _assert_batched_matches_leader(graph, specs, results)
        assert cluster.replicas[0].restarts == 1
        assert cluster.replicas[1].restarts == 1
        assert all(r.alive() for r in cluster.replicas)
        cluster.refresh()
        assert all(r.epoch == cluster.leader_epoch
                   for r in cluster.replicas)
    finally:
        cluster.close()


def test_batched_survives_multiple_simultaneous_dead_workers_in_process():
    test_batched_survives_multiple_simultaneous_dead_workers(
        out_of_process=False)


def test_batched_survives_every_worker_dead(out_of_process=True):
    """The degenerate casualty schedule: EVERY worker is dead when the
    fan-out begins. The route path must restart workers (not just skip
    them) and the reassembled batch still matches the leader."""
    rng = random.Random(5151)
    graph = build_paper_example().graph
    cluster = ProvCluster(graph, replicas=2, out_of_process=out_of_process)
    counter = [0]
    try:
        for _ in range(4):
            _mutate(rng, graph, counter)
        for client in cluster.replicas:
            kill_worker(client)
        entities = list(graph.entities())
        specs = _batch_specs(rng, entities)
        results = cluster.query_many(specs)
        _assert_batched_matches_leader(graph, specs, results)
        assert all(r.restarts == 1 for r in cluster.replicas)
        assert all(r.alive() for r in cluster.replicas)
    finally:
        cluster.close()


def test_batched_survives_every_worker_dead_in_process():
    test_batched_survives_every_worker_dead(out_of_process=False)


def test_out_of_process_kill_restart_resync(out_of_process=True):
    """Worker kill mid-interleaving: restart + re-sync, answers identical.

    Extends the differential schedule with a mid-run casualty: after the
    kill every routed answer must still match the leader (the router
    retries onto the surviving worker while the pool restarts the dead
    one), and the restarted worker must rejoin at the leader epoch and
    serve correct answers again.
    """
    rng = random.Random(7777)
    graph = build_paper_example().graph
    cluster = ProvCluster(graph, replicas=2, out_of_process=out_of_process)
    counter = [0]
    try:
        for round_index in range(8):
            for _ in range(rng.randint(1, 3)):
                _mutate(rng, graph, counter)
            if round_index == 3:
                casualty = cluster.replicas[0]
                kill_worker(casualty)
            entities = list(graph.entities())
            _check_routed_queries(graph, cluster, rng, entities)
        assert cluster.replicas[0].restarts == 1
        assert all(r.alive() for r in cluster.replicas)
        cluster.refresh()
        assert all(r.epoch == cluster.leader_epoch
                   for r in cluster.replicas)
        # The restarted worker is back in rotation and answering.
        served_before = cluster.replicas[0].queries_served
        entities = list(graph.entities())
        _check_routed_queries(graph, cluster, rng, entities)
        assert cluster.replicas[0].queries_served > served_before
    finally:
        cluster.close()


def test_kill_restart_resync_in_process():
    test_out_of_process_kill_restart_resync(out_of_process=False)


# ---------------------------------------------------------------------------
# One follower: both spawn modes answer identically
# ---------------------------------------------------------------------------


def _summary_queries(rng, entities):
    src = tuple(rng.sample(entities, k=min(2, len(entities))))
    return [PgSegQuery(src=src, dst=(dst,))
            for dst in rng.sample(entities, k=min(2, len(entities)))]


#: One sample spec per batchable row of the method table, built from
#: ``(rng, entities)``: a row added without a sample here, or answering
#: differently on any serving path, fails the parity test below.
SAMPLES = {
    "lineage": lambda rng, entities: {"entity": rng.choice(entities),
                                      "max_depth": rng.choice([None, 1])},
    "impacted": lambda rng, entities: {"entity": rng.choice(entities)},
    "blame": lambda rng, entities: {"entity": rng.choice(entities)},
    "segment": lambda rng, entities: {"query": PgSegQuery(
        src=tuple(rng.sample(entities, k=min(2, len(entities)))),
        dst=(rng.choice(entities),))},
    "cypher": lambda rng, entities: {"text":
        f"MATCH (e:E)-[:G]->(a:A) WHERE id(e) = {rng.choice(entities)} "
        f"RETURN id(a)"},
}


def _wire_answers(query_many, specs):
    """One path's answers to ``specs``, each in its row's wire encoding."""
    return [METHODS[method].result_to_wire(result)
            for (method, _), result in zip(specs, query_many(specs),
                                           strict=True)]


def test_spawn_modes_answer_identically():
    """One seeded mutate/query stream — every batchable method, one
    sample per row of the method table, plus ``summarize``, each pass
    asked twice — answered identically, in wire encoding, by four paths:
    a session with no cluster, in-process workers, worker processes and
    a front-end client of those processes. The summary (asked four
    times: the rotation lands it twice on each of two replicas) is
    compared across the two spawn modes; the in-process workers answered
    repeats from their result cache and their summary views."""
    assert tuple(SAMPLES) == BATCHABLE
    rng = random.Random(2727)
    graph = build_paper_example().graph
    clusters = {mode: ProvCluster(graph, config=ServeConfig(
        replicas=2, out_of_process=mode, frontend=mode))
        for mode in (False, True)}
    client = FrontendClient(clusters[True].frontend.address, graph=graph)
    paths = {"session": LifecycleSession(graph=graph).query_many,
             "in-process": clusters[False].query_many,
             "processes": clusters[True].query_many,
             "front-end": client.query_many}
    counter = [0]
    try:
        for _ in range(6):
            for _ in range(rng.randint(1, 3)):
                _mutate(rng, graph, counter)
            entities = list(graph.entities())
            specs = _batch_specs(rng, entities) + [
                (method, sample(rng, entities))
                for method, sample in SAMPLES.items()]
            queries = _summary_queries(rng, entities)
            for _repeat in range(2):
                answers = {name: _wire_answers(query_many, specs)
                           for name, query_many in paths.items()}
                for name, answer in answers.items():
                    assert answer == answers["session"], name
                in_process, processes = (
                    [psg_to_wire(clusters[mode].summarize(queries))
                     for _ in range(4)] for mode in (False, True))
                assert in_process == processes
        workers = [replica.transport.worker
                   for replica in clusters[False].replicas]
        assert sum(worker.cache_hits for worker in workers) > 0
        assert sum(worker.views_served for worker in workers) > 0
        for cluster in clusters.values():
            assert all(r.restarts == 0 for r in cluster.replicas)
    finally:
        client.close()
        for cluster in clusters.values():
            cluster.close()


def test_in_process_answers_never_alias_the_worker_cache():
    """Decoders copy: mutating a returned ``Lineage``, blame report or
    ``Segment`` and asking again returns the original answer — served
    from the worker's cache, which the caller's edits never reached."""
    example = build_paper_example()
    graph = example.graph
    target = example["weight-v2"]
    roots = tuple(v for v in graph.entities()
                  if not graph.generating_activities(v))
    query = PgSegQuery(src=roots, dst=(target,))
    with ProvCluster(graph, replicas=1) as cluster:
        walk = cluster.lineage(target)
        walk.vertices.clear()
        walk.levels[0].entities.append(-1)
        report = cluster.blame(target)
        for owned in report.values():
            owned.add(-1)
        report[-1] = {-1}
        segment = cluster.segment(query)
        segment.vertices.clear()
        segment.edge_ids.clear()
        for tags in segment.categories.values():
            tags.add("edited")
        hits = cluster.replicas[0].transport.worker.cache_hits
        assert _lineage_key(cluster.lineage(target)) \
            == _lineage_key(lineage(graph, target))
        assert cluster.blame(target) == blame(graph, target)
        assert _segment_key(cluster.segment(query)) \
            == _segment_key(PgSegOperator(graph).evaluate(query))
        assert cluster.replicas[0].transport.worker.cache_hits == hits + 3
