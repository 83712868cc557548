"""Differential testing: snapshot answers must equal live-store answers.

The test-archetype centerpiece of the snapshot layer. Seed-controlled
random interleavings of store mutations and queries: after every mutation
*two* snapshots are produced — a full-rebuild :class:`GraphSnapshot` and an
incrementally ``advance()``-ed one carried across the whole interleaving —
asserted structurally bit-identical (CSR arrays, list views, untyped
incident lists, ordinals, the cached ``ProvAdjacency``). Each query
facility is then run twice — once against the live store, once with the
*incremental* snapshot — asserting identical results (vertex sets, BFS
level structure, blame reports, PgSeg segments with categories and edge
ids, SimProv answers and path vertices), so the delta-patched read path is
what the query families certify.

Two shared operators (one live, one snapshot-holding) run across the whole
interleaving, so the epoch-keyed memoization and the operator's internal
``advance()`` resync are also exercised against mutation: a stale cache or
a mispatched snapshot would surface as a divergence at the next checkpoint.
Every few rounds the incremental chain is also checked against a forced
full-rebuild fallback (``crossover=0``).

8 seeds x 25 mutation/query rounds = 200 randomized interleavings, each
checking every query family (the acceptance floor for this suite).

The CSR read paths get their own cases on random Pd graphs: PgSeg
induction under every kind of boundary (the gathers must apply the live
walk's predicate rule), blame, both on fresh and ``advance``d snapshots,
and CypherLite's ``var.key = literal`` scan filter against the same
predicate written so it cannot be pushed.
"""

import random

import numpy as np
import pytest

from repro.cfl.simprov_alg import SimProvAlg
from repro.cfl.simprov_tst import SimProvTst
from repro.model.graph import ProvenanceGraph
from repro.query.ops import (
    blame,
    common_ancestors,
    derivation_chain,
    impacted,
    lineage,
)
from repro.model.types import PATHABLE_EDGE_TYPES, EdgeType, VertexType
from repro.query.cypherlite.evaluator import _property_constraints, run_query
from repro.query.cypherlite.parser import parse
from repro.segment.boundary import (
    BoundaryCriteria,
    exclude_edge_types,
    exclude_vertex_types,
    property_not_equals,
    within_order_window,
)
from repro.segment.pgseg import PgSegOperator, PgSegQuery
from repro.store.snapshot import GraphSnapshot
from repro.workloads.lifecycle import build_paper_example
from repro.workloads.pd_generator import generate_pd_sized

SEEDS = range(8)
ROUNDS = 25


# ---------------------------------------------------------------------------
# Random mutations (always PROV-signature-valid)
# ---------------------------------------------------------------------------


def _live_ids(graph: ProvenanceGraph, kind: str) -> list[int]:
    if kind == "entity":
        return list(graph.entities())
    if kind == "activity":
        return list(graph.activities())
    return list(graph.agents())


def _mutate(rng: random.Random, graph: ProvenanceGraph, counter: list[int]) -> None:
    """Apply one random, valid mutation to the graph."""
    entities = _live_ids(graph, "entity")
    agents = _live_ids(graph, "agent")
    roll = rng.random()
    counter[0] += 1
    tag = counter[0]

    if roll < 0.08 or not agents:
        graph.add_agent(name=f"agent{tag}")
        return
    if roll < 0.20 or not entities:
        entity = graph.add_entity(name=f"ext{tag}")
        if agents and rng.random() < 0.5:
            graph.was_attributed_to(entity, rng.choice(agents))
        return
    if roll < 0.72:
        # A recorded run: uses 1-3 inputs, generates 1-2 outputs.
        activity = graph.add_activity(command=f"cmd{tag % 5}", run=tag)
        graph.was_associated_with(activity, rng.choice(agents))
        for entity in rng.sample(entities, k=min(len(entities),
                                                 rng.randint(1, 3))):
            graph.used(activity, entity)
        for output_index in range(rng.randint(1, 2)):
            out = graph.add_entity(name=f"art{tag}_{output_index}")
            graph.was_generated_by(out, activity)
            if rng.random() < 0.3:
                graph.was_derived_from(out, rng.choice(entities))
            if rng.random() < 0.4:
                graph.was_attributed_to(out, rng.choice(agents))
        return
    if roll < 0.82:
        live_edges = [r.edge_id for r in graph.store.edges()]
        if live_edges:
            graph.store.remove_edge(rng.choice(live_edges))
        return
    if roll < 0.90:
        victims = [
            v for v in entities
            if not graph.generating_activities(v)
            and not graph.using_activities(v)
        ]
        if len(victims) > 2:
            graph.store.remove_vertex(rng.choice(victims))
        return
    if roll < 0.94:
        # Ghost: a run recorded then retracted inside one advance() span —
        # net effect empty, but the id space still widens.
        activity = graph.add_activity(command=f"ghost{tag}")
        graph.used(activity, rng.choice(entities))
        graph.store.remove_vertex(activity)
        return
    vertex = rng.choice(entities)
    graph.store.set_vertex_property(vertex, "note", f"touched{tag}")


# ---------------------------------------------------------------------------
# Structural equivalence: full rebuild vs incremental advance()
# ---------------------------------------------------------------------------


def _prov_adjacency_key(adjacency):
    return (
        adjacency.n, adjacency.gen_acts, adjacency.user_acts,
        adjacency.used_ents, adjacency.gen_ents, adjacency.orders,
        adjacency.entity_ids, adjacency.activity_ids,
        adjacency.edge_total_g, adjacency.edge_total_u,
    )


def _assert_snapshots_identical(full, incremental):
    """Every frozen structure must match bit-for-bit."""
    assert incremental.epoch == full.epoch
    assert incremental.n == full.n
    assert incremental.vertex_count == full.vertex_count
    assert np.array_equal(incremental.vertex_codes, full.vertex_codes)
    assert np.array_equal(incremental.orders, full.orders)
    assert np.array_equal(incremental.edge_src, full.edge_src)
    assert np.array_equal(incremental.edge_dst, full.edge_dst)
    assert incremental.vertex_ids() == full.vertex_ids()
    for vertex_type in VertexType:
        assert incremental.vertex_ids(vertex_type) \
            == full.vertex_ids(vertex_type)
    for edge_type in EdgeType:
        assert incremental.out_lists(edge_type) == full.out_lists(edge_type)
        assert incremental.in_lists(edge_type) == full.in_lists(edge_type)
        assert incremental.out_edge_lists(edge_type) \
            == full.out_edge_lists(edge_type)
        assert incremental.in_edge_lists(edge_type) \
            == full.in_edge_lists(edge_type)
        assert incremental.edge_count(edge_type) == full.edge_count(edge_type)
    for vertex_id in full.vertex_ids():
        assert incremental.out_edges(vertex_id) == full.out_edges(vertex_id)
        assert incremental.in_edges(vertex_id) == full.in_edges(vertex_id)
        # Records are shared with the store by contract.
        assert incremental.vertex(vertex_id) is full.vertex(vertex_id)
    assert _prov_adjacency_key(incremental.prov_adjacency()) \
        == _prov_adjacency_key(full.prov_adjacency())


# ---------------------------------------------------------------------------
# Differential checks
# ---------------------------------------------------------------------------


def _lineage_key(result):
    return (
        result.root,
        result.vertices,
        [(level.depth, level.activities, level.entities)
         for level in result.levels],
    )


def _check_lineage(graph, snapshot, rng, entities):
    for entity in rng.sample(entities, k=min(3, len(entities))):
        assert _lineage_key(lineage(graph, entity)) == _lineage_key(
            lineage(graph, entity, snapshot=snapshot)
        )
        assert _lineage_key(impacted(graph, entity)) == _lineage_key(
            impacted(graph, entity, snapshot=snapshot)
        )
        assert derivation_chain(graph, entity) == derivation_chain(
            graph, entity, snapshot=snapshot
        )


def _check_blame(graph, snapshot, rng, entities):
    for entity in rng.sample(entities, k=min(3, len(entities))):
        assert blame(graph, entity) == blame(graph, entity, snapshot=snapshot)
    if len(entities) >= 2:
        left, right = rng.sample(entities, k=2)
        assert common_ancestors(graph, left, right) == common_ancestors(
            graph, left, right, snapshot=snapshot
        )


def _segment_key(segment):
    return (
        segment.vertices,
        tuple(segment.edge_ids),
        {v: frozenset(tags) for v, tags in segment.categories.items()},
    )


def _check_pgseg(live_op, snap_op, rng, entities):
    src = tuple(rng.sample(entities, k=min(2, len(entities))))
    dst = (rng.choice(entities),)
    for algorithm in ("simprov-tst", "simprov-alg"):
        query = PgSegQuery(src=src, dst=dst, algorithm=algorithm)
        assert _segment_key(live_op.evaluate(query)) == _segment_key(
            snap_op.evaluate(query)
        )


def _simprov_key(result):
    return (
        result.sources_matched,
        result.similar_entities,
        result.answer_pairs,
        result.path_vertices,
    )


def _check_simprov(graph, snapshot, rng, entities):
    src = rng.sample(entities, k=min(2, len(entities)))
    dst = [rng.choice(entities)]
    assert _simprov_key(SimProvAlg(graph, src, dst).solve()) == _simprov_key(
        SimProvAlg(graph, src, dst, snapshot=snapshot).solve()
    )
    live = SimProvTst(graph, src, dst, collect_pairs=True).solve()
    fast = SimProvTst(graph, src, dst, collect_pairs=True,
                      snapshot=snapshot).solve()
    assert _simprov_key(live) == _simprov_key(fast)


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_mutation_query_interleavings(seed):
    rng = random.Random(seed)
    graph = build_paper_example().graph
    live_op = PgSegOperator(graph)
    snap_op = PgSegOperator(graph, snapshot=True)
    counter = [0]
    incremental = GraphSnapshot(graph)
    incremental.prov_adjacency()        # arm the cache so patching is tested

    for round_index in range(ROUNDS):
        stale = incremental
        _mutate(rng, graph, counter)
        full = GraphSnapshot(graph)
        incremental = incremental.advance(graph)
        assert full.is_fresh and incremental.is_fresh
        _assert_snapshots_identical(full, incremental)
        if round_index % 5 == 4 and not stale.is_fresh:
            # The crossover fallback must agree with the patched chain too
            # (crossover=-1 forces a full rebuild even for spans with no
            # structural deltas, which 0 no longer does).
            rebuilt = stale.advance(graph, crossover=-1)
            assert rebuilt.advanced_from is None
            _assert_snapshots_identical(rebuilt, incremental)
        entities = list(graph.entities())
        assert entities, "mutation schedule must keep entities alive"

        # Query families certify the *incremental* snapshot against the
        # live store; the structural check above ties it to the full one.
        _check_lineage(graph, incremental, rng, entities)
        _check_blame(graph, incremental, rng, entities)
        _check_pgseg(live_op, snap_op, rng, entities)
        _check_simprov(graph, incremental, rng, entities)


def test_interleavings_exercise_incremental_path():
    """The advance() chain must actually patch (not silently rebuild)."""
    rng = random.Random(0)
    graph = build_paper_example().graph
    counter = [0]
    incremental = GraphSnapshot(graph)
    patched_rounds = 0
    for _ in range(ROUNDS):
        _mutate(rng, graph, counter)
        incremental = incremental.advance(graph)
        if incremental.advanced_from is not None:
            patched_rounds += 1
    assert patched_rounds >= ROUNDS // 2


def test_snapshot_answers_are_frozen_in_time():
    """A stale snapshot keeps answering for the epoch it captured."""
    example = build_paper_example()
    graph = example.graph
    snapshot = GraphSnapshot(graph)
    before = _lineage_key(
        lineage(graph, example["weight-v2"], snapshot=snapshot)
    )

    # Append a new training run downstream of weight-v2's inputs.
    activity = graph.add_activity(command="train", run="late")
    graph.used(activity, example["dataset-v1"])
    out = graph.add_entity(name="weight", version=9)
    graph.was_generated_by(out, activity)

    assert not snapshot.is_fresh
    after_snapshot = _lineage_key(
        lineage(graph, example["weight-v2"], snapshot=snapshot)
    )
    assert after_snapshot == before          # time-travel read
    live = _lineage_key(lineage(graph, example["dataset-v1"]))
    assert live is not None                  # live store sees the new state


def test_total_interleaving_budget():
    """The suite exercises at least 200 randomized interleavings."""
    assert len(SEEDS) * ROUNDS >= 200


# ---------------------------------------------------------------------------
# CSR read paths on random Pd graphs
# ---------------------------------------------------------------------------

PD_SEEDS = range(4)


def _pd_query(rng, pd):
    """Early sources, one to three late destinations."""
    third = len(pd.entities) // 3
    return (tuple(rng.sample(pd.entities[:third], 2)),
            tuple(rng.sample(pd.entities[-third:], rng.randint(1, 3))))


def _boundary_cases(pd, src, dst):
    graph = pd.graph
    src_name = graph.vertex(src[0]).get("name")
    middle = graph.vertex(pd.entities[len(pd.entities) // 2]).order
    return {
        "none": None,
        # Both exclude Vsrc; VC4 still reads its agents.
        "no-entities": BoundaryCriteria().exclude_vertices(
            exclude_vertex_types(VertexType.ENTITY)),
        "not-src-name": BoundaryCriteria().exclude_vertices(
            property_not_equals("name", src_name)),
        "window": BoundaryCriteria().exclude_vertices(
            within_order_window(lo=middle)),
        # Drops the G edges VC3 gathers, all or half of them.
        "no-G": BoundaryCriteria().exclude_edges(
            exclude_edge_types(EdgeType.WAS_GENERATED_BY)),
        "half-G": BoundaryCriteria().exclude_edges(
            lambda record: record.edge_type is not EdgeType.WAS_GENERATED_BY
            or record.edge_id % 2 == 0),
        "expand": BoundaryCriteria().expand(dst, k=1),
        "expand-bounded": BoundaryCriteria().exclude_vertices(
            property_not_equals("name", src_name)).expand(
                (*src, dst[0]), k=2),
    }


@pytest.mark.parametrize("seed", PD_SEEDS)
def test_csr_induce_matches_live_walk(seed):
    rng = random.Random(seed)
    pd = generate_pd_sized(240, seed=seed)
    graph = pd.graph
    live_op = PgSegOperator(graph)
    snap_op = PgSegOperator(graph, snapshot=GraphSnapshot(graph))
    for _ in range(2):
        src, dst = _pd_query(rng, pd)
        for name, boundaries in _boundary_cases(pd, src, dst).items():
            for direct in (PATHABLE_EDGE_TYPES,
                           frozenset({EdgeType.WAS_DERIVED_FROM}),
                           frozenset({EdgeType.USED,
                                      EdgeType.WAS_GENERATED_BY})):
                query = PgSegQuery(src=src, dst=dst, boundaries=boundaries,
                                   direct_edge_types=direct)
                live = live_op.evaluate(query)
                assert _segment_key(snap_op.evaluate(query)) \
                    == _segment_key(live), (name, direct)
            if boundaries is not None and boundaries.has_exclusions:
                query = PgSegQuery(src=src, dst=dst, boundaries=boundaries)
                assert _segment_key(snap_op.evaluate(
                    query, inline_boundaries=False)) == _segment_key(
                        live_op.evaluate(query, inline_boundaries=False))
        # An excluded Vsrc still brings its agents (VC4 tests only the
        # agent end of an S / A edge).
        excluded = PgSegQuery(src=src, dst=dst, boundaries=_boundary_cases(
            pd, src, dst)["not-src-name"])
        agents = set(graph.agents_of(src[0]))
        assert agents and agents <= snap_op.evaluate(excluded).vertices


def _attribute_and_append(rng, pd):
    """New attributions on old rows and a new run on old inputs."""
    graph = pd.graph
    newcomer = graph.add_agent(name="newcomer")
    for entity in rng.sample(pd.entities, 5):
        graph.was_attributed_to(entity, newcomer)
    for activity in rng.sample(pd.activities, 3):
        graph.was_associated_with(activity, newcomer)
    run = graph.add_activity(command="train", step=99)
    graph.was_associated_with(run, rng.choice(pd.agents))
    for entity in rng.sample(pd.entities, 3):
        graph.used(run, entity)
    out = graph.add_entity(name="late", version=1)
    graph.was_generated_by(out, run)
    graph.was_attributed_to(out, newcomer)
    return out


@pytest.mark.parametrize("seed", PD_SEEDS)
def test_csr_reads_after_advance(seed):
    rng = random.Random(seed)
    pd = generate_pd_sized(240, seed=seed)
    graph = pd.graph
    snapshot = GraphSnapshot(graph)
    snap_op = PgSegOperator(graph, snapshot=snapshot)
    for entity in pd.entities[-3:]:
        assert blame(graph, entity) == blame(graph, entity,
                                             snapshot=snapshot)
    out = _attribute_and_append(rng, pd)
    advanced = snapshot.advance(graph)
    assert advanced.advanced_from == snapshot.epoch
    for entity in (out, *pd.entities[-3:], *rng.sample(pd.entities, 5)):
        assert blame(graph, entity) == blame(graph, entity,
                                             snapshot=advanced)
    live_op = PgSegOperator(graph)
    src, _ = _pd_query(rng, pd)
    for dst in ((out,), (out, pd.entities[-1])):
        for name, boundaries in _boundary_cases(pd, src, dst).items():
            query = PgSegQuery(src=src, dst=dst, boundaries=boundaries)
            assert _segment_key(snap_op.evaluate(query)) \
                == _segment_key(live_op.evaluate(query)), name
    assert snap_op.snapshot.advanced_from == snapshot.epoch


#: (filtered scan, the same predicate in a form no conjunct extracts).
CYPHER_PAIRS = [
    ("MATCH (e:E) WHERE e.name = '{name}' RETURN id(e), e.version",
     "MATCH (e:E) WHERE NOT (e.name <> '{name}') RETURN id(e), e.version"),
    ("MATCH (e:E) WHERE '{name}' = e.name RETURN id(e)",
     "MATCH (e:E) WHERE NOT ('{name}' <> e.name) RETURN id(e)"),
    # A property entities do not have.
    ("MATCH (e:E) WHERE e.command = 'train' RETURN id(e)",
     "MATCH (e:E) WHERE NOT (e.command <> 'train') RETURN id(e)"),
    ("MATCH (e:E) WHERE e.version = 1 RETURN id(e)",
     "MATCH (e:E) WHERE NOT (e.version <> 1) RETURN id(e)"),
    ("MATCH (e:E) WHERE e.version = '1' RETURN id(e)",
     "MATCH (e:E) WHERE NOT (e.version <> '1') RETURN id(e)"),
    ("MATCH (e:E) WHERE id(e) IN [{ids}] AND e.version = 2 RETURN id(e)",
     "MATCH (e:E) WHERE id(e) IN [{ids}] AND NOT (e.version <> 2) "
     "RETURN id(e)"),
    ("MATCH (a:A)-[:U]->(e:E) WHERE a.command = 'train' "
     "AND e.name = '{name}' RETURN id(a), id(e)",
     "MATCH (a:A)-[:U]->(e:E) WHERE NOT (a.command <> 'train') "
     "AND NOT (e.name <> '{name}') RETURN id(a), id(e)"),
    ("MATCH (e:E) WHERE e.version = 1 MATCH (a:A)-[:U]->(e) "
     "WHERE a.command = 'train' RETURN id(a), id(e)",
     "MATCH (e:E) WHERE NOT (e.version <> 1) MATCH (a:A)-[:U]->(e) "
     "WHERE NOT (a.command <> 'train') RETURN id(a), id(e)"),
    ("MATCH (v) WHERE v.name = '{agent}' RETURN id(v)",
     "MATCH (v) WHERE NOT (v.name <> '{agent}') RETURN id(v)"),
    ("MATCH (e:E) WHERE e.name = '{name}' RETURN id(e) LIMIT 2",
     "MATCH (e:E) WHERE NOT (e.name <> '{name}') RETURN id(e) LIMIT 2"),
]


@pytest.mark.parametrize("seed", PD_SEEDS)
def test_cypher_property_filter_keeps_rows_and_order(seed):
    rng = random.Random(seed)
    pd = generate_pd_sized(240, seed=seed)
    graph = pd.graph
    snapshot = GraphSnapshot(graph)
    values = {
        "name": graph.vertex(rng.choice(pd.entities)).get("name"),
        "agent": graph.vertex(rng.choice(pd.agents)).get("name"),
        "ids": ", ".join(map(str, rng.sample(pd.entities, 40))),
    }
    for pushed, unpushed in CYPHER_PAIRS:
        pushed, unpushed = pushed.format(**values), unpushed.format(**values)
        assert _property_constraints(parse(pushed).clauses[0].where)
        assert not _property_constraints(parse(unpushed).clauses[0].where)
        expected = run_query(graph, unpushed)
        assert run_query(graph, pushed) == expected, pushed
        assert run_query(graph, pushed, snapshot=snapshot) == expected
