"""Differentials for the two PgSeg steps rewritten beside the CFL kernel.

- ``direct_path_vertices`` now confines its backward walk to the forward
  set; the reference below is the two-sided closure intersection it
  replaced, with the same boundary-predicate semantics.
- ``GraphSnapshot.induced_edge_ids`` is one boolean mask over the edge
  endpoint arrays; the reference is the live graph's per-member loop.

Graphs come from the kernel suite's scenario generator: creation order
unrelated to ancestry, cycles, dead ids, snapshots patched by ``advance``.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.model.types import EdgeType, PATHABLE_EDGE_TYPES
from repro.segment.induce import direct_path_vertices
from repro.store.snapshot import GraphSnapshot
from test_cfl_kernel import apply_phase, new_graph, scenarios


def closure(store, starts, forward, vertex_ok, edge_ok):
    seen = set(starts)
    stack = list(seen)
    while stack:
        current = stack.pop()
        for edge_type in PATHABLE_EDGE_TYPES:
            edge_ids = (store.out_edge_ids(current, edge_type) if forward
                        else store.in_edge_ids(current, edge_type))
            for edge_id in edge_ids:
                record = store.edge(edge_id)
                other = record.dst if forward else record.src
                if not edge_ok(record) or not vertex_ok(store.vertex(other)):
                    continue
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
    return seen


def two_sided_reference(graph, src, dst, vertex_ok, edge_ok):
    store = graph.store
    src = [v for v in src if vertex_ok(store.vertex(v))]
    dst = [v for v in dst if vertex_ok(store.vertex(v))]
    if not src or not dst:
        return set()
    return (closure(store, dst, True, vertex_ok, edge_ok)
            & closure(store, src, False, vertex_ok, edge_ok))


def snapshots_by_phase(scenario):
    """Yield ``(graph, advanced snapshot)`` after each mutation phase."""
    graph = new_graph(scenario["shape"])
    advanced = None
    for ops in scenario["phases"]:
        apply_phase(graph, ops, scenario["shape"])
        advanced = GraphSnapshot(graph) if advanced is None \
            else advanced.advance(graph)
        yield graph, advanced


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenarios())
def test_direct_paths_match_two_sided_intersection(scenario):
    for graph, advanced in snapshots_by_phase(scenario):
        entities = list(graph.entities())
        src = [entities[i % len(entities)] for i in scenario["src"]]
        dst = [entities[-1 - i % len(entities)] for i in scenario["dst"]]
        live_v = [r.vertex_id for r in graph.store.vertices()]
        live_e = [r.edge_id for r in graph.store.edges()]
        drop_v = {live_v[i % len(live_v)] for i in scenario["drop_vertices"]}
        drop_e = {live_e[i % len(live_e)]
                  for i in scenario["drop_edges"] if live_e}

        def keep_vertex(record):
            return record.vertex_id not in drop_v

        def keep_edge(record):
            return record.edge_id not in drop_e

        for vertex_ok, edge_ok in ((None, None), (keep_vertex, keep_edge),
                                   (keep_vertex, None), (None, keep_edge)):
            expected = two_sided_reference(
                graph, src, dst, vertex_ok or (lambda r: True),
                edge_ok or (lambda r: True))
            for snapshot in (None, advanced):
                assert direct_path_vertices(
                    graph, src, dst, vertex_ok=vertex_ok, edge_ok=edge_ok,
                    snapshot=snapshot) == expected


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenarios(),
       picks=st.lists(st.integers(0, 50), max_size=12))
def test_induced_edge_ids_match_the_live_graph(scenario, picks):
    ancestry = (EdgeType.WAS_GENERATED_BY, EdgeType.USED)
    for graph, advanced in snapshots_by_phase(scenario):
        live = [r.vertex_id for r in graph.store.vertices()]
        members = {live[i % len(live)] for i in picks}
        expected = graph.induced_edge_ids(members)
        assert advanced.induced_edge_ids(members) == expected
        assert GraphSnapshot(graph).induced_edge_ids(members) == expected
        # Dead ids among the members select nothing and break nothing.
        dead = set(range(graph.store.vertex_capacity)) - set(live)
        assert advanced.induced_edge_ids(members | dead) == expected
        # Restricted snapshots leave the other types' slots unmaterialised.
        restricted = GraphSnapshot(graph, ancestry[:1])
        assert restricted.induced_edge_ids(members) == [
            edge_id for edge_id in expected
            if graph.edge(edge_id).edge_type is ancestry[0]
        ]
