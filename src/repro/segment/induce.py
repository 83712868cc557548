"""Induced-vertex computation for PgSeg: the four rule classes of Sec. III.A.2.

- :func:`direct_path_vertices`    — VC1, vertices on direct ancestry paths;
- :func:`similar_path_vertices`   — VC2, via an ``L(SimProv)`` solver;
- :func:`sibling_entities`        — VC3, entities generated by on-path activities;
- :func:`involved_agents`         — VC4, responsible agents.

All rule classes accept ``snapshot=`` — a
:class:`repro.store.snapshot.GraphSnapshot` — and then traverse the frozen
CSR list views (including the captured records for boundary predicates)
instead of the live store adjacency. The ``cflr`` baseline algorithm is the
one exception: it exists to be the slow reference and always reads the live
store.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.cfl.adjacency import ProvAdjacency
from repro.cfl.cflr_base import CflrSolver
from repro.cfl.grammar import simprov_normal_form
from repro.cfl.results import SimProvResult, SimProvStats
from repro.cfl.simprov_alg import SimProvAlg
from repro.cfl.simprov_tst import SimProvTst
from repro.errors import SegmentationError
from repro.model.graph import ProvenanceGraph
from repro.model.types import EdgeType, PATHABLE_EDGE_TYPES, VertexType
from repro.store.records import EdgeRecord, VertexRecord
from repro.store.snapshot import GraphSnapshot

VertexPredicate = Callable[[VertexRecord], bool]
EdgePredicate = Callable[[EdgeRecord], bool]

#: Algorithms selectable for the VC2 induction.
VC2_ALGORITHMS = ("simprov-tst", "simprov-alg", "cflr")


class _View:
    """Uniform read accessors over a live graph or a frozen snapshot."""

    __slots__ = ("out_edge_ids", "in_edge_ids", "out_neighbors",
                 "in_neighbors", "edge", "vertex", "vertex_type")

    def __init__(self, graph: ProvenanceGraph,
                 snapshot: GraphSnapshot | None):
        if snapshot is None:
            store = graph.store
            self.out_edge_ids = store.out_edge_ids
            self.in_edge_ids = store.in_edge_ids
            self.out_neighbors = store.out_neighbors
            self.in_neighbors = store.in_neighbors
            self.edge = store.edge
            self.vertex = store.vertex
            self.vertex_type = store.vertex_type
        else:
            self.out_edge_ids = (
                lambda v, et: snapshot.out_edge_lists(et)[v]
            )
            self.in_edge_ids = (
                lambda v, et: snapshot.in_edge_lists(et)[v]
            )
            self.out_neighbors = (
                lambda v, et: snapshot.out_lists(et)[v]
            )
            self.in_neighbors = (
                lambda v, et: snapshot.in_lists(et)[v]
            )
            self.edge = snapshot.edge
            self.vertex = snapshot.vertex
            self.vertex_type = snapshot.vertex_type


def _filtered_step(view: _View, vertex_id: int,
                   edge_types: Iterable[EdgeType], forward: bool,
                   vertex_ok: VertexPredicate | None,
                   edge_ok: EdgePredicate | None):
    if vertex_ok is None and edge_ok is None:
        # No boundary predicates: step over neighbor ids directly, skipping
        # the per-edge record fetch.
        for edge_type in edge_types:
            yield from (view.out_neighbors(vertex_id, edge_type) if forward
                        else view.in_neighbors(vertex_id, edge_type))
        return
    for edge_type in edge_types:
        edge_ids = (view.out_edge_ids(vertex_id, edge_type) if forward
                    else view.in_edge_ids(vertex_id, edge_type))
        for edge_id in edge_ids:
            record = view.edge(edge_id)
            if edge_ok is not None and not edge_ok(record):
                continue
            other = record.dst if forward else record.src
            if vertex_ok is not None and not vertex_ok(view.vertex(other)):
                continue
            yield other


def direct_path_vertices(graph: ProvenanceGraph,
                         src_ids: Iterable[int], dst_ids: Iterable[int],
                         edge_types: frozenset[EdgeType] = PATHABLE_EDGE_TYPES,
                         vertex_ok: VertexPredicate | None = None,
                         edge_ok: EdgePredicate | None = None,
                         snapshot: GraphSnapshot | None = None) -> set[int]:
    """VC1: vertices on any directed path from a ``Vdst`` to a ``Vsrc`` entity.

    Provenance paths run from descendants to ancestors (out-edges of the
    destination), so the computation is the classic two-sided reachability
    intersection: forward-reachable from Vdst ∩ backward-reachable to Vsrc,
    with the backward walk confined to the forward set. O(ancestry cone).
    """
    view = _View(graph, snapshot)
    src_list = [v for v in dict.fromkeys(src_ids)
                if vertex_ok is None or vertex_ok(view.vertex(v))]
    dst_list = [v for v in dict.fromkeys(dst_ids)
                if vertex_ok is None or vertex_ok(view.vertex(v))]
    if not src_list or not dst_list:
        return set()

    forward = set(dst_list)
    stack = list(dst_list)
    while stack:
        current = stack.pop()
        for nxt in _filtered_step(view, current, edge_types, True,
                                  vertex_ok, edge_ok):
            if nxt not in forward:
                forward.add(nxt)
                stack.append(nxt)

    # Every vertex between a reached Vsrc entity and Vdst is itself
    # forward-reachable, so the backward pass never needs to leave
    # ``forward`` — it costs the answer, not the descendant cone of Vsrc.
    on_path = {v for v in src_list if v in forward}
    stack = list(on_path)
    while stack:
        current = stack.pop()
        for nxt in _filtered_step(view, current, edge_types, False,
                                  vertex_ok, edge_ok):
            if nxt in forward and nxt not in on_path:
                on_path.add(nxt)
                stack.append(nxt)
    return on_path


def similar_path_vertices(graph: ProvenanceGraph,
                          src_ids: Iterable[int], dst_ids: Iterable[int],
                          algorithm: str = "simprov-tst",
                          vertex_ok: VertexPredicate | None = None,
                          edge_ok: EdgePredicate | None = None,
                          adjacency: ProvAdjacency | None = None,
                          snapshot: GraphSnapshot | None = None,
                          **solver_kwargs) -> SimProvResult:
    """VC2: vertices on ``L(SimProv)``-accepted paths, via a chosen solver.

    Args:
        algorithm: ``"simprov-tst"`` (default), ``"simprov-alg"``, or
            ``"cflr"`` (the general baseline, for comparison; it ignores
            ``snapshot`` and always reads the live store).
        solver_kwargs: forwarded to the solver (``set_impl``, ``prune``,
            ``activity_key``, budgets, ...).

    Raises:
        SegmentationError: on unknown algorithm names.
    """
    src_list = list(dict.fromkeys(src_ids))
    dst_list = list(dict.fromkeys(dst_ids))
    if algorithm == "simprov-alg":
        solver = SimProvAlg(graph, src_list, dst_list, vertex_ok=vertex_ok,
                            edge_ok=edge_ok, adjacency=adjacency,
                            snapshot=snapshot, **solver_kwargs)
        return solver.solve()
    if algorithm == "simprov-tst":
        solver = SimProvTst(graph, src_list, dst_list, vertex_ok=vertex_ok,
                            edge_ok=edge_ok, adjacency=adjacency,
                            snapshot=snapshot, **solver_kwargs)
        return solver.solve()
    if algorithm == "cflr":
        return _similar_via_cflr(graph, src_list, dst_list, vertex_ok,
                                 edge_ok, **solver_kwargs)
    raise SegmentationError(
        f"unknown VC2 algorithm {algorithm!r}; choose from {VC2_ALGORITHMS}"
    )


def _similar_via_cflr(graph: ProvenanceGraph, src_list: list[int],
                      dst_list: list[int],
                      vertex_ok: VertexPredicate | None,
                      edge_ok: EdgePredicate | None,
                      **solver_kwargs) -> SimProvResult:
    """Run CflrB on the Fig. 6 normal form and repackage as a SimProvResult."""
    for vertex_id in (*src_list, *dst_list):
        if not graph.is_entity(vertex_id):
            raise SegmentationError(f"query vertex {vertex_id} is not an entity")
    solver_kwargs.pop("prune", None)            # CflrB has no pruning
    solver_kwargs.pop("collect_pairs", None)
    grammar = simprov_normal_form(dst_list)
    solver = CflrSolver(graph, grammar, vertex_ok=vertex_ok, edge_ok=edge_ok,
                        **solver_kwargs)
    cflr_result = solver.solve()
    answer_pairs: set[tuple[int, int]] = set()
    sources: set[int] = set()
    similar: set[int] = set()
    src_set = set(src_list)
    for u, v in cflr_result.facts_of("Re"):
        if u in src_set:
            sources.add(u)
            similar.add(v)
            answer_pairs.add((u, v) if u <= v else (v, u))
        if v in src_set:
            sources.add(v)
            similar.add(u)
            answer_pairs.add((u, v) if u <= v else (v, u))
    roots = {(u, v) for u, v in cflr_result.facts_of("Re")
             if u in src_set or v in src_set}
    vertices = cflr_result.derivation_vertices(roots, "Re") if roots else set()
    stats = SimProvStats(
        facts_entity=cflr_result.stats.facts,
        worklist_pops=cflr_result.stats.worklist_pops,
        seconds=cflr_result.stats.seconds,
    )
    return SimProvResult(
        sources_matched=sources,
        similar_entities=similar,
        path_vertices=vertices,
        answer_pairs=answer_pairs,
        stats=stats,
    )


def sibling_entities(graph: ProvenanceGraph, core_vertices: Iterable[int],
                     vertex_ok: VertexPredicate | None = None,
                     edge_ok: EdgePredicate | None = None,
                     snapshot: GraphSnapshot | None = None) -> set[int]:
    """VC3: entities generated by activities in the core set but not in it.

    "The sibling entities generated together with Vdst may not be induced
    from directed paths" — e.g. the log file written by the same train run.
    """
    core = set(core_vertices)
    view = _View(graph, snapshot)
    unfiltered = vertex_ok is None and edge_ok is None
    siblings: set[int] = set()
    for vertex_id in core:
        if view.vertex_type(vertex_id) is not VertexType.ACTIVITY:
            continue
        if unfiltered:
            for entity in view.in_neighbors(vertex_id,
                                            EdgeType.WAS_GENERATED_BY):
                if entity not in core:
                    siblings.add(entity)
            continue
        for edge_id in view.in_edge_ids(vertex_id, EdgeType.WAS_GENERATED_BY):
            record = view.edge(edge_id)
            if edge_ok is not None and not edge_ok(record):
                continue
            entity = record.src
            if entity in core:
                continue
            if vertex_ok is not None and not vertex_ok(view.vertex(entity)):
                continue
            siblings.add(entity)
    return siblings


def involved_agents(graph: ProvenanceGraph, vertices: Iterable[int],
                    vertex_ok: VertexPredicate | None = None,
                    edge_ok: EdgePredicate | None = None,
                    snapshot: GraphSnapshot | None = None) -> set[int]:
    """VC4: agents responsible for any included vertex (via S or A edges)."""
    view = _View(graph, snapshot)
    unfiltered = vertex_ok is None and edge_ok is None
    agents: set[int] = set()
    for vertex_id in vertices:
        vertex_type = view.vertex_type(vertex_id)
        if vertex_type is VertexType.ACTIVITY:
            edge_type = EdgeType.WAS_ASSOCIATED_WITH
        elif vertex_type is VertexType.ENTITY:
            edge_type = EdgeType.WAS_ATTRIBUTED_TO
        else:
            continue
        if unfiltered:
            agents.update(view.out_neighbors(vertex_id, edge_type))
            continue
        for edge_id in view.out_edge_ids(vertex_id, edge_type):
            record = view.edge(edge_id)
            if edge_ok is not None and not edge_ok(record):
                continue
            if vertex_ok is not None and not vertex_ok(view.vertex(record.dst)):
                continue
            agents.add(record.dst)
    return agents


def expansion_vertices(graph: ProvenanceGraph, entities: Iterable[int],
                       k: int,
                       vertex_ok: VertexPredicate | None = None,
                       edge_ok: EdgePredicate | None = None,
                       snapshot: GraphSnapshot | None = None) -> set[int]:
    """Ancestry neighborhood ``k`` activities (2k edge hops) from ``entities``.

    Implements the Bx expansion of Sec. III.B.3: walk G then U edges (toward
    ancestors) for up to ``2k`` hops, collecting everything encountered.
    """
    view = _View(graph, snapshot)
    frontier = set()
    for vertex_id in entities:
        record = view.vertex(vertex_id)     # VertexNotFound on both paths
        if vertex_ok is None or vertex_ok(record):
            frontier.add(vertex_id)
    collected = set(frontier)
    for _hop in range(2 * k):
        next_frontier: set[int] = set()
        for vertex_id in frontier:
            for nxt in _filtered_step(
                view, vertex_id,
                (EdgeType.WAS_GENERATED_BY, EdgeType.USED),
                True, vertex_ok, edge_ok,
            ):
                if nxt not in collected:
                    collected.add(nxt)
                    next_frontier.add(nxt)
        frontier = next_frontier
        if not frontier:
            break
    return collected
