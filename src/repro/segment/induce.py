"""Induced-vertex computation for PgSeg: the four rule classes of Sec. III.A.2.

- :func:`direct_path_vertices`    — VC1, vertices on direct ancestry paths;
- :func:`similar_path_vertices`   — VC2, via an ``L(SimProv)`` solver;
- :func:`sibling_entities`        — VC3, entities generated by on-path activities;
- :func:`involved_agents`         — VC4, responsible agents.

All rule classes accept ``snapshot=`` — a
:class:`repro.store.snapshot.GraphSnapshot` — and then gather the frozen
``forward`` / ``backward`` CSR rows with numpy instead of walking the live
store one vertex at a time: VC1 and the Bx expansion are level-synchronous
closures, VC3 and VC4 one gather each. Boundary predicates are applied to
the gathered (edge, far endpoint) pairs only, by the same rule as the
live walk (:func:`_admit`). The ``cflr`` baseline algorithm is the one
exception: it exists to be the slow reference and always reads the live
store.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.cfl.adjacency import ProvAdjacency, distinct, row_positions
from repro.cfl.cflr_base import CflrSolver
from repro.cfl.grammar import simprov_normal_form
from repro.cfl.results import SimProvResult, SimProvStats
from repro.cfl.simprov_alg import SimProvAlg
from repro.cfl.simprov_tst import SimProvTst
from repro.errors import SegmentationError
from repro.model.graph import ProvenanceGraph
from repro.model.types import EdgeType, PATHABLE_EDGE_TYPES, VertexType
from repro.store.csr import VERTEX_TYPE_CODES, CsrAdjacency
from repro.store.records import EdgeRecord, VertexRecord
from repro.store.snapshot import GraphSnapshot
from repro.store.store import PropertyGraphStore

VertexPredicate = Callable[[VertexRecord], bool]
EdgePredicate = Callable[[EdgeRecord], bool]

#: Algorithms selectable for the VC2 induction.
VC2_ALGORITHMS = ("simprov-tst", "simprov-alg", "cflr")

_ENTITY = VERTEX_TYPE_CODES[VertexType.ENTITY]
_ACTIVITY = VERTEX_TYPE_CODES[VertexType.ACTIVITY]


def _filtered_step(store: PropertyGraphStore, vertex_id: int,
                   edge_types: Iterable[EdgeType], forward: bool,
                   vertex_ok: VertexPredicate | None,
                   edge_ok: EdgePredicate | None):
    """The live store's neighbors of one vertex that pass the predicates."""
    if vertex_ok is None and edge_ok is None:
        # No boundary predicates: step over neighbor ids directly, skipping
        # the per-edge record fetch.
        for edge_type in edge_types:
            yield from (store.out_neighbors(vertex_id, edge_type) if forward
                        else store.in_neighbors(vertex_id, edge_type))
        return
    for edge_type in edge_types:
        edge_ids = (store.out_edge_ids(vertex_id, edge_type) if forward
                    else store.in_edge_ids(vertex_id, edge_type))
        for edge_id in edge_ids:
            record = store.edge(edge_id)
            if edge_ok is not None and not edge_ok(record):
                continue
            other = record.dst if forward else record.src
            if vertex_ok is not None and not vertex_ok(store.vertex(other)):
                continue
            yield other


def _gather(rows: Iterable[tuple[CsrAdjacency, np.ndarray]],
            ) -> tuple[np.ndarray, np.ndarray]:
    """Edge ids and far endpoints of the given rows of each CSR."""
    edge_ids, far = [], []
    for csr, keys in rows:
        positions, _ = row_positions(csr, keys)
        edge_ids.append(csr.edge_ids[positions])
        far.append(csr.indices[positions])
    return np.concatenate(edge_ids), np.concatenate(far)


def _admit(snapshot: GraphSnapshot, edge_ids: np.ndarray, far: np.ndarray,
           vertex_ok: VertexPredicate | None,
           edge_ok: EdgePredicate | None) -> np.ndarray:
    """The ``far`` endpoints whose gathered pair passes the predicates.

    :func:`_filtered_step`'s rule: keep a pair when ``edge_ok(edge)`` and
    ``vertex_ok(far endpoint)`` hold. It is called only on pairs a rule
    touches, never on the whole graph, and the row's own vertex is not
    tested.
    """
    if (vertex_ok is None and edge_ok is None) or not far.size:
        return far
    edge, vertex = snapshot.edge, snapshot.vertex
    keep = np.fromiter(
        ((edge_ok is None or edge_ok(edge(edge_id)))
         and (vertex_ok is None or vertex_ok(vertex(other)))
         for edge_id, other in zip(edge_ids.tolist(), far.tolist())),
        dtype=bool, count=len(far))
    return far[keep]


def _reach(snapshot: GraphSnapshot, roots: np.ndarray,
           rows: Iterable[CsrAdjacency],
           vertex_ok: VertexPredicate | None, edge_ok: EdgePredicate | None,
           within: np.ndarray | None = None,
           levels: int | None = None) -> np.ndarray:
    """Mask of ``roots`` and everything reached from them along ``rows``.

    Level-synchronous: each level gathers the frontier's rows, keeps the
    far endpoints not yet seen (and inside the ``within`` mask, when
    given) that :func:`_admit` lets through, and dedupes them into the
    next frontier. ``levels`` caps the number of levels. A deep chain pays
    numpy's fixed call cost once per level.
    """
    rows = tuple(rows)
    seen = np.zeros(snapshot.n, dtype=bool)
    seen[roots] = True
    stamp = np.empty(snapshot.n, dtype=np.int64)
    frontier, level = roots, 0
    while frontier.size and (levels is None or level < levels):
        edge_ids, far = _gather((csr, frontier) for csr in rows)
        fresh = ~seen[far]
        if within is not None:
            fresh &= within[far]
        far = _admit(snapshot, edge_ids[fresh], far[fresh], vertex_ok,
                     edge_ok)
        frontier = distinct(far, stamp)
        seen[frontier] = True
        level += 1
    return seen


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
    vertex = graph.store.vertex if snapshot is None else snapshot.vertex
    src_list = [v for v in dict.fromkeys(src_ids)
                if vertex_ok is None or vertex_ok(vertex(v))]
    dst_list = [v for v in dict.fromkeys(dst_ids)
                if vertex_ok is None or vertex_ok(vertex(v))]
    if not src_list or not dst_list:
        return set()

    if snapshot is not None:
        forward = _reach(snapshot, np.array(dst_list, dtype=np.int64),
                         (snapshot.forward[et] for et in edge_types),
                         vertex_ok, edge_ok)
        sources = np.array(src_list, dtype=np.int64)
        on_path = _reach(snapshot, sources[forward[sources]],
                         (snapshot.backward[et] for et in edge_types),
                         vertex_ok, edge_ok, within=forward)
        return set(np.flatnonzero(on_path).tolist())

    store = graph.store
    forward = set(dst_list)
    stack = list(dst_list)
    while stack:
        current = stack.pop()
        for nxt in _filtered_step(store, current, edge_types, True,
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
        for nxt in _filtered_step(store, current, edge_types, False,
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
    if snapshot is not None:
        core_ids = np.fromiter(core, np.int64, len(core))
        in_core = np.zeros(snapshot.n, dtype=bool)
        in_core[core_ids] = True
        activities = core_ids[snapshot.vertex_codes[core_ids] == _ACTIVITY]
        edge_ids, entities = _gather(
            [(snapshot.backward[EdgeType.WAS_GENERATED_BY], activities)])
        outside = ~in_core[entities]
        return set(_admit(snapshot, edge_ids[outside], entities[outside],
                          vertex_ok, edge_ok).tolist())
    store = graph.store
    siblings: set[int] = set()
    for vertex_id in core:
        if store.vertex_type(vertex_id) is VertexType.ACTIVITY:
            siblings.update(
                entity for entity in _filtered_step(
                    store, vertex_id, (EdgeType.WAS_GENERATED_BY,), False,
                    vertex_ok, edge_ok)
                if entity not in core)
    return siblings


def involved_agents(graph: ProvenanceGraph, vertices: Iterable[int],
                    vertex_ok: VertexPredicate | None = None,
                    edge_ok: EdgePredicate | None = None,
                    snapshot: GraphSnapshot | None = None) -> set[int]:
    """VC4: agents responsible for any included vertex (via S or A edges)."""
    if snapshot is not None:
        ids = np.fromiter(vertices, np.int64)
        codes = snapshot.vertex_codes[ids]
        edge_ids, agents = _gather([
            (snapshot.forward[EdgeType.WAS_ASSOCIATED_WITH],
             ids[codes == _ACTIVITY]),
            (snapshot.forward[EdgeType.WAS_ATTRIBUTED_TO],
             ids[codes == _ENTITY]),
        ])
        return set(_admit(snapshot, edge_ids, agents, vertex_ok,
                          edge_ok).tolist())
    store = graph.store
    agents: set[int] = set()
    for vertex_id in vertices:
        vertex_type = store.vertex_type(vertex_id)
        if vertex_type is VertexType.ACTIVITY:
            edge_type = EdgeType.WAS_ASSOCIATED_WITH
        elif vertex_type is VertexType.ENTITY:
            edge_type = EdgeType.WAS_ATTRIBUTED_TO
        else:
            continue
        agents.update(_filtered_step(store, vertex_id, (edge_type,), True,
                                     vertex_ok, edge_ok))
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
    vertex = graph.store.vertex if snapshot is None else snapshot.vertex
    frontier = set()
    for vertex_id in entities:
        record = vertex(vertex_id)          # VertexNotFound on both paths
        if vertex_ok is None or vertex_ok(record):
            frontier.add(vertex_id)
    steps = (EdgeType.WAS_GENERATED_BY, EdgeType.USED)
    if snapshot is not None:
        reached = _reach(snapshot,
                         np.fromiter(frontier, np.int64, len(frontier)),
                         (snapshot.forward[et] for et in steps),
                         vertex_ok, edge_ok, levels=2 * k)
        return set(np.flatnonzero(reached).tolist())
    store = graph.store
    collected = set(frontier)
    for _hop in range(2 * k):
        next_frontier: set[int] = set()
        for vertex_id in frontier:
            for nxt in _filtered_step(store, vertex_id, steps, True,
                                      vertex_ok, edge_ok):
                if nxt not in collected:
                    collected.add(nxt)
                    next_frontier.add(nxt)
        frontier = next_frontier
        if not frontier:
            break
    return collected
