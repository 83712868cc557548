"""Convenience provenance queries on top of the core operators.

The classic provenance question kit (Sec. II.B "ancestors and descendants of
entities ... form the heart of provenance data"), packaged as one-call
helpers so downstream users don't reach for the raw traversals:

- :func:`lineage` — bounded ancestry closure with per-level structure;
- :func:`impacted` — the dual: everything downstream of an entity;
- :func:`blame` — agents responsible for an entity's ancestry (git-blame);
- :func:`derivation_chain` — the version history of one artifact snapshot;
- :func:`common_ancestors` — join point of two entities' histories.

Every helper accepts an optional ``snapshot=`` — a
:class:`repro.store.snapshot.GraphSnapshot` — and then reads the frozen CSR
instead of the live store (the walks its list views, :func:`blame` its
rows, gathered with numpy), which is both faster on repeated queries and
immune to concurrent appends. Results are identical to the
live-store path for the graph state the snapshot captured (the differential
suite asserts this).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cfl.adjacency import gather_rows
from repro.model.graph import ProvenanceGraph
from repro.model.types import EdgeType, VertexType
from repro.store.csr import VERTEX_TYPE_CODES
from repro.store.snapshot import GraphSnapshot

_ENTITY = VERTEX_TYPE_CODES[VertexType.ENTITY]
_ACTIVITY = VERTEX_TYPE_CODES[VertexType.ACTIVITY]


@dataclass(slots=True)
class LineageLevel:
    """One BFS level of a lineage walk."""

    depth: int
    activities: list[int] = field(default_factory=list)
    entities: list[int] = field(default_factory=list)


@dataclass(slots=True)
class Lineage:
    """Result of a lineage/impact walk.

    Attributes:
        root: the queried entity.
        levels: alternating activity/entity BFS levels, nearest first.
        vertices: everything reached (root included).
    """

    root: int
    levels: list[LineageLevel] = field(default_factory=list)
    vertices: set[int] = field(default_factory=set)

    @property
    def depth(self) -> int:
        """Number of activity levels walked."""
        return len(self.levels)


def lineage(graph: ProvenanceGraph, entity: int,
            max_depth: int | None = None,
            snapshot: GraphSnapshot | None = None) -> Lineage:
    """Ancestry closure of an entity, level by level (via G then U edges)."""
    return _walk(graph, entity, upstream=True, max_depth=max_depth,
                 snapshot=snapshot)


def impacted(graph: ProvenanceGraph, entity: int,
             max_depth: int | None = None,
             snapshot: GraphSnapshot | None = None) -> Lineage:
    """Everything derived (transitively) from an entity — the impact set."""
    return _walk(graph, entity, upstream=False, max_depth=max_depth,
                 snapshot=snapshot)


def _walk(graph: ProvenanceGraph, entity: int, upstream: bool,
          max_depth: int | None,
          snapshot: GraphSnapshot | None = None) -> Lineage:
    if snapshot is not None:
        if not snapshot.is_entity(entity):
            raise ValueError(f"vertex {entity} is not an entity")
        gen_out = snapshot.out_lists(EdgeType.WAS_GENERATED_BY)
        gen_in = snapshot.in_lists(EdgeType.WAS_GENERATED_BY)
        used_out = snapshot.out_lists(EdgeType.USED)
        used_in = snapshot.in_lists(EdgeType.USED)
        if upstream:
            step_activities = gen_out.__getitem__
            step_entities = used_out.__getitem__
        else:
            step_activities = used_in.__getitem__
            step_entities = gen_in.__getitem__
    else:
        if not graph.is_entity(entity):
            raise ValueError(f"vertex {entity} is not an entity")
        step_activities = (graph.generating_activities if upstream
                           else graph.using_activities)
        step_entities = (graph.used_entities if upstream
                         else graph.generated_entities)

    result = Lineage(root=entity, vertices={entity})
    frontier = [entity]
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        activities: list[int] = []
        for e in frontier:
            for a in step_activities(e):
                if a not in result.vertices:
                    result.vertices.add(a)
                    activities.append(a)
        entities: list[int] = []
        for a in activities:
            for e in step_entities(a):
                if e not in result.vertices:
                    result.vertices.add(e)
                    entities.append(e)
        if not activities:
            break
        result.levels.append(LineageLevel(depth, activities, entities))
        frontier = entities
    return result


def blame(graph: ProvenanceGraph, entity: int,
          max_depth: int | None = None,
          snapshot: GraphSnapshot | None = None,
          ancestry: Lineage | None = None) -> dict[int, set[int]]:
    """Agents responsible for an entity's ancestry.

    Returns agent id -> the ancestry vertices (activities/entities) that
    agent is responsible for, like ``git blame`` over the derivation.

    Args:
        ancestry: a precomputed :func:`lineage` result for ``entity`` (and
            the same ``max_depth``), skipping the internal walk — callers
            that already hold the closure (e.g. the session's epoch caches)
            pay for it once.
    """
    if ancestry is None:
        ancestry = lineage(graph, entity, max_depth, snapshot=snapshot)
    if snapshot is not None:
        return _blame_rows(snapshot, ancestry.vertices)
    report: dict[int, set[int]] = {}
    for vertex_id in ancestry.vertices:
        for agent in graph.agents_of(vertex_id):
            report.setdefault(agent, set()).add(vertex_id)
    return report


def _blame_rows(snapshot: GraphSnapshot,
                vertices: set[int]) -> dict[int, set[int]]:
    """:func:`blame`'s report from the snapshot's CSR rows: the S rows of
    the activities and the A rows of the entities, grouped by agent."""
    ids = np.fromiter(vertices, np.int64, len(vertices))
    codes = snapshot.vertex_codes[ids]
    agents, owners = [], []
    for code, edge_type in ((_ACTIVITY, EdgeType.WAS_ASSOCIATED_WITH),
                            (_ENTITY, EdgeType.WAS_ATTRIBUTED_TO)):
        keys = ids[codes == code]
        targets, counts = gather_rows(snapshot.forward[edge_type], keys)
        agents.append(targets)
        owners.append(np.repeat(keys, counts))
    agents, owners = np.concatenate(agents), np.concatenate(owners)
    order = np.argsort(agents, kind="stable")
    keys, starts = np.unique(agents[order], return_index=True)
    return {agent: set(group.tolist()) for agent, group
            in zip(keys.tolist(), np.split(owners[order], starts[1:]))}


def derivation_chain(graph: ProvenanceGraph, entity: int,
                     snapshot: GraphSnapshot | None = None) -> list[int]:
    """Follow ``wasDerivedFrom`` to the original snapshot (oldest last)."""
    if snapshot is not None:
        derived = snapshot.out_lists(EdgeType.WAS_DERIVED_FROM)
        sources_of = derived.__getitem__
    else:
        sources_of = graph.derived_sources
    chain = [entity]
    seen = {entity}
    current = entity
    while True:
        parents = sources_of(current)
        nxt = None
        for parent in parents:
            if parent not in seen:
                nxt = parent
                break
        if nxt is None:
            return chain
        chain.append(nxt)
        seen.add(nxt)
        current = nxt


def common_ancestors(graph: ProvenanceGraph, left: int, right: int,
                     snapshot: GraphSnapshot | None = None) -> set[int]:
    """Entities/activities in both ancestry closures (the join points)."""
    left_set = lineage(graph, left, snapshot=snapshot).vertices
    right_set = lineage(graph, right, snapshot=snapshot).vertices
    return (left_set & right_set) - {left, right}


def entity_timeline(graph: ProvenanceGraph, name: str,
                    snapshot: GraphSnapshot | None = None) -> list[int]:
    """All entities named ``name`` in creation order (the artifact view)."""
    if snapshot is not None:
        matches = [
            vertex_id for vertex_id in snapshot.vertex_ids(VertexType.ENTITY)
            if snapshot.vertex(vertex_id).get("name") == name
        ]
        matches.sort(key=snapshot.order_of)
        return matches
    matches = [
        record.vertex_id
        for record in graph.store.vertices(VertexType.ENTITY)
        if record.get("name") == name
    ]
    matches.sort(key=graph.store.order_of)
    return matches
