"""The PgSeg segmentation operator (Sec. III).

``PgSeg(Vsrc, Vdst, B)`` induces a subgraph showing how the destination
entities were generated from the source entities:

- ``VC1`` — vertices on direct ancestry paths (``direct_path_vertices``);
- ``VC2`` — vertices on ``L(SimProv)``-similar paths (CFLR solvers);
- ``VC3`` — sibling entities generated by on-path activities;
- ``VC4`` — involved agents;
- plus the boundary criteria's expansions, minus its exclusions.

Evaluation is two-step (Sec. III.B.1): *induce* computes the segment;
*adjust* applies boundary criteria interactively to a segment the caller
already holds — exclusions as filters, expansions as backend traversals.
Exclusion criteria may alternatively be pushed into the induction itself
(``inline_boundaries``, Appendix C), which is how Q1/Q2 of the paper
exclude edge types.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Hashable, Iterable, Iterator

import networkx as nx

from repro.errors import SegmentationError
from repro.model.graph import ProvenanceGraph
from repro.model.types import EdgeType, PATHABLE_EDGE_TYPES, VertexType
from repro.segment.boundary import BoundaryCriteria
from repro.segment.induce import (
    VC2_ALGORITHMS,
    direct_path_vertices,
    expansion_vertices,
    involved_agents,
    similar_path_vertices,
    sibling_entities,
)
from repro.store.records import EdgeRecord
from repro.store.snapshot import GraphSnapshot


#: A property-constrained similarity key: property names, or a callable.
PropertyKey = tuple[str, ...] | Callable[[int], Hashable]


def _add_tag(categories: dict[int, set[str]], ids: Iterable[int],
             category: str) -> None:
    """Tag ``ids`` with ``category``, creating entries as needed.

    Get-then-add rather than ``setdefault(v, set())``, which builds a
    throwaway set for every vertex that already has one.
    """
    for vertex_id in ids:
        tags = categories.get(vertex_id)
        if tags is None:
            categories[vertex_id] = {category}
        else:
            tags.add(category)


@dataclass(frozen=True)
class PgSegQuery:
    """A PgSeg query: ``(Vsrc, Vdst, B)`` plus evaluation options.

    Attributes:
        src / dst: source and destination entity ids (may overlap).
        boundaries: boundary criteria; None means unbounded.
        algorithm: VC2 solver (``simprov-tst`` | ``simprov-alg`` | ``cflr``).
        set_impl: fact-set implementation for the solvers.
        prune: enable early stopping in the SimProv solvers. A no-op
            when the graph's ancestry is not order-monotone (a cycle, an
            ill-typed edge, an old activity using a newer entity), where
            early stop could drop answers.
        activity_key / entity_key: property-constrained similarity;
            requires ``algorithm="simprov-alg"``. A tuple of property
            names keys each vertex by its tuple of those values (the
            declarative form, which crosses the wire); a callable
            ``vertex id -> hashable`` is accepted in-process only.
        include_direct/similar/siblings/agents: toggle the four rule classes.
        direct_edge_types: edge types allowed on direct paths.
    """

    src: tuple[int, ...]
    dst: tuple[int, ...]
    boundaries: BoundaryCriteria | None = None
    algorithm: str = "simprov-tst"
    set_impl: str = "set"
    prune: bool = True
    activity_key: PropertyKey | None = None
    entity_key: PropertyKey | None = None
    include_direct: bool = True
    include_similar: bool = True
    include_siblings: bool = True
    include_agents: bool = True
    direct_edge_types: frozenset[EdgeType] = PATHABLE_EDGE_TYPES

    def __post_init__(self) -> None:
        if not self.src or not self.dst:
            raise SegmentationError("Vsrc and Vdst must be non-empty")
        if self.algorithm not in VC2_ALGORITHMS:
            raise SegmentationError(
                f"unknown algorithm {self.algorithm!r}; "
                f"choose from {VC2_ALGORITHMS}"
            )
        for name in ("activity_key", "entity_key"):
            key = getattr(self, name)
            if key is None:
                continue
            if not callable(key) and not (
                    isinstance(key, tuple) and key
                    and all(isinstance(prop, str) for prop in key)):
                raise SegmentationError(
                    f"{name} must be a callable or a non-empty tuple of "
                    f"property names, got {key!r}")
            if self.algorithm != "simprov-alg":
                raise SegmentationError(
                    f"{name} requires algorithm 'simprov-alg', "
                    f"not {self.algorithm!r}")

    @property
    def is_bare(self) -> bool:
        """No boundaries and no keys: membership reads structure only.

        The one bareness test — serving decides by it which cache rule
        an answer gets and whether a shard may answer it.
        """
        return (self.boundaries is None and self.activity_key is None
                and self.entity_key is None)


#: Category tags attached to segment vertices.
CATEGORY_SRC = "src"
CATEGORY_DST = "dst"
CATEGORY_DIRECT = "C1"
CATEGORY_SIMILAR = "C2"
CATEGORY_SIBLING = "C3"
CATEGORY_AGENT = "C4"
CATEGORY_EXPANDED = "Bx"


class Segment:
    """A PgSeg result: ``S(VS, ES) ⊆ G`` plus induction bookkeeping.

    Attributes:
        graph: the underlying provenance graph.
        vertices: the induced vertex set ``VS``.
        edge_ids: ids of the induced edges ``ES = E ∩ (VS × VS)`` (after
            edge exclusions).
        categories: vertex id -> set of category tags explaining *why* each
            vertex is present.
    """

    def __init__(self, graph: ProvenanceGraph, vertices: Iterable[int],
                 edge_ids: Iterable[int] | None = None,
                 categories: dict[int, set[str]] | None = None,
                 query: PgSegQuery | None = None):
        self.graph = graph
        self.vertices: set[int] = set(vertices)
        if edge_ids is None:
            self.edge_ids = graph.induced_edge_ids(self.vertices)
        else:
            self.edge_ids = sorted(set(edge_ids))
        self.categories = categories if categories is not None else {
            v: set() for v in self.vertices
        }
        self.query = query

    # ------------------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        """|VS|."""
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        """|ES|."""
        return len(self.edge_ids)

    def edges(self) -> Iterator[EdgeRecord]:
        """Yield the induced edge records."""
        for edge_id in self.edge_ids:
            yield self.graph.edge(edge_id)

    def vertices_of_type(self, vertex_type: VertexType) -> set[int]:
        """Segment vertices of one PROV type."""
        return {
            v for v in self.vertices
            if self.graph.store.vertex_type(v) is vertex_type
        }

    def vertices_in_category(self, category: str) -> set[int]:
        """Segment vertices carrying one category tag."""
        return {v for v, tags in self.categories.items() if category in tags}

    def tag(self, vertices: Iterable[int], category: str) -> None:
        """Attach a category tag to vertices (creating entries as needed)."""
        _add_tag(self.categories, vertices, category)

    # ------------------------------------------------------------------

    def is_connected(self) -> bool:
        """True when the segment is weakly connected (single component)."""
        if not self.vertices:
            return False
        adjacency: dict[int, list[int]] = {v: [] for v in self.vertices}
        for record in self.edges():
            adjacency[record.src].append(record.dst)
            adjacency[record.dst].append(record.src)
        seen: set[int] = set()
        stack = [next(iter(self.vertices))]
        seen.add(stack[0])
        while stack:
            current = stack.pop()
            for nxt in adjacency[current]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == len(self.vertices)

    def to_networkx(self) -> "nx.MultiDiGraph":
        """Export as a networkx MultiDiGraph (types/properties as attributes)."""
        out = nx.MultiDiGraph()
        for vertex_id in sorted(self.vertices):
            record = self.graph.vertex(vertex_id)
            out.add_node(
                vertex_id,
                vertex_type=record.vertex_type.label,
                categories=sorted(self.categories.get(vertex_id, ())),
                **record.properties,
            )
        for record in self.edges():
            out.add_edge(record.src, record.dst,
                         edge_type=record.edge_type.label,
                         **record.properties)
        return out

    def to_dot(self, name: str = "segment") -> str:
        """Graphviz DOT rendering with induction-category coloring.

        Sources are green, destinations red, direct-path vertices blue,
        similar-path vertices cyan, siblings yellow, agents gray, expansions
        dashed — so a rendered segment explains *why* each vertex is there.
        """
        palette = {
            CATEGORY_SRC: "palegreen",
            CATEGORY_DST: "lightcoral",
            CATEGORY_DIRECT: "lightblue",
            CATEGORY_SIMILAR: "lightcyan",
            CATEGORY_SIBLING: "lightyellow",
            CATEGORY_AGENT: "lightgray",
        }
        shapes = {
            VertexType.ENTITY: "ellipse",
            VertexType.ACTIVITY: "box",
            VertexType.AGENT: "house",
        }
        precedence = (CATEGORY_SRC, CATEGORY_DST, CATEGORY_DIRECT,
                      CATEGORY_SIBLING, CATEGORY_AGENT, CATEGORY_SIMILAR)
        lines = [f"digraph {name} {{", "  rankdir=RL;"]
        for vertex_id in sorted(self.vertices):
            record = self.graph.vertex(vertex_id)
            tags = self.categories.get(vertex_id, set())
            color = next(
                (palette[c] for c in precedence if c in tags), "white"
            )
            style = "filled"
            if CATEGORY_EXPANDED in tags and not (tags & set(palette)):
                style = "filled,dashed"
                color = "whitesmoke"
            label = record.display_name().replace('"', r"\"")
            lines.append(
                f'  n{vertex_id} [shape={shapes[record.vertex_type]}, '
                f'style="{style}", fillcolor="{color}", label="{label}"];'
            )
        for record in self.edges():
            lines.append(
                f'  n{record.src} -> n{record.dst} [label="{record.label}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"

    def describe(self) -> str:
        """Human-readable multi-line summary (names, types, categories)."""
        lines = [
            f"Segment: {self.vertex_count} vertices, {self.edge_count} edges"
        ]
        for vertex_id in sorted(self.vertices):
            record = self.graph.vertex(vertex_id)
            tags = ",".join(sorted(self.categories.get(vertex_id, ()))) or "-"
            lines.append(
                f"  [{record.label}] {record.display_name()} "
                f"(id={vertex_id}, {tags})"
            )
        for record in self.edges():
            lines.append(f"  {record.src} -{record.label}-> {record.dst}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Segment(|V|={self.vertex_count}, |E|={self.edge_count})"


class PgSegOperator:
    """Evaluates PgSeg queries over one provenance graph.

    The operator memoizes nothing: every :meth:`evaluate` induces afresh.
    The interactive loop (Sec. III.B.3) re-filters instead of re-inducing
    by calling :meth:`adjust` on a segment the caller holds; callers that
    re-ask whole queries (the session, the replica workers) keep answers
    in a :class:`repro.store.delta.ResultCache`.

    Args:
        graph: the provenance graph to segment.
        snapshot: optional :class:`GraphSnapshot` enabling the frozen-CSR
            fast path for every induction rule. Pass ``True`` to have the
            operator capture (and, on mutation, recapture) one itself. The
            snapshot is epoch-checked on every :meth:`evaluate`, so results
            always reflect the current store.
    """

    def __init__(self, graph: ProvenanceGraph,
                 snapshot: GraphSnapshot | bool | None = None):
        self.graph = graph
        if snapshot is True:
            snapshot = GraphSnapshot(graph)
        self.snapshot: GraphSnapshot | None = snapshot or None

    # ------------------------------------------------------------------

    def _sync_with_store(self) -> None:
        """Advance the snapshot after a store mutation."""
        if self.snapshot is not None \
                and self.snapshot.epoch != self.graph.store.epoch:
            # Incremental recapture: patch the stale snapshot forward via
            # the store's delta log (full rebuild past the crossover).
            self.snapshot = self.snapshot.advance(self.graph)

    def evaluate(self, query: PgSegQuery,
                 inline_boundaries: bool = True) -> Segment:
        """Run induce (+ adjust) and return the segment.

        Args:
            inline_boundaries: when True (default) the exclusion criteria are
                pushed into the induction itself (excluded elements act as
                ε-labels); when False, induction ignores exclusions and the
                adjust step filters the induced segment afterwards — the
                paper's interactive mode.
        """
        self._sync_with_store()
        boundaries = query.boundaries
        if boundaries is None or inline_boundaries \
                or not boundaries.has_exclusions:
            segment = self._induce(query, boundaries)
        else:
            bare = replace(query, boundaries=None)
            segment = self._filter(self._induce(bare, None), boundaries)
        if boundaries is not None and boundaries.expansions:
            segment = self._expand(segment, boundaries)
        return segment

    def adjust(self, segment: Segment,
               boundaries: BoundaryCriteria) -> Segment:
        """Apply boundary criteria to an existing segment (interactive step)."""
        adjusted = self._filter(segment, boundaries)
        if boundaries.expansions:
            adjusted = self._expand(adjusted, boundaries)
        return adjusted

    # ------------------------------------------------------------------

    def _induce(self, query: PgSegQuery,
                boundaries: BoundaryCriteria | None) -> Segment:
        graph = self.graph
        snapshot = self.snapshot
        is_entity = graph.is_entity if snapshot is None else snapshot.is_entity
        for vertex_id in (*query.src, *query.dst):
            if not is_entity(vertex_id):
                raise SegmentationError(
                    f"query vertex {vertex_id} is not an entity"
                )
        vertex_ok = boundaries.vertex_ok if boundaries is not None else None
        edge_ok = boundaries.edge_ok if boundaries is not None else None

        categories: dict[int, set[str]] = {}
        tag = partial(_add_tag, categories)

        tag(query.src, CATEGORY_SRC)
        tag(query.dst, CATEGORY_DST)

        vc1: set[int] = set()
        if query.include_direct:
            vc1 = direct_path_vertices(
                graph, query.src, query.dst, query.direct_edge_types,
                vertex_ok, edge_ok, snapshot=snapshot,
            )
            tag(vc1, CATEGORY_DIRECT)

        vc2: set[int] = set()
        if query.include_similar:
            solver_kwargs: dict[str, Any] = {"set_impl": query.set_impl}
            if query.algorithm != "cflr":
                solver_kwargs["prune"] = query.prune
                solver_kwargs["activity_key"] = self._key(query.activity_key)
                solver_kwargs["entity_key"] = self._key(query.entity_key)
            result = similar_path_vertices(
                graph, query.src, query.dst, query.algorithm,
                vertex_ok, edge_ok, snapshot=snapshot, **solver_kwargs,
            )
            vc2 = result.path_vertices
            tag(vc2, CATEGORY_SIMILAR)

        on_path = vc1 | vc2
        vc3: set[int] = set()
        if query.include_siblings:
            vc3 = sibling_entities(graph, on_path, vertex_ok, edge_ok,
                                   snapshot=snapshot)
            tag(vc3, CATEGORY_SIBLING)

        members = set(query.src) | set(query.dst) | on_path | vc3
        vc4: set[int] = set()
        if query.include_agents:
            vc4 = involved_agents(graph, members, vertex_ok, edge_ok,
                                  snapshot=snapshot)
            tag(vc4, CATEGORY_AGENT)
        members |= vc4

        edge_ids = self._induced_edges(members, edge_ok)
        return Segment(graph, members, edge_ids, categories, query)

    def _key(self, key: PropertyKey | None,
             ) -> Callable[[int], Hashable] | None:
        """A query key as the solver's ``vertex id -> hashable`` function:
        a tuple of property names reads this operator's own graph."""
        if not isinstance(key, tuple):
            return key
        vertex = self.graph.vertex if self.snapshot is None \
            else self.snapshot.vertex
        return lambda vertex_id: tuple(
            vertex(vertex_id).properties.get(name) for name in key)

    def _induced_edges(self, members: set[int],
                       edge_ok) -> list[int]:
        source = self.graph if self.snapshot is None else self.snapshot
        candidates = source.induced_edge_ids(members)
        if edge_ok is None:
            return candidates
        return [edge_id for edge_id in candidates
                if edge_ok(source.edge(edge_id))]

    def _filter(self, segment: Segment,
                boundaries: BoundaryCriteria) -> Segment:
        graph = self.graph
        query = segment.query
        protected: set[int] = set()
        if query is not None:
            protected = set(query.src) | set(query.dst)
        kept = {
            v for v in segment.vertices
            if v in protected or boundaries.vertex_ok(graph.vertex(v))
        }
        edge_ids = [
            edge_id for edge_id in segment.edge_ids
            if boundaries.edge_ok(graph.edge(edge_id))
            and graph.edge(edge_id).src in kept
            and graph.edge(edge_id).dst in kept
        ]
        categories = {
            v: set(segment.categories.get(v, set())) for v in kept
        }
        return Segment(graph, kept, edge_ids, categories, query)

    def _expand(self, segment: Segment,
                boundaries: BoundaryCriteria) -> Segment:
        graph = self.graph
        vertex_ok = boundaries.vertex_ok if boundaries.has_exclusions else None
        edge_ok = boundaries.edge_ok if boundaries.has_exclusions else None
        vertices = set(segment.vertices)
        categories = {v: set(tags) for v, tags in segment.categories.items()}
        for expansion in boundaries.expansions:
            grown = expansion_vertices(
                graph, expansion.entities, expansion.k, vertex_ok, edge_ok,
                snapshot=self.snapshot,
            )
            _add_tag(categories, grown - vertices, CATEGORY_EXPANDED)
            vertices |= grown
        edge_ids = self._induced_edges(vertices, edge_ok)
        return Segment(graph, vertices, edge_ids, categories, segment.query)


def segment(graph: ProvenanceGraph, src: Iterable[int], dst: Iterable[int],
            boundaries: BoundaryCriteria | None = None,
            snapshot: GraphSnapshot | None = None,
            **options: Any) -> Segment:
    """One-shot convenience: build the query, evaluate, return the segment."""
    query = PgSegQuery(
        src=tuple(src), dst=tuple(dst), boundaries=boundaries, **options
    )
    return PgSegOperator(graph, snapshot=snapshot).evaluate(query)
