"""Reference implementations the PgSum kernels are tested against.

Nothing here is imported by ``src/``. These are the definitions written out
as directly as possible — slow, and obviously what the paper says:

- :func:`oracle_simulation_preorder`: the greatest fixpoint, computed by
  deleting violating pairs from ``{(u, v) : ρ(u) = ρ(v)}`` until none is left;
- :func:`oracle_vertex_classes`: ``≡kκ`` with the k-hop neighbourhood as a
  ``networkx.MultiDiGraph``, a sha256 Weisfeiler–Leman certificate and VF2
  (the implementation ``provtype.py`` shipped until PR 22);
- :func:`oracle_pgsum_partition`: the Lemma-5 merge schedule, with both
  preorders recomputed from scratch on every round's quotient.
"""

from __future__ import annotations

import hashlib
from typing import Hashable, Sequence

import networkx as nx
from networkx.algorithms import isomorphism as nx_iso

from repro.segment.pgseg import Segment
from repro.summarize.aggregation import PropertyAggregation
from repro.summarize.provtype import ClassAssignment

Partition = set[frozenset]


def as_partition(groups) -> Partition:
    """A partition as a set of frozensets, for order-free comparison."""
    return {frozenset(group) for group in groups}


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def oracle_simulation_preorder(labels: Sequence[Hashable],
                               edges: Sequence[tuple[int, int, Hashable]],
                               direction: str) -> list[int]:
    """The maximal simulation preorder, by the definition."""
    n = len(labels)
    needs: list[set[tuple[Hashable, int]]] = [set() for _ in range(n)]
    for src, dst, label in edges:
        if direction == "in":
            needs[dst].add((label, src))
        else:
            needs[src].add((label, dst))
    relation = {(u, v) for u in range(n) for v in range(n)
                if labels[u] == labels[v]}
    changed = True
    while changed:
        changed = False
        for u, v in sorted(relation):
            if not all(any(label == other and (p, q) in relation
                           for other, q in needs[v])
                       for label, p in needs[u]):
                relation.discard((u, v))
                changed = True
    return [sum(1 << v for v in range(n) if (u, v) in relation)
            for u in range(n)]


# ---------------------------------------------------------------------------
# ≡kκ classes (networkx k-hop neighbourhood, sha256 WL, VF2)
# ---------------------------------------------------------------------------


def khop_neighborhood(segment: Segment, center: int, k: int,
                      aggregation: PropertyAggregation,
                      direction: str = "both") -> nx.MultiDiGraph:
    """k-hop neighborhood of ``center`` inside its segment."""
    graph = segment.graph
    adjacency: dict[int, list[tuple[int, str, bool]]] = {
        v: [] for v in segment.vertices
    }
    for record in segment.edges():
        adjacency[record.src].append((record.dst, record.label, True))
        if direction == "both":
            adjacency[record.dst].append((record.src, record.label, False))

    frontier = {center}
    members = {center}
    for _ in range(k):
        nxt: set[int] = set()
        for vertex_id in frontier:
            for other, _label, _fwd in adjacency[vertex_id]:
                if other not in members:
                    members.add(other)
                    nxt.add(other)
        frontier = nxt
        if not frontier:
            break

    out = nx.MultiDiGraph()
    for vertex_id in members:
        record = graph.vertex(vertex_id)
        out.add_node(
            vertex_id,
            label=aggregation.base_label(record),
            center=(vertex_id == center),
        )
    for record in segment.edges():
        if record.src in members and record.dst in members:
            out.add_edge(record.src, record.dst, label=record.label)
    return out


def wl_certificate(neighborhood: nx.MultiDiGraph, rounds: int) -> str:
    """Deterministic WL-style hash of a labeled multidigraph with a center."""

    def digest(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    colors = {
        node: digest(repr((data["label"], data["center"])))
        for node, data in neighborhood.nodes(data=True)
    }
    for _ in range(max(1, rounds)):
        new_colors = {}
        for node in neighborhood.nodes:
            out_sig = sorted(
                (data["label"], colors[dst])
                for _, dst, data in neighborhood.out_edges(node, data=True)
            )
            in_sig = sorted(
                (data["label"], colors[src])
                for src, _, data in neighborhood.in_edges(node, data=True)
            )
            new_colors[node] = digest(repr((colors[node], out_sig, in_sig)))
        colors = new_colors
    return digest(repr(sorted(colors.values())))


def vf2_isomorphic(left: nx.MultiDiGraph, right: nx.MultiDiGraph) -> bool:
    """Exact labeled isomorphism (centers map to centers)."""
    node_match = nx_iso.categorical_node_match(["label", "center"],
                                               [None, None])
    edge_match = nx_iso.categorical_multiedge_match("label", None)
    matcher = nx_iso.MultiDiGraphMatcher(
        left, right, node_match=node_match, edge_match=edge_match
    )
    return matcher.is_isomorphic()


def oracle_vertex_classes(segments: Sequence[Segment],
                          aggregation: PropertyAggregation,
                          k: int = 0,
                          verify_isomorphism: bool = True,
                          direction: str = "both") -> Partition:
    """The ``≡kκ`` partition of the union nodes, via networkx."""
    buckets: dict[Hashable, list[tuple[tuple[int, int], nx.MultiDiGraph]]] = {}
    for seg_index, segment in enumerate(segments):
        for vertex_id in sorted(segment.vertices):
            base = aggregation.base_label(segment.graph.vertex(vertex_id))
            if k <= 0:
                buckets.setdefault(base, []).append(
                    ((seg_index, vertex_id), None))
                continue
            neighborhood = khop_neighborhood(segment, vertex_id, k,
                                             aggregation, direction)
            key = (base, wl_certificate(neighborhood, rounds=k + 1))
            buckets.setdefault(key, []).append(
                ((seg_index, vertex_id), neighborhood))

    classes: list[list[tuple[int, int]]] = []
    for entries in buckets.values():
        if k <= 0 or not verify_isomorphism:
            classes.append([node for node, _ in entries])
            continue
        representatives: list[tuple[list, nx.MultiDiGraph]] = []
        for node, neighborhood in entries:
            for members, representative in representatives:
                if vf2_isomorphic(neighborhood, representative):
                    members.append(node)
                    break
            else:
                members = [node]
                classes.append(members)
                representatives.append((members, neighborhood))
    return as_partition(classes)


# ---------------------------------------------------------------------------
# The merge schedule
# ---------------------------------------------------------------------------


def _mutual_classes(sim: Sequence[int]) -> list[list[int]]:
    n = len(sim)
    seen: set[int] = set()
    classes = []
    for u in range(n):
        if u in seen:
            continue
        group = [v for v in range(u, n)
                 if v not in seen and sim[u] >> v & 1 and sim[v] >> u & 1]
        seen.update(group)
        classes.append(group)
    return classes


def oracle_pgsum_partition(segments: Sequence[Segment],
                           classes: ClassAssignment,
                           max_rounds: int | None = None,
                           ) -> tuple[Partition, int]:
    """PgSum's final partition of the union nodes, and the rounds it took.

    Per round, on the current quotient: merge the mutual in-simulation
    classes; else the mutual out-simulation classes; else disjoint dominated
    stars, taking pairs ``(u, v)`` in ascending order. Both preorders come
    from :func:`oracle_simulation_preorder`, every round.
    """
    nodes = [(seg_index, vertex_id)
             for seg_index, segment in enumerate(segments)
             for vertex_id in sorted(segment.vertices)]
    index_of = {node: index for index, node in enumerate(nodes)}
    union_edges = [
        (index_of[(seg_index, record.src)], index_of[(seg_index, record.dst)],
         record.label)
        for seg_index, segment in enumerate(segments)
        for record in segment.edges()
    ]
    group_of = list(range(len(nodes)))
    group_members = {index: [index] for index in range(len(nodes))}

    def merge(into: int, absorbed: int) -> None:
        for member in group_members[absorbed]:
            group_of[member] = into
        group_members[into].extend(group_members.pop(absorbed))

    def one_round() -> bool:
        group_ids = sorted(group_members)
        dense = {gid: index for index, gid in enumerate(group_ids)}
        labels = [classes.class_of[nodes[group_members[gid][0]]]
                  for gid in group_ids]
        edges = sorted({(dense[group_of[u]], dense[group_of[v]], label)
                        for u, v, label in union_edges})
        sim_in = oracle_simulation_preorder(labels, edges, "in")
        sim_out = oracle_simulation_preorder(labels, edges, "out")
        for sim in (sim_in, sim_out):
            plan = [cls for cls in _mutual_classes(sim) if len(cls) > 1]
            if plan:
                for cls in plan:
                    for other in cls[1:]:
                        merge(group_ids[cls[0]], group_ids[other])
                return True
        bottoms: set[int] = set()
        tops: set[int] = set()
        for u in range(len(group_ids)):
            for v in range(len(group_ids)):
                if u == v or not (sim_in[u] >> v & 1 and sim_out[u] >> v & 1):
                    continue
                if u in bottoms or u in tops or v in bottoms:
                    continue
                merge(group_ids[v], group_ids[u])
                bottoms.add(u)
                tops.add(v)
        return bool(bottoms)

    rounds = 0
    while max_rounds is None or rounds < max_rounds:
        rounds += 1
        if not one_round():
            break
    partition = as_partition(
        [nodes[member] for member in members]
        for members in group_members.values())
    return partition, rounds
