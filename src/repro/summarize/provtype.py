"""Provenance types ``Rk`` and the vertex equivalence relation ``≡kκ``.

Two vertices (possibly from different segments) are ``≡kκ``-equivalent when
(Sec. IV.A.1):

a) their vertex labels agree;
b) their property values under the aggregation ``K`` agree;
c) their k-hop neighborhoods (induced subgraphs within their segments) are
   isomorphic respecting labels, aggregated properties, edge types, and edge
   directions, with centers mapped to centers.

Equality is decided in two stages over the :class:`UnionGraph` arrays. A
colour-refinement certificate (``k + 1`` Weisfeiler–Leman rounds over the
neighbourhood, centre marked, colours interned as integers) buckets the
candidates; it is isomorphism-invariant, so isomorphic neighbourhoods never
separate. Inside a bucket a backtracking matcher over colour-preserving
bijections confirms exactly — one candidate per vertex when the colouring
is discrete, still exact when it is not. ``k = 0`` degenerates to
label+property equality.

The depth-k type recurrence of Moreau's provenance types [25] is such a
certificate; it is coarser than (c) — it cannot see edges among the k-th
ring — so it buckets here and never decides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.segment.pgseg import Segment
from repro.summarize.aggregation import PropertyAggregation
from repro.summarize.union import UnionGraph, UnionNode

__all__ = ["ClassAssignment", "UnionNode", "classify_union",
           "compute_vertex_classes"]


@dataclass(slots=True)
class ClassAssignment:
    """Result of computing ``≡kκ`` over a set of segments.

    Attributes:
        class_of: union node -> class index.
        class_labels: class index -> hashable canonical label (base label +
            neighborhood certificate number); used as the ``ρ`` vertex label
            in Psg path words. Like class indices, certificate numbers are
            only comparable within one assignment.
        members: class index -> list of union nodes.
        iso_checks: exact neighbourhood comparisons the partition needed.
    """

    class_of: dict[UnionNode, int] = field(default_factory=dict)
    class_labels: list[Hashable] = field(default_factory=list)
    members: list[list[UnionNode]] = field(default_factory=list)
    iso_checks: int = 0

    @property
    def class_count(self) -> int:
        """Number of equivalence classes."""
        return len(self.class_labels)

    def _open_class(self, label: Hashable) -> int:
        self.class_labels.append(label)
        self.members.append([])
        return len(self.class_labels) - 1

    def _place(self, node: UnionNode, class_index: int) -> None:
        self.class_of[node] = class_index
        self.members[class_index].append(node)


@dataclass(slots=True)
class _Neighbourhood:
    """A k-hop neighbourhood over local indices; the centre is vertex 0.

    Attributes:
        colour: refined colour per vertex. Colours are interned across all
            neighbourhoods of one call, so equal numbers mean equal
            refinement histories wherever they occur.
        out: per vertex, its induced outgoing edges as (label id, target).
    """

    colour: list[int]
    out: list[list[tuple[int, int]]]


def _neighbourhood(center: int, k: int, both: bool, base: list[int],
                   out_adj: list[list[tuple[int, int]]],
                   in_adj: list[list[tuple[int, int]]],
                   colours: dict[tuple, int]) -> _Neighbourhood:
    """Induced k-hop neighbourhood of ``center``, refined ``k + 1`` rounds.

    ``both`` follows the formal ``Rk`` definition (undirected distance k);
    otherwise only outgoing (ancestry) edges are followed, which matches the
    provenance types the paper's Fig. 2(e) example assigns (and Moreau's
    edge-label concatenation [25]). Either way every segment edge between
    two members belongs to the neighbourhood.
    """
    local = {center: 0}
    frontier = [center]
    for _ in range(k):
        reached = []
        for vertex in frontier:
            rows = (out_adj[vertex], in_adj[vertex]) if both \
                else (out_adj[vertex],)
            for row in rows:
                for _label, other in row:
                    if other not in local:
                        local[other] = len(local)
                        reached.append(other)
        frontier = reached
        if not frontier:
            break

    size = len(local)
    out: list[list[tuple[int, int]]] = []
    into: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    for index, vertex in enumerate(local):
        row = [(label, local[other]) for label, other in out_adj[vertex]
               if other in local]
        out.append(row)
        for label, other in row:
            into[other].append((label, index))

    intern = colours.setdefault
    colour = [intern((base[vertex], index == 0), len(colours))
              for index, vertex in enumerate(local)]
    for _ in range(k + 1):
        colour = [
            intern((colour[index],
                    tuple(sorted([(label, colour[other])
                                  for label, other in out[index]])),
                    tuple(sorted([(label, colour[other])
                                  for label, other in into[index]]))),
                   len(colours))
            for index in range(size)
        ]
    return _Neighbourhood(colour, out)


def _pair_labels(out: list[list[tuple[int, int]]],
                 ) -> dict[tuple[int, int], tuple[int, ...]]:
    """(source, target) -> sorted labels of the parallel edges between them."""
    pairs: dict[tuple[int, int], list[int]] = {}
    for source, row in enumerate(out):
        for label, target in row:
            pairs.setdefault((source, target), []).append(label)
    return {pair: tuple(sorted(labels)) for pair, labels in pairs.items()}


def _isomorphic(left: _Neighbourhood, right: _Neighbourhood) -> bool:
    """Exact labeled isomorphism, centres to centres.

    Depth-first search over colour-preserving bijections in the left
    neighbourhood's BFS order, so every vertex after the centre is placed
    next to an already placed one. A placement must reproduce the parallel
    edge labels towards every placed neighbour; with equal edge totals that
    leaves the right side no edge to spare, so a full placement is an
    isomorphism.
    """
    size = len(left.colour)
    if size != len(right.colour) \
            or sum(map(len, left.out)) != sum(map(len, right.out)):
        return False
    left_pairs = _pair_labels(left.out)
    right_pairs = _pair_labels(right.out)
    placed_before: list[list[int]] = [[] for _ in range(size)]
    for later, earlier in {(max(pair), min(pair)) for pair in left_pairs}:
        placed_before[later].append(earlier)
    options: dict[int, list[int]] = {}
    for vertex, colour in enumerate(right.colour):
        options.setdefault(colour, []).append(vertex)

    image = [-1] * size
    used = bytearray(size)
    cursor = [0] * size
    depth = 0
    while True:
        choices = options.get(left.colour[depth], ())
        position = cursor[depth]
        found = False
        while position < len(choices) and not found:
            candidate = choices[position]
            position += 1
            if used[candidate]:
                continue
            image[depth] = candidate
            found = all(
                left_pairs.get((depth, other))
                == right_pairs.get((candidate, image[other]))
                and left_pairs.get((other, depth))
                == right_pairs.get((image[other], candidate))
                for other in placed_before[depth]
            )
        cursor[depth] = position
        if found:
            used[image[depth]] = 1
            depth += 1
            if depth == size:
                return True
            cursor[depth] = 0
        else:
            if depth == 0:
                return False
            depth -= 1
            used[image[depth]] = 0


def classify_union(union: UnionGraph, aggregation: PropertyAggregation,
                   k: int = 0, verify_isomorphism: bool = True,
                   direction: str = "both") -> ClassAssignment:
    """:func:`compute_vertex_classes` over an already extracted union graph."""
    if direction not in ("both", "out"):
        raise ValueError("direction must be 'both' or 'out'")
    assignment = ClassAssignment()
    base, base_labels = union.base_labels(aggregation)
    if k <= 0:
        for label in base_labels:
            assignment._open_class(label)
        for node, label_id in zip(union.nodes, base):
            assignment._place(node, label_id)
        return assignment

    count = len(union.nodes)
    out_adj: list[list[tuple[int, int]]] = [[] for _ in range(count)]
    in_adj: list[list[tuple[int, int]]] = [[] for _ in range(count)]
    for src, dst, label in zip(union.src, union.dst, union.label):
        out_adj[src].append((label, dst))
        in_adj[dst].append((label, src))

    # Bucket by (base label, certificate); dicts keep first-appearance order.
    colours: dict[tuple, int] = {}
    buckets: dict[tuple, list[tuple[UnionNode, _Neighbourhood]]] = {}
    for center, node in enumerate(union.nodes):
        neighbourhood = _neighbourhood(center, k, direction == "both", base,
                                       out_adj, in_adj, colours)
        key = (base[center], tuple(sorted(neighbourhood.colour)))
        buckets.setdefault(key, []).append((node, neighbourhood))

    for number, (key, entries) in enumerate(buckets.items()):
        label = (base_labels[key[0]], number)
        if not verify_isomorphism or len(entries) == 1:
            class_index = assignment._open_class(label)
            for node, _ in entries:
                assignment._place(node, class_index)
            continue
        # Exact isomorphism split within the bucket (collision safety).
        representatives: list[tuple[int, _Neighbourhood]] = []
        for node, neighbourhood in entries:
            for class_index, representative in representatives:
                assignment.iso_checks += 1
                if _isomorphic(neighbourhood, representative):
                    break
            else:
                class_index = assignment._open_class(
                    (label, len(representatives)))
                representatives.append((class_index, neighbourhood))
            assignment._place(node, class_index)
    return assignment


def compute_vertex_classes(segments: Sequence[Segment],
                           aggregation: PropertyAggregation,
                           k: int = 0,
                           verify_isomorphism: bool = True,
                           direction: str = "both") -> ClassAssignment:
    """Partition all segment vertices by ``≡kκ``.

    Args:
        segments: the PgSum input segments.
        aggregation: the property aggregation ``K``.
        k: provenance-type radius ``Rk`` (0 = labels only).
        verify_isomorphism: confirm certificate buckets with the exact
            matcher. Disable for speed when neighborhoods are known to be
            small and distinctive (the certificate is already
            isomorphism-invariant, so disabling can only *merge* colliding
            non-isomorphic types, never split isomorphic ones).
        direction: ``"both"`` (formal definition) or ``"out"`` (ancestry
            neighborhood, as in the paper's Fig. 2(e) example).
    """
    return classify_union(UnionGraph.from_segments(segments), aggregation,
                          k, verify_isomorphism, direction)
