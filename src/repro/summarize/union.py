"""The union graph ``g0 = ⋃ Si`` of a PgSum input, as flat integer lists.

Every stage of PgSum — the ``≡kκ`` classes, the merge rounds, the final
``γ`` frequencies — reads the same segment edges. :class:`UnionGraph`
walks each segment's edge records once and keeps them as parallel lists
over dense *union indices*, so no later stage touches a record again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.segment.pgseg import Segment
from repro.summarize.aggregation import PropertyAggregation

#: A union-graph node: (segment index, vertex id within that segment's graph).
UnionNode = tuple[int, int]


@dataclass(slots=True)
class UnionGraph:
    """Vertices and edges of all segments, densely indexed.

    Attributes:
        segments: the input segments.
        nodes: union index -> union node; segment-major, vertex ids
            ascending inside a segment (the order every Psg group id and
            class index is derived from).
        src / dst / label: per edge, the endpoints as union indices and the
            edge-label id; edges keep segment order.
        edge_segment: per edge, the index of the segment it belongs to.
        edge_labels: edge-label id -> label text.
    """

    segments: Sequence[Segment]
    nodes: list[UnionNode]
    src: list[int]
    dst: list[int]
    label: list[int]
    edge_segment: list[int]
    edge_labels: list[str]

    @classmethod
    def from_segments(cls, segments: Sequence[Segment]) -> "UnionGraph":
        """One pass over every segment's vertices and edge records."""
        union = cls(segments, [], [], [], [], [], [])
        label_ids: dict[str, int] = {}
        for seg_index, segment in enumerate(segments):
            first = len(union.nodes)
            vertex_ids = sorted(segment.vertices)
            union.nodes.extend((seg_index, v) for v in vertex_ids)
            index_of = {v: first + i for i, v in enumerate(vertex_ids)}
            for record in segment.edges():
                union.src.append(index_of[record.src])
                union.dst.append(index_of[record.dst])
                union.label.append(
                    label_ids.setdefault(record.label, len(label_ids)))
                union.edge_segment.append(seg_index)
        union.edge_labels.extend(label_ids)
        return union

    def base_labels(self, aggregation: PropertyAggregation,
                    ) -> tuple[list[int], list[tuple]]:
        """Aggregated label per vertex: (id per union index, id -> label).

        ``aggregation.base_label`` runs once per vertex; ids are numbered by
        first appearance, so equal labels (dict equality) share an id.
        """
        label_ids: dict[tuple, int] = {}
        ids = [
            label_ids.setdefault(
                aggregation.base_label(
                    self.segments[seg_index].graph.vertex(vertex_id)),
                len(label_ids))
            for seg_index, vertex_id in self.nodes
        ]
        return ids, list(label_ids)
