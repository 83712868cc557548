"""The provenance summary graph (Psg) and its path-language invariants.

A Psg (Sec. IV.A.2) groups ``≡kκ``-equivalent segment vertices; its edges are
labeled with appearance frequency across segments (``γ``). The desiderata:

- precise: every path (label word) of the Psg exists in some segment, and
  every segment path exists in the Psg;
- concise: as few groups as possible.

:func:`bounded_path_words` enumerates label words up to a length bound, used
by tests to verify the invariant after merging (exact verification is
PSPACE-complete; on DAGs a bound covering the longest path is exact).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

from repro.segment.pgseg import Segment
from repro.summarize.provtype import ClassAssignment
from repro.summarize.union import UnionGraph, UnionNode


@dataclass(slots=True)
class PsgNode:
    """One summary vertex µ: a subset of one equivalence class.

    Attributes:
        class_index: the ``≡kκ`` class this group belongs to (``ρ``).
        label: the class's canonical label (used in path words).
        members: the merged segment vertices.
    """

    class_index: int
    label: Hashable
    members: tuple[UnionNode, ...]


@dataclass(slots=True)
class Psg:
    """A provenance summary graph.

    Attributes:
        nodes: summary vertices.
        edges: (src group, dst group, edge label) -> frequency ``γ`` in
            [0, 1]: the fraction of segments containing a corresponding edge.
        segment_count: |S|.
        source_vertex_total: |union of segment vertex sets| (for cr).
    """

    nodes: list[PsgNode] = field(default_factory=list)
    edges: dict[tuple[int, int, str], float] = field(default_factory=dict)
    segment_count: int = 0
    source_vertex_total: int = 0

    @property
    def node_count(self) -> int:
        """|M|."""
        return len(self.nodes)

    @property
    def compaction_ratio(self) -> float:
        """cr = |M| / |⋃ VSi| — lower is more compact (Sec. V)."""
        if self.source_vertex_total == 0:
            return 0.0
        return len(self.nodes) / self.source_vertex_total

    def out_edges(self, group: int) -> list[tuple[int, str, float]]:
        """(target group, label, frequency) triples leaving ``group``."""
        return [
            (dst, label, freq)
            for (src, dst, label), freq in self.edges.items()
            if src == group
        ]

    def group_of(self, node: UnionNode) -> int:
        """Group index containing a union node (linear scan; tests only)."""
        for index, group in enumerate(self.nodes):
            if node in group.members:
                return index
        raise KeyError(node)

    def is_dag(self) -> bool:
        """True when the summary has no directed cycle."""
        adjacency: dict[int, list[int]] = {i: [] for i in range(len(self.nodes))}
        for (src, dst, _label) in self.edges:
            adjacency[src].append(dst)
        WHITE, GRAY, BLACK = 0, 1, 2
        color = [WHITE] * len(self.nodes)
        for root in range(len(self.nodes)):
            if color[root] != WHITE:
                continue
            stack: list[tuple[int, int]] = [(root, 0)]
            color[root] = GRAY
            while stack:
                node, cursor = stack[-1]
                if cursor < len(adjacency[node]):
                    stack[-1] = (node, cursor + 1)
                    nxt = adjacency[node][cursor]
                    if color[nxt] == GRAY:
                        return False
                    if color[nxt] == WHITE:
                        color[nxt] = GRAY
                        stack.append((nxt, 0))
                else:
                    color[node] = BLACK
                    stack.pop()
        return True

    def describe(self) -> str:
        """Readable multi-line rendering (labels, members, frequencies)."""
        lines = [
            f"Psg: {self.node_count} groups, {len(self.edges)} edges, "
            f"cr={self.compaction_ratio:.3f}"
        ]
        for index, node in enumerate(self.nodes):
            lines.append(
                f"  µ{index} [{_label_text(node.label)}] x{len(node.members)}"
            )
        for (src, dst, label), freq in sorted(self.edges.items()):
            lines.append(f"  µ{src} -{label}-> µ{dst}  ({freq:.0%})")
        return "\n".join(lines)


def _label_text(label: Hashable) -> str:
    if isinstance(label, tuple) and label and isinstance(label[0], str):
        head = label[0]
        rest = [
            f"{key}={value}"
            for part in label[1:] if isinstance(part, tuple)
            for item in (part if part and isinstance(part[0], tuple) else ())
            for key, value in [item] if value is not None
        ]
        return head + ("(" + ",".join(rest) + ")" if rest else "")
    return str(label)


def build_psg(segments: Sequence[Segment], classes: ClassAssignment,
              partition: Sequence[Iterable[UnionNode]]) -> Psg:
    """Assemble a Psg from a partition of the union vertices.

    Args:
        segments: the input segments.
        classes: the ``≡kκ`` assignment (labels for groups).
        partition: groups of union nodes; every group must stay within one
            equivalence class.

    Raises:
        ValueError: if a group mixes equivalence classes (violates the Psg
            definition) or partition cells overlap.
    """
    return assemble_psg(UnionGraph.from_segments(segments), classes,
                        partition)


def assemble_psg(union: UnionGraph, classes: ClassAssignment,
                 partition: Sequence[Iterable[UnionNode]]) -> Psg:
    """:func:`build_psg` over an already extracted union graph."""
    node_to_group: dict[UnionNode, int] = {}
    nodes: list[PsgNode] = []
    for group_members in partition:
        members = tuple(sorted(group_members))
        if not members:
            continue
        class_indices = {classes.class_of[m] for m in members}
        if len(class_indices) != 1:
            raise ValueError(
                f"Psg group {members} spans multiple equivalence classes"
            )
        class_index = class_indices.pop()
        group_index = len(nodes)
        for member in members:
            if member in node_to_group:
                raise ValueError(f"union node {member} in two groups")
            node_to_group[member] = group_index
        nodes.append(PsgNode(
            class_index=class_index,
            label=classes.class_labels[class_index],
            members=members,
        ))

    edge_segments: dict[tuple[int, int, str], set[int]] = {}
    for src, dst, label, seg_index in zip(union.src, union.dst, union.label,
                                          union.edge_segment):
        key = (node_to_group[union.nodes[src]],
               node_to_group[union.nodes[dst]], union.edge_labels[label])
        edge_segments.setdefault(key, set()).add(seg_index)

    segment_count = len(union.segments)
    return Psg(
        nodes=nodes,
        edges={
            key: len(seg_ids) / segment_count
            for key, seg_ids in edge_segments.items()
        },
        segment_count=segment_count,
        source_vertex_total=len(union.nodes),
    )


def singleton_psg(segments: Sequence[Segment],
                  classes: ClassAssignment) -> Psg:
    """The trivial valid Psg ``g0 = ⋃ Si`` (every vertex its own group)."""
    partition = [[(si, v)] for si, segment in enumerate(segments)
                 for v in sorted(segment.vertices)]
    return build_psg(segments, classes, partition)


# ---------------------------------------------------------------------------
# Path-language checking
# ---------------------------------------------------------------------------


def psg_path_words(psg: Psg, max_edges: int) -> set[tuple]:
    """All Psg path label words with 1..max_edges edges.

    A word is ``(ρ0, e1, ρ1, ..., en, ρn)`` alternating group labels and edge
    labels — the τ of Sec. IV.A.2 with canonical class labels as vertex
    labels.
    """
    adjacency: dict[int, list[tuple[int, str]]] = {}
    for (src, dst, label) in psg.edges:
        adjacency.setdefault(src, []).append((dst, label))
    words: set[tuple] = set()
    for start in range(len(psg.nodes)):
        stack: list[tuple[int, tuple]] = [
            (start, (psg.nodes[start].label,))
        ]
        while stack:
            here, word = stack.pop()
            if len(word) > 1:
                words.add(word)
            if (len(word) - 1) // 2 >= max_edges:
                continue
            for nxt, label in adjacency.get(here, ()):
                stack.append((nxt, word + (label, psg.nodes[nxt].label)))
    return words


def segment_path_words(segments: Sequence[Segment], classes: ClassAssignment,
                       max_edges: int) -> set[tuple]:
    """All segment path label words with 1..max_edges edges, ρ-labeled."""
    words: set[tuple] = set()
    for seg_index, segment in enumerate(segments):
        adjacency: dict[int, list[tuple[int, str]]] = {}
        for record in segment.edges():
            adjacency.setdefault(record.src, []).append(
                (record.dst, record.label)
            )

        def label_of(vertex_id: int) -> Hashable:
            return classes.class_labels[
                classes.class_of[(seg_index, vertex_id)]
            ]

        for start in sorted(segment.vertices):
            stack: list[tuple[int, tuple]] = [(start, (label_of(start),))]
            while stack:
                here, word = stack.pop()
                if len(word) > 1:
                    words.add(word)
                if (len(word) - 1) // 2 >= max_edges:
                    continue
                for nxt, label in adjacency.get(here, ()):
                    stack.append((nxt, word + (label, label_of(nxt))))
    return words


def check_psg_invariant(psg: Psg, segments: Sequence[Segment],
                        classes: ClassAssignment,
                        max_edges: int = 6) -> tuple[set[tuple], set[tuple]]:
    """Compare Psg and segment path languages up to a bound.

    Returns ``(extra, missing)``: words the Psg has but no segment does, and
    words some segment has but the Psg lost. Both empty = invariant holds up
    to the bound (exact when the bound covers the longest path).
    """
    psg_words = psg_path_words(psg, max_edges)
    seg_words = segment_path_words(segments, classes, max_edges)
    return psg_words - seg_words, seg_words - psg_words
