"""The PgSum summarization operator (Sec. IV).

``PgSum(S, K, Rk)`` merges the vertices of a set of segments into a
provenance summary graph (Psg) without changing the path-label language:

1. compute the ``≡kκ`` equivalence classes (aggregation ``K`` + provenance
   type ``Rk``) — only same-class vertices may ever merge;
2. start from ``g0 = ⋃ Si`` and repeat merge rounds until fixpoint:
   compute the in-/out-simulation preorders on the current quotient, then
   apply Lemma-5 merges — mutual in-simulation classes, else mutual
   out-simulation classes, else disjoint dominated *stars*
   (``u ≤sin v ∧ u ≤sout v`` merges ``u`` into the dominant ``v``);
3. annotate edges with their appearance frequency ``γ`` across segments.

Minimum Psg is PSPACE-complete (Theorem 4); simulation approximates trace
equivalence, so the result is a valid Psg but not necessarily minimum. The
rounds are structured so every batch has a clean no-new-paths argument:
mutual-simulation classes merge by quotient-lifting, and each dominated star
has a single top that in- and out-dominates all its members.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.errors import SummarizationError
from repro.segment.pgseg import Segment
from repro.summarize.aggregation import TYPE_ONLY, PropertyAggregation
from repro.summarize.provtype import classify_union
from repro.summarize.psg import Psg, assemble_psg
from repro.summarize.simulation import (
    Preorder,
    dominated_pairs,
    solve_preorder,
)
from repro.summarize.union import UnionGraph


@dataclass(frozen=True, slots=True)
class PgSumQuery:
    """A PgSum query: ``(S, K, Rk)`` options.

    Attributes:
        aggregation: the property aggregation ``K``.
        k: provenance-type radius ``Rk`` (0 = labels only).
        max_rounds: cap on merge rounds (None = to fixpoint).
        verify_isomorphism: exact-iso confirmation inside ``≡kκ``.
        rk_direction: neighborhood direction for ``Rk`` — ``"both"`` is the
            formal Sec. IV.A.1 definition, ``"out"`` the ancestry-only
            variant that reproduces the paper's Fig. 2(e) example.

    Raises:
        SummarizationError: for a negative ``k`` or ``max_rounds``, or an
            ``rk_direction`` other than ``"both"`` / ``"out"``.
    """

    aggregation: PropertyAggregation = TYPE_ONLY
    k: int = 0
    max_rounds: int | None = None
    verify_isomorphism: bool = True
    rk_direction: str = "both"

    def __post_init__(self) -> None:
        if self.k < 0:
            raise SummarizationError(f"k must be >= 0, got {self.k}")
        if self.max_rounds is not None and self.max_rounds < 0:
            raise SummarizationError(
                f"max_rounds must be >= 0 or None, got {self.max_rounds}")
        if self.rk_direction not in ("both", "out"):
            raise SummarizationError(
                f"rk_direction must be 'both' or 'out', "
                f"got {self.rk_direction!r}")


@dataclass(slots=True)
class PgSumStats:
    """Work counters for one summarization.

    Attributes:
        rounds / merges / class_count: merge rounds run, groups absorbed,
            ``≡kκ`` classes.
        sim_solves: simulation fixpoints solved (a preorder carried over
            from the previous round's merge is not solved again).
        sim_nodes: total size of the contracted quotients they ran on.
        sim_sweeps: total passes over those quotients (one per solve on
            acyclic input).
        iso_checks: exact neighbourhood comparisons inside ``≡kκ`` buckets.
        seconds: wall time of the evaluate call.
    """

    rounds: int = 0
    merges: int = 0
    class_count: int = 0
    sim_solves: int = 0
    sim_nodes: int = 0
    sim_sweeps: int = 0
    iso_checks: int = 0
    seconds: float = 0.0


class PgSumOperator:
    """Evaluates PgSum over a fixed set of segments."""

    def __init__(self, segments: Sequence[Segment]):
        if not segments:
            raise SummarizationError("PgSum needs at least one segment")
        self.segments = list(segments)
        self.stats = PgSumStats()

    # ------------------------------------------------------------------

    def evaluate(self, query: PgSumQuery | None = None) -> Psg:
        """Run the full pipeline and return the summary graph."""
        query = query if query is not None else PgSumQuery()
        start_time = time.perf_counter()
        stats = self.stats = PgSumStats()

        union = UnionGraph.from_segments(self.segments)
        classes = classify_union(
            union, query.aggregation, query.k,
            verify_isomorphism=query.verify_isomorphism,
            direction=query.rk_direction,
        )
        stats.class_count = classes.class_count
        stats.iso_checks = classes.iso_checks

        node_class = [classes.class_of[node] for node in union.nodes]
        # Partition: group id per union index; start as singletons. A group
        # is named after one of its members, so ``node_class[gid]`` is its ρ.
        group_of = list(range(len(union.nodes)))
        group_members = {index: [index] for index in group_of}

        # Preorders known without solving: merging the mutual classes of a
        # preorder leaves exactly that preorder on the merged graph.
        known: dict[str, Preorder] = {}
        while query.max_rounds is None or stats.rounds < query.max_rounds:
            stats.rounds += 1
            if not self._merge_round(union, node_class, group_of,
                                     group_members, known):
                break

        partition = [
            [union.nodes[member] for member in members]
            for members in group_members.values()
        ]
        psg = assemble_psg(union, classes, partition)
        stats.seconds = time.perf_counter() - start_time
        return psg

    # ------------------------------------------------------------------

    def _merge_round(self, union: UnionGraph, node_class: list[int],
                     group_of: list[int],
                     group_members: dict[int, list[int]],
                     known: dict[str, Preorder]) -> bool:
        """One merge round on the current quotient; True if anything merged.

        The schedule — mutual in-simulation classes, else mutual
        out-simulation classes, else disjoint stars in pair order — decides
        which valid Psg comes out, so it is fixed; how the preorders are
        obtained is not.
        """
        stats = self.stats
        group_ids = sorted(group_members)
        dense = {gid: index for index, gid in enumerate(group_ids)}
        labels = [node_class[gid] for gid in group_ids]
        dense_of = [dense[gid] for gid in group_of]
        edges = {(dense_of[src], dense_of[dst], label) for src, dst, label
                 in zip(union.src, union.dst, union.label)}

        def merge(into: int, absorbed: int) -> None:
            target, gone = group_ids[into], group_ids[absorbed]
            for member in group_members[gone]:
                group_of[member] = target
            group_members[target].extend(group_members.pop(gone))
            stats.merges += 1

        # (1)/(2) mutual simulation classes, in- before out-.
        preorders = {}
        for direction in ("in", "out"):
            preorder = known.pop(direction, None)
            if preorder is None:
                preorder = solve_preorder(labels, edges, direction)
                stats.sim_solves += 1
                stats.sim_nodes += len(preorder.members)
                stats.sim_sweeps += preorder.sweeps
            classes = preorder.classes()
            if len(classes) < len(group_ids):
                for cls in classes:
                    for other in cls[1:]:
                        merge(cls[0], other)
                known.clear()
                known[direction] = preorder.merged()
                return True
            preorders[direction] = preorder

        # (3) dominated stars: each star has one top that dominates all its
        # bottoms in both directions; stars are vertex-disjoint.
        pairs = dominated_pairs(preorders["in"].lift(),
                                preorders["out"].lift())
        bottoms: set[int] = set()
        tops: set[int] = set()
        for u, v in pairs:
            if u in bottoms or u in tops or v in bottoms:
                continue
            merge(v, u)
            bottoms.add(u)
            tops.add(v)
        known.clear()
        return bool(bottoms)


def pgsum(segments: Sequence[Segment],
          aggregation: PropertyAggregation = TYPE_ONLY,
          k: int = 0, **options) -> Psg:
    """One-shot convenience: summarize segments into a Psg."""
    query = PgSumQuery(aggregation=aggregation, k=k, **options)
    return PgSumOperator(segments).evaluate(query)
