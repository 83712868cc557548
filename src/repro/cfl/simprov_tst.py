"""SimProvTst: per-destination equivalence-class ``L(SimProv)`` solver.

When the destinations ``v_j ∈ Vdst`` are evaluated *separately*, the ``Ee``
and ``Aa`` relations become transitive (Sec. III.B.2(c)): on a well-typed
PROV graph the SimProv word shape is fully determined by its depth, so all
entities reachable from ``v_j`` by an ancestry descent of depth ``m`` are
pairwise ``Ee``-related — one equivalence class ``[e]_m`` — and likewise for
activities. The solver therefore alternates frontier expansions::

    [e]_0 = {v_j}
    [a]_m = activities generating some entity in [e]_{m-1}      (via G)
    [e]_m = entities used by some activity in [a]_m             (via U)

instead of materializing pairs. Theorem 2's ``O(|Vdst|·(|G| + |U|))`` counts
each ancestry edge once per destination; this solver stores the layers
themselves (``path_vertices`` needs them), and a vertex sits in one layer per
distinct descent depth, so the real cost per destination is **depth × cone
edges** — the ancestry cone of ``v_j``, not the graph. Early stopping
compares whole frontiers against the oldest Vsrc entity.

The native frontier (``set_impl="set"``) is an array kernel: the cone is
discovered with a CSR gather one level ahead of the layers
(:class:`AncestryCone`), relabelled to local ids, and every layer is a
boolean scatter/gather over the cone's edge arrays
(``fa[g_dst[fe[g_src]]] = True``), kept bit-packed for the top-down
collection pass. A cone of under ~100 vertices pays a ≤0.5 ms numpy
call floor, accepted rather than forked around. ``"bitset"`` / ``"roaring"``
run the same loop per element over :class:`ProvAdjacency` lists — the
paper's Cbm ablation, nothing else.

The equivalence-class trick is only sound for the *pure label* grammar; the
property-constrained generalization (``activity_key``) refines same-depth
vertices into different classes, so this solver rejects it — use
:class:`repro.cfl.simprov_alg.SimProvAlg` for constrained queries.
"""

from __future__ import annotations

import time
from typing import Iterable

import numpy as np

from repro.cfl.adjacency import (
    AncestryCone,
    EdgePredicate,
    ProvAdjacency,
    VertexPredicate,
    solver_adjacency,
)
from repro.cfl.fastset import IntBitSet
from repro.cfl.results import SimProvResult, SimProvStats
from repro.cfl.roaring import RoaringBitmap
from repro.errors import QueryTimeout, SegmentationError, SolverError
from repro.model.graph import ProvenanceGraph


class SimProvTst:
    """Frontier-based ``L(SimProv)``-reachability, one pass per destination.

    Args:
        graph: the provenance graph.
        src_ids / dst_ids: the query entities.
        vertex_ok / edge_ok: inline boundary predicates.
        prune: enable frontier-level early stopping.
        adjacency: pre-built :class:`ProvAdjacency` to reuse.
        snapshot: a :class:`repro.store.snapshot.GraphSnapshot`; when given
            (and no explicit ``adjacency``), the solver reads the
            snapshot's frozen CSR instead of rebuilding from the live store.
        collect_pairs: also materialize answer pairs (quadratic; tests only).
        set_impl: frontier implementation — ``"set"`` (default, the array
            kernel), or ``"bitset"`` / ``"roaring"`` (the paper's Cbm
            space/time trade-off applied to per-element frontier sets).
        max_layers / timeout_seconds: safety budget.

    Raises:
        SegmentationError: if src/dst ids are not entities.
        SolverError: if property-constrained keys are requested.
    """

    def __init__(self, graph: ProvenanceGraph,
                 src_ids: Iterable[int], dst_ids: Iterable[int], *,
                 vertex_ok: VertexPredicate | None = None,
                 edge_ok: EdgePredicate | None = None,
                 prune: bool = True,
                 adjacency: ProvAdjacency | None = None,
                 snapshot=None,
                 collect_pairs: bool = False,
                 set_impl: str = "set",
                 max_layers: int | None = None,
                 timeout_seconds: float | None = None,
                 activity_key=None, entity_key=None):
        if activity_key is not None or entity_key is not None:
            raise SolverError(
                "SimProvTst supports only the pure label grammar; "
                "use SimProvAlg for property-constrained similarity"
            )
        self._graph = graph
        self._src = list(dict.fromkeys(src_ids))
        self._dst = list(dict.fromkeys(dst_ids))
        if not self._src or not self._dst:
            raise SegmentationError("Vsrc and Vdst must be non-empty")
        is_entity = graph.is_entity if snapshot is None else snapshot.is_entity
        for vertex_id in (*self._src, *self._dst):
            if not is_entity(vertex_id):
                raise SegmentationError(
                    f"query vertex {vertex_id} is not an entity"
                )
        if set_impl not in ("set", "bitset", "roaring"):
            raise SolverError(
                "set_impl must be one of ('set', 'bitset', 'roaring')"
            )
        self._set_impl = set_impl
        self._adj = solver_adjacency(graph, snapshot, adjacency, vertex_ok,
                                     edge_ok, as_arrays=set_impl == "set")
        self._prune = prune
        self._collect_pairs = collect_pairs
        self._max_layers = max_layers
        self._timeout = timeout_seconds

    def _new_set(self):
        """A fresh per-element frontier set (Cbm ablation only)."""
        if self._set_impl == "bitset":
            return IntBitSet(self._adj.n)
        return RoaringBitmap(self._adj.n)

    # ------------------------------------------------------------------

    def solve(self, collect_vertices: bool = True) -> SimProvResult:
        """Run one frontier pass per destination and merge the results."""
        adj = self._adj
        start_time = time.perf_counter()
        deadline = None if self._timeout is None else start_time + self._timeout
        stats = SimProvStats()

        src_set = {v for v in self._src if adj.is_live(v)}
        dst_live = [v for v in self._dst if adj.is_live(v)]

        result = SimProvResult(stats=stats)
        if self._collect_pairs:
            result.answer_pairs = set()

        # No surviving Vsrc entity: nothing can match, skip the descent.
        if src_set:
            min_src_order = min(int(adj.orders[v]) for v in src_set)
            solve_one = (self._solve_one if self._set_impl == "set"
                         else self._solve_one_per_element)
            for vj in dst_live:
                solve_one(vj, src_set, min_src_order, collect_vertices,
                          result, deadline)

        stats.seconds = time.perf_counter() - start_time
        return result

    # ------------------------------------------------------------------
    # Array kernel (set_impl="set")
    # ------------------------------------------------------------------

    def _solve_one(self, vj: int, src_set: set[int], min_src_order: int,
                   collect_vertices: bool, result: SimProvResult,
                   deadline: float | None) -> None:
        stats = result.stats
        prune = self._prune
        cone = AncestryCone(self._adj, vj)
        src_ids = np.fromiter(src_set, np.int64, len(src_set))
        src_local = cone.locate(src_ids)

        frontier_e = np.ones(1, dtype=bool)           # local id 0 is v_j
        # Layers are kept bit-packed: ~cone/8 bytes each, not cone bytes.
        entity_layers = [np.packbits(frontier_e)]
        activity_layers = [entity_layers[0]]          # index 0 unused
        valid_depths: list[int] = []

        depth = 0
        cap = (self._max_layers if self._max_layers is not None
               else self._adj.n + 1)
        while depth < cap:
            if deadline is not None and time.perf_counter() > deadline:
                raise QueryTimeout(
                    f"SimProvTst exceeded time budget ({self._timeout}s)"
                )
            depth += 1
            grew = cone.grow()
            frontier_a = np.zeros(cone.size, dtype=bool)
            frontier_a[cone.g_dst[frontier_e[cone.g_src]]] = True
            stats.worklist_pops += 1
            count_a = int(np.count_nonzero(frontier_a))
            if not count_a:
                break
            # Early stop: all frontier activities predate every Vsrc entity,
            # so no deeper frontier can contain a Vsrc entity.
            if prune and cone.orders[frontier_a].max() < min_src_order:
                stats.pruned += 1
                break
            if cone.grow() or grew:
                src_local = cone.locate(src_ids)
            frontier_e = np.zeros(cone.size, dtype=bool)
            frontier_e[cone.u_dst[frontier_a[cone.u_src]]] = True
            count_e = int(np.count_nonzero(frontier_e))
            activity_layers.append(np.packbits(frontier_a))
            entity_layers.append(np.packbits(frontier_e))
            stats.facts_activity += count_a
            stats.facts_entity += count_e
            if not count_e:
                break
            matched = src_local[frontier_e[src_local]]
            if matched.size:
                valid_depths.append(depth)
                result.sources_matched.update(cone.ids[matched].tolist())
                if result.answer_pairs is not None:
                    targets = cone.ids[frontier_e].tolist()
                    for vi in cone.ids[matched].tolist():
                        for vt in targets:
                            pair = (vi, vt) if vi <= vt else (vt, vi)
                            result.answer_pairs.add(pair)

        if valid_depths:
            similar, on_path = self._collect(
                cone, entity_layers, activity_layers, valid_depths,
                collect_vertices)
            result.similar_entities.update(cone.ids[similar].tolist())
            result.path_vertices.update(cone.ids[on_path].tolist())

    @staticmethod
    def _collect(cone: AncestryCone, entity_layers: list[np.ndarray],
                 activity_layers: list[np.ndarray], valid_depths: list[int],
                 collect_vertices: bool) -> tuple[np.ndarray, np.ndarray]:
        """Layered backward intersection: vertices on depth-``m`` descents.

        A vertex at layer ``ℓ`` belongs to VC2 iff it lies on some ancestry
        descent from ``v_j`` that *completes* at a valid depth ``m ≥ ℓ`` —
        it must be forward-reachable at its layer and extensible to depth
        ``m`` (dead-ends like initial entities are pruned). All valid depths
        are handled in one combined top-down pass: ``live_e`` holds the
        layer-ℓ entities that reach a valid completion, seeded with the
        whole layer at every valid depth (those entities are themselves
        legitimate endpoints ``v_t``).

        Returns two cone-local masks: the union of the valid-depth entity
        layers (the similar entities), and the VC2 members (empty unless
        ``collect_vertices``).
        """
        size = cone.size

        def layer(packed: np.ndarray) -> np.ndarray:
            # Layers packed before the cone finished growing are shorter;
            # unpackbits zero-pads them to the final size.
            return np.unpackbits(packed, count=size).view(bool)

        similar = np.zeros(size, dtype=bool)
        for depth in valid_depths:
            similar |= layer(entity_layers[depth])
        on_path = np.zeros(size, dtype=bool)
        if not collect_vertices:
            return similar, on_path

        valid = set(valid_depths)
        live_e = layer(entity_layers[valid_depths[-1]])    # deepest is valid
        on_path |= live_e
        for level in range(valid_depths[-1], 0, -1):
            live_a = np.zeros(size, dtype=bool)
            live_a[cone.u_src[live_e[cone.u_dst]]] = True
            live_a &= layer(activity_layers[level])
            on_path |= live_a
            live_e = layer(entity_layers[level - 1])
            if (level - 1) not in valid:
                reaching = np.zeros(size, dtype=bool)
                reaching[cone.g_src[live_a[cone.g_dst]]] = True
                live_e &= reaching
            on_path |= live_e
        return similar, on_path

    # ------------------------------------------------------------------
    # Per-element loop (set_impl="bitset" / "roaring": the Cbm ablation)
    # ------------------------------------------------------------------

    def _solve_one_per_element(self, vj: int, src_set: set[int],
                               min_src_order: int, collect_vertices: bool,
                               result: SimProvResult,
                               deadline: float | None) -> None:
        adj = self._adj
        prune = self._prune
        orders = adj.orders
        gen_acts = adj.gen_acts
        used_ents = adj.used_ents
        stats = result.stats

        first_layer = self._new_set()
        first_layer.add(vj)
        entity_layers: list = [first_layer]
        activity_layers: list = [self._new_set()]   # index 0 unused
        valid_depths: list[int] = []

        depth = 0
        cap = self._max_layers if self._max_layers is not None else adj.n + 1
        while depth < cap:
            if deadline is not None and time.perf_counter() > deadline:
                raise QueryTimeout(
                    f"SimProvTst exceeded time budget ({self._timeout}s)"
                )
            depth += 1
            frontier_a = self._new_set()
            for entity in entity_layers[depth - 1]:
                for activity in gen_acts[entity]:
                    frontier_a.add(activity)
            stats.worklist_pops += 1
            if not frontier_a:
                break
            # Early stop: all frontier activities predate every Vsrc entity,
            # so no deeper frontier can contain a Vsrc entity.
            if prune and all(orders[a] < min_src_order for a in frontier_a):
                stats.pruned += 1
                break
            frontier_e = self._new_set()
            for activity in frontier_a:
                for entity in used_ents[activity]:
                    frontier_e.add(entity)
            activity_layers.append(frontier_a)
            entity_layers.append(frontier_e)
            stats.facts_activity += len(frontier_a)
            stats.facts_entity += len(frontier_e)
            if not frontier_e:
                break
            matched = {v for v in src_set if v in frontier_e}
            if matched:
                valid_depths.append(depth)
                result.sources_matched.update(matched)
                result.similar_entities.update(frontier_e)
                if result.answer_pairs is not None:
                    for vi in matched:
                        for vt in frontier_e:
                            pair = (vi, vt) if vi <= vt else (vt, vi)
                            result.answer_pairs.add(pair)

        if collect_vertices and valid_depths:
            self._collect_per_element(entity_layers, activity_layers,
                                      valid_depths, result.path_vertices)

    def _collect_per_element(self, entity_layers: list,
                             activity_layers: list, valid_depths: list[int],
                             vertices: set[int]) -> None:
        """:meth:`_collect` over per-element sets."""
        adj = self._adj
        gen_acts = adj.gen_acts
        used_ents = adj.used_ents
        valid = set(valid_depths)
        m_max = max(valid)

        live_e: set[int] = set(entity_layers[m_max])   # m_max is valid
        vertices.update(live_e)
        for level in range(m_max, 0, -1):
            live_a = {
                a for a in activity_layers[level]
                if any(e in live_e for e in used_ents[a])
            }
            vertices.update(live_a)
            prev = {
                e for e in entity_layers[level - 1]
                if any(a in live_a for a in gen_acts[e])
            }
            if (level - 1) in valid:
                prev.update(entity_layers[level - 1])
            vertices.update(prev)
            live_e = prev


def solve_simprov_tst(graph: ProvenanceGraph, src_ids: Iterable[int],
                      dst_ids: Iterable[int], **kwargs) -> SimProvResult:
    """One-shot convenience wrapper around :class:`SimProvTst`."""
    collect = kwargs.pop("collect_vertices", True)
    return SimProvTst(graph, src_ids, dst_ids, **kwargs).solve(collect)
