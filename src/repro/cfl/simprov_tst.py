"""SimProvTst: per-destination equivalence-class ``L(SimProv)`` solver.

When the destinations ``v_j ∈ Vdst`` are evaluated *separately*, the ``Ee``
and ``Aa`` relations become transitive (Sec. III.B.2(c)): on a well-typed
PROV graph the SimProv word shape is fully determined by its depth, so all
entities reachable from ``v_j`` by an ancestry descent of depth ``m`` are
pairwise ``Ee``-related — one equivalence class ``[e]_m`` — and likewise for
activities. The classes are the layers of a frontier descent::

    [e]_0 = {v_j}
    [a]_m = activities generating some entity in [e]_{m-1}      (via G)
    [e]_m = entities used by some activity in [a]_m             (via U)

instead of materialized pairs. Theorem 2's ``O(|Vdst|·(|G| + |U|))``
counts each ancestry edge once per destination; ``path_vertices`` needs
the layers themselves, and a vertex sits in one layer per distinct descent
depth. Early stopping ends the descent at the first activity layer older
than every Vsrc entity. The native solver (``set_impl="set"``) has two
paths, picked per query by the traversed arrays' ``monotone`` flag
(:attr:`AncestryArrays.monotone`: every G / U edge points to a strictly
older vertex) and, for early-stopped queries, by cost:

- **Depth sets (monotone arrays).** Each state of the cone — a vertex on
  the entity side or on the activity side of a layer — holds the set of
  depths it sits at as one Python-int bitset: the layer relation,
  factorised per vertex. Creation order is a topological order of the
  descent, so one pass over the cone's edges from newest to oldest source
  fills every set (``D[a] |= D[e] << 1`` over G, ``D[e] |= D[a]`` over
  U), and one pass from oldest to newest marks the vertices on accepted
  paths. The valid depths, the answers, the early-stop depth and all four
  :class:`SimProvStats` counters are read off the sets (unions and
  popcounts of masked bitsets). Cost per destination: a breadth-first
  discovery of the cone (:class:`AncestryCone`, a handful of numpy calls
  per BFS level — tens of levels on Pd, not the hundreds of layers) plus
  a few Python operations per cone edge and state, on bitsets of
  ``depth`` bits. With ``prune`` the cone is grown in two steps so early
  stop still bounds it (see :class:`AncestryCone`).
- **Layers.** Every layer is a boolean scatter/gather over the cone's edge
  arrays (``fa[g_dst[fe[g_src]]] = True``), kept bit-packed for the
  top-down collection pass: depth × cone edges, ~15 numpy calls per
  layer. On cyclic or ill-typed ancestry, or where an old activity uses a
  newer entity, this is the only path, and early stopping is unsound
  there — a descent through a newer vertex can come back to Vsrc after
  an all-old layer — so ``prune`` is a no-op on such arrays (in the
  per-element loop too). On monotone arrays it also serves an early stop
  at a shallow depth ``S`` over a wide cone: ``S`` vectorized layers
  then cost less than the depth sets' Python work per edge (the
  break-even is :data:`LAYER_CALL_EDGES` / :data:`LAYER_EDGE_RATIO`).

``"bitset"`` / ``"roaring"`` run the layer loop per element over
:class:`ProvAdjacency` lists — the paper's Cbm ablation and the kernels'
oracle, nothing else.

The equivalence-class trick is only sound for the *pure label* grammar; the
property-constrained generalization (``activity_key``) refines same-depth
vertices into different classes, so this solver rejects it — use
:class:`repro.cfl.simprov_alg.SimProvAlg` for constrained queries.
"""

from __future__ import annotations

import time
from functools import reduce
from itertools import compress
from operator import or_
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


#: Break-even of the two monotone-array paths for a query that stops
#: early at depth S over a cone of E edges: S numpy layers cost about
#: ``S · (LAYER_CALL_EDGES + E)`` units, the depth sets' Python passes
#: ``LAYER_EDGE_RATIO · E``; the cheaper one runs. Fitted on Pd5k and
#: Pd20k cones (E from 30 to 24k edges) with CPython 3.11 and numpy 2.4,
#: where it picks the faster path or one within noise of it.
LAYER_CALL_EDGES = 3500
LAYER_EDGE_RATIO = 160


class SimProvTst:
    """Frontier-based ``L(SimProv)``-reachability, one pass per destination.

    Args:
        graph: the provenance graph.
        src_ids / dst_ids: the query entities.
        vertex_ok / edge_ok: inline boundary predicates.
        prune: enable frontier-level early stopping (a no-op unless the
            traversed ancestry is monotone).
        adjacency: pre-built :class:`ProvAdjacency` to reuse.
        snapshot: a :class:`repro.store.snapshot.GraphSnapshot`; when given
            (and no explicit ``adjacency``), the solver reads the
            snapshot's frozen CSR instead of rebuilding from the live store.
        collect_pairs: also materialize answer pairs (quadratic; tests only).
        set_impl: frontier implementation — ``"set"`` (default, the array
            kernels), or ``"bitset"`` / ``"roaring"`` (the paper's Cbm
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
        self._prune = prune and self._adj.monotone
        self._collect_pairs = collect_pairs
        self._max_layers = max_layers
        self._timeout = timeout_seconds

    def _new_set(self):
        """A fresh per-element frontier set (Cbm ablation only)."""
        if self._set_impl == "bitset":
            return IntBitSet(self._adj.n)
        return RoaringBitmap(self._adj.n)

    def _cap(self) -> int:
        """The layer loop's depth cap."""
        return (self._max_layers if self._max_layers is not None
                else self._adj.n + 1)

    def _check(self, deadline: float | None) -> None:
        if deadline is not None and time.perf_counter() > deadline:
            raise QueryTimeout(
                f"SimProvTst exceeded time budget ({self._timeout}s)"
            )

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
    # Array kernels (set_impl="set")
    # ------------------------------------------------------------------

    def _solve_one(self, vj: int, src_set: set[int], min_src_order: int,
                   collect_vertices: bool, result: SimProvResult,
                   deadline: float | None) -> None:
        self._check(deadline)
        cone = AncestryCone(self._adj, vj)
        grown = (self._depth_sets(cone, min_src_order, deadline)
                 if self._adj.monotone else None)
        if grown is None:
            self._solve_layers(cone, src_set, min_src_order,
                               collect_vertices, result, deadline)
        else:
            self._check(deadline)
            self._read_depth_sets(cone, *grown, src_set, collect_vertices,
                                  result)

    # ------------------------------------------------------------------
    # Depth-set kernel (set_impl="set", monotone arrays)
    # ------------------------------------------------------------------

    def _depth_sets(self, cone: AncestryCone, min_src_order: int,
                    deadline: float | None):
        """Grow ``cone`` and fill its depth sets; ``(depths, newest-first
        edges, early-stop depth or None)``, or None when the layer path is
        the cheaper one.

        ``depths[2 * v]`` / ``depths[2 * v + 1]``: the depths at which local
        vertex ``v`` sits in an entity / activity layer, as a bitset.
        """
        cap = self._cap()
        levels = None if self._max_layers is None else 2 * cap
        depths = [1, 0]
        if not self._prune:
            cone.grow_all(levels)
            edges = _newest_first(cone, *_state_edges(cone))
            _descend(depths, cone.size, *edges)
            return depths, edges, None
        # Grow until every vertex that could be a source is found; their
        # activity-side depths give the early-stop depth: the first layer
        # without one.
        cone.grow_all(levels, min_order=min_src_order)
        src, dst, shift = _state_edges(cone)
        young = cone.orders[src >> 1] >= min_src_order
        edges = _newest_first(cone, src[young], dst[young], shift[young])
        _descend(depths, cone.size, *edges)
        young_activities = compress(
            depths[1::2], (cone.orders >= min_src_order).tolist())
        prune_at = max(reduce(or_, young_activities, 0).bit_length(), 1)
        # The layers up to prune_at are in place after 2·prune_at - 1 BFS
        # levels: grow that far and no farther.
        levels = 2 * prune_at - 1 if levels is None \
            else min(levels, 2 * prune_at - 1)
        self._check(deadline)
        cone.grow_all(levels)
        edge_count = len(cone.g_src) + len(cone.u_src)
        if prune_at * (edge_count + LAYER_CALL_EDGES) \
                < LAYER_EDGE_RATIO * edge_count:
            return None
        src, dst, shift = _state_edges(cone)
        old = cone.orders[src >> 1] < min_src_order
        rest = _newest_first(cone, src[old], dst[old], shift[old])
        # Nothing deeper than the stop is read: keep the sets that short.
        _descend(depths, cone.size, *rest,
                 keep=(1 << min(prune_at, cap) + 1) - 1)
        # Every young source is newer than every old one: still newest
        # first.
        return depths, tuple(a + b for a, b in zip(edges, rest)), prune_at

    def _read_depth_sets(self, cone: AncestryCone, depths: list[int],
                         edges: tuple[list[int], list[int], list[int]],
                         prune_at: int | None, src_set: set[int],
                         collect_vertices: bool,
                         result: SimProvResult) -> None:
        """Answers and counters off the filled sets, as the layer loop
        would have found them."""
        stats = result.stats
        cap = self._cap()

        entity_side, activity_side = depths[0::2], depths[1::2]
        # The layer loop, replayed on the sets: depth d breaks before
        # completing when [a]_d is empty (a_end) or all old (prune_at),
        # and breaks after completing when [e]_d is empty.
        a_end = max(reduce(or_, activity_side, 0).bit_length(), 1)
        stop = a_end if prune_at is None else min(prune_at, a_end)
        e_end = reduce(or_, entity_side, 0).bit_length()
        last = min(stop, e_end, cap)
        done = last - 1 if last == stop else last
        stats.worklist_pops += last
        if last == stop < a_end:
            stats.pruned += 1
        completed = (1 << (done + 1)) - 2                 # depths 1..done
        stats.facts_activity += sum(map(int.bit_count,
                                        map(completed.__and__,
                                            activity_side)))
        stats.facts_entity += sum(map(int.bit_count,
                                      map(completed.__and__, entity_side)))

        src_local = cone.locate(
            np.fromiter(src_set, np.int64, len(src_set))).tolist()
        valid = reduce(or_, (entity_side[s] for s in src_local), 0) \
            & completed
        if not valid:
            return
        ids = cone.ids
        similar = list(compress(range(cone.size),
                                map(valid.__and__, entity_side)))
        result.sources_matched.update(
            ids[[s for s in src_local if entity_side[s] & valid]].tolist())
        result.similar_entities.update(ids[similar].tolist())
        if result.answer_pairs is not None:
            for depth in range(1, done + 1):
                if not valid >> depth & 1:
                    continue
                targets = ids[[v for v in similar
                               if entity_side[v] >> depth & 1]].tolist()
                for vi in ids[[s for s in src_local
                               if entity_side[s] >> depth & 1]].tolist():
                    for vt in targets:
                        pair = (vi, vt) if vi <= vt else (vt, vi)
                        result.answer_pairs.add(pair)
        if collect_vertices:
            result.path_vertices.update(
                ids[_on_path(depths, valid, *edges)].tolist())

    # ------------------------------------------------------------------
    # Layer kernel (set_impl="set": any arrays, shallow stops)
    # ------------------------------------------------------------------

    def _solve_layers(self, cone: AncestryCone, src_set: set[int],
                      min_src_order: int, collect_vertices: bool,
                      result: SimProvResult,
                      deadline: float | None) -> None:
        """One numpy layer per depth over ``cone`` (grown here as the
        layers need it, if not already)."""
        stats = result.stats
        src_ids = np.fromiter(src_set, np.int64, len(src_set))
        src_local = cone.locate(src_ids)

        frontier_e = np.zeros(cone.size, dtype=bool)
        frontier_e[0] = True                          # local id 0 is v_j
        # Layers are kept bit-packed: ~cone/8 bytes each, not cone bytes.
        entity_layers = [np.packbits(frontier_e)]
        activity_layers = [entity_layers[0]]          # index 0 unused
        valid_depths: list[int] = []

        depth = 0
        cap = self._cap()
        while depth < cap:
            self._check(deadline)
            depth += 1
            size = cone.size
            cone.grow_all(2 * depth - 1)
            frontier_a = np.zeros(cone.size, dtype=bool)
            frontier_a[cone.g_dst[frontier_e[cone.g_src]]] = True
            stats.worklist_pops += 1
            count_a = int(np.count_nonzero(frontier_a))
            if not count_a:
                break
            # Early stop: all frontier activities predate every Vsrc entity,
            # so (on monotone arrays) no deeper frontier can hold one.
            if self._prune and cone.orders[frontier_a].max() < min_src_order:
                stats.pruned += 1
                break
            cone.grow_all(2 * depth)
            if cone.size != size:
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
        cap = self._cap()
        while depth < cap:
            self._check(deadline)
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


def _state_edges(cone: AncestryCone) -> tuple[np.ndarray, np.ndarray,
                                               np.ndarray]:
    """The cone's edges between states, with their depth shifts.

    State ``2 * v`` is local vertex ``v`` on the entity side of a layer,
    ``2 * v + 1`` on the activity side. A G edge enters the next depth
    (shift 1), a U edge stays at its activity's depth (shift 0).
    """
    src = np.concatenate([2 * cone.g_src, 2 * cone.u_src + 1])
    dst = np.concatenate([2 * cone.g_dst + 1, 2 * cone.u_dst])
    shift = np.zeros(len(src), dtype=np.int64)
    shift[:len(cone.g_src)] = 1
    return src, dst, shift


def _newest_first(cone: AncestryCone, src: np.ndarray, dst: np.ndarray,
                  shift: np.ndarray) -> tuple[list[int], list[int],
                                              list[int]]:
    """The edges as lists, sorted by their source's order, newest first."""
    order = np.argsort(-cone.orders[src >> 1], kind="stable")
    return src[order].tolist(), dst[order].tolist(), shift[order].tolist()


def _descend(depths: list[int], size: int, src: list[int], dst: list[int],
             shift: list[int], keep: int = -1) -> None:
    """Forward pass: fold newest-first edges into the depth sets of a cone
    of ``size`` vertices, dropping depths not in ``keep``.

    On monotone arrays every edge into a state comes from a newer vertex,
    so a state's set is final before its own edges are read. A second
    call may only add edges out of states whose edges no earlier call
    read.
    """
    depths.extend([0] * (2 * size - len(depths)))
    for s, t, k in zip(src, dst, shift):
        depths[t] |= depths[s] << k & keep


def _on_path(depths: list[int], valid: int, src: list[int], dst: list[int],
             shift: list[int]) -> list[int]:
    """Backward pass over newest-first edges: local ids of the vertices on
    accepted paths.

    ``live[x]`` is the part of ``depths[x]`` on a descent that completes at
    a valid depth: an entity-side state is live at its valid depths and
    wherever a live generating activity sits one depth below
    (``live[e] = D[e] & (valid | OR live[a] >> 1)``); an activity-side
    state wherever it uses a live entity (``live[a] = D[a] & OR
    live[e]``). Oldest source first, every target is final when read.
    """
    live = [0] * len(depths)
    live[0::2] = map(valid.__and__, depths[0::2])
    for s, t, k in zip(reversed(src), reversed(dst), reversed(shift)):
        bits = live[t]
        if bits:
            live[s] |= depths[s] & (bits >> k)
    return list(compress(range(len(live) // 2),
                         map(or_, live[0::2], live[1::2])))


def solve_simprov_tst(graph: ProvenanceGraph, src_ids: Iterable[int],
                      dst_ids: Iterable[int], **kwargs) -> SimProvResult:
    """One-shot convenience wrapper around :class:`SimProvTst`."""
    collect = kwargs.pop("collect_vertices", True)
    return SimProvTst(graph, src_ids, dst_ids, **kwargs).solve(collect)
