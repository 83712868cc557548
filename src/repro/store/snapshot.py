"""Read-optimized frozen query snapshots of a :class:`PropertyGraphStore`.

The ROADMAP's north-star workload is read-heavy: many analysts asking
lineage/segmentation/summarization questions over a provenance log that is
appended to comparatively rarely. Every query walking the live, mutable
adjacency dicts pays per-query store round-trips and (for the CFL solvers)
an O(V+E) adjacency rebuild. :class:`GraphSnapshot` freezes the store once
into immutable CSR arrays (:mod:`repro.store.csr`) plus cheap Python list
views, and every query facility in the repo accepts it via a ``snapshot=``
parameter:

- :mod:`repro.query.ops` lineage/impact/blame walks,
- the PgSeg induction rules (:mod:`repro.segment.induce`,
  :class:`repro.segment.pgseg.PgSegOperator`),
- the SimProv CFL solvers (both array kernels borrow the ancestry CSR
  rows; the per-element Cbm ablation loops reuse one cached
  :class:`repro.cfl.adjacency.ProvAdjacency` across queries),
- the CypherLite evaluator's scans and expansions.

Freshness is tracked with the store's **epoch** counter: the snapshot
records ``store.epoch`` at capture time, and :attr:`GraphSnapshot.is_fresh`
is False as soon as any mutation lands. Stale snapshots still answer
queries — they describe the graph as of their epoch — but epoch-aware
caches (:class:`repro.session.LifecycleSession`) recapture automatically.

Vertex and edge *property* reads go through the captured record references,
which are shared with the store; a property update therefore shows through a
stale snapshot (and bumps the epoch, flagging the staleness). Structure
(vertex/edge existence, adjacency, ordinals) is fully frozen.

Recapture is **incremental**: :meth:`GraphSnapshot.advance` replays the
store's bounded delta log (:mod:`repro.store.delta`) to patch a stale
snapshot forward — appending to CSR tails for pure adds, rebuilding only the
affected per-edge-type slices for removals, and patching (or invalidating)
the cached :class:`ProvAdjacency` — falling back to a full O(V+E) rebuild
only when the delta span is large relative to the graph (the crossover
policy) or the log was truncated. The advanced snapshot is a *new* object;
the stale one keeps answering for its own epoch (time-travel reads).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import EdgeNotFound, VertexNotFound
from repro.model.types import EdgeType, VertexType
from repro.store.csr import (
    VERTEX_TYPE_CODES,
    CsrAdjacency,
    GraphSnapshot as _CsrSnapshot,
)
from repro.store.delta import Delta, DeltaBatch, DeltaOp
from repro.store.records import EdgeRecord, VertexRecord
from repro.store.store import PropertyGraphStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cfl.adjacency import AncestryArrays, ProvAdjacency

#: Inverse of :data:`repro.store.csr.VERTEX_TYPE_CODES`.
CODE_TO_VERTEX_TYPE: dict[int, VertexType] = {
    code: vt for vt, code in VERTEX_TYPE_CODES.items()
}

#: Crossover policy for :meth:`GraphSnapshot.advance`: fall back to a full
#: rebuild once the delta span exceeds ``max(MIN_CROSSOVER_RECORDS,
#: (live vertices + live edges) // CROSSOVER_DENOMINATOR)`` records.
CROSSOVER_DENOMINATOR = 8
MIN_CROSSOVER_RECORDS = 64


def default_crossover(store: PropertyGraphStore) -> int:
    """The delta-record budget below which patching beats a full rebuild.

    Shared by :meth:`GraphSnapshot.advance` and the serving layer's replica
    catch-up (:mod:`repro.serve.replication`), so both read paths switch to
    a full recapture at the same point.
    """
    return max(
        MIN_CROSSOVER_RECORDS,
        (store.vertex_count + store.edge_count) // CROSSOVER_DENOMINATOR,
    )


VertexPredicate = Callable[[VertexRecord], bool]
EdgePredicate = Callable[[EdgeRecord], bool]


def _patch_csr(old: CsrAdjacency, new_n: int, add_rows: np.ndarray,
               add_cols: np.ndarray, add_eids: np.ndarray,
               removed_ids: list[int]) -> CsrAdjacency:
    """Patch one CSR direction with added/removed edges.

    Pure adds whose rows all lie past the old matrix (the provenance-append
    pattern: new edges depart new vertices) take an O(adds) tail append.
    Anything else — removals, or adds landing mid-matrix — rebuilds this one
    edge type's slice with a stable numpy merge, keeping each row's entries
    in store insertion order (ascending edge id).
    """
    old_rows_n = len(old.indptr) - 1
    append_only = not removed_ids and (
        len(add_rows) == 0 or int(add_rows.min()) >= old_rows_n
    )
    if append_only:
        order = np.argsort(add_rows, kind="stable")
        tail_counts = np.bincount(add_rows - old_rows_n,
                                  minlength=new_n - old_rows_n)
        indptr = np.concatenate(
            [old.indptr, old.indptr[-1] + np.cumsum(tail_counts)]
        )
        indices = np.concatenate([old.indices, add_cols[order]])
        edge_ids = np.concatenate([old.edge_ids, add_eids[order]])
        return CsrAdjacency(indptr, indices, edge_ids)

    old_rows = np.repeat(np.arange(old_rows_n, dtype=np.int64),
                         np.diff(old.indptr))
    old_cols = old.indices
    old_eids = old.edge_ids
    if removed_ids:
        keep = ~np.isin(old_eids, np.asarray(removed_ids, dtype=np.int64))
        old_rows = old_rows[keep]
        old_cols = old_cols[keep]
        old_eids = old_eids[keep]
    rows = np.concatenate([old_rows, add_rows])
    # Stable sort keeps surviving old entries first (already in ascending
    # edge-id order per row) and appends new entries in commit order after.
    order = np.argsort(rows, kind="stable")
    counts = np.bincount(rows, minlength=new_n)
    indptr = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
    )
    indices = np.concatenate([old_cols, add_cols])[order]
    edge_ids = np.concatenate([old_eids, add_eids])[order]
    return CsrAdjacency(indptr, indices, edge_ids)


def _extend_rows(old: CsrAdjacency, new_n: int) -> CsrAdjacency:
    """An untouched adjacency widened to ``new_n`` rows (shares arrays)."""
    if len(old.indptr) - 1 == new_n:
        return old
    pad = np.full(new_n - (len(old.indptr) - 1), old.indptr[-1],
                  dtype=np.int64)
    return CsrAdjacency(np.concatenate([old.indptr, pad]),
                        old.indices, old.edge_ids)


class GraphSnapshot(_CsrSnapshot):
    """Immutable, read-optimized view of a store at one epoch.

    Extends the CSR kernel snapshot of :mod:`repro.store.csr` with

    - the capture **epoch** (:attr:`epoch`, :attr:`is_fresh`);
    - O(1) vertex/edge **record** access mirroring the store API
      (:meth:`vertex`, :meth:`edge`, :meth:`vertex_type`, :meth:`order_of`);
    - **label scans** in creation-ordinal order (:meth:`vertex_ids`,
      :meth:`count_vertices`), which the SimProv early-stop rule and the
      CypherLite planner rely on;
    - per-edge-type **edge-id adjacency** (:meth:`out_edges`,
      :meth:`in_edges`) and lazily materialized Python list views
      (:meth:`out_lists`, :meth:`in_lists`, ...) for tight pure-Python
      loops;
    - the CFL solvers' ancestry views: borrowed CSR rows for the SimProv
      array kernels (:meth:`ancestry_arrays`, O(1)) and a cached, reusable
      :class:`~repro.cfl.adjacency.ProvAdjacency` (:meth:`prov_adjacency`)
      for their per-element Cbm ablation loops.

    Args:
        source: a :class:`PropertyGraphStore` or anything exposing a
            ``.store`` attribute (e.g. a
            :class:`repro.model.graph.ProvenanceGraph`).
        edge_types: restrict materialization to these edge types (all five
            by default; restricted snapshots answer only matching queries).
    """

    def __init__(self, source, edge_types: Sequence[EdgeType] | None = None):
        store: PropertyGraphStore = getattr(source, "store", source)
        super().__init__(store, edge_types)
        self.store = store
        self.epoch = store.epoch
        #: Epoch this snapshot was incrementally advanced from, or None for
        #: a full capture (set by :meth:`advance`; useful for tests/benches).
        self.advanced_from: int | None = None

        self._vertex_records: list[VertexRecord | None] = [None] * self.n
        self._ids_by_type: dict[VertexType, list[int]] = {
            vt: [] for vt in VertexType
        }
        for record in store.vertices():
            self._vertex_records[record.vertex_id] = record
            self._ids_by_type[record.vertex_type].append(record.vertex_id)
        # Store ids are handed out in creation order, so sorting by id gives
        # creation-ordinal order — what the early-stop rule needs.
        for ids in self._ids_by_type.values():
            ids.sort()
        self._live_vertex_count = sum(
            len(ids) for ids in self._ids_by_type.values()
        )

        m = store.edge_capacity
        self.edge_src = np.full(m, -1, dtype=np.int64)
        self.edge_dst = np.full(m, -1, dtype=np.int64)
        self._edge_records: list[EdgeRecord | None] = [None] * m
        self._edge_types: list[EdgeType | None] = [None] * m
        wanted = set(self.forward)
        for record in store.edges():
            if record.edge_type not in wanted:
                continue
            self._edge_records[record.edge_id] = record
            self._edge_types[record.edge_id] = record.edge_type
            self.edge_src[record.edge_id] = record.src
            self.edge_dst[record.edge_id] = record.dst

        # All-type incident edge lists, captured in the store's own
        # iteration order (per-vertex bucket order, not edge-type enum
        # order) so untyped traversals enumerate identically to the live
        # path.
        live_edge = self._edge_records
        self._out_all: list[list[int]] = [[] for _ in range(self.n)]
        self._in_all: list[list[int]] = [[] for _ in range(self.n)]
        for record in store.vertices():
            vertex_id = record.vertex_id
            self._out_all[vertex_id] = [
                edge_id for edge_id in store.out_edge_ids(vertex_id)
                if live_edge[edge_id] is not None
            ]
            self._in_all[vertex_id] = [
                edge_id for edge_id in store.in_edge_ids(vertex_id)
                if live_edge[edge_id] is not None
            ]
        self._all_vertex_ids: list[int] | None = None

        # Lazily materialized list views, keyed by edge type.
        self._out_lists: dict[EdgeType, list[list[int]]] = {}
        self._in_lists: dict[EdgeType, list[list[int]]] = {}
        self._out_edge_lists: dict[EdgeType, list[list[int]]] = {}
        self._in_edge_lists: dict[EdgeType, list[list[int]]] = {}
        self._prov_adjacency: "ProvAdjacency | None" = None
        self._ancestry_monotone: bool | None = None

    # ------------------------------------------------------------------
    # Freshness
    # ------------------------------------------------------------------

    @property
    def is_fresh(self) -> bool:
        """True while the store has not mutated since capture."""
        return self.store.epoch == self.epoch

    # ------------------------------------------------------------------
    # Incremental recapture
    # ------------------------------------------------------------------

    def advance(self, source=None, *,
                crossover: int | None = None) -> "GraphSnapshot":
        """A snapshot at the store's current epoch, patched when cheap.

        Replays the store's delta log over the span between this snapshot's
        epoch and the store's epoch. When the span is small relative to the
        graph (see ``crossover``), the result is a *new* snapshot produced
        by patching only the affected state: CSR tail appends for pure
        adds, per-edge-type slice rebuilds for removals, per-vertex
        incident-list recomputation, and a patched (or dropped) cached
        :class:`ProvAdjacency`. Falls back to a full rebuild when the log
        was truncated, the span exceeds the crossover threshold, or
        ``source`` is a different store.

        This snapshot is never mutated — it keeps answering for its own
        epoch, and repeated ``advance()`` on a fresh snapshot returns
        ``self``.

        Args:
            source: store (or graph) to advance against; defaults to the
                captured store.
            crossover: max delta records to patch through before falling
                back to a full rebuild. Defaults to
                ``max(MIN_CROSSOVER_RECORDS, (V + E) // CROSSOVER_DENOMINATOR)``.
        """
        store = self.store if source is None \
            else getattr(source, "store", source)
        wanted = list(self.forward)
        if store is not self.store:
            return GraphSnapshot(store, wanted)
        if store.epoch == self.epoch:
            return self
        batches = store.delta_log.batches_since(self.epoch)
        # Span not in the log (truncated, rebased), or not starting at
        # the batch after this epoch.
        if not batches or batches[0].epoch != self.epoch + 1:
            return GraphSnapshot(store, wanted)
        # Only structural deltas cost patch work; SET_* records read
        # through shared store records and must not trigger the fallback.
        span = sum(
            1 for batch in batches for delta in batch.deltas
            if delta.op not in (DeltaOp.SET_VERTEX_PROPERTY,
                                DeltaOp.SET_EDGE_PROPERTY)
        )
        if crossover is None:
            crossover = default_crossover(store)
        if span > crossover:
            return GraphSnapshot(store, wanted)
        return self._patched(store, batches)

    def _patched(self, store: PropertyGraphStore,
                 batches: list[DeltaBatch]) -> "GraphSnapshot":
        """Build the advanced snapshot by replaying ``batches`` onto self."""
        wanted = set(self.forward)
        old_n, new_n = self.n, store.vertex_capacity
        old_m, new_m = len(self._edge_records), store.edge_capacity

        # Net effect of the span. An element added then removed inside the
        # span (a "ghost") stays invisible, but still widens the id space.
        vertex_adds: dict[int, Delta] = {}
        vertex_removes: dict[int, Delta] = {}
        edge_adds: dict[int, Delta] = {}
        edge_removes: dict[int, Delta] = {}
        for batch in batches:
            for delta in batch.deltas:
                if delta.op is DeltaOp.ADD_VERTEX:
                    vertex_adds[delta.subject_id] = delta
                elif delta.op is DeltaOp.REMOVE_VERTEX:
                    if delta.subject_id in vertex_adds:
                        del vertex_adds[delta.subject_id]
                    else:
                        vertex_removes[delta.subject_id] = delta
                elif delta.op is DeltaOp.ADD_EDGE:
                    if delta.edge_type in wanted:
                        edge_adds[delta.subject_id] = delta
                elif delta.op is DeltaOp.REMOVE_EDGE:
                    if delta.edge_type in wanted:
                        if delta.subject_id in edge_adds:
                            del edge_adds[delta.subject_id]
                        else:
                            edge_removes[delta.subject_id] = delta
                # SET_*: property reads share store records; no structure.

        if (not (vertex_adds or vertex_removes or edge_adds or edge_removes)
                and old_n == new_n and old_m == new_m):
            # Property-only span: values read through the shared records,
            # so the advanced snapshot can share every frozen structure —
            # O(1) instead of O(V+E) shallow copies. A span whose net
            # effect is empty but contained ghosts (add+remove) must NOT
            # share: the id space widened and dead rows need materializing.
            return self._shared_at(batches[-1].epoch)

        new = type(self).__new__(type(self))
        new.store = store
        new.epoch = batches[-1].epoch
        new.advanced_from = self.epoch
        new.n = new_n

        # -- vertex state ---------------------------------------------
        grow_v = new_n - old_n
        if grow_v:
            vertex_codes = np.concatenate(
                [self.vertex_codes, np.full(grow_v, -1, dtype=np.int8)]
            )
            orders = np.concatenate(
                [self.orders, np.full(grow_v, -1, dtype=np.int64)]
            )
        else:
            vertex_codes = self.vertex_codes.copy()
            orders = self.orders.copy()
        vertex_records = self._vertex_records + [None] * grow_v
        ids_by_type = {
            vt: list(ids) for vt, ids in self._ids_by_type.items()
        }
        for vid, delta in vertex_adds.items():
            vertex_codes[vid] = VERTEX_TYPE_CODES[delta.vertex_type]
            orders[vid] = delta.order
            vertex_records[vid] = store.vertex(vid)
            ids_by_type[delta.vertex_type].append(vid)  # ids ascend: sorted
        for vid, delta in vertex_removes.items():
            vertex_codes[vid] = -1
            orders[vid] = -1
            vertex_records[vid] = None
            ids_by_type[delta.vertex_type].remove(vid)
        new.vertex_codes = vertex_codes
        new.orders = orders
        new._vertex_records = vertex_records
        new._ids_by_type = ids_by_type
        new._live_vertex_count = sum(
            len(ids) for ids in ids_by_type.values()
        )
        new._all_vertex_ids = None

        # -- edge state -----------------------------------------------
        grow_e = new_m - old_m
        if grow_e:
            edge_src = np.concatenate(
                [self.edge_src, np.full(grow_e, -1, dtype=np.int64)]
            )
            edge_dst = np.concatenate(
                [self.edge_dst, np.full(grow_e, -1, dtype=np.int64)]
            )
        else:
            edge_src = self.edge_src.copy()
            edge_dst = self.edge_dst.copy()
        edge_records = self._edge_records + [None] * grow_e
        edge_type_of = self._edge_types + [None] * grow_e
        for eid, delta in edge_adds.items():
            edge_src[eid] = delta.src
            edge_dst[eid] = delta.dst
            edge_records[eid] = store.edge(eid)
            edge_type_of[eid] = delta.edge_type
        for eid, delta in edge_removes.items():
            edge_src[eid] = -1
            edge_dst[eid] = -1
            edge_records[eid] = None
            edge_type_of[eid] = None
        new.edge_src = edge_src
        new.edge_dst = edge_dst
        new._edge_records = edge_records
        new._edge_types = edge_type_of

        # -- per-edge-type CSR slices ---------------------------------
        adds_by_type: dict[EdgeType, list[Delta]] = {}
        removes_by_type: dict[EdgeType, list[Delta]] = {}
        for delta in edge_adds.values():
            adds_by_type.setdefault(delta.edge_type, []).append(delta)
        for delta in edge_removes.values():
            removes_by_type.setdefault(delta.edge_type, []).append(delta)
        touched = set(adds_by_type) | set(removes_by_type)
        forward: dict[EdgeType, CsrAdjacency] = {}
        backward: dict[EdgeType, CsrAdjacency] = {}
        for et in self.forward:
            if et not in touched:
                forward[et] = _extend_rows(self.forward[et], new_n)
                backward[et] = _extend_rows(self.backward[et], new_n)
                continue
            adds = adds_by_type.get(et, [])
            removed = [d.subject_id for d in removes_by_type.get(et, [])]
            add_src = np.fromiter((d.src for d in adds), np.int64, len(adds))
            add_dst = np.fromiter((d.dst for d in adds), np.int64, len(adds))
            add_eid = np.fromiter((d.subject_id for d in adds), np.int64,
                                  len(adds))
            forward[et] = _patch_csr(self.forward[et], new_n,
                                     add_src, add_dst, add_eid, removed)
            backward[et] = _patch_csr(self.backward[et], new_n,
                                      add_dst, add_src, add_eid, removed)
        new.forward = forward
        new.backward = backward
        # Derived from the patched CSR on first use, not here.
        new._ancestry_monotone = None

        # -- cached list views (patched only where materialized) ------
        new._out_lists = {}
        new._in_lists = {}
        new._out_edge_lists = {}
        new._in_edge_lists = {}

        def patched_view(old_view: list[list[int]] | None, adj: CsrAdjacency,
                         rows: set[int], as_edges: bool,
                         ) -> list[list[int]] | None:
            if old_view is None:
                return None
            if not rows and len(old_view) == new_n:
                return old_view
            view = old_view + [[] for _ in range(new_n - len(old_view))]
            for row in rows:
                values = adj.edge_ids_of(row) if as_edges \
                    else adj.neighbors(row)
                view[row] = values.tolist()
            return view

        for et in self.forward:
            rows_fwd = {d.src for d in adds_by_type.get(et, [])}
            rows_fwd.update(d.src for d in removes_by_type.get(et, []))
            rows_bwd = {d.dst for d in adds_by_type.get(et, [])}
            rows_bwd.update(d.dst for d in removes_by_type.get(et, []))
            for old_cache, new_cache, adj, rows, as_edges in (
                (self._out_lists, new._out_lists, forward[et],
                 rows_fwd, False),
                (self._in_lists, new._in_lists, backward[et],
                 rows_bwd, False),
                (self._out_edge_lists, new._out_edge_lists, forward[et],
                 rows_fwd, True),
                (self._in_edge_lists, new._in_edge_lists, backward[et],
                 rows_bwd, True),
            ):
                view = patched_view(old_cache.get(et), adj, rows, as_edges)
                if view is not None:
                    new_cache[et] = view

        # -- untyped incident lists (store order) ---------------------
        affected = set(vertex_removes)
        for delta in edge_adds.values():
            affected.add(delta.src)
            affected.add(delta.dst)
        for delta in edge_removes.values():
            affected.add(delta.src)
            affected.add(delta.dst)
        out_all = self._out_all + [[] for _ in range(grow_v)]
        in_all = self._in_all + [[] for _ in range(grow_v)]
        for vid in affected:
            if vid in store:
                out_all[vid] = [
                    eid for eid in store.out_edge_ids(vid)
                    if edge_records[eid] is not None
                ]
                in_all[vid] = [
                    eid for eid in store.in_edge_ids(vid)
                    if edge_records[eid] is not None
                ]
            else:
                out_all[vid] = []
                in_all[vid] = []
        new._out_all = out_all
        new._in_all = in_all

        # -- cached CFL adjacency -------------------------------------
        new._prov_adjacency = self._patch_prov_adjacency(
            new_n, vertex_adds, vertex_removes, adds_by_type,
            removes_by_type,
        )
        return new

    def _shared_at(self, epoch: int) -> "GraphSnapshot":
        """A snapshot at ``epoch`` sharing all frozen structure.

        Valid only when the delta span contained no structural change.
        Frozen arrays and list views are immutable after construction, and
        the lazy cache dicts are shared deliberately: both snapshots
        describe identical structure, so a view materialized through
        either is correct for both.
        """
        new = type(self).__new__(type(self))
        for key, value in self.__dict__.items():
            new.__dict__[key] = value
        new.epoch = epoch
        new.advanced_from = self.epoch
        return new

    def _patch_prov_adjacency(self, new_n: int,
                              vertex_adds: dict[int, Delta],
                              vertex_removes: dict[int, Delta],
                              adds_by_type: dict[EdgeType, list[Delta]],
                              removes_by_type: dict[EdgeType, list[Delta]],
                              ) -> "ProvAdjacency | None":
        """Patched copy of the cached ancestry adjacency, or None.

        Pure appends (new vertices, new G/U edges) and agent-only removals
        patch the cache forward with copy-on-write rows; any removal that
        touches ancestry structure drops the cache so the next query
        rebuilds it lazily from the already-patched CSR views.
        """
        old = self._prov_adjacency
        if old is None:
            return None
        from repro.cfl.adjacency import ProvAdjacency

        ancestry = (EdgeType.WAS_GENERATED_BY, EdgeType.USED)
        if any(et in removes_by_type for et in ancestry):
            return None
        if any(d.vertex_type is not VertexType.AGENT
               for d in vertex_removes.values()):
            return None

        grow = new_n - old.n
        gen_acts = old.gen_acts + [[] for _ in range(grow)]
        user_acts = old.user_acts + [[] for _ in range(grow)]
        used_ents = old.used_ents + [[] for _ in range(grow)]
        gen_ents = old.gen_ents + [[] for _ in range(grow)]
        orders = old.orders + [-1] * grow
        entity_ids = list(old.entity_ids)
        activity_ids = list(old.activity_ids)
        for vid, delta in vertex_adds.items():
            orders[vid] = delta.order
            if delta.vertex_type is VertexType.ENTITY:
                entity_ids.append(vid)
            elif delta.vertex_type is VertexType.ACTIVITY:
                activity_ids.append(vid)
        for vid in vertex_removes:                # agent-only by the guard
            orders[vid] = -1

        copied: set[tuple[int, int]] = set()

        def cow_append(lists: list[list[int]], slot: int, row: int,
                       value: int) -> None:
            # Inner rows are shared with the old adjacency until written.
            if (slot, row) not in copied:
                lists[row] = list(lists[row])
                copied.add((slot, row))
            lists[row].append(value)

        edge_total_g = old.edge_total_g
        edge_total_u = old.edge_total_u
        for delta in adds_by_type.get(EdgeType.WAS_GENERATED_BY, []):
            cow_append(gen_acts, 0, delta.src, delta.dst)
            cow_append(gen_ents, 1, delta.dst, delta.src)
            edge_total_g += 1
        for delta in adds_by_type.get(EdgeType.USED, []):
            cow_append(used_ents, 2, delta.src, delta.dst)
            cow_append(user_acts, 3, delta.dst, delta.src)
            edge_total_u += 1

        return ProvAdjacency(
            n=new_n,
            gen_acts=gen_acts,
            user_acts=user_acts,
            used_ents=used_ents,
            gen_ents=gen_ents,
            orders=orders,
            entity_ids=entity_ids,
            activity_ids=activity_ids,
            edge_total_g=edge_total_g,
            edge_total_u=edge_total_u,
        )

    # ------------------------------------------------------------------
    # Record access (mirrors the store API)
    # ------------------------------------------------------------------

    def __contains__(self, vertex_id: int) -> bool:
        return (
            0 <= vertex_id < self.n
            and self._vertex_records[vertex_id] is not None
        )

    def has_edge_id(self, edge_id: int) -> bool:
        """True if ``edge_id`` was live (and materialized) at capture."""
        return (
            0 <= edge_id < len(self._edge_records)
            and self._edge_records[edge_id] is not None
        )

    def vertex(self, vertex_id: int) -> VertexRecord:
        """Captured vertex record (O(1))."""
        if 0 <= vertex_id < self.n:
            record = self._vertex_records[vertex_id]
            if record is not None:
                return record
        raise VertexNotFound(vertex_id)

    def edge(self, edge_id: int) -> EdgeRecord:
        """Captured edge record (O(1))."""
        if 0 <= edge_id < len(self._edge_records):
            record = self._edge_records[edge_id]
            if record is not None:
                return record
        raise EdgeNotFound(edge_id)

    def vertex_type(self, vertex_id: int) -> VertexType:
        """PROV type of a captured vertex."""
        return self.vertex(vertex_id).vertex_type

    def order_of(self, vertex_id: int) -> int:
        """Creation ordinal of a captured vertex."""
        return self.vertex(vertex_id).order

    # The CSR base class implements is_entity/is_activity as silent numpy
    # code checks for kernel loops. Query-facing callers need the store's
    # contract instead — raise VertexNotFound on dead/unknown ids — so the
    # rich snapshot overrides them with record-backed versions (the kernels
    # read vertex_codes directly and are unaffected).

    def is_entity(self, vertex_id: int) -> bool:
        """True if ``vertex_id`` is an entity; raises on dead/unknown ids."""
        return self.vertex(vertex_id).vertex_type is VertexType.ENTITY

    def is_activity(self, vertex_id: int) -> bool:
        """True if ``vertex_id`` is an activity; raises on dead/unknown ids."""
        return self.vertex(vertex_id).vertex_type is VertexType.ACTIVITY

    def is_agent(self, vertex_id: int) -> bool:
        """True if ``vertex_id`` is an agent; raises on dead/unknown ids."""
        return self.vertex(vertex_id).vertex_type is VertexType.AGENT

    # ------------------------------------------------------------------
    # Label scans
    # ------------------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        """Number of live vertices at capture."""
        return self._live_vertex_count

    def vertex_ids(self, vertex_type: VertexType | None = None) -> list[int]:
        """Live vertex ids in creation order, optionally by type."""
        if vertex_type is not None:
            return self._ids_by_type[vertex_type]
        if self._all_vertex_ids is None:
            merged: list[int] = []
            for ids in self._ids_by_type.values():
                merged.extend(ids)
            merged.sort()
            self._all_vertex_ids = merged
        return self._all_vertex_ids

    def count_vertices(self, vertex_type: VertexType) -> int:
        """Number of live vertices of one type at capture (O(1))."""
        return len(self._ids_by_type[vertex_type])

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------

    def out_lists(self, edge_type: EdgeType) -> list[list[int]]:
        """Out-neighbor vertex ids per vertex (cached list view)."""
        lists = self._out_lists.get(edge_type)
        if lists is None:
            lists = self.forward[edge_type].neighbor_lists()
            self._out_lists[edge_type] = lists
        return lists

    def in_lists(self, edge_type: EdgeType) -> list[list[int]]:
        """In-neighbor vertex ids per vertex (cached list view)."""
        lists = self._in_lists.get(edge_type)
        if lists is None:
            lists = self.backward[edge_type].neighbor_lists()
            self._in_lists[edge_type] = lists
        return lists

    def out_edge_lists(self, edge_type: EdgeType) -> list[list[int]]:
        """Outgoing edge ids per vertex, parallel to :meth:`out_lists`."""
        lists = self._out_edge_lists.get(edge_type)
        if lists is None:
            lists = self.forward[edge_type].edge_id_lists()
            self._out_edge_lists[edge_type] = lists
        return lists

    def in_edge_lists(self, edge_type: EdgeType) -> list[list[int]]:
        """Incoming edge ids per vertex, parallel to :meth:`in_lists`."""
        lists = self._in_edge_lists.get(edge_type)
        if lists is None:
            lists = self.backward[edge_type].edge_id_lists()
            self._in_edge_lists[edge_type] = lists
        return lists

    def out_edges(self, vertex_id: int,
                  edge_type: EdgeType | None = None) -> list[int]:
        """Outgoing edge ids, optionally restricted by type.

        The untyped form enumerates in the live store's order.
        """
        if edge_type is not None:
            return self.out_edge_lists(edge_type)[vertex_id]
        return self._out_all[vertex_id]

    def in_edges(self, vertex_id: int,
                 edge_type: EdgeType | None = None) -> list[int]:
        """Incoming edge ids, optionally restricted by type.

        The untyped form enumerates in the live store's order.
        """
        if edge_type is not None:
            return self.in_edge_lists(edge_type)[vertex_id]
        return self._in_all[vertex_id]

    def out_neighbors(self, vertex_id: int,
                      edge_type: EdgeType | None = None) -> list[int]:
        """Target vertex ids of outgoing edges (live-store order)."""
        if edge_type is not None:
            return self.out_lists(edge_type)[vertex_id]
        edge_dst = self.edge_dst
        return [int(edge_dst[e]) for e in self._out_all[vertex_id]]

    def in_neighbors(self, vertex_id: int,
                     edge_type: EdgeType | None = None) -> list[int]:
        """Source vertex ids of incoming edges (live-store order)."""
        if edge_type is not None:
            return self.in_lists(edge_type)[vertex_id]
        edge_src = self.edge_src
        return [int(edge_src[e]) for e in self._in_all[vertex_id]]

    def edge_endpoints(self, edge_id: int) -> tuple[int, int]:
        """``(src, dst)`` of a captured edge without touching the store."""
        if not self.has_edge_id(edge_id):
            raise EdgeNotFound(edge_id)
        return int(self.edge_src[edge_id]), int(self.edge_dst[edge_id])

    def edge_type_of(self, edge_id: int) -> EdgeType:
        """Edge type of a captured edge."""
        if not self.has_edge_id(edge_id):
            raise EdgeNotFound(edge_id)
        return self._edge_types[edge_id]  # type: ignore[return-value]

    def agents_of(self, vertex_id: int) -> list[int]:
        """Responsible agents of a vertex (via S or A edges)."""
        code = self.vertex_codes[vertex_id]
        if code == VERTEX_TYPE_CODES[VertexType.ACTIVITY]:
            return self.forward[EdgeType.WAS_ASSOCIATED_WITH].neighbors(
                vertex_id).tolist()
        if code == VERTEX_TYPE_CODES[VertexType.ENTITY]:
            return self.forward[EdgeType.WAS_ATTRIBUTED_TO].neighbors(
                vertex_id).tolist()
        return []

    # ------------------------------------------------------------------
    # Subgraphs
    # ------------------------------------------------------------------

    def induced_edge_ids(self, vertex_ids: Iterable[int]) -> list[int]:
        """Edge ids with both endpoints inside ``vertex_ids`` (sorted).

        The snapshot analog of
        :meth:`repro.model.graph.ProvenanceGraph.induced_edge_ids`.
        """
        # One extra, never-set slot: the ``-1`` endpoints of dead and
        # unmaterialised (restricted ``edge_types``) edge ids index it.
        member = np.zeros(self.n + 1, dtype=bool)
        member[np.fromiter(vertex_ids, np.int64)] = True
        member[self.n] = False
        return np.flatnonzero(
            member[self.edge_src] & member[self.edge_dst]
        ).tolist()

    # ------------------------------------------------------------------
    # CFL solver adjacency
    # ------------------------------------------------------------------

    def prov_adjacency(self, vertex_ok: VertexPredicate | None = None,
                       edge_ok: EdgePredicate | None = None,
                       ) -> "ProvAdjacency":
        """A :class:`ProvAdjacency` over this snapshot's ancestry edges.

        The unfiltered adjacency (no predicates) is built once and cached —
        this is what makes repeated SimProv queries over one snapshot fast.
        Filtered adjacencies are built on demand from the captured records
        (predicates inspect properties, which cannot be pre-indexed).
        """
        from repro.cfl.adjacency import ProvAdjacency

        if vertex_ok is None and edge_ok is None:
            if self._prov_adjacency is None:
                self._prov_adjacency = self._build_prov_adjacency(None, None)
            return self._prov_adjacency
        return self._build_prov_adjacency(vertex_ok, edge_ok)

    def _build_prov_adjacency(self, vertex_ok: VertexPredicate | None,
                              edge_ok: EdgePredicate | None,
                              ) -> "ProvAdjacency":
        from repro.cfl.adjacency import ProvAdjacency

        n = self.n
        if vertex_ok is None and edge_ok is None:
            # Fast path: slice the already-frozen CSR arrays.
            gen_acts = self.out_lists(EdgeType.WAS_GENERATED_BY)
            gen_ents = self.in_lists(EdgeType.WAS_GENERATED_BY)
            used_ents = self.out_lists(EdgeType.USED)
            user_acts = self.in_lists(EdgeType.USED)
            return ProvAdjacency(
                n=n,
                gen_acts=gen_acts,
                user_acts=user_acts,
                used_ents=used_ents,
                gen_ents=gen_ents,
                orders=self.orders.tolist(),
                entity_ids=list(self._ids_by_type[VertexType.ENTITY]),
                activity_ids=list(self._ids_by_type[VertexType.ACTIVITY]),
                edge_total_g=self.edge_count(EdgeType.WAS_GENERATED_BY),
                edge_total_u=self.edge_count(EdgeType.USED),
            )

        gen_acts: list[list[int]] = [[] for _ in range(n)]
        user_acts: list[list[int]] = [[] for _ in range(n)]
        used_ents: list[list[int]] = [[] for _ in range(n)]
        gen_ents: list[list[int]] = [[] for _ in range(n)]
        orders = [-1] * n
        entity_ids: list[int] = []
        activity_ids: list[int] = []
        allowed = [False] * n
        for vertex_id in self.vertex_ids():
            record = self._vertex_records[vertex_id]
            if vertex_ok is not None and not vertex_ok(record):
                continue
            allowed[vertex_id] = True
            orders[vertex_id] = record.order
            if record.vertex_type is VertexType.ENTITY:
                entity_ids.append(vertex_id)
            elif record.vertex_type is VertexType.ACTIVITY:
                activity_ids.append(vertex_id)

        edge_total_g = 0
        edge_total_u = 0
        for edge_type in (EdgeType.WAS_GENERATED_BY, EdgeType.USED):
            rows = self.out_edge_lists(edge_type)
            for src in range(n):
                for edge_id in rows[src]:
                    record = self._edge_records[edge_id]
                    if not (allowed[record.src] and allowed[record.dst]):
                        continue
                    if edge_ok is not None and not edge_ok(record):
                        continue
                    if edge_type is EdgeType.WAS_GENERATED_BY:
                        gen_acts[record.src].append(record.dst)
                        gen_ents[record.dst].append(record.src)
                        edge_total_g += 1
                    else:
                        used_ents[record.src].append(record.dst)
                        user_acts[record.dst].append(record.src)
                        edge_total_u += 1

        return ProvAdjacency(
            n=n,
            gen_acts=gen_acts,
            user_acts=user_acts,
            used_ents=used_ents,
            gen_ents=gen_ents,
            orders=orders,
            entity_ids=entity_ids,
            activity_ids=activity_ids,
            edge_total_g=edge_total_g,
            edge_total_u=edge_total_u,
        )

    def ancestry_arrays(self, vertex_ok: VertexPredicate | None = None,
                        edge_ok: EdgePredicate | None = None,
                        ) -> "AncestryArrays":
        """The G / U rows the SimProv array kernels descend.

        Unfiltered, this is an O(1) *borrow* of the forward CSR the
        snapshot already owns (and :meth:`advance` already patches) —
        read-only, never built inside ``advance``. Its ``monotone`` flag
        (one comparison over the ancestry edges) is computed on the first
        borrow and cached on the snapshot. With boundary predicates the
        same rows are masked: one predicate call per live vertex and per
        ancestry edge between allowed endpoints, then a numpy compress.
        """
        from repro.cfl.adjacency import AncestryArrays, order_monotone

        gen = self.forward[EdgeType.WAS_GENERATED_BY]
        used = self.forward[EdgeType.USED]
        if vertex_ok is None and edge_ok is None:
            if self._ancestry_monotone is None:
                self._ancestry_monotone = order_monotone(self.orders, gen,
                                                         used)
            return AncestryArrays(self.n, self.orders, gen, used,
                                  self._ancestry_monotone)

        allowed = self.vertex_codes >= 0
        if vertex_ok is not None:
            for vertex_id in self.vertex_ids():
                if not vertex_ok(self._vertex_records[vertex_id]):
                    allowed[vertex_id] = False
        edge_records = self._edge_records

        def masked(csr: CsrAdjacency) -> CsrAdjacency:
            sources = np.repeat(np.arange(self.n), np.diff(csr.indptr))
            keep = allowed[sources] & allowed[csr.indices]
            if edge_ok is not None:
                candidates = np.flatnonzero(keep)
                keep[candidates] = [
                    edge_ok(edge_records[edge_id])
                    for edge_id in csr.edge_ids[candidates].tolist()
                ]
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(sources[keep], minlength=self.n),
                      out=indptr[1:])
            return CsrAdjacency(indptr, csr.indices[keep])

        orders = np.where(allowed, self.orders, -1)
        gen, used = masked(gen), masked(used)
        return AncestryArrays(self.n, orders, gen, used,
                              order_monotone(orders, gen, used))

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stale = "" if self.is_fresh else ", STALE"
        return (
            f"GraphSnapshot(vertices={self.vertex_count}, "
            f"epoch={self.epoch}{stale})"
        )


def snapshot_of(source) -> GraphSnapshot:
    """Capture a full snapshot of a store or provenance graph."""
    return GraphSnapshot(source)
