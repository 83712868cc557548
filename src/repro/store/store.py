"""An embedded property-graph store: the library's Neo4j stand-in.

The paper's evaluation assumptions (Sec. III.B.1) are the store's contract:

- arbitrary vertex and edge access by primary id in constant time;
- incoming and outgoing edges of a vertex accessible in time linear in the
  in-/out-degree;
- label (vertex/edge type) scans.

The store keeps dense integer ids (append-only lists), per-vertex adjacency
split by direction *and* edge type (PROV algorithms overwhelmingly traverse a
single edge type at a time), and optional secondary indexes
(:mod:`repro.store.indexes`). Vertices carry a monotone creation ordinal used
by the early-stopping rule of the SimProv solvers.

The store is append-mostly, like a provenance log: vertices and edges can be
added and their properties updated; deletion is supported for completeness
(tombstones) but no id is ever reused.

Every mutation bumps a monotone **epoch** counter (exactly once per mutating
method call, including :meth:`PropertyGraphStore.remove_vertex`, which
tombstones incident edges as part of the same logical mutation). Read-side
caches — :class:`repro.store.snapshot.GraphSnapshot`, the
:class:`repro.session.LifecycleSession` result caches — record the epoch they
were built at and treat any later epoch as an invalidation signal.

Alongside the epoch bump, every mutating call commits exactly one
:class:`repro.store.delta.DeltaBatch` to the bounded :attr:`delta_log`,
describing the mutation as typed delta records. Compound mutations
(``remove_vertex`` and its incident-edge tombstoning) commit one *atomic*
batch, so replaying the log can never observe an intermediate epoch.
:meth:`repro.store.snapshot.GraphSnapshot.advance` consumes the log to patch
snapshots forward instead of rebuilding them from scratch.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import Any

from repro.errors import EdgeNotFound, InvalidEdge, VertexNotFound
from repro.model.types import EdgeType, VertexType, edge_signature_ok
from repro.store.delta import Delta, DeltaBatch, DeltaLog, DeltaOp
from repro.store.indexes import LabelIndex, PropertyIndex
from repro.store.records import EdgeRecord, VertexRecord


class PropertyGraphStore:
    """In-process property graph with O(1) id access and typed adjacency.

    Args:
        check_signatures: when True (default) every added edge is checked
            against the PROV edge-type signatures of Definition 1
            (e.g. ``used`` must go from an Activity to an Entity).
        delta_log_capacity: maximum number of mutation records retained by
            :attr:`delta_log` (see :class:`repro.store.delta.DeltaLog`).
    """

    def __init__(self, check_signatures: bool = True,
                 delta_log_capacity: int = 4096):
        self._check_signatures = check_signatures
        self._vertices: list[VertexRecord | None] = []
        self._edges: list[EdgeRecord | None] = []
        # adjacency[vertex_id] -> {edge_type -> [edge_id, ...]}
        self._out: list[dict[EdgeType, list[int]]] = []
        self._in: list[dict[EdgeType, list[int]]] = []
        self._label_index = LabelIndex()
        self._property_indexes: dict[tuple[VertexType, str], PropertyIndex] = {}
        self._next_order = 0
        self._live_vertex_count = 0
        self._live_edge_count = 0
        self._delta_log = DeltaLog(delta_log_capacity)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def check_signatures(self) -> bool:
        """Whether PROV edge-type signatures are enforced on add_edge."""
        return self._check_signatures

    @property
    def epoch(self) -> int:
        """Monotone mutation counter; bumps exactly once per mutating call.

        Building a property index is not a mutation (it changes no query
        answer), so :meth:`create_property_index` does not bump the epoch.

        It is the delta log's newest epoch: appending a batch is the one
        act that publishes it, so a reader on another thread never sees
        an epoch whose batch is not yet in :attr:`delta_log`.
        """
        return self._delta_log.last_epoch

    @property
    def delta_log(self) -> DeltaLog:
        """The bounded mutation delta log (one batch per epoch)."""
        return self._delta_log

    def _commit(self, *deltas: Delta) -> None:
        """Log the deltas as one atomic batch, which bumps the epoch."""
        self._delta_log.append(DeltaBatch(self.epoch + 1, deltas))

    def restore_epoch(self, epoch: int) -> None:
        """Adopt an externally persisted epoch and rebase the delta log.

        Used after rebuilding a store from a snapshot (persistence load,
        replica bootstrap): the reconstruction bumped the epoch once per
        rebuild operation, which is meaningless to the original timeline.
        After restoring, future mutations continue from ``epoch + 1`` and
        the delta log covers the empty span ``(epoch, epoch]``.
        """
        self._delta_log.rebase(epoch)

    @property
    def vertex_count(self) -> int:
        """Number of live (non-deleted) vertices."""
        return self._live_vertex_count

    @property
    def edge_count(self) -> int:
        """Number of live (non-deleted) edges."""
        return self._live_edge_count

    @property
    def vertex_capacity(self) -> int:
        """Highest assigned vertex id + 1 (ids are dense, never reused)."""
        return len(self._vertices)

    @property
    def edge_capacity(self) -> int:
        """Highest assigned edge id + 1."""
        return len(self._edges)

    def __len__(self) -> int:
        return self._live_vertex_count

    def __contains__(self, vertex_id: int) -> bool:
        return (
            0 <= vertex_id < len(self._vertices)
            and self._vertices[vertex_id] is not None
        )

    def has_edge_id(self, edge_id: int) -> bool:
        """Return True if ``edge_id`` refers to a live edge."""
        return 0 <= edge_id < len(self._edges) and self._edges[edge_id] is not None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def _insert_vertex(self, vertex_type: VertexType,
                       properties: dict[str, Any] | None,
                       order: int) -> int:
        """Append a vertex with an explicit ordinal, without committing."""
        vertex_id = len(self._vertices)
        record = VertexRecord(
            vertex_id=vertex_id,
            vertex_type=vertex_type,
            properties=dict(properties or {}),
            order=order,
        )
        self._vertices.append(record)
        self._out.append({})
        self._in.append({})
        self._label_index.add_vertex(vertex_id, vertex_type)
        self._live_vertex_count += 1
        for (vt, key), index in self._property_indexes.items():
            if vt is vertex_type and key in record.properties:
                index.add(record.properties[key], vertex_id)
        return vertex_id

    def add_vertex(self, vertex_type: VertexType,
                   properties: dict[str, Any] | None = None) -> int:
        """Append a vertex and return its id.

        The vertex receives the next creation ordinal ("order of being").
        """
        order = self._next_order
        self._next_order += 1
        vertex_id = self._insert_vertex(vertex_type, properties, order)
        self._commit(Delta(DeltaOp.ADD_VERTEX, vertex_id,
                           vertex_type=vertex_type, order=order))
        return vertex_id

    def _insert_edge(self, edge_type: EdgeType, src: int, dst: int,
                     properties: dict[str, Any] | None) -> int:
        """Append an edge ``src -> dst`` without committing."""
        src_rec = self.vertex(src)
        dst_rec = self.vertex(dst)
        if self._check_signatures and not edge_signature_ok(
            edge_type, src_rec.vertex_type, dst_rec.vertex_type
        ):
            raise InvalidEdge(
                f"edge type {edge_type.name} cannot connect "
                f"{src_rec.vertex_type.name} -> {dst_rec.vertex_type.name}"
            )
        edge_id = len(self._edges)
        record = EdgeRecord(
            edge_id=edge_id,
            edge_type=edge_type,
            src=src,
            dst=dst,
            properties=dict(properties or {}),
        )
        self._edges.append(record)
        self._out[src].setdefault(edge_type, []).append(edge_id)
        self._in[dst].setdefault(edge_type, []).append(edge_id)
        self._label_index.add_edge(edge_id, edge_type)
        self._live_edge_count += 1
        return edge_id

    def add_edge(self, edge_type: EdgeType, src: int, dst: int,
                 properties: dict[str, Any] | None = None) -> int:
        """Append an edge ``src -> dst`` and return its id.

        Raises:
            VertexNotFound: if either endpoint does not exist.
            InvalidEdge: if signature checking is enabled and the endpoint
                types do not match the PROV signature of ``edge_type``.
        """
        edge_id = self._insert_edge(edge_type, src, dst, properties)
        self._commit(Delta(DeltaOp.ADD_EDGE, edge_id, edge_type=edge_type,
                           src=src, dst=dst))
        return edge_id

    def _detach_edge(self, record: EdgeRecord) -> Delta:
        """Tombstone one edge without committing (shared removal plumbing)."""
        edge_id = record.edge_id
        self._out[record.src][record.edge_type].remove(edge_id)
        self._in[record.dst][record.edge_type].remove(edge_id)
        self._label_index.remove_edge(edge_id, record.edge_type)
        self._edges[edge_id] = None
        self._live_edge_count -= 1
        return Delta(DeltaOp.REMOVE_EDGE, edge_id, edge_type=record.edge_type,
                     src=record.src, dst=record.dst)

    def remove_edge(self, edge_id: int) -> None:
        """Tombstone an edge. Ids are never reused."""
        self._commit(self._detach_edge(self.edge(edge_id)))

    def _tombstone_vertex(self, vertex_id: int) -> Delta:
        """Tombstone one edge-free vertex without committing."""
        record = self.vertex(vertex_id)
        self._label_index.remove_vertex(vertex_id, record.vertex_type)
        for (vt, key), index in self._property_indexes.items():
            if vt is record.vertex_type and key in record.properties:
                index.discard(record.properties[key], vertex_id)
        self._vertices[vertex_id] = None
        self._live_vertex_count -= 1
        return Delta(DeltaOp.REMOVE_VERTEX, vertex_id,
                     vertex_type=record.vertex_type)

    def remove_vertex(self, vertex_id: int) -> None:
        """Tombstone a vertex and all incident edges.

        The compound removal is one logical mutation: the epoch bumps once
        and the delta log receives one atomic batch covering the incident
        edge tombstones and the vertex tombstone, so no replayer or cache
        can observe an intermediate state.
        """
        self.vertex(vertex_id)
        # Self-loops appear in both the out and in lists; dedupe so each
        # incident edge is detached (and logged) exactly once.
        deltas = [
            self._detach_edge(self._edges[edge_id])  # type: ignore[arg-type]
            for edge_id in dict.fromkeys(self.incident_edge_ids(vertex_id))
        ]
        deltas.append(self._tombstone_vertex(vertex_id))
        self._commit(*deltas)

    def _write_vertex_property(self, vertex_id: int, key: str,
                               value: Any) -> None:
        """Set one vertex property (index-synced) without committing."""
        record = self.vertex(vertex_id)
        index = self._property_indexes.get((record.vertex_type, key))
        if index is not None and key in record.properties:
            index.discard(record.properties[key], vertex_id)
        record.properties[key] = value
        if index is not None:
            index.add(value, vertex_id)

    def set_vertex_property(self, vertex_id: int, key: str, value: Any) -> None:
        """Set one vertex property, keeping any property index in sync."""
        vertex_type = self.vertex(vertex_id).vertex_type
        self._write_vertex_property(vertex_id, key, value)
        self._commit(Delta(DeltaOp.SET_VERTEX_PROPERTY, vertex_id,
                           vertex_type=vertex_type, key=key))

    def set_edge_property(self, edge_id: int, key: str, value: Any) -> None:
        """Set one edge property."""
        record = self.edge(edge_id)
        record.properties[key] = value
        self._commit(Delta(DeltaOp.SET_EDGE_PROPERTY, edge_id,
                           edge_type=record.edge_type, src=record.src,
                           dst=record.dst, key=key))

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------

    def apply_replicated_batch(self, batch: DeltaBatch,
                               payloads: Sequence[Any] | None = None) -> None:
        """Apply one batch shipped from another store, as one atomic epoch.

        The replication hook of :mod:`repro.serve`: a follower whose state
        matches the leader's at ``batch.epoch - 1`` applies the leader's
        batches in order and stays structurally identical — same ids, same
        ordinals, same epoch, and the same delta-log contents (so
        :meth:`repro.store.snapshot.GraphSnapshot.advance` works on the
        follower exactly as on the leader).

        Args:
            batch: the leader's batch; must be this store's next epoch.
            payloads: per-delta payloads carrying what the typed record
                alone cannot — the properties dict for ``ADD_VERTEX`` /
                ``ADD_EDGE`` and the value for ``SET_*`` (``None``
                elsewhere, or when the subject had died on the leader
                before the batch was shipped).

        Raises:
            ValueError: on an epoch gap or an id mismatch — both mean the
                follower diverged and must re-sync from a full snapshot.
        """
        if batch.epoch != self.epoch + 1:
            raise ValueError(
                f"replicated batch epoch {batch.epoch} does not follow "
                f"store epoch {self.epoch}"
            )
        if payloads is None:
            payloads = [None] * len(batch.deltas)
        for delta, payload in zip(batch.deltas, payloads, strict=True):
            op = delta.op
            if op is DeltaOp.ADD_VERTEX:
                if delta.subject_id != len(self._vertices):
                    raise ValueError(
                        f"replicated vertex id {delta.subject_id} != next "
                        f"id {len(self._vertices)} (follower diverged)"
                    )
                self._insert_vertex(delta.vertex_type, payload, delta.order)
                self._next_order = max(self._next_order, delta.order + 1)
            elif op is DeltaOp.ADD_EDGE:
                if delta.subject_id != len(self._edges):
                    raise ValueError(
                        f"replicated edge id {delta.subject_id} != next "
                        f"id {len(self._edges)} (follower diverged)"
                    )
                self._insert_edge(delta.edge_type, delta.src, delta.dst,
                                  payload)
            elif op is DeltaOp.REMOVE_EDGE:
                self._detach_edge(self.edge(delta.subject_id))
            elif op is DeltaOp.REMOVE_VERTEX:
                self._tombstone_vertex(delta.subject_id)
            elif op is DeltaOp.SET_VERTEX_PROPERTY:
                # A missing payload means the subject died on the leader
                # before shipping; the tombstone batch follows in the same
                # stream, so the transiently stale value is never served.
                if payload is not None:
                    self._write_vertex_property(delta.subject_id, delta.key,
                                                payload.value)
            elif op is DeltaOp.SET_EDGE_PROPERTY:
                if payload is not None:
                    self.edge(delta.subject_id).properties[delta.key] = \
                        payload.value
            else:                        # pragma: no cover - defensive
                raise ValueError(f"unknown delta op {op!r}")
        self._delta_log.append(batch)

    # ------------------------------------------------------------------
    # O(1) record access
    # ------------------------------------------------------------------

    def vertex(self, vertex_id: int) -> VertexRecord:
        """Return the vertex record for ``vertex_id`` (O(1))."""
        if 0 <= vertex_id < len(self._vertices):
            record = self._vertices[vertex_id]
            if record is not None:
                return record
        raise VertexNotFound(vertex_id)

    def edge(self, edge_id: int) -> EdgeRecord:
        """Return the edge record for ``edge_id`` (O(1))."""
        if 0 <= edge_id < len(self._edges):
            record = self._edges[edge_id]
            if record is not None:
                return record
        raise EdgeNotFound(edge_id)

    def vertex_type(self, vertex_id: int) -> VertexType:
        """Shorthand for ``store.vertex(vertex_id).vertex_type``."""
        return self.vertex(vertex_id).vertex_type

    def order_of(self, vertex_id: int) -> int:
        """Creation ordinal of a vertex (the paper's "order of being")."""
        return self.vertex(vertex_id).order

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------

    def out_edge_ids(self, vertex_id: int,
                     edge_type: EdgeType | None = None) -> Iterator[int]:
        """Yield ids of outgoing edges, optionally restricted by type."""
        self.vertex(vertex_id)
        buckets = self._out[vertex_id]
        if edge_type is not None:
            yield from buckets.get(edge_type, ())
            return
        for ids in buckets.values():
            yield from ids

    def in_edge_ids(self, vertex_id: int,
                    edge_type: EdgeType | None = None) -> Iterator[int]:
        """Yield ids of incoming edges, optionally restricted by type."""
        self.vertex(vertex_id)
        buckets = self._in[vertex_id]
        if edge_type is not None:
            yield from buckets.get(edge_type, ())
            return
        for ids in buckets.values():
            yield from ids

    def incident_edge_ids(self, vertex_id: int) -> Iterator[int]:
        """Yield ids of all incident edges (out then in)."""
        yield from self.out_edge_ids(vertex_id)
        yield from self.in_edge_ids(vertex_id)

    def out_neighbors(self, vertex_id: int,
                      edge_type: EdgeType | None = None) -> Iterator[int]:
        """Yield target vertex ids of outgoing edges."""
        for edge_id in self.out_edge_ids(vertex_id, edge_type):
            yield self._edges[edge_id].dst  # type: ignore[union-attr]

    def in_neighbors(self, vertex_id: int,
                     edge_type: EdgeType | None = None) -> Iterator[int]:
        """Yield source vertex ids of incoming edges."""
        for edge_id in self.in_edge_ids(vertex_id, edge_type):
            yield self._edges[edge_id].src  # type: ignore[union-attr]

    def out_degree(self, vertex_id: int,
                   edge_type: EdgeType | None = None) -> int:
        """Out-degree, optionally restricted by edge type."""
        self.vertex(vertex_id)
        buckets = self._out[vertex_id]
        if edge_type is not None:
            return len(buckets.get(edge_type, ()))
        return sum(len(ids) for ids in buckets.values())

    def in_degree(self, vertex_id: int,
                  edge_type: EdgeType | None = None) -> int:
        """In-degree, optionally restricted by edge type."""
        self.vertex(vertex_id)
        buckets = self._in[vertex_id]
        if edge_type is not None:
            return len(buckets.get(edge_type, ()))
        return sum(len(ids) for ids in buckets.values())

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------

    def vertices(self, vertex_type: VertexType | None = None) -> Iterator[VertexRecord]:
        """Yield live vertex records, optionally restricted by type."""
        if vertex_type is not None:
            for vertex_id in self._label_index.vertices(vertex_type):
                yield self._vertices[vertex_id]  # type: ignore[misc]
            return
        for record in self._vertices:
            if record is not None:
                yield record

    def vertex_ids(self, vertex_type: VertexType | None = None) -> Iterator[int]:
        """Yield live vertex ids, optionally restricted by type."""
        for record in self.vertices(vertex_type):
            yield record.vertex_id

    def edges(self, edge_type: EdgeType | None = None) -> Iterator[EdgeRecord]:
        """Yield live edge records, optionally restricted by type."""
        if edge_type is not None:
            for edge_id in self._label_index.edges(edge_type):
                yield self._edges[edge_id]  # type: ignore[misc]
            return
        for record in self._edges:
            if record is not None:
                yield record

    def count_vertices(self, vertex_type: VertexType) -> int:
        """Number of live vertices of the given type (indexed, O(1))."""
        return self._label_index.vertex_count(vertex_type)

    def count_edges(self, edge_type: EdgeType) -> int:
        """Number of live edges of the given type (indexed, O(1))."""
        return self._label_index.edge_count(edge_type)

    # ------------------------------------------------------------------
    # Secondary property indexes
    # ------------------------------------------------------------------

    def create_property_index(self, vertex_type: VertexType, key: str) -> None:
        """Create (and backfill) a hash index on ``(vertex_type, key)``."""
        slot = (vertex_type, key)
        if slot in self._property_indexes:
            return
        index = PropertyIndex(vertex_type, key)
        for record in self.vertices(vertex_type):
            if key in record.properties:
                index.add(record.properties[key], record.vertex_id)
        self._property_indexes[slot] = index

    def lookup(self, vertex_type: VertexType, key: str,
               value: Any) -> Iterable[int]:
        """Find vertex ids by property value.

        Uses the property index when one exists, otherwise falls back to a
        label scan.
        """
        index = self._property_indexes.get((vertex_type, key))
        if index is not None:
            return index.lookup(value)
        return [
            record.vertex_id
            for record in self.vertices(vertex_type)
            if record.properties.get(key) == value
        ]

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------

    def summary(self) -> dict[str, int]:
        """Counts by vertex/edge type, for logging and tests."""
        result: dict[str, int] = {
            "vertices": self.vertex_count,
            "edges": self.edge_count,
        }
        for vt in VertexType:
            result[f"vertices[{vt.name}]"] = self.count_vertices(vt)
        for et in EdgeType:
            result[f"edges[{et.name}]"] = self.count_edges(et)
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PropertyGraphStore(vertices={self.vertex_count}, "
            f"edges={self.edge_count})"
        )
