"""ShardMap: a versioned vertex -> shard assignment + delta splitting.

The sharded serving layer (PR 9) partitions the property graph along the
axes :class:`~repro.segment.pgseg.PgSegOperator` already segments on —
a deterministic hash of the vertex identity, or a time-range split over
the creation ordinal (the paper's "order of being", the same axis the
ADAPT segmenter cuts on). A :class:`ShardMap` makes that assignment a
first-class, persisted, versioned value:

- **total**: every vertex id maps to exactly one shard in ``[0, shards)``;
- **deterministic**: the assignment is a pure function of the map record
  (the hash mode uses a fixed integer mixer, never Python's per-process
  ``hash``), so two processes holding equal records agree on every vertex;
- **stable under persistence**: ``from_record(to_record())`` assigns
  identically (pinned by the Hypothesis suite in
  ``tests/test_shard_map.py``);
- **rebalance-minimal**: :meth:`rebalance` bumps the version and can move
  only vertices whose boundary prefix (the cut points at or below their
  ordinal) actually changed.

:func:`split_batch` is the replication-side companion: it splits one
leader :class:`~repro.store.delta.DeltaBatch` into per-shard delta lists
under the **structure-broadcast, property-partitioned** rule the sharded
cluster replicates by — structural deltas (vertex/edge add/remove) go to
*every* shard so each shard store keeps the leader's dense id space and
exact topology, while property writes ship only to the subject's owner
shard. That rule is what makes per-shard serving sound with zero store
changes: bare segment and lineage/impact/blame answers are structure-only
(see ``docs/consistency.md``), so any shard answers them bit-identically,
and the owner shard alone pays each property write.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.store.delta import Delta, DeltaBatch, DeltaOp, PropertyPayload

__all__ = [
    "SHARD_MAP_FORMAT",
    "ShardMap",
    "delta_payload",
    "shard_of_delta",
    "split_batch",
]

#: Persistence format tag; bump only on an incompatible record change.
SHARD_MAP_FORMAT = "repro-shard-map-v1"

_MASK64 = (1 << 64) - 1


def _mix64(value: int) -> int:
    """The splitmix64 finalizer: a fixed, process-independent int mixer.

    Python's builtin ``hash`` is identity on small ints (adjacent vertex
    ids would stripe round-robin, correlating shard with creation time)
    and salted per process for other types; a pinned mixer keeps the
    hash-mode assignment deterministic across processes and runs.
    """
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & _MASK64
    return value ^ (value >> 31)


class ShardMap:
    """Assigns every vertex to a shard; persisted and versioned.

    Args:
        shards: shard count, >= 1.
        mode: ``"hash"`` (mixer over the vertex id — balanced, needs no
            per-vertex metadata) or ``"range"`` (split over the creation
            ordinal, the segment/time axis — range queries and segment
            anchors cluster onto one shard).
        boundaries: for ``"range"`` mode, ``shards - 1`` strictly
            increasing ordinal cut points; vertex with ordinal ``o``
            lands on shard ``i`` where ``boundaries[i-1] <= o <
            boundaries[i]`` (half-open ranges, first/last unbounded).
        version: monotonically bumped by :meth:`rebalance` so readers can
            detect a stale map.
    """

    MODES = ("hash", "range")

    def __init__(self, shards: int, mode: str = "hash",
                 boundaries: Iterable[int] | None = None, version: int = 1):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if mode not in self.MODES:
            raise ValueError(
                f"unknown shard-map mode {mode!r}; choose from {self.MODES}")
        self.shards = int(shards)
        self.mode = mode
        self.version = int(version)
        if mode == "range":
            cuts = tuple(int(b) for b in (boundaries or ()))
            if len(cuts) != shards - 1:
                raise ValueError(
                    f"range mode needs exactly shards-1 boundaries "
                    f"({shards - 1}), got {len(cuts)}")
            if any(a >= b for a, b in zip(cuts, cuts[1:])):
                raise ValueError("boundaries must be strictly increasing")
            self.boundaries: tuple[int, ...] | None = cuts
        else:
            if boundaries is not None:
                raise ValueError("hash mode takes no boundaries")
            self.boundaries = None

    # ------------------------------------------------------------------
    # Assignment
    # ------------------------------------------------------------------

    def shard_of(self, vertex_id: int, order: int | None = None) -> int:
        """The shard owning ``vertex_id``; total and deterministic.

        Range mode splits on the creation ordinal, so it needs ``order``
        (``store.order_of(vertex_id)``); hash mode ignores it.
        """
        if self.mode == "hash":
            return _mix64(int(vertex_id)) % self.shards
        if order is None:
            raise ValueError("range-mode shard_of needs the vertex ordinal")
        return self._range_index(int(order))

    def _range_index(self, order: int) -> int:
        shard = 0
        for cut in self.boundaries:       # shards stay small; linear is fine
            if order < cut:
                return shard
            shard += 1
        return shard

    def range_of(self, order: int) -> tuple[int | None, int | None]:
        """The half-open ordinal range containing ``order`` (range mode).

        ``(lo, hi)`` with ``None`` for the unbounded first/last edge —
        the invariant :meth:`rebalance` preserves is that a vertex keeps
        its shard whenever no cut point at or below its ordinal moved
        (the untouched boundary prefix pins both the range and its
        position, and the position *is* the shard index).
        """
        if self.mode != "range":
            raise ValueError("range_of is only defined for range mode")
        shard = self._range_index(int(order))
        lo = self.boundaries[shard - 1] if shard > 0 else None
        hi = self.boundaries[shard] if shard < len(self.boundaries) else None
        return lo, hi

    # ------------------------------------------------------------------
    # Persistence (versioned)
    # ------------------------------------------------------------------

    def to_record(self) -> dict[str, Any]:
        """The map as a JSON-able record (see :data:`SHARD_MAP_FORMAT`)."""
        record: dict[str, Any] = {
            "format": SHARD_MAP_FORMAT,
            "version": self.version,
            "shards": self.shards,
            "mode": self.mode,
        }
        if self.boundaries is not None:
            record["boundaries"] = list(self.boundaries)
        return record

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "ShardMap":
        """Rebuild a map from :meth:`to_record` output (round-trip exact)."""
        if record.get("format") != SHARD_MAP_FORMAT:
            raise ValueError(
                f"not a {SHARD_MAP_FORMAT} record: {record.get('format')!r}")
        boundaries = record.get("boundaries")
        return cls(int(record["shards"]), mode=str(record["mode"]),
                   boundaries=boundaries, version=int(record["version"]))

    # ------------------------------------------------------------------
    # Rebalancing
    # ------------------------------------------------------------------

    def rebalance(self, boundaries: Iterable[int]) -> "ShardMap":
        """A new range-mode map with moved cut points, version bumped.

        Only vertices below a moved cut point can change shard: the
        shard index is the count of cuts at or below the ordinal, so an
        unchanged boundary prefix keeps the assignment (and the
        containing range) untouched. Pinned by the Hypothesis suite.
        """
        if self.mode != "range":
            raise ValueError("only range-mode maps rebalance; build a new "
                             "hash map to change the shard count")
        new = ShardMap(self.shards, mode="range", boundaries=boundaries,
                       version=self.version + 1)
        return new

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShardMap):
            return NotImplemented
        return self.to_record() == other.to_record()

    def __repr__(self) -> str:   # pragma: no cover - cosmetic
        return (f"ShardMap(shards={self.shards}, mode={self.mode!r}, "
                f"version={self.version})")


# ---------------------------------------------------------------------------
# Delta splitting: structure broadcast, properties to the owner shard
# ---------------------------------------------------------------------------

#: Property-write ops: the only deltas that ship to one shard instead of
#: all of them. Everything else is structural and broadcasts, keeping
#: every shard store's vertex AND edge id spaces dense and leader-exact
#: (``apply_replicated_batch`` is reused unchanged).
_PROPERTY_OPS = (DeltaOp.SET_VERTEX_PROPERTY, DeltaOp.SET_EDGE_PROPERTY)


def shard_of_delta(delta: Delta, shard_map: ShardMap,
                   order_of: Callable[[int], int] | None = None,
                   ) -> int | None:
    """The owner shard of one delta, or ``None`` meaning broadcast.

    Property writes go to the subject vertex's owner (edge properties to
    the edge's *src* vertex owner — one documented convention, so the
    assignment stays total). A property write whose owner cannot be
    resolved any more (the subject died later in the log; range mode
    cannot recover its ordinal) degrades to broadcast — its payload is
    ``None`` on every shard, a harmless epoch-advancing no-op.
    """
    if delta.op not in _PROPERTY_OPS:
        return None
    subject = delta.subject_id if delta.op is DeltaOp.SET_VERTEX_PROPERTY \
        else delta.src
    if subject < 0:
        return None
    if shard_map.mode == "hash":
        return shard_map.shard_of(subject)
    try:
        order = order_of(subject) if order_of is not None else None
        return shard_map.shard_of(subject, order=order)
    except Exception:    # noqa: BLE001 - dead subject: broadcast no-op
        return None


def delta_payload(delta: Delta, store) -> Any:
    """The apply-time payload for one delta, read from the leader store.

    Mirrors the enrichment :func:`repro.serve.wire.delta_to_wire`
    performs for the wire path, without a JSON round trip: ship-time
    state is by construction the final state of the shipped span, so
    current leader values converge exactly on the shard store.
    """
    op = delta.op
    if op is DeltaOp.ADD_VERTEX:
        if delta.subject_id in store:
            return dict(store.vertex(delta.subject_id).properties)
        return {}
    if op is DeltaOp.ADD_EDGE:
        if store.has_edge_id(delta.subject_id):
            return dict(store.edge(delta.subject_id).properties)
        return {}
    if op is DeltaOp.SET_VERTEX_PROPERTY and delta.subject_id in store:
        props = store.vertex(delta.subject_id).properties
        if delta.key in props:
            return PropertyPayload(props[delta.key])
    if op is DeltaOp.SET_EDGE_PROPERTY \
            and store.has_edge_id(delta.subject_id):
        props = store.edge(delta.subject_id).properties
        if delta.key in props:
            return PropertyPayload(props[delta.key])
    return None


def split_batch(batch: DeltaBatch, shard_map: ShardMap,
                order_of: Callable[[int], int] | None = None,
                ) -> list[list[Delta]]:
    """Split one leader batch into per-shard delta lists.

    Structural deltas appear in every shard's list; property deltas only
    in the owner's. A shard whose list comes back empty receives **no**
    batch for this leader epoch — per-shard epochs advance independently,
    which is exactly why the coordinator tracks them as a vector. The
    caller re-stamps each non-empty list as a
    :class:`~repro.store.delta.DeltaBatch` at the shard store's next
    epoch before applying.
    """
    per_shard: list[list[Delta]] = [[] for _ in range(shard_map.shards)]
    for delta in batch.deltas:
        owner = shard_of_delta(delta, shard_map, order_of)
        if owner is None:
            for deltas in per_shard:
                deltas.append(delta)
        else:
            per_shard[owner].append(delta)
    return per_shard
