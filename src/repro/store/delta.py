"""Bounded mutation delta log for :class:`repro.store.PropertyGraphStore`.

The lifecycle workload appends small batches of provenance between long
stretches of querying, so rebuilding a full read snapshot
(:class:`repro.store.snapshot.GraphSnapshot`, O(V+E)) on every epoch bump
wastes almost all of its work: the graph barely changed. The store therefore
keeps a **delta log** — one :class:`DeltaBatch` per epoch, holding the typed
:class:`Delta` records describing exactly what that mutation did.
:meth:`GraphSnapshot.advance` replays the span of batches between its own
epoch and the store's epoch to patch itself forward instead of rebuilding.

Contract (enforced by ``tests/test_store_delta.py``):

- **One batch per epoch.** Every mutating store call commits exactly one
  batch tagged with the epoch the store reached. Compound mutations
  (``remove_vertex`` tombstoning incident edges) are a *single* batch, so a
  replayer can never observe an intermediate epoch.
- **Self-contained records.** A delta carries everything needed to patch a
  snapshot without consulting the (possibly since-mutated) store adjacency:
  edge deltas carry ``(edge_type, src, dst)``, vertex deltas carry the type
  and creation ordinal.
- **Bounded with explicit truncation.** The log retains at most ``capacity``
  records (whole batches are evicted oldest-first, always keeping the newest
  batch). :meth:`DeltaLog.batches_since` returns ``None`` for spans that
  reach past the retained window — callers must fall back to a full rebuild,
  never to a partial replay.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from enum import Enum, auto
from itertools import islice
from typing import Any, Hashable, Iterable

from repro.model.types import EdgeType, VertexType
from repro.obs.metrics import MetricAttr, MetricsRegistry


class DeltaOp(Enum):
    """The six kinds of store mutation a delta record can describe."""

    ADD_VERTEX = auto()
    REMOVE_VERTEX = auto()
    ADD_EDGE = auto()
    REMOVE_EDGE = auto()
    SET_VERTEX_PROPERTY = auto()
    SET_EDGE_PROPERTY = auto()


@dataclass(frozen=True, slots=True)
class Delta:
    """One typed mutation record.

    Attributes:
        op: the mutation kind.
        subject_id: the vertex id (vertex ops) or edge id (edge ops).
        vertex_type: set for vertex ops.
        edge_type: set for edge ops.
        src / dst: edge endpoints (edge ops; -1 otherwise).
        order: creation ordinal (ADD_VERTEX; -1 otherwise).
        key: property key (SET_* ops; None otherwise).
    """

    op: DeltaOp
    subject_id: int
    vertex_type: VertexType | None = None
    edge_type: EdgeType | None = None
    src: int = -1
    dst: int = -1
    order: int = -1
    key: str | None = None


@dataclass(frozen=True, slots=True)
class PropertyPayload:
    """Replication payload for a ``SET_*`` delta: the value that was set.

    Wrapping the value lets
    :meth:`repro.store.PropertyGraphStore.apply_replicated_batch`
    distinguish "set to ``None``" (``PropertyPayload(None)``) from "value
    unavailable because the subject died on the leader before the batch
    shipped" (a bare ``None`` payload).
    """

    value: Any


@dataclass(frozen=True, slots=True)
class DeltaBatch:
    """All deltas committed by one mutating call, tagged with its epoch.

    ``epoch`` is the store epoch *after* the batch applied; replaying the
    batch onto state at ``epoch - 1`` yields state at ``epoch``.
    """

    epoch: int
    deltas: tuple[Delta, ...]


@dataclass(slots=True)
class SpanEffects:
    """What a delta-log span touched, for selective cache invalidation.

    The **write set** of a span, classified the way
    :meth:`ResultCache.revalidate` needs it. :meth:`add` folds one more
    batch in, so a long span costs O(records) to fold, once.

    Attributes:
        touched: vertex ids structurally affected — subjects of vertex
            ops plus both endpoints of added/removed edges.
        sources: vertex ids whose *out*-rows changed — the src of every
            added edge, both endpoints of every removed edge, and every
            removed vertex. Ancestry walks read only out-rows, so this
            is their whole structural write set.
        adopted: the dst of every added ``G`` edge — activities that
            gained a generated entity (VC3 siblings, the one in-row read
            of a segment that can reach past its ancestry cone).
        prop_subjects: vertex ids whose properties changed (edge property
            writes contribute both endpoints, conservatively).
        structural: True if any vertex/edge was added or removed.
        scan_dirty: True if the span could change a global entity scan —
            an entity appeared/disappeared or a generation (``G``) edge
            moved, the two events that can mint or retire a root.
    """

    touched: set[int] = field(default_factory=set)
    sources: set[int] = field(default_factory=set)
    adopted: set[int] = field(default_factory=set)
    prop_subjects: set[int] = field(default_factory=set)
    structural: bool = False
    scan_dirty: bool = False

    def add(self, batch: DeltaBatch) -> None:
        """Fold one batch's write set into this one (O(batch))."""
        for delta in batch.deltas:
            op = delta.op
            if op is DeltaOp.ADD_VERTEX or op is DeltaOp.REMOVE_VERTEX:
                self.touched.add(delta.subject_id)
                self.structural = True
                if op is DeltaOp.REMOVE_VERTEX:
                    self.sources.add(delta.subject_id)
                if delta.vertex_type is VertexType.ENTITY:
                    self.scan_dirty = True
            elif op is DeltaOp.ADD_EDGE or op is DeltaOp.REMOVE_EDGE:
                self.touched.add(delta.src)
                self.touched.add(delta.dst)
                self.sources.add(delta.src)
                self.structural = True
                if op is DeltaOp.REMOVE_EDGE:
                    self.sources.add(delta.dst)
                if delta.edge_type is EdgeType.WAS_GENERATED_BY:
                    self.scan_dirty = True
                    if op is DeltaOp.ADD_EDGE:
                        self.adopted.add(delta.dst)
            elif op is DeltaOp.SET_VERTEX_PROPERTY:
                self.prop_subjects.add(delta.subject_id)
            elif op is DeltaOp.SET_EDGE_PROPERTY:
                self.prop_subjects.add(delta.src)
                self.prop_subjects.add(delta.dst)


def span_effects(batches: Iterable[DeltaBatch]) -> SpanEffects:
    """Aggregate the cache-relevant write set of a delta-log span."""
    effects = SpanEffects()
    for batch in batches:
        effects.add(batch)
    return effects


#: The entry classes a delta-driven result cache distinguishes; see
#: :func:`entry_survives` for the survival rule (and its soundness
#: argument) per class.
ENTRY_KINDS = ("ancestry", "closure", "segment", "scan", "paths", "global")


def segment_members_survive(footprint: frozenset[int] | set[int],
                            effects: SpanEffects, horizon: int) -> bool:
    """Whether a structure-only segment's *membership* survives a span.

    ``horizon`` is ``store.vertex_capacity`` when the segment was
    computed: ids are handed out in creation order and never reused, so
    a vertex with id ``>= horizon`` was minted afterwards. If no older
    vertex gained or lost an out-edge, the ancestry cone of every older
    vertex is unchanged — everything VC1 and VC2 read — and so are the
    members' out-rows (VC4 and the induced edges). VC1's backward pass
    and the solvers' collection passes read in-rows but keep only
    vertices of that unchanged cone; the one in-row read that can reach
    past it is an activity's generated entities (VC3 siblings), guarded
    by ``adopted``. Properties are not read at all.
    """
    return (min(effects.sources, default=horizon) >= horizon
            and footprint.isdisjoint(effects.adopted))


def entry_survives(kind: str, footprint: frozenset[int] | set[int],
                   effects: SpanEffects, horizon: int | None = None) -> bool:
    """Whether a cached result provably survives a mutation span.

    The single retention predicate, applied only by
    :meth:`ResultCache.revalidate` — so the session and every worker
    evict by the same proven rules:

    - ``"ancestry"`` (lineage, depth-bounded lineage, blame): the
      footprint is the walked closure (plus agents). The walk reads only
      out-rows (``G``/``U`` steps, blame's ``S``/``A`` agents), so the
      answer can change only if a footprint vertex gained or lost an
      out-edge — i.e. is in ``sources``. Appends that merely *use* or
      derive from footprint entities leave it alone. Property writes on
      footprint members drop the entry too.
    - ``"closure"`` (impacted): the footprint is the full reachability
      closure. The downstream walk reads in-rows, so any edge that
      extends or shrinks it has an endpoint inside it, and a freshly
      added vertex cannot be inside it: a span whose touched ids are
      disjoint from the footprint cannot change the answer.
    - ``"segment"`` (structure-only PgSeg answers and summary views):
      needs ``horizon``, ``store.vertex_capacity`` when the entry was
      computed. Survives iff every source is ``>= horizon`` and the
      footprint misses ``adopted`` and ``prop_subjects`` (see
      :func:`segment_members_survive` for why).
    - ``"scan"`` (roots): depends on a global entity scan, where a new
      vertex is relevant precisely because it is *not* in any footprint —
      kept only while the span minted/retired no entity and moved no
      generation edge.
    - ``"paths"`` (summaries over a scanned version list): path
      membership between fixed endpoints can be rerouted by edges whose
      endpoints all lie outside the old segment, and the scan can grow,
      so structural disjointness proves nothing — dropped on any
      structural span, kept across property-only spans that miss the
      member footprint (summaries aggregate member properties).
    - ``"global"`` (CypherLite rows): may scan any slice of structure
      *and* properties, so no footprint bounds it — dropped on any
      non-empty span.

    Raises:
        ValueError: on an unknown ``kind``, or a ``"segment"`` entry
            without a horizon (a silent default would be an unsound
            "keep" or a mystery eviction; fail loudly instead).
    """
    if kind == "ancestry":
        return (footprint.isdisjoint(effects.sources)
                and footprint.isdisjoint(effects.prop_subjects))
    if kind == "closure":
        return (footprint.isdisjoint(effects.touched)
                and footprint.isdisjoint(effects.prop_subjects))
    if kind == "segment":
        if horizon is None:
            raise ValueError("a segment entry needs its horizon")
        return (segment_members_survive(footprint, effects, horizon)
                and footprint.isdisjoint(effects.prop_subjects))
    if kind == "scan":
        return not effects.scan_dirty
    if kind == "paths":
        return (not effects.structural
                and footprint.isdisjoint(effects.prop_subjects))
    if kind == "global":
        return (not effects.structural and not effects.touched
                and not effects.prop_subjects)
    raise ValueError(f"unknown cache entry kind {kind!r}")


#: Bound on a :class:`ResultCache` (entries, least recently used first).
CACHE_SIZE = 256


class ResultCache:
    """The one bounded result cache, revalidated from the delta log.

    The session and every replica worker memoize answers here as
    ``(value, kind, footprint, horizon)`` entries: the answer (never
    None), its :data:`ENTRY_KINDS` class, the vertex ids it was derived
    from and ``store.vertex_capacity`` when it was computed. At most
    :data:`CACHE_SIZE` entries are kept, least recently used evicted
    first. Every entry is valid at :attr:`epoch`; :meth:`revalidate` is
    the only code that applies the retention policy.

    The counters live in ``registry`` (a fresh one when None) as
    ``<prefix>.cache_*``; ``retained`` / ``evicted`` count entries per
    revalidation, and the LRU bound's evictions are not counted.
    """

    hits = MetricAttr("cache_hits")
    misses = MetricAttr("cache_misses")
    retained = MetricAttr("cache_retained")
    evicted = MetricAttr("cache_evicted")

    def __init__(self, registry=None, prefix: str = "session"):
        self._obs_registry = registry if registry is not None \
            else MetricsRegistry()
        self._obs_prefix = prefix
        self.epoch = -1
        self._entries: OrderedDict[Hashable, tuple] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def values(self) -> list[Any]:
        """The cached values, least recently used first."""
        return [entry[0] for entry in self._entries.values()]

    def get(self, key: Hashable) -> Any:
        """The value under ``key``, now the most recently used, or None."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def put(self, key: Hashable, value: Any, kind: str,
            footprint: frozenset[int] | set[int], horizon: int) -> None:
        """Cache the value a miss computed (the cache owns ``footprint``)."""
        self.misses += 1
        self._entries[key] = (value, kind, footprint, horizon)
        if len(self._entries) > CACHE_SIZE:
            self._entries.popitem(last=False)

    def clear(self, epoch: int) -> None:
        """Drop every entry; the empty cache is valid at ``epoch``."""
        self._entries.clear()
        self.epoch = epoch

    def revalidate(self, store, fold: bool = False,
                   ) -> tuple[SpanEffects, int] | None:
        """Bring the cache to the log's newest epoch, reading it at most once.

        An empty cache just moves its epoch, unless ``fold`` (the caller
        has dependents of its own that need the span). A span the bounded
        log no longer holds clears everything and returns None. Otherwise
        the span is folded once and each entry kept iff
        :func:`entry_survives`: every rule is a disjointness test against
        a union over the span's batches, so one check of the folded span
        decides exactly what a check per batch would. Returns the folded
        span and its record count (empty if the log was not read).
        """
        epoch = store.epoch
        if epoch == self.epoch or not (self._entries or fold):
            self.epoch = epoch
            return SpanEffects(), 0
        span = store.delta_log.batches_since(self.epoch)
        if span is None or (span and span[0].epoch != self.epoch + 1):
            self.clear(epoch)
            return None
        effects = span_effects(span)
        # The last batch folded, not ``epoch``: one appended since is
        # in ``span`` already and must not be folded again next time.
        self.epoch = span[-1].epoch if span else epoch
        kept = OrderedDict(
            (key, entry) for key, entry in self._entries.items()
            if entry_survives(entry[1], entry[2], effects, entry[3]))
        self.retained += len(kept)
        self.evicted += len(self._entries) - len(kept)
        self._entries = kept
        return effects, sum(len(batch.deltas) for batch in span)


class DeltaLog:
    """A bounded, epoch-contiguous log of :class:`DeltaBatch` entries.

    Batches arrive with consecutive epochs (the store bumps once per call),
    so the retained window always covers the contiguous span
    ``(base_epoch, last_epoch]``.

    One uncontended lock orders :meth:`append` (and :meth:`rebase`)
    against :meth:`batches_since`: an eviction moves the window's head
    and its base epoch together, so a reader on another thread never
    slices a window whose head has gone but whose base has not moved —
    the span with a batch missing.

    Args:
        capacity: maximum number of *records* (not batches) retained. The
            newest batch is always kept, even if it alone exceeds capacity.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._batches: deque[DeltaBatch] = deque()
        self._record_count = 0
        self._base_epoch = 0
        #: Epoch of the newest retained batch (``base_epoch`` when
        #: empty). Set after the batch is in the log, so a reader that
        #: sees an epoch finds its batch.
        self.last_epoch = 0
        self._truncated = False

    # ------------------------------------------------------------------

    @property
    def base_epoch(self) -> int:
        """Replay starting point: batches cover ``(base_epoch, last_epoch]``."""
        return self._base_epoch

    @property
    def truncated(self) -> bool:
        """True once any batch has been evicted for capacity."""
        return self._truncated

    @property
    def record_count(self) -> int:
        """Total records across retained batches."""
        return self._record_count

    def __len__(self) -> int:
        return len(self._batches)

    # ------------------------------------------------------------------

    def append(self, batch: DeltaBatch) -> None:
        """Append one batch; evicts oldest batches past capacity.

        Raises:
            ValueError: if the batch's epoch is not ``last_epoch + 1`` (the
                store commits exactly one batch per epoch bump).
        """
        if batch.epoch != self.last_epoch + 1:
            raise ValueError(
                f"batch epoch {batch.epoch} breaks contiguity "
                f"(expected {self.last_epoch + 1})"
            )
        with self._lock:
            self._batches.append(batch)
            self.last_epoch = batch.epoch
            self._record_count += len(batch.deltas)
            while self._record_count > self.capacity \
                    and len(self._batches) > 1:
                evicted = self._batches.popleft()
                self._record_count -= len(evicted.deltas)
                self._base_epoch = evicted.epoch
                self._truncated = True

    def rebase(self, epoch: int) -> None:
        """Forget all batches and restart the window at ``epoch``.

        Used when a store's epoch is restored from outside its own mutation
        history — loading a persisted snapshot, or bootstrapping a replica
        from a leader sync. After a rebase the log covers the empty span
        ``(epoch, epoch]``: :meth:`batches_since` answers ``[]`` for
        ``epoch`` itself and ``None`` for anything earlier, so stale readers
        fall back to a full recapture instead of replaying across the gap.
        """
        if epoch < 0:
            raise ValueError("epoch must be non-negative")
        with self._lock:
            self._batches.clear()
            self._record_count = 0
            self._base_epoch = epoch
            self.last_epoch = epoch
            self._truncated = False

    def batches_since(self, epoch: int) -> list[DeltaBatch] | None:
        """Batches replaying state at ``epoch`` up to ``last_epoch``.

        Returns ``None`` when the span is not fully retained (``epoch``
        predates the window) or ``epoch`` is ahead of the log — the caller
        must fall back to a full recapture. An up-to-date ``epoch`` returns
        the empty list.
        """
        with self._lock:
            if epoch < self._base_epoch or epoch > self.last_epoch:
                return None
            # Epochs are contiguous, so the span is the newest
            # ``last_epoch - epoch`` batches: taken from the right end,
            # it costs the span, not the window.
            span = list(islice(reversed(self._batches),
                               self.last_epoch - epoch))
        span.reverse()
        return span

    def record_count_since(self, epoch: int) -> int | None:
        """Number of records in the span ``(epoch, last_epoch]``.

        ``None`` under the same conditions as :meth:`batches_since`.
        """
        span = self.batches_since(epoch)
        if span is None:
            return None
        return sum(len(batch.deltas) for batch in span)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeltaLog(batches={len(self._batches)}, "
            f"records={self._record_count}, "
            f"span=({self._base_epoch}, {self.last_epoch}])"
        )
