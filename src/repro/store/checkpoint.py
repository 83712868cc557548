"""Binary snapshot checkpoints: the one state-transfer format.

A checkpoint is the store's full state — the dense vertex/edge id spaces,
type codes, creation ordinals, topology, and property maps — written once
to a length-prefixed binary file keyed by ``(epoch, generation)``. Every
follower — an out-of-process worker, an in-process replica, a shard
feed — bootstraps by reading a checkpoint and then replaying only the
delta-log tail, so (re)bootstrap cost scales with the tail (what changed
since the checkpoint), not with the graph's history (see
:meth:`repro.serve.replication.ReplicationLog.bootstrap`).

File layout (all lengths little-endian ``u64``; arrays are raw
little-endian numpy buffers, mmap-friendly because each section is
contiguous):

.. code-block:: text

    magic   b"RPCK0001"
    [len][meta JSON]        kind/format/capacities/epoch/check_signatures/
                            generation/live counts
    [len][vertex ids  i64]  live vertex ids, ascending
    [len][vertex codes i8]  VERTEX_TYPE_CODES per live vertex
    [len][orders      i64]  creation ordinals per live vertex
    [len][edge ids    i64]  live edge ids, ascending
    [len][edge codes  i8]   EDGE_TYPE_CODES per live edge
    [len][srcs        i64]  source vertex id per live edge
    [len][dsts        i64]  target vertex id per live edge
    [len][props JSON]       {"vertices": {id: props}, "edges": {id: props}}
                            (non-empty property maps only)

Reconstruction (:func:`read_checkpoint`) builds the store's internal
tables directly — records, adjacency, label index — instead of replaying
``add_vertex``/``add_edge`` per record, which is what makes it cheap. The
result is observably identical to the store that was written: same ids,
tombstone gaps, orders, epoch, and signature mode, ready to apply the
replicated tail (``tests/test_checkpoint_bootstrap.py`` pins it
bit-exact). A checkpoint file is untrusted input: every section is
validated before any store exists, and anything malformed raises
:class:`~repro.errors.SerializationError`.

:class:`CheckpointManager` owns the on-disk lifecycle: one live file in a
private temp directory, the previous file deleted on every fresh capture
and the directory removed on :meth:`CheckpointManager.close`, so restart
loops cannot grow stale checkpoint files (pinned by ``TestTransportFds``).
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import SerializationError
from repro.model.types import EdgeType
from repro.store.csr import VERTEX_TYPE_CODES
from repro.store.records import EdgeRecord, VertexRecord
from repro.store.store import PropertyGraphStore

#: Leading magic of every checkpoint file (8 bytes, versioned).
CHECKPOINT_MAGIC = b"RPCK0001"

#: Format tag carried in the checkpoint meta record.
CHECKPOINT_FORMAT = "repro-ckpt-v1"

#: Dense codes for the five PROV edge types (mirrors ``VERTEX_TYPE_CODES``).
EDGE_TYPE_CODES: dict[EdgeType, int] = {
    edge_type: code for code, edge_type in enumerate(EdgeType)
}

_VERTEX_TYPE_BY_CODE = {code: vt for vt, code in VERTEX_TYPE_CODES.items()}
_EDGE_TYPE_BY_CODE = {code: et for et, code in EDGE_TYPE_CODES.items()}

_LEN = struct.Struct("<Q")


def _write_section(handle, payload: bytes) -> int:
    handle.write(_LEN.pack(len(payload)))
    handle.write(payload)
    return _LEN.size + len(payload)


def write_checkpoint(store: PropertyGraphStore, path: str | Path,
                     generation: int = 0) -> int:
    """Write the store's full state to ``path``; returns bytes written.

    The write is atomic at the filesystem level: content lands in a
    ``.tmp`` sibling first and is renamed into place, so a reader never
    sees a torn checkpoint.
    """
    target = Path(path)
    vertex_ids: list[int] = []
    vertex_codes: list[int] = []
    orders: list[int] = []
    vertex_props: dict[int, dict[str, Any]] = {}
    for record in store.vertices():
        vertex_ids.append(record.vertex_id)
        vertex_codes.append(VERTEX_TYPE_CODES[record.vertex_type])
        orders.append(record.order)
        if record.properties:
            vertex_props[record.vertex_id] = record.properties
    edge_ids: list[int] = []
    edge_codes: list[int] = []
    srcs: list[int] = []
    dsts: list[int] = []
    edge_props: dict[int, dict[str, Any]] = {}
    for record in store.edges():
        edge_ids.append(record.edge_id)
        edge_codes.append(EDGE_TYPE_CODES[record.edge_type])
        srcs.append(record.src)
        dsts.append(record.dst)
        if record.properties:
            edge_props[record.edge_id] = record.properties
    meta = {
        "kind": "checkpoint",
        "format": CHECKPOINT_FORMAT,
        "vertex_capacity": store.vertex_capacity,
        "edge_capacity": store.edge_capacity,
        "epoch": store.epoch,
        "check_signatures": store.check_signatures,
        "generation": generation,
        "live_vertices": len(vertex_ids),
        "live_edges": len(edge_ids),
    }
    sections = (
        json.dumps(meta, sort_keys=True).encode("utf-8"),
        np.asarray(vertex_ids, dtype="<i8").tobytes(),
        np.asarray(vertex_codes, dtype="i1").tobytes(),
        np.asarray(orders, dtype="<i8").tobytes(),
        np.asarray(edge_ids, dtype="<i8").tobytes(),
        np.asarray(edge_codes, dtype="i1").tobytes(),
        np.asarray(srcs, dtype="<i8").tobytes(),
        np.asarray(dsts, dtype="<i8").tobytes(),
        json.dumps({"vertices": vertex_props, "edges": edge_props},
                   sort_keys=True).encode("utf-8"),
    )
    staging = target.with_name(target.name + ".tmp")
    written = len(CHECKPOINT_MAGIC)
    with staging.open("wb") as handle:
        handle.write(CHECKPOINT_MAGIC)
        for payload in sections:
            written += _write_section(handle, payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(staging, target)
    return written


class _Cursor:
    """Sequential section reader over one checkpoint file's bytes."""

    def __init__(self, data: bytes, source: str):
        if data[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
            raise SerializationError(f"{source}: not a checkpoint file")
        self._view = memoryview(data)
        self._offset = len(CHECKPOINT_MAGIC)
        self._source = source

    def section(self) -> memoryview:
        view, offset = self._view, self._offset
        if offset + _LEN.size > len(view):
            raise SerializationError(f"{self._source}: truncated checkpoint")
        (length,) = _LEN.unpack_from(view, offset)
        offset += _LEN.size
        if offset + length > len(view):
            raise SerializationError(f"{self._source}: truncated checkpoint")
        self._offset = offset + length
        return view[offset:offset + length]

    def array(self, dtype: str) -> np.ndarray:
        raw = self.section()
        if len(raw) % np.dtype(dtype).itemsize:
            raise SerializationError(
                f"{self._source}: torn {dtype} array section")
        return np.frombuffer(raw, dtype=dtype)

    def json(self, what: str) -> Any:
        try:
            return json.loads(bytes(self.section()).decode("utf-8"))
        # UnicodeDecodeError and JSONDecodeError are ValueErrors; deep
        # nesting exhausts the decoder's recursion limit.
        except (ValueError, RecursionError) as exc:
            raise SerializationError(
                f"{self._source}: corrupt {what} section: {exc}") from exc

    def meta(self) -> dict[str, Any]:
        meta = self.json("meta")
        if not isinstance(meta, dict) \
                or meta.get("format") != CHECKPOINT_FORMAT:
            raise SerializationError(
                f"{self._source}: unsupported checkpoint format")
        return meta

    def done(self) -> bool:
        return self._offset == len(self._view)


def read_checkpoint_meta(path: str | Path) -> dict[str, Any]:
    """Read just the meta record of a checkpoint (cheap validity probe)."""
    source = Path(path)
    with source.open("rb") as handle:
        head = handle.read(len(CHECKPOINT_MAGIC) + _LEN.size)
        length = _LEN.unpack_from(head, len(CHECKPOINT_MAGIC))[0] \
            if len(head) == len(CHECKPOINT_MAGIC) + _LEN.size else 0
        head += handle.read(length)
    return _Cursor(head, str(source)).meta()


def _count(meta: dict[str, Any], key: str, source: str) -> int:
    value = meta.get(key)
    if type(value) is not int or value < 0:
        raise SerializationError(
            f"{source}: bad checkpoint meta {key}={value!r}")
    return value


def _props_by_id(props: Any, kind: str, live: set[int],
                 source: str) -> dict[int, dict[str, Any]]:
    """One property table, keyed by live record ids."""
    table = props.get(kind, {}) if isinstance(props, dict) else None
    if not isinstance(table, dict):
        raise SerializationError(f"{source}: corrupt {kind} property table")
    by_id: dict[int, dict[str, Any]] = {}
    for key, value in table.items():
        try:
            record_id = int(key)
        except ValueError:
            record_id = -1
        if record_id not in live or not isinstance(value, dict):
            raise SerializationError(
                f"{source}: {kind} properties for no live record {key!r}")
        by_id[record_id] = value
    return by_id


def _check_ids(ids: np.ndarray, capacity: int, kind: str,
               source: str) -> None:
    """Live ids must be strictly ascending (no duplicates) within the
    id space the capacity declares."""
    # Bounds first: within [0, capacity) the differences cannot overflow.
    if len(ids) and (ids.min() < 0 or ids.max() >= capacity
                     or (np.diff(ids) <= 0).any()):
        raise SerializationError(
            f"{source}: {kind} ids not ascending within capacity {capacity}")


def read_checkpoint(path: str | Path) -> PropertyGraphStore:
    """Rebuild a store from a checkpoint file.

    The file is read in one sequential read and the array sections are
    decoded in place over that buffer (``np.frombuffer`` — no
    intermediate text or copy of the topology). The store's internal
    tables are then constructed directly, skipping per-record mutation
    plumbing. Nothing references the file afterwards, so checkpoint files
    can be deleted while bootstrapped followers live on.

    Validation happens before any table is built: ids strictly ascending
    within the declared capacities, type codes known, every edge endpoint
    a live vertex, section lengths and live counts agreeing with the meta
    record, property tables naming only live records, no trailing bytes.

    Raises:
        SerializationError: on a torn, truncated, corrupt, or foreign file.
    """
    source = str(path)
    cursor = _Cursor(Path(path).read_bytes(), source)
    meta = cursor.meta()
    vertex_ids = cursor.array("<i8")
    vertex_codes = cursor.array("i1")
    orders = cursor.array("<i8")
    edge_ids = cursor.array("<i8")
    edge_codes = cursor.array("i1")
    srcs = cursor.array("<i8")
    dsts = cursor.array("<i8")
    props = cursor.json("props")
    if not cursor.done():
        raise SerializationError(f"{source}: trailing bytes in checkpoint")
    vertex_capacity = _count(meta, "vertex_capacity", source)
    edge_capacity = _count(meta, "edge_capacity", source)
    epoch = _count(meta, "epoch", source)
    check_signatures = meta.get("check_signatures", True)
    if (len(vertex_ids) != _count(meta, "live_vertices", source)
            or len(edge_ids) != _count(meta, "live_edges", source)
            or len(vertex_codes) != len(vertex_ids)
            or len(orders) != len(vertex_ids)
            or len(edge_codes) != len(edge_ids)
            or len(srcs) != len(edge_ids)
            or len(dsts) != len(edge_ids)
            or not isinstance(check_signatures, bool)):
        raise SerializationError(f"{source}: checkpoint section mismatch")
    _check_ids(vertex_ids, vertex_capacity, "vertex", source)
    _check_ids(edge_ids, edge_capacity, "edge", source)
    if not (set(np.unique(vertex_codes).tolist()) <= _VERTEX_TYPE_BY_CODE.keys()
            and set(np.unique(edge_codes).tolist())
            <= _EDGE_TYPE_BY_CODE.keys()):
        raise SerializationError(f"{source}: unknown type code")
    live = np.zeros(vertex_capacity, dtype=bool)
    live[vertex_ids] = True
    endpoints = np.concatenate((srcs, dsts))
    if len(endpoints) and (endpoints.min() < 0
                           or endpoints.max() >= vertex_capacity
                           or not live[endpoints].all()):
        raise SerializationError(
            f"{source}: edge endpoint is not a live vertex")
    vertex_id_list = vertex_ids.tolist()
    edge_id_list = edge_ids.tolist()
    vertex_props = _props_by_id(props, "vertices", set(vertex_id_list),
                                source)
    edge_props = _props_by_id(props, "edges", set(edge_id_list), source)

    store = PropertyGraphStore(check_signatures=check_signatures)
    vertices: list[VertexRecord | None] = [None] * vertex_capacity
    outgoing: list[dict[EdgeType, list[int]]] = [
        {} for _ in range(vertex_capacity)]
    incoming: list[dict[EdgeType, list[int]]] = [
        {} for _ in range(vertex_capacity)]
    label_index = store._label_index
    for vertex_id, code, order in zip(vertex_id_list, vertex_codes.tolist(),
                                      orders.tolist()):
        vertex_type = _VERTEX_TYPE_BY_CODE[code]
        vertices[vertex_id] = VertexRecord(
            vertex_id, vertex_type, dict(vertex_props.get(vertex_id, {})),
            order)
        label_index.add_vertex(vertex_id, vertex_type)
    edges: list[EdgeRecord | None] = [None] * edge_capacity
    for edge_id, code, src, dst in zip(edge_id_list, edge_codes.tolist(),
                                       srcs.tolist(), dsts.tolist()):
        edge_type = _EDGE_TYPE_BY_CODE[code]
        edges[edge_id] = EdgeRecord(edge_id, edge_type, src, dst,
                                    dict(edge_props.get(edge_id, {})))
        outgoing[src].setdefault(edge_type, []).append(edge_id)
        incoming[dst].setdefault(edge_type, []).append(edge_id)
        label_index.add_edge(edge_id, edge_type)
    # Install the tables wholesale (same-package access): the dense id
    # spaces, adjacency, and live counts exactly as replaying the records
    # would have built them. `_next_order == vertex_capacity` matches the
    # restore_records invariant (each id — live or gap — consumed one
    # reconstruction ordinal); followers only advance it through
    # apply_replicated_batch, which max()-guards against shipped ordinals.
    store._vertices = vertices
    store._edges = edges
    store._out = outgoing
    store._in = incoming
    store._live_vertex_count = len(vertex_id_list)
    store._live_edge_count = len(edge_id_list)
    store._next_order = vertex_capacity
    store.restore_epoch(epoch)
    return store


@dataclass(frozen=True, slots=True)
class Checkpoint:
    """Handle to one on-disk checkpoint: where it is and what it covers."""

    path: Path
    epoch: int
    generation: int
    nbytes: int


class CheckpointManager:
    """Owns one live checkpoint file in a private temp directory.

    ``capture`` writes a fresh checkpoint of the store's current state and
    deletes the previous file; ``invalidate`` drops the current one (used
    when it fell behind the delta log's truncation horizon); ``close``
    removes the directory. At most one checkpoint file exists at any time,
    so restart loops cannot accumulate stale state on disk.
    """

    def __init__(self) -> None:
        self._dir: Path | None = None
        self._latest: Checkpoint | None = None
        self._generation = 0
        self._closed = False

    @property
    def latest(self) -> Checkpoint | None:
        """The current checkpoint, or ``None`` if absent/invalidated."""
        return self._latest

    @property
    def closed(self) -> bool:
        return self._closed

    def capture(self, store: PropertyGraphStore) -> Checkpoint:
        """Write a fresh checkpoint of ``store``; drops the previous file."""
        if self._closed:
            raise RuntimeError("checkpoint manager is closed")
        if self._dir is None:
            self._dir = Path(tempfile.mkdtemp(prefix="repro-ckpt-"))
        previous = self._latest
        self._generation += 1
        generation = self._generation
        path = self._dir / f"ckpt-{store.epoch}-{generation}.bin"
        nbytes = write_checkpoint(store, path, generation=generation)
        self._latest = Checkpoint(path, store.epoch, generation, nbytes)
        if previous is not None and previous.path != path:
            previous.path.unlink(missing_ok=True)
        return self._latest

    def invalidate(self) -> None:
        """Forget (and delete) the current checkpoint, if any."""
        latest, self._latest = self._latest, None
        if latest is not None:
            latest.path.unlink(missing_ok=True)

    def close(self) -> None:
        """Delete the checkpoint file and its directory. Idempotent."""
        self._closed = True
        self._latest = None
        directory, self._dir = self._dir, None
        if directory is not None:
            shutil.rmtree(directory, ignore_errors=True)

    def __enter__(self) -> "CheckpointManager":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
