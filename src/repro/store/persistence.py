"""Durability for the property graph store: snapshots and a write-ahead log.

Provenance stores are append-mostly logs, so durability comes in two parts:

- :func:`save_store` / :func:`load_store` — full snapshots as JSON Lines.
  Vertex/edge *ids and creation ordinals are preserved exactly* (including
  tombstoned id gaps), because ids are the store's public handles: a PgSeg
  query saved yesterday must address the same snapshots today. The meta
  record also carries the store's **epoch** (format ``repro-store-v2``), so
  a reloaded store rejoins its epoch timeline instead of restarting at the
  reconstruction count — epoch-keyed caches stay coherent.
  ``repro-store-v1`` files (no epoch) remain readable.
- :class:`WriteAheadLog` — a thin mutation proxy that appends one JSON line
  per operation before applying it, with :func:`replay` to rebuild a store
  from the log (crash recovery, or shipping provenance increments).

Format: first line is a ``meta`` record; then one record per live vertex and
edge (snapshot) or per operation (log). Replication does not use this
format: followers bootstrap from the binary checkpoint
(:mod:`repro.store.checkpoint`).
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from pathlib import Path
from typing import Any, TextIO

from repro.errors import SerializationError
from repro.model.types import EdgeType, VertexType, parse_edge_type, parse_vertex_type
from repro.store.records import EdgeRecord, VertexRecord
from repro.store.store import PropertyGraphStore

#: Current snapshot format tag.
FORMAT = "repro-store-v2"
_READABLE_FORMATS = ("repro-store-v1", "repro-store-v2")


def meta_record(store: PropertyGraphStore) -> dict[str, Any]:
    """The meta line of a snapshot: one shape, one writer.

    Carries everything a faithful reconstruction needs beyond the records
    themselves: the id-space capacities, the epoch, and the store's
    signature-checking mode (a loose store must restore loose, or
    reconstruction rejects its own edges).
    """
    return {
        "kind": "meta",
        "format": FORMAT,
        "vertex_capacity": store.vertex_capacity,
        "edge_capacity": store.edge_capacity,
        "epoch": store.epoch,
        "check_signatures": store.check_signatures,
    }


def vertex_record_to_json(record: VertexRecord) -> dict[str, Any]:
    """The JSON shape of one vertex record."""
    return {
        "kind": "vertex",
        "id": record.vertex_id,
        "type": record.vertex_type.label,
        "order": record.order,
        "props": record.properties,
    }


def edge_record_to_json(record: EdgeRecord) -> dict[str, Any]:
    """The JSON shape of one edge record."""
    return {
        "kind": "edge",
        "id": record.edge_id,
        "type": record.edge_type.label,
        "src": record.src,
        "dst": record.dst,
        "props": record.properties,
    }


def save_store(store: PropertyGraphStore, path: str | Path) -> None:
    """Write a full snapshot of the store to ``path`` (JSON Lines)."""
    target = Path(path)
    with target.open("w") as handle:
        json.dump(meta_record(store), handle)
        handle.write("\n")
        for record in store.vertices():
            json.dump(vertex_record_to_json(record), handle)
            handle.write("\n")
        for record in store.edges():
            json.dump(edge_record_to_json(record), handle)
            handle.write("\n")


def restore_records(meta: Mapping[str, Any],
                    vertices: Mapping[int, Mapping[str, Any]],
                    edges: Mapping[int, Mapping[str, Any]],
                    check_signatures: bool | None = None,
                    source: str = "<records>") -> PropertyGraphStore:
    """Rebuild a store from parsed snapshot records.

    Recreates the dense id space exactly — live records at their ids,
    tombstones in the gaps — and, when ``meta`` carries an ``epoch``
    (format v2), restores the store's epoch and rebases its delta log
    there, so the reloaded store continues the original epoch timeline.

    Args:
        check_signatures: ``None`` (default) adopts the saved store's mode
            from the meta record (v1 metas lack it: strict); a bool
            overrides it.

    Raises:
        SerializationError: on id drift or irrecoverable gaps.
    """
    if check_signatures is None:
        check_signatures = bool(meta.get("check_signatures", True))
    store = PropertyGraphStore(check_signatures=check_signatures)
    # Live records land at their ids; gaps are filled with a placeholder
    # that is added then removed, so ids stay exact.
    for vertex_id in range(int(meta["vertex_capacity"])):
        record = vertices.get(vertex_id)
        if record is None:
            placeholder = store.add_vertex(VertexType.ENTITY)
            store.remove_vertex(placeholder)
            continue
        created = store.add_vertex(
            parse_vertex_type(record["type"]), dict(record["props"])
        )
        if created != vertex_id:     # pragma: no cover - defensive
            raise SerializationError(
                f"{source}: id drift ({created} != {vertex_id})"
            )
        store.vertex(created).order = int(record["order"])
    # Edge id gaps are reserved with a self-derivation placeholder on any
    # live entity, immediately tombstoned again.
    gap_anchor = next(
        (v for v in vertices
         if store.vertex_type(v) is VertexType.ENTITY), None)
    for edge_id in range(int(meta["edge_capacity"])):
        record = edges.get(edge_id)
        if record is None:
            if gap_anchor is None:
                raise SerializationError(
                    f"{source}: cannot reserve edge id {edge_id} without a "
                    "live entity"
                )
            placeholder = store.add_edge(
                EdgeType.WAS_DERIVED_FROM, gap_anchor, gap_anchor)
            store.remove_edge(placeholder)
            continue
        created = store.add_edge(
            parse_edge_type(record["type"]),
            int(record["src"]), int(record["dst"]),
            dict(record["props"]),
        )
        if created != edge_id:       # pragma: no cover - defensive
            raise SerializationError(
                f"{source}: edge id drift ({created} != {edge_id})"
            )
    if "epoch" in meta:
        # Rejoin the saved timeline: reconstruction bumped the epoch once
        # per rebuild operation, which is meaningless to the original
        # store's caches and followers. The rebased delta log answers
        # batches_since(epoch) == [] and None for anything earlier, so
        # stale readers fall back to a full recapture.
        store.restore_epoch(int(meta["epoch"]))
    return store


def parse_snapshot_lines(lines: Iterable[str], source: str = "<lines>",
                         ) -> tuple[dict, dict[int, dict], dict[int, dict]]:
    """Parse JSON-Lines snapshot records into ``(meta, vertices, edges)``.

    Raises:
        SerializationError: on malformed JSON, unknown record kinds, or a
            missing/unsupported meta record.
    """
    vertices: dict[int, dict] = {}
    edges: dict[int, dict] = {}
    meta: dict | None = None
    for line_number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SerializationError(
                f"{source}:{line_number}: invalid JSON: {exc}"
            ) from exc
        kind = record.get("kind")
        if kind == "meta":
            meta = record
        elif kind == "vertex":
            vertices[int(record["id"])] = record
        elif kind == "edge":
            edges[int(record["id"])] = record
        else:
            raise SerializationError(
                f"{source}:{line_number}: unknown record kind {kind!r}"
            )
    if meta is None or meta.get("format") not in _READABLE_FORMATS:
        raise SerializationError(f"{source}: missing or wrong meta record")
    return meta, vertices, edges


def load_store(path: str | Path,
               check_signatures: bool | None = None) -> PropertyGraphStore:
    """Rebuild a store from a snapshot, preserving ids, orders, and gaps.

    v2 snapshots also restore the store's epoch and signature-checking
    mode (see :func:`restore_records`; pass a bool to override the mode);
    v1 snapshots load with the legacy reconstruction epoch.

    Raises:
        SerializationError: on malformed snapshots.
    """
    source = Path(path)
    with source.open() as handle:
        meta, vertices, edges = parse_snapshot_lines(handle, str(source))
    return restore_records(meta, vertices, edges,
                           check_signatures=check_signatures,
                           source=str(source))


class WriteAheadLog:
    """Mutation proxy: append the operation to a log file, then apply it.

    Only mutations go through the proxy; reads go to ``store`` directly.
    The log composes with snapshots: replay onto a freshly loaded snapshot
    to recover the latest state.
    """

    def __init__(self, store: PropertyGraphStore, path: str | Path):
        self.store = store
        self._path = Path(path)
        self._handle: TextIO = self._path.open("a")
        if self._path.stat().st_size == 0:
            self._write({"kind": "meta", "format": FORMAT, "log": True})

    def _write(self, record: dict[str, Any]) -> None:
        json.dump(record, self._handle)
        self._handle.write("\n")
        self._handle.flush()

    # -- mutations -------------------------------------------------------

    def add_vertex(self, vertex_type: VertexType,
                   properties: dict[str, Any] | None = None) -> int:
        self._write({"kind": "op", "op": "add_vertex",
                     "type": vertex_type.label, "props": properties or {}})
        return self.store.add_vertex(vertex_type, properties)

    def add_edge(self, edge_type: EdgeType, src: int, dst: int,
                 properties: dict[str, Any] | None = None) -> int:
        self._write({"kind": "op", "op": "add_edge",
                     "type": edge_type.label, "src": src, "dst": dst,
                     "props": properties or {}})
        return self.store.add_edge(edge_type, src, dst, properties)

    def set_vertex_property(self, vertex_id: int, key: str, value: Any) -> None:
        self._write({"kind": "op", "op": "set_vertex_property",
                     "id": vertex_id, "key": key, "value": value})
        self.store.set_vertex_property(vertex_id, key, value)

    def remove_vertex(self, vertex_id: int) -> None:
        self._write({"kind": "op", "op": "remove_vertex", "id": vertex_id})
        self.store.remove_vertex(vertex_id)

    def remove_edge(self, edge_id: int) -> None:
        self._write({"kind": "op", "op": "remove_edge", "id": edge_id})
        self.store.remove_edge(edge_id)

    def close(self) -> None:
        """Close the log file handle."""
        self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def replay(path: str | Path,
           store: PropertyGraphStore | None = None) -> PropertyGraphStore:
    """Apply a write-ahead log to ``store`` (or a fresh one) and return it.

    Raises:
        SerializationError: on malformed log lines or unknown operations.
    """
    target = store if store is not None else PropertyGraphStore()
    source = Path(path)
    with source.open() as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SerializationError(
                    f"{source}:{line_number}: invalid JSON: {exc}"
                ) from exc
            if record.get("kind") == "meta":
                continue
            if record.get("kind") != "op":
                raise SerializationError(
                    f"{source}:{line_number}: unexpected record "
                    f"{record.get('kind')!r}"
                )
            op = record["op"]
            if op == "add_vertex":
                target.add_vertex(parse_vertex_type(record["type"]),
                                  dict(record["props"]))
            elif op == "add_edge":
                target.add_edge(parse_edge_type(record["type"]),
                                int(record["src"]), int(record["dst"]),
                                dict(record["props"]))
            elif op == "set_vertex_property":
                target.set_vertex_property(int(record["id"]),
                                           record["key"], record["value"])
            elif op == "remove_vertex":
                target.remove_vertex(int(record["id"]))
            elif op == "remove_edge":
                target.remove_edge(int(record["id"]))
            else:
                raise SerializationError(
                    f"{source}:{line_number}: unknown op {op!r}"
                )
    return target
