"""Wire format for the replication stream: JSON frames, round-trip exact.

The frames defined here are the **process boundary** of the serving
layer: one JSON object per frame, every frame carrying a ``kind``. The
normative spec, with one worked example per frame kind, is
``docs/wire-protocol.md``; ``tests/test_docs_examples.py`` round-trips
every example in that document through the codecs below, so the spec and
the code cannot drift apart.

Four message families cross the leader -> replica boundary:

- **Batch frames** (:func:`batch_to_wire` / :func:`batch_from_wire`, and
  the packed binary codec :func:`encode_batch_binary` /
  :func:`unpack_batch_frame` every follower is shipped): one frame per
  :class:`repro.store.delta.DeltaBatch`. The typed
  :class:`~repro.store.delta.Delta` records are self-contained for
  *structure*, but deliberately carry no property payloads (the in-process
  snapshot patcher reads values through shared records). The wire codec
  therefore **enriches** each delta at encode time with what a remote
  follower cannot reconstruct: the properties dict for ``ADD_VERTEX`` /
  ``ADD_EDGE`` and the set value for ``SET_*``, read from the leader store.
  A subject that died on the leader before shipping encodes with no payload
  — its tombstone batch follows in the same stream, so followers never
  serve the transiently stale value (see
  :meth:`~repro.store.PropertyGraphStore.apply_replicated_batch`).

- **Request/response query frames** (:func:`request_to_wire` /
  :func:`response_to_wire` and their inverses): remote procedure calls a
  worker process answers against its local snapshot — ``lineage`` /
  ``impacted`` / ``blame`` / ``segment`` / ``cypher``. Each read family
  has a dedicated parameter/result codec below (:func:`lineage_to_wire`,
  :func:`segment_to_wire`, :func:`rows_to_wire`, ...) so the answers are
  value-identical on both sides of the boundary. Many requests can ride
  one ``requests`` **bundle frame** (:func:`requests_bundle_to_wire`),
  answered by one ``responses`` bundle executed against a single armed
  snapshot with per-request error isolation — the dashboard fan-in path
  that makes batching/pipelining an additive protocol extension (no
  version bump). Workers send every ok answer as a :class:`WireValue`,
  whose canonical JSON text is encoded once and then copied verbatim —
  into packed binary frames and, by the async front-end
  (:func:`frame_text`), into client lines.

- **Control frames** (``hello`` / ``welcome`` / ``checkpoint`` /
  ``ping`` / ``pong`` / ``event`` / ``shutdown`` / ``bye``): worker
  lifecycle — handshake, bootstrap from a checkpoint file
  (:mod:`repro.store.checkpoint` is the state format; only the frame
  naming the file crosses the stream), health checks, and divergence
  reporting.

- **Client-session frames** (``client_hello`` / ``welcome``): the async
  front-end's handshake.

Round-trip guarantees (``tests/test_serve_wire.py``): every delta op kind,
batch epochs, and payload presence/absence survive encode -> decode
bit-exactly. Property values must be JSON-representable (str/int/float/
bool/None and nested lists/dicts thereof) — the same constraint the
persistence layer already imposes.
"""

from __future__ import annotations

import json
import struct
from typing import TYPE_CHECKING, Any

from repro.errors import SegmentationError, SerializationError
from repro.model.types import parse_edge_type, parse_vertex_type
from repro.query.paths import Path, Step
from repro.serve.transport import register_frame_decoder, register_frame_packer

if TYPE_CHECKING:   # pragma: no cover - types only
    from repro.model.graph import ProvenanceGraph
    from repro.query.cypherlite import Budget
    from repro.query.ops import Lineage
    from repro.segment.pgseg import PgSegQuery, Segment
    from repro.summarize.pgsum import PgSumQuery
    from repro.summarize.psg import Psg
from repro.store.delta import (
    Delta,
    DeltaBatch,
    DeltaOp,
    PropertyPayload,
)
from repro.store.store import PropertyGraphStore

#: Wire format tag carried by every frame.
WIRE_FORMAT = "repro-wire-v1"

#: What every worker stream speaks after its hello/welcome handshake:
#: length-prefixed binary framing plus binary codecs for the two hot
#: frame families (shipped batches, response bundles). Every JSON frame
#: shape is unchanged — v2
#: is a transport/codec upgrade, not a new frame vocabulary — so ``format``
#: tags inside frames stay ``repro-wire-v1``, which is also still the
#: framing of the handshake itself and of front-end client sessions.
WIRE_FORMAT_V2 = "repro-wire-v2"

_PROPERTY_OPS = (DeltaOp.SET_VERTEX_PROPERTY, DeltaOp.SET_EDGE_PROPERTY)


# ---------------------------------------------------------------------------
# Delta <-> JSON object
# ---------------------------------------------------------------------------


def delta_to_wire(delta: Delta,
                  store: PropertyGraphStore | None = None) -> dict[str, Any]:
    """One delta as a JSON-able object, payload-enriched from ``store``."""
    record: dict[str, Any] = {"op": delta.op.name, "id": delta.subject_id}
    if delta.vertex_type is not None:
        record["vt"] = delta.vertex_type.label
    if delta.edge_type is not None:
        record["et"] = delta.edge_type.label
    if delta.src != -1 or delta.dst != -1:
        record["src"] = delta.src
        record["dst"] = delta.dst
    if delta.order != -1:
        record["order"] = delta.order
    if delta.key is not None:
        record["key"] = delta.key
    if store is None:
        return record

    # Payload enrichment: read what the typed record alone cannot carry.
    # Ship-time state is by construction the final state of the shipped
    # span, so current values converge exactly on the follower.
    if delta.op is DeltaOp.ADD_VERTEX and delta.subject_id in store:
        record["props"] = store.vertex(delta.subject_id).properties
    elif delta.op is DeltaOp.ADD_EDGE and store.has_edge_id(delta.subject_id):
        record["props"] = store.edge(delta.subject_id).properties
    elif delta.op is DeltaOp.SET_VERTEX_PROPERTY \
            and delta.subject_id in store:
        props = store.vertex(delta.subject_id).properties
        if delta.key in props:
            record["value"] = props[delta.key]
            record["has_value"] = True
    elif delta.op is DeltaOp.SET_EDGE_PROPERTY \
            and store.has_edge_id(delta.subject_id):
        props = store.edge(delta.subject_id).properties
        if delta.key in props:
            record["value"] = props[delta.key]
            record["has_value"] = True
    return record


def delta_from_wire(record: dict[str, Any]) -> tuple[Delta, Any]:
    """Decode one wire delta into ``(Delta, payload)``.

    The payload is what :meth:`PropertyGraphStore.apply_replicated_batch`
    expects: a properties dict for adds, a :class:`PropertyPayload` for
    sets (``None`` when the leader could no longer supply the value), and
    ``None`` for removals.
    """
    try:
        op = DeltaOp[record["op"]]
        delta = Delta(
            op=op,
            subject_id=int(record["id"]),
            vertex_type=(parse_vertex_type(record["vt"])
                         if "vt" in record else None),
            edge_type=(parse_edge_type(record["et"])
                       if "et" in record else None),
            src=int(record.get("src", -1)),
            dst=int(record.get("dst", -1)),
            order=int(record.get("order", -1)),
            key=record.get("key"),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(f"malformed wire delta: {record!r}") from exc
    if op in (DeltaOp.ADD_VERTEX, DeltaOp.ADD_EDGE):
        props = record.get("props", {})
        if not isinstance(props, dict):
            raise SerializationError(f"malformed wire delta: {record!r}")
        return delta, dict(props)
    if op in _PROPERTY_OPS and record.get("has_value"):
        return delta, PropertyPayload(record["value"])
    return delta, None


# ---------------------------------------------------------------------------
# Batch <-> JSON line
# ---------------------------------------------------------------------------


def batch_to_wire(batch: DeltaBatch,
                  store: PropertyGraphStore | None = None) -> dict[str, Any]:
    """One batch as a JSON-able object (see :func:`delta_to_wire`)."""
    return {
        "kind": "batch",
        "format": WIRE_FORMAT,
        "epoch": batch.epoch,
        "deltas": [delta_to_wire(delta, store) for delta in batch.deltas],
    }


def batch_from_wire(record: dict[str, Any],
                    ) -> tuple[DeltaBatch, list[Any]]:
    """Decode a wire batch object into ``(DeltaBatch, payloads)``."""
    if record.get("kind") != "batch" or record.get("format") != WIRE_FORMAT:
        raise SerializationError(
            f"not a {WIRE_FORMAT} batch record: {record.get('kind')!r}"
        )
    try:
        epoch = int(record["epoch"])
        raw_deltas = record["deltas"]
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(
            f"malformed wire batch record: {record!r}") from exc
    decoded = [delta_from_wire(raw) for raw in raw_deltas]
    batch = DeltaBatch(
        epoch=epoch,
        deltas=tuple(delta for delta, _ in decoded),
    )
    return batch, [payload for _, payload in decoded]


# ---------------------------------------------------------------------------
# Control frames (worker lifecycle)
# ---------------------------------------------------------------------------


def _expect_kind(record: dict[str, Any], kind: str) -> dict[str, Any]:
    if record.get("kind") != kind or record.get("format") != WIRE_FORMAT:
        raise SerializationError(
            f"not a {WIRE_FORMAT} {kind!r} frame: {record.get('kind')!r}"
        )
    return record


def hello_frame(worker_id: int, token: str,
                wire: "list[str] | None" = None) -> dict[str, Any]:
    """The worker's first frame after connecting: who it is + the shared
    spawn token (rejects stray connections to the pool's listener).

    ``wire`` (additive under ``repro-wire-v1``) lists the wire formats the
    worker can speak beyond v1 — ``["repro-wire-v2"]`` from every real
    worker. The pool refuses a hello without it and answers the rest
    with a ``welcome`` frame naming the format (:func:`welcome_frame`
    ``wire=``) before any bootstrap state flows.
    """
    frame: dict[str, Any] = {"kind": "hello", "format": WIRE_FORMAT,
                             "worker": int(worker_id), "token": token}
    if wire:
        frame["wire"] = [str(version) for version in wire]
    return frame


def hello_from_wire(record: dict[str, Any]) -> tuple[int, str]:
    """Decode a hello frame into ``(worker_id, token)``."""
    _expect_kind(record, "hello")
    try:
        return int(record["worker"]), str(record["token"])
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(f"malformed hello frame: {record!r}") from exc


def hello_wire_formats(record: dict[str, Any]) -> tuple[str, ...]:
    """The extra wire formats a hello frame advertises (may be empty)."""
    _expect_kind(record, "hello")
    return tuple(str(version) for version in record.get("wire") or ())


def checkpoint_frame(path: str, epoch: int,
                     generation: int) -> dict[str, Any]:
    """Bootstrap-by-checkpoint order: load the binary snapshot at ``path``.

    How every worker is bootstrapped; the path is a leader-local file
    (:mod:`repro.store.checkpoint`), valid because workers are always
    subprocesses on the same host — that locality is why only this frame
    crosses the stream, never the store itself. The worker answers
    ``pong`` at the checkpoint's epoch on success so the leader can
    verify the load before shipping the delta-log tail.
    """
    return {"kind": "checkpoint", "format": WIRE_FORMAT,
            "path": str(path), "epoch": int(epoch),
            "generation": int(generation)}


def checkpoint_from_wire(record: dict[str, Any]) -> tuple[str, int, int]:
    """Decode a checkpoint frame into ``(path, epoch, generation)``."""
    _expect_kind(record, "checkpoint")
    try:
        return (str(record["path"]), int(record["epoch"]),
                int(record["generation"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(
            f"malformed checkpoint frame: {record!r}") from exc


def ping_frame() -> dict[str, Any]:
    """Health-check probe; the worker answers with a pong frame."""
    return {"kind": "ping", "format": WIRE_FORMAT}


def pong_frame(epoch: int, stats: dict[str, Any] | None = None,
               ) -> dict[str, Any]:
    """Health-check answer: the worker's replayed epoch plus counters."""
    frame: dict[str, Any] = {"kind": "pong", "format": WIRE_FORMAT,
                             "epoch": int(epoch)}
    if stats is not None:
        frame["stats"] = stats
    return frame


def pong_from_wire(record: dict[str, Any]) -> tuple[int, dict[str, Any]]:
    """Decode a pong frame into ``(epoch, stats)``."""
    _expect_kind(record, "pong")
    try:
        return int(record["epoch"]), dict(record.get("stats", {}))
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(f"malformed pong frame: {record!r}") from exc


def event_frame(event: str, detail: str = "") -> dict[str, Any]:
    """An unsolicited worker notification (e.g. ``diverged`` before the
    worker exits so the pool re-syncs it on restart)."""
    return {"kind": "event", "format": WIRE_FORMAT,
            "event": str(event), "detail": str(detail)}


def shutdown_frame() -> dict[str, Any]:
    """Clean-stop order; the worker answers ``bye`` and exits."""
    return {"kind": "shutdown", "format": WIRE_FORMAT}


def bye_frame() -> dict[str, Any]:
    """The worker's last frame before a clean exit."""
    return {"kind": "bye", "format": WIRE_FORMAT}


# ---------------------------------------------------------------------------
# Client-session frames (async front-end)
# ---------------------------------------------------------------------------


def client_hello_frame(client: str, token: str | None = None,
                       ) -> dict[str, Any]:
    """A remote client's first frame to the async front-end.

    ``client`` is a self-chosen display name (it rides into the
    front-end's per-session stats); ``token`` is the session auth
    token — required when the front-end was started with one, ignored
    otherwise. Additive under ``repro-wire-v1``: pre-frontend peers
    answer unknown kinds with an ``event`` frame, they never die.
    """
    frame: dict[str, Any] = {"kind": "client_hello", "format": WIRE_FORMAT,
                             "client": str(client)}
    if token is not None:
        frame["token"] = str(token)
    return frame


def client_hello_from_wire(record: dict[str, Any]) -> tuple[str, str | None]:
    """Decode a client hello into ``(client, token-or-None)``."""
    _expect_kind(record, "client_hello")
    try:
        token = record.get("token")
        return str(record["client"]), None if token is None else str(token)
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(
            f"malformed client_hello frame: {record!r}") from exc


def welcome_frame(session_id: int, epoch: int,
                  limits: dict[str, int] | None = None,
                  shard_epochs: "list[int] | None" = None,
                  wire: str | None = None) -> dict[str, Any]:
    """The front-end's answer to an accepted ``client_hello``.

    Carries the assigned session id, the leader epoch at accept time,
    and the budgets the client is subject to (``session_budget`` — its
    own backpressure cap — and the shared ``admission_budget``), so a
    well-behaved client can pace itself instead of discovering the
    limits through :class:`~repro.errors.Overloaded` rejections.

    ``shard_epochs`` (additive under ``repro-wire-v1``, absent unsharded)
    is the per-shard epoch vector of a sharded cluster at accept time,
    indexed by shard; :func:`welcome_from_wire` ignores it, so pre-shard
    clients decode sharded welcomes unchanged.

    ``wire`` (additive) names the wire format the sender selected from
    the peer's advertised capabilities (:func:`hello_frame` ``wire=``).
    The pool sends every worker a welcome with
    ``wire="repro-wire-v2"``; both sides then switch to length-prefixed
    binary framing (:class:`repro.serve.transport.BinaryTransport`) for
    every subsequent frame. Absent (front-end client sessions), the
    session stays on v1 JSON lines.
    """
    frame: dict[str, Any] = {"kind": "welcome", "format": WIRE_FORMAT,
                             "session": int(session_id),
                             "epoch": int(epoch)}
    if limits is not None:
        frame["limits"] = {key: int(value) for key, value in limits.items()}
    if shard_epochs is not None:
        frame["shard_epochs"] = [int(epoch) for epoch in shard_epochs]
    if wire is not None:
        frame["wire"] = str(wire)
    return frame


def welcome_from_wire(record: dict[str, Any],
                      ) -> tuple[int, int, dict[str, int]]:
    """Decode a welcome frame into ``(session_id, epoch, limits)``."""
    _expect_kind(record, "welcome")
    try:
        limits = {key: int(value)
                  for key, value in dict(record.get("limits", {})).items()}
        return int(record["session"]), int(record["epoch"]), limits
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(
            f"malformed welcome frame: {record!r}") from exc


def welcome_wire_format(record: dict[str, Any]) -> str | None:
    """The wire format a welcome frame selected, or ``None`` (v1)."""
    _expect_kind(record, "welcome")
    wire = record.get("wire")
    return None if wire is None else str(wire)


def shard_map_to_wire(shard_map) -> dict[str, Any]:
    """A :class:`~repro.store.sharding.ShardMap` as a frame.

    New frame kind under ``repro-wire-v1`` (additive: peers answer
    unknown kinds with an event frame). The versioned map record rides
    under ``"map"`` so the frame's ``format`` tag and the map's own
    persistence format tag stay distinct.
    """
    return {"kind": "shard_map", "format": WIRE_FORMAT,
            "map": shard_map.to_record()}


def shard_map_from_wire(record: dict[str, Any]):
    """Decode a shard-map frame back into a ``ShardMap`` (round-trip exact)."""
    from repro.store.sharding import ShardMap

    _expect_kind(record, "shard_map")
    try:
        return ShardMap.from_record(dict(record["map"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(
            f"malformed shard_map frame: {record!r}") from exc


# ---------------------------------------------------------------------------
# Answers: one value, one canonical text
# ---------------------------------------------------------------------------

_MISSING = object()

#: ``json.dumps(value, sort_keys=True)`` without building an encoder per
#: call: default separators, ASCII-only output.
_CANONICAL = json.JSONEncoder(sort_keys=True)


class WireValue:
    """One answer as its value, its canonical JSON text, or both.

    The canonical text is ``json.dumps(value, sort_keys=True)``: ASCII
    only, and free of raw newlines (JSON escapes them inside strings and
    the default separators add none), so it can be copied verbatim into a
    packed binary section or a client's JSON line. Whichever side is
    missing is derived on first read and kept: a worker encodes a cached
    answer once however many frames carry it, and a text that crossed a
    socket is parsed only by whoever reads :attr:`value` — never by a
    leader that only splices it on. Deriving the text releases the value
    (a worker's cache then holds compact text, not the lists it
    encodes); reading :attr:`value` afterwards parses the text again.

    Treat :attr:`value` as read-only: it may be a worker's cached answer.
    The fills are written without a lock, and at every instant one of
    the two sides is set (the text is stored before the value is
    released), so racing readers at worst derive an identical result
    twice.
    """

    __slots__ = ("_value", "_text")

    def __init__(self, value: Any = _MISSING, *, text: str | None = None):
        if (value is _MISSING) == (text is None):
            raise TypeError("WireValue takes exactly one of a value and "
                            "a text")
        self._value = value
        self._text = text

    @property
    def value(self) -> Any:
        """The answer as JSON values, parsed from the text if needed.

        Raises:
            SerializationError: the text is not JSON.
        """
        value = self._value
        if value is _MISSING:
            try:
                value = json.loads(self._text)
            except ValueError as exc:
                raise SerializationError(
                    f"invalid JSON answer text: {exc}") from exc
            self._value = value
        return value

    @property
    def text(self) -> str:
        """The canonical JSON text, encoded from the value on first read."""
        text = self._text
        if text is None:
            value = self._value
            if value is _MISSING:     # another thread encoded and released
                return self._text
            text = self._text = _CANONICAL.encode(value)
            self._value = _MISSING
        return text

    def __repr__(self) -> str:        # pragma: no cover - debugging aid
        return f"WireValue({'value' if self._text is None else 'text'})"


def frame_text(frame: Any) -> str:
    """A frame's JSON text with every :class:`WireValue` spliced verbatim.

    Byte-identical to ``json.dumps(frame, sort_keys=True)`` of the same
    frame with each ``WireValue`` replaced by its value: the envelope is
    encoded here, each answer's text is copied. Frame keys are strings,
    as in every frame this module builds.
    """
    if isinstance(frame, WireValue):
        return frame.text
    if isinstance(frame, dict):
        return "{" + ", ".join(
            f"{_CANONICAL.encode(key)}: {frame_text(frame[key])}"
            for key in sorted(frame)) + "}"
    if isinstance(frame, list):
        return "[" + ", ".join(frame_text(item) for item in frame) + "]"
    return _CANONICAL.encode(frame)


# ---------------------------------------------------------------------------
# Request / response query frames
# ---------------------------------------------------------------------------

#: Methods a replica worker serves (see :mod:`repro.serve.worker`).
REQUEST_METHODS = ("lineage", "impacted", "blame", "segment", "summarize",
                   "cypher", "metrics")


def request_to_wire(request_id: int, method: str,
                    params: dict[str, Any],
                    trace_id: str | None = None) -> dict[str, Any]:
    """One query request as a frame.

    ``request_id`` correlates the response on a duplex stream that also
    carries unsolicited event frames; ids are chosen by the client and
    echoed verbatim. ``trace_id`` is the optional tracing tag — additive
    under ``repro-wire-v1``: an absent field means *untraced*, and
    decoders that predate tracing ignore it.
    """
    if method not in REQUEST_METHODS:
        raise SerializationError(f"unknown request method {method!r}")
    frame: dict[str, Any] = {"kind": "request", "format": WIRE_FORMAT,
                             "id": int(request_id), "method": method,
                             "params": params}
    if trace_id is not None:
        frame["trace_id"] = str(trace_id)
    return frame


def request_from_wire(record: dict[str, Any],
                      ) -> tuple[int, str, dict[str, Any]]:
    """Decode a request frame into ``(request_id, method, params)``."""
    _expect_kind(record, "request")
    try:
        request_id = int(record["id"])
        method = record["method"]
        params = dict(record["params"])
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(
            f"malformed request frame: {record!r}") from exc
    if method not in REQUEST_METHODS:
        raise SerializationError(f"unknown request method {method!r}")
    return request_id, method, params


def trace_id_from_wire(record: dict[str, Any]) -> str | None:
    """The optional ``trace_id`` of a request frame (``None`` = untraced).

    Kept separate from :func:`request_from_wire` so every existing caller
    of the 3-tuple decoder stays untraced for free.
    """
    trace_id = record.get("trace_id")
    if trace_id is None:
        return None
    if not isinstance(trace_id, str) or not trace_id:
        raise SerializationError(
            f"malformed trace_id on request frame: {trace_id!r}")
    return trace_id


def response_to_wire(request_id: int, epoch: int, *,
                     result: Any = None,
                     error: dict[str, Any] | None = None,
                     trace: "list[dict[str, Any]] | None" = None,
                     ) -> dict[str, Any]:
    """One query answer as a frame.

    Exactly one of ``result`` (the method-specific result object — or a
    :class:`WireValue` holding it, as workers send every answer) and
    ``error`` (an :func:`error_to_wire` record) is carried; ``epoch`` is
    the worker's replayed epoch at answer time, so the client can verify
    its consistency stamp was honored. ``trace`` optionally returns the
    worker's span records for a traced request — additive, answers an
    incoming ``trace_id`` and is absent otherwise.
    """
    frame: dict[str, Any] = {"kind": "response", "format": WIRE_FORMAT,
                             "id": int(request_id), "epoch": int(epoch)}
    if error is not None:
        frame["ok"] = False
        frame["error"] = error
    else:
        frame["ok"] = True
        frame["result"] = result
    if trace is not None:
        frame["trace"] = list(trace)
    return frame


def response_from_wire(record: dict[str, Any],
                       ) -> tuple[int, int, bool, Any]:
    """Decode a response frame into ``(request_id, epoch, ok, payload)``.

    ``payload`` is the result object when ``ok`` — a :class:`WireValue`
    for an answer a worker sent — and the error record otherwise
    (rebuild it with :func:`error_from_wire`).
    """
    _expect_kind(record, "response")
    try:
        request_id = int(record["id"])
        epoch = int(record["epoch"])
        ok = bool(record["ok"])
        payload = record["result"] if ok else dict(record["error"])
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(
            f"malformed response frame: {record!r}") from exc
    return request_id, epoch, ok, payload


def response_trace_from_wire(record: dict[str, Any],
                             ) -> "list[dict[str, Any]] | None":
    """The optional worker span records of a response frame.

    ``None`` when the response answers an untraced request. Kept separate
    from :func:`response_from_wire` for the same reason as
    :func:`trace_id_from_wire`.
    """
    trace = record.get("trace")
    if trace is None:
        return None
    if not isinstance(trace, list) or \
            any(not isinstance(entry, dict) for entry in trace):
        raise SerializationError(
            f"malformed trace on response frame: {trace!r}")
    return trace


# ---------------------------------------------------------------------------
# Request / response bundle frames (batching + pipelining)
# ---------------------------------------------------------------------------


def requests_bundle_to_wire(
        calls: "list[tuple[int, str, dict[str, Any]]]",
        trace_ids: "list[str | None] | None" = None) -> dict[str, Any]:
    """Many query requests as **one** frame.

    ``calls`` is a non-empty list of ``(request_id, method, params)``
    triples; each inner record is a full :func:`request_to_wire` frame, so
    the bundle is purely additive over the existing protocol (a worker
    executes the inner requests exactly as if they had arrived as
    individual frames — but against one armed snapshot, and answering
    with one :func:`responses_bundle_to_wire` frame). Request ids must be
    unique within the bundle: the client correlates the answers by id.

    ``trace_ids``, when given, is a list parallel to ``calls`` tagging the
    traced inner requests (``None`` entries stay untraced) — see
    :func:`request_to_wire`.
    """
    if not calls:
        raise SerializationError("a requests bundle must carry at least "
                                 "one request")
    if trace_ids is None:
        trace_ids = [None] * len(calls)
    elif len(trace_ids) != len(calls):
        raise SerializationError("trace_ids must parallel the bundle calls")
    ids = [request_id for request_id, _, _ in calls]
    if len(set(ids)) != len(ids):
        raise SerializationError(
            f"duplicate request ids in bundle: {sorted(ids)!r}")
    return {
        "kind": "requests",
        "format": WIRE_FORMAT,
        "requests": [request_to_wire(request_id, method, params,
                                     trace_id=trace_id)
                     for (request_id, method, params), trace_id
                     in zip(calls, trace_ids)],
    }


def requests_bundle_from_wire(record: dict[str, Any],
                              ) -> "list[tuple[int, str, dict[str, Any]]]":
    """Decode a requests bundle into ``(request_id, method, params)``
    triples, in order (inverse of :func:`requests_bundle_to_wire`)."""
    _expect_kind(record, "requests")
    try:
        raw = list(record["requests"])
    except (KeyError, TypeError) as exc:
        raise SerializationError(
            f"malformed requests bundle: {record!r}") from exc
    if not raw:
        raise SerializationError("empty requests bundle")
    calls = [request_from_wire(entry) for entry in raw]
    ids = [request_id for request_id, _, _ in calls]
    if len(set(ids)) != len(ids):
        raise SerializationError(
            f"duplicate request ids in bundle: {sorted(ids)!r}")
    return calls


def bundle_trace_ids(record: dict[str, Any]) -> dict[int, str]:
    """Trace ids of a requests bundle's traced inner requests, by id.

    Untraced inner requests are simply absent; an untagged bundle decodes
    to an empty mapping.
    """
    _expect_kind(record, "requests")
    tagged: dict[int, str] = {}
    for entry in record.get("requests") or ():
        if isinstance(entry, dict) and entry.get("trace_id") is not None:
            trace_id = trace_id_from_wire(entry)
            tagged[int(entry["id"])] = trace_id
    return tagged


def responses_bundle_to_wire(epoch: int,
                             responses: list[dict[str, Any]],
                             ) -> dict[str, Any]:
    """Many query answers as **one** frame.

    ``responses`` are full :func:`response_to_wire` frames, one per inner
    request of the bundle being answered, **in request order**. ``epoch``
    is the worker's replayed epoch for the whole bundle — a bundle is
    executed against one armed snapshot, so every inner response carries
    the same epoch as the envelope.
    """
    if not responses:
        raise SerializationError("a responses bundle must carry at least "
                                 "one response")
    return {
        "kind": "responses",
        "format": WIRE_FORMAT,
        "epoch": int(epoch),
        "responses": list(responses),
    }


def responses_bundle_from_wire(record: dict[str, Any],
                               ) -> tuple[int, list[dict[str, Any]]]:
    """Decode a responses bundle into ``(epoch, response_frames)``.

    The inner frames decode individually with :func:`response_from_wire`
    (the client feeds them through the same pending-map correlation path
    as standalone responses).
    """
    _expect_kind(record, "responses")
    try:
        epoch = int(record["epoch"])
        responses = list(record["responses"])
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(
            f"malformed responses bundle: {record!r}") from exc
    if not responses:
        raise SerializationError("empty responses bundle")
    return epoch, responses


# ---------------------------------------------------------------------------
# Binary frame codecs (the repro-wire-v2 hot path)
# ---------------------------------------------------------------------------
#
# The highest-volume frame families — shipped delta batches (leader ->
# worker, one per committed epoch per worker) and answers (worker ->
# leader: response bundles, and the single responses of strict reads,
# ``summarize`` and ``metrics``) — get length-prefixed binary codecs. A
# binary payload is tagged by its first byte and decodes to the frame
# dict its JSON twin would have produced, except that an ok response's
# ``result`` is a text-backed :class:`WireValue`, parsed only when read;
# so everything above the transport's recv() is codec-agnostic, and the
# packers take the frame dict, keeping the JSON codec the single source
# of field semantics. Property maps and answers stay JSON (they are
# schemaless by design); the fixed-shape envelope — ids, type codes,
# topology, epochs, flags — is packed as little-endian struct fields.

#: First payload byte of a binary-coded shipped batch frame.
BATCH_FRAME_TAG = 0x01
#: First payload byte of a binary-coded responses-bundle frame.
RESPONSES_FRAME_TAG = 0x02
#: First payload byte of a binary-coded single response frame.
RESPONSE_FRAME_TAG = 0x03

_I64 = struct.Struct("<q")
_U32 = struct.Struct("<I")

_OP_BY_CODE = tuple(DeltaOp)
_CODE_BY_OP = {op.name: code for code, op in enumerate(DeltaOp)}

_F_VT = 1        # "vt" present
_F_ET = 2        # "et" present
_F_ENDPOINTS = 4  # "src" + "dst" present
_F_ORDER = 8     # "order" present
_F_KEY = 16      # "key" present
_F_PROPS = 32    # "props" present (enrichment; may be empty)
_F_VALUE = 64    # "value" + "has_value" present (enrichment)
_F_KNOWN = 127

_R_OK = 1        # the body is the result text (else the error record)
_R_TRACE = 2     # a trace section follows the body


def _pack_json(out: bytearray, obj: Any) -> None:
    _pack_text(out, _CANONICAL.encode(obj))


def _pack_text(out: bytearray, text: str) -> None:
    payload = text.encode("utf-8")
    out += _U32.pack(len(payload))
    out += payload


class _BinaryCursor:
    """Sequential struct reader over one binary frame payload."""

    __slots__ = ("_payload", "_offset")

    def __init__(self, payload: bytes, offset: int = 0):
        self._payload = payload
        self._offset = offset

    def u8(self) -> int:
        offset = self._offset
        if offset >= len(self._payload):
            raise SerializationError("truncated binary frame")
        self._offset = offset + 1
        return self._payload[offset]

    def unpack(self, spec: struct.Struct) -> int:
        offset = self._offset
        if offset + spec.size > len(self._payload):
            raise SerializationError("truncated binary frame")
        self._offset = offset + spec.size
        return spec.unpack_from(self._payload, offset)[0]

    def blob(self) -> bytes:
        length = self.unpack(_U32)
        offset = self._offset
        if offset + length > len(self._payload):
            raise SerializationError("truncated binary frame")
        self._offset = offset + length
        return self._payload[offset:offset + length]

    def string(self) -> str:
        """A UTF-8 string section."""
        try:
            return self.blob().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SerializationError(
                f"invalid UTF-8 section in binary frame: {exc}") from exc

    def text(self) -> str:
        """A canonical JSON text section, left unparsed.

        Its bytes are spliced verbatim into other frames — a client's
        JSON line among them — so what canonical text never holds (a
        non-ASCII byte, a raw newline) is refused here, before it could
        reach one.
        """
        blob = self.blob()
        if b"\n" in blob or not blob.isascii():
            raise SerializationError(
                "JSON text section is not canonical (non-ASCII or a raw "
                "newline)")
        return blob.decode("ascii")

    def json(self) -> Any:
        text = self.string()
        try:
            return json.loads(text)
        except ValueError as exc:
            raise SerializationError(
                f"invalid JSON section in binary frame: {exc}") from exc

    def done(self) -> bool:
        return self._offset == len(self._payload)


def pack_batch_frame(frame: dict[str, Any]) -> bytes:
    """Pack a :func:`batch_to_wire` frame dict as a binary payload."""
    if frame.get("kind") != "batch" or frame.get("format") != WIRE_FORMAT:
        raise SerializationError(
            f"not a {WIRE_FORMAT} batch record: {frame.get('kind')!r}")
    out = bytearray((BATCH_FRAME_TAG,))
    try:
        out += _I64.pack(int(frame["epoch"]))
        deltas = frame["deltas"]
        out += _U32.pack(len(deltas))
        for record in deltas:
            out.append(_CODE_BY_OP[record["op"]])
            out += _I64.pack(int(record["id"]))
            flags = ((_F_VT if "vt" in record else 0)
                     | (_F_ET if "et" in record else 0)
                     | (_F_ENDPOINTS if "src" in record else 0)
                     | (_F_ORDER if "order" in record else 0)
                     | (_F_KEY if "key" in record else 0)
                     | (_F_PROPS if "props" in record else 0)
                     | (_F_VALUE if "has_value" in record else 0))
            out.append(flags)
            if flags & _F_VT:
                out.append(ord(record["vt"]))
            if flags & _F_ET:
                out.append(ord(record["et"]))
            if flags & _F_ENDPOINTS:
                out += _I64.pack(int(record["src"]))
                out += _I64.pack(int(record["dst"]))
            if flags & _F_ORDER:
                out += _I64.pack(int(record["order"]))
            if flags & _F_KEY:
                _pack_text(out, record["key"])
            if flags & _F_PROPS:
                _pack_json(out, record["props"])
            if flags & _F_VALUE:
                _pack_json(out, record["value"])
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(
            f"malformed wire batch record: {frame!r}") from exc
    return bytes(out)


def unpack_batch_frame(payload: bytes) -> dict[str, Any]:
    """Inverse of :func:`pack_batch_frame`: the identical frame dict."""
    cursor = _BinaryCursor(payload)
    if cursor.u8() != BATCH_FRAME_TAG:
        raise SerializationError("not a binary batch payload")
    epoch = cursor.unpack(_I64)
    deltas: list[dict[str, Any]] = []
    for _ in range(cursor.unpack(_U32)):
        code = cursor.u8()
        if code >= len(_OP_BY_CODE):
            raise SerializationError(f"unknown delta op code {code}")
        record: dict[str, Any] = {"op": _OP_BY_CODE[code].name,
                                  "id": cursor.unpack(_I64)}
        flags = cursor.u8()
        if flags & ~_F_KNOWN:
            raise SerializationError(f"unknown delta flags 0x{flags:02x}")
        if flags & _F_VT:
            record["vt"] = chr(cursor.u8())
        if flags & _F_ET:
            record["et"] = chr(cursor.u8())
        if flags & _F_ENDPOINTS:
            record["src"] = cursor.unpack(_I64)
            record["dst"] = cursor.unpack(_I64)
        if flags & _F_ORDER:
            record["order"] = cursor.unpack(_I64)
        if flags & _F_KEY:
            record["key"] = cursor.string()
        if flags & _F_PROPS:
            record["props"] = cursor.json()
        if flags & _F_VALUE:
            record["value"] = cursor.json()
            record["has_value"] = True
        deltas.append(record)
    if not cursor.done():
        raise SerializationError("trailing bytes in binary batch frame")
    return {"kind": "batch", "format": WIRE_FORMAT, "epoch": epoch,
            "deltas": deltas}


def encode_batch_binary(batch: DeltaBatch,
                        store: PropertyGraphStore | None = None) -> bytes:
    """One batch as a binary payload: what every follower is shipped."""
    return pack_batch_frame(batch_to_wire(batch, store))


def _pack_response(out: bytearray, response: dict[str, Any]) -> None:
    """One response as ``id i64, epoch i64, flags u8, body blob,
    [trace blob]``.

    An ok body is the answer's canonical JSON text — a
    :class:`WireValue`'s memoized text copied verbatim, or a plain value
    encoded here — and an error body is the error record.
    """
    ok = bool(response["ok"])
    trace = response.get("trace")
    out += _I64.pack(int(response["id"]))
    out += _I64.pack(int(response["epoch"]))
    out.append((_R_OK if ok else 0) | (_R_TRACE if trace is not None else 0))
    body = response["result"] if ok else response["error"]
    _pack_text(out, body.text if isinstance(body, WireValue)
               else _CANONICAL.encode(body))
    if trace is not None:
        _pack_json(out, trace)


def _unpack_response(cursor: _BinaryCursor) -> dict[str, Any]:
    """Inverse of :func:`_pack_response`; the result stays text."""
    request_id = cursor.unpack(_I64)
    epoch = cursor.unpack(_I64)
    flags = cursor.u8()
    if flags & ~(_R_OK | _R_TRACE):
        raise SerializationError(f"unknown response flags 0x{flags:02x}")
    frame: dict[str, Any] = {"kind": "response", "format": WIRE_FORMAT,
                             "id": request_id, "epoch": epoch,
                             "ok": bool(flags & _R_OK)}
    if flags & _R_OK:
        frame["result"] = WireValue(text=cursor.text())
    else:
        error = cursor.json()
        if not isinstance(error, dict):
            raise SerializationError(f"malformed error record: {error!r}")
        frame["error"] = error
    if flags & _R_TRACE:
        trace = cursor.json()
        if not isinstance(trace, list) \
                or any(not isinstance(entry, dict) for entry in trace):
            raise SerializationError(f"malformed trace: {trace!r}")
        frame["trace"] = trace
    return frame


def pack_responses_frame(frame: dict[str, Any]) -> bytes:
    """Pack a :func:`responses_bundle_to_wire` frame as a binary payload:
    ``0x02, epoch i64, count u32``, then each response (see
    :func:`_pack_response`).

    An ok response's result section is its canonical JSON text, copied
    verbatim from a :class:`WireValue` — so a worker's cached answer is
    encoded once however often it is served; a plain JSON value is
    accepted too and encoded here.
    """
    if frame.get("kind") != "responses" \
            or frame.get("format") != WIRE_FORMAT:
        raise SerializationError(
            f"not a {WIRE_FORMAT} responses record: {frame.get('kind')!r}")
    out = bytearray((RESPONSES_FRAME_TAG,))
    try:
        out += _I64.pack(int(frame["epoch"]))
        responses = frame["responses"]
        out += _U32.pack(len(responses))
        for response in responses:
            _pack_response(out, response)
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(
            f"malformed responses bundle: {frame!r}") from exc
    return bytes(out)


def unpack_responses_frame(payload: bytes) -> dict[str, Any]:
    """Inverse of :func:`pack_responses_frame`: the JSON twin's frame
    dict, except that each ok ``result`` is a :class:`WireValue` holding
    the section's text, unparsed."""
    cursor = _BinaryCursor(payload)
    if cursor.u8() != RESPONSES_FRAME_TAG:
        raise SerializationError("not a binary responses payload")
    epoch = cursor.unpack(_I64)
    responses = [_unpack_response(cursor)
                 for _ in range(cursor.unpack(_U32))]
    if not cursor.done():
        raise SerializationError("trailing bytes in binary responses frame")
    return {"kind": "responses", "format": WIRE_FORMAT, "epoch": epoch,
            "responses": responses}


def pack_response_frame(frame: dict[str, Any]) -> bytes:
    """Pack a single :func:`response_to_wire` frame as a binary payload:
    ``0x03``, then the response laid out as inside a bundle."""
    if frame.get("kind") != "response" or frame.get("format") != WIRE_FORMAT:
        raise SerializationError(
            f"not a {WIRE_FORMAT} response record: {frame.get('kind')!r}")
    out = bytearray((RESPONSE_FRAME_TAG,))
    try:
        _pack_response(out, frame)
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(
            f"malformed response frame: {frame!r}") from exc
    return bytes(out)


def unpack_response_frame(payload: bytes) -> dict[str, Any]:
    """Inverse of :func:`pack_response_frame` (the result stays text)."""
    cursor = _BinaryCursor(payload)
    if cursor.u8() != RESPONSE_FRAME_TAG:
        raise SerializationError("not a binary response payload")
    frame = _unpack_response(cursor)
    if not cursor.done():
        raise SerializationError("trailing bytes in binary response frame")
    return frame


# Any process that imports the wire codecs speaks v2 binary payloads:
# the transport packs by frame kind and decodes by the first byte.
register_frame_decoder(BATCH_FRAME_TAG, unpack_batch_frame)
register_frame_decoder(RESPONSES_FRAME_TAG, unpack_responses_frame)
register_frame_decoder(RESPONSE_FRAME_TAG, unpack_response_frame)
register_frame_packer("batch", pack_batch_frame)
register_frame_packer("responses", pack_responses_frame)
register_frame_packer("response", pack_response_frame)


#: Builtin exception names the error codec is allowed to rebuild.
_BUILTIN_ERRORS = {
    "ValueError": ValueError,
    "KeyError": KeyError,
    "TypeError": TypeError,
    "RuntimeError": RuntimeError,
}


def error_to_wire(exc: BaseException) -> dict[str, Any]:
    """One exception as a response-frame error record (type + message)."""
    return {"type": type(exc).__name__, "message": str(exc)}


def error_from_wire(record: dict[str, Any]) -> BaseException:
    """Rebuild a served exception client-side, preserving its type.

    Types are resolved against :mod:`repro.errors` (so ``VertexNotFound``
    raised in a worker is ``VertexNotFound`` at the caller) plus a small
    builtin allowlist; anything unresolvable degrades to
    :class:`~repro.errors.ReproError` with the type name prefixed. Library
    errors are rebuilt without re-running their constructors (several
    take structured arguments the wire does not carry).
    """
    import repro.errors as _errors

    name = str(record.get("type", "Exception"))
    message = str(record.get("message", ""))
    cls = getattr(_errors, name, None)
    if isinstance(cls, type) and issubclass(cls, _errors.ReproError):
        exc = cls.__new__(cls)
        Exception.__init__(exc, message)
        return exc
    if name in _BUILTIN_ERRORS:
        return _BUILTIN_ERRORS[name](message)
    return _errors.ReproError(f"{name}: {message}")


# ---------------------------------------------------------------------------
# Query parameter codecs
# ---------------------------------------------------------------------------


#: The PgSeg key fields, sent as lists of property names. Like
#: ``boundaries`` they are present only when set, so a plain query's
#: record is the same bytes it always was.
_PGSEG_KEYS = ("activity_key", "entity_key")


def pgseg_query_to_wire(query: "PgSegQuery") -> dict[str, Any]:
    """One PgSeg query as a JSON-able object.

    ``boundaries`` (:meth:`~repro.segment.boundary.BoundaryCriteria.
    to_record`) and the property-name tuples of ``activity_key`` /
    ``entity_key`` ride along only when set.

    Raises:
        SerializationError: a boundary predicate or key is a callable
            with no record (built outside the declarative vocabulary).
    """
    record = {
        "src": list(query.src),
        "dst": list(query.dst),
        "algorithm": query.algorithm,
        "set_impl": query.set_impl,
        "prune": query.prune,
        "include_direct": query.include_direct,
        "include_similar": query.include_similar,
        "include_siblings": query.include_siblings,
        "include_agents": query.include_agents,
        "direct_edge_types": sorted(
            edge_type.label for edge_type in query.direct_edge_types
        ),
    }
    if query.boundaries is not None:
        record["boundaries"] = query.boundaries.to_record()
    for name in _PGSEG_KEYS:
        key = getattr(query, name)
        if callable(key):
            raise SerializationError(
                f"{name} {getattr(key, '__qualname__', key)!r} is a "
                f"callable; only a tuple of property names can be sent")
        if key is not None:
            record[name] = list(key)
    return record


def pgseg_query_from_wire(record: dict[str, Any],
                          graph: "ProvenanceGraph | None" = None,
                          ) -> "PgSegQuery":
    """Inverse of :func:`pgseg_query_to_wire`; ownership boundary
    predicates bind ``graph`` (the decoding side's own graph).

    Raises:
        SerializationError: on any malformed record.
    """
    from repro.segment.boundary import BoundaryCriteria
    from repro.segment.pgseg import PgSegQuery

    try:
        boundaries = record.get("boundaries")
        keys = {}
        for name in _PGSEG_KEYS:
            names = record.get(name)
            if names is not None:
                if not isinstance(names, list):
                    raise TypeError(f"{name} is not a list")
                keys[name] = tuple(names)
        return PgSegQuery(
            src=tuple(int(v) for v in record["src"]),
            dst=tuple(int(v) for v in record["dst"]),
            boundaries=None if boundaries is None
            else BoundaryCriteria.from_record(boundaries, graph),
            algorithm=str(record["algorithm"]),
            set_impl=str(record["set_impl"]),
            prune=bool(record["prune"]),
            include_direct=bool(record["include_direct"]),
            include_similar=bool(record["include_similar"]),
            include_siblings=bool(record["include_siblings"]),
            include_agents=bool(record["include_agents"]),
            direct_edge_types=frozenset(
                parse_edge_type(label)
                for label in record["direct_edge_types"]
            ),
            **keys,
        )
    except (KeyError, ValueError, TypeError, AttributeError, OverflowError,
            SegmentationError) as exc:
        raise SerializationError(
            f"malformed wire PgSeg query: {record!r}") from exc


def query_call_to_wire(method: str, params: dict[str, Any],
                       ) -> tuple[str, dict[str, Any]]:
    """One domain read spec — ``("segment", {"query": PgSegQuery(...)})``
    and the like — as the wire call every serving path sends.

    Raises:
        SerializationError: the query has no record
            (:func:`pgseg_query_to_wire`).
        ValueError: an unknown method (caller bug).
    """
    if method in ("lineage", "impacted"):
        return method, {"entity": int(params["entity"]),
                        "max_depth": params.get("max_depth")}
    if method == "blame":
        return method, {"entity": int(params["entity"])}
    if method == "segment":
        return method, {"query": pgseg_query_to_wire(params["query"])}
    if method == "cypher":
        return method, {"text": str(params["text"]),
                        "budget": budget_to_wire(params.get("budget"))}
    raise ValueError(f"unknown query method {method!r}")


def query_call_from_wire(method: str, params: dict[str, Any],
                         graph: "ProvenanceGraph",
                         ) -> tuple[str, dict[str, Any]]:
    """Inverse of :func:`query_call_to_wire`, bound to ``graph``.

    Only the batchable read families decode; ``summarize`` and anything
    else raise :class:`~repro.errors.SerializationError`.
    """
    if method in ("lineage", "impacted"):
        spec: dict[str, Any] = {"entity": int(params["entity"])}
        if params.get("max_depth") is not None:
            spec["max_depth"] = int(params["max_depth"])
        return method, spec
    if method == "blame":
        return method, {"entity": int(params["entity"])}
    if method == "segment":
        return method, {"query": pgseg_query_from_wire(params["query"],
                                                       graph)}
    if method == "cypher":
        spec = {"text": str(params["text"])}
        if params.get("budget") is not None:
            spec["budget"] = budget_from_wire(params["budget"])
        return method, spec
    raise SerializationError(
        f"method {method!r} is not servable on a client session")


def budget_to_wire(budget: "Budget | None") -> dict[str, Any] | None:
    """A CypherLite budget as a JSON-able object (None passes through)."""
    if budget is None:
        return None
    return {
        "timeout_seconds": budget.timeout_seconds,
        "max_expansions": budget.max_expansions,
        "max_rows": budget.max_rows,
    }


def budget_from_wire(record: dict[str, Any] | None) -> "Budget | None":
    """Inverse of :func:`budget_to_wire`."""
    if record is None:
        return None
    from repro.query.cypherlite import Budget

    try:
        return Budget(
            timeout_seconds=record["timeout_seconds"],
            max_expansions=int(record["max_expansions"]),
            max_rows=int(record["max_rows"]),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(
            f"malformed wire budget: {record!r}") from exc


# ---------------------------------------------------------------------------
# Query result codecs
# ---------------------------------------------------------------------------


def lineage_to_wire(result: "Lineage") -> dict[str, Any]:
    """One lineage/impact walk as a JSON-able object."""
    return {
        "root": result.root,
        "vertices": sorted(result.vertices),
        "levels": [
            {"depth": level.depth,
             "activities": list(level.activities),
             "entities": list(level.entities)}
            for level in result.levels
        ],
    }


def lineage_from_wire(record: dict[str, Any]) -> "Lineage":
    """Inverse of :func:`lineage_to_wire` (field-equal to the original)."""
    from repro.query.ops import Lineage, LineageLevel

    try:
        return Lineage(
            root=int(record["root"]),
            vertices=set(record["vertices"]),
            levels=[
                LineageLevel(
                    depth=int(level["depth"]),
                    activities=list(level["activities"]),
                    entities=list(level["entities"]),
                )
                for level in record["levels"]
            ],
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(
            f"malformed wire lineage: {record!r}") from exc


def blame_to_wire(report: dict[int, set[int]]) -> dict[str, Any]:
    """One blame report (agent id -> owned vertex ids) as JSON."""
    return {"agents": {str(agent): sorted(owned)
                       for agent, owned in sorted(report.items())}}


def blame_from_wire(record: dict[str, Any]) -> dict[int, set[int]]:
    """Inverse of :func:`blame_to_wire` (int keys, set values restored)."""
    try:
        return {int(agent): set(owned)
                for agent, owned in record["agents"].items()}
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise SerializationError(
            f"malformed wire blame report: {record!r}") from exc


def segment_to_wire(segment: "Segment") -> dict[str, Any]:
    """One PgSeg segment as a JSON-able object.

    Vertex/edge ids are leader ids (replication is id-exact), so the
    client rebinds the decoded segment to its own graph handle.
    """
    return {
        "vertices": sorted(segment.vertices),
        "edge_ids": list(segment.edge_ids),
        "categories": {str(vertex): sorted(tags)
                       for vertex, tags in sorted(segment.categories.items())},
    }


def segment_from_wire(graph: "ProvenanceGraph",
                      record: dict[str, Any]) -> "Segment":
    """Inverse of :func:`segment_to_wire`, bound to ``graph``.

    The rebound graph must contain the segment's ids for record accessors
    (``edges()``, ``describe()``, ...) to resolve — guaranteed for strict
    (read-your-writes) reads; bounded-staleness callers hold ids from an
    older epoch and should treat accessors as best-effort.
    """
    from repro.segment.pgseg import Segment

    try:
        return Segment(
            graph,
            vertices=[int(v) for v in record["vertices"]],
            edge_ids=[int(e) for e in record["edge_ids"]],
            categories={int(vertex): set(tags)
                        for vertex, tags in record["categories"].items()},
        )
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise SerializationError(
            f"malformed wire segment: {record!r}") from exc


def pgsum_query_to_wire(query: "PgSumQuery") -> dict[str, Any]:
    """One PgSum query as a JSON-able object.

    Fully declarative by construction
    (:class:`~repro.summarize.aggregation.PropertyAggregation` is plain
    key sets).
    """
    aggregation = query.aggregation
    return {
        "aggregation": {
            "entity": sorted(aggregation.entity_keys),
            "activity": sorted(aggregation.activity_keys),
            "agent": sorted(aggregation.agent_keys),
        },
        "k": int(query.k),
        "max_rounds": query.max_rounds,
        "verify_isomorphism": bool(query.verify_isomorphism),
        "rk_direction": str(query.rk_direction),
    }


def pgsum_query_from_wire(record: dict[str, Any]) -> "PgSumQuery":
    """Inverse of :func:`pgsum_query_to_wire`."""
    from repro.summarize.aggregation import PropertyAggregation
    from repro.summarize.pgsum import PgSumQuery

    try:
        aggregation = record["aggregation"]
        max_rounds = record["max_rounds"]
        return PgSumQuery(
            aggregation=PropertyAggregation(
                entity_keys=frozenset(str(key)
                                      for key in aggregation["entity"]),
                activity_keys=frozenset(str(key)
                                        for key in aggregation["activity"]),
                agent_keys=frozenset(str(key)
                                     for key in aggregation["agent"]),
            ),
            k=int(record["k"]),
            max_rounds=None if max_rounds is None else int(max_rounds),
            verify_isomorphism=bool(record["verify_isomorphism"]),
            rk_direction=str(record["rk_direction"]),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(
            f"malformed wire PgSum query: {record!r}") from exc


def _label_to_wire(value: Any) -> Any:
    """A class label as plain JSON (nested tuples become lists)."""
    if isinstance(value, tuple):
        return [_label_to_wire(item) for item in value]
    return value


def _label_from_wire(value: Any) -> Any:
    """Rebuild a class label: JSON turned its nested tuples into lists.

    Exact because labels only ever hold scalars and tuples (``_freeze``
    and the provenance-type certificates guarantee it) — there is no
    genuine list to confuse with a tuple.
    """
    if isinstance(value, list):
        return tuple(_label_from_wire(item) for item in value)
    return value


def psg_to_wire(psg: "Psg") -> dict[str, Any]:
    """One provenance summary graph as a JSON-able object.

    Node members are ``[segment_index, vertex_id]`` pairs (vertex ids are
    leader ids, same as segments); edges are sorted
    ``[src_group, dst_group, label, frequency]`` records for a canonical
    encoding.
    """
    return {
        "nodes": [
            {
                "class_index": node.class_index,
                "label": _label_to_wire(node.label),
                "members": [[seg_index, vertex_id]
                            for seg_index, vertex_id in node.members],
            }
            for node in psg.nodes
        ],
        "edges": [
            [src, dst, label, freq]
            for (src, dst, label), freq in sorted(psg.edges.items())
        ],
        "segment_count": psg.segment_count,
        "source_vertex_total": psg.source_vertex_total,
    }


def psg_from_wire(record: dict[str, Any]) -> "Psg":
    """Inverse of :func:`psg_to_wire` (field-equal to the original)."""
    from repro.summarize.psg import Psg, PsgNode

    try:
        return Psg(
            nodes=[
                PsgNode(
                    class_index=int(node["class_index"]),
                    label=_label_from_wire(node["label"]),
                    members=tuple((int(seg_index), int(vertex_id))
                                  for seg_index, vertex_id
                                  in node["members"]),
                )
                for node in record["nodes"]
            ],
            edges={
                (int(src), int(dst), str(label)): float(freq)
                for src, dst, label, freq in record["edges"]
            },
            segment_count=int(record["segment_count"]),
            source_vertex_total=int(record["source_vertex_total"]),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(
            f"malformed wire Psg: {record!r}") from exc


#: Tag key for non-scalar CypherLite row values. A plain dict row value
#: must not use this key (reserved by the protocol; see
#: ``docs/wire-protocol.md``).
ROW_TAG = "$"


def _row_value_to_wire(value: Any) -> Any:
    if isinstance(value, Path):
        return {ROW_TAG: "path", "start": value.start,
                "steps": [[step.edge_id, step.forward]
                          for step in value.steps]}
    if isinstance(value, Step):
        return {ROW_TAG: "step", "edge_id": value.edge_id,
                "forward": value.forward}
    if isinstance(value, list):
        return [_row_value_to_wire(item) for item in value]
    if isinstance(value, dict):
        if ROW_TAG in value:
            raise SerializationError(
                f"map row values may not use the reserved key {ROW_TAG!r}"
            )
        return {key: _row_value_to_wire(item) for key, item in value.items()}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise SerializationError(
        f"row value {value!r} ({type(value).__name__}) is not "
        f"wire-representable"
    )


def _row_value_from_wire(graph: "ProvenanceGraph", value: Any) -> Any:
    if isinstance(value, dict):
        tag = value.get(ROW_TAG)
        if tag == "path":
            return Path(graph, int(value["start"]),
                        steps=[Step(int(edge_id), bool(forward))
                               for edge_id, forward in value["steps"]])
        if tag == "step":
            return Step(int(value["edge_id"]), bool(value["forward"]))
        if tag is not None:
            raise SerializationError(f"unknown row value tag {tag!r}")
        return {key: _row_value_from_wire(graph, item)
                for key, item in value.items()}
    if isinstance(value, list):
        return [_row_value_from_wire(graph, item) for item in value]
    return value


def rows_to_wire(rows: "list[dict[str, Any]]") -> list[dict[str, Any]]:
    """CypherLite result rows as JSON-able objects.

    Scalars and lists pass through; bound paths and relationship steps are
    tagged objects (vertex variables are already plain ids).
    """
    return [
        {name: _row_value_to_wire(value) for name, value in row.items()}
        for row in rows
    ]


def rows_from_wire(graph: "ProvenanceGraph",
                   records: list[dict[str, Any]],
                   ) -> list[dict[str, Any]]:
    """Inverse of :func:`rows_to_wire`, rebinding paths to ``graph``."""
    try:
        return [
            {name: _row_value_from_wire(graph, value)
             for name, value in record.items()}
            for record in records
        ]
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise SerializationError(
            f"malformed wire rows: {records!r}") from exc
