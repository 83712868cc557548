"""Checkpoint bootstrap + negotiated binary wire (PR 10).

Four layers, pinned bottom-up:

- the checkpoint file itself: a round-tripped store is *bit-identical*
  to the store that was written (``stores_identical``: ids, tombstone
  gaps, orders, properties, epoch, signature mode; the delta log rebased
  at the checkpoint epoch; the same behavior under subsequently applied
  batches), and every malformed file — hand-built cases plus a
  Hypothesis byte-level sweep — raises ``SerializationError`` or loads a
  self-consistent store, never anything else;
- the binary frame codecs: pack/unpack of the packed frame families
  reproduces the JSON twin dict exactly, for every delta op and
  enrichment combination (an ok answer crosses as its canonical text),
  and a Hypothesis byte-level sweep over packed batch, responses and
  response payloads raises ``SerializationError`` or yields a
  self-consistent frame, never anything else;
- the BinaryTransport framing contract: JSON and binary payloads on one
  stream, EOF, clean-vs-mid-frame timeout poisoning, and the adopt()
  upgrade that swaps framing on live fds;
- the serving stack end to end: checkpoint+tail bootstrap serves
  answers identical to the leader across kill/restart loops (worker
  processes, and in-process workers for the kill and give-up paths), recaptures
  when the checkpoint predates the log's truncation horizon, recaptures
  exactly once when the file cannot be loaded or the log truncates
  between capture and ship — and raises ``ReplicaUnavailable`` when the
  fresh capture fails too — and refuses a peer whose hello does not
  advertise ``repro-wire-v2``.
"""

import gc
import json
import os
import socket
import struct
import tempfile
import time
from itertools import accumulate

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import (
    ReplicaUnavailable,
    SerializationError,
    TransportClosed,
    TransportTimeout,
)
from repro.query.ops import blame, lineage
from repro.serve.api import ServeConfig
from repro.serve.pool import WorkerPool
from repro.serve import wire
from repro.serve.transport import BinaryTransport, LineTransport
from repro.serve.wire import (
    WIRE_FORMAT_V2,
    WireValue,
    batch_from_wire,
    batch_to_wire,
    hello_frame,
    hello_wire_formats,
    pack_batch_frame,
    pack_response_frame,
    pack_responses_frame,
    response_to_wire,
    responses_bundle_to_wire,
    unpack_batch_frame,
    unpack_response_frame,
    unpack_responses_frame,
    welcome_frame,
    welcome_wire_format,
)
from repro.store.checkpoint import (
    CHECKPOINT_MAGIC,
    CheckpointManager,
    read_checkpoint,
    read_checkpoint_meta,
    write_checkpoint,
)
from repro.store.store import PropertyGraphStore
from repro.model.types import EdgeType, VertexType
from repro.workloads.lifecycle import build_paper_example

from tests.faults import break_checkpoint, kill_worker, open_fds, truncate_log
from test_store_persistence import stores_identical


#: One worker process per pool (the in-process twins below override it).
PROCESSES = ServeConfig(replicas=1, out_of_process=True)


def varied_store():
    """A store whose delta log covers every op and enrichment shape."""
    store = PropertyGraphStore()
    e1 = store.add_vertex(VertexType.ENTITY, {"name": "raw", "méta": "é✓"})
    e2 = store.add_vertex(VertexType.ENTITY)
    a1 = store.add_vertex(VertexType.ACTIVITY, {"command": "train"})
    u1 = store.add_vertex(VertexType.AGENT, {"name": "alice"})
    g1 = store.add_edge(EdgeType.WAS_GENERATED_BY, e1, a1, {"port": 0})
    s1 = store.add_edge(EdgeType.WAS_ASSOCIATED_WITH, a1, u1)
    store.set_vertex_property(e1, "size", 42)
    store.set_vertex_property(e2, "nested", {"k": [1, "två"]})
    store.set_edge_property(g1, "rate", 0.5)
    store.remove_edge(s1)
    store.remove_vertex(u1)
    return store


class TestCheckpointFile:
    def test_round_trip_is_sync_identical(self, tmp_path):
        store = varied_store()
        path = tmp_path / "ckpt.bin"
        nbytes = write_checkpoint(store, path)
        assert nbytes == path.stat().st_size > 0
        restored = read_checkpoint(path)
        assert restored.epoch == store.epoch
        assert restored.vertex_capacity == store.vertex_capacity
        assert restored.edge_capacity == store.edge_capacity
        assert restored.check_signatures == store.check_signatures
        assert restored._next_order == store._next_order
        assert stores_identical(restored, store)

    def test_restored_store_replays_batches_identically(self, tmp_path):
        leader = varied_store()
        path = tmp_path / "ckpt.bin"
        write_checkpoint(leader, path)
        follower = read_checkpoint(path)
        # Keep writing on the leader; replay the tail onto the follower
        # exactly as replication does.
        marker = leader.add_vertex(VertexType.ENTITY, {"name": "late"})
        leader.set_vertex_property(marker, "состояние", "ready")
        for batch in leader.delta_log.batches_since(follower.epoch):
            follower.apply_replicated_batch(
                *batch_from_wire(batch_to_wire(batch, leader)))
        assert stores_identical(follower, leader)

    def test_meta_readable_without_body(self, tmp_path):
        store = varied_store()
        path = tmp_path / "ckpt.bin"
        write_checkpoint(store, path, generation=7)
        meta = read_checkpoint_meta(path)
        assert meta["epoch"] == store.epoch
        assert meta["generation"] == 7
        assert meta["live_vertices"] == store.vertex_count

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"RPCK0001\x00\x01")      # truncated section
        with pytest.raises(SerializationError):
            read_checkpoint(path)
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(SerializationError):
            read_checkpoint(path)

    def test_manager_keeps_one_file_and_cleans_up(self):
        store = varied_store()
        with CheckpointManager() as manager:
            first = manager.capture(store)
            store.add_vertex(VertexType.ENTITY)
            second = manager.capture(store)
            assert second.generation == first.generation + 1
            assert not first.path.exists()          # superseded: deleted
            assert second.path.exists()
            directory = second.path.parent
        assert not directory.exists()               # close removes the dir


def round_trip(store):
    """``store`` written to a checkpoint and read back."""
    with CheckpointManager() as manager:
        return read_checkpoint(manager.capture(store).path)


class TestCheckpointRoundTrip:
    def test_paper_store_bit_exact(self, paper):
        store = paper.graph.store
        restored = round_trip(store)
        assert stores_identical(store, restored)
        assert restored.epoch == store.epoch

    def test_tombstone_gaps_and_orders_survive(self):
        store = PropertyGraphStore()
        keep = store.add_vertex(VertexType.ENTITY, {"name": "a"})
        doomed = store.add_vertex(VertexType.ENTITY)
        act = store.add_vertex(VertexType.ACTIVITY, {"command": "c"})
        store.add_edge(EdgeType.USED, act, keep)
        doomed_edge = store.add_edge(EdgeType.USED, act, doomed)
        store.remove_edge(doomed_edge)
        store.remove_vertex(doomed)
        restored = round_trip(store)
        assert stores_identical(store, restored)
        assert restored.epoch == store.epoch
        assert restored.order_of(act) == store.order_of(act)

    def test_checkpoint_rebases_delta_log(self, paper):
        store = paper.graph.store
        restored = round_trip(store)
        # The replayed window starts empty at the checkpoint epoch: the
        # span since it is [], anything earlier is unavailable.
        assert restored.delta_log.batches_since(store.epoch) == []
        assert restored.delta_log.batches_since(store.epoch - 1) is None

    def test_mutations_continue_after_load(self, paper):
        restored = round_trip(paper.graph.store)
        before = restored.epoch
        restored.add_vertex(VertexType.ENTITY, {"name": "later"})
        assert restored.epoch == before + 1
        assert restored.delta_log.last_epoch == before + 1

    def test_loose_store_round_trips_loose(self):
        """A check_signatures=False store restores loose, or loading
        would reject its own edges."""
        store = PropertyGraphStore(check_signatures=False)
        a = store.add_vertex(VertexType.ENTITY, {"name": "a"})
        b = store.add_vertex(VertexType.ENTITY, {"name": "b"})
        store.add_edge(EdgeType.USED, a, b)     # violates the PROV signature
        restored = round_trip(store)
        assert not restored.check_signatures
        assert stores_identical(store, restored)


# ---------------------------------------------------------------------------
# Hostile files: every malformed checkpoint is a SerializationError
# ---------------------------------------------------------------------------

_LEN = struct.Struct("<Q")


def two_vertex_store():
    store = PropertyGraphStore()
    entity = store.add_vertex(VertexType.ENTITY, {"name": "e"})
    activity = store.add_vertex(VertexType.ACTIVITY, {"command": "c"})
    store.add_edge(EdgeType.USED, activity, entity, {"role": "in"})
    return store


def split_sections(data):
    """A checkpoint's nine sections, in file order."""
    sections, offset = [], len(CHECKPOINT_MAGIC)
    while offset < len(data):
        (length,) = _LEN.unpack_from(data, offset)
        offset += _LEN.size
        sections.append(data[offset:offset + length])
        offset += length
    assert len(sections) == 9
    return sections


def join_sections(sections):
    return CHECKPOINT_MAGIC + b"".join(
        _LEN.pack(len(raw)) + raw for raw in sections)


def valid_file_bytes():
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "valid.bin")
        write_checkpoint(two_vertex_store(), path)
        with open(path, "rb") as handle:
            return handle.read()


_VALID = valid_file_bytes()


def i64(*values):
    return struct.pack(f"<{len(values)}q", *values)


def edit_meta(**fields):
    def edit(sections):
        meta = json.loads(sections[0])
        meta.update(fields)
        sections[0] = json.dumps(meta).encode()
    return edit


def set_section(index, raw):
    def edit(sections):
        sections[index] = raw
    return edit


#: Sections: 0 meta, 1 vertex ids, 2 vertex codes, 3 orders, 4 edge ids,
#: 5 edge codes, 6 srcs, 7 dsts, 8 props.
MALFORMED = {
    "negative-edge-src": set_section(6, i64(-1)),
    "duplicate-vertex-id": set_section(1, i64(0, 0)),
    "vertex-id-past-capacity": set_section(1, i64(0, 5)),
    "descending-vertex-ids": set_section(1, i64(1, 0)),
    "edge-endpoint-past-capacity": set_section(7, i64(9)),
    "edge-endpoint-is-a-gap": lambda sections: (
        edit_meta(vertex_capacity=3)(sections),
        set_section(1, i64(0, 2))(sections),
        set_section(8, b'{"edges": {}, "vertices": {}}')(sections)),
    "unknown-vertex-type-code": set_section(2, bytes([0, 9])),
    "unknown-edge-type-code": set_section(5, bytes([42])),
    "garbled-meta": set_section(0, b"\xff\xfe{not json"),
    "garbled-props": set_section(8, b'{"vertices": {"0": '),
    "props-for-dead-record": set_section(
        8, b'{"edges": {}, "vertices": {"7": {"name": "ghost"}}}'),
    "live-count-mismatch": edit_meta(live_vertices=3),
    "capacity-not-an-int": edit_meta(vertex_capacity="2"),
    "torn-array-section": set_section(3, b"\x00" * 15),
    "trailing-bytes": lambda sections: sections.append(b"extra"),
    "foreign-format": edit_meta(format="repro-ckpt-v0"),
}


def load_or_reject(data):
    """read_checkpoint over ``data``: the store, or ``None`` when it was
    rejected with SerializationError (anything else propagates). The
    file must be unlinkable afterwards whatever happened."""
    handle, path = tempfile.mkstemp(prefix="fuzz-", suffix=".bin")
    try:
        os.write(handle, data)
        os.close(handle)
        try:
            return read_checkpoint(path)
        except SerializationError:
            return None
    finally:
        os.unlink(path)


def assert_self_consistent(store):
    vertices, edges = list(store.vertices()), list(store.edges())
    assert store.vertex_count == len(vertices)
    assert store.edge_count == len(edges)
    for edge in edges:
        assert edge.src in store and edge.dst in store
        assert edge.edge_id in store.out_edge_ids(edge.src)
        assert edge.edge_id in store.in_edge_ids(edge.dst)


class TestCheckpointValidation:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_file_rejected(self, case):
        sections = split_sections(_VALID)
        MALFORMED[case](sections)
        assert load_or_reject(join_sections(sections)) is None

    def test_untouched_file_loads(self):
        store = load_or_reject(_VALID)
        assert stores_identical(store, two_vertex_store())


#: Offsets of the valid file's nine section-length fields.
_LENGTH_FIELDS = list(accumulate(
    (_LEN.size + len(raw) for raw in split_sections(_VALID)[:-1]),
    initial=len(CHECKPOINT_MAGIC)))

#: One edit of the valid file: truncate it, XOR one byte, or overwrite
#: one section's length field.
_EDIT = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, len(_VALID) - 1)),
    st.tuples(st.just("flip"), st.integers(0, len(_VALID) - 1),
              st.integers(1, 255)),
    st.tuples(st.just("length"), st.sampled_from(_LENGTH_FIELDS),
              st.one_of(st.integers(0, 64), st.integers(0, 2**64 - 1))),
)


def _apply(data, edit):
    kind = edit[0]
    if kind == "truncate":
        return data[:edit[1]]
    if kind == "flip":
        _, index, mask = edit
        return data[:index] + bytes([data[index] ^ mask]) + data[index + 1:]
    _, offset, length = edit
    return data[:offset] + _LEN.pack(length) + data[offset + _LEN.size:]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(edits=st.lists(_EDIT, min_size=1, max_size=3))
def test_byte_edits_are_rejected_or_self_consistent(edits):
    data = _VALID
    # Flips and length edits address the intact layout: truncate last.
    for edit in sorted(edits, key=lambda edit: edit[0] == "truncate"):
        data = _apply(data, edit)
    store = load_or_reject(data)
    if store is not None:
        assert_self_consistent(store)


class TestBinaryCodecs:
    def test_batch_frames_round_trip_every_op(self):
        store = varied_store()
        batches = store.delta_log.batches_since(0)
        assert batches, "fixture must produce batches"
        seen_ops = set()
        for batch in batches:
            record = batch_to_wire(batch, store)
            seen_ops.update(d["op"] for d in record["deltas"])
            assert unpack_batch_frame(pack_batch_frame(record)) == record
        assert seen_ops == {"ADD_VERTEX", "REMOVE_VERTEX", "ADD_EDGE",
                            "REMOVE_EDGE", "SET_VERTEX_PROPERTY",
                            "SET_EDGE_PROPERTY"}

    def test_responses_frame_round_trips(self):
        responses = [
            response_to_wire(1, 5, result={"vertices": [1, 2], "λ": "é"}),
            response_to_wire(2, 5, error={"kind": "error",
                                          "type": "VertexNotFound",
                                          "message": "no vertex 99"}),
        ]
        record = responses_bundle_to_wire(5, responses)
        unpacked = unpack_responses_frame(pack_responses_frame(record))
        # The result crosses as text; everything else decodes as the JSON
        # twin's dict.
        answer = unpacked["responses"][0].pop("result")
        assert answer.value == record["responses"][0]["result"]
        assert answer.text == json.dumps(answer.value, sort_keys=True)
        expected = json.loads(json.dumps(record))
        del expected["responses"][0]["result"]
        assert unpacked == expected

    def test_truncated_payload_raises(self):
        store = varied_store()
        record = batch_to_wire(store.delta_log.batches_since(0)[0], store)
        payload = pack_batch_frame(record)
        with pytest.raises(SerializationError):
            unpack_batch_frame(payload[:-1])
        with pytest.raises(SerializationError):
            unpack_batch_frame(payload + b"\x00")


# ---------------------------------------------------------------------------
# Packed-codec fuzz: the binary payloads a worker stream hands the decoders
# ---------------------------------------------------------------------------


def _u32_offsets(unpack, payload):
    """Offsets of every u32 field (counts, section lengths) ``unpack``
    reads from ``payload`` — the targets of the length edits below."""
    offsets = []
    read = wire._BinaryCursor.unpack

    def spy(cursor, spec):
        if spec is wire._U32:
            offsets.append(cursor._offset)
        return read(cursor, spec)

    wire._BinaryCursor.unpack = spy
    try:
        unpack(payload)
    finally:
        wire._BinaryCursor.unpack = read
    return offsets


def _valid_batch_payload():
    """One packed batch frame carrying every delta op and enrichment."""
    store = varied_store()
    batches = store.delta_log.batches_since(0)
    frame = batch_to_wire(batches[-1], store)
    frame["deltas"] = [delta for batch in batches
                       for delta in batch_to_wire(batch, store)["deltas"]]
    return pack_batch_frame(frame)


def _valid_responses_frame():
    return responses_bundle_to_wire(5, [
        response_to_wire(1, 5, result=WireValue(
            {"root": 2, "vertices": [0, 1, 2], "levels": []})),
        response_to_wire(2, 5, error={"type": "VertexNotFound",
                                      "message": "no vertex 99"}),
        response_to_wire(3, 5, result=[{"n.name": "é✓"}], trace=[
            {"hop": "worker", "name": "compute", "dur_s": 0.5}]),
    ])


#: codec -> (unpack, pack, one valid payload).
_CODECS = {
    "batch": (unpack_batch_frame, pack_batch_frame, _valid_batch_payload()),
    "responses": (unpack_responses_frame, pack_responses_frame,
                  pack_responses_frame(_valid_responses_frame())),
    "response": (unpack_response_frame, pack_response_frame,
                 pack_response_frame(
                     _valid_responses_frame()["responses"][2])),
}


@st.composite
def _codec_edits(draw):
    """A codec plus 1-3 edits of its valid payload: truncations, XOR
    flips, overwritten count / length fields."""
    name = draw(st.sampled_from(sorted(_CODECS)))
    unpack, _pack, payload = _CODECS[name]
    edit = st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, len(payload) - 1)),
        st.tuples(st.just("flip"), st.integers(0, len(payload) - 1),
                  st.integers(1, 255)),
        st.tuples(st.just("length"),
                  st.sampled_from(_u32_offsets(unpack, payload)),
                  st.one_of(st.integers(0, 64),
                            st.integers(0, 2 ** 32 - 1))),
    )
    return name, draw(st.lists(edit, min_size=1, max_size=3))


def _edit_payload(data, edit):
    kind = edit[0]
    if kind == "truncate":
        return data[:edit[1]]
    if kind == "flip":
        _, index, mask = edit
        return data[:index] + bytes([data[index] ^ mask]) + data[index + 1:]
    _, offset, length = edit
    return data[:offset] + struct.pack("<I", length) + data[offset + 4:]


def _assert_responses_consistent(responses):
    """Every accepted section is typed, and reading a result parses it or
    raises SerializationError — never a JSON or Unicode error."""
    for response in responses:
        assert isinstance(response["id"], int)
        assert isinstance(response["epoch"], int)
        if response["ok"]:
            assert "\n" not in response["result"].text
            try:
                response["result"].value
            except SerializationError:
                pass
        else:
            assert isinstance(response["error"], dict)
        trace = response.get("trace")
        assert trace is None or all(isinstance(span, dict)
                                    for span in trace)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_codec_edits())
def test_packed_frame_edits_are_rejected_or_self_consistent(case):
    name, edits = case
    unpack, pack, data = _CODECS[name]
    # Flips and length edits address the intact layout: truncate last.
    for edit in sorted(edits, key=lambda edit: edit[0] == "truncate"):
        data = _edit_payload(data, edit)
    try:
        frame = unpack(data)
    except SerializationError:
        return
    # Self-consistent: re-packing what was accepted is a fixed point.
    repacked = pack(frame)
    assert pack(unpack(repacked)) == repacked
    if name == "batch":
        try:
            batch_from_wire(frame)
        except SerializationError:
            pass
    else:
        _assert_responses_consistent(
            frame["responses"] if name == "responses" else [frame])


def test_corrupted_result_section_raises_serialization_error():
    frame = _valid_responses_frame()["responses"][0]
    packed = bytearray(pack_response_frame(frame))
    packed[-1] = ord("!")              # the result text's closing brace
    answer = unpack_response_frame(bytes(packed))["result"]
    with pytest.raises(SerializationError):
        answer.value


@pytest.mark.parametrize("section", [b"[1,\n2]", '"é"'.encode("utf-8")])
def test_result_section_must_be_spliceable_text(section):
    """A result section is copied into a client line verbatim, so a raw
    newline or a non-ASCII byte is refused when the frame is unpacked."""
    payload = bytes([wire.RESPONSE_FRAME_TAG]) \
        + struct.pack("<qqB", 1, 5, 1) \
        + struct.pack("<I", len(section)) + section
    with pytest.raises(SerializationError):
        unpack_response_frame(payload)


def binary_socketpair():
    left, right = socket.socketpair()
    return (BinaryTransport.over_socket(left),
            BinaryTransport.over_socket(right))


class TestBinaryTransport:
    def test_json_and_binary_frames_one_stream(self):
        a, b = binary_socketpair()
        with a, b:
            a.send({"kind": "ping"})
            assert b.recv(timeout=5) == {"kind": "ping"}
            store = varied_store()
            record = batch_to_wire(store.delta_log.batches_since(0)[0],
                                   store)
            a.send_binary(pack_batch_frame(record))
            assert b.recv(timeout=5) == record
            b.send_text('{"kind": "pong"}')
            assert a.recv(timeout=5) == {"kind": "pong"}

    def test_eof_raises_transport_closed(self):
        a, b = binary_socketpair()
        with b:
            a.close()
            with pytest.raises(TransportClosed):
                b.recv(timeout=5)

    def test_clean_boundary_timeout_leaves_transport_usable(self):
        a, b = binary_socketpair()
        with a, b:
            with pytest.raises(TransportTimeout):
                b.recv(timeout=0.05)
            assert not b.poisoned
            a.send({"kind": "ping"})
            assert b.recv(timeout=5) == {"kind": "ping"}

    def test_mid_frame_timeout_poisons_transport(self):
        a, b = binary_socketpair()
        with a, b:
            a.send_raw(b"\x00\x00\x00\x10half a frame")   # 16 declared, 12 sent
            with pytest.raises(TransportTimeout):
                b.recv(timeout=0.05)
            assert b.poisoned
            with pytest.raises(TransportClosed, match="poisoned"):
                b.recv(timeout=5)

    def test_unknown_tag_raises(self):
        a, b = binary_socketpair()
        with a, b:
            a.send_binary(b"\xfethis tag is not registered")
            with pytest.raises(SerializationError):
                b.recv(timeout=5)

    def test_adopt_preserves_buffered_bytes(self):
        """The upgrade point: bytes already read past the welcome must
        carry into the adopted framer, and the neutered line transport's
        close must not tear down the shared fds."""
        left, right = socket.socketpair()
        line = LineTransport.over_socket(right)
        with BinaryTransport.over_socket(left) as peer:
            # Peer speaks v2 already; the line side hasn't upgraded yet,
            # so the length-prefixed frame lands in the line buffer.
            line._buffer.extend(b"")
            peer.send({"kind": "ping"})
            upgraded = BinaryTransport.adopt(line)
            line.close()                       # neutered: must be a no-op
            assert upgraded.recv(timeout=5) == {"kind": "ping"}
            upgraded.send({"kind": "pong"})
            assert peer.recv(timeout=5) == {"kind": "pong"}
            upgraded.close()


class TestNegotiationFrames:
    def test_hello_capabilities(self):
        plain = hello_frame(3, "tok")
        assert "wire" not in plain
        assert hello_wire_formats(plain) == ()
        v2 = hello_frame(3, "tok", wire=[WIRE_FORMAT_V2])
        assert hello_wire_formats(v2) == (WIRE_FORMAT_V2,)

    def test_welcome_wire_format(self):
        assert welcome_wire_format(welcome_frame(0, 4)) is None
        chosen = welcome_frame(0, 4, wire=WIRE_FORMAT_V2)
        assert welcome_wire_format(chosen) == WIRE_FORMAT_V2


def answers(pool, targets):
    """One fixed read set served through worker 0 (domain-form results)."""
    client = pool.clients[0]
    return [(tuple(sorted(client.lineage(t).vertices)),
             sorted((k, tuple(sorted(v)))
                    for k, v in client.blame(t).items()))
            for t in targets]


def expected(graph, targets):
    return [(tuple(sorted(lineage(graph, t).vertices)),
             sorted((k, tuple(sorted(v)))
                    for k, v in blame(graph, t).items()))
            for t in targets]


class TestCheckpointBootstrapDifferential:
    """Checkpoint+tail must be observationally identical to the leader,
    on the reused-checkpoint path and on the fault-recapture path."""

    def test_restart_loop_checkpoint_vs_fresh_capture(
            self, config=PROCESSES):
        example = build_paper_example()
        graph = example.graph
        targets = [example["weight-v2"], example["model-v1"]]
        served = {}
        for mode in ("checkpoint", "recapture"):
            with WorkerPool(graph, config=config) as pool:
                client = pool.clients[0]
                for round_index in range(2):
                    graph.add_entity(name=f"{mode}-{round_index}")
                    if mode == "recapture":
                        break_checkpoint(pool)       # forces the fault path
                    kill_worker(client)
                    pool.restart(client, failed=client.transport)
                    client.ping(timeout=30)
                    assert client.epoch == pool.log.epoch
                served[mode] = answers(pool, targets)
                boot = pool.stats()["bootstrap"]
                if mode == "checkpoint":
                    assert boot["checkpoint_hits"] == 3    # boot + 2 restarts
                    assert boot["full_syncs"] == 0
                else:
                    assert boot["checkpoint_hits"] == 1    # the boot only
                    assert boot["full_syncs"] == 2
        assert served["checkpoint"] == served["recapture"] \
            == expected(graph, targets)

    def test_restart_loop_in_process(self):
        """The same loop with an in-process worker: a kill closes its
        link, and the restart loads the same checkpoint + tail."""
        self.test_restart_loop_checkpoint_vs_fresh_capture(
            config=PROCESSES.with_(out_of_process=False))

    def test_stale_checkpoint_falls_back_to_fresh_capture(self):
        """A checkpoint past the log's truncation horizon is replaced by
        one captured now, before anything is shipped — not a fault."""
        example = build_paper_example()
        graph = example.graph
        targets = [example["weight-v2"], example["model-v1"]]
        with WorkerPool(graph, config=PROCESSES) as pool:
            client = pool.clients[0]
            assert pool.stats()["bootstrap"]["checkpoint_hits"] == 1
            # Shrink the retained window, then write far past it: the
            # bootstrap checkpoint now predates the truncation horizon.
            log = truncate_log(graph.store, 4)
            for index in range(8):
                graph.add_entity(name=f"horizon-{index}")
            assert log.truncated
            kill_worker(client)
            pool.restart(client, failed=client.transport)
            client.ping(timeout=30)
            boot = pool.stats()["bootstrap"]
            assert boot["full_syncs"] == 0
            assert boot["checkpoint_hits"] == 2
            assert client.epoch == pool.log.epoch
            assert answers(pool, targets) == expected(graph, targets)

    @pytest.mark.parametrize("fault", ["unreadable-file",
                                       "truncated-after-capture"])
    def test_checkpoint_fault_falls_back_to_one_fresh_capture(
            self, fault, monkeypatch):
        """The two faults of a state load: the worker answers
        ``checkpoint-failed``, or the log truncates past the checkpoint
        between capture and ship. Either way: one fresh capture on the
        same stream (no restart), then the fast path again."""
        example = build_paper_example()
        graph = example.graph
        targets = [example["weight-v2"], example["model-v1"]]
        with WorkerPool(graph, config=PROCESSES) as pool:
            client = pool.clients[0]
            truncate_log(graph.store, 4)
            for index in range(8):          # the span falls off the log
                graph.add_entity(name=f"burst-{index}")
            if fault == "unreadable-file":
                break_checkpoint(pool)
            else:
                capture = pool.log.checkpoint

                def capture_then_lose_the_race():
                    monkeypatch.undo()       # race the first capture only
                    ckpt = capture()
                    for index in range(8):
                        graph.add_entity(name=f"raced-{index}")
                    return ckpt

                monkeypatch.setattr(pool.log, "checkpoint",
                                    capture_then_lose_the_race)
            pool.ship(client)               # truncated span: state reload
            monkeypatch.undo()
            worker_epoch, _stats = client.ping(timeout=30)
            assert worker_epoch == client.epoch == pool.log.epoch
            assert (client.restarts, client.resyncs) == (0, 1)
            assert pool.stats()["bootstrap"]["full_syncs"] == 1
            assert answers(pool, targets) == expected(graph, targets)
            # The fresh capture is the one the next restart reuses.
            kill_worker(client)
            pool.restart(client, failed=client.transport)
            client.ping(timeout=30)
            boot = pool.stats()["bootstrap"]
            assert (boot["checkpoint_hits"], boot["full_syncs"]) == (2, 1)
            assert answers(pool, targets) == expected(graph, targets)

    def test_checkpoint_failing_twice_raises_replica_unavailable(
            self, monkeypatch, config=PROCESSES):
        """When the fresh capture cannot be loaded either, the state load
        gives up with a typed error — well inside the spawn deadline, the
        respawn discarded (no fd growth) — and the detached client
        restarts cleanly on its next use."""
        example = build_paper_example()
        graph = example.graph
        target = example["weight-v2"]
        with WorkerPool(graph, config=config) as pool:
            client = pool.clients[0]
            gc.collect()
            baseline = open_fds()
            capture = pool.log.checkpoint

            def unreadable_capture():
                ckpt = capture()
                ckpt.path.write_bytes(b"")
                return ckpt

            monkeypatch.setattr(pool.log, "checkpoint", unreadable_capture)
            kill_worker(client)
            started = time.monotonic()
            with pytest.raises(ReplicaUnavailable):
                pool.restart(client, failed=client.transport)
            assert time.monotonic() - started < pool.spawn_timeout
            assert client.transport is None and client.proc is None
            monkeypatch.undo()
            gc.collect()
            assert open_fds() <= baseline
            assert sorted(client.lineage(target).vertices) \
                == sorted(lineage(graph, target).vertices)
            assert client.epoch == pool.log.epoch
            gc.collect()
            assert open_fds() <= baseline

    def test_checkpoint_failing_twice_in_process(self, monkeypatch):
        """In-process, the same give-up: one fresh capture, then
        ``ReplicaUnavailable`` and a detached client that heals."""
        self.test_checkpoint_failing_twice_raises_replica_unavailable(
            monkeypatch, config=PROCESSES.with_(out_of_process=False))

    def test_kill_mid_bootstrap_then_recover(self, monkeypatch):
        """A worker dying between the checkpoint frame and its ack must
        leave the client restartable, and the next restart must converge
        to the same answers as an undisturbed bootstrap."""
        from repro.errors import ReplicaUnavailable

        example = build_paper_example()
        graph = example.graph
        target = example["weight-v2"]
        original = WorkerPool._ship_checkpoint
        sabotaged = {"armed": False}

        def sabotage(self, client, ckpt, tail):
            if sabotaged["armed"]:
                sabotaged["armed"] = False
                kill_worker(client)
            return original(self, client, ckpt, tail)

        with WorkerPool(graph, config=PROCESSES) as pool:
            client = pool.clients[0]
            monkeypatch.setattr(WorkerPool, "_ship_checkpoint", sabotage)
            sabotaged["armed"] = True
            kill_worker(client)
            with pytest.raises(ReplicaUnavailable):
                pool.restart(client, failed=client.transport)
            # Mid-bootstrap death observed; the next restart succeeds.
            pool.restart(client, failed=client.transport)
            client.ping(timeout=30)
            assert client.epoch == pool.log.epoch
            assert sorted(client.lineage(target).vertices) \
                == sorted(lineage(graph, target).vertices)


class TestRefusedPeer:
    """A hello that does not advertise ``repro-wire-v2`` is a bad
    handshake like any other: dropped, never attached."""

    def test_peer_without_wire_v2_is_dropped(self):
        example = build_paper_example()
        graph = example.graph
        target = example["weight-v2"]
        with WorkerPool(graph, config=PROCESSES) as pool:
            client = pool.clients[0]
            gc.collect()
            baseline = open_fds()
            # The stub dials first, so the restart's accept loop meets it
            # ahead of the real respawn: right token, right id, no caps.
            stub = LineTransport.over_socket(
                socket.create_connection(pool._listener.getsockname()))
            with stub:
                stub.send(hello_frame(client.replica_id, pool._token))
                kill_worker(client)
                pool.restart(client, failed=client.transport)
                with pytest.raises(TransportClosed):    # no welcome: EOF
                    stub.recv(timeout=10)
            assert client.restarts == 1 and client.alive()
            assert sorted(client.lineage(target).vertices) \
                == sorted(lineage(graph, target).vertices)
            gc.collect()
            assert open_fds() <= baseline
