"""Checkpoint bootstrap + negotiated binary wire (PR 10).

Four layers, pinned bottom-up:

- the checkpoint file itself: a round-tripped store is *bit-identical*
  to the JSON-sync path (same encode_sync bytes, same epoch/ordinal
  bookkeeping, same behavior under subsequently applied batches);
- the binary frame codecs: pack/unpack of the two hot frame families
  reproduces the JSON twin dict exactly, for every delta op and
  enrichment combination;
- the BinaryTransport framing contract: JSON and binary payloads on one
  stream, EOF, clean-vs-mid-frame timeout poisoning, and the adopt()
  upgrade that swaps framing on live fds;
- the serving stack end to end: checkpoint+tail bootstrap serves
  answers identical to a full JSON sync across kill/restart loops,
  recaptures when the checkpoint predates the log's truncation horizon,
  degrades to one full sync when the file cannot be loaded or the log
  truncates between capture and ship, and refuses a peer whose hello
  does not advertise ``repro-wire-v2``.
"""

import socket

import pytest

from repro.errors import (
    SerializationError,
    TransportClosed,
    TransportTimeout,
)
from repro.query.ops import blame, lineage
from repro.serve.pool import WorkerPool
from repro.serve.transport import BinaryTransport, LineTransport
from repro.serve.wire import (
    WIRE_FORMAT_V2,
    batch_to_wire,
    encode_sync,
    hello_frame,
    hello_wire_formats,
    pack_batch_frame,
    pack_responses_frame,
    response_to_wire,
    responses_bundle_to_wire,
    unpack_batch_frame,
    unpack_responses_frame,
    welcome_frame,
    welcome_wire_format,
)
from repro.store.checkpoint import (
    CheckpointManager,
    read_checkpoint,
    read_checkpoint_meta,
    write_checkpoint,
)
from repro.store.store import PropertyGraphStore
from repro.model.types import EdgeType, VertexType
from repro.workloads.lifecycle import build_paper_example

from tests.faults import break_checkpoint, kill_worker, open_fds, truncate_log


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
        # The decisive identity: both stores serialize to the same sync
        # payload, so every downstream consumer sees one store.
        assert encode_sync(restored) == encode_sync(store)

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
            record = batch_to_wire(batch, leader)
            payloads = [
                {"props": delta.get("props"), "value": delta.get("value"),
                 "has_value": delta.get("has_value", False)}
                for delta in record["deltas"]]
            from repro.serve.wire import batch_from_wire
            follower.apply_replicated_batch(*batch_from_wire(record))
        assert encode_sync(follower) == encode_sync(leader)

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
        assert unpack_responses_frame(pack_responses_frame(record)) == record

    def test_truncated_payload_raises(self):
        store = varied_store()
        record = batch_to_wire(store.delta_log.batches_since(0)[0], store)
        payload = pack_batch_frame(record)
        with pytest.raises(SerializationError):
            unpack_batch_frame(payload[:-1])
        with pytest.raises(SerializationError):
            unpack_batch_frame(payload + b"\x00")


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
    """Checkpoint+tail must be observationally identical to a full sync."""

    def test_restart_loop_checkpoint_vs_full_sync(self):
        example = build_paper_example()
        graph = example.graph
        targets = [example["weight-v2"], example["model-v1"]]
        served = {}
        for mode in ("checkpoint", "full-sync"):
            with WorkerPool(graph, count=1) as pool:
                client = pool.clients[0]
                for round_index in range(2):
                    graph.add_entity(name=f"{mode}-{round_index}")
                    if mode == "full-sync":
                        break_checkpoint(pool)       # forces the fallback
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
        assert served["checkpoint"] == served["full-sync"] \
            == expected(graph, targets)

    def test_stale_checkpoint_falls_back_to_fresh_capture(self):
        """A checkpoint past the log's truncation horizon is replaced by
        one captured now — never by the JSON sync."""
        example = build_paper_example()
        graph = example.graph
        targets = [example["weight-v2"], example["model-v1"]]
        with WorkerPool(graph, count=1) as pool:
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
    def test_checkpoint_fault_falls_back_to_one_full_sync(
            self, fault, monkeypatch):
        """The two faults the JSON ``sync`` frame survives for: the
        worker answers ``checkpoint-failed``, or the log truncates past
        the checkpoint between capture and ship. Either way: one full
        sync on the same stream, then checkpoints again."""
        example = build_paper_example()
        graph = example.graph
        targets = [example["weight-v2"], example["model-v1"]]
        with WorkerPool(graph, count=1) as pool:
            client = pool.clients[0]
            truncate_log(graph.store, 4)
            for index in range(8):          # the span falls off the log
                graph.add_entity(name=f"burst-{index}")
            if fault == "unreadable-file":
                break_checkpoint(pool)
            else:
                capture = pool.log.checkpoint

                def capture_then_lose_the_race():
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
            # The faulty checkpoint was dropped: the next restart
            # captures fresh and rides the fast path again.
            kill_worker(client)
            pool.restart(client, failed=client.transport)
            client.ping(timeout=30)
            boot = pool.stats()["bootstrap"]
            assert (boot["checkpoint_hits"], boot["full_syncs"]) == (2, 1)
            assert answers(pool, targets) == expected(graph, targets)

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

        with WorkerPool(graph, count=1) as pool:
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
        import gc

        example = build_paper_example()
        graph = example.graph
        target = example["weight-v2"]
        with WorkerPool(graph, count=1) as pool:
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
