"""Round-trip guarantees of the replication wire format."""

import json

import pytest

from repro.errors import (
    ReproError,
    SerializationError,
    VertexNotFound,
)
from repro.model.types import EdgeType, VertexType
from repro.query.cypherlite import Budget
from repro.query.ops import blame, lineage
from repro.query.paths import Path, Step
from repro.segment.boundary import (
    BoundaryCriteria,
    exclude_edge_types,
    owned_by,
)
from repro.segment.pgseg import PgSegOperator, PgSegQuery
from repro.serve.wire import (
    blame_from_wire,
    blame_to_wire,
    budget_from_wire,
    budget_to_wire,
    batch_from_wire,
    client_hello_frame,
    client_hello_from_wire,
    encode_batch_binary,
    error_from_wire,
    error_to_wire,
    hello_frame,
    hello_from_wire,
    lineage_from_wire,
    lineage_to_wire,
    pgseg_query_from_wire,
    pgseg_query_to_wire,
    pong_frame,
    pong_from_wire,
    request_from_wire,
    request_to_wire,
    requests_bundle_from_wire,
    requests_bundle_to_wire,
    response_from_wire,
    response_to_wire,
    responses_bundle_from_wire,
    responses_bundle_to_wire,
    rows_from_wire,
    rows_to_wire,
    segment_from_wire,
    segment_to_wire,
    unpack_batch_frame,
    welcome_frame,
    welcome_from_wire,
)
from repro.store.delta import Delta, DeltaBatch, DeltaOp, PropertyPayload
from repro.store.store import PropertyGraphStore


def roundtrip(batch, store=None):
    """Encode as every follower is shipped it, decode as it applies it."""
    return batch_from_wire(unpack_batch_frame(encode_batch_binary(batch, store)))


ALL_OP_DELTAS = [
    Delta(DeltaOp.ADD_VERTEX, 3, vertex_type=VertexType.ENTITY, order=7),
    Delta(DeltaOp.REMOVE_VERTEX, 4, vertex_type=VertexType.AGENT),
    Delta(DeltaOp.ADD_EDGE, 9, edge_type=EdgeType.USED, src=1, dst=0),
    Delta(DeltaOp.REMOVE_EDGE, 2, edge_type=EdgeType.WAS_GENERATED_BY,
          src=0, dst=1),
    Delta(DeltaOp.SET_VERTEX_PROPERTY, 5, vertex_type=VertexType.ENTITY,
          key="name"),
    Delta(DeltaOp.SET_EDGE_PROPERTY, 6, edge_type=EdgeType.WAS_DERIVED_FROM,
          src=2, dst=1, key="weight"),
]


class TestBatchRoundTrip:
    @pytest.mark.parametrize("delta", ALL_OP_DELTAS,
                             ids=[d.op.name for d in ALL_OP_DELTAS])
    def test_every_op_kind(self, delta):
        batch, payloads = roundtrip(DeltaBatch(epoch=12, deltas=(delta,)))
        assert batch.epoch == 12
        assert batch.deltas == (delta,)
        assert len(payloads) == 1

    def test_compound_batch_preserves_order_and_epoch(self):
        batch = DeltaBatch(epoch=3, deltas=tuple(ALL_OP_DELTAS))
        decoded, payloads = roundtrip(batch)
        assert decoded == batch
        assert len(payloads) == len(ALL_OP_DELTAS)

    def test_add_payloads_enriched_from_store(self):
        store = PropertyGraphStore()
        store.add_vertex(VertexType.ACTIVITY, {"command": "train"})
        store.add_vertex(VertexType.ENTITY, {"name": "w", "tags": [1, 2]})
        store.add_edge(EdgeType.USED, 0, 1, {"role": "input"})
        batches = store.delta_log.batches_since(0)
        decoded = [roundtrip(b, store) for b in batches]
        assert decoded[0][1] == [{"command": "train"}]
        assert decoded[1][1] == [{"name": "w", "tags": [1, 2]}]
        assert decoded[2][1] == [{"role": "input"}]

    def test_set_payload_carries_value_even_none(self):
        store = PropertyGraphStore()
        store.add_vertex(VertexType.ENTITY, {"name": "e"})
        store.set_vertex_property(0, "note", None)
        (batch,) = store.delta_log.batches_since(1)
        _, payloads = roundtrip(batch, store)
        # "set to None" must stay distinguishable from "value unavailable".
        assert payloads == [PropertyPayload(None)]

    def test_dead_subject_ships_without_payload(self):
        store = PropertyGraphStore()
        store.add_vertex(VertexType.ENTITY, {"name": "doomed"})
        store.set_vertex_property(0, "note", "x")
        store.remove_vertex(0)
        add_b, set_b, _ = store.delta_log.batches_since(0)
        _, add_payloads = roundtrip(add_b, store)
        _, set_payloads = roundtrip(set_b, store)
        assert add_payloads == [{}]          # props unavailable -> empty
        assert set_payloads == [None]        # value unavailable -> absent

    def test_malformed_lines_raise(self):
        with pytest.raises(SerializationError):
            unpack_batch_frame(b"not a packed batch")
        with pytest.raises(SerializationError):
            batch_from_wire({"kind": "other"})
        with pytest.raises(SerializationError):
            batch_from_wire({"kind": "batch", "format": "repro-wire-v1",
                             "epoch": 1, "deltas": [{"op": "NO_SUCH_OP"}]})
        # A batch header missing epoch/deltas is malformed, not a KeyError.
        with pytest.raises(SerializationError):
            batch_from_wire({"kind": "batch", "format": "repro-wire-v1"})


class TestControlFrames:
    def test_hello_round_trips(self):
        assert hello_from_wire(hello_frame(3, "tok")) == (3, "tok")
        with pytest.raises(SerializationError):
            hello_from_wire({"kind": "hello", "format": "repro-wire-v1"})

    def test_pong_round_trips(self):
        epoch, stats = pong_from_wire(pong_frame(9, {"checkpoints": 1}))
        assert (epoch, stats) == (9, {"checkpoints": 1})
        assert pong_from_wire(pong_frame(0)) == (0, {})


class TestClientSessionFrames:
    def test_client_hello_round_trips(self):
        assert client_hello_from_wire(
            client_hello_frame("bench-17", "tok")) == ("bench-17", "tok")
        # Token is optional: absent on the wire means None on decode.
        frame = client_hello_frame("anon")
        assert "token" not in frame
        assert client_hello_from_wire(frame) == ("anon", None)

    def test_client_hello_malformed_rejected(self):
        with pytest.raises(SerializationError):
            client_hello_from_wire({"kind": "client_hello",
                                    "format": "repro-wire-v1"})
        with pytest.raises(SerializationError):
            client_hello_from_wire(hello_frame(0, "tok"))

    def test_welcome_round_trips(self):
        session, epoch, limits = welcome_from_wire(
            welcome_frame(4, 12, {"session_budget": 64}))
        assert (session, epoch, limits) == (4, 12, {"session_budget": 64})
        assert welcome_from_wire(welcome_frame(0, 0)) == (0, 0, {})

    def test_welcome_malformed_rejected(self):
        with pytest.raises(SerializationError):
            welcome_from_wire({"kind": "welcome",
                               "format": "repro-wire-v1", "session": 1})

    def test_overloaded_error_crosses_the_wire(self):
        from repro.errors import Overloaded
        frame = response_to_wire(
            9, 3, error=error_to_wire(Overloaded("admission budget full")))
        _, _, ok, payload = response_from_wire(frame)
        assert not ok
        rebuilt = error_from_wire(payload)
        assert isinstance(rebuilt, Overloaded)
        assert "admission budget full" in str(rebuilt)


class TestRequestResponseFrames:
    def test_request_round_trips(self):
        frame = request_to_wire(7, "lineage", {"entity": 3})
        assert request_from_wire(frame) == (7, "lineage", {"entity": 3})

    def test_unknown_method_rejected_both_ways(self):
        with pytest.raises(SerializationError):
            request_to_wire(0, "drop_tables", {})
        with pytest.raises(SerializationError):
            request_from_wire({"kind": "request", "format": "repro-wire-v1",
                               "id": 0, "method": "nope", "params": {}})

    def test_ok_response_round_trips(self):
        frame = response_to_wire(4, 17, result={"vertices": [1, 2]})
        assert response_from_wire(frame) == (4, 17, True,
                                             {"vertices": [1, 2]})

    def test_error_response_rebuilds_library_type(self):
        try:
            raise VertexNotFound(42)
        except VertexNotFound as exc:
            frame = response_to_wire(4, 17, error=error_to_wire(exc))
        _, _, ok, payload = response_from_wire(frame)
        assert not ok
        rebuilt = error_from_wire(payload)
        assert isinstance(rebuilt, VertexNotFound)
        assert "vertex 42 not found" in str(rebuilt)

    def test_error_mapping_builtin_and_unknown(self):
        assert isinstance(error_from_wire(
            {"type": "ValueError", "message": "m"}), ValueError)
        degraded = error_from_wire({"type": "OSError", "message": "m"})
        assert isinstance(degraded, ReproError)
        assert "OSError" in str(degraded)
        # Never resolves to arbitrary non-error attributes of the module.
        weird = error_from_wire({"type": "annotations", "message": "m"})
        assert isinstance(weird, ReproError)


class TestBundleFrames:
    def test_requests_bundle_round_trips(self):
        calls = [(3, "lineage", {"entity": 1, "max_depth": None}),
                 (4, "blame", {"entity": 2})]
        frame = requests_bundle_to_wire(calls)
        assert frame["kind"] == "requests"
        assert requests_bundle_from_wire(frame) == calls
        # Inner records are complete request frames (additive protocol).
        for inner in frame["requests"]:
            request_from_wire(inner)

    def test_requests_bundle_rejects_empty_and_duplicate_ids(self):
        with pytest.raises(SerializationError):
            requests_bundle_to_wire([])
        with pytest.raises(SerializationError):
            requests_bundle_to_wire([(1, "blame", {"entity": 0}),
                                     (1, "blame", {"entity": 1})])
        with pytest.raises(SerializationError):
            requests_bundle_from_wire({"kind": "requests",
                                       "format": "repro-wire-v1",
                                       "requests": []})

    def test_responses_bundle_round_trips(self):
        responses = [response_to_wire(3, 9, result={"agents": {}}),
                     response_to_wire(4, 9, error={"type": "ValueError",
                                                   "message": "bad"})]
        frame = responses_bundle_to_wire(9, responses)
        epoch, decoded = responses_bundle_from_wire(frame)
        assert epoch == 9
        assert decoded == responses
        ok_flags = [response_from_wire(inner)[2] for inner in decoded]
        assert ok_flags == [True, False]

    def test_responses_bundle_rejects_empty(self):
        with pytest.raises(SerializationError):
            responses_bundle_to_wire(9, [])
        with pytest.raises(SerializationError):
            responses_bundle_from_wire({"kind": "responses",
                                        "format": "repro-wire-v1",
                                        "epoch": 9, "responses": []})


class TestQueryCodecs:
    def test_pgseg_query_round_trips(self):
        query = PgSegQuery(
            src=(0, 1), dst=(5,), algorithm="simprov-alg",
            set_impl="fastset", prune=False, include_similar=False,
            direct_edge_types=frozenset({EdgeType.USED,
                                         EdgeType.WAS_GENERATED_BY}),
        )
        assert pgseg_query_from_wire(pgseg_query_to_wire(query)) == query

    def test_boundary_and_key_queries_refused(self):
        """Only callables with no record are refused, by name."""
        bounded = PgSegQuery(
            src=(0,), dst=(1,),
            boundaries=BoundaryCriteria().exclude_vertices(lambda v: v != 2),
        )
        with pytest.raises(SerializationError, match="lambda"):
            pgseg_query_to_wire(bounded)
        keyed = PgSegQuery(src=(0,), dst=(1,), algorithm="simprov-alg",
                           activity_key=lambda a: a)
        with pytest.raises(SerializationError, match="activity_key"):
            pgseg_query_to_wire(keyed)

    def test_plain_query_record_has_no_optional_fields(self):
        """Plain queries encode exactly as before the optional fields."""
        record = pgseg_query_to_wire(PgSegQuery(src=(0,), dst=(2,)))
        assert json.dumps(record, sort_keys=True) == (
            '{"algorithm": "simprov-tst", "direct_edge_types": ["D", "G", '
            '"U"], "dst": [2], "include_agents": true, "include_direct": '
            'true, "include_siblings": true, "include_similar": true, '
            '"prune": true, "set_impl": "set", "src": [0]}')

    def test_bounded_and_keyed_queries_round_trip(self, paper):
        graph = paper.graph
        query = PgSegQuery(
            src=(paper["dataset-v1"],), dst=(paper["weight-v2"],),
            algorithm="simprov-alg", activity_key=("command",),
            entity_key=("name", "version"),
            boundaries=BoundaryCriteria()
            .exclude_edges(exclude_edge_types(EdgeType.WAS_ATTRIBUTED_TO))
            .exclude_vertices(owned_by(graph, paper["Alice"]))
            .expand((paper["weight-v2"],), k=2))
        record = json.loads(json.dumps(pgseg_query_to_wire(query)))
        assert record["entity_key"] == ["name", "version"]
        decoded = pgseg_query_from_wire(record, graph)
        assert decoded == query
        assert PgSegOperator(graph).evaluate(decoded).vertices \
            == PgSegOperator(graph).evaluate(query).vertices
        # Ownership binds the decoding side's graph; without one the
        # record is refused, typed.
        with pytest.raises(SerializationError, match="owned_by needs a graph"):
            pgseg_query_from_wire(record)

    def test_budget_round_trips(self):
        budget = Budget(timeout_seconds=None, max_expansions=10, max_rows=5)
        decoded = budget_from_wire(budget_to_wire(budget))
        assert (decoded.timeout_seconds, decoded.max_expansions,
                decoded.max_rows) == (None, 10, 5)
        assert budget_to_wire(None) is None
        assert budget_from_wire(None) is None


class TestResultCodecs:
    def test_lineage_round_trips_field_equal(self, paper):
        result = lineage(paper.graph, paper["weight-v2"])
        assert lineage_from_wire(lineage_to_wire(result)) == result

    def test_blame_round_trips_with_int_keys(self, paper):
        report = blame(paper.graph, paper["weight-v2"])
        decoded = blame_from_wire(blame_to_wire(report))
        assert decoded == report
        assert all(isinstance(agent, int) for agent in decoded)

    def test_segment_round_trips_rebound(self, paper):
        graph = paper.graph
        roots = tuple(v for v in graph.entities()
                      if not graph.generating_activities(v))
        segment = PgSegOperator(graph).evaluate(
            PgSegQuery(src=roots, dst=(paper["weight-v2"],)))
        decoded = segment_from_wire(graph, segment_to_wire(segment))
        assert decoded.vertices == segment.vertices
        assert decoded.edge_ids == segment.edge_ids
        assert decoded.categories == segment.categories
        assert decoded.graph is graph

    def test_rows_round_trip_scalars_paths_steps(self, paper):
        graph = paper.graph
        edge_id = next(iter(graph.store.edges())).edge_id
        record = graph.edge(edge_id)
        path = Path(graph, record.src, steps=[Step(edge_id, True)])
        rows = [{"n": 5, "s": "x", "none": None, "list": [1, [2, 3]],
                 "map": {"k": 1}, "step": Step(edge_id, False),
                 "path": path}]
        decoded = rows_from_wire(graph, rows_to_wire(rows))
        row = decoded[0]
        assert row["n"] == 5 and row["s"] == "x" and row["none"] is None
        assert row["list"] == [1, [2, 3]] and row["map"] == {"k": 1}
        assert row["step"] == Step(edge_id, False)
        assert row["path"].start == path.start
        assert row["path"].steps == path.steps

    def test_reserved_tag_and_foreign_values_refused(self, paper):
        with pytest.raises(SerializationError):
            rows_to_wire([{"bad": {"$": "boom"}}])
        with pytest.raises(SerializationError):
            rows_to_wire([{"bad": object()}])
        with pytest.raises(SerializationError):
            rows_from_wire(paper.graph, [{"bad": {"$": "no-such-tag"}}])
