"""The wire-protocol spec's examples must round-trip through the codecs.

``docs/wire-protocol.md`` promises that every fenced ```json block is a
complete frame and that the examples share one worked store and one
epoch timeline. This suite walks the document in order and, per frame
kind, decodes the example through the matching ``serve/wire.py`` codec
and re-encodes it, asserting exact equality — and applies the batch
examples to the worked store in order, so the timeline must hold too.
The normative spec and the code cannot drift apart. ``tools/check_docs.py``
separately keeps the prose honest (links resolve, fences parse); this
file keeps the *protocol content* honest.
"""

import json
import re
from pathlib import Path

import pytest

from repro.model.graph import ProvenanceGraph
from repro.model.types import EdgeType, VertexType
from repro.serve import wire
from repro.serve.methods import METHODS
from repro.store.delta import DeltaOp, PropertyPayload
from repro.store.store import PropertyGraphStore

DOC = Path(__file__).resolve().parents[1] / "docs" / "wire-protocol.md"

_FENCE = re.compile(r"```json\n(.*?)```", re.DOTALL)

#: Ship-time enrichment keys batch re-encoding cannot reproduce without
#: the leader store; stripped before comparing re-encoded batch frames.
_ENRICHMENT_KEYS = ("props", "value", "has_value")


def doc_blocks():
    """Every ```json fence in document order, parsed."""
    text = DOC.read_text(encoding="utf-8")
    blocks = [json.loads(match.group(1)) for match in _FENCE.finditer(text)]
    assert blocks, "wire-protocol.md lost its examples"
    return blocks


def worked_store():
    """The store the examples describe (§"The worked store"), epoch 7."""
    store = PropertyGraphStore()
    dataset = store.add_vertex(VertexType.ENTITY, {"name": "dataset"})
    train = store.add_vertex(VertexType.ACTIVITY, {"command": "train -gpu"})
    weights = store.add_vertex(VertexType.ENTITY, {"name": "weights"})
    alice = store.add_vertex(VertexType.AGENT, {"name": "alice"})
    store.add_edge(EdgeType.USED, train, dataset)
    store.add_edge(EdgeType.WAS_GENERATED_BY, weights, train)
    store.add_edge(EdgeType.WAS_ASSOCIATED_WITH, train, alice)
    assert store.epoch == 7
    return store


def test_every_example_is_a_tagged_frame():
    for block in doc_blocks():
        assert isinstance(block, dict)
        assert "kind" in block, f"untagged example: {block!r}"
        assert block.get("format") == wire.WIRE_FORMAT


def test_examples_round_trip_through_codecs():
    """One dispatch per frame kind; exact re-encode equality."""
    blocks = doc_blocks()
    seen_kinds = set()
    store = worked_store()
    graph = ProvenanceGraph(store)
    methods_by_id = {}           # request id -> method, for responses
    requests_by_id = {}          # request id -> (method, params, have)

    for block in blocks:
        kind = block["kind"]
        seen_kinds.add(kind)
        if kind == "batch":
            batch, payloads = wire.batch_from_wire(block)
            stripped = dict(block)
            stripped["deltas"] = [
                {key: value for key, value in delta.items()
                 if key not in _ENRICHMENT_KEYS}
                for delta in block["deltas"]
            ]
            assert wire.batch_to_wire(batch, store=None) == stripped
            # The documented enrichment must decode into apply payloads.
            for raw, delta, payload in zip(block["deltas"], batch.deltas,
                                           payloads, strict=True):
                if raw.get("has_value"):
                    assert payload == PropertyPayload(raw["value"])
                elif delta.op in (DeltaOp.ADD_VERTEX, DeltaOp.ADD_EDGE):
                    assert payload == dict(raw.get("props", {}))
                else:
                    assert payload is None
            # The documented timeline: each batch is the store's next.
            store.apply_replicated_batch(batch, payloads)
        elif kind == "hello":
            worker_id, token = wire.hello_from_wire(block)
            # wire (capability list) is additive: from_wire ignores it,
            # so the re-encode threads the documented field through.
            assert wire.hello_frame(
                worker_id, token, wire=block.get("wire")) == block
        elif kind == "client_hello":
            client, token = wire.client_hello_from_wire(block)
            assert wire.client_hello_frame(client, token) == block
        elif kind == "welcome":
            session_id, epoch, limits = wire.welcome_from_wire(block)
            # shard_epochs and wire are additive: from_wire ignores
            # them, so the re-encode threads the documented fields
            # through verbatim.
            assert wire.welcome_frame(
                session_id, epoch, limits or None,
                shard_epochs=block.get("shard_epochs"),
                wire=block.get("wire")) == block
        elif kind == "checkpoint":
            path, epoch, generation = wire.checkpoint_from_wire(block)
            assert wire.checkpoint_frame(path, epoch, generation) == block
        elif kind == "ping":
            assert wire.ping_frame() == block
        elif kind == "pong":
            epoch, stats = wire.pong_from_wire(block)
            assert wire.pong_frame(epoch, stats or None) == block
        elif kind == "event":
            assert wire.event_frame(block["event"],
                                    block["detail"]) == block
        elif kind == "shutdown":
            assert wire.shutdown_frame() == block
        elif kind == "bye":
            assert wire.bye_frame() == block
        elif kind == "request":
            request_id, method, params = wire.request_from_wire(block)
            have = wire.have_from_wire(block)
            assert wire.request_to_wire(
                request_id, method, params,
                trace_id=wire.trace_id_from_wire(block), have=have) == block
            methods_by_id[request_id] = method
            requests_by_id[request_id] = (method, params, have)
            _check_request_params(method, params)
        elif kind == "response":
            _check_response(block, methods_by_id, graph, requests_by_id)
        elif kind == "requests":
            calls = wire.requests_bundle_from_wire(block)
            tagged = wire.bundle_trace_ids(block)
            trace_ids = [tagged.get(request_id)
                         for request_id, _, _ in calls]
            if not any(trace_ids):
                trace_ids = None
            haves = [wire.have_from_wire(inner)
                     for inner in block["requests"]]
            if all(have is None for have in haves):
                haves = None
            assert wire.requests_bundle_to_wire(
                calls, trace_ids=trace_ids, haves=haves) == block
            for request_id, method, params in calls:
                methods_by_id[request_id] = method
                _check_request_params(method, params)
        elif kind == "responses":
            epoch, responses = wire.responses_bundle_from_wire(block)
            assert wire.responses_bundle_to_wire(epoch, responses) == block
            for inner in responses:
                # Bundles are epoch-atomic: every inner response answers
                # at the envelope epoch (one armed snapshot).
                _, inner_epoch, _, _ = wire.response_from_wire(inner)
                assert inner_epoch == epoch
                _check_response(inner, methods_by_id, graph, requests_by_id)
        else:
            pytest.fail(f"example with unspecified kind {kind!r}")

    # The spec must keep one worked example per frame kind.
    assert store.epoch == 10
    assert seen_kinds >= {"batch", "hello", "ping", "pong",
                          "event", "shutdown", "bye", "request",
                          "response", "requests", "responses",
                          "client_hello", "welcome", "checkpoint"}
    # ... and per request method (lineage shares its codec with impacted).
    assert set(methods_by_id.values()) >= {"lineage", "blame", "segment",
                                           "summarize", "cypher", "metrics"}
    # ... and a conditional request answered `same`.
    assert any(have for _, _, have in requests_by_id.values())


def _check_response(block, methods_by_id, graph, requests_by_id):
    request_id, epoch, ok, payload = wire.response_from_wire(block)
    trace = wire.response_trace_from_wire(block)
    tag, same = wire.response_tag_from_wire(block)
    if trace is not None:
        # Every documented span is a complete span record.
        for entry in trace:
            assert {"hop", "name", "dur_s"} <= set(entry)
    if same:
        # The tag names the leader's answer on the worked store, which
        # the conditional request said it already held.
        assert wire.response_to_wire(request_id, epoch, trace=trace,
                                     tag=tag, same=True) == block
        method, params, have = requests_by_id[request_id]
        row = METHODS[method]
        answer, _, _ = row.evaluate(graph, None, None,
                                    row.params_from_wire(params, graph))
        assert tag == have == wire.answer_tag(
            wire.WireValue(row.result_to_wire(answer)))
    elif ok:
        assert wire.response_to_wire(
            request_id, epoch, result=payload, trace=trace, tag=tag) == block
        method = methods_by_id.get(request_id)
        assert method is not None, \
            f"ok-response {request_id} has no documented request"
        _check_result(method, payload, graph)
    else:
        assert wire.response_to_wire(
            request_id, epoch, error=payload, trace=trace) == block
        rebuilt = wire.error_from_wire(payload)
        assert type(rebuilt).__name__ == payload["type"]
        assert payload["message"] in str(rebuilt)


def _check_request_params(method, params):
    if method in ("lineage", "impacted", "blame"):
        assert isinstance(params["entity"], int)
    elif method == "segment":
        query = wire.pgseg_query_from_wire(params["query"])
        assert wire.pgseg_query_to_wire(query) == params["query"]
    elif method == "summarize":
        for raw_query in params["queries"]:
            query = wire.pgseg_query_from_wire(raw_query)
            assert wire.pgseg_query_to_wire(query) == raw_query
        pgsum = wire.pgsum_query_from_wire(params["pgsum"])
        assert wire.pgsum_query_to_wire(pgsum) == params["pgsum"]
    elif method == "cypher":
        budget = wire.budget_from_wire(params["budget"])
        assert wire.budget_to_wire(budget) == params["budget"]
        assert isinstance(params["text"], str)
    elif method == "metrics":
        assert params == {}


def _check_result(method, result, graph):
    if method in ("lineage", "impacted"):
        assert wire.lineage_to_wire(wire.lineage_from_wire(result)) == result
    elif method == "blame":
        assert wire.blame_to_wire(wire.blame_from_wire(result)) == result
    elif method == "segment":
        segment = wire.segment_from_wire(graph, result)
        assert wire.segment_to_wire(segment) == result
        # Worked examples bind to the worked store: ids must resolve there.
        for vertex_id in segment.vertices:
            graph.vertex(vertex_id)
    elif method == "summarize":
        psg = wire.psg_from_wire(result)
        assert wire.psg_to_wire(psg) == result
        # Worked examples bind to the worked store: member ids resolve.
        for node in psg.nodes:
            for _seg_index, vertex_id in node.members:
                graph.vertex(vertex_id)
    elif method == "cypher":
        rows = wire.rows_from_wire(graph, result)
        assert wire.rows_to_wire(rows) == result
    elif method == "metrics":
        from repro.obs import merge_snapshots, render_prometheus
        snapshot = result["metrics"]
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        # The documented snapshot must be the one schema the exposition
        # helpers accept: self-merge doubles counters, prometheus renders.
        merged = merge_snapshots([snapshot, snapshot])
        for name, value in snapshot["counters"].items():
            assert merged["counters"][name] == 2 * value
        assert render_prometheus(snapshot)
        for trace in result["traces"]:
            assert set(trace) == {"trace_id", "spans"}
