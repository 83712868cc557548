"""Each served answer is encoded once, and splices into client frames.

A worker keeps an answer as a :class:`~repro.serve.wire.WireValue`: the
value it computed plus, once something needed it, the canonical JSON
text. The packed codecs copy that text verbatim, the pool hands it on
unparsed, and the front-end splices it into the client's line. Pinned
here:

- spliced client lines are byte-identical to ``json.dumps(frame,
  sort_keys=True)`` of the same frame with plain values, for every query
  family, error records, ``trace`` lists, single and bundle frames and
  non-ASCII strings — and canonical text never holds a raw newline;
- a worker cache hit packs the entry's memoized text (no second encode);
- in-process ``query_many(raw=True)`` hands out nothing a decoder could
  turn into an edit of the worker's cache.
"""

import copy
import json

from hypothesis import given, settings, strategies as st

from repro.query.ops import blame, lineage
from repro.segment.pgseg import PgSegOperator, PgSegQuery
from repro.serve import wire
from repro.serve.cluster import ProvCluster
from repro.serve.frontend import _encode_frame
from repro.serve.methods import encode_result as _encode_result
from repro.serve.pool import RawResult
from repro.workloads.lifecycle import build_paper_example

# ---------------------------------------------------------------------------
# Strategies: one result shape per query family
# ---------------------------------------------------------------------------

_IDS = st.lists(st.integers(0, 10 ** 6), max_size=8)
#: Property strings: newlines, quotes, control and non-ASCII characters.
_TEXT = st.text(max_size=12)
_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(-2 ** 53, 2 ** 53),
                    st.floats(allow_nan=False, allow_infinity=False), _TEXT)

_LINEAGE = st.fixed_dictionaries({
    "root": st.integers(0, 10 ** 6),
    "levels": st.lists(st.fixed_dictionaries({
        "depth": st.integers(0, 50), "activities": _IDS,
        "entities": _IDS}), max_size=3),
})
_BLAME = st.fixed_dictionaries({
    "agents": st.dictionaries(st.integers(0, 999).map(str), _IDS,
                              max_size=3)})
_SEGMENT = st.fixed_dictionaries({
    "vertices": _IDS, "edge_ids": _IDS,
    "categories": st.dictionaries(
        st.sampled_from(["src", "dst", "C1", "C2", "C3", "C4", "Bx"]),
        _IDS, max_size=3),
})
_ROW_VALUE = st.recursive(
    _SCALAR,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(_TEXT.filter(lambda key: key != wire.ROW_TAG),
                        inner, max_size=3),
        st.fixed_dictionaries({
            wire.ROW_TAG: st.just("path"), "start": st.integers(0, 99),
            "steps": st.lists(st.tuples(st.integers(0, 99), st.booleans())
                              .map(list), max_size=3)})),
    max_leaves=8)
_CYPHER = st.lists(st.dictionaries(_TEXT, _ROW_VALUE, max_size=3),
                   max_size=3)
_SUMMARY = st.fixed_dictionaries({
    "nodes": st.lists(st.fixed_dictionaries({
        "class_index": st.integers(0, 99),
        "label": st.lists(st.one_of(_TEXT, st.integers()), max_size=2),
        "members": st.lists(st.tuples(st.integers(0, 3),
                                      st.integers(0, 999)).map(list),
                            max_size=3)}), max_size=3),
    "edges": st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9),
                                st.sampled_from(["U", "G", "S"]),
                                st.floats(0, 1)).map(list), max_size=3),
    "segment_count": st.integers(0, 9),
    "source_vertex_total": st.integers(0, 999),
})
RESULTS = {"lineage": _LINEAGE, "blame": _BLAME, "segment": _SEGMENT,
           "cypher": _CYPHER, "summarize": _SUMMARY}

_ERROR = st.fixed_dictionaries({"type": st.sampled_from(
    ["VertexNotFound", "ValueError", "Overloaded"]), "message": _TEXT})
_TRACE = st.none() | st.lists(st.fixed_dictionaries({
    "hop": st.sampled_from(["worker", "transport"]), "name": _TEXT,
    "dur_s": st.floats(0, 1)}), max_size=2)


@st.composite
def answers(draw):
    """``(method, ok, body, trace)`` for one response."""
    method = draw(st.sampled_from(sorted(RESULTS)))
    ok = draw(st.booleans())
    body = draw(RESULTS[method] if ok else _ERROR)
    return method, ok, body, draw(_TRACE)


def _response(request_id, ok, body, trace, epoch=7):
    if ok:
        return wire.response_to_wire(request_id, epoch, result=body,
                                     trace=trace)
    return wire.response_to_wire(request_id, epoch, error=body, trace=trace)


def _frame(bundle, responses, epoch=7):
    return wire.responses_bundle_to_wire(epoch, responses) if bundle \
        else responses[0]


# ---------------------------------------------------------------------------
# Byte identity of spliced client frames
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(batch=st.lists(answers(), min_size=1, max_size=4),
       bundle=st.booleans())
def test_spliced_client_frames_are_byte_identical(batch, bundle):
    """Worker packs the value → pool unpacks text → front-end splices: the
    client line is exactly what encoding the decoded frame would give."""
    bundle = bundle or len(batch) > 1
    worker_frame = _frame(bundle, [
        _response(index, ok, wire.WireValue(body) if ok else body, trace)
        for index, (_method, ok, body, trace) in enumerate(batch)])
    packed = (wire.pack_responses_frame if bundle
              else wire.pack_response_frame)(worker_frame)
    pool_frame = (wire.unpack_responses_frame if bundle
                  else wire.unpack_response_frame)(packed)
    inner = pool_frame["responses"] if bundle else [pool_frame]
    # What the front-end builds around a raw answer (traces included,
    # which client frames do not carry today, to cover nested lists).
    client_frame = _frame(bundle, [
        _response(response["id"], response["ok"],
                  _encode_result(method, RawResult(method,
                                                   response["result"]))
                  if response["ok"] else response["error"],
                  response.get("trace"))
        for (method, *_), response in zip(batch, inner)])
    line = _encode_frame(client_frame)

    plain_frame = _frame(bundle, [
        _response(index, ok, body, trace)
        for index, (_method, ok, body, trace) in enumerate(batch)])
    expected = json.dumps(plain_frame, sort_keys=True).encode("utf-8")
    assert line == expected + b"\n"
    assert line.count(b"\n") == 1


@settings(max_examples=300, deadline=None)
@given(body=st.one_of(*RESULTS.values(), _ROW_VALUE))
def test_canonical_text_is_ascii_without_newlines(body):
    text = wire.WireValue(body).text
    assert text == json.dumps(body, sort_keys=True)
    assert "\n" not in text
    assert text.isascii()
    assert wire.WireValue(text=text).value == json.loads(text)


# ---------------------------------------------------------------------------
# Encode once; never alias the cache
# ---------------------------------------------------------------------------


class _CountingEncoder:
    """Stands in for the canonical encoder and counts every encode."""

    def __init__(self, encoder):
        self.encoder = encoder
        self.calls = 0

    def encode(self, value):
        self.calls += 1
        return self.encoder.encode(value)


def test_worker_cache_hit_packs_the_memoized_text(monkeypatch):
    example = build_paper_example()
    target = example["weight-v2"]
    request = wire.requests_bundle_to_wire(
        [(1, "lineage", {"entity": target, "max_depth": None}),
         (2, "blame", {"entity": target})])
    with ProvCluster(example.graph, replicas=1) as cluster:
        client = cluster.replicas[0]
        worker = client.transport.worker
        counter = _CountingEncoder(wire._CANONICAL)
        monkeypatch.setattr(wire, "_CANONICAL", counter)
        packed, encodes = [], []
        with client.lease:
            for _ in range(2):
                counter.calls = 0
                worker.handle(request)
                packed.append(wire.pack_responses_frame(
                    client.transport.recv()))
                encodes.append(counter.calls)
        assert encodes == [2, 0]       # one encode per miss, none per hit
        assert worker.cache_hits == 2
        assert packed[0] == packed[1]
        cached = [answer.text for answer in worker.result_cache.values()]
        hit = wire.unpack_responses_frame(packed[1])["responses"]
        assert [response["result"].text for response in hit] == cached


def test_in_process_raw_answers_never_alias_the_worker_cache():
    """Decoding a raw answer yields copies: edits to them never reach the
    worker's cached value, so the next raw or decoded answer is intact."""
    example = build_paper_example()
    graph = example.graph
    target = example["weight-v2"]
    roots = tuple(v for v in graph.entities()
                  if not graph.generating_activities(v))
    query = PgSegQuery(src=roots, dst=(target,))
    specs = [("lineage", {"entity": target}), ("blame", {"entity": target}),
             ("segment", {"query": query})]
    with ProvCluster(graph, replicas=1) as cluster:
        worker = cluster.replicas[0].transport.worker
        first = None
        for _ in range(2):
            walk, report, segment = cluster.query_many(specs, raw=True)
            assert all(isinstance(answer, RawResult)
                       for answer in (walk, report, segment))
            if first is None:
                first = copy.deepcopy([answer.payload.value
                                       for answer in (walk, report, segment)])
            decoded_walk = wire.lineage_from_wire(walk.payload.value)
            assert decoded_walk.levels[0].entities \
                is not walk.payload.value["levels"][0]["entities"]
            decoded_walk.vertices.clear()
            decoded_walk.levels[0].entities.append(-1)
            for owned in wire.blame_from_wire(report.payload.value).values():
                owned.add(-1)
            decoded_segment = wire.segment_from_wire(
                graph, segment.payload.value)
            decoded_segment.vertices.clear()
            decoded_segment.edge_ids.clear()
            for tags in decoded_segment.categories.values():
                tags.add("edited")
        assert worker.cache_hits == 3
        again = cluster.query_many(specs, raw=True)
        assert [answer.payload.value for answer in again] == first
        # ... and the splice reads the same, unedited answer.
        assert [json.loads(answer.payload.text) for answer in again] == first
        walk, report, segment = again
        assert wire.lineage_from_wire(walk.payload.value).vertices \
            == lineage(graph, target).vertices
        assert wire.blame_from_wire(report.payload.value) \
            == blame(graph, target)
        assert segment.payload.value["vertices"] \
            == sorted(PgSegOperator(graph).evaluate(query).vertices)
