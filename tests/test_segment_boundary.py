"""Unit tests for boundary criteria and predicate factories."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.model.types import EdgeType, VertexType
from repro.segment.boundary import (
    BoundaryCriteria,
    Expansion,
    exclude_edge_types,
    exclude_vertex_types,
    name_matches,
    not_owned_by,
    owned_by,
    property_equals,
    property_not_equals,
    within_order_window,
)
from repro.segment.pgseg import PgSegOperator, PgSegQuery
from repro.serve.wire import pgseg_query_from_wire, pgseg_query_to_wire
from repro.workloads.lifecycle import build_paper_example


class TestCriteriaComposition:
    def test_empty_criteria_pass_everything(self, paper):
        b = BoundaryCriteria()
        assert not b.has_exclusions
        record = paper.graph.vertex(paper["dataset-v1"])
        assert b.vertex_ok(record)

    def test_conjunction(self, paper):
        b = BoundaryCriteria()
        b.exclude_vertices(property_not_equals("name", "model"))
        b.exclude_vertices(property_not_equals("name", "solver"))
        g = paper.graph
        assert b.vertex_ok(g.vertex(paper["dataset-v1"]))
        assert not b.vertex_ok(g.vertex(paper["model-v1"]))
        assert not b.vertex_ok(g.vertex(paper["solver-v1"]))

    def test_chaining_returns_self(self):
        b = BoundaryCriteria()
        assert b.exclude_edges(exclude_edge_types(EdgeType.WAS_DERIVED_FROM)) is b
        assert b.expand([1, 2], k=2) is b
        assert b.expansions[0].entities == (1, 2)
        assert b.expansions[0].k == 2

    def test_copy_is_independent(self):
        b = BoundaryCriteria().expand([1])
        c = b.copy()
        c.expand([2])
        assert len(b.expansions) == 1
        assert len(c.expansions) == 2


class TestPredicates:
    def test_exclude_edge_types(self, paper):
        edge_ok = exclude_edge_types(EdgeType.WAS_DERIVED_FROM)
        g = paper.graph
        derived = next(g.store.edges(EdgeType.WAS_DERIVED_FROM))
        used = next(g.store.edges(EdgeType.USED))
        assert not edge_ok(derived)
        assert edge_ok(used)

    def test_exclude_vertex_types(self, paper):
        vertex_ok = exclude_vertex_types(VertexType.AGENT)
        g = paper.graph
        assert not vertex_ok(g.vertex(paper["Alice"]))
        assert vertex_ok(g.vertex(paper["dataset-v1"]))

    def test_order_window(self, paper):
        g = paper.graph
        cut = g.store.order_of(paper["update-v2"])
        vertex_ok = within_order_window(lo=cut)
        assert not vertex_ok(g.vertex(paper["train-v1"]))
        assert vertex_ok(g.vertex(paper["train-v2"]))

    def test_order_window_upper(self, paper):
        g = paper.graph
        cut = g.store.order_of(paper["train-v1"])
        vertex_ok = within_order_window(hi=cut)
        assert vertex_ok(g.vertex(paper["dataset-v1"]))
        assert not vertex_ok(g.vertex(paper["weight-v3"]))

    def test_property_equals(self, paper):
        vertex_ok = property_equals("command", "train")
        g = paper.graph
        assert vertex_ok(g.vertex(paper["train-v1"]))
        assert not vertex_ok(g.vertex(paper["update-v2"]))
        assert not vertex_ok(g.vertex(paper["dataset-v1"]))

    def test_name_matches(self, paper):
        vertex_ok = name_matches(r"^(model|solver)$")
        g = paper.graph
        assert vertex_ok(g.vertex(paper["model-v1"]))
        assert not vertex_ok(g.vertex(paper["dataset-v1"]))
        # Nameless vertices pass (activities have no 'name').
        assert vertex_ok(g.vertex(paper["train-v1"]))

    def test_owned_by(self, paper):
        g = paper.graph
        alice_only = owned_by(g, paper["Alice"])
        assert alice_only(g.vertex(paper["train-v2"]))
        assert not alice_only(g.vertex(paper["train-v3"]))   # Bob's
        assert alice_only(g.vertex(paper["Bob"]))            # agents pass

    def test_not_owned_by(self, paper):
        g = paper.graph
        not_bob = not_owned_by(g, paper["Bob"])
        assert not_bob(g.vertex(paper["train-v2"]))
        assert not not_bob(g.vertex(paper["solver-v3"]))


# ---------------------------------------------------------------------------
# Records: every factory value round-trips; malformed records are typed
# ---------------------------------------------------------------------------

#: Read-only graph for the Hypothesis suites (built once).
_EXAMPLE = build_paper_example()
_GRAPH = _EXAMPLE.graph
_AGENTS = sorted(_GRAPH.agents())
_ENTITIES = sorted(_GRAPH.entities())

_SCALARS = (st.none() | st.booleans() | st.integers(-3, 3)
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from(["model", "train", "weight", "update", ""]))
_KEYS = st.sampled_from(["name", "command", "version", "exp"])
_ORDINALS = st.none() | st.integers(0, 30)
_VERTEX_PREDICATES = st.one_of(
    st.sets(st.sampled_from(list(VertexType))).map(
        lambda types: exclude_vertex_types(*types)),
    st.builds(within_order_window, _ORDINALS, _ORDINALS),
    st.builds(property_equals, _KEYS, _SCALARS),
    st.builds(property_not_equals, _KEYS, _SCALARS),
    st.sampled_from([r"^w", "v", "log|model", "[a-z]+$"]).map(name_matches),
    st.builds(owned_by, st.just(_GRAPH), st.sampled_from(_AGENTS),
              st.booleans()),
    st.builds(not_owned_by, st.just(_GRAPH), st.sampled_from(_AGENTS)),
)
_EDGE_PREDICATES = st.sets(st.sampled_from(list(EdgeType))).map(
    lambda types: exclude_edge_types(*types))
_EXPANSIONS = st.builds(
    Expansion, st.lists(st.sampled_from(_ENTITIES), max_size=3).map(tuple),
    st.integers(0, 3))
_CRITERIA = st.builds(
    BoundaryCriteria, st.lists(_VERTEX_PREDICATES, max_size=3),
    st.lists(_EDGE_PREDICATES, max_size=2), st.lists(_EXPANSIONS, max_size=2))

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(
        max_size=4) | st.sampled_from(["A", "U", "owned_by", "name_matches",
                                       "(", "simprov-alg"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8)


def _corrupt(value, data):
    """``value`` with one nested field replaced, dropped or left as junk."""
    if isinstance(value, dict) and value and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(sorted(value)))
        if data.draw(st.booleans()):
            return {k: v for k, v in value.items() if k != key}
        return {**value, key: _corrupt(value[key], data)}
    if isinstance(value, list) and value and data.draw(st.booleans()):
        index = data.draw(st.integers(0, len(value) - 1))
        return [*value[:index], _corrupt(value[index], data),
                *value[index + 1:]]
    return data.draw(_JSON)


class TestRecords:
    @settings(max_examples=150, deadline=None)
    @given(criteria=_CRITERIA)
    def test_round_trip_is_equal_and_evaluates_alike(self, criteria):
        record = json.loads(json.dumps(criteria.to_record()))
        decoded = BoundaryCriteria.from_record(record, _GRAPH)
        assert decoded == criteria
        assert decoded.to_record() == record
        for vertex in _GRAPH.store.vertices():
            assert decoded.vertex_ok(vertex) == criteria.vertex_ok(vertex)
        for edge in _GRAPH.store.edges():
            assert decoded.edge_ok(edge) == criteria.edge_ok(edge)

    @settings(max_examples=40, deadline=None)
    @given(criteria=_CRITERIA)
    def test_decoded_query_segments_alike(self, criteria):
        query = PgSegQuery(src=(_EXAMPLE["dataset-v1"],),
                           dst=(_EXAMPLE["weight-v2"],), boundaries=criteria)
        decoded = pgseg_query_from_wire(
            json.loads(json.dumps(pgseg_query_to_wire(query))), _GRAPH)
        operator = PgSegOperator(_GRAPH)
        assert operator.evaluate(decoded).vertices \
            == operator.evaluate(query).vertices

    @settings(max_examples=300, deadline=None)
    @given(criteria=_CRITERIA, data=st.data())
    def test_malformed_records_raise_only_serialization_error(
            self, criteria, data):
        record = _corrupt(criteria.to_record(), data)
        try:
            BoundaryCriteria.from_record(record, data.draw(
                st.sampled_from([_GRAPH, None])))
        except SerializationError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(criteria=_CRITERIA, keyed=st.booleans(), data=st.data())
    def test_malformed_queries_raise_only_serialization_error(
            self, criteria, keyed, data):
        query = PgSegQuery(
            src=(_EXAMPLE["dataset-v1"],), dst=(_EXAMPLE["weight-v2"],),
            boundaries=criteria,
            algorithm="simprov-alg" if keyed else "simprov-tst",
            entity_key=("name",) if keyed else None)
        record = _corrupt(pgseg_query_to_wire(query), data)
        try:
            pgseg_query_from_wire(record, _GRAPH)
        except SerializationError:
            pass

    def test_non_declarative_predicates_refused_by_name(self):
        def recent(record):
            return record.order > 3

        with pytest.raises(SerializationError, match="recent"):
            BoundaryCriteria().exclude_vertices(recent).to_record()
        with pytest.raises(SerializationError, match="edge predicate"):
            BoundaryCriteria().exclude_vertices(
                exclude_edge_types(EdgeType.USED)).to_record()
        with pytest.raises(SerializationError, match="JSON scalar"):
            BoundaryCriteria().exclude_vertices(
                property_equals("tags", ["a"])).to_record()
