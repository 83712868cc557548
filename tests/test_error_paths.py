"""Error-path and edge-case coverage across modules."""

import pytest

from repro.errors import QueryTimeout, SummarizationError
from repro.cfl.simprov_tst import SimProvTst
from repro.model.graph import ProvenanceGraph
from repro.segment.pgseg import Segment
from repro.summarize.pgsum import PgSumOperator, PgSumQuery, pgsum
from repro.summarize.psum_baseline import psum_summarize


class TestSolverEdgeCases:
    def test_tst_timeout(self, pd_medium):
        src, dst = pd_medium.default_query()
        solver = SimProvTst(pd_medium.graph, src, dst,
                            timeout_seconds=0.0)
        with pytest.raises(QueryTimeout):
            solver.solve()

    def test_dst_not_in_graph_is_error(self, paper):
        with pytest.raises(Exception):
            SimProvTst(paper.graph, [paper["dataset-v1"]], [99999])

    def test_all_sources_excluded_yields_empty(self, paper):
        banned = paper["dataset-v1"]
        result = SimProvTst(
            paper.graph, [banned], [paper["weight-v2"]],
            vertex_ok=lambda record: record.vertex_id != banned,
        ).solve()
        assert not result.has_answers
        assert result.path_vertices == set()

    def test_all_destinations_excluded_yields_empty(self, paper):
        banned = paper["weight-v2"]
        result = SimProvTst(
            paper.graph, [paper["dataset-v1"]], [banned],
            vertex_ok=lambda record: record.vertex_id != banned,
        ).solve()
        assert not result.has_answers

    def test_disconnected_entities(self):
        g = ProvenanceGraph()
        island_a = g.add_entity()
        island_b = g.add_entity()
        result = SimProvTst(g, [island_a], [island_b]).solve()
        assert not result.has_answers


class TestEmptyAndDegenerateSegments:
    def test_empty_segment(self, paper):
        seg = Segment(paper.graph, [])
        assert seg.vertex_count == 0
        assert seg.edge_count == 0
        assert not seg.is_connected()
        assert "0 vertices" in seg.describe()

    def test_singleton_segment(self, paper):
        seg = Segment(paper.graph, [paper["dataset-v1"]])
        assert seg.is_connected()
        assert seg.edge_count == 0
        nxg = seg.to_networkx()
        assert nxg.number_of_nodes() == 1

    def test_summarize_singleton_segments(self, paper):
        segments = [
            Segment(paper.graph, [paper["dataset-v1"]]),
            Segment(paper.graph, [paper["dataset-v1"]]),
        ]
        psg = PgSumOperator(segments).evaluate()
        assert psg.node_count == 1
        assert psg.edges == {}
        assert psg.compaction_ratio == 0.5

    def test_psum_on_singletons(self, paper):
        segments = [
            Segment(paper.graph, [paper["dataset-v1"]]),
            Segment(paper.graph, [paper["dataset-v1"]]),
        ]
        psg = psum_summarize(segments)
        assert psg.node_count == 1


class TestPgSumQueryValidation:
    @pytest.mark.parametrize("options", [
        {"k": -3},
        {"max_rounds": -1},
        {"rk_direction": "sideways"},
    ])
    def test_meaningless_options_are_typed_errors(self, options):
        with pytest.raises(SummarizationError):
            PgSumQuery(**options)

    def test_one_shot_helper_validates_too(self, paper):
        segments = [Segment(paper.graph, [paper["dataset-v1"]])]
        with pytest.raises(SummarizationError):
            pgsum(segments, k=-1)

    def test_wire_query_with_bad_options_is_typed(self):
        from repro.serve.wire import pgsum_query_from_wire, pgsum_query_to_wire
        record = pgsum_query_to_wire(PgSumQuery())
        record["k"] = -3
        with pytest.raises(SummarizationError):
            pgsum_query_from_wire(record)

    def test_boundary_values_stay_legal(self):
        assert PgSumQuery(k=0, max_rounds=0, rk_direction="out").max_rounds == 0


class TestSegmentValidation:
    def test_segment_rejects_bad_vertex_via_graph(self, paper):
        with pytest.raises(Exception):
            Segment(paper.graph, [424242]).describe()

    def test_operator_rejects_missing_entity(self, paper):
        from repro.segment.pgseg import PgSegOperator, PgSegQuery
        query = PgSegQuery(src=(paper["dataset-v1"],), dst=(424242,))
        with pytest.raises(Exception):
            PgSegOperator(paper.graph).evaluate(query)


class TestUnicodeAndOddProperties:
    def test_unicode_names_roundtrip(self, tmp_path):
        from repro.model import serialization as ser

        g = ProvenanceGraph()
        g.add_entity(name="données-v1 ✓", note="日本語")
        restored = ser.loads(ser.dumps(g))
        record = next(restored.store.vertices())
        assert record.get("name") == "données-v1 ✓"
        assert record.get("note") == "日本語"

    def test_none_valued_properties(self):
        g = ProvenanceGraph()
        e = g.add_entity(name=None)
        assert g.vertex(e).get("name") is None
        # display_name must not crash on None names.
        assert g.vertex(e).display_name()

    def test_numeric_property_aggregation(self):
        from repro.summarize.aggregation import PropertyAggregation

        g = ProvenanceGraph()
        a = g.add_entity(acc=0.75)
        b = g.add_entity(acc=0.75)
        c = g.add_entity(acc=0.5)
        k = PropertyAggregation.of(entity=("acc",))
        assert k.base_label(g.vertex(a)) == k.base_label(g.vertex(b))
        assert k.base_label(g.vertex(a)) != k.base_label(g.vertex(c))
