"""Unit tests for the PgSeg operator machinery (beyond the paper examples)."""

import pytest

from repro.errors import SegmentationError
from repro.model.types import VertexType
from repro.segment.boundary import BoundaryCriteria
from repro.segment.pgseg import PgSegOperator, PgSegQuery, Segment, segment
from repro.segment.naive import naive_segment


class TestQueryValidation:
    def test_empty_src_rejected(self, paper):
        with pytest.raises(SegmentationError):
            PgSegQuery(src=(), dst=(paper["weight-v2"],))

    def test_unknown_algorithm_rejected(self, paper):
        with pytest.raises(SegmentationError):
            PgSegQuery(src=(paper["dataset-v1"],),
                       dst=(paper["weight-v2"],), algorithm="bfs")

    def test_non_entity_rejected(self, paper):
        query = PgSegQuery(src=(paper["Alice"],), dst=(paper["weight-v2"],))
        with pytest.raises(SegmentationError):
            PgSegOperator(paper.graph).evaluate(query)


class TestRuleToggles:
    def test_direct_only(self, paper):
        query = PgSegQuery(
            src=(paper["dataset-v1"],), dst=(paper["weight-v2"],),
            include_similar=False, include_siblings=False,
            include_agents=False,
        )
        result = PgSegOperator(paper.graph).evaluate(query)
        assert result.vertices == {
            paper["dataset-v1"], paper["train-v2"], paper["weight-v2"]
        }

    def test_agents_toggle(self, paper):
        query = PgSegQuery(
            src=(paper["dataset-v1"],), dst=(paper["weight-v2"],),
            include_agents=False,
        )
        result = PgSegOperator(paper.graph).evaluate(query)
        assert paper["Alice"] not in result.vertices

    def test_siblings_toggle(self, paper):
        query = PgSegQuery(
            src=(paper["dataset-v1"],), dst=(paper["weight-v2"],),
            include_siblings=False,
        )
        result = PgSegOperator(paper.graph).evaluate(query)
        assert paper["log-v2"] not in result.vertices

    @pytest.mark.parametrize("algorithm", ["simprov-alg", "simprov-tst", "cflr"])
    def test_algorithms_give_same_segment(self, paper, algorithm):
        query = PgSegQuery(
            src=(paper["dataset-v1"],), dst=(paper["weight-v2"],),
            algorithm=algorithm,
        )
        result = PgSegOperator(paper.graph).evaluate(query)
        baseline = PgSegOperator(paper.graph).evaluate(
            PgSegQuery(src=(paper["dataset-v1"],), dst=(paper["weight-v2"],))
        )
        assert result.vertices == baseline.vertices


class TestAgainstNaive:
    def test_matches_naive_on_paper_example(self, paper):
        query = PgSegQuery(
            src=(paper["dataset-v1"],), dst=(paper["weight-v2"],),
        )
        fast = PgSegOperator(paper.graph).evaluate(query)
        slow = naive_segment(paper.graph, query.src, query.dst, max_edges=8)
        assert fast.vertices == slow["VS"]

    def test_matches_naive_on_two_dst(self, paper):
        query = PgSegQuery(
            src=(paper["dataset-v1"],),
            dst=(paper["weight-v2"], paper["weight-v3"]),
        )
        fast = PgSegOperator(paper.graph).evaluate(query)
        slow = naive_segment(paper.graph, query.src, query.dst, max_edges=8)
        assert fast.vertices == slow["VS"]


class TestSegmentObject:
    @pytest.fixture()
    def seg(self, paper):
        return segment(paper.graph, [paper["dataset-v1"]],
                       [paper["weight-v2"]])

    def test_counts(self, seg):
        assert seg.vertex_count == len(seg.vertices)
        assert seg.edge_count == len(seg.edge_ids)

    def test_vertices_of_type(self, paper, seg):
        entities = seg.vertices_of_type(VertexType.ENTITY)
        assert paper["dataset-v1"] in entities
        assert paper["train-v2"] not in entities

    def test_induced_edges_stay_inside(self, seg):
        for record in seg.edges():
            assert record.src in seg.vertices
            assert record.dst in seg.vertices

    def test_to_networkx(self, seg):
        nxg = seg.to_networkx()
        assert nxg.number_of_nodes() == seg.vertex_count
        assert nxg.number_of_edges() == seg.edge_count
        node = next(iter(nxg.nodes(data=True)))
        assert "vertex_type" in node[1]

    def test_describe_mentions_everything(self, paper, seg):
        text = seg.describe()
        assert "dataset-v1" in text
        assert "Segment:" in text

    def test_manual_segment_construction(self, paper):
        members = [paper["dataset-v1"], paper["train-v2"], paper["weight-v2"]]
        seg = Segment(paper.graph, members)
        assert seg.vertex_count == 3
        assert seg.edge_count == 2      # U and G edges among them

    def test_tagging(self, paper):
        seg = Segment(paper.graph, [paper["dataset-v1"]])
        seg.tag([paper["dataset-v1"]], "custom")
        assert seg.vertices_in_category("custom") == {paper["dataset-v1"]}


class TestCaching:
    def test_unbounded_induction_cached(self, paper):
        """The two-step evaluation (induce unbounded, then filter) is
        ``adjust`` on a segment the caller holds: the interactive loop
        re-filters a held segment instead of re-inducing."""
        operator = PgSegOperator(paper.graph)
        boundaries = BoundaryCriteria().exclude_vertices(lambda r: True)
        query = PgSegQuery(
            src=(paper["dataset-v1"],), dst=(paper["weight-v2"],),
            boundaries=boundaries,
        )
        held = operator.evaluate(PgSegQuery(src=query.src, dst=query.dst))
        two_step = operator.evaluate(query, inline_boundaries=False)
        adjusted = operator.adjust(held, boundaries)
        assert two_step.vertices == adjusted.vertices
        assert two_step.edge_ids == adjusted.edge_ids
        assert two_step.categories == adjusted.categories


class TestOnPdGraphs:
    def test_segment_on_pd(self, pd_small):
        src, dst = pd_small.default_query()
        result = segment(pd_small.graph, src, dst)
        assert set(src) <= result.vertices
        assert set(dst) <= result.vertices
        # Everything in the segment that is an entity/activity must be
        # reachable in the undirected sense (connected result).
        assert result.vertex_count > 4

    def test_segment_edges_within_members(self, pd_small):
        src, dst = pd_small.default_query()
        result = segment(pd_small.graph, src, dst)
        for record in result.edges():
            assert record.src in result.vertices
            assert record.dst in result.vertices
