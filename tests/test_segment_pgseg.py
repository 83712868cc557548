"""Unit tests for the PgSeg operator machinery (beyond the paper examples)."""

import pytest

from repro.errors import SegmentationError, VertexNotFound
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

    @pytest.mark.parametrize("algorithm", ["cflr", "simprov-tst"])
    def test_keys_require_simprov_alg(self, paper, algorithm):
        """A key is never silently dropped (cflr) nor deferred to a
        solver error at evaluation (simprov-tst): the query refuses it."""
        for key in (("name",), lambda entity: entity):
            with pytest.raises(SegmentationError, match="simprov-alg"):
                PgSegQuery(src=(paper["dataset-v1"],),
                           dst=(paper["weight-v2"],), algorithm=algorithm,
                           entity_key=key)

    @pytest.mark.parametrize("key", [(), ("name", 3), "name", ["name"]])
    def test_malformed_key_rejected(self, paper, key):
        with pytest.raises(SegmentationError):
            PgSegQuery(src=(paper["dataset-v1"],), dst=(paper["weight-v2"],),
                       algorithm="simprov-alg", entity_key=key)

    @pytest.mark.parametrize("snapshot", [False, True])
    def test_property_name_key_matches_callable(self, paper, snapshot):
        graph = paper.graph
        src, dst = (paper["dataset-v1"],), (paper["weight-v2"],)
        by_names = PgSegQuery(src=src, dst=dst, algorithm="simprov-alg",
                              entity_key=("name",))
        by_callable = PgSegQuery(
            src=src, dst=dst, algorithm="simprov-alg",
            entity_key=lambda entity: (graph.vertex(entity).get("name"),))
        operator = PgSegOperator(graph, snapshot=snapshot)
        assert operator.evaluate(by_names).vertices \
            == operator.evaluate(by_callable).vertices
        assert not by_names.is_bare
        assert PgSegQuery(src=src, dst=dst).is_bare


class TestExpansionIds:
    @pytest.mark.parametrize("snapshot", [False, True])
    @pytest.mark.parametrize("vertex_id", [-1, 10 ** 6])
    def test_unknown_ids_raise_vertex_not_found(self, paper, snapshot,
                                                vertex_id):
        """Live graph and armed snapshot agree: no wrap-around, no bare
        IndexError."""
        operator = PgSegOperator(paper.graph, snapshot=snapshot)
        held = operator.evaluate(PgSegQuery(src=(paper["dataset-v1"],),
                                            dst=(paper["weight-v2"],)))
        with pytest.raises(VertexNotFound):
            operator.adjust(held, BoundaryCriteria().expand((vertex_id,)))
        with pytest.raises(VertexNotFound):
            operator.evaluate(PgSegQuery(
                src=(paper["dataset-v1"],), dst=(paper["weight-v2"],),
                boundaries=BoundaryCriteria().expand((vertex_id,))))

    @pytest.mark.parametrize("entities, k", [
        (("3",), 1), ((1.0,), 1), ((True,), 1), ((1,), -1), ((1,), 1.5)])
    def test_malformed_expansion_rejected(self, entities, k):
        with pytest.raises(SegmentationError):
            BoundaryCriteria().expand(entities, k=k)


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
