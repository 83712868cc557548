"""Unit tests for the four PgSeg induction rule classes."""

import random

import pytest

from repro.errors import SegmentationError
from repro.model.types import EdgeType, VertexType
from repro.query.ops import blame, lineage
from repro.segment.boundary import (
    BoundaryCriteria,
    exclude_edge_types,
    property_not_equals,
)
from repro.segment.induce import (
    direct_path_vertices,
    expansion_vertices,
    involved_agents,
    similar_path_vertices,
    sibling_entities,
)
from repro.segment.naive import naive_direct_paths
from repro.segment.pgseg import PgSegOperator, PgSegQuery
from repro.store.snapshot import GraphSnapshot
from repro.workloads.pd_generator import generate_pd_sized


class TestDirectPaths:
    def test_q1_direct_path(self, paper):
        vc1 = direct_path_vertices(
            paper.graph, [paper["dataset-v1"]], [paper["weight-v2"]]
        )
        assert vc1 == {
            paper["weight-v2"], paper["train-v2"], paper["dataset-v1"]
        }

    def test_no_path(self, paper):
        vc1 = direct_path_vertices(
            paper.graph, [paper["weight-v2"]], [paper["dataset-v1"]]
        )
        # dataset-v1 has no outgoing ancestry edges; it reaches no source.
        assert vc1 == set()

    def test_derivation_edges_join_paths(self, paper):
        # Two direct paths exist: model-v2 -D-> model-v1 and
        # model-v2 -G-> update-v2 -U-> model-v1.
        vc1 = direct_path_vertices(
            paper.graph, [paper["model-v1"]], [paper["model-v2"]]
        )
        assert vc1 == {
            paper["model-v1"], paper["model-v2"], paper["update-v2"]
        }

    def test_derivation_only_path(self, paper):
        # log-v3 -D-> log-v2 -D-> log-v1: a pure derivation chain.
        vc1 = direct_path_vertices(
            paper.graph, [paper["log-v1"]], [paper["log-v3"]]
        )
        assert {paper["log-v1"], paper["log-v2"], paper["log-v3"]} <= vc1

    def test_edge_type_restriction(self, paper):
        vc1 = direct_path_vertices(
            paper.graph, [paper["model-v1"]], [paper["model-v2"]],
            edge_types=frozenset({EdgeType.USED, EdgeType.WAS_GENERATED_BY}),
        )
        assert vc1 == {
            paper["model-v1"], paper["model-v2"], paper["update-v2"]
        }

    def test_matches_naive_enumeration(self, paper):
        for src, dst in [
            ([paper["dataset-v1"]], [paper["weight-v2"]]),
            ([paper["dataset-v1"], paper["model-v1"]], [paper["log-v3"]]),
            ([paper["solver-v1"]], [paper["weight-v3"], paper["weight-v1"]]),
        ]:
            fast = direct_path_vertices(paper.graph, src, dst)
            slow = naive_direct_paths(paper.graph, src, dst)
            assert fast == slow, (src, dst)

    def test_excluded_vertex_breaks_path(self, paper):
        banned = paper["train-v2"]
        vc1 = direct_path_vertices(
            paper.graph, [paper["dataset-v1"]], [paper["weight-v2"]],
            vertex_ok=lambda record: record.vertex_id != banned,
        )
        assert vc1 == set()


class TestSimilarPaths:
    @pytest.mark.parametrize("algorithm", ["simprov-alg", "simprov-tst", "cflr"])
    def test_algorithms_agree_on_q1(self, paper, algorithm):
        result = similar_path_vertices(
            paper.graph, [paper["dataset-v1"]], [paper["weight-v2"]],
            algorithm,
        )
        assert result.path_vertices == {
            paper["dataset-v1"], paper["train-v2"], paper["weight-v2"],
            paper["model-v2"], paper["solver-v1"],
        }

    def test_unknown_algorithm(self, paper):
        with pytest.raises(SegmentationError):
            similar_path_vertices(
                paper.graph, [paper["dataset-v1"]], [paper["weight-v2"]],
                "magic",
            )


class TestSiblings:
    def test_q1_sibling_log(self, paper):
        core = {paper["train-v2"], paper["weight-v2"], paper["dataset-v1"]}
        siblings = sibling_entities(paper.graph, core)
        assert siblings == {paper["log-v2"]}

    def test_no_activities_no_siblings(self, paper):
        assert sibling_entities(paper.graph, {paper["dataset-v1"]}) == set()

    def test_excluded_sibling_dropped(self, paper):
        core = {paper["train-v2"]}
        siblings = sibling_entities(
            paper.graph, core,
            vertex_ok=lambda record: record.get("name") != "log",
        )
        assert siblings == {paper["weight-v2"]}


class TestAgents:
    def test_agents_of_mixed_set(self, paper):
        agents = involved_agents(
            paper.graph,
            {paper["train-v2"], paper["solver-v3"], paper["dataset-v1"]},
        )
        assert agents == {paper["Alice"], paper["Bob"]}

    def test_attribution_edges_can_be_excluded(self, paper):
        agents = involved_agents(
            paper.graph, {paper["dataset-v1"]},
            edge_ok=lambda record: record.edge_type
            is not EdgeType.WAS_ATTRIBUTED_TO,
        )
        assert agents == set()


class TestExpansion:
    def test_q1_expansion(self, paper):
        grown = expansion_vertices(paper.graph, [paper["weight-v2"]], k=2)
        assert grown == {
            paper["weight-v2"], paper["train-v2"], paper["dataset-v1"],
            paper["model-v2"], paper["solver-v1"], paper["update-v2"],
            paper["model-v1"],
        }

    def test_k_one_stops_after_one_activity(self, paper):
        grown = expansion_vertices(paper.graph, [paper["weight-v2"]], k=1)
        assert grown == {
            paper["weight-v2"], paper["train-v2"], paper["dataset-v1"],
            paper["model-v2"], paper["solver-v1"],
        }

    def test_k_zero_is_identity(self, paper):
        grown = expansion_vertices(paper.graph, [paper["weight-v2"]], k=0)
        assert grown == {paper["weight-v2"]}


class TestCsrRules:
    """With a snapshot the rules gather CSR rows; the live walk is the
    reference, predicates included."""

    PREDICATES = [
        (None, None),
        (lambda record: record.vertex_type is not VertexType.AGENT, None),
        (lambda record: record.vertex_id % 3 != 0, None),
        (None, lambda record: record.edge_id % 4 != 0),
        (lambda record: record.vertex_id % 5 != 0,
         lambda record: record.edge_id % 3 != 0),
    ]

    @pytest.mark.parametrize("seed", range(3))
    def test_rules_match_the_live_walk(self, seed):
        rng = random.Random(seed)
        pd = generate_pd_sized(200, seed=seed)
        graph = pd.graph
        snapshot = GraphSnapshot(graph)
        for vertex_ok, edge_ok in self.PREDICATES:
            src = rng.sample(pd.entities[:60], 3)
            dst = rng.sample(pd.entities[-60:], 2)
            core = direct_path_vertices(graph, src, dst) | {*src, *dst}
            rules = {
                "VC1": lambda snap: direct_path_vertices(
                    graph, src, dst, vertex_ok=vertex_ok, edge_ok=edge_ok,
                    snapshot=snap),
                "VC3": lambda snap: sibling_entities(
                    graph, core, vertex_ok, edge_ok, snapshot=snap),
                "VC4": lambda snap: involved_agents(
                    graph, core, vertex_ok, edge_ok, snapshot=snap),
                "Bx": lambda snap: expansion_vertices(
                    graph, dst, 2, vertex_ok, edge_ok, snapshot=snap),
            }
            for name, rule in rules.items():
                assert rule(snapshot) == rule(None), name

    def test_agents_of_an_excluded_vertex(self, paper):
        """Only the agent end of an S / A edge is tested."""
        target = paper["train-v2"]
        snapshot = GraphSnapshot(paper.graph)
        for snap in (None, snapshot):
            assert involved_agents(
                paper.graph, {target},
                vertex_ok=lambda record: record.vertex_id != target,
                snapshot=snap) == set(paper.graph.agents_of(target))

    def test_snapshot_reads_borrow_the_csr(self, pd_small):
        """A bare segment, a bounded one and a blame build none of the
        snapshot's list-of-lists views."""
        graph = pd_small.graph
        snapshot = GraphSnapshot(graph)
        src, dst = pd_small.default_query()
        operator = PgSegOperator(graph, snapshot=snapshot)
        operator.evaluate(PgSegQuery(src=tuple(src), dst=tuple(dst)))
        bounded = BoundaryCriteria().exclude_vertices(
            property_not_equals("name", graph.vertex(src[0]).get("name")),
        ).exclude_edges(exclude_edge_types(EdgeType.WAS_DERIVED_FROM),
                        ).expand(dst, k=1)
        operator.evaluate(PgSegQuery(src=tuple(src), dst=tuple(dst),
                                     boundaries=bounded))
        # The lineage walk still reads the list views; blame is given
        # its closure from the live store.
        blame(graph, dst[0], snapshot=snapshot,
              ancestry=lineage(graph, dst[0]))
        assert not snapshot._out_lists and not snapshot._in_lists
        assert not snapshot._out_edge_lists and not snapshot._in_edge_lists
