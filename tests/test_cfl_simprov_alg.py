"""Unit tests for SimProvAlg."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cfl.simprov_alg import SimProvAlg
from repro.errors import QueryTimeout, SegmentationError, SolverError
from repro.workloads.pd_generator import PdParams, generate_pd


class TestPaperQueries:
    def test_q1_similar_entities(self, paper):
        result = SimProvAlg(
            paper.graph, [paper["dataset-v1"]], [paper["weight-v2"]]
        ).solve()
        assert result.has_answers
        assert result.sources_matched == {paper["dataset-v1"]}
        assert result.similar_entities == {
            paper["dataset-v1"], paper["model-v2"], paper["solver-v1"]
        }

    def test_q1_path_vertices(self, paper):
        result = SimProvAlg(
            paper.graph, [paper["dataset-v1"]], [paper["weight-v2"]]
        ).solve()
        assert result.path_vertices == {
            paper["dataset-v1"], paper["train-v2"], paper["weight-v2"],
            paper["model-v2"], paper["solver-v1"],
        }

    def test_q2(self, paper):
        result = SimProvAlg(
            paper.graph, [paper["dataset-v1"]], [paper["log-v3"]]
        ).solve()
        assert result.similar_entities == {
            paper["dataset-v1"], paper["model-v1"], paper["solver-v3"]
        }

    def test_no_connection(self, paper):
        # weight-v1 is not an ancestor of weight-v2's similar paths... use an
        # unrelated pair: weight-v3 (dst) with weight-v2 (src): weight-v2 is
        # not an ancestor of weight-v3, so no climb exists.
        result = SimProvAlg(
            paper.graph, [paper["weight-v2"]], [paper["weight-v3"]]
        ).solve()
        assert not result.has_answers
        assert result.path_vertices == set()

    def test_src_equals_dst(self, paper):
        # Vsrc = Vdst is allowed (Sec. III.A.1); answers exist when some
        # member is an ancestor of another (dataset-v1 of weight-v2 here).
        query_set = [paper["dataset-v1"], paper["weight-v2"]]
        result = SimProvAlg(paper.graph, query_set, query_set).solve()
        assert result.has_answers
        assert paper["model-v2"] in result.similar_entities

    def test_src_equals_dst_singleton_has_no_answers(self, paper):
        # A single entity is never its own ancestor in a DAG, so the
        # palindrome language is unrealizable.
        result = SimProvAlg(
            paper.graph, [paper["dataset-v1"]], [paper["dataset-v1"]]
        ).solve()
        assert not result.has_answers


class TestValidation:
    def test_empty_src_rejected(self, paper):
        with pytest.raises(SegmentationError):
            SimProvAlg(paper.graph, [], [paper["weight-v2"]])

    def test_non_entity_rejected(self, paper):
        with pytest.raises(SegmentationError):
            SimProvAlg(paper.graph, [paper["train-v1"]], [paper["weight-v2"]])

    def test_bad_set_impl_rejected(self, paper):
        with pytest.raises(SolverError):
            SimProvAlg(paper.graph, [paper["dataset-v1"]],
                       [paper["weight-v2"]], set_impl="cuckoo")


class TestVariants:
    @pytest.mark.parametrize("impl", ["set", "bitset", "roaring"])
    def test_set_impls_agree(self, paper, impl):
        base = SimProvAlg(
            paper.graph, [paper["dataset-v1"]], [paper["weight-v2"]]
        ).solve()
        other = SimProvAlg(
            paper.graph, [paper["dataset-v1"]], [paper["weight-v2"]],
            set_impl=impl,
        ).solve()
        assert base.answer_pairs == other.answer_pairs
        assert base.path_vertices == other.path_vertices

    def test_prune_does_not_change_answers(self, pd_small):
        src, dst = pd_small.default_query()
        pruned = SimProvAlg(pd_small.graph, src, dst, prune=True).solve()
        full = SimProvAlg(pd_small.graph, src, dst, prune=False).solve()
        assert pruned.answer_pairs == full.answer_pairs
        assert pruned.path_vertices == full.path_vertices

    def test_prune_reduces_facts_for_late_sources(self, pd_medium):
        src, dst = pd_medium.query_at_percentile(80)
        pruned = SimProvAlg(pd_medium.graph, src, dst, prune=True).solve()
        full = SimProvAlg(pd_medium.graph, src, dst, prune=False).solve()
        total_pruned = pruned.stats.facts_entity + pruned.stats.facts_activity
        total_full = full.stats.facts_entity + full.stats.facts_activity
        assert total_pruned <= total_full
        assert pruned.stats.pruned > 0

    def test_vertex_collection_can_be_disabled(self, paper):
        result = SimProvAlg(
            paper.graph, [paper["dataset-v1"]], [paper["weight-v2"]]
        ).solve(collect_vertices=False)
        assert result.path_vertices == set()
        assert result.has_answers


class TestPropertyConstrainedSimilarity:
    """The Sec. III.A.2 generalization: matched activities must agree on a
    property (e.g. same command)."""

    def test_command_constraint_filters(self, paper):
        graph = paper.graph

        def command_of(activity_id: int):
            return graph.vertex(activity_id).get("command")

        # Unconstrained Q1 pairs dataset-v1 with model-v2 via train-v2
        # (same activity on both sides, trivially same command).
        constrained = SimProvAlg(
            graph, [paper["dataset-v1"]], [paper["weight-v2"]],
            activity_key=command_of,
        ).solve()
        assert constrained.similar_entities == {
            paper["dataset-v1"], paper["model-v2"], paper["solver-v1"]
        }

    def test_impossible_constraint_removes_answers(self, paper):
        graph = paper.graph
        # A key that differs for every activity: no pair matches except the
        # diagonal; answers still exist (climb/descend through the same
        # activities), so use a key that even breaks the diagonal? The key
        # function applies per vertex, so the diagonal always matches.
        # Instead check that distinct-activity pairs are dropped.
        result = SimProvAlg(
            graph, [paper["dataset-v1"]], [paper["weight-v2"]],
            activity_key=lambda a: a,         # identity: only diagonal pairs
        ).solve()
        # Only paths climbing and descending through the *same* activities
        # survive; those still connect dataset to model-v2/solver-v1 via
        # train-v2 itself.
        assert result.similar_entities == {
            paper["dataset-v1"], paper["model-v2"], paper["solver-v1"]
        }

    def test_entity_key_constraint(self, paper):
        graph = paper.graph
        # Require matched entities to share a name: dataset pairs only with
        # entities named 'dataset' at the E-level... the answer level pairs
        # (dataset, X) are produced by the U-level rule, and the entity key
        # applies there, so X must also be named 'dataset'.
        result = SimProvAlg(
            graph, [paper["dataset-v1"]], [paper["weight-v2"]],
            entity_key=lambda e: graph.vertex(e).get("name"),
        ).solve()
        assert result.similar_entities == {paper["dataset-v1"]}


class TestBudget:
    def test_step_budget(self, pd_small):
        src, dst = pd_small.default_query()
        with pytest.raises(QueryTimeout):
            SimProvAlg(pd_small.graph, src, dst, max_steps=2).solve()


def _depth_class_pairs(graph, dst) -> int:
    """|∪ D_{v,d} × D_{v,d}| as unordered pairs (the diagonal included),
    where D_{v,d} is the set of entities d G-then-U steps above v."""
    pairs: set[tuple[int, int]] = set()
    for v in dst:
        level = {v}
        while level:
            ordered = sorted(level)
            pairs.update((x, y) for i, x in enumerate(ordered)
                         for y in ordered[i:])
            level = {e for x in level
                     for a in graph.generating_activities(x)
                     for e in graph.used_entities(a)}
    return len(pairs)


class TestFactsAreDepthClasses:
    """Without keys or pruning, Alg's ``Ee`` table is exactly the pairs of
    entities at one descent depth from one destination (Sec. III.B.2(c)):
    its Θ(cone²) facts are the relation itself, not search waste."""

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 5000), n=st.integers(40, 160))
    def test_facts_entity_counts_the_depth_classes(self, seed, n):
        instance = generate_pd(PdParams(n_vertices=n, seed=seed))
        src, dst = instance.default_query()
        result = SimProvAlg(instance.graph, src, dst, prune=False).solve()
        assert result.stats.facts_entity \
            == _depth_class_pairs(instance.graph, dst)
