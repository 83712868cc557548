"""Unit and property tests for the PgSum operator."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import SummarizationError
from repro.model.graph import ProvenanceGraph
from repro.segment.pgseg import Segment
from repro.summarize.aggregation import TYPE_ONLY
from repro.summarize.pgsum import PgSumOperator, PgSumQuery, pgsum
from repro.summarize.provtype import compute_vertex_classes
from repro.summarize.psg import check_psg_invariant
from repro.workloads.sd_generator import SD_AGGREGATION, SdParams, generate_sd


def identical_segments(count: int) -> list[Segment]:
    segments = []
    for _ in range(count):
        g = ProvenanceGraph()
        e_in = g.add_entity()
        a = g.add_activity(type="t0")
        g.used(a, e_in)
        e_out = g.add_entity()
        g.was_generated_by(e_out, a)
        segments.append(Segment(g, g.store.vertex_ids()))
    return segments


class TestBasics:
    def test_empty_segments_rejected(self):
        with pytest.raises(SummarizationError):
            PgSumOperator([])

    def test_identical_segments_collapse_fully(self):
        segments = identical_segments(4)
        psg = pgsum(segments, TYPE_ONLY, k=0)
        assert psg.node_count == 3        # e_in, a, e_out... entities split?
        # e_in and e_out have the same label (E) but different structure:
        # e_out has a child (a), e_in has a parent; they are not mutually
        # similar nor dominated in both directions, so 3 groups.
        assert set(psg.edges.values()) == {1.0}

    def test_single_segment_is_summarizable(self):
        segments = identical_segments(1)
        psg = pgsum(segments, TYPE_ONLY, k=0)
        assert psg.segment_count == 1
        assert 0 < psg.compaction_ratio <= 1.0

    def test_cr_definition(self):
        segments = identical_segments(3)
        psg = pgsum(segments, TYPE_ONLY, k=0)
        assert psg.compaction_ratio == psg.node_count / 9

    def test_stats(self):
        segments = identical_segments(2)
        operator = PgSumOperator(segments)
        operator.evaluate(PgSumQuery())
        assert operator.stats.rounds >= 1
        assert operator.stats.merges > 0
        assert operator.stats.seconds > 0

    def test_stats_describe_one_evaluate(self):
        """Counters restart with every call instead of accumulating."""
        operator = PgSumOperator(identical_segments(3))
        operator.evaluate(PgSumQuery())
        first = operator.stats
        assert first.merges == 6
        operator.evaluate(PgSumQuery())
        assert operator.stats.merges == first.merges
        assert operator.stats.rounds == first.rounds
        assert operator.stats.sim_solves == first.sim_solves
        assert operator.stats is not first       # the earlier report survives


class TestInvariantOnSd:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_no_new_paths_and_none_lost(self, seed):
        instance = generate_sd(SdParams(
            k=3, n_activities=6, num_segments=3, seed=seed,
        ))
        psg = pgsum(instance.segments, SD_AGGREGATION, k=0)
        classes = compute_vertex_classes(instance.segments, SD_AGGREGATION, 0)
        extra, missing = check_psg_invariant(
            psg, instance.segments, classes, max_edges=8
        )
        assert not extra, sorted(extra)[:3]
        assert not missing, sorted(missing)[:3]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_result_is_dag(self, seed):
        instance = generate_sd(SdParams(
            k=4, n_activities=8, num_segments=4, seed=seed,
        ))
        psg = pgsum(instance.segments, SD_AGGREGATION, k=0)
        assert psg.is_dag()

    def test_compaction_improves_over_g0(self):
        instance = generate_sd(SdParams(seed=5))
        psg = pgsum(instance.segments, SD_AGGREGATION, k=0)
        assert psg.compaction_ratio < 1.0

    def test_k1_is_no_more_compact_than_k0(self):
        instance = generate_sd(SdParams(k=3, n_activities=8,
                                        num_segments=4, seed=9))
        cr0 = pgsum(instance.segments, SD_AGGREGATION, k=0).compaction_ratio
        cr1 = pgsum(instance.segments, SD_AGGREGATION, k=1,
                    verify_isomorphism=False).compaction_ratio
        assert cr1 >= cr0


class TestInvariantPropertyBased:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        k_types=st.integers(1, 4),
        n_activities=st.integers(2, 7),
        num_segments=st.integers(2, 4),
        alpha=st.sampled_from([0.05, 0.25, 1.0]),
    )
    def test_random_sd_instances(self, seed, k_types, n_activities,
                                 num_segments, alpha):
        instance = generate_sd(SdParams(
            k=k_types, n_activities=n_activities,
            num_segments=num_segments, alpha=alpha, seed=seed,
        ))
        psg = pgsum(instance.segments, SD_AGGREGATION, k=0)
        classes = compute_vertex_classes(instance.segments, SD_AGGREGATION, 0)
        extra, missing = check_psg_invariant(
            psg, instance.segments, classes, max_edges=6
        )
        assert not extra
        assert not missing
        assert psg.is_dag()

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_groups_respect_equivalence_classes(self, seed):
        instance = generate_sd(SdParams(
            k=3, n_activities=5, num_segments=3, seed=seed,
        ))
        psg = pgsum(instance.segments, SD_AGGREGATION, k=0)
        classes = compute_vertex_classes(instance.segments, SD_AGGREGATION, 0)
        for node in psg.nodes:
            assert len({classes.class_of[m] for m in node.members}) == 1


class TestMaxRounds:
    def test_zero_rounds_returns_g0(self):
        segments = identical_segments(3)
        psg = pgsum(segments, TYPE_ONLY, k=0, max_rounds=0)
        assert psg.compaction_ratio == 1.0

    def test_more_rounds_never_worse(self):
        instance = generate_sd(SdParams(seed=3))
        cr1 = pgsum(instance.segments, SD_AGGREGATION, k=0,
                    max_rounds=1).compaction_ratio
        cr_all = pgsum(instance.segments, SD_AGGREGATION,
                       k=0).compaction_ratio
        assert cr_all <= cr1
