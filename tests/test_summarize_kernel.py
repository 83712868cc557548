"""Differential tests for the PgSum kernels (simulation, ``≡kκ``, operator).

The kernels in ``src/repro/summarize/`` are checked against the definitional
implementations in ``tests/summarize_oracle.py``: equal bitmasks, equal
partitions, equal final Psg partitions — and against Psg shapes pinned on
the performance ledger's own inputs.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.model.graph import ProvenanceGraph
from repro.segment.pgseg import Segment
from repro.summarize.aggregation import TYPE_ONLY, PropertyAggregation
from repro.summarize.pgsum import PgSumOperator, PgSumQuery
from repro.summarize.provtype import compute_vertex_classes
from repro.summarize.simulation import simulation_preorder, solve_preorder
from repro.workloads.sd_generator import SD_AGGREGATION, SdParams, generate_sd
from tests.summarize_oracle import (
    as_partition,
    oracle_pgsum_partition,
    oracle_simulation_preorder,
    oracle_vertex_classes,
)

RELAXED = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


@st.composite
def labelled_digraphs(draw):
    """Random labelled digraphs: cyclic or not, parallel and multi-label
    edges, self-loops, isolated nodes."""
    n = draw(st.integers(1, 12))
    labels = [draw(st.sampled_from("xyz")) for _ in range(n)]
    acyclic = draw(st.booleans())
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                      st.sampled_from("ab"))
    edges = draw(st.lists(pairs, max_size=3 * n))
    if acyclic:
        edges = [(min(s, d), max(s, d), label)
                 for s, d, label in edges if s != d]
    return labels, edges


class TestSimulationAgainstDefinition:
    @settings(max_examples=200, **RELAXED)
    @given(graph=labelled_digraphs(), direction=st.sampled_from(["in", "out"]))
    def test_bitmasks_equal(self, graph, direction):
        labels, edges = graph
        assert simulation_preorder(labels, edges, direction) \
            == oracle_simulation_preorder(labels, edges, direction)

    @settings(max_examples=60, **RELAXED)
    @given(graph=labelled_digraphs(), direction=st.sampled_from(["in", "out"]))
    def test_contracted_form_is_consistent(self, graph, direction):
        labels, edges = graph
        preorder = solve_preorder(labels, edges, direction)
        lifted = preorder.lift()
        # Blocks partition the nodes and sit inside mutual classes.
        assert sorted(n for nodes in preorder.members for n in nodes) \
            == list(range(len(labels)))
        for nodes in preorder.members:
            for u in nodes:
                for v in nodes:
                    assert lifted[u] >> v & 1
        # classes() is mutual similarity of the lifted relation.
        expected = as_partition(
            [v for v in range(len(labels))
             if lifted[u] >> v & 1 and lifted[v] >> u & 1]
            for u in range(len(labels)))
        assert as_partition(preorder.classes()) == expected

    @settings(max_examples=60, **RELAXED)
    @given(graph=labelled_digraphs(), direction=st.sampled_from(["in", "out"]))
    def test_merged_preorder_needs_no_second_solve(self, graph, direction):
        """Merging the mutual classes leaves the same preorder on them."""
        labels, edges = graph
        preorder = solve_preorder(labels, edges, direction)
        classes = preorder.classes()
        class_of = {node: j for j, cls in enumerate(classes) for node in cls}
        merged_labels = [labels[cls[0]] for cls in classes]
        merged_edges = [(class_of[s], class_of[d], label)
                        for s, d, label in edges]
        assert preorder.merged().lift() == oracle_simulation_preorder(
            merged_labels, merged_edges, direction)

    def test_acyclic_input_takes_one_sweep(self):
        rng = random.Random(5)
        n = 60
        labels = [rng.choice("xy") for _ in range(n)]
        # Every edge runs from a higher to a lower index, so for "in" index
        # order examines each node before the parents it must match — one
        # sweep per level. Post-order settles either direction in one.
        edges = [(rng.randrange(i + 1, n), i, rng.choice("ab"))
                 for i in range(n - 1) for _ in range(2)]
        for direction in ("in", "out"):
            assert solve_preorder(labels, edges, direction).sweeps == 1

    def test_chain_longer_than_the_recursion_limit(self):
        n = 3000
        edges = [(i, i + 1, "e") for i in range(n - 1)]
        preorder = solve_preorder(["x"] * n, edges, "out")
        assert len(preorder.members) == n       # every depth is its own block
        assert preorder.sim[0] == 1             # the head dominates, only
        assert preorder.sim[n - 1] == (1 << n) - 1


# ---------------------------------------------------------------------------
# ≡kκ classes
# ---------------------------------------------------------------------------


def random_typed_graph(seed: int, size: int) -> ProvenanceGraph:
    """A random PROV graph using all five edge types and few property values
    (so neighbourhoods collide often)."""
    rng = random.Random(seed)
    g = ProvenanceGraph()
    entities = [g.add_entity(name=rng.choice("pq")) for _ in range(2)]
    agents = [g.add_agent() for _ in range(2)]
    for _ in range(size):
        activity = g.add_activity(command=rng.choice(["fit", "plot"]))
        for entity in rng.sample(entities, k=min(len(entities),
                                                 1 + rng.randrange(3))):
            g.used(activity, entity)
            if rng.random() < 0.2:
                g.used(activity, entity)            # parallel edge
        if rng.random() < 0.6:
            g.was_associated_with(activity, rng.choice(agents))
        for _ in range(1 + rng.randrange(2)):
            entity = g.add_entity(name=rng.choice("pq"))
            g.was_generated_by(entity, activity)
            if rng.random() < 0.4:
                g.was_derived_from(entity, rng.choice(entities))
            if rng.random() < 0.3:
                g.was_attributed_to(entity, rng.choice(agents))
            entities.append(entity)
    return g


def random_segments(seed: int, size: int, count: int) -> list[Segment]:
    """``count`` segments: random vertex subsets of random typed graphs."""
    rng = random.Random(seed)
    segments = []
    for index in range(count):
        g = random_typed_graph(seed * 31 + index, size)
        vertices = [v for v in g.store.vertex_ids() if rng.random() < 0.8]
        segments.append(Segment(g, vertices or g.store.vertex_ids()))
    return segments


CLASS_AGGREGATIONS = [
    TYPE_ONLY,
    PropertyAggregation.of(entity=("name",), activity=("command",)),
]


class TestClassesAgainstNetworkx:
    @settings(max_examples=40, **RELAXED)
    @given(seed=st.integers(0, 10_000), size=st.integers(1, 7),
           count=st.integers(1, 3), k=st.sampled_from([0, 1, 2]),
           direction=st.sampled_from(["both", "out"]),
           verify=st.booleans(), aggregation=st.sampled_from(CLASS_AGGREGATIONS))
    def test_random_typed_graphs(self, seed, size, count, k, direction,
                                 verify, aggregation):
        segments = random_segments(seed, size, count)
        classes = compute_vertex_classes(segments, aggregation, k,
                                         verify_isomorphism=verify,
                                         direction=direction)
        assert as_partition(classes.members) == oracle_vertex_classes(
            segments, aggregation, k, verify, direction)
        assert len(classes.class_labels) == len(set(classes.class_labels))

    @settings(max_examples=12, **RELAXED)
    @given(seed=st.integers(0, 10_000), n_activities=st.integers(2, 6),
           k=st.sampled_from([0, 1, 2]),
           direction=st.sampled_from(["both", "out"]), verify=st.booleans())
    def test_sd_instances(self, seed, n_activities, k, direction, verify):
        segments = generate_sd(SdParams(
            k=3, n_activities=n_activities, num_segments=3, alpha=0.25,
            seed=seed)).segments
        classes = compute_vertex_classes(segments, SD_AGGREGATION, k,
                                         verify_isomorphism=verify,
                                         direction=direction)
        assert as_partition(classes.members) == oracle_vertex_classes(
            segments, SD_AGGREGATION, k, verify, direction)

    def test_class_indices_follow_first_appearance(self):
        """Class numbering is part of the Psg (``class_index`` is on the
        wire): buckets in first-appearance order, members in union order."""
        segments = generate_sd(SdParams(k=3, n_activities=5, num_segments=3,
                                        seed=4)).segments
        for k in (0, 1):
            classes = compute_vertex_classes(segments, SD_AGGREGATION, k)
            firsts = [members[0] for members in classes.members]
            assert firsts == sorted(firsts)
            for members in classes.members:
                assert members == sorted(members)


def ring_centre(ring_sizes: list[int]) -> tuple[Segment, int]:
    """A centre entity derived from entities that are themselves joined, by
    alternately oriented wasDerivedFrom edges, into rings of the given
    (even) sizes."""
    g = ProvenanceGraph()
    centre = g.add_entity()
    for size in ring_sizes:
        ring = [g.add_entity() for _ in range(size)]
        for entity in ring:
            g.was_derived_from(centre, entity)
        for index in range(0, size, 2):             # even ones are sources
            g.was_derived_from(ring[index], ring[index - 1])
            g.was_derived_from(ring[index], ring[index + 1])
    return Segment(g, g.store.vertex_ids()), centre


class TestCertificateCollision:
    def test_one_8_ring_vs_two_4_rings(self):
        """Colour refinement sees eight identical neighbours either way (each
        ring vertex: two out- or two in-edges to the other kind); only the
        exact matcher tells one ring from two."""
        one, centre_one = ring_centre([8])
        two, centre_two = ring_centre([4, 4])
        segments = [one, two]
        trusted = compute_vertex_classes(segments, TYPE_ONLY, 1,
                                         verify_isomorphism=False)
        assert trusted.class_of[(0, centre_one)] \
            == trusted.class_of[(1, centre_two)]
        assert trusted.iso_checks == 0

        verified = compute_vertex_classes(segments, TYPE_ONLY, 1)
        assert verified.class_of[(0, centre_one)] \
            != verified.class_of[(1, centre_two)]
        assert verified.iso_checks > 0
        assert as_partition(verified.members) == oracle_vertex_classes(
            segments, TYPE_ONLY, 1)

    def test_certificate_refines_k_plus_one_rounds(self):
        """With the matcher off the certificate *is* the partition, so its
        depth is part of the contract: these two 1-hop neighbourhoods have
        equal colour multisets after one refinement round and different ones
        after two."""
        segments, centres = [], []
        for derivations in ([(0, 1), (0, 2), (1, 3), (3, 4)],
                            [(0, 1), (0, 2), (1, 3), (2, 4)]):
            g = ProvenanceGraph()
            centre = g.add_entity()
            ring = [g.add_entity() for _ in range(5)]
            for entity in ring:
                g.was_derived_from(centre, entity)
            for derived, source in derivations:
                g.was_derived_from(ring[derived], ring[source])
            segments.append(Segment(g, g.store.vertex_ids()))
            centres.append(centre)
        trusted = compute_vertex_classes(segments, TYPE_ONLY, 1,
                                         verify_isomorphism=False)
        assert trusted.class_of[(0, centres[0])] \
            != trusted.class_of[(1, centres[1])]
        assert as_partition(trusted.members) == oracle_vertex_classes(
            segments, TYPE_ONLY, 1, verify_isomorphism=False)

    def test_same_rings_still_merge(self):
        left, centre_left = ring_centre([4, 4])
        right, centre_right = ring_centre([4, 4])
        classes = compute_vertex_classes([left, right], TYPE_ONLY, 1)
        assert classes.class_of[(0, centre_left)] \
            == classes.class_of[(1, centre_right)]


# ---------------------------------------------------------------------------
# The operator
# ---------------------------------------------------------------------------


#: (seed, k) -> (Psg nodes, Psg edges, input vertices) on the ledger's
#: ``paper_ops`` inputs, measured before the kernels were rewritten.
LEDGER_SHAPES = {
    (7, 0): (128, 271, 341), (7, 1): (228, 409, 341),
    (8, 0): (153, 291, 399), (8, 1): (234, 391, 399),
    (9, 0): (52, 153, 383), (9, 1): (211, 394, 383),
    (10, 0): (135, 282, 357), (10, 1): (230, 425, 357),
}


class TestLedgerInputs:
    @pytest.fixture(scope="class")
    def sd_sets(self):
        return {seed: generate_sd(SdParams(
            alpha=0.25, seed=seed, num_segments=6, n_activities=15)).segments
            for seed in (7, 8, 9, 10)}

    @pytest.mark.parametrize("seed,k", sorted(LEDGER_SHAPES))
    def test_pinned_shape_and_work(self, sd_sets, seed, k):
        operator = PgSumOperator(sd_sets[seed])
        psg = operator.evaluate(PgSumQuery(aggregation=SD_AGGREGATION, k=k))
        assert (psg.node_count, len(psg.edges), psg.source_vertex_total) \
            == LEDGER_SHAPES[seed, k]
        stats = operator.stats
        assert stats.rounds == 3
        # in-merge, out-merge, confirming round: the preorder a merge leaves
        # behind is carried, so three solves instead of six — each a single
        # sweep (segments are DAGs), the first on a contracted quotient.
        assert stats.sim_solves == 3
        assert stats.sim_sweeps == stats.sim_solves
        assert stats.sim_nodes < stats.sim_solves * psg.source_vertex_total
        assert (stats.iso_checks > 0) == (k == 1)


class TestOperatorAgainstSchedule:
    @settings(max_examples=25, **RELAXED)
    @given(seed=st.integers(0, 10_000), k_types=st.integers(1, 4),
           n_activities=st.integers(2, 6), num_segments=st.integers(2, 4),
           alpha=st.sampled_from([0.05, 0.25, 1.0]),
           k=st.sampled_from([0, 1]))
    def test_final_partition_equals_recomputing_schedule(
            self, seed, k_types, n_activities, num_segments, alpha, k):
        segments = generate_sd(SdParams(
            k=k_types, n_activities=n_activities, num_segments=num_segments,
            alpha=alpha, seed=seed)).segments
        operator = PgSumOperator(segments)
        psg = operator.evaluate(PgSumQuery(aggregation=SD_AGGREGATION, k=k))
        classes = compute_vertex_classes(segments, SD_AGGREGATION, k)
        expected, rounds = oracle_pgsum_partition(segments, classes)
        assert as_partition(node.members for node in psg.nodes) == expected
        assert operator.stats.rounds == rounds

    @settings(max_examples=10, **RELAXED)
    @given(seed=st.integers(0, 10_000), max_rounds=st.integers(0, 3))
    def test_round_cap_cuts_the_same_schedule(self, seed, max_rounds):
        segments = random_segments(seed, 5, 3)
        psg = PgSumOperator(segments).evaluate(
            PgSumQuery(max_rounds=max_rounds))
        classes = compute_vertex_classes(segments, TYPE_ONLY, 0)
        expected, _ = oracle_pgsum_partition(segments, classes, max_rounds)
        assert as_partition(node.members for node in psg.nodes) == expected
