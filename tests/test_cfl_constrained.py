"""Property-constrained SimProv (Sec. III.A.2 generalization) vs an oracle.

The constrained grammar requires matched positions on the climb and descent
to agree on a property (e.g. the same ``command``). SimProvAlg implements it
via pair key checks; the oracle here enumerates bounded palindrome paths
explicitly and checks the key constraint position by position.
"""

import random

import pytest

from repro.cfl.simprov_alg import SimProvAlg
from repro.model.graph import ProvenanceGraph
from repro.store.snapshot import GraphSnapshot


def constrained_oracle(graph, src_ids, dst_ids, activity_key,
                       max_depth=3):
    """All (vi, vt) with a key-constrained palindrome path, by brute force.

    Enumerates climbs level by level (sequences of (activity, entity) hops)
    and mirrors them against descents, requiring the activity keys to match
    at equal depth.
    """
    answers = set()
    dst_set = set(dst_ids)

    def climbs(entity, depth):
        """All climb traces [(a1, e1), ...] of exactly ``depth`` levels,
        walking inverse edges (users, then their generated entities)."""
        if depth == 0:
            yield []
            return
        for activity in graph.using_activities(entity):
            for generated in graph.generated_entities(activity):
                for rest in climbs(generated, depth - 1):
                    yield [(activity, generated)] + rest

    def descents(entity, depth):
        """All descent traces of exactly ``depth`` levels (generators, then
        their used entities)."""
        if depth == 0:
            yield []
            return
        for activity in graph.generating_activities(entity):
            for used in graph.used_entities(activity):
                for rest in descents(used, depth - 1):
                    yield [(activity, used)] + rest

    for vi in src_ids:
        for depth in range(1, max_depth + 1):
            for climb in climbs(vi, depth):
                vj = climb[-1][1]
                if vj not in dst_set:
                    continue
                for descent in descents(vj, depth):
                    ok = True
                    for (up_a, _), (down_a, _) in zip(reversed(climb),
                                                      descent):
                        if activity_key(up_a) != activity_key(down_a):
                            ok = False
                            break
                    if ok:
                        vt = descent[-1][1]
                        answers.add((min(vi, vt), max(vi, vt)))
    return answers


@pytest.fixture()
def branching_graph():
    """Two activities with the same command and one with a different one,
    all using the root — so constrained similarity distinguishes them."""
    g = ProvenanceGraph()
    root = g.add_entity(name="root")
    twin_a = g.add_activity(command="train")
    twin_b = g.add_activity(command="train")
    other = g.add_activity(command="plot")
    for activity in (twin_a, twin_b, other):
        g.used(activity, root)
    out_a = g.add_entity(name="out_a")
    out_b = g.add_entity(name="out_b")
    out_c = g.add_entity(name="out_c")
    g.was_generated_by(out_a, twin_a)
    g.was_generated_by(out_b, twin_b)
    g.was_generated_by(out_c, other)
    top = g.add_activity(command="merge")
    for entity in (out_a, out_b, out_c):
        g.used(top, entity)
    final = g.add_entity(name="final")
    g.was_generated_by(final, top)
    return g, root, final


def solve_on_both_feeds(graph, src, dst, **options):
    """The solve on the live graph, checked equal to the snapshot feed's."""
    live = SimProvAlg(graph, src, dst, **options).solve()
    frozen = SimProvAlg(graph, src, dst, snapshot=GraphSnapshot(graph),
                        **options).solve()
    assert (live.answer_pairs, live.path_vertices) \
        == (frozen.answer_pairs, frozen.path_vertices)
    return live


class TestConstrainedVsOracle:
    def test_branching_fixture(self, branching_graph):
        g, root, final = branching_graph

        def command_of(activity):
            return g.vertex(activity).get("command")

        result = solve_on_both_feeds(g, [root], [final],
                                     activity_key=command_of)
        oracle = constrained_oracle(g, [root], [final], command_of)
        assert result.answer_pairs == oracle

    def test_paper_example(self, paper):
        g = paper.graph

        def command_of(activity):
            return g.vertex(activity).get("command")

        result = solve_on_both_feeds(
            g, [paper["dataset-v1"]], [paper["weight-v2"]],
            activity_key=command_of)
        oracle = constrained_oracle(
            g, [paper["dataset-v1"]], [paper["weight-v2"]], command_of
        )
        assert result.answer_pairs == oracle

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_graphs(self, seed):
        from tests.test_cfl_agreement import random_prov_graph

        graph = random_prov_graph(seed, n_activities=6)
        rng = random.Random(seed)
        # Assign commands from a tiny pool so collisions (matches) happen.
        for activity in graph.activities():
            graph.store.set_vertex_property(
                activity, "command", rng.choice(("a", "b"))
            )
        entities = list(graph.entities())
        src, dst = entities[:2], entities[-2:]

        def command_of(activity):
            return graph.vertex(activity).get("command")

        result = solve_on_both_feeds(graph, src, dst,
                                     activity_key=command_of)
        oracle = constrained_oracle(graph, src, dst, command_of, max_depth=4)
        assert result.answer_pairs == oracle

    def test_constraint_is_strictly_tighter(self, branching_graph):
        g, root, final = branching_graph

        def command_of(activity):
            return g.vertex(activity).get("command")

        free = solve_on_both_feeds(g, [root], [final])
        tight = solve_on_both_feeds(g, [root], [final],
                                    activity_key=command_of)
        assert tight.answer_pairs <= free.answer_pairs
        assert tight.path_vertices <= free.path_vertices
