"""The SimProv array kernels vs the per-element loops and the naive oracle.

``set_impl="set"`` runs SimProvTst as per-vertex depth sets on monotone
ancestry and as numpy layer scatter/gathers elsewhere, and SimProvAlg's
worklist as level-synchronous pair arrays, all over the destinations'
ancestry cone; ``"bitset"`` keeps the per-element loops the kernels
replaced. On random small PROV graphs — creation order unrelated to
ancestry, ancestry cycles, dead ids, boundary filters — the two must
return the same sets *and* the same work counters, whichever way the kernel
is fed: from the live graph, from a fresh :class:`GraphSnapshot`, or from a
snapshot patched forward by ``advance`` across append and removal spans.
Early stop must never change an answer, whatever the graph's shape.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cfl import simprov_tst
from repro.cfl.adjacency import AncestryCone
from repro.cfl.grammar import simprov_normal_form
from repro.cfl.reference import naive_cflr
from repro.cfl.simprov_alg import SimProvAlg
from repro.cfl.simprov_tst import SimProvTst
from repro.errors import CycleError, QueryTimeout
from repro.model.graph import ProvenanceGraph
from repro.model.types import EdgeType, VertexType
from repro.segment.pgseg import CATEGORY_SIMILAR, PgSegOperator, PgSegQuery
from repro.store.snapshot import GraphSnapshot
from repro.store.store import PropertyGraphStore
from repro.workloads.pd_generator import generate_pd_sized


def outcome(result):
    stats = result.stats
    return (result.path_vertices, result.similar_entities,
            result.sources_matched, result.answer_pairs,
            (stats.facts_entity, stats.facts_activity,
             stats.worklist_pops, stats.pruned))


@st.composite
def scenarios(draw):
    """Three mutation phases (base, appends, removals) plus one query."""
    index = st.integers(0, 50)
    step = st.tuples(st.just("step"), st.lists(index, min_size=1, max_size=3),
                     st.integers(1, 2), st.booleans())
    edge = st.tuples(st.sampled_from(["G", "U"]), index, index)
    vertex = st.tuples(st.sampled_from(["entity", "activity"]))
    base = [("entity",), ("entity",)]
    base += draw(st.lists(step, min_size=2, max_size=7))
    base += draw(st.lists(edge, max_size=8))
    appends = draw(st.lists(st.one_of(step, edge, vertex), max_size=5))
    removals = draw(st.lists(
        st.tuples(st.sampled_from(["vertex", "edge"]), index), max_size=3))
    shape = draw(st.sampled_from(["acyclic", "cyclic", "ill-typed"]))
    return {
        "phases": (base, appends, removals),
        "shape": shape,
        # Vsrc from anywhere, Vdst from the new end (they may overlap).
        "src": draw(st.lists(index, min_size=1, max_size=3)),
        "dst": draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)),
        "prune": draw(st.booleans()),
        "max_layers": draw(st.one_of(st.none(), st.integers(1, 4))),
        "drop_vertices": draw(st.lists(index, max_size=2)),
        "drop_edges": draw(st.lists(index, max_size=2)),
    }


def new_graph(shape):
    if shape == "ill-typed":
        return ProvenanceGraph(PropertyGraphStore(check_signatures=False))
    return ProvenanceGraph(check_acyclic=shape == "acyclic")


def apply_phase(graph, ops, shape):
    """Pipeline steps build connected ancestry; loose G/U edges then tie
    arbitrary vertices together, so creation order and ancestry disagree
    (and, unless ``shape`` is acyclic, cycles close)."""
    store = graph.store
    for op in ops:
        entities = list(graph.entities())
        activities = list(graph.activities())
        if op[0] == "entity":
            graph.add_entity()
        elif op[0] == "activity":
            graph.add_activity()
        elif op[0] == "step":
            _, uses, n_outputs, outputs_first = op
            outputs = [graph.add_entity() for _ in range(n_outputs)] \
                if outputs_first else []        # older than their generator
            activity = graph.add_activity()
            for i in dict.fromkeys(uses):
                graph.used(activity, entities[i % len(entities)])
            outputs += [graph.add_entity()
                        for _ in range(n_outputs - len(outputs))]
            for entity in outputs:
                graph.was_generated_by(entity, activity)
        elif op[0] in ("G", "U"):
            edge_type = (EdgeType.WAS_GENERATED_BY if op[0] == "G"
                         else EdgeType.USED)
            if shape == "ill-typed":
                live = [r.vertex_id for r in store.vertices()]
                store.add_edge(edge_type, live[op[1] % len(live)],
                               live[op[2] % len(live)])
            elif activities:
                entity = entities[op[1] % len(entities)]
                activity = activities[op[2] % len(activities)]
                try:
                    if op[0] == "G":
                        graph.was_generated_by(entity, activity)
                    else:
                        graph.used(activity, entity)
                except CycleError:
                    pass
        elif op[0] == "vertex":
            live = [r.vertex_id for r in store.vertices()]
            if len(entities) > 1:
                store.remove_vertex(live[op[1] % len(live)])
        else:
            live = [r.edge_id for r in store.edges()]
            if live:
                store.remove_edge(live[op[1] % len(live)])


def check_after_every_phase(scenario, check):
    """Run ``check(graph, advanced snapshot, scenario)`` after each phase."""
    graph = new_graph(scenario["shape"])
    advanced = None
    for ops in scenario["phases"]:
        apply_phase(graph, ops, scenario["shape"])
        if advanced is None:
            advanced = GraphSnapshot(graph)
        elif advanced.epoch != graph.store.epoch:
            advanced = advanced.advance(graph)
            assert advanced.advanced_from is not None    # patched
        check(graph, advanced, scenario)


def query_of(graph, scenario):
    """``(src, dst, boundaries, dropped vertices)`` on the current graph;
    the boundaries are "none" and, when the scenario drops anything, the
    ``vertex_ok`` / ``edge_ok`` pair that does."""
    entities = list(graph.entities())
    src = [entities[i % len(entities)] for i in scenario["src"]]
    dst = [entities[-1 - i % len(entities)] for i in scenario["dst"]]
    live_v = [r.vertex_id for r in graph.store.vertices()]
    live_e = [r.edge_id for r in graph.store.edges()]
    drop_v = {live_v[i % len(live_v)] for i in scenario["drop_vertices"]}
    drop_e = {live_e[i % len(live_e)]
              for i in scenario["drop_edges"] if live_e}
    boundaries = [{}]
    if drop_v or drop_e:
        boundaries.append({
            "vertex_ok": (lambda r: r.vertex_id not in drop_v)
            if drop_v else None,
            "edge_ok": (lambda r: r.edge_id not in drop_e)
            if drop_e else None,
        })
    return src, dst, boundaries, drop_v


def oracle_answers(graph, src, dst, boundary, drop_v):
    """Answer pairs by the naive CFLR closure of the Fig. 6 normal form."""
    facts = naive_cflr(graph, simprov_normal_form(dst),
                       boundary.get("vertex_ok"), boundary.get("edge_ok"))
    allowed = set(src) - (drop_v if boundary else set())
    return {(min(u, v), max(u, v)) for u, v in facts["Re"]
            if u in allowed or v in allowed}


class TestKernelDifferential:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(scenario=scenarios())
    def test_kernel_matches_per_element_loop_on_every_feed(self, scenario):
        check_after_every_phase(scenario, self.check)

    def check(self, graph, advanced, scenario):
        src, dst, boundaries, drop_v = query_of(graph, scenario)
        for boundary in boundaries:
            options = dict(boundary, prune=scenario["prune"],
                           max_layers=scenario["max_layers"],
                           collect_pairs=True)
            expected = outcome(SimProvTst(
                graph, src, dst, set_impl="bitset", **options).solve())
            feeds = {"live": None, "fresh": GraphSnapshot(graph),
                     "advanced": advanced}
            for name, snapshot in feeds.items():
                got = outcome(SimProvTst(
                    graph, src, dst, snapshot=snapshot, **options).solve())
                assert got == expected, name
            if scenario["shape"] == "acyclic" and not scenario["prune"] \
                    and scenario["max_layers"] is None:
                assert expected[3] == oracle_answers(graph, src, dst,
                                                     boundary, drop_v)


@st.composite
def pair_scenarios(draw):
    """A scenario plus SimProvAlg's own knobs: similarity keys (vertex id
    modulo a small number, so classes collide) and a step budget."""
    scenario = draw(scenarios())
    modulus = st.one_of(st.none(), st.integers(1, 3))
    scenario.update(
        activity_mod=draw(modulus), entity_mod=draw(modulus),
        max_steps=draw(st.one_of(st.none(), st.integers(1, 40))))
    return scenario


class TestPairKernelDifferential:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(scenario=pair_scenarios())
    def test_pair_kernel_matches_worklist_on_every_feed(self, scenario):
        check_after_every_phase(scenario, self.check)

    @staticmethod
    def solve(graph, src, dst, **options):
        try:
            return outcome(SimProvAlg(graph, src, dst, **options).solve())
        except QueryTimeout:
            return "step budget spent"

    def check(self, graph, advanced, scenario):
        src, dst, boundaries, drop_v = query_of(graph, scenario)
        a_mod, e_mod = scenario["activity_mod"], scenario["entity_mod"]
        for boundary in boundaries:
            options = dict(
                boundary, prune=scenario["prune"],
                max_steps=scenario["max_steps"],
                activity_key=a_mod and (lambda v: v % a_mod),
                entity_key=e_mod and (lambda v: v % e_mod))
            expected = self.solve(graph, src, dst, set_impl="bitset",
                                  **options)
            feeds = {"live": None, "fresh": GraphSnapshot(graph),
                     "advanced": advanced}
            for name, snapshot in feeds.items():
                got = self.solve(graph, src, dst, snapshot=snapshot,
                                 **options)
                assert got == expected, name
            if scenario["shape"] != "acyclic" or scenario["prune"] \
                    or scenario["max_steps"] is not None \
                    or a_mod is not None or e_mod is not None:
                continue
            # The pure label grammar: the closure, and SimProvTst's
            # [e]_m x [e]_m products, level for level.
            assert expected[3] == oracle_answers(graph, src, dst, boundary,
                                                 drop_v)
            by_class = SimProvTst(graph, src, dst, snapshot=advanced,
                                  prune=False, collect_pairs=True,
                                  **boundary).solve()
            assert expected[:4] == outcome(by_class)[:4]

    def test_late_sources_prune_with_multiplicity(self, pd_medium):
        """``pruned`` counts derivations, not pairs: a late Vsrc prunes
        thousands of them and every feed must count the same."""
        src, dst = pd_medium.query_at_percentile(80)
        expected = self.solve(pd_medium.graph, src, dst, set_impl="bitset")
        assert expected[4][3] > 0
        for snapshot in (None, GraphSnapshot(pd_medium.graph)):
            assert self.solve(pd_medium.graph, src, dst,
                              snapshot=snapshot) == expected


class TestKernelEdgeCases:
    def build(self):
        """src -> b -> x -> a -> vj, plus an unrelated entity ``far``."""
        g = ProvenanceGraph()
        src = g.add_entity()
        b = g.add_activity()
        g.used(b, src)
        x = g.add_entity()
        g.was_generated_by(x, b)
        a = g.add_activity()
        g.used(a, x)
        vj = g.add_entity()
        g.was_generated_by(vj, a)
        far = g.add_entity()
        return g, src, vj, far

    def test_source_outside_the_cone(self):
        g, src, vj, far = self.build()
        result = SimProvTst(g, [far, src], [vj], snapshot=GraphSnapshot(g),
                            prune=False).solve()
        assert result.sources_matched == {src}

    def test_destination_in_vsrc_matches_only_below_itself(self):
        g, src, vj, _far = self.build()
        result = SimProvTst(g, [vj], [vj], snapshot=GraphSnapshot(g)).solve()
        assert not result.has_answers

    def test_no_surviving_source_returns_empty_without_descending(self):
        """Bugfix: an all-excluded Vsrc used to switch pruning off and walk
        the whole cone (SimProvAlg: run the whole fixpoint) for an answer
        that must be empty — ``worklist_pops`` stays 0."""
        g, src, vj, _far = self.build()
        for solver, options in ((SimProvTst, {"collect_pairs": True}),
                                (SimProvAlg, {})):
            for impl in ("set", "bitset"):
                result = solver(g, [src], [vj], set_impl=impl,
                                vertex_ok=lambda r: r.vertex_id != src,
                                **options).solve()
                assert outcome(result) == (set(), set(), set(), set(),
                                           (0, 0, 0, 0))

    def test_cone_stops_growing_where_the_solver_stops(self, monkeypatch):
        """Early stop must not pay for ancestry it never reached: the cone
        the solver itself grows for a late Vsrc stays a fraction of the
        destination's whole cone."""
        instance = generate_pd_sized(600, seed=11)
        src, dst = instance.query_at_percentile(99)
        snapshot = GraphSnapshot(instance.graph)
        arrays = snapshot.ancestry_arrays()
        assert arrays.monotone
        full = AncestryCone(arrays, dst[0])
        full.grow_all()
        grown: list[AncestryCone] = []

        class RecordedCone(AncestryCone):
            def __init__(self, *args):
                super().__init__(*args)
                grown.append(self)

        monkeypatch.setattr(simprov_tst, "AncestryCone", RecordedCone)
        stats = SimProvTst(instance.graph, src, dst[:1],
                           snapshot=snapshot).solve().stats
        assert stats.pruned == 1
        [cone] = grown
        assert cone.size < full.size // 4

    def test_unfiltered_arrays_borrow_the_snapshot_csr(self, pd_small):
        snapshot = GraphSnapshot(pd_small.graph)
        arrays = snapshot.ancestry_arrays()
        assert arrays.gen is snapshot.forward[EdgeType.WAS_GENERATED_BY]
        assert arrays.used is snapshot.forward[EdgeType.USED]
        assert arrays.orders is snapshot.orders
        src, dst = pd_small.default_query()
        for solver in (SimProvTst, SimProvAlg):
            solver(pd_small.graph, src, dst, snapshot=snapshot).solve()
            assert not snapshot._out_lists
            assert snapshot._prov_adjacency is None

    def test_timeout_still_raises(self, pd_small):
        src, dst = pd_small.default_query()
        for solver in (SimProvTst, SimProvAlg):
            with pytest.raises(QueryTimeout):
                solver(pd_small.graph, src, dst, timeout_seconds=0.0,
                       snapshot=GraphSnapshot(pd_small.graph)).solve()


def non_monotone_graph():
    """``a_old`` predates ``s`` yet descends to it: a_old used e_new,
    generated by a_new, which used s. ``dst`` was generated by a_old."""
    g = ProvenanceGraph()
    a_old = g.add_activity()
    s = g.add_entity()
    a_new = g.add_activity()
    g.used(a_new, s)
    e_new = g.add_entity()
    g.was_generated_by(e_new, a_new)
    g.used(a_old, e_new)
    dst = g.add_entity()
    g.was_generated_by(dst, a_old)
    return g, s, dst


class TestEarlyStopSoundness:
    def test_old_activity_using_a_newer_entity_keeps_its_answers(self):
        """Bugfix: the first activity layer {a_old} predates Vsrc, and
        early stop used to end the descent there — both solvers, both
        kernels returned nothing, and PgSeg lost every C2 tag."""
        g, s, dst = non_monotone_graph()
        snapshot = GraphSnapshot(g)
        assert not snapshot.ancestry_arrays().monotone
        expected = {record.vertex_id for record in g.store.vertices()}
        for solver in (SimProvTst, SimProvAlg):
            for impl in ("set", "bitset"):
                for feed in (None, snapshot):
                    answers = [outcome(solver(g, [s], [dst], set_impl=impl,
                                              prune=prune,
                                              snapshot=feed).solve())[:4]
                               for prune in (True, False)]
                    assert answers[0] == answers[1]
                    assert answers[0][0] == expected
                    assert answers[0][2] == {s}
        for snapshot_mode in (None, True):
            segment = PgSegOperator(g, snapshot=snapshot_mode).evaluate(
                PgSegQuery(src=(s,), dst=(dst,)))
            assert segment.vertices_in_category(CATEGORY_SIMILAR)

    def test_monotone_flag_follows_the_snapshot_not_advance(self):
        """The flag is computed on the first borrow and cached; ``advance``
        leaves it unknown, so a span that breaks monotonicity is seen."""
        g, s, dst = non_monotone_graph()
        store = g.store
        late = g.add_entity()
        snapshot = GraphSnapshot(g)
        assert snapshot._ancestry_monotone is None
        # Drop the edge that breaks monotonicity: a_old used e_new.
        store.remove_edge(next(r.edge_id for r in store.edges()
                               if r.edge_type is EdgeType.USED
                               and r.dst != s))
        snapshot = snapshot.advance(g)
        assert snapshot.ancestry_arrays().monotone
        assert snapshot._ancestry_monotone is True
        old_activity = next(r.vertex_id for r in store.vertices()
                            if r.vertex_type is VertexType.ACTIVITY)
        g.used(old_activity, late)
        advanced = snapshot.advance(g)
        assert advanced._ancestry_monotone is None
        assert not advanced.ancestry_arrays().monotone

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(scenario=scenarios().filter(
        lambda scenario: scenario["shape"] != "acyclic"))
    def test_prune_never_changes_an_answer(self, scenario):
        """On cyclic and ill-typed shapes (monotone or not) early stop may
        only save work: every answer equals the unpruned one."""
        check_after_every_phase(scenario, self.check)

    @staticmethod
    def check(graph, advanced, scenario):
        src, dst, boundaries, _ = query_of(graph, scenario)
        for boundary in boundaries:
            for solver, options in (
                    (SimProvTst, {"collect_pairs": True,
                                  "max_layers": scenario["max_layers"]}),
                    (SimProvAlg, {})):
                for impl in ("set", "bitset"):
                    answers = [outcome(solver(
                        graph, src, dst, set_impl=impl, prune=prune,
                        snapshot=advanced, **boundary, **options).solve())
                        [:4] for prune in (True, False)]
                    assert answers[0] == answers[1], (solver, impl)


class TestDepthSetSweep:
    """The monotone-array kernel against the per-element loop on a real Pd
    graph: every field and counter, across the 5-50 % destination band,
    through both of its paths (depth sets, and layers for shallow stops)."""

    @pytest.fixture(scope="class")
    def pd2k(self):
        instance = generate_pd_sized(2000)
        snapshot = GraphSnapshot(instance.graph)
        assert snapshot.ancestry_arrays().monotone
        return instance, snapshot

    @staticmethod
    def compare(instance, snapshot, src, dst, **options):
        expected = outcome(SimProvTst(instance.graph, src, dst,
                                      set_impl="bitset", **options).solve())
        got = outcome(SimProvTst(instance.graph, src, dst,
                                 snapshot=snapshot, **options).solve())
        assert got == expected, (src, dst, options)
        return got

    def test_destination_band_sweep(self, pd2k, monkeypatch):
        instance, snapshot = pd2k
        entities = instance.entities
        paths = {"_solve_layers": 0, "_read_depth_sets": 0}
        for name in paths:
            def counted(self, *args, _name=name,
                        _method=getattr(SimProvTst, name)):
                paths[_name] += 1
                return _method(self, *args)
            monkeypatch.setattr(SimProvTst, name, counted)
        pruned = answered = 0
        for mark in range(1, 11):
            cut = len(entities) * mark // 20
            dst = entities[cut - 1:cut + 1]
            # Vsrc at a rank of the destination's own ancestry.
            for rank in (0, 50, 95):
                start = cut * rank // 100
                src = entities[start:start + 2]
                for prune in (True, False):
                    for max_layers in (None, 12):
                        got = self.compare(instance, snapshot, src, dst,
                                           prune=prune,
                                           max_layers=max_layers)
                        pruned += got[4][3]
                        answered += bool(got[2])
        assert pruned and answered
        assert paths["_solve_layers"] and paths["_read_depth_sets"]

    def test_destination_without_a_generating_activity(self, pd2k):
        """The layer loop still pays one pop to find [a]_1 empty."""
        instance, snapshot = pd2k
        gen = snapshot.forward[EdgeType.WAS_GENERATED_BY]
        entities = instance.entities
        origin = next(e for e in reversed(entities)
                      if not gen.neighbors(e).size)
        for rank in (0, 50, 95):
            start = len(entities) * rank // 100
            src = entities[start:start + 2]
            for prune in (True, False):
                got = self.compare(instance, snapshot, src, [origin],
                                   prune=prune)
                assert got[4][2] == 1
                self.compare(instance, snapshot, src,
                             [origin, entities[len(entities) // 4]],
                             prune=prune, max_layers=12)


def test_layer_storage_stays_packed():
    """A deep query stores ~depth x cone / 8 bytes of layers, not depth x
    cone: the whole solve, result sets included, must fit in half of what
    the unpacked layers alone would take."""
    instance = generate_pd_sized(5000)
    snapshot = GraphSnapshot(instance.graph)
    entities = snapshot.vertex_ids(VertexType.ENTITY)
    src, dst = entities[:2], [entities[int(len(entities) * 0.9)]]
    cone = AncestryCone(snapshot.ancestry_arrays(), dst[0])
    while cone.grow():
        pass
    # First-call allocations (code specialisation, numpy caches) stay out.
    SimProvTst(instance.graph, src, entities[50:51], snapshot=snapshot).solve()
    solver = SimProvTst(instance.graph, src, dst, snapshot=snapshot)
    tracemalloc.start()
    try:
        result = solver.solve()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    depth = result.stats.worklist_pops
    assert depth > 500 and cone.size > 2000
    unpacked_layers = 2 * depth * cone.size * np.dtype(bool).itemsize
    assert peak < unpacked_layers / 2


def test_pair_tables_are_sized_by_the_cone():
    """The 95 % mark of the 2 000-vertex Pd graph holds ~4.7e5 facts; the
    whole solve must peak under 16 MB, which tables over the graph's id
    space squared could not."""
    instance = generate_pd_sized(2000)
    snapshot = GraphSnapshot(instance.graph)
    entities = instance.entities
    src, dst = entities[:2], [entities[int(len(entities) * 0.95)]]
    SimProvAlg(instance.graph, src, entities[50:51], snapshot=snapshot).solve()
    solver = SimProvAlg(instance.graph, src, dst, snapshot=snapshot)
    tracemalloc.start()
    try:
        result = solver.solve()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.stats.worklist_pops > 400_000
    assert peak < 16 * 2 ** 20
