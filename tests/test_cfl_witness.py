"""Tests for witness-path extraction from SimProvAlg answers."""

import pytest

from repro.cfl.grammar import (
    EdgeElement,
    VertexElement,
    earley_recognize,
    simprov_grammar,
)
from repro.cfl.simprov_alg import SimProvAlg
from repro.errors import QueryTimeout
from repro.model.graph import ProvenanceGraph
from repro.query.paths import Path


def word_of(graph, path: Path):
    """Convert a Path's segment into grammar word elements."""
    elements = []
    vertices = path.vertices
    for index, step in enumerate(path.steps):
        record = graph.edge(step.edge_id)
        elements.append(EdgeElement(record.edge_type, not step.forward))
        if index < len(path.steps) - 1:
            interior = vertices[index + 1]
            vrec = graph.vertex(interior)
            elements.append(VertexElement(vrec.vertex_type, interior))
    return elements


class TestWitnessOnPaperExample:
    @pytest.fixture()
    def solved(self, paper):
        solver = SimProvAlg(
            paper.graph, [paper["dataset-v1"]], [paper["weight-v2"]]
        )
        result = solver.solve()
        return solver, result

    def test_witness_to_model_v2(self, paper, solved):
        solver, _result = solved
        path = solver.witness_path(paper["dataset-v1"], paper["model-v2"])
        assert path is not None
        assert path.start == paper["dataset-v1"]
        assert path.end == paper["model-v2"]
        assert path.vertices == [
            paper["dataset-v1"], paper["train-v2"], paper["weight-v2"],
            paper["train-v2"], paper["model-v2"],
        ]
        assert path.segment_label() == ("U^-1", "A", "G^-1", "E", "G", "A", "U")

    def test_witness_word_is_in_language(self, paper, solved):
        solver, result = solved
        grammar = simprov_grammar([paper["weight-v2"]])
        for vi, vt in result.answer_pairs:
            path = solver.witness_path(vi, vt)
            assert path is not None, (vi, vt)
            word = word_of(paper.graph, path)
            assert earley_recognize(grammar, word), (vi, vt)

    def test_non_answer_returns_none(self, paper, solved):
        solver, _result = solved
        assert solver.witness_path(paper["dataset-v1"],
                                   paper["weight-v1"]) is None

    def test_before_solve_returns_none(self, paper):
        solver = SimProvAlg(
            paper.graph, [paper["dataset-v1"]], [paper["weight-v2"]]
        )
        assert solver.witness_path(paper["dataset-v1"],
                                   paper["model-v2"]) is None


class TestWitnessOnGenerated:
    def test_all_answers_have_witnesses(self, pd_small):
        src, dst = pd_small.default_query()
        solver = SimProvAlg(pd_small.graph, src, dst)
        result = solver.solve()
        assert result.answer_pairs
        grammar = simprov_grammar(dst)
        checked = 0
        for vi, vt in sorted(result.answer_pairs)[:25]:
            path = solver.witness_path(vi, vt)
            assert path is not None, (vi, vt)
            assert {path.start, path.end} <= {vi, vt} | {vi} | {vt}
            word = word_of(pd_small.graph, path)
            assert earley_recognize(grammar, word), (vi, vt)
            checked += 1
        assert checked > 0

    def test_witness_path_vertices_subset_of_vc2(self, pd_small):
        src, dst = pd_small.default_query()
        solver = SimProvAlg(pd_small.graph, src, dst)
        result = solver.solve()
        for vi, vt in sorted(result.answer_pairs)[:10]:
            path = solver.witness_path(vi, vt)
            assert set(path.vertices) <= result.path_vertices


class TestWitnessDepthTwo:
    def test_deep_witness(self):
        """A depth-2 answer yields an 8-edge palindrome witness."""
        g = ProvenanceGraph()
        src = g.add_entity(name="src")
        b = g.add_activity(command="b")
        g.used(b, src)
        mid = g.add_entity(name="mid")
        g.was_generated_by(mid, b)
        sibling = g.add_entity(name="sibling")
        b2 = g.add_activity(command="b2")
        g.used(b2, src)
        g.was_generated_by(sibling, b2)
        a = g.add_activity(command="a")
        g.used(a, mid)
        g.used(a, sibling)
        vj = g.add_entity(name="vj")
        g.was_generated_by(vj, a)

        solver = SimProvAlg(g, [src], [vj])
        result = solver.solve()
        assert (src, src) in result.answer_pairs
        path = solver.witness_path(src, src)
        assert path is not None
        assert len(path) == 8
        grammar = simprov_grammar([vj])
        assert earley_recognize(grammar, word_of(g, path))


@pytest.mark.parametrize("impl", ["set", "bitset"])
class TestWitnessDeepChain:
    LEVELS = 700

    @pytest.fixture()
    def chain(self):
        """e0 <-U- a1 <-G- e1 <-U- ... <-G- e700: one derivation, 700 deep."""
        g = ProvenanceGraph()
        entities = [g.add_entity()]
        for _ in range(self.LEVELS):
            activity = g.add_activity()
            g.used(activity, entities[-1])
            entities.append(g.add_entity())
            g.was_generated_by(entities[-1], activity)
        return g, entities

    def test_deep_derivation_does_not_recurse(self, chain, impl):
        """Bugfix: the decomposition recursed once per level and overflowed
        the interpreter's stack here."""
        g, entities = chain
        first, last = entities[0], entities[-1]
        solver = SimProvAlg(g, [first], [last], set_impl=impl)
        assert solver.solve().answer_pairs == {(first, first)}
        path = solver.witness_path(first, first)
        assert len(path) == 4 * self.LEVELS
        assert path.start == path.end == first
        assert path.vertices[2 * self.LEVELS] == last
        assert path.vertices == path.vertices[::-1]
        assert solver.witness_path(first, last) is None

    def test_failed_solve_forgets_the_previous_tables(self, chain, impl):
        """Bugfix: a solve that raised left witness_path reading the
        tables of the solve before it."""
        g, entities = chain
        spent = []

        def key(_activity):
            if spent:
                raise QueryTimeout("budget spent")
            return 0

        solver = SimProvAlg(g, entities[:1], entities[-1:], set_impl=impl,
                            activity_key=key)
        solver.solve()
        assert solver.witness_path(entities[0], entities[0]) is not None
        spent.append(True)
        with pytest.raises(QueryTimeout):
            solver.solve()
        assert solver.witness_path(entities[0], entities[0]) is None
