"""Delta-driven retention of the session result caches.

PR 1 cleared the session's memoized results wholesale on every epoch bump;
the cache layer now inspects ``delta_log.batches_since()`` and keeps every
entry the span provably cannot have changed (``ResultCache.revalidate``;
see ``entry_survives`` for the per-class soundness rules). These
tests pin both directions: entries *survive* provably-disjoint mutations,
and entries *drop* (and recompute correctly) whenever the span could have
changed them. A seeded differential re-asks one fixed set of reads
after every round of appends and compares each with a fresh recompute.
"""

import os
import random

import pytest

from repro.query.ops import blame, lineage
from repro.segment.pgseg import PgSegOperator, PgSegQuery
from repro.serve.wire import segment_to_wire
from repro.session import LifecycleSession
from test_worker_cache_retention import _mutate_old_source


@pytest.fixture()
def session() -> LifecycleSession:
    """Two independent derivation chains, a/b, with disjoint ancestries."""
    s = LifecycleSession(project="inval")
    s.record("alice", "train-a", uses=["a_data"], generates=["a_model"])
    s.record("alice", "eval-a", uses=["a_model"], generates=["a_report"])
    s.record("bob", "train-b", uses=["b_data"], generates=["b_model"])
    return s


def _cache_value(session, *key):
    """The value cached under ``key``, or None (object survival is the
    property under test)."""
    return session.result_cache.get(key)


class TestClosureRetention:
    def test_blame_survives_disjoint_mutation(self, session):
        session.who_touched("a_report")
        entity = session.builder.latest("a_report")
        before = _cache_value(session, "blame", entity)
        assert before is not None
        # A new run touching only the b-chain: disjoint from a_report's
        # ancestry closure, so the cached report must survive.
        session.record("bob", "eval-b", uses=["b_model"],
                       generates=["b_report"])
        assert session.who_touched("a_report") is not None
        assert _cache_value(session, "blame", entity) is before

    def test_blame_drops_when_closure_touched(self, session):
        report = session.who_touched("a_report")
        entity = session.builder.latest("a_report")
        before = _cache_value(session, "blame", entity)
        # carol's run consumes a_model, inside the closure, but its new
        # edges all leave new vertices: no closure vertex's out-row
        # changed, so the report survives.
        session.record("carol", "tune-a", uses=["a_model"],
                       generates=["a_model"])
        assert session.who_touched("a_report") == report
        assert _cache_value(session, "blame", entity) is before
        # A new attribution *leaving* a closure vertex touches it: the
        # entry drops and the recomputed report names the new agent.
        a_model_v1 = session.builder.version_of("a_model", 1)
        session.graph.was_attributed_to(
            a_model_v1, session.builder.agent("carol"))
        assert session.who_touched("a_report") == {**report, "carol": 1}
        assert _cache_value(session, "blame", entity) is not before

    def test_depth_survives_disjoint_mutation(self, session):
        depth = session.depth_of("a_report")
        entity = session.builder.latest("a_report")
        before = _cache_value(session, "lineage", entity)
        session.record("bob", "eval-b", uses=["b_model"],
                       generates=["b_report"])
        assert session.depth_of("a_report") == depth
        assert _cache_value(session, "lineage", entity) is before

    def test_new_ancestor_changes_answer(self, session):
        assert "carol" not in session.who_touched("a_model")
        session.record("carol", "retrain", uses=["a_data"],
                       generates=["a_model"])
        # New latest version resolves to a new entity id: cache missed by
        # key, and the answer tracks the mutation.
        assert "carol" in session.who_touched("a_model")


class TestPathsRetention:
    def test_segment_survives_appends_only(self, session):
        """Appends whose new edges all leave new vertices keep the
        segment; an adopted sibling, or a new out-edge on any vertex
        older than the entry, drops it."""
        first = session.how_was_it_made("a_report")
        # An unrelated append, and one that uses a segment member: every
        # new edge leaves a new vertex, so the segment survives.
        session.record("bob", "eval-b", uses=["b_model"],
                       generates=["b_report"])
        session.record("carol", "audit", uses=["a_model"],
                       generates=["audit_log"])
        assert session.how_was_it_made("a_report") is first
        # A new entity generated by a segment activity: a VC3 sibling.
        eval_a = session.runs[1].activity_id
        sibling = session.graph.add_entity(name="a_log")
        session.graph.was_generated_by(sibling, eval_a)
        second = session.how_was_it_made("a_report")
        assert second is not first and sibling in second.vertices
        # A new out-edge on a vertex older than the entry, even one
        # outside the segment: the horizon rule drops it.
        offside = session.builder.latest("b_report")
        assert offside not in second.vertices
        session.graph.was_attributed_to(offside,
                                        session.builder.agent("carol"))
        third = session.how_was_it_made("a_report")
        assert third is not second
        assert third.vertices == second.vertices
        # A new out-edge on a segment member changes the answer.
        member = session.builder.latest("a_model")
        carol = session.builder.agent("carol")
        session.graph.was_attributed_to(member, carol)
        fourth = session.how_was_it_made("a_report")
        assert fourth is not third and carol in fourth.vertices

    def test_segment_survives_offside_property_write(self, session):
        first = session.how_was_it_made("a_report")
        offside = session.builder.latest("b_model")
        assert offside not in first.vertices
        session.graph.store.set_vertex_property(offside, "note", "x")
        assert session.how_was_it_made("a_report") is first

    def test_segment_drops_on_member_property_write(self, session):
        first = session.how_was_it_made("a_report")
        member = session.builder.latest("a_model")
        assert member in first.vertices
        session.graph.store.set_vertex_property(member, "note", "x")
        assert session.how_was_it_made("a_report") is not first

    def test_psg_survives_offside_property_write(self, session):
        first = session.typical_pipeline("a_model")
        offside = session.builder.latest("b_model")
        session.graph.store.set_vertex_property(offside, "note", "x")
        assert session.typical_pipeline("a_model") is first

    def test_psg_drops_on_member_property_write(self, session):
        first = session.typical_pipeline("a_model")
        member = session.builder.latest("a_data")
        session.graph.store.set_vertex_property(member, "name", "renamed")
        assert session.typical_pipeline("a_model") is not first


class TestScanRetention:
    def test_roots_survive_non_entity_mutations(self, session):
        roots = session._roots()
        session.graph.add_agent(name="observer")
        assert session._roots() is roots

    def test_roots_drop_when_entity_added(self, session):
        roots = session._roots()
        session.add_artifact("c_data")
        fresh = session._roots()
        assert fresh is not roots
        assert session.builder.latest("c_data") in fresh


class TestTruncationFallback:
    def test_log_truncation_clears_everything(self, session):
        session.graph.store.delta_log.capacity = 4
        first = session.how_was_it_made("a_report")
        blame = session.who_touched("a_report")
        # Overflow the log: the span since the cache fill is unavailable,
        # so even "disjoint" entries must be conservatively dropped.
        for index in range(6):
            session.record("bob", f"spam{index}", uses=["b_data"],
                           generates=["b_scratch"])
        assert session.graph.store.delta_log.truncated
        assert session.how_was_it_made("a_report") is not first
        assert session.who_touched("a_report") == blame


# ---------------------------------------------------------------------------
# Fixed-read differential: the same reads after every round of appends
# ---------------------------------------------------------------------------

FULL = os.environ.get("RETENTION_FULL", "") not in ("", "0")
TILE_SEEDS = range(160 if FULL else 40)
TILE_ROUNDS = 12
_ARTIFACTS = ("data", "model", "report")
_MEMBERS = ("alice", "bob", "carol")


def _tile_session() -> LifecycleSession:
    s = LifecycleSession(project="tiles")
    s.record("alice", "prep", uses=["raw"], generates=["data"])
    s.record("alice", "train", uses=["data", "config"],
             generates=["model", "log"])
    s.record("bob", "eval", uses=["model", "data"], generates=["report"])
    return s


def _record_run(rng, session, counter):
    """A recorded run over existing artifacts: new versions of old names
    or fresh names, every new edge leaving a vertex it minted."""
    counter[0] += 1
    names = session.builder.artifact_names()
    outputs = rng.sample(names, k=1) if rng.random() < 0.6 else []
    outputs.append(f"out{counter[0]}")
    session.record(rng.choice(_MEMBERS), f"cmd{counter[0] % 4}",
                   uses=rng.sample(names, k=min(len(names),
                                                rng.randint(1, 2))),
                   generates=outputs)


def _fresh(session, call, artifact, version):
    """What a cold recompute on the current graph answers."""
    graph = session.graph
    if version is None:
        entity = session.builder.latest(artifact)
    else:
        entity = session.builder.version_of(artifact, version)
    if call == "how_was_it_made":
        roots = tuple(e for e in sorted(graph.entities())
                      if not graph.generating_activities(e))
        return segment_to_wire(PgSegOperator(graph).evaluate(
            PgSegQuery(src=roots, dst=(entity,))))
    if call == "who_touched":
        return {graph.vertex(agent).get("name", str(agent)): len(owned)
                for agent, owned in sorted(blame(graph, entity).items())}
    return lineage(graph, entity).depth


def _served(session, call, artifact, version):
    answer = getattr(session, call)(artifact, version)
    return segment_to_wire(answer) if call == "how_was_it_made" else answer


@pytest.mark.parametrize("seed", TILE_SEEDS)
def test_fixed_reads_match_recompute_after_every_round(seed):
    """``how_was_it_made`` / ``who_touched`` / ``depth_of`` of fixed
    artifact versions, re-asked after every round of recorded runs and
    appends leaving pre-existing vertices, equal a cold recompute."""
    rng = random.Random(9000 + seed)
    session = _tile_session()
    tiles = [(call, artifact, version)
             for call in ("how_was_it_made", "who_touched", "depth_of")
             for artifact in _ARTIFACTS for version in (None, 1)]
    counter = [0]
    for round_index in range(TILE_ROUNDS):
        if round_index:
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    _record_run(rng, session, counter)
                else:
                    _mutate_old_source(rng, session.graph, counter)
        for tile in tiles:
            assert _served(session, *tile) == _fresh(session, *tile), \
                f"{tile} diverged in round {round_index}"
