"""The asyncio front-end: many-client fan-in over one cluster.

Locks the three serving invariants from ``repro.serve.frontend``:

- **bounded in-flight** — a flood past ``admission_budget`` gets the
  typed :class:`~repro.errors.Overloaded` error immediately, never a
  hang or an unbounded queue;
- **per-client fairness** — the round-robin gather gives no connection a
  structural head start, and a stalled client cannot starve a live one;
- **backpressure** — a client that stops reading its responses stops
  being read, so server-side state per connection stays bounded by
  ``session_budget`` no matter how much it floods.

Plus the config/spec surface those flows ride on (``ServeConfig``,
``QuerySpec``) and the unified ``ProvCluster.stats()`` schema.
"""

import socket
import threading
import time
from types import SimpleNamespace

import pytest

from repro.errors import (
    ConfigError,
    Overloaded,
    ReplicaUnavailable,
    SerializationError,
    VertexNotFound,
)
from repro.query.cypherlite import run_query
from repro.query.ops import blame, lineage
from repro.segment.boundary import (
    BoundaryCriteria,
    owned_by,
    property_not_equals,
)
from repro.segment.pgseg import PgSegOperator, PgSegQuery
from repro.serve import wire
from repro.serve.api import QuerySpec, ServeConfig, normalize_specs
from repro.serve.cluster import ProvCluster
from repro.serve.frontend import (
    HELD_ANSWERS,
    AsyncFrontend,
    FrontendClient,
    _ClientSession,
    _WorkItem,
)
from repro.serve.pool import RawResult
from repro.serve.transport import LineTransport
from repro.session import LifecycleSession
from repro.workloads.lifecycle import build_paper_example


def _wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(interval)
    return True


# ---------------------------------------------------------------------------
# ServeConfig
# ---------------------------------------------------------------------------


class TestServeConfig:
    def test_defaults_are_valid_and_frozen(self):
        config = ServeConfig()
        assert config.replicas == 2 and not config.out_of_process
        with pytest.raises(Exception):
            config.replicas = 5                       # frozen dataclass

    @pytest.mark.parametrize("bad", [
        {"replicas": 0},
        {"shards": 0},
        {"frontend_port": -1},
        {"frontend_port": 70000},
        {"max_inflight": 0},
        {"session_budget": 0},
        {"admission_budget": 0},
        {"max_inflight": 64, "admission_budget": 8},
    ])
    def test_invalid_fields_raise_config_error(self, bad):
        with pytest.raises(ConfigError):
            ServeConfig(**bad)

    def test_config_error_is_a_value_error(self):
        # The bare-kwarg constructors this replaces raised ValueError;
        # callers catching that must keep working.
        with pytest.raises(ValueError):
            ServeConfig(replicas=0)

    def test_of_builds_from_overrides(self):
        config = ServeConfig.of(None, replicas=3, out_of_process=True)
        assert (config.replicas, config.out_of_process) == (3, True)
        # None-valued overrides mean "not given", not "None".
        assert ServeConfig.of(None, replicas=None).replicas == 2

    def test_of_passes_config_through(self):
        config = ServeConfig(replicas=4)
        assert ServeConfig.of(config) is config
        assert ServeConfig.of(config, replicas=None) is config

    def test_of_rejects_config_plus_kwargs(self):
        with pytest.raises(ConfigError, match="either"):
            ServeConfig.of(ServeConfig(), replicas=3)

    def test_of_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown"):
            ServeConfig.of(None, warp_drive=True)

    def test_with_derives_a_new_config(self):
        base = ServeConfig(replicas=2)
        derived = base.with_(replicas=5)
        assert derived.replicas == 5 and base.replicas == 2
        with pytest.raises(ConfigError):
            base.with_(replicas=0)                    # still validated


# ---------------------------------------------------------------------------
# QuerySpec
# ---------------------------------------------------------------------------


class TestQuerySpec:
    def test_constructors_match_tuple_form(self):
        assert QuerySpec.lineage(7).as_tuple() == ("lineage", {"entity": 7})
        assert QuerySpec.lineage(7, max_depth=2).as_tuple() \
            == ("lineage", {"entity": 7, "max_depth": 2})
        assert QuerySpec.blame(3).as_tuple() == ("blame", {"entity": 3})
        assert QuerySpec.cypher("MATCH (e:E) RETURN id(e)").as_tuple() \
            == ("cypher", {"text": "MATCH (e:E) RETURN id(e)"})

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown query method"):
            QuerySpec("drop_tables", {})

    def test_params_are_read_only(self):
        spec = QuerySpec.lineage(7)
        with pytest.raises(TypeError):
            spec.params["entity"] = 9
        # ... but as_tuple hands out a mutable copy, detached.
        spec.as_tuple()[1]["entity"] = 9
        assert spec.params["entity"] == 7

    def test_normalize_accepts_both_forms(self):
        specs = normalize_specs([
            QuerySpec.blame(1), ("lineage", {"entity": 2})])
        assert all(isinstance(s, QuerySpec) for s in specs)
        assert [s.method for s in specs] == ["blame", "lineage"]

    def test_normalize_rejects_garbage(self):
        with pytest.raises(TypeError):
            normalize_specs(["blame"])
        with pytest.raises(ValueError):
            normalize_specs([("teleport", {})])


# ---------------------------------------------------------------------------
# Round trips through a live front-end
# ---------------------------------------------------------------------------


@pytest.fixture(scope="class")
def fe_cluster():
    example = build_paper_example()
    cluster = ProvCluster(example.graph,
                          config=ServeConfig(replicas=2, frontend=True))
    try:
        yield example, cluster
    finally:
        cluster.close()


class TestFrontendRoundTrip:
    def test_welcome_carries_session_and_limits(self, fe_cluster):
        example, cluster = fe_cluster
        with FrontendClient(cluster.frontend.address) as client:
            assert client.session_id >= 1
            assert client.limits["session_budget"] >= 1
            assert client.limits["admission_budget"] >= 1

    def test_queries_match_leader(self, fe_cluster):
        example, cluster = fe_cluster
        graph = example.graph
        target = example["weight-v2"]
        with FrontendClient(cluster.frontend.address, graph=graph) as client:
            assert client.lineage(target).vertices \
                == lineage(graph, target).vertices
            assert client.blame(target) == blame(graph, target)
            rows = client.cypher(
                f"MATCH (e:E) WHERE id(e) = {target} RETURN id(e)")
            assert rows == [{"col0": target}]

    def test_segment_round_trips_rebound(self, fe_cluster):
        example, cluster = fe_cluster
        graph = example.graph
        roots = tuple(v for v in graph.entities()
                      if not graph.generating_activities(v))
        query = PgSegQuery(src=roots, dst=(example["weight-v2"],))
        local = PgSegOperator(graph).evaluate(query)
        with FrontendClient(cluster.frontend.address, graph=graph) as client:
            served = client.segment(query)
        assert served.vertices == local.vertices
        assert sorted(served.edge_ids) == sorted(local.edge_ids)

    def test_query_many_bundle_mixed_specs(self, fe_cluster):
        example, cluster = fe_cluster
        graph = example.graph
        target = example["weight-v2"]
        with FrontendClient(cluster.frontend.address, graph=graph) as client:
            results = client.query_many([
                QuerySpec.lineage(target),
                ("blame", {"entity": target}),
                QuerySpec.cypher(
                    f"MATCH (e:E) WHERE id(e) = {target} RETURN id(e)"),
            ])
        assert results[0].vertices == lineage(graph, target).vertices
        assert results[1] == blame(graph, target)
        assert results[2] == [{"col0": target}]

    def test_per_request_error_isolation(self, fe_cluster):
        example, cluster = fe_cluster
        graph = example.graph
        target = example["weight-v2"]
        with FrontendClient(cluster.frontend.address, graph=graph) as client:
            results = client.query_many([
                ("blame", {"entity": 10 ** 6}),       # no such vertex
                ("lineage", {"entity": target}),
            ])
        assert isinstance(results[0], VertexNotFound)
        assert results[1].vertices == lineage(graph, target).vertices

    def test_unsendable_spec_fails_alone(self, fe_cluster):
        """A spec that cannot cross the wire gets its typed
        SerializationError at its own index; its siblings still ride the
        bundle and nothing leaks."""
        example, cluster = fe_cluster
        graph = example.graph
        target = example["weight-v2"]
        keyed = PgSegQuery(src=(example["dataset-v1"],), dst=(target,),
                           algorithm="simprov-alg",
                           activity_key=lambda activity: activity)
        with FrontendClient(cluster.frontend.address, graph=graph) as client:
            results = client.query_many([QuerySpec.lineage(target),
                                         QuerySpec.segment(keyed),
                                         QuerySpec.blame(target)])
            assert client._methods == {}
            with pytest.raises(SerializationError, match="activity_key"):
                client.segment(keyed)
        assert results[0].vertices == lineage(graph, target).vertices
        assert isinstance(results[1], SerializationError)
        assert "activity_key" in str(results[1])
        assert results[2] == blame(graph, target)

    def test_bounded_and_keyed_segments_served(self, fe_cluster):
        """A remote client's bounded and keyed queries are answered by a
        worker, equal to the in-process operator's."""
        example, cluster = fe_cluster
        graph = example.graph
        src, dst = (example["dataset-v1"],), (example["weight-v2"],)
        queries = [
            PgSegQuery(src=src, dst=dst, boundaries=BoundaryCriteria()
                       .exclude_vertices(owned_by(graph, example["Alice"]))
                       .expand(dst, k=1)),
            PgSegQuery(src=src, dst=dst, algorithm="simprov-alg",
                       entity_key=("name",)),
        ]
        with FrontendClient(cluster.frontend.address, graph=graph) as client:
            served = client.query_many(
                [QuerySpec.segment(query) for query in queries])
        for query, segment in zip(queries, served):
            expected = PgSegOperator(graph).evaluate(query)
            assert segment.vertices == expected.vertices
            assert segment.edge_ids == expected.edge_ids

    def test_single_request_error_raises_typed(self, fe_cluster):
        example, cluster = fe_cluster
        with FrontendClient(cluster.frontend.address) as client:
            with pytest.raises(VertexNotFound):
                client.blame(10 ** 6)

    def test_pipelined_out_of_order_collect(self, fe_cluster):
        example, cluster = fe_cluster
        graph = example.graph
        target = example["weight-v2"]
        with FrontendClient(cluster.frontend.address, graph=graph) as client:
            first = client.begin("lineage", {"entity": target})
            second = client.begin("blame", {"entity": target})
            assert client.collect(second) == blame(graph, target)
            assert client.collect(first).vertices \
                == lineage(graph, target).vertices

    def test_ping_reports_epoch_and_session_stats(self, fe_cluster):
        example, cluster = fe_cluster
        with FrontendClient(cluster.frontend.address) as client:
            client.blame(example["weight-v2"])
            epoch, stats = client.ping()
        assert epoch == cluster.leader_epoch
        assert stats["served"] == 1

    def test_responses_to_unknown_ids_are_dropped(self, fe_cluster):
        """A peer's response frames for ids this client never sent are
        not filed: nothing would ever collect them, so keeping them would
        grow the client without bound on untrusted input."""
        example, cluster = fe_cluster
        target = example["weight-v2"]
        with FrontendClient(cluster.frontend.address) as client:
            answer = wire.WireValue(wire.blame_to_wire({}))
            client._absorb(wire.response_to_wire(41, 0, result=answer))
            client._absorb(wire.responses_bundle_to_wire(0, [
                wire.response_to_wire(42, 0, result=answer),
                wire.response_to_wire(43, 0, error=wire.error_to_wire(
                    ValueError("stray")))]))
            assert client._arrived == {}
            # Ids it did send are still filed and answered.
            assert client.blame(target) == blame(example.graph, target)
            assert client._arrived == {}

    def test_unknown_kind_answered_not_fatal(self, fe_cluster):
        example, cluster = fe_cluster
        sock = socket.create_connection(cluster.frontend.address)
        transport = LineTransport.over_socket(sock)
        try:
            transport.send(wire.client_hello_frame("probe"))
            wire.welcome_from_wire(transport.recv(timeout=10))
            transport.send({"kind": "time-travel", "format": "repro-wire-v1"})
            frame = transport.recv(timeout=10)
            assert frame["kind"] == "event"
            assert frame["event"] == "unknown-frame"
            # The session survived: a real request still round-trips.
            transport.send(wire.request_to_wire(
                1, "blame", {"entity": example["weight-v2"]}))
            _, _, ok, payload = wire.response_from_wire(
                transport.recv(timeout=10))
            assert ok
        finally:
            transport.close()

    def test_malformed_bundle_answered_not_fatal(self, fe_cluster):
        example, cluster = fe_cluster
        sock = socket.create_connection(cluster.frontend.address)
        transport = LineTransport.over_socket(sock)
        try:
            transport.send(wire.client_hello_frame("probe"))
            wire.welcome_from_wire(transport.recv(timeout=10))
            transport.send({"kind": "requests", "format": "repro-wire-v1"})
            frame = transport.recv(timeout=10)
            assert (frame["kind"], frame["event"]) \
                == ("event", "malformed-frame")
            transport.send(wire.request_to_wire(
                1, "blame", {"entity": example["weight-v2"]}))
            _, _, ok, _ = wire.response_from_wire(transport.recv(timeout=10))
            assert ok
        finally:
            transport.close()

    def test_undecodable_requests_answered_not_fatal(self, fe_cluster):
        """Inner entries that are not objects and an id of ``Infinity``
        (which ``json.loads`` accepts) get a malformed-frame event."""
        example, cluster = fe_cluster
        target = example["weight-v2"]
        infinite = wire.request_to_wire(1, "blame", {"entity": target})
        infinite["id"] = float("inf")
        bundle = {"kind": "requests", "format": "repro-wire-v1"}
        probes = [{**bundle, "requests": ["x"]},
                  {**bundle, "requests": {"a": 1}},
                  infinite,
                  {**bundle, "requests": [infinite]}]
        sock = socket.create_connection(cluster.frontend.address)
        transport = LineTransport.over_socket(sock)
        try:
            transport.send(wire.client_hello_frame("probe"))
            wire.welcome_from_wire(transport.recv(timeout=10))
            for request_id, probe in enumerate(probes, start=2):
                transport.send(probe)
                frame = transport.recv(timeout=10)
                assert (frame["kind"], frame["event"]) \
                    == ("event", "malformed-frame"), probe
                transport.send(wire.request_to_wire(
                    request_id, "blame", {"entity": target}))
                answered, _, ok, payload = wire.response_from_wire(
                    transport.recv(timeout=10))
                assert (answered, ok) == (request_id, True)
                assert wire.blame_from_wire(payload) \
                    == blame(example.graph, target)
        finally:
            transport.close()

    def test_unservable_method_refused_per_request(self, fe_cluster):
        """summarize stays single-replica routed; a client asking for it
        gets a per-request error, not a dead session."""
        example, cluster = fe_cluster
        sock = socket.create_connection(cluster.frontend.address)
        transport = LineTransport.over_socket(sock)
        try:
            transport.send(wire.client_hello_frame("probe"))
            wire.welcome_from_wire(transport.recv(timeout=10))
            transport.send({"kind": "request", "format": "repro-wire-v1",
                            "id": 1, "method": "summarize", "params": {}})
            request_id, _, ok, payload = wire.response_from_wire(
                transport.recv(timeout=10))
            assert (request_id, ok) == (1, False)
            assert "not servable" in str(wire.error_from_wire(payload))
            # The session survived the refusal.
            transport.send(wire.request_to_wire(
                2, "blame", {"entity": example["weight-v2"]}))
            _, _, ok, _ = wire.response_from_wire(transport.recv(timeout=10))
            assert ok
        finally:
            transport.close()


class TestFrontendAuth:
    def test_token_gate(self):
        example = build_paper_example()
        cluster = ProvCluster(example.graph, config=ServeConfig(
            replicas=1, frontend=True, frontend_token="sesame"))
        try:
            address = cluster.frontend.address
            with pytest.raises(ReplicaUnavailable, match="refused"):
                FrontendClient(address, token="wrong")
            with pytest.raises(ReplicaUnavailable, match="refused"):
                FrontendClient(address)                  # missing token
            with FrontendClient(address, token="sesame") as client:
                client.blame(example["weight-v2"])
            assert cluster.frontend.auth_failures == 2
        finally:
            cluster.close()

    def test_garbage_hello_refused(self, fe_cluster):
        example, cluster = fe_cluster
        sock = socket.create_connection(cluster.frontend.address)
        transport = LineTransport.over_socket(sock)
        try:
            transport.send({"kind": "hello", "format": "repro-wire-v1"})
            frame = transport.recv(timeout=10)
            assert (frame["kind"], frame["event"]) == ("event", "bad-hello")
        finally:
            transport.close()


# ---------------------------------------------------------------------------
# Admission control, backpressure, fairness
# ---------------------------------------------------------------------------


class TestAdmissionControl:
    def test_flood_past_budget_gets_overloaded_never_a_hang(self):
        example = build_paper_example()
        cluster = ProvCluster(example.graph, config=ServeConfig(
            replicas=1, frontend=True,
            max_inflight=8, admission_budget=8, session_budget=8))
        try:
            gate = threading.Event()
            real = cluster.query_many

            def gated(specs, **kwargs):
                gate.wait(timeout=30)
                return real(specs, **kwargs)

            cluster.query_many = gated
            address = cluster.frontend.address
            graph = example.graph
            target = example["weight-v2"]
            greedy = FrontendClient(address, client="greedy", graph=graph,
                                    timeout=60.0)
            late = FrontendClient(address, client="late", timeout=10.0)
            try:
                outcome = []
                filler = threading.Thread(target=lambda: outcome.append(
                    greedy.query_many(
                        [("lineage", {"entity": target})] * 8)))
                filler.start()
                # The full budget is admitted (and parked behind the gate)...
                assert _wait_until(
                    lambda: cluster.frontend.admitted >= 8)
                # ...so the next request is rejected *immediately* with the
                # typed error — the 10 s client timeout proves "no hang".
                with pytest.raises(Overloaded):
                    late.blame(target)
                assert cluster.frontend.overloaded_rejections >= 1
                gate.set()
                filler.join(timeout=60)
                assert not filler.is_alive()
                # The admitted flood itself was served fine.
                [results] = outcome
                assert len(results) == 8
                assert all(r.vertices == lineage(graph, target).vertices
                           for r in results)
                # Budget fully released once served.
                assert _wait_until(lambda: cluster.frontend.admitted == 0)
                # The rejected client's session survived the rejection.
                assert late.blame(target) == blame(graph, target)
            finally:
                gate.set()
                greedy.close()
                late.close()
        finally:
            cluster.close()

    def test_oversized_bundle_rejected_whole(self):
        example = build_paper_example()
        cluster = ProvCluster(example.graph, config=ServeConfig(
            replicas=1, frontend=True, session_budget=4,
            max_inflight=8, admission_budget=8))
        try:
            target = example["weight-v2"]
            with FrontendClient(cluster.frontend.address) as client:
                results = client.query_many(
                    [("blame", {"entity": target})] * 5)
            assert len(results) == 5
            assert all(isinstance(r, Overloaded) for r in results)
        finally:
            cluster.close()


class TestBackpressure:
    def test_stalled_reader_stays_bounded_and_starves_no_one(self):
        """A client that floods 200 requests and never reads its answers
        holds at most ``session_budget`` slots of server state, while a
        well-behaved client on the same front-end is served promptly."""
        example = build_paper_example()
        budget = 4
        cluster = ProvCluster(example.graph, config=ServeConfig(
            replicas=1, frontend=True, session_budget=budget,
            max_inflight=8, admission_budget=64))
        try:
            real = cluster.query_many

            def slowed(specs, **kwargs):
                time.sleep(0.005)        # keep the flood in flight a while
                return real(specs, **kwargs)

            cluster.query_many = slowed
            address = cluster.frontend.address
            graph = example.graph
            target = example["weight-v2"]
            sock = socket.create_connection(address)
            stalled = LineTransport.over_socket(sock)
            try:
                stalled.send(wire.client_hello_frame("stalled"))
                wire.welcome_from_wire(stalled.recv(timeout=10))
                for request_id in range(1, 201):
                    stalled.send(wire.request_to_wire(
                        request_id, "lineage", {"entity": target}))
                # While the flood is mid-flight: the live client gets
                # served, and every snapshot of the stalled session is
                # within budget.
                peak_held = 0
                peak_outbound = 0
                with FrontendClient(address, graph=graph) as live:
                    for _ in range(20):
                        assert live.blame(target) == blame(graph, target)
                        for entry in cluster.frontend.stats()["sessions"]:
                            if entry["client"] != "stalled":
                                continue
                            peak_held = max(peak_held, entry["unanswered"])
                            peak_outbound = max(peak_outbound,
                                                entry["outbound"])
                assert 0 < peak_held <= budget
                # Reader-gated answers plus in-flight responses: the
                # response queue is bounded by discipline at 2x budget.
                assert peak_outbound <= 2 * budget
            finally:
                stalled.close()
        finally:
            cluster.close()


class TestFairnessGather:
    """Unit tests of the round-robin gather (no sockets involved)."""

    @staticmethod
    def _frontend(max_inflight=100):
        dummy_cluster = SimpleNamespace(config=None)
        return AsyncFrontend(dummy_cluster,
                             config=ServeConfig(max_inflight=max_inflight,
                                                admission_budget=max_inflight))

    @staticmethod
    def _session(frontend, session_id, items):
        session = _ClientSession(session_id, f"c{session_id}")
        for _ in range(items):
            session.inbound.append(_WorkItem(session, False, [object()]))
        frontend._sessions[session_id] = session
        return session

    def test_one_item_per_session_per_rotation(self):
        frontend = self._frontend()
        a = self._session(frontend, 1, items=5)
        b = self._session(frontend, 2, items=1)
        c = self._session(frontend, 3, items=1)
        batch = frontend._gather_batch()
        # Everyone's head-of-line item is in the batch — the deep queue
        # did not crowd out the shallow ones.
        owners = [item.session.id for item in batch]
        assert set(owners[:3]) == {1, 2, 3}
        assert len(batch) == 7 and owners.count(1) == 5

    def test_rotation_origin_advances(self):
        frontend = self._frontend(max_inflight=1)
        self._session(frontend, 1, items=3)
        self._session(frontend, 2, items=3)
        firsts = [frontend._gather_batch()[0].session.id for _ in range(4)]
        # With a one-request batch cap, alternating origins mean the two
        # sessions take strict turns being served first.
        assert firsts[0] != firsts[1]
        assert firsts[:2] * 2 == firsts

    def test_batch_caps_at_max_inflight(self):
        frontend = self._frontend(max_inflight=3)
        self._session(frontend, 1, items=10)
        batch = frontend._gather_batch()
        assert len(batch) == 3


# ---------------------------------------------------------------------------
# Work-conserving dispatch: one batch per idle worker
# ---------------------------------------------------------------------------


class TestConcurrentDispatch:
    #: Runs out its wall-clock budget inside the worker: a request of
    #: known service time, answered with a typed QueryTimeout.
    SLOW_S = 0.4
    SLOW = ("MATCH (a:E)<-[:U|G*]-(b:E) MATCH (c:E)<-[:U|G*]-(d:E) "
            "RETURN a LIMIT 999999999")

    @pytest.fixture(scope="class")
    def oop_frontend(self, pd_medium):
        cluster = ProvCluster(pd_medium.graph, config=ServeConfig(
            replicas=2, out_of_process=True, frontend=True))
        try:
            yield pd_medium, cluster
        finally:
            cluster.close()

    def test_two_readers_are_served_side_by_side(self, oop_frontend):
        from repro.errors import QueryTimeout
        from repro.query.cypherlite import Budget

        _instance, cluster = oop_frontend
        served_before = [r.queries_served for r in cluster.replicas]
        budget = Budget(timeout_seconds=self.SLOW_S, max_expansions=10 ** 9)
        outcomes = []

        def ask():
            with FrontendClient(cluster.frontend.address,
                                timeout=60.0) as client:
                started = time.perf_counter()
                try:
                    client.cypher(self.SLOW, budget)
                except QueryTimeout:
                    outcomes.append(time.perf_counter() - started)

        readers = [threading.Thread(target=ask) for _ in range(2)]
        started = time.perf_counter()
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=60)
        wall = time.perf_counter() - started
        assert len(outcomes) == 2 and min(outcomes) >= self.SLOW_S
        # Reader B did not wait out reader A's service time...
        assert cluster.frontend.stats()["max_concurrent_batches"] == 2
        assert wall < 2 * self.SLOW_S
        # ...because each batch leased a worker of its own.
        served = [r.queries_served - before for r, before
                  in zip(cluster.replicas, served_before)]
        assert served == [1, 1]

    def test_a_wide_bundle_at_an_idle_pool_uses_every_worker(
            self, oop_frontend):
        instance, cluster = oop_frontend
        graph = instance.graph
        tiles = list(instance.entities)[-16:]
        served_before = [r.queries_served for r in cluster.replicas]
        batches_before = cluster.frontend.batches_dispatched
        with FrontendClient(cluster.frontend.address) as client:
            results = client.query_many(
                [("lineage", {"entity": tile}) for tile in tiles])
        assert [r.vertices for r in results] \
            == [lineage(graph, tile).vertices for tile in tiles]
        assert cluster.frontend.batches_dispatched == batches_before + 1
        served = [r.queries_served - before for r, before
                  in zip(cluster.replicas, served_before)]
        assert served == [8, 8]

    def test_pipelined_frames_are_answered_in_request_order(
            self, oop_frontend):
        """A session has frames in at most one batch at a time, so a
        client that pipelines sees its answers in the order it asked —
        even with an idle second worker that could overtake."""
        instance, cluster = oop_frontend
        entities = list(instance.entities)
        sock = socket.create_connection(cluster.frontend.address)
        stream = LineTransport.over_socket(sock)
        try:
            stream.send(wire.client_hello_frame("pipeliner"))
            wire.welcome_from_wire(stream.recv(timeout=10))
            # Expensive first, cheap after: full-depth lineage of the
            # youngest entities, then depth-1 walks of the oldest.
            asks = [(entity, None) for entity in entities[-6:]] \
                + [(entity, 1) for entity in entities[:6]]
            for request_id, (entity, depth) in enumerate(asks, 1):
                stream.send(wire.request_to_wire(
                    request_id, "lineage",
                    {"entity": entity, "max_depth": depth}))
            order = [wire.response_from_wire(stream.recv(timeout=30))[0]
                     for _ in asks]
            assert order == list(range(1, len(asks) + 1))
        finally:
            stream.close()


# ---------------------------------------------------------------------------
# Crash rerouting through the front-end
# ---------------------------------------------------------------------------


class TestCrashRerouting:
    def test_worker_crash_mid_bundles_drops_no_client(self):
        """Kill a worker while two clients' bundles are multiplexed in
        flight: the pool reroutes and both clients get full answers."""
        example = build_paper_example()
        cluster = ProvCluster(example.graph, config=ServeConfig(
            replicas=2, out_of_process=True, frontend=True))
        try:
            gate = threading.Event()
            real = cluster.query_many

            def gated(specs, **kwargs):
                gate.wait(timeout=60)
                return real(specs, **kwargs)

            cluster.query_many = gated
            address = cluster.frontend.address
            graph = example.graph
            target = example["weight-v2"]
            clients = {name: FrontendClient(address, client=name,
                                            graph=graph, timeout=120.0)
                       for name in ("a", "b")}
            results = {}
            try:
                threads = [
                    threading.Thread(target=lambda n=name, c=client: (
                        results.__setitem__(n, c.query_many([
                            ("lineage", {"entity": target}),
                            ("blame", {"entity": target}),
                        ]))))
                    for name, client in clients.items()]
                for thread in threads:
                    thread.start()
                # Both bundles admitted and parked behind the gate...
                assert _wait_until(
                    lambda: cluster.frontend.admitted >= 4, timeout=30)
                # ...then the casualty dies before dispatch proceeds.
                cluster.pool.clients[0].proc.kill()
                gate.set()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
                for name in ("a", "b"):
                    lineage_result, blame_result = results[name]
                    assert lineage_result.vertices \
                        == lineage(graph, target).vertices
                    assert blame_result == blame(graph, target)
            finally:
                gate.set()
                for client in clients.values():
                    client.close()
        finally:
            cluster.close()


class TestRawQueryMany:
    """The front-end's splice path: ``query_many(raw=True)`` leaves ok
    worker answers in wire form (no decode/re-encode round trip)."""

    def test_raw_results_are_undecoded_wire_payloads(self):
        example = build_paper_example()
        cluster = ProvCluster(example.graph, config=ServeConfig(
            replicas=2, out_of_process=True))
        try:
            target = example["weight-v2"]
            raw = cluster.query_many([
                ("lineage", {"entity": target}),
                ("blame", {"entity": target}),
                ("blame", {"entity": 10 ** 6}),
            ], raw=True)
            assert isinstance(raw[0], RawResult)
            assert raw[0].method == "lineage"
            assert wire.lineage_from_wire(raw[0].payload.value).vertices \
                == lineage(example.graph, target).vertices
            assert wire.blame_from_wire(raw[1].payload.value) \
                == blame(example.graph, target)
            # Per-request error isolation is unchanged by raw mode.
            assert isinstance(raw[2], VertexNotFound)
        finally:
            cluster.close()

    def test_raw_in_process_covers_bounded_queries(self):
        """In-process workers answer in wire form too — bounded segments
        included, since every query crosses the link; one the codec
        refuses is its own SerializationError entry."""
        example = build_paper_example()
        graph = example.graph
        target = example["weight-v2"]
        bounded = PgSegQuery(
            src=(example["dataset-v1"],), dst=(target,),
            boundaries=BoundaryCriteria().exclude_vertices(
                property_not_equals("command", "update")))
        opaque = PgSegQuery(
            src=(example["dataset-v1"],), dst=(target,),
            boundaries=BoundaryCriteria().exclude_vertices(lambda v: False))
        cluster = ProvCluster(graph, replicas=1)
        try:
            walk, segment, refused = cluster.query_many(
                [("lineage", {"entity": target}),
                 ("segment", {"query": bounded}),
                 ("segment", {"query": opaque})], raw=True)
            assert isinstance(walk, RawResult)
            assert wire.lineage_from_wire(walk.payload.value).vertices \
                == lineage(graph, target).vertices
            assert isinstance(segment, RawResult)
            assert segment.payload.value == wire.segment_to_wire(
                PgSegOperator(graph).evaluate(bounded))
            assert isinstance(refused, SerializationError)
        finally:
            cluster.close()


# ---------------------------------------------------------------------------
# Conditional answers: an unchanged answer crosses the client edge as a tag
# ---------------------------------------------------------------------------


def _spy_frames(client):
    """Record every frame ``client`` reads, as parsed off the socket."""
    frames = []
    recv = client.transport.recv

    def spy(timeout=None):
        frame = recv(timeout=timeout)
        frames.append(frame)
        return frame

    client.transport.recv = spy
    return frames


def _bundle_answers(frames):
    """The inner responses of the last ``responses`` frame read."""
    bundle = [frame for frame in frames if frame["kind"] == "responses"][-1]
    return bundle["responses"]


class TestConditionalAnswers:
    """``FrontendClient.query_many`` names the tag of the answer it holds
    (``have``); the front-end answers ``same`` with no ``result`` when
    the answer has not changed, and the client decodes its held value
    again — into an object of the caller's own."""

    @staticmethod
    def _tiles(example):
        text = f"MATCH (e:E) WHERE id(e) = {example['weight-v1']} RETURN id(e)"
        return [
            QuerySpec.lineage(example["weight-v3"]),
            QuerySpec.blame(example["weight-v2"]),
            QuerySpec.blame(example["weight-v3"]),
            QuerySpec.segment(PgSegQuery(src=(example["dataset-v1"],),
                                         dst=(example["weight-v1"],))),
            QuerySpec.cypher(text),
        ]

    @staticmethod
    def _expected(example, tiles):
        """The leader's answers, in the form a graph-free client gets."""
        graph = example.graph
        answers = []
        for spec in tiles:
            method, params = spec.as_tuple()
            if method == "lineage":
                answers.append(lineage(graph, params["entity"]))
            elif method == "blame":
                answers.append(blame(graph, params["entity"]))
            elif method == "segment":
                answers.append(wire.segment_to_wire(
                    PgSegOperator(graph).evaluate(params["query"])))
            else:
                answers.append(wire.rows_to_wire(
                    run_query(graph, params["text"])))
        return answers

    def test_a_second_identical_bundle_is_all_same(self, fe_cluster):
        example, cluster = fe_cluster
        tiles = self._tiles(example)
        unchanged = cluster.frontend.unchanged_answers
        with FrontendClient(cluster.frontend.address) as client:
            frames = _spy_frames(client)
            first = client.query_many(tiles)
            full = _bundle_answers(frames)
            assert all("result" in answer and not answer.get("same")
                       for answer in full)
            second = client.query_many(tiles)
            again = _bundle_answers(frames)
        assert first == second == self._expected(example, tiles)
        for shipped, answer in zip(full, again):
            assert answer["ok"] and answer["same"] is True
            assert "result" not in answer
            assert answer["tag"] == shipped["tag"]
        assert cluster.frontend.unchanged_answers - unchanged == len(tiles)
        stats = cluster.stats()["frontend"]
        assert stats["unchanged_answers"] == cluster.frontend.unchanged_answers

    def test_a_write_ships_only_the_tile_it_changed(self):
        example = build_paper_example()
        graph = example.graph
        tiles = self._tiles(example)
        before = self._expected(example, tiles)
        with ProvCluster(graph, config=ServeConfig(
                replicas=2, frontend=True)) as cluster, \
                FrontendClient(cluster.frontend.address) as client:
            frames = _spy_frames(client)
            assert client.query_many(tiles) == before
            tags = [answer["tag"] for answer in _bundle_answers(frames)]
            # model-v2 is an ancestor of weight-v2 only: one blame tile.
            graph.was_attributed_to(example["model-v2"], example["Bob"])
            after = self._expected(example, tiles)
            changed = [index for index, (old, new)
                       in enumerate(zip(before, after)) if old != new]
            assert changed == [1]
            assert client.query_many(tiles) == after
            answers = _bundle_answers(frames)
        for index, answer in enumerate(answers):
            if index in changed:
                assert "same" not in answer and "result" in answer
                assert answer["tag"] != tags[index]
            else:
                assert answer["same"] is True and "result" not in answer
                assert answer["tag"] == tags[index]

    def test_mutating_a_returned_answer_leaves_the_next_one_whole(
            self, fe_cluster):
        example, cluster = fe_cluster
        tiles = self._tiles(example)
        expected = self._expected(example, tiles)
        with FrontendClient(cluster.frontend.address) as client:
            for _ in range(3):         # the shipped answer, then `same` twice
                walk, report, _, segment, rows = answers = \
                    client.query_many(tiles)
                assert answers == expected
                walk.vertices.add(-1)
                walk.levels[0].entities.append(-1)
                next(iter(report.values())).add(-1)
                report[-1] = {-1}
                segment["vertices"].append(-1)
                next(iter(segment["categories"].values())).append("x")
                segment["extra"] = True
                rows[0]["col0"] = -1
                rows.append({"col0": -2})

    def test_non_string_have_fails_only_its_own_request(self, fe_cluster):
        example, cluster = fe_cluster
        target = example["weight-v2"]
        sock = socket.create_connection(cluster.frontend.address)
        transport = LineTransport.over_socket(sock)
        try:
            transport.send(wire.client_hello_frame("probe"))
            wire.welcome_from_wire(transport.recv(timeout=10))
            bundle = wire.requests_bundle_to_wire(
                [(1, "lineage", {"entity": target, "max_depth": None}),
                 (2, "blame", {"entity": target}),
                 (3, "blame", {"entity": target})], haves=[None, "", None])
            bundle["requests"][0]["have"] = 7
            transport.send(bundle)
            first, second, third = wire.responses_bundle_from_wire(
                transport.recv(timeout=10))[1]
            request_id, _, ok, payload = wire.response_from_wire(first)
            assert (request_id, ok) == (1, False)
            assert isinstance(wire.error_from_wire(payload),
                              SerializationError)
            # A conditional sibling is tagged; an unconditional one is
            # byte-identical to a pre-tag answer.
            assert second["ok"] and "result" in second and second["tag"]
            assert third["ok"] and set(third) == {
                "kind", "format", "id", "epoch", "ok", "result"}
            assert wire.blame_from_wire(third["result"]) \
                == blame(example.graph, target)
            # A lone request with a bad `have` is answered, not dropped.
            request = wire.request_to_wire(4, "blame", {"entity": target})
            request["have"] = ["not", "a", "tag"]
            transport.send(request)
            request_id, _, ok, payload = wire.response_from_wire(
                transport.recv(timeout=10))
            assert (request_id, ok) == (4, False)
            assert isinstance(wire.error_from_wire(payload),
                              SerializationError)
        finally:
            transport.close()

    def test_the_held_store_stays_at_its_bound(self, fe_cluster):
        example, cluster = fe_cluster
        target = example["weight-v2"]
        specs = [QuerySpec.lineage(target, max_depth=depth)
                 for depth in range(HELD_ANSWERS + 40)]
        with FrontendClient(cluster.frontend.address) as client:
            frames = _spy_frames(client)
            for start in range(0, len(specs), 40):
                client.query_many(specs[start:start + 40])
                assert len(client._held) <= HELD_ANSWERS
            assert len(client._held) == HELD_ANSWERS
            # Least recently used first out: the newest are still held,
            # the oldest are asked for again unconditionally.
            client.query_many(specs[-40:])
            assert all(answer["same"] for answer in _bundle_answers(frames))
            client.query_many(specs[:40])
            assert not any(answer.get("same")
                           for answer in _bundle_answers(frames))
            assert len(client._held) == HELD_ANSWERS
            assert client._asked == {} and client._methods == {}

    def test_single_calls_never_opt_in(self, fe_cluster):
        example, cluster = fe_cluster
        target = example["weight-v2"]
        with FrontendClient(cluster.frontend.address) as client:
            frames = _spy_frames(client)
            client.blame(target)
            client.query("blame", {"entity": target})
            assert client._held == {}
            for frame in frames:
                assert frame["kind"] == "response"
                assert "tag" not in frame and "same" not in frame

    def test_an_error_or_a_foreign_same_drops_the_held_answer(
            self, fe_cluster):
        """An error answer drops the held one; a ``same`` naming a tag
        the client does not hold is a typed error, never a stale hit."""
        example, cluster = fe_cluster
        spec = QuerySpec.blame(example["weight-v2"])
        with FrontendClient(cluster.frontend.address) as client:
            client.query_many([spec])
            (key, (tag, _)), = client._held.items()
            for frame in (
                    wire.response_to_wire(0, 0, error=wire.error_to_wire(
                        VertexNotFound("gone"))),
                    wire.response_to_wire(0, 0, tag="f" * 32, same=True)):
                client.query_many([spec])          # held again
                client._next_id += 1
                request_id = client._next_id
                client._methods[request_id] = "blame"
                client._asked[request_id] = (key, client._held[key])
                frame["id"] = request_id
                client._absorb(frame)
                assert key not in client._held
                with pytest.raises((VertexNotFound, SerializationError)):
                    client.collect(request_id)
            # The next ask is unconditional and ships the answer again.
            assert client.query_many([spec]) == [
                blame(example.graph, example["weight-v2"])]
            assert client._held[key][0] == tag


# ---------------------------------------------------------------------------
# Unified stats schema + idempotent teardown
# ---------------------------------------------------------------------------


class TestClusterStats:
    def test_schema_uniform_across_replica_flavors(self):
        example = build_paper_example()
        for config in (ServeConfig(replicas=2),
                       ServeConfig(replicas=2, out_of_process=True)):
            cluster = ProvCluster(example.graph, config=config)
            try:
                cluster.blame(example["weight-v2"])
                stats = cluster.stats()
                assert stats["leader_epoch"] == cluster.leader_epoch
                assert len(stats["replicas"]) == 2
                for entry in stats["replicas"]:
                    missing = set(ProvCluster.REPLICA_STAT_KEYS) \
                        - set(entry)
                    assert not missing, missing
            finally:
                cluster.close()

    def test_generation_tracks_restarts(self):
        example = build_paper_example()
        cluster = ProvCluster(example.graph,
                              config=ServeConfig(replicas=1,
                                                 out_of_process=True))
        try:
            target = example["weight-v2"]
            casualty = cluster.pool.clients[0]
            casualty.proc.kill()
            cluster.blame(target)              # routed retry restarts it
            [entry] = cluster.stats()["replicas"]
            assert entry["generation"] == casualty.restarts >= 1
        finally:
            cluster.close()

    def test_frontend_section_present_when_enabled(self):
        example = build_paper_example()
        cluster = ProvCluster(example.graph,
                              config=ServeConfig(replicas=1, frontend=True))
        try:
            stats = cluster.stats()
            assert stats["frontend"]["address"] == cluster.frontend.address
        finally:
            cluster.close()
        assert ProvCluster(
            example.graph, replicas=1).stats()["frontend"] is None

    def test_ping_attaches_worker_stats(self):
        example = build_paper_example()
        cluster = ProvCluster(example.graph,
                              config=ServeConfig(replicas=1,
                                                 out_of_process=True))
        try:
            [entry] = cluster.stats(ping=True)["replicas"]
            assert entry["worker"] is not None
        finally:
            cluster.close()

    def test_ping_failure_reports_replica_not_alive(self):
        """A worker that cannot answer a ping *now* must not be reported
        healthy off a stale health-check flag: the stats entry flips
        ``alive`` to False the moment the ping fails (regression — the
        ping exception used to only null out the worker stats while the
        cached ``alive: True`` kept being served)."""
        example = build_paper_example()
        cluster = ProvCluster(example.graph,
                              config=ServeConfig(replicas=1,
                                                 out_of_process=True))
        try:
            client = cluster.pool.clients[0]
            assert client.alive()              # process-level flag: healthy

            def hung_ping(*args, **kwargs):
                raise TimeoutError("pong never arrived")

            client.ping = hung_ping
            [entry] = cluster.stats(ping=True)["replicas"]
            assert entry["alive"] is False
            assert entry["worker"] is None
        finally:
            cluster.close()


class TestStopServing:
    def test_idempotent_with_a_dead_worker(self):
        example = build_paper_example()
        session = LifecycleSession(example.graph)
        session.serve(config=ServeConfig(replicas=2, out_of_process=True))
        session.cluster.pool.clients[0].proc.kill()
        session.stop_serving()               # casualty mid-shutdown: fine
        session.stop_serving()               # and again: a no-op
        assert session.cluster is None

    def test_serve_accepts_config_and_rejects_mixing(self):
        example = build_paper_example()
        session = LifecycleSession(example.graph)
        with pytest.raises(ConfigError, match="either"):
            session.serve(replicas=2, config=ServeConfig(replicas=2))
        session.serve(config=ServeConfig(replicas=1))
        try:
            assert session.cluster.config.replicas == 1
        finally:
            session.stop_serving()
