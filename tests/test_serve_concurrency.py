"""Ungated threaded stress of the serving stack: the lease rule, live.

Every replica object has one owner at a time (``WorkerClient.lease`` /
``Replica.lease``), the async front-end runs one batch per idle worker,
and nothing outside the program serialises anybody: a writer thread, two
front-end readers and a leader-side thread all go at one 2-worker
out-of-process cluster at once. Before the lease, the leader-side calls
raced the front-end's executor on the same socket (a ``summarize`` could
read a batch's frames and strand for the 120 s request timeout) — the
ledger's ``harness.Gate`` exists to keep its threads from doing this.

The request stream is *append-stable*: the writer only appends runs that
hang off one designated root entity (``anchor``) and its own outputs, and
nobody asks anything whose answer such a run can change (``impacted`` of
the anchor, label scans). An answer is therefore the same at every epoch
from its stamp on, so "bit-identical to a leader recompute at its
stamped epoch" can be checked against one recompute — and the test
checks that premise itself, by recomputing before and after the writes.

Every wait is bounded: a deadlock fails with a dump of every thread's
stack (``faults.join_or_dump``), it never hangs the job.
"""

import gc
import random
import signal
import sys
import threading
import time

import pytest

from repro.query.cypherlite import run_query
from repro.query.ops import blame, impacted, lineage
from repro.segment.pgseg import PgSegOperator, PgSegQuery
from repro.serve import wire
from repro.serve.api import ServeConfig
from repro.serve.cluster import ProvCluster
from repro.serve.frontend import FrontendClient
from repro.summarize.pgsum import PgSumOperator, PgSumQuery
from repro.workloads.pd_generator import generate_pd_sized
from faults import join_or_dump, open_fds

WINDOW_S = 2.5
#: Generous: the window plus every thread's last request on a loaded box.
JOIN_S = 90.0


def serve(graph):
    return ProvCluster(graph, config=ServeConfig(
        replicas=2, out_of_process=True, frontend=True))


def expected_answer(graph, operator, method, params):
    """The leader's own answer, in the form a graph-free client sees."""
    if method == "lineage":
        return lineage(graph, params["entity"],
                       max_depth=params.get("max_depth"))
    if method == "impacted":
        return impacted(graph, params["entity"],
                        max_depth=params.get("max_depth"))
    if method == "blame":
        return blame(graph, params["entity"])
    if method == "segment":
        return wire.segment_to_wire(operator.evaluate(params["query"]))
    return wire.rows_to_wire(run_query(graph, params["text"]))


class Workload:
    """The seeded graph, the append-stable request stream, the writer."""

    def __init__(self):
        instance = generate_pd_sized(300, seed=5)
        self.graph = graph = instance.graph
        entities = list(instance.entities)
        roots = [entity for entity in entities
                 if not graph.generating_activities(entity)]
        self.anchor = roots[-1]
        src = tuple(roots[:2])
        names = [graph.vertex(entity).properties["name"]
                 for entity in entities]
        asked = [entity for entity in entities if entity != self.anchor]
        deep = asked[-24:]
        self.queries = [PgSegQuery(src=src, dst=(dst,)) for dst in deep[-6:]]
        self.stream = (
            [("lineage", {"entity": entity, "max_depth": None})
             for entity in deep]
            + [("impacted", {"entity": entity, "max_depth": None})
               for entity in asked[:12]]
            + [("blame", {"entity": entity}) for entity in deep[:12]]
            + [("segment", {"query": query}) for query in self.queries]
            + [("cypher", {"text": "MATCH (e:E) WHERE e.name = "
                                   f"'{name}' RETURN id(e)"})
               for name in names[:6]])
        #: Outputs of completed runs, oldest first (append-only, so a
        #: reader may index it while the writer appends).
        self.written: list[int] = []

    def recompute(self):
        operator = PgSegOperator(self.graph)
        return [expected_answer(self.graph, operator, *spec)
                for spec in self.stream]

    def append_run(self, tag):
        graph = self.graph
        activity = graph.add_activity(command=f"stress-{tag}")
        graph.used(activity, self.anchor)
        if self.written:
            graph.used(activity, self.written[-1])
        out = graph.add_entity(name=f"stress-out-{tag}")
        graph.was_generated_by(out, activity)
        self.written.append(out)


def run_all(targets, stop):
    """Run every target on its own thread; re-raise the first failure."""
    errors = []

    def guarded(target):
        try:
            target()
        except BaseException as exc:   # noqa: BLE001 - re-raised below
            errors.append(exc)
            stop.set()

    threads = [threading.Thread(target=guarded, args=(target,), name=name,
                                daemon=True)
               for name, target in targets.items()]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)        # more interleavings per second
    try:
        for thread in threads:
            thread.start()
        stop.wait(WINDOW_S)
        stop.set()
        join_or_dump(threads, JOIN_S)
    finally:
        sys.setswitchinterval(interval)
    if errors:
        raise errors[0]


def pipelined_order(client, specs):
    """Send ``specs`` as separate frames back to back; return the request
    ids in *arrival* order alongside the ids in request order."""
    ids = [client.begin(*wire.query_call_to_wire(*spec)) for spec in specs]
    arrived = []
    while len(arrived) < len(ids):
        frame = client.transport.recv(timeout=client.timeout)
        if frame.get("kind") == "response":
            arrived.append(wire.response_from_wire(frame)[0])
        client._absorb(frame)
    return ids, arrived


def test_writer_readers_and_leader_side_calls_ungated():
    load = Workload()
    graph = load.graph
    before = load.recompute()
    stop = threading.Event()
    #: (stream index, answer) per reader; (entity, answer) for the
    #: read-your-writes probes of the writer's newest output.
    answers = [[], []]
    fresh = [[], []]
    strict = []
    orders = []
    leader_checks = {"summarize": 0, "lineage": 0, "health_check": 0}
    cold_summary = wire.psg_to_wire(PgSumOperator(
        [PgSegOperator(graph).evaluate(query)
         for query in load.queries[:2]]).evaluate(PgSumQuery()))

    with serve(graph) as cluster:
        clients = [FrontendClient(cluster.frontend.address,
                                  client=f"reader{index}", timeout=60.0)
                   for index in range(2)]
        try:
            for client in clients:      # both workers warm, lazily set up
                client.query_many(load.stream[:4])
            gc.collect()
            fds = open_fds()

            def writer():
                tag = 0
                while not stop.is_set():
                    load.append_run(tag)
                    cluster.refresh()
                    tag += 1
                    time.sleep(0.002)

            def reader(index):
                client, mine = clients[index], answers[index]
                stream = load.stream
                turn = index * 7
                while not stop.is_set():
                    at = turn % len(stream)
                    if turn % 3 == 0:          # one bundle frame
                        picks = [(at + step) % len(stream)
                                 for step in range(5)]
                        results = client.query_many(
                            [stream[pick] for pick in picks])
                        mine.extend(zip(picks, results))
                    elif turn % 3 == 1 and index == 0:   # pipelined frames
                        picks = [(at + step) % len(stream)
                                 for step in range(4)]
                        ids, arrived = pipelined_order(
                            client, [stream[pick] for pick in picks])
                        orders.append((ids, arrived))
                        mine.extend((pick, client.collect(request_id))
                                    for pick, request_id in zip(picks, ids))
                    else:                      # one single frame
                        mine.append((at, client.query(
                            *wire.query_call_to_wire(*stream[at]))))
                    if load.written:
                        newest = load.written[-1]
                        fresh[index].append(
                            (newest, client.lineage(newest)))
                    turn += 1

            def leader_side():
                turn = 0
                while not stop.is_set():
                    if turn % 3 == 0:
                        served = cluster.summarize(load.queries[:2])
                        assert wire.psg_to_wire(served) == cold_summary
                        leader_checks["summarize"] += 1
                    elif turn % 3 == 1 and load.written:
                        newest = load.written[-1]
                        strict.append((newest, cluster.lineage(newest)))
                        leader_checks["lineage"] += 1
                    else:
                        assert cluster.health_check() == []
                        leader_checks["health_check"] += 1
                    turn += 1

            run_all({"writer": writer, "reader0": lambda: reader(0),
                     "reader1": lambda: reader(1),
                     "leader-side": leader_side}, stop)

            gc.collect()
            assert open_fds() <= fds
            stats = cluster.stats()
            frontend = stats["frontend"]
        finally:
            for client in clients:
                client.close()

    # The premise: no answer in the stream depends on the epoch.
    after = load.recompute()
    assert after == before
    assert len(load.written) > 10 and all(leader_checks.values())
    for mine in answers:
        assert len(mine) > 20
        for at, answer in mine:
            assert not isinstance(answer, BaseException), answer
            assert answer == after[at], load.stream[at]
    # Read-your-writes through the concurrent path: a run that was
    # complete when the request was sent is wholly in the answer.
    # (Recomputed here, not in the window: the leader graph itself is
    # single-writer, and the writer was running.)
    for probes in (*fresh, strict):
        assert probes
        for entity, answer in probes:
            assert answer == lineage(graph, entity)
    # One frame in flight per session: pipelined frames answered in order.
    assert orders and all(arrived == ids for ids, arrived in orders)
    assert frontend["max_concurrent_batches"] == 2
    assert frontend["overloaded_rejections"] == 0
    for replica in stats["replicas"]:
        assert replica["queries_served"] > 0
        assert (replica["restarts"], replica["late_responses"],
                replica["timeouts"], replica["poisoned"]) == (0, 0, 0, 0)


def test_conditional_refreshes_match_the_leader_at_their_stamp():
    """A dashboard refreshes conditionally (``FrontendClient.query_many``
    sends the tag of each answer it holds) while a writer attributes
    ancestors of its tiles to agents, one epoch per write, so blame and
    segment answers keep changing. Every tile of every refresh, whether
    it came back in full or as ``same``, equals the leader's recompute
    at the refresh's stamped epoch when no write landed during the
    refresh. Otherwise it equals the recompute at some epoch between the
    stamp and the leader's epoch on arrival, because a worker catches up
    to the leader, which may be past the stamp."""
    load = Workload()
    graph = load.graph
    rng = random.Random(11)
    targets = [params["entity"] for method, params in load.stream
               if method == "blame"][:4]
    tiles = ([("lineage", {"entity": entity, "max_depth": 2})
              for entity in targets]
             + [("blame", {"entity": entity}) for entity in targets]
             + [("segment", {"query": query})
                for query in load.queries[:2]])
    roots = targets + [dst for query in load.queries[:2]
                       for dst in query.dst]
    ancestors = sorted(vertex for root in roots
                       for vertex in lineage(graph, root).vertices
                       if graph.is_entity(vertex))
    agents = list(graph.agents())

    def recompute():
        operator = PgSegOperator(graph)
        return [expected_answer(graph, operator, *tile) for tile in tiles]

    expected = {graph.store.epoch: recompute()}
    refreshes = []
    stop = threading.Event()
    with serve(graph) as cluster:
        client = FrontendClient(cluster.frontend.address, client="dash",
                                timeout=60.0)
        stamps = []
        absorb = client._absorb

        def stamped(frame):
            if frame.get("kind") == "responses":
                stamps.append(frame["epoch"])
            absorb(frame)

        client._absorb = stamped
        try:
            def writer():
                while not stop.is_set():
                    epoch = graph.store.epoch
                    graph.was_attributed_to(rng.choice(ancestors),
                                            rng.choice(agents))
                    assert graph.store.epoch == epoch + 1
                    expected[epoch + 1] = recompute()
                    time.sleep(0.01)

            def reader():
                while not stop.is_set():
                    results = client.query_many(tiles)
                    refreshes.append((stamps[-1], cluster.leader_epoch,
                                      results))

            run_all({"writer": writer, "reader": reader}, stop)
            unchanged = cluster.frontend.unchanged_answers
        finally:
            client.close()

    assert len(refreshes) > 20 and len(expected) > 10
    exact = 0
    for stamp, arrived, results in refreshes:
        for index, answer in enumerate(results):
            assert not isinstance(answer, BaseException), answer
            if stamp == arrived:
                assert answer == expected[stamp][index], tiles[index]
            else:
                assert any(answer == expected[epoch][index]
                           for epoch in range(stamp, arrived + 1)), \
                    tiles[index]
        exact += stamp == arrived
    assert exact > 0
    # Both kinds of answer were exercised: unchanged tiles came back as
    # `same`, and the writes changed some tile between refreshes.
    assert unchanged > 0
    assert any(before[2] != after[2]
               for before, after in zip(refreshes, refreshes[1:]))


def test_strict_read_inside_a_commit_stamps_the_published_epoch():
    """A strict read routed while the writer is inside a commit — its
    mutation applied, its batch not yet in the delta log — stamps the
    epoch the log has published, which a replica can reach; stamping the
    next one failed with "consistency stamp ... is ahead of the leader"
    (the race the stress test above used to hit about 1 run in 6)."""
    load = Workload()
    graph = load.graph
    entity = load.stream[0][1]["entity"]
    log = graph.store.delta_log
    append = log.append
    served = []
    with ProvCluster(graph, config=ServeConfig(replicas=1)) as cluster:

        def racing(batch):
            served.append((graph.store.epoch, batch.epoch,
                           cluster.lineage(entity)))
            append(batch)

        log.append = racing
        try:
            load.append_run(0)
        finally:
            del log.append
    assert len(served) >= 4
    for stamped, committing, answer in served:
        assert stamped == committing - 1
        assert answer == lineage(graph, entity)


def test_kill_mid_batch_reserves_the_share_and_spares_the_other_batch():
    """Worker 0 is frozen with reader A's batch inside it; reader B's
    batch runs on worker 1 meanwhile and is answered as if nothing had
    happened. Worker 0 is then killed: A's share is re-served."""
    load = Workload()
    graph = load.graph
    ask_a, ask_b = load.stream[0], load.stream[1]
    done = {}

    def ask(name, client, spec):
        method, params = spec
        done[name] = client.query(method, params)

    with serve(graph) as cluster:
        casualty, survivor = cluster.replicas
        clients = {name: FrontendClient(cluster.frontend.address,
                                        client=name, timeout=60.0)
                   for name in ("a", "b")}
        try:
            casualty.proc.send_signal(signal.SIGSTOP)
            # The idle FIFO starts in replica order: A's batch leases
            # worker 0 and sticks there...
            thread_a = threading.Thread(
                target=ask, args=("a", clients["a"], ask_a), daemon=True)
            thread_a.start()
            deadline = time.monotonic() + 30
            while cluster.frontend.batches_dispatched < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            # ...while B's leases worker 1 and completes.
            thread_b = threading.Thread(
                target=ask, args=("b", clients["b"], ask_b), daemon=True)
            thread_b.start()
            join_or_dump([thread_b], JOIN_S)
            assert thread_a.is_alive() and "a" not in done
            assert cluster.frontend.stats()["max_concurrent_batches"] == 2
            assert (casualty.queries_served, survivor.queries_served) \
                == (0, 1)
            casualty.proc.kill()
            join_or_dump([thread_a], JOIN_S)
        finally:
            if casualty.proc is not None and casualty.proc.poll() is None:
                casualty.proc.send_signal(signal.SIGCONT)
            for client in clients.values():
                client.close()
        operator = PgSegOperator(graph)
        assert done["a"] == expected_answer(graph, operator, *ask_a)
        assert done["b"] == expected_answer(graph, operator, *ask_b)
        assert (casualty.restarts, survivor.restarts) == (1, 0)
        assert casualty.alive() and casualty.epoch == cluster.leader_epoch
        assert casualty.late_responses == survivor.late_responses == 0
        assert casualty.queries_served + survivor.queries_served == 2


@pytest.mark.parametrize("out_of_process", [False, True])
def test_leases_are_taken_in_replica_order(out_of_process):
    """Two wide batches whose targets arrive in opposite orders must not
    deadlock: ``query_many`` sorts before it locks."""
    load = Workload()
    with ProvCluster(load.graph, replicas=2,
                     out_of_process=out_of_process) as cluster:
        forward = list(cluster.replicas)
        backward = forward[::-1]
        specs = load.stream[:8]
        expected = cluster.query_many(specs)
        failures = []

        def hammer(targets):
            for _ in range(15):
                got = cluster.query_many(specs, targets=targets)
                if got != expected:
                    failures.append(got)

        threads = [threading.Thread(target=hammer, args=(targets,),
                                    daemon=True)
                   for targets in (forward, backward)]
        for thread in threads:
            thread.start()
        join_or_dump(threads, JOIN_S)
        assert not failures
        assert [r.queries_served for r in cluster.replicas] \
            == [4 + 15 * 4 * 2] * 2
