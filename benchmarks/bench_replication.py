"""Single-store live serving vs a 4-replica cluster, mixed read/write.

The serving subsystem's end-to-end gate. The workload is the monitoring
regime the paper motivates: between appends, many analysts refresh the
*same* dashboard questions — so each round on a 12k-vertex Pd lifecycle
graph appends one recorded run (the paper's workload grain, invalidating
every epoch-keyed cache), then serves a read burst of lineage/blame walks
over random entities plus a fixed pool of PgSeg introspection queries each
asked several times (the dashboard fan-in). Three serving modes run the
*same* seeded stream and must produce identical digests:

- **single-store (live)** — the pre-PR1 architecture this bench gates
  against: one process owns the graph, takes the writes, and serves every
  query off the live mutable adjacency, re-deriving each answer per
  request (fresh operator/solver adjacency per PgSeg — no read layer).
- **cluster** — a :class:`repro.serve.cluster.ProvCluster` with 4 read
  replicas, each an in-process :class:`repro.serve.worker.ReplicaWorker`
  behind an in-memory link: writes land on the leader, reads are routed
  with read-your-writes consistency, so every round pays the record
  codecs, batch apply, per-replica snapshot advance, and 4x cold cache
  warm-up *inside the timing* (each replica re-derives a pooled query
  once per epoch before hitting its own caches).
- **single-snapshot** (informational) — the PR 1/2 single-process read
  layer (one advanced snapshot + epoch-synced operator), reported so the
  cluster's replication overhead over the best single-process path is
  visible. It wins on one core — the cluster's point is that the same
  wire protocol shards this read load across processes/machines.

``--out-of-process`` spawns the same four workers as processes: a
4-worker :class:`repro.serve.pool.WorkerPool` over the socket transport,
each round shipping the new epoch to every worker and then fanning the
read burst out across per-worker threads (one client per thread — clients
are fully independent, so the workers answer concurrently; on a
multi-core box the aggregate scales with cores, and even on one core the
workers' warm caches beat the live single store re-deriving every
answer). The digest identity check runs against the same seeded stream,
so wire encode/decode must be value-exact to pass at all.

``--batched`` (implies ``--out-of-process``) gates the PR 5 batching
path: the same read burst served through
:meth:`repro.serve.cluster.ProvCluster.query_many` — one pipelined
``requests`` bundle per worker per round instead of one lockstep round
trip per query — against the *unbatched* out-of-process mode as the
baseline. The workload shifts to the dashboard-fan-in regime the paper
motivates (few fresh walks, the same pooled PgSeg questions asked many
times between appends), which is exactly where per-request round trips
dominate once the worker-side (epoch, request) result cache absorbs the
recompute. Both modes serve the identical seeded stream and must agree
on the digest, so batching cannot pass the gate by answering different
questions.

``--open-loop`` (implies ``--out-of-process``) gates the PR 7 async
front-end under many-client fan-in: 500 simulated clients — asyncio
coroutines, each its own wire-protocol connection through
:class:`repro.serve.frontend.AsyncFrontend` — each run a closed loop of
depth-1 requests (send, await, repeat) against a 4-worker pool, so the
*aggregate* load is hundreds of concurrent requests while each client
sees request/response latency end-to-end. The gated figure is total
throughput versus the blocking per-thread baseline: a
thread-per-connection front-end over the *same* 4-worker pool — every
accepted connection its own OS thread, every request one lockstep
round trip to a round-robin worker under that worker's lock (workers
cannot be shared without one, since ``WorkerClient`` is not
thread-safe). Same wire protocol, same fan-in hop, same client fleet —
the only variable is the serving architecture, so the gate isolates
what multiplexed ``query_many`` batching buys over per-connection
threads (lock convoys, scheduler churn, one round trip per request).
An absolute p99 latency ceiling rides along. Both sides serve the
identical multiset and must agree on the digest, so the front-end
cannot pass by dropping or rerouting requests into different answers.

``--sharded`` (implies ``--out-of-process``) gates the PR 9 sharded
serving layer under **write-heavy ingest**: a property-dominated write
trickle (~4 annotation writes per structural append — the live-lifecycle
regime where artifacts collect notes and metrics far more often than new
runs land) ships every round to either a
:class:`repro.serve.shards.ShardedCluster` of 4 shards x 2 workers or an
*unsharded* 8-worker pool — same worker count, same transport, same
seeded stream. The unsharded pool must apply **every** write on **every**
worker (8 applies per property batch); the sharded cluster broadcasts
only structural batches and routes each property write to its owner
shard's 2 workers, so the ingest fan-out shrinks ~4x on the dominant
write class while reads still scatter across all 8 workers. A fixed
dashboard of shallow lineage tiles (structure-only and therefore
shard-exact) is re-asked between bursts through ``query_many`` and must
produce identical digests on both sides — sharding cannot pass the gate
by serving different answers.

``--trace-overhead`` (implies ``--out-of-process``) gates the PR 8
observability layer's cost: the batched spec stream served with full
instrumentation — a real :class:`repro.obs.MetricsRegistry` in the
leader and every worker (every request pays its counters and
histograms) plus heavy 1-in-16 end-to-end tracing (``trace_id`` on the
wire, a worker compute span back) — against the identical pool running
the no-op registry (``ServeConfig(metrics=False)``). The gated figure
is a throughput *ratio* with a 0.95 floor: metrics + sampled tracing
must cost under 5%. ``--metrics-snapshot PATH`` additionally writes
the instrumented run's cluster-wide metrics document (the same payload
``repro.cli serve-stats`` renders) as a CI artifact.

Replica bootstrap (and worker spawn in ``--out-of-process`` mode)
happens before the timed window — the gate measures steady-state
serving throughput — and is reported separately in the JSON record.

Plain script so CI can smoke it cheaply::

    PYTHONPATH=src python benchmarks/bench_replication.py --quick
    PYTHONPATH=src python benchmarks/bench_replication.py          # full
    PYTHONPATH=src python benchmarks/bench_replication.py --quick \
        --out-of-process --json BENCH_replication_oop.json
    PYTHONPATH=src python benchmarks/bench_replication.py --quick \
        --batched --json BENCH_replication_batched.json
    PYTHONPATH=src python benchmarks/bench_replication.py --quick \
        --open-loop --json BENCH_serving_async.json
    PYTHONPATH=src python benchmarks/bench_replication.py --quick \
        --trace-overhead --json BENCH_trace_overhead.json \
        --metrics-snapshot METRICS_snapshot.json
    PYTHONPATH=src python benchmarks/bench_replication.py --quick \
        --sharded --json BENCH_replication_sharded.json

Exits non-zero when the gated mode's aggregate read throughput is not at
least ``FLOORS[mode]`` times its baseline — the single-store live server
for the cluster modes, the unbatched out-of-process pool for
``--batched`` (``--no-assert`` disables, e.g. on noisy shared machines).
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import random
import socket
import sys
import threading
import time

from repro.errors import TransportClosed
from repro.query.ops import blame, lineage
from repro.segment.pgseg import PgSegOperator, PgSegQuery
from repro.serve import wire as serve_wire
from repro.serve.api import ServeConfig
from repro.serve.cluster import ProvCluster
from repro.serve.transport import LineTransport
from repro.store.snapshot import GraphSnapshot
from repro.workloads.pd_generator import generate_pd_sized

#: Asserted aggregate-read-throughput floors, keyed by mode. ``full`` /
#: ``quick`` and ``*-oop`` gate cluster-vs-live-single-store; ``*-batched``
#: gates the batched pipeline vs the *unbatched* out-of-process baseline.
FLOORS = {"full": 2.0, "quick": 2.0, "full-oop": 2.0, "quick-oop": 2.0,
          "full-batched": 2.0, "quick-batched": 2.0,
          "full-open-loop": 1.0, "quick-open-loop": 1.0,
          # --trace-overhead gates a *ratio*, not a speedup: fully
          # instrumented serving (real registries everywhere, every
          # request traced end-to-end) must keep >= 95% of the no-op
          # registry baseline's throughput, i.e. observability costs
          # under 5%.
          "full-trace-overhead": 0.95, "quick-trace-overhead": 0.95,
          # --sharded gates write-heavy ingest throughput: 4 shards x 2
          # workers vs an unsharded 8-worker pool on the same stream.
          "full-sharded": 1.5, "quick-sharded": 1.5}

N_REPLICAS = 4

#: ``--open-loop``: simulated concurrent clients through the async
#: front-end, and the absolute per-request p99 latency ceiling the gated
#: run must stay under. The ceiling is deliberately generous — it exists
#: to catch pathological queueing (a starved or head-of-line-blocked
#: session), not to benchmark the hardware CI happens to land on.
OPEN_LOOP_CLIENTS = 500
OPEN_LOOP_P99_CEILING_S = 2.0


def append_run(graph, rng: random.Random, entities: list[int],
               index: int) -> int:
    """Append one recorded run: 4-5 mutations, the paper's workload grain.

    Returns the freshly generated output entity so write schedules can
    annotate it afterwards (new artifacts collect notes and metrics; the
    established dashboard targets do not).
    """
    activity = graph.add_activity(command=f"bench-run{index}")
    for entity in rng.sample(entities, k=2):
        graph.used(activity, entity)
    output = graph.add_entity(name=f"bench-out{index}")
    graph.was_generated_by(output, activity)
    return output


class SequentialRounds:
    """Default round evaluation: every query served in order, in-process.

    The round workload (walk targets + pooled PgSeg repeats) is built by
    the driver from the shared seeded stream, so every serving mode
    answers the *same* multiset of queries and the digest identity check
    is exact. The digest is a sum, so fan-out servers may answer the same
    round in any order (or concurrently) and still match.
    """

    def serve_round(self, walk_targets, pool, pgseg_repeats):
        digest = 0
        queries = 0
        for entity in walk_targets:
            digest += len(self.lineage(entity).vertices)
            digest += len(self.blame(entity))
            queries += 2
        # Dashboard fan-in: every pooled question asked several times
        # between two appends, interleaved across the pool.
        for _ in range(pgseg_repeats):
            for query in pool:
                digest += self.segment(query).vertex_count
                queries += 1
        return digest, queries

    def close(self):
        """Release serving resources (worker processes in OOP mode)."""


class LiveServer(SequentialRounds):
    """Pre-snapshot serving: every query walks the live store."""

    name = "single-store"

    def __init__(self, graph):
        self.graph = graph

    def lineage(self, entity):
        return lineage(self.graph, entity)

    def blame(self, entity):
        return blame(self.graph, entity)

    def segment(self, query):
        # Fresh operator per evaluation: the live path rebuilds the solver
        # adjacency per query.
        return PgSegOperator(self.graph).evaluate(query)


class SnapshotServer(SequentialRounds):
    """PR 1/2 single-process read layer: one advanced snapshot."""

    name = "single-snapshot"

    def __init__(self, graph):
        self.graph = graph
        self._snapshot = GraphSnapshot(graph)
        self._operator = PgSegOperator(graph, snapshot=self._snapshot)

    def _fresh(self):
        if self._snapshot.epoch != self.graph.store.epoch:
            self._snapshot = self._snapshot.advance(self.graph)
            self._operator.snapshot = self._snapshot
        return self._snapshot

    def lineage(self, entity):
        return lineage(self.graph, entity, snapshot=self._fresh())

    def blame(self, entity):
        return blame(self.graph, entity, snapshot=self._fresh())

    def segment(self, query):
        self._fresh()
        return self._operator.evaluate(query)


class ClusterServer(SequentialRounds):
    """The serving subsystem: leader + in-process worker replicas + router."""

    name = f"cluster-x{N_REPLICAS}"

    def __init__(self, graph):
        self.cluster = ProvCluster(graph, replicas=N_REPLICAS)

    def lineage(self, entity):
        return self.cluster.lineage(entity)

    def blame(self, entity):
        return self.cluster.blame(entity)

    def segment(self, query):
        return self.cluster.segment(query)

    def close(self):
        self.cluster.close()


class OopClusterServer:
    """Out-of-process serving: 4 socket workers, per-worker client threads.

    Each round ships the new epoch to every worker once (the write path),
    then splits the read burst round-robin across one thread per worker.
    Clients are fully independent — own process, own socket — so the
    fan-out needs no locks and the workers answer concurrently.
    """

    name = f"oop-cluster-x{N_REPLICAS}"

    def __init__(self, graph):
        self.cluster = ProvCluster(graph, replicas=N_REPLICAS,
                                   out_of_process=True)

    def serve_round(self, walk_targets, pool, pgseg_repeats):
        self.cluster.refresh()      # one ship per worker, inside the timing
        tasks = [("walk", entity) for entity in walk_targets]
        tasks += [("segment", query)
                  for _ in range(pgseg_repeats) for query in pool]
        clients = self.cluster.replicas
        partials = [(0, 0)] * len(clients)
        failures = [None] * len(clients)

        def drain(index):
            client = clients[index]
            digest = 0
            queries = 0
            try:
                for kind, payload in tasks[index::len(clients)]:
                    if kind == "walk":
                        digest += len(client.lineage(payload).vertices)
                        digest += len(client.blame(payload))
                        queries += 2
                    else:
                        digest += client.segment(payload).vertex_count
                        queries += 1
            except BaseException as exc:   # noqa: BLE001 - re-raised below;
                # a swallowed worker failure would surface as a bogus
                # "serving modes diverged" digest assertion.
                failures[index] = exc
                return
            partials[index] = (digest, queries)

        threads = [threading.Thread(target=drain, args=(index,))
                   for index in range(len(clients))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for failure in failures:
            if failure is not None:
                raise failure
        return (sum(digest for digest, _ in partials),
                sum(queries for _, queries in partials))

    def serve_specs(self, specs):
        """The batched-gate baseline: the same spec list, served lockstep.

        Specs are split strided across one client thread per worker —
        the strongest unbatched configuration (workers answer
        concurrently) — but every spec still pays its own round trip.
        """
        self.cluster.refresh()      # one ship per worker, inside the timing
        clients = self.cluster.replicas
        partials = [0] * len(clients)
        failures = [None] * len(clients)

        def drain(index):
            client = clients[index]
            digest = 0
            try:
                for spec in specs[index::len(clients)]:
                    method, params = spec
                    if method == "lineage":
                        result = client.lineage(
                            params["entity"],
                            max_depth=params.get("max_depth"))
                    elif method == "blame":
                        result = client.blame(params["entity"])
                    else:
                        result = client.segment(params["query"])
                    digest += digest_of(spec, result)
            except BaseException as exc:   # noqa: BLE001 - re-raised below
                failures[index] = exc
                return
            partials[index] = digest

        threads = [threading.Thread(target=drain, args=(index,))
                   for index in range(len(clients))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for failure in failures:
            if failure is not None:
                raise failure
        return sum(partials), len(specs)

    def close(self):
        self.cluster.close()


def digest_of(spec, result) -> int:
    """The digest contribution of one served spec (raises on error)."""
    if isinstance(result, BaseException):
        raise result
    method = spec[0]
    if method in ("lineage", "impacted"):
        return len(result.vertices)
    if method == "blame":
        return len(result)
    return result.vertex_count


class BatchedOopClusterServer:
    """PR 5 batching: the whole round as one ``query_many`` fan-out.

    Every round ships the new epoch once, then issues the entire spec
    list as a single batch: the cluster splits it strided across the
    workers and puts **one pipelined requests bundle per worker** on the
    wire before draining any answer — the workers execute concurrently
    (like the threaded unbatched mode) but the per-query round trip and
    the client-side thread ping-pong are gone.
    """

    name = f"batched-oop-x{N_REPLICAS}"

    def __init__(self, graph):
        self.cluster = ProvCluster(graph, replicas=N_REPLICAS,
                                   out_of_process=True)

    def serve_specs(self, specs):
        self.cluster.refresh()      # one ship per worker, inside the timing
        results = self.cluster.query_many(specs)
        return (sum(digest_of(spec, result)
                    for spec, result in zip(specs, results)), len(specs))

    def close(self):
        self.cluster.close()


class NoObsOopClusterServer(BatchedOopClusterServer):
    """``--trace-overhead`` baseline: identical batched pool, but every
    serving process runs the no-op metrics registry
    (``ServeConfig(metrics=False)`` -> ``--no-metrics`` workers) and no
    request is traced — the serving stack with observability compiled
    out, as close as Python gets."""

    name = f"noobs-oop-x{N_REPLICAS}"

    def __init__(self, graph):
        self.cluster = ProvCluster(graph, config=ServeConfig(
            replicas=N_REPLICAS, out_of_process=True,
            metrics=False))


class TracedOopClusterServer(BatchedOopClusterServer):
    """``--trace-overhead`` gated mode: the same batched pool with full
    instrumentation — real registries in the leader and every worker
    (every request pays its counters and histograms), plus end-to-end
    tracing of every ``TRACE_EVERY``-th request (trace id on the wire, a
    worker compute span back, ``finish()`` per trace). 1/16 is a *heavy*
    sample — an order of magnitude above a production ``trace_sample`` —
    and the cache-hit-heavy batched regime makes the whole thing a worst
    case: per-query compute is cheapest there, so the fixed
    instrumentation cost is proportionally largest."""

    name = f"traced-oop-x{N_REPLICAS}"

    #: Every Nth request of each round's batch is traced end-to-end.
    TRACE_EVERY = 16

    def __init__(self, graph):
        self.cluster = ProvCluster(graph, config=ServeConfig(
            replicas=N_REPLICAS, out_of_process=True,
            metrics=True, trace_sample=1.0, trace_ring=1024,
            slow_query_s=0.25))

    def serve_specs(self, specs):
        from repro.obs import new_trace_id

        collector = self.cluster.obs.collector
        self.cluster.refresh()      # one ship per worker, inside the timing
        t0 = time.perf_counter()
        trace_ids = [new_trace_id() if index % self.TRACE_EVERY == 0
                     else None for index in range(len(specs))]
        results = self.cluster.query_many(specs, trace_ids=trace_ids)
        wall = time.perf_counter() - t0
        for (method, _), trace_id in zip(specs, trace_ids):
            if trace_id is not None:
                collector.finish(trace_id, method=method, wall_s=wall)
        return (sum(digest_of(spec, result)
                    for spec, result in zip(specs, results)), len(specs))

    def metrics_snapshot(self):
        """The cluster-wide metrics document (untimed, pool still live)."""
        return self.cluster.metrics()


# ---------------------------------------------------------------------------
# --sharded: segment-partitioned ingest vs an unsharded pool, same workers
# ---------------------------------------------------------------------------

N_SHARDS = 4
WORKERS_PER_SHARD = 2


class ShardedIngestServer:
    """PR 9 gated mode: 4 shards x 2 workers behind one coordinator.

    Every round drains the leader's write burst into the shard feeds
    (structural batches broadcast, property batches to their owner shard
    only) and ships each shard's log to that shard's 2 workers, then
    serves the dashboard as one scatter-gathered ``query_many``.
    """

    name = f"sharded-{N_SHARDS}x{WORKERS_PER_SHARD}"

    def __init__(self, graph):
        from repro.serve.shards import ShardedCluster
        self.cluster = ShardedCluster(graph, config=ServeConfig(
            shards=N_SHARDS, replicas=WORKERS_PER_SHARD,
            out_of_process=True))

    def serve_specs(self, specs):
        self.cluster.refresh()      # split + ship the burst, inside timing
        results = self.cluster.query_many(specs)
        return (sum(digest_of(spec, result)
                    for spec, result in zip(specs, results)), len(specs))

    def close(self):
        self.cluster.close()


class UnshardedIngestServer:
    """PR 9 baseline: the same 8 workers as one flat pool — every write
    batch is applied by every worker (8 applies per property write where
    the sharded cluster pays 2)."""

    name = f"unsharded-pool-x{N_SHARDS * WORKERS_PER_SHARD}"

    def __init__(self, graph):
        self.cluster = ProvCluster(graph, config=ServeConfig(
            replicas=N_SHARDS * WORKERS_PER_SHARD,
            out_of_process=True))

    def serve_specs(self, specs):
        self.cluster.refresh()      # one ship per worker, inside timing
        results = self.cluster.query_many(specs)
        return (sum(digest_of(spec, result)
                    for spec, result in zip(specs, results)), len(specs))

    def close(self):
        self.cluster.close()


def run_ingest_workload(server_cls, n_vertices: int, rounds: int,
                        props_per_round: int, appends_per_round: int,
                        targets_per_round: int, walk_depth: int,
                        warmup_rounds: int = 2, seed: int = 17) -> dict:
    """One ``--sharded`` contender over the shared write-heavy stream.

    Each round lands ``props_per_round`` property annotations (each its
    own epoch — the per-batch ship fan-out is exactly what the gate
    measures) plus ``appends_per_round`` structural runs (~4:1
    props:structural), then re-asks one fixed structure-only dashboard
    through ``query_many``. Writes happen between serve calls, so every
    ``serve_specs`` pays the full burst's ship-and-apply before a single
    answer — ingest cost sits squarely inside the timed window.
    """
    instance = generate_pd_sized(n_vertices, seed=7)
    graph = instance.graph
    entities = list(instance.entities)
    rng = random.Random(seed)
    targets = rng.sample(entities, k=targets_per_round)   # the dashboard
    fresh: list[int] = []                  # outputs appended after seeding

    def round_specs():
        return [("lineage", {"entity": entity, "max_depth": walk_depth})
                for entity in targets]

    def write_burst(index: int) -> None:
        for write in range(props_per_round):
            subject = rng.choice(fresh) if fresh else rng.choice(entities)
            graph.store.set_vertex_property(
                subject, "ingest_note", f"round{index}.{write}")
        for append in range(appends_per_round):
            fresh.append(append_run(
                graph, rng, entities,
                index * appends_per_round + append))

    t0 = time.perf_counter()
    server = server_cls(graph)
    for index in range(warmup_rounds):
        write_burst(index)
        server.serve_specs(round_specs())
    bootstrap_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    digest = 0
    queries = 0
    writes = 0
    try:
        for index in range(rounds):
            write_burst(warmup_rounds + index)
            writes += props_per_round + appends_per_round
            round_digest, round_queries = server.serve_specs(round_specs())
            digest += round_digest
            queries += round_queries
        elapsed = time.perf_counter() - t0      # teardown stays untimed
    finally:
        server.close()
    ops = writes + queries
    return {
        "mode": server_cls.name,
        "digest": digest,
        "queries": queries,
        "writes_shipped": writes,
        "bootstrap_s": bootstrap_s,
        "elapsed_s": elapsed,
        "queries_per_s": queries / elapsed if elapsed else float("inf"),
        "ops_per_s": ops / elapsed if elapsed else float("inf"),
    }


def _sharded_main(args, mode: str) -> int:
    """``--sharded``: segment-partitioned ingest vs the flat 8-worker pool."""
    floor = FLOORS[mode]
    rounds = 6 if args.quick else 12
    props_per_round, appends_per_round = 120, 6
    targets, walk_depth = 4, 1
    print(f"workload: {rounds} rounds x ({props_per_round} property + "
          f"{appends_per_round} structural writes, then {targets} "
          f"shallow-lineage tiles) on a Pd graph (n=12000), "
          f"write-heavy ingest (~4:1 props:structural batches)")
    trials = 2 if args.quick else 3
    results = {}
    digests = set()
    for server_cls in (UnshardedIngestServer, ShardedIngestServer):
        best = None
        for _ in range(trials):
            result = run_ingest_workload(
                server_cls, 12000, rounds, props_per_round,
                appends_per_round, targets, walk_depth)
            digests.add(result["digest"])
            if best is None or result["ops_per_s"] > best["ops_per_s"]:
                best = result
        results[best["mode"]] = best
        print(f"{best['mode']:<18s} {best['writes_shipped']:4d} writes"
              f" + {best['queries']:4d} queries in "
              f"{best['elapsed_s']:8.3f}s   "
              f"({best['ops_per_s']:8.1f} ops/s, "
              f"bootstrap {best['bootstrap_s']:5.2f}s, "
              f"best of {trials})")
    if len(digests) != 1:
        raise AssertionError(
            f"serving modes diverged: digests {sorted(digests)}")
    sharded = results[ShardedIngestServer.name]
    baseline = results[UnshardedIngestServer.name]
    speedup = sharded["ops_per_s"] / baseline["ops_per_s"]
    print(f"{ShardedIngestServer.name} vs {UnshardedIngestServer.name} : "
          f"{speedup:5.2f}x  (floor {floor}x)")
    passed = speedup >= floor
    record = {
        "benchmark": "bench_replication",
        "mode": mode,
        "n_vertices": 12000,
        "shards": N_SHARDS,
        "workers_per_shard": WORKERS_PER_SHARD,
        "sharded": True,
        "baseline": UnshardedIngestServer.name,
        "floor": floor,
        "speedup_vs_baseline": speedup,
        "results": results,
        "pass": passed,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    if not args.no_assert and not passed:
        print(f"FAIL: {ShardedIngestServer.name} ingest+serve throughput "
              f"{speedup:.2f}x the {UnshardedIngestServer.name} baseline "
              f"(floor {floor}x)", file=sys.stderr)
        return 1
    print("ok")
    return 0


# ---------------------------------------------------------------------------
# --open-loop: many simulated clients through the async front-end
# ---------------------------------------------------------------------------


def _open_loop_spec_pool(entities: list[int], rng: random.Random,
                         walk_depth: int = 2) -> list:
    """The dashboard the simulated clients share: shallow lineage tiles
    plus a few blame panels. Only graph-free-decodable methods, so each
    client verifies its digests without holding a local graph copy —
    exactly what a remote dashboard process can do."""
    targets = rng.sample(entities, k=16)
    pool = [("lineage", {"entity": entity, "max_depth": walk_depth})
            for entity in targets]
    pool += [("blame", {"entity": entity}) for entity in targets[:4]]
    return pool


def _client_specs(pool: list, client_index: int,
                  requests_per_client: int) -> list:
    """Client i's deterministic sequence: a rotation of the shared pool,
    so the multiset across all clients is balanced and seed-exact."""
    return [pool[(client_index + step) % len(pool)]
            for step in range(requests_per_client)]


def _decode_graph_free(method: str, payload) -> object:
    if method in ("lineage", "impacted"):
        return serve_wire.lineage_from_wire(payload)
    return serve_wire.blame_from_wire(payload)


async def _open_loop_client(index: int, address: tuple[str, int],
                            specs: list, latencies: list[float],
                            connect_gate: asyncio.Semaphore) -> int:
    """One simulated client: its own connection, closed-loop depth 1."""

    def frame_bytes(frame) -> bytes:
        return (json.dumps(frame, sort_keys=True) + "\n").encode("utf-8")

    async with connect_gate:          # keep under the listener's backlog
        reader, writer = await asyncio.open_connection(*address)
    digest = 0
    try:
        writer.write(frame_bytes(serve_wire.client_hello_frame(
            f"bench-{index}")))
        await writer.drain()
        serve_wire.welcome_from_wire(json.loads(
            await asyncio.wait_for(reader.readline(), 60.0)))
        for request_id, spec in enumerate(specs, start=1):
            method, params = spec
            frame = serve_wire.request_to_wire(request_id, method,
                                               dict(params))
            t0 = time.perf_counter()
            writer.write(frame_bytes(frame))
            await writer.drain()
            answer = json.loads(
                await asyncio.wait_for(reader.readline(), 60.0))
            latencies.append(time.perf_counter() - t0)
            got_id, _epoch, ok, payload = serve_wire.response_from_wire(
                answer)
            if not ok:
                raise serve_wire.error_from_wire(payload)
            if got_id != request_id:
                raise AssertionError(
                    f"client {index}: answer {got_id} != asked {request_id}")
            digest += digest_of(spec, _decode_graph_free(method, payload))
    finally:
        writer.close()
    return digest


async def _drive_open_loop(address: tuple[str, int],
                           per_client_specs: list[list],
                           ) -> tuple[int, list[float]]:
    latencies: list[float] = []
    connect_gate = asyncio.Semaphore(64)
    digests = await asyncio.gather(*(
        _open_loop_client(index, address, specs, latencies, connect_gate)
        for index, specs in enumerate(per_client_specs)))
    return sum(digests), latencies


def _percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, round(fraction * (len(ordered) - 1)))
    return ordered[index]


class BlockingFrontendServer:
    """The baseline the async front-end replaces: thread-per-connection.

    A blocking front-end over the *same* 4-worker pool, speaking the
    same client session (``client_hello``/``welcome``, then lockstep
    ``request``/``response``): every accepted connection gets its own OS
    thread, every request one round trip to a pool worker picked
    round-robin under that worker's lock (``WorkerClient`` is not
    thread-safe, so a blocking architecture must serialize per worker).
    With hundreds of connections this is the classic thread-per-client
    serving model — the measured costs are its lock convoys and
    scheduler churn, which is precisely what the asyncio front-end's
    multiplexed ``query_many`` batches amortize away.
    """

    name = f"threaded-frontend-x{N_REPLICAS}"

    def __init__(self, graph):
        self.cluster = ProvCluster(graph, config=ServeConfig(
            replicas=N_REPLICAS, out_of_process=True))
        self._slots = [(client, threading.Lock())
                       for client in self.cluster.replicas]
        self._rr = itertools.count()
        self._listener = socket.create_server(("127.0.0.1", 0),
                                              backlog=128)
        self.address = self._listener.getsockname()[:2]
        threading.Thread(target=self._accept_loop,
                         name="threaded-frontend-accept",
                         daemon=True).start()

    def _accept_loop(self):
        while True:
            try:
                conn, _peer = self._listener.accept()
            except OSError:          # listener closed: shutting down
                return
            threading.Thread(target=self._serve_connection, args=(conn,),
                             daemon=True).start()

    def _serve_connection(self, conn):
        transport = LineTransport.over_socket(conn)
        try:
            serve_wire.client_hello_from_wire(transport.recv(timeout=60))
            transport.send(serve_wire.welcome_frame(
                0, self.cluster.leader_epoch))
            while True:
                frame = transport.recv(timeout=60)
                request_id, method, params = serve_wire.request_from_wire(
                    frame)
                worker, lock = self._slots[
                    next(self._rr) % len(self._slots)]
                with lock:
                    if method in ("lineage", "impacted"):
                        payload = serve_wire.lineage_to_wire(worker.lineage(
                            params["entity"],
                            max_depth=params.get("max_depth")))
                    else:
                        payload = serve_wire.blame_to_wire(
                            worker.blame(params["entity"]))
                transport.send(serve_wire.response_to_wire(
                    request_id, self.cluster.leader_epoch, result=payload))
        except (TransportClosed, OSError):
            pass                     # client hung up: thread retires
        finally:
            transport.close()

    def close(self):
        try:
            self._listener.close()
        except OSError:
            pass
        self.cluster.close()


def _warm_workers(cluster, pool) -> None:
    """Serve every pool spec on every worker once, untimed — both
    contenders measure steady-state serving, not first-touch snapshot
    arming and cache fill (caches are per worker)."""
    for client in cluster.replicas:
        for method, params in pool:
            if method in ("lineage", "impacted"):
                client.lineage(params["entity"],
                               max_depth=params.get("max_depth"))
            else:
                client.blame(params["entity"])


def _best_of(address: tuple[str, int], per_client: list[list],
             trials: int) -> tuple[int, float, list[float]]:
    """Drive the full client fleet ``trials`` times against one server;
    keep the fastest serving window. Successive trials hit the same warm
    servers, so the spread between them is pure scheduler noise on a
    shared box — the best trial is the architecture's actual capacity,
    which is what the gate compares. Digests must agree across trials."""
    best = None
    digests = set()
    for _ in range(trials):
        t0 = time.perf_counter()
        digest, latencies = asyncio.run(_drive_open_loop(address,
                                                         per_client))
        elapsed = time.perf_counter() - t0
        digests.add(digest)
        if best is None or elapsed < best[1]:
            best = (digest, elapsed, latencies)
    assert len(digests) == 1, f"digest drifted across trials: {digests}"
    return best


def run_open_loop(n_vertices: int, clients: int, requests_per_client: int,
                  seed: int = 17, trials: int = 3) -> dict:
    """Both open-loop contenders over the identical spec multiset,
    driven by the identical 500-coroutine simulated-client fleet."""
    instance = generate_pd_sized(n_vertices, seed=7)
    graph = instance.graph
    entities = list(instance.entities)
    rng = random.Random(seed)
    pool = _open_loop_spec_pool(entities, rng)
    per_client = [_client_specs(pool, index, requests_per_client)
                  for index in range(clients)]
    total = clients * requests_per_client

    # Baseline: thread-per-connection blocking front-end, same pool.
    t0 = time.perf_counter()
    baseline_server = BlockingFrontendServer(graph)
    try:
        _warm_workers(baseline_server.cluster, pool)
        baseline_bootstrap = time.perf_counter() - t0
        baseline_digest, baseline_elapsed, baseline_latencies = _best_of(
            baseline_server.address, per_client, trials)
    finally:
        baseline_server.close()
    assert len(baseline_latencies) == total

    # Gated: the asyncio front-end, multiplexed query_many dispatch.
    t0 = time.perf_counter()
    cluster = ProvCluster(graph, config=ServeConfig(
        replicas=N_REPLICAS, out_of_process=True, frontend=True,
        max_inflight=256, admission_budget=max(1024, 2 * clients)))
    try:
        _warm_workers(cluster, pool)
        frontend_bootstrap = time.perf_counter() - t0
        frontend_digest, frontend_elapsed, latencies = _best_of(
            cluster.frontend.address, per_client, trials)
        frontend_stats = cluster.frontend.stats()
    finally:
        cluster.close()
    assert len(latencies) == total

    return {
        "clients": clients,
        "requests_per_client": requests_per_client,
        "requests": total,
        "trials": trials,
        "baseline": {
            "mode": BlockingFrontendServer.name,
            "digest": baseline_digest,
            "bootstrap_s": baseline_bootstrap,
            "elapsed_s": baseline_elapsed,
            "queries_per_s": total / baseline_elapsed,
            "latency_p50_ms": _percentile(baseline_latencies, 0.50) * 1e3,
            "latency_p99_ms": _percentile(baseline_latencies, 0.99) * 1e3,
        },
        "frontend": {
            "mode": f"frontend-oop-x{N_REPLICAS}",
            "digest": frontend_digest,
            "bootstrap_s": frontend_bootstrap,
            "elapsed_s": frontend_elapsed,
            "queries_per_s": total / frontend_elapsed,
            "latency_p50_ms": _percentile(latencies, 0.50) * 1e3,
            "latency_p99_ms": _percentile(latencies, 0.99) * 1e3,
            "overloaded_rejections":
                frontend_stats["overloaded_rejections"],
            "connections_total": frontend_stats["connections_total"],
            "batches_dispatched": frontend_stats["batches_dispatched"],
            "max_batch": frontend_stats["max_batch"],
        },
    }


def _open_loop_main(args, mode: str) -> int:
    floor = FLOORS[mode]
    requests_per_client = 8 if args.quick else 12
    print(f"workload: {OPEN_LOOP_CLIENTS} concurrent clients x "
          f"{requests_per_client} closed-loop requests each through the "
          f"async front-end ({N_REPLICAS}-worker pool, n=12000, "
          f"best of 3 trials per contender)")
    run = run_open_loop(12000, OPEN_LOOP_CLIENTS, requests_per_client)
    baseline, frontend = run["baseline"], run["frontend"]
    for side in (baseline, frontend):
        print(f"{side['mode']:<18s} {run['requests']:5d} requests in "
              f"{side['elapsed_s']:8.3f}s   "
              f"({side['queries_per_s']:8.1f} q/s, "
              f"bootstrap {side['bootstrap_s']:5.2f}s)")
    if baseline["digest"] != frontend["digest"]:
        raise AssertionError(
            f"serving modes diverged: baseline digest "
            f"{baseline['digest']} != frontend {frontend['digest']}")
    speedup = frontend["queries_per_s"] / baseline["queries_per_s"]
    p99_s = frontend["latency_p99_ms"] / 1e3
    print(f"{frontend['mode']} vs {baseline['mode']} : {speedup:5.2f}x  "
          f"(floor {floor}x)")
    print(f"latency p50 {frontend['latency_p50_ms']:7.2f} ms   "
          f"p99 {frontend['latency_p99_ms']:7.2f} ms  "
          f"(ceiling {OPEN_LOOP_P99_CEILING_S * 1e3:.0f} ms)")
    if frontend["overloaded_rejections"]:
        # The budget is sized above the client count, so rejections mean
        # the digest identity above could not have held — belt and braces.
        raise AssertionError(
            f"{frontend['overloaded_rejections']} overloaded rejections "
            "in a run sized under the admission budget")
    passed = speedup >= floor and p99_s <= OPEN_LOOP_P99_CEILING_S
    record = {
        "benchmark": "bench_replication",
        "mode": mode,
        "n_vertices": 12000,
        "replicas": N_REPLICAS,
        "open_loop": True,
        "baseline": baseline["mode"],
        "floor": floor,
        "speedup_vs_baseline": speedup,
        "p99_ceiling_s": OPEN_LOOP_P99_CEILING_S,
        "results": run,
        "pass": passed,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    if not args.no_assert and not passed:
        print(f"FAIL: {frontend['mode']} throughput {speedup:.2f}x the "
              f"{baseline['mode']} baseline (floor {floor}x), p99 "
              f"{p99_s * 1e3:.0f} ms (ceiling "
              f"{OPEN_LOOP_P99_CEILING_S * 1e3:.0f} ms)", file=sys.stderr)
        return 1
    print("ok")
    return 0


def _trace_overhead_main(args, mode: str) -> int:
    """``--trace-overhead``: instrumentation cost vs the no-op registry.

    Both contenders serve the batched gate's cache-hit-heavy spec stream
    (identical seeds, digest-checked); the gated side runs real
    registries in every process and traces **every** request end-to-end,
    the baseline swaps in ``NullRegistry`` everywhere. Best of N trials
    per contender, so one noisy neighbour can't fail a 5% gate.
    """
    floor = FLOORS[mode]
    trials = 2 if args.quick else 3
    spec_rounds = 8 if args.quick else 16
    targets, walk_repeats, walk_depth, append_every = 8, 64, 2, 4
    print(f"workload: {spec_rounds} rounds x ({targets} targets x "
          f"{walk_repeats} shallow-lineage re-asks + 2 blame) on a Pd "
          f"graph (n=12000), append every {append_every} rounds, "
          f"best of {trials} trials per contender")
    runs: dict[str, dict] = {}
    digests = set()
    for server_cls in (NoObsOopClusterServer, TracedOopClusterServer):
        best = None
        for _ in range(trials):
            result = run_spec_workload(
                server_cls, 12000, spec_rounds, targets, walk_repeats,
                walk_depth, append_every)
            digests.add(result["digest"])
            if best is None \
                    or result["queries_per_s"] > best["queries_per_s"]:
                best = result
        runs[server_cls.name] = best
        print(f"{best['mode']:<18s} {best['queries']:5d} queries in "
              f"{best['elapsed_s']:8.3f}s   "
              f"({best['queries_per_s']:8.1f} q/s, "
              f"bootstrap {best['bootstrap_s']:5.2f}s)")
    if len(digests) != 1:
        raise AssertionError(
            f"serving modes diverged: digests {sorted(digests)}")
    traced = runs[TracedOopClusterServer.name]
    baseline = runs[NoObsOopClusterServer.name]
    ratio = traced["queries_per_s"] / baseline["queries_per_s"]
    print(f"{traced['mode']} vs {baseline['mode']} : {ratio:5.3f}x  "
          f"(floor {floor}x; instrumentation overhead "
          f"{(1.0 - ratio) * 100.0:+.1f}%)")
    passed = ratio >= floor
    snapshot = traced.pop("metrics", None)
    baseline.pop("metrics", None)
    if args.metrics_snapshot and snapshot is not None:
        with open(args.metrics_snapshot, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.metrics_snapshot}")
    record = {
        "benchmark": "bench_replication",
        "mode": mode,
        "n_vertices": 12000,
        "replicas": N_REPLICAS,
        "trace_overhead": True,
        "baseline": NoObsOopClusterServer.name,
        "floor": floor,
        "speedup_vs_baseline": ratio,
        "instrumentation_overhead_pct": (1.0 - ratio) * 100.0,
        "results": runs,
        "pass": passed,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    if not args.no_assert and not passed:
        print(f"FAIL: {traced['mode']} kept {ratio:.3f}x of the "
              f"{baseline['mode']} baseline's throughput (floor {floor}x "
              f"= instrumentation overhead under "
              f"{(1.0 - floor) * 100.0:.0f}%)", file=sys.stderr)
        return 1
    print("ok")
    return 0


def build_query_pool(entities: list[int], pool_size: int) -> list[PgSegQuery]:
    """The dashboard's fixed PgSeg pool: destinations spread across the
    cheap-to-moderate ancestry band (deep-ancestry tails would drown the
    walk mix without changing the comparison)."""
    src = tuple(entities[:2])
    fractions = (0.08, 0.16, 0.24, 0.32, 0.40, 0.48)
    return [
        PgSegQuery(src=src, dst=(entities[int(len(entities) * f)],))
        for f in fractions[:pool_size]
    ]


def run_workload(server_cls, n_vertices: int, rounds: int,
                 walks_per_round: int, pool_size: int,
                 pgseg_repeats: int, seed: int = 17) -> dict:
    """One serving mode over the shared seeded read/write stream."""
    instance = generate_pd_sized(n_vertices, seed=7)
    graph = instance.graph
    entities = list(instance.entities)
    pool = build_query_pool(entities, pool_size)
    rng = random.Random(seed)

    t0 = time.perf_counter()
    server = server_cls(graph)
    bootstrap_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    digest = 0
    queries = 0
    try:
        for index in range(rounds):
            append_run(graph, rng, entities, index)
            walk_targets = rng.sample(entities, k=walks_per_round)
            round_digest, round_queries = server.serve_round(
                walk_targets, pool, pgseg_repeats)
            digest += round_digest
            queries += round_queries
        elapsed = time.perf_counter() - t0      # teardown stays untimed
    finally:
        server.close()
    return {
        "mode": server_cls.name,
        "digest": digest,
        "queries": queries,
        "bootstrap_s": bootstrap_s,
        "elapsed_s": elapsed,
        "queries_per_s": queries / elapsed if elapsed else float("inf"),
    }


def run_spec_workload(server_cls, n_vertices: int, rounds: int,
                      targets_per_round: int, walk_repeats: int,
                      walk_depth: int, append_every: int,
                      warmup_rounds: int = 2, seed: int = 17) -> dict:
    """One batched-gate contender over the shared seeded spec stream.

    The dashboard fan-in regime the batching PR targets: one **fixed**
    set of on-screen artifacts is re-asked every round — shallow
    depth-limited lineage tiles plus a couple of blame panels — while
    appends land every ``append_every`` rounds. Between appends the
    worker result caches absorb the recompute entirely (the repetitive
    fixed-version regime the summarization literature describes), so the
    per-request transport overhead is what separates lockstep serving
    from pipelined bundles. Both contenders serve the identical spec
    stream and must agree on the digest.

    Like bootstrap, ``warmup_rounds`` append/serve cycles run **before**
    the timed window (identically for both contenders): the gate
    measures steady-state serving throughput, not the one-off lazy
    materialization the first post-bootstrap queries pay per worker.
    """
    instance = generate_pd_sized(n_vertices, seed=7)
    graph = instance.graph
    entities = list(instance.entities)
    rng = random.Random(seed)
    targets = rng.sample(entities, k=targets_per_round)   # the dashboard

    def round_specs():
        specs = []
        for _ in range(walk_repeats):
            for entity in targets:
                specs.append(("lineage", {"entity": entity,
                                          "max_depth": walk_depth}))
        for entity in targets[:2]:
            specs.append(("blame", {"entity": entity}))
        return specs

    def write_for_round(index: int) -> None:
        if index % append_every == 0:
            append_run(graph, rng, entities, index)

    t0 = time.perf_counter()
    server = server_cls(graph)
    for index in range(warmup_rounds):
        write_for_round(index)
        server.serve_specs(round_specs())
    bootstrap_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    digest = 0
    queries = 0
    metrics = None
    try:
        for index in range(rounds):
            write_for_round(warmup_rounds + index)
            round_digest, round_queries = server.serve_specs(round_specs())
            digest += round_digest
            queries += round_queries
        elapsed = time.perf_counter() - t0      # teardown stays untimed
        snap = getattr(server, "metrics_snapshot", None)
        metrics = snap() if snap is not None else None   # untimed, live pool
    finally:
        server.close()
    return {
        "mode": server_cls.name,
        "digest": digest,
        "queries": queries,
        "bootstrap_s": bootstrap_s,
        "elapsed_s": elapsed,
        "queries_per_s": queries / elapsed if elapsed else float("inf"),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer rounds (CI smoke); same 12k-vertex graph")
    parser.add_argument("--out-of-process", action="store_true",
                        help="gate the 4-worker socket pool instead of the "
                             "in-process cluster")
    parser.add_argument("--batched", action="store_true",
                        help="gate query_many batching/pipelining against "
                             "the unbatched out-of-process baseline "
                             "(implies --out-of-process)")
    parser.add_argument("--open-loop", action="store_true",
                        help="gate the async front-end under 500 concurrent "
                             "simulated clients against a thread-per-"
                             "connection blocking front-end over the same "
                             "pool (implies --out-of-process)")
    parser.add_argument("--trace-overhead", action="store_true",
                        help="gate the instrumentation cost: fully traced "
                             "serving must keep >= 95%% of the no-op "
                             "registry baseline's throughput (implies "
                             "--out-of-process)")
    parser.add_argument("--sharded", action="store_true",
                        help="gate write-heavy ingest on 4 shards x 2 "
                             "workers against an unsharded 8-worker pool "
                             "(implies --out-of-process)")
    parser.add_argument("--metrics-snapshot", metavar="PATH",
                        help="with --trace-overhead: write the "
                             "instrumented run's cluster-wide metrics "
                             "document (the serve-stats payload)")
    parser.add_argument("--no-assert", action="store_true",
                        help="report only; never fail on the throughput floor")
    parser.add_argument("--json", metavar="PATH",
                        help="write a machine-readable result record")
    args = parser.parse_args(argv)
    if args.batched or args.open_loop or args.trace_overhead \
            or args.sharded:
        args.out_of_process = True
    if sum((args.batched, args.open_loop, args.trace_overhead,
            args.sharded)) > 1:
        parser.error("--batched, --open-loop, --trace-overhead and "
                     "--sharded are separate gates")

    mode = "quick" if args.quick else "full"
    if args.sharded:
        return _sharded_main(args, mode + "-sharded")
    if args.trace_overhead:
        return _trace_overhead_main(args, mode + "-trace-overhead")
    if args.open_loop:
        return _open_loop_main(args, mode + "-open-loop")
    if args.batched:
        mode += "-batched"
    elif args.out_of_process:
        mode += "-oop"
    n_vertices = 12000
    # pgseg_repeats is the dashboard fan-in per pooled question between two
    # appends; it must comfortably exceed the replica count, since the
    # round-robin router really does warm every replica's cache per epoch.
    if args.quick:
        rounds, walks_per_round, pool_size, pgseg_repeats = 2, 8, 2, 16
    else:
        rounds, walks_per_round, pool_size, pgseg_repeats = 6, 12, 4, 16
    # The batched gate's spec-stream regime (see run_spec_workload).
    if args.quick:
        spec_rounds, targets, walk_repeats, walk_depth, append_every = \
            8, 8, 64, 2, 4
    else:
        spec_rounds, targets, walk_repeats, walk_depth, append_every = \
            16, 8, 64, 2, 4
    floor = FLOORS[mode]
    if args.batched:
        gated_cls, baseline_cls = BatchedOopClusterServer, OopClusterServer
        server_classes = (OopClusterServer, BatchedOopClusterServer)
    elif args.out_of_process:
        gated_cls, baseline_cls = OopClusterServer, LiveServer
        server_classes = (LiveServer, OopClusterServer)
    else:
        gated_cls, baseline_cls = ClusterServer, LiveServer
        server_classes = (LiveServer, ClusterServer, SnapshotServer)

    if args.batched:
        print(f"workload: {spec_rounds} rounds x ({targets} targets x "
              f"{walk_repeats} shallow-lineage re-asks + 2 blame) "
              f"on a Pd graph (n={n_vertices}), append every "
              f"{append_every} rounds")
    else:
        print(f"workload: {rounds} rounds x ({2 * walks_per_round} walk + "
              f"{pool_size} PgSeg x{pgseg_repeats}) queries on a Pd graph "
              f"(n={n_vertices}), writes interleaved")
    results = {}
    for server_cls in server_classes:
        if args.batched:
            result = run_spec_workload(server_cls, n_vertices, spec_rounds,
                                       targets, walk_repeats, walk_depth,
                                       append_every)
        else:
            result = run_workload(server_cls, n_vertices, rounds,
                                  walks_per_round, pool_size, pgseg_repeats)
        results[result["mode"]] = result
        print(f"{result['mode']:<16s} {result['queries']:4d} queries in "
              f"{result['elapsed_s']:8.3f}s   "
              f"({result['queries_per_s']:8.1f} q/s, "
              f"bootstrap {result['bootstrap_s']:5.2f}s)")

    digests = {r["digest"] for r in results.values()}
    if len(digests) != 1:
        raise AssertionError(f"serving modes diverged: { {k: v['digest'] for k, v in results.items()} }")

    cluster = results[gated_cls.name]
    baseline = results[baseline_cls.name]
    speedup = cluster["queries_per_s"] / baseline["queries_per_s"]
    print(f"{gated_cls.name} vs {baseline_cls.name} : {speedup:5.2f}x  "
          f"(floor {floor}x)")
    overhead = None
    if SnapshotServer.name in results:
        snap = results[SnapshotServer.name]
        overhead = snap["queries_per_s"] / cluster["queries_per_s"]
        print(f"single-snapshot vs cluster: {overhead:5.2f}x "
              f"(replication overhead, informational)")

    passed = speedup >= floor
    record = {
        "benchmark": "bench_replication",
        "mode": mode,
        "n_vertices": n_vertices,
        "replicas": N_REPLICAS,
        "out_of_process": args.out_of_process,
        "batched": args.batched,
        "baseline": baseline_cls.name,
        "floor": floor,
        "speedup_vs_baseline": speedup,
        "speedup_vs_live": speedup if baseline_cls is LiveServer else None,
        "single_snapshot_vs_cluster": overhead,
        "results": results,
        "pass": passed,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")

    if not args.no_assert and not passed:
        print(f"FAIL: {gated_cls.name} aggregate read throughput "
              f"{speedup:.2f}x the {baseline_cls.name} baseline "
              f"(floor {floor}x)", file=sys.stderr)
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
