"""Workload ``explore_cold``: audit / exploration, every answer a miss.

Two ``reader`` threads, each its own front-end connection, closed loop
depth 1, drawing from a seeded request stream in which no
``(method, params)`` repeats and nothing is ever written: the worker
caches never hit, so the CFL solver, PgSeg induction, the query walks
and the workers' snapshot do the work and the serving layers are a
small share of every op.
"""

from __future__ import annotations

import random
import threading
import time
from functools import partial
from typing import Any

from benchmarks.ledger import layers
from benchmarks.ledger.harness import (
    SCRATCH_DIR,
    ProcessProbe,
    Spans,
    Tally,
    answer_digest,
    blame_digest,
    close_quietly,
    entity_at,
    failure_reason,
    frontend_client,
    jittered_marks,
    lineage_digest,
    median,
    metric,
    percentile,
    rows_digest,
    run_threads,
    segment_digest,
    serve_config,
    worker_pids,
)

NAME = "explore_cold"

READERS = 2
#: One block of the stream: 35 % full-depth lineage, 10 % impacted, 25 %
#: blame, 20 % segment, 10 % cypher by-name lookup. The stream is a
#: sequence of independently shuffled blocks, so any prefix a run gets
#: through has (nearly) the same mix, and each block's four segment
#: destinations are one draw from each quarter of the 2 %–50 % ancestry
#: band — run cost does not hinge on a few unlucky draws.
BLOCK = (("lineage", 7), ("impacted", 2), ("blame", 5), ("segment", 4),
         ("cypher", 2))
BLOCK_OPS = sum(count for _, count in BLOCK)
SEGMENT_BAND = (0.02, 0.50)
#: Segment answers recomputed in-process after the window: 1 in 8 (a
#: full recompute would cost as much as the window itself); every other
#: family is recomputed in full.
SEGMENT_CHECK_EVERY = 8
#: Layer replay sample of the recorded op stream.
REPLAY_EVERY = 8
RESERVE_BLOCKS = 5
#: ``peak_rss_mb`` is read when reader 0 has this many answers: the
#: workers keep every (never repeated) answer in their result cache, so
#: read at the end of the window RSS would grow with the number of ops
#: served, i.e. with *speed*.
RSS_AT_OPS = 150


def build_stream(entities: list[int], names: list[str], src: tuple,
                 rng: random.Random, blocks: int) -> list[tuple]:
    """``blocks`` shuffled blocks of ``(method, params)`` with no repeat."""
    from repro.segment.pgseg import PgSegQuery

    walk_pool = {method: rng.sample(entities, len(entities))
                 for method in ("lineage", "impacted", "blame")}
    low, high = SEGMENT_BAND
    band = entities[int(len(entities) * low):int(len(entities) * high)]
    name_pool = rng.sample(names, len(names))
    used_dst: set[int] = set()
    stream = []
    for _ in range(blocks):
        block = []
        for method, count in BLOCK:
            if method in walk_pool:
                if len(walk_pool[method]) < count:
                    return stream
                block += [(method, {"entity": walk_pool[method].pop(),
                                    "max_depth": None})
                          for _ in range(count)]
            elif method == "segment":
                for mark in jittered_marks(rng, low, high, count):
                    dst = entity_at(entities, mark)
                    while dst in used_dst:      # keep the stream repeat-free
                        dst = rng.choice(band)
                    used_dst.add(dst)
                    block.append(("segment", {"query": PgSegQuery(
                        src=src, dst=(dst,))}))
                if len(used_dst) > len(band) // 2:
                    return stream
            else:
                if len(name_pool) < count:
                    return stream
                block += [("cypher", {
                    "text": "MATCH (e:E) WHERE e.name = "
                            f"'{name_pool.pop()}' RETURN id(e)"})
                    for _ in range(count)]
        rng.shuffle(block)
        stream += block
    return stream


def ask(client: Any, method: str, params: dict[str, Any]) -> Any:
    """One request frame through a ``FrontendClient`` (raises on error)."""
    if method in ("lineage", "impacted"):
        return getattr(client, method)(params["entity"])
    if method == "blame":
        return client.blame(params["entity"])
    if method == "segment":
        return client.segment(params["query"])
    return client.cypher(params["text"])


class Context:
    def __init__(self, seed: int, smoke: bool, traced: bool):
        from repro.segment.pgseg import PgSegQuery
        from repro.serve.cluster import ProvCluster
        from repro.workloads.pd_generator import generate_pd_sized

        instance = generate_pd_sized(800 if smoke else 5000)
        self.graph = instance.graph
        self.entities = list(instance.entities)
        self.tally = Tally()
        self.cluster = None
        self.clients: list[Any] = []
        rng = random.Random(seed)
        names = sorted({self.graph.vertex(entity).properties["name"]
                        for entity in self.entities})
        src = tuple(self.entities[:2])
        # Enough blocks that no realistic run exhausts its stream. The
        # last few are held back for the traced run's quiesced probe;
        # each reader gets its own half of the rest, so the two never
        # share a request.
        stream = build_stream(self.entities, names, src, rng,
                              blocks=40 if smoke else 400)
        self.reserve = stream[-RESERVE_BLOCKS * BLOCK_OPS:]
        stream = stream[:-RESERVE_BLOCKS * BLOCK_OPS]
        half = (len(stream) // BLOCK_OPS // READERS) * BLOCK_OPS
        self.streams = [stream[index * half:(index + 1) * half]
                        for index in range(READERS)]
        try:
            self.cluster = ProvCluster(self.graph,
                                       config=serve_config(traced))
            self.probe = ProcessProbe(lambda: worker_pids(self.cluster))
            self.clients = [frontend_client(self.cluster, f"reader{index}")
                            for index in range(READERS)]
            # Warm-up outside the streams: snapshots armed, ProvAdjacency
            # built and lazy imports done on both workers.
            warm = [("lineage", {"entity": self.entities[-1]}),
                    ("blame", {"entity": self.entities[-1]}),
                    ("segment", {"query": PgSegQuery(
                        src=src, dst=(self.entities[len(self.entities) // 100
                                                    + 2],))}),
                    ("cypher", {"text": "MATCH (e:E) WHERE e.name = "
                                        "'no-such-artifact' RETURN id(e)"})]
            for _ in range(4):     # rotation reaches both workers
                for method, params in warm:
                    ask(self.clients[0], method, params)
            self.baseline = layers.worker_totals(self.cluster)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        close_quietly(*self.clients, self.cluster)
        self.clients, self.cluster = [], None


def setup(seed: int, smoke: bool, traced: bool) -> Context:
    return Context(seed, smoke, traced)


def teardown(ctx: Context) -> None:
    ctx.close()


def measure(ctx: Context, seconds: float, spans: Spans) -> dict[str, Any]:
    from repro.query import ops
    from repro.query.cypherlite import run_query
    from repro.segment.pgseg import PgSegOperator
    from repro.serve.wire import rows_to_wire
    from repro.store.snapshot import GraphSnapshot

    #: per reader: (method, params, latency_s, digest | failure reason)
    served: list[list[tuple]] = [[] for _ in ctx.clients]
    rss_at_mark: list[float] = []
    deadline = time.perf_counter() + seconds

    def reader(index: int) -> None:
        client, mine = ctx.clients[index], served[index]
        for method, params in ctx.streams[index]:
            if time.perf_counter() >= deadline:
                break
            started = time.perf_counter()
            try:
                answer = ask(client, method, params)
                elapsed = time.perf_counter() - started
                outcome: Any = answer_digest(method, answer)
            except Exception as exc:   # noqa: BLE001 - counted below
                elapsed = time.perf_counter() - started
                outcome = failure_reason(exc)
            mine.append((method, params, elapsed, outcome))
            if index == 0 and len(mine) == RSS_AT_OPS:
                rss_at_mark.append(ctx.probe.peak_rss_mb())

    cpu0 = ctx.probe.cpu_s()
    window0 = time.perf_counter()
    # The readers end the window themselves, at the deadline.
    run_threads({f"reader{index}": partial(reader, index)
                 for index in range(READERS)}, None, threading.Event())
    elapsed = time.perf_counter() - window0
    cpu_s = ctx.probe.cpu_s() - cpu0
    peak_rss = rss_at_mark[0] if rss_at_mark else ctx.probe.peak_rss_mb()

    # Answer checking: in-process recompute on the (read-only) graph.
    snapshot = GraphSnapshot(ctx.graph)
    operator = PgSegOperator(ctx.graph, snapshot=snapshot)
    ops_done = [op for mine in served for op in mine]
    by_family: dict[str, list[float]] = {}
    segments_seen = 0
    for method, params, latency, outcome in ops_done:
        phase = f"reader.{method}"
        ctx.tally.attempt(phase)
        if isinstance(outcome, str):
            ctx.tally.fail(phase, outcome)
            continue
        by_family.setdefault(method, []).append(latency)
        if method in ("lineage", "impacted"):
            walk = ops.lineage if method == "lineage" else ops.impacted
            expected: Any = lineage_digest(
                walk(ctx.graph, params["entity"], snapshot=snapshot))
        elif method == "blame":
            expected = blame_digest(
                ops.blame(ctx.graph, params["entity"], snapshot=snapshot))
        elif method == "cypher":
            expected = rows_digest(rows_to_wire(
                run_query(ctx.graph, params["text"], snapshot=snapshot)))
        else:
            segments_seen += 1
            if segments_seen % SEGMENT_CHECK_EVERY != 1:
                continue
            local = operator.evaluate(params["query"])
            expected = segment_digest(local.vertices, local.edge_ids)
        if outcome != expected:
            ctx.tally.fail(phase, "wrong-answer")

    ctx.ops_done = ops_done
    latencies = [latency for _m, _p, latency, outcome in ops_done
                 if not isinstance(outcome, str)]
    count = len(latencies)
    out = {
        "ops_per_s": metric(count / elapsed, "op/s", n=count),
        "op_p50_ms": metric(median(latencies) * 1e3, "ms", n=count),
        "op_p95_ms": metric(percentile(latencies, 0.95) * 1e3, "ms",
                            n=count),
        "peak_rss_mb": metric(peak_rss, "MB"),
        "cpu_s_per_kop": metric(cpu_s / count * 1e3, "s", base=count),
    }
    for family, name in (("lineage", "lineage_p50_ms"),
                         ("blame", "blame_p50_ms"),
                         ("segment", "segment_p50_ms"),
                         ("cypher", "cypher_p50_ms")):
        values = by_family.get(family)
        if values:
            out[name] = metric(median(values) * 1e3, "ms", n=len(values))
    return out


def layer_metrics(ctx: Context, spans: Spans) -> dict[str, Any]:
    from repro.serve import wire

    cluster, graph = ctx.cluster, ctx.graph
    traces = cluster.metrics()["traces"]["recent"]
    out, attributed = layers.hop_metrics(traces, group=1)
    out.update(layers.serving_counters(cluster, ctx.baseline))

    # Unseen walk/cypher requests, alternately through the front-end and
    # straight at the cluster, on the quiesced cluster (the front-end's
    # own cost does not depend on the compute behind it).
    probe = [request for request in ctx.reserve
             if request[0] != "segment"][:80]
    through_frontend = []
    for index, request in enumerate(probe):
        if index % 2:
            with spans.span("serve.cluster.query_many"):
                cluster.query_many([request])
        else:
            started = time.perf_counter()
            ask(ctx.clients[0], *request)
            through_frontend.append(time.perf_counter() - started)
    out["serve.frontend.self_ms"] = layers.frontend_self(through_frontend,
                                                        spans)

    snapshot = layers.capture_snapshot(graph, spans)
    # 1 in 8 of every family's answered ops (at least two of each, so a
    # short window still replays every layer).
    by_family: dict[str, list[tuple]] = {}
    for method, params, _latency, outcome in ctx.ops_done:
        if not isinstance(outcome, str):
            by_family.setdefault(method, []).append((method, params))
    sample = [request for requests in by_family.values()
              for request in (requests[::REPLAY_EVERY]
                              if len(requests) >= 2 * REPLAY_EVERY
                              else requests[:2])]
    answers = layers.replay_reads(graph, snapshot, sample, spans)
    queries = [params["query"] for method, params in sample
               if method == "segment"]
    segments = layers.replay_segments(graph, snapshot, queries, spans)
    answers_wire = []
    for (method, _params), answer in zip(sample, answers):
        if method in ("lineage", "impacted"):
            answers_wire.append(wire.lineage_to_wire(answer))
        elif method == "blame":
            answers_wire.append(wire.blame_to_wire(answer))
    layers.replay_segment_codec(graph, segments, spans)
    if answers_wire:
        # A single-request op's answer frame carries one response.
        answers_wire.sort(key=lambda payload: len(str(payload)))
        packed = layers.replay_responses_frame(
            [answers_wire[len(answers_wire) // 2]], graph.store.epoch, spans)
        layers.replay_transport(packed, spans)
    layers.replay_checkpoint(graph.store, SCRATCH_DIR, spans, rounds=1)

    out.update(layers.span_metrics(spans))
    observed = [latency for _m, _p, latency, outcome in ctx.ops_done
                if not isinstance(outcome, str)]
    share = layers.unattributed_share(attributed, observed)
    if share is not None:
        out["ledger.unattributed_share"] = share
    return out
