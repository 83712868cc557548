"""Workload ``dash_hot``: a monitoring dashboard beside a steady writer.

Thread ``reader`` refreshes a fixed 16-tile dashboard through the
front-end in a closed loop; thread ``owner`` appends one recorded run on
a fixed 4 Hz schedule, reads it back strictly, and every 4th tick asks
for a summary. The worker result cache answers almost every tile, so
time sits in the codecs, the transport, the front-end and routing; the
solver only works on the post-write segment-tile recompute.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any

from benchmarks.ledger import layers
from benchmarks.ledger.harness import (
    SCRATCH_DIR,
    Gate,
    ProcessProbe,
    Spans,
    Tally,
    answer_digest,
    blame_digest,
    close_quietly,
    entity_at,
    entity_near,
    failure_reason,
    frontend_client,
    jittered_marks,
    lineage_digest,
    median,
    metric,
    percentile,
    run_threads,
    segment_digest,
    segment_wire_digest,
    serve_config,
    sliced_rate,
    worker_pids,
)

NAME = "dash_hot"

OWNER_HZ = 4.0
SUMMARY_EVERY = 4
#: dst marks of the two pooled segment tiles (ISSUE 11).
SEGMENT_MARKS = (0.04, 0.08)
#: dst marks of the summary pair. The pooled tile segments (445 + 926
#: vertices on the 12k graph) cost ~9 s per PgSum, and every structural
#: write drops the workers' summary views, so a 1 Hz summary over them
#: would stall a worker for most of the run; this pair (~40 + ~80
#: vertices) recomputes in tens of ms.
SUMMARY_MARKS = (0.003, 0.006)
BLAME_MARKS = (0.2, 0.4, 0.6, 0.8)
SMOKE_SUMMARY_MARKS = (0.02, 0.04)


class Context:
    """Everything one set-up of the workload owns."""

    def __init__(self, seed: int, smoke: bool, traced: bool):
        from repro.segment.pgseg import PgSegQuery
        from repro.serve.api import QuerySpec
        from repro.serve.cluster import ProvCluster
        from repro.serve.replication import ReplicationLog
        from repro.store.checkpoint import write_checkpoint
        from repro.store.snapshot import GraphSnapshot
        from repro.query import ops
        from repro.workloads.pd_generator import generate_pd_sized

        self.rng = random.Random(seed)
        instance = generate_pd_sized(1000 if smoke else 12000)
        self.graph = instance.graph
        self.entities = list(instance.entities)
        self.tally = Tally()
        self.gate = Gate()
        self.cluster = None
        self.reader = None
        self.ticks = 0
        self.summarize_calls = 0
        self.replog = None
        self.shipped: list[list[bytes]] = []

        src = tuple(self.entities[:2])
        rng = self.rng
        snapshot = GraphSnapshot(self.graph)
        lineage_targets = [entity_at(self.entities, mark)
                           for mark in jittered_marks(rng, 0.05, 0.95, 10)]
        # A blame answer lists the whole ancestry, so its tile's cost is
        # its ancestry size: pin that to the mark, whatever the seed.
        vertices = self.graph.vertex_count
        blame_targets = [
            entity_near(self.entities, rng, mark, 0.02,
                        lambda entity, mark=mark: len(ops.lineage(
                            self.graph, entity, snapshot=snapshot).vertices)
                        >= 0.6 * mark * vertices)
            for mark in BLAME_MARKS]
        self.segment_queries = [
            PgSegQuery(src=src, dst=(entity_at(self.entities, mark),))
            for mark in SEGMENT_MARKS]
        self.summary_pool = [
            PgSegQuery(src=src, dst=(entity_at(self.entities, mark),))
            for mark in (SMOKE_SUMMARY_MARKS if smoke else SUMMARY_MARKS)]
        self.tiles = (
            [QuerySpec.lineage(entity, max_depth=2)
             for entity in lineage_targets]
            + [QuerySpec.blame(entity) for entity in blame_targets]
            + [QuerySpec.segment(query) for query in self.segment_queries])

        # Upstream lineage / blame of pre-existing entities are
        # write-invariant (appends never change an existing entity's
        # ancestry): their digests are fixed before the window.
        self.expected = (
            [lineage_digest(ops.lineage(self.graph, entity, max_depth=2,
                                        snapshot=snapshot))
             for entity in lineage_targets]
            + [blame_digest(ops.blame(self.graph, entity,
                                      snapshot=snapshot))
               for entity in blame_targets])
        del snapshot

        try:
            self.cluster = ProvCluster(self.graph,
                                       config=serve_config(traced))
            self.probe = ProcessProbe(lambda: worker_pids(self.cluster))
            self.reader = frontend_client(self.cluster, "reader")
            self._warm_up()
            self.baseline = layers.worker_totals(self.cluster)
            self.summarize_calls = 0
            if traced:
                # Layer replay needs the store as it stood before the
                # recorded write stream, plus a publisher of its own.
                self.start_checkpoint = SCRATCH_DIR / "dash-hot-start.ckpt"
                write_checkpoint(self.graph.store, self.start_checkpoint)
                self.replog = ReplicationLog(self.graph.store)
                self.replay_epoch = self.graph.store.epoch
        except BaseException:
            self.close()
            raise

    # -- set-up ---------------------------------------------------------

    def _warm_up(self) -> None:
        """Caches filled, snapshots armed, lazy imports done, on both
        workers and both routing orders."""
        for _ in range(2):
            self.reader.query_many(self.tiles)
            self.summarize()
        for _ in range(2):
            self.tick(Spans(), record=False)
            self.reader.query_many(self.tiles)
            self.reader.query_many(self.tiles)

    # -- the owner's tick -----------------------------------------------

    def tick(self, spans: Spans, record: bool = True,
             fresh: list[float] | None = None,
             summaries: list[float] | None = None) -> None:
        """One recorded run + strict fresh read (+ summary every 4th)."""
        graph, rng, index = self.graph, self.rng, self.ticks
        self.ticks += 1
        activity = graph.add_activity(command=f"ledger-run{index}")
        used = rng.sample(self.entities, k=2)
        for entity in used:
            graph.used(activity, entity)
        output = graph.add_entity(name=f"ledger-out{index}")
        graph.was_generated_by(output, activity)
        with spans.span("model.annotate"):
            for key in ("loss", "accuracy", "epoch", "note"):
                graph.store.set_vertex_property(output, key, index)
        if record and self.replog is not None:
            with spans.span("serve.replication.ship"):
                payloads = self.replog.ship_binary_since(self.replay_epoch)
            self.replay_epoch = graph.store.epoch
            self.shipped.append(payloads)
            spans.add("store.delta.records_per_activity", len(payloads))
        phase = "owner.fresh_read" if record else "warmup"
        self.tally.attempt(phase)
        try:
            committed = time.perf_counter()
            answer = self.cluster.lineage(output, max_depth=1)
            elapsed = time.perf_counter() - committed
            if answer.vertices != {output, activity, *used}:
                raise AssertionError("fresh read does not reflect the write")
            if fresh is not None:
                fresh.append(elapsed)
        except Exception as exc:   # noqa: BLE001 - counted, never dropped
            self.tally.fail(phase, failure_reason(exc))
        if index % SUMMARY_EVERY == SUMMARY_EVERY - 1:
            phase = "owner.summarize" if record else "warmup"
            self.tally.attempt(phase)
            try:
                started = time.perf_counter()
                self.summarize()
                if summaries is not None:
                    summaries.append(time.perf_counter() - started)
            except Exception as exc:   # noqa: BLE001
                self.tally.fail(phase, failure_reason(exc))

    def summarize(self) -> Any:
        self.summarize_calls += 1
        return self.cluster.summarize(self.summary_pool)

    # -- answer checking ------------------------------------------------

    def refresh_failure(self, results: list[Any]) -> str | None:
        """Why a refresh failed (a tile errored, was refused, or answered
        wrongly), or ``None``. Segment tiles are only checked for shape
        here; :meth:`check_quiesced` compares them bit-for-bit."""
        for index, result in enumerate(results):
            if isinstance(result, BaseException):
                return failure_reason(result)
            if index < len(self.expected):
                method = self.tiles[index].method
                if answer_digest(method, result) != self.expected[index]:
                    return "wrong-answer"
            elif not result.get("vertices"):
                return "wrong-answer"
        return None

    def check_quiesced(self) -> None:
        """Segment and summary tiles, re-asked on the quiesced cluster and
        compared bit-for-bit with a leader recompute."""
        from repro.segment.pgseg import PgSegOperator
        from repro.serve.wire import psg_to_wire
        from repro.summarize.pgsum import PgSumOperator, PgSumQuery

        operator = PgSegOperator(self.graph, snapshot=True)
        results = self.reader.query_many(self.tiles[len(self.expected):])
        for query, result in zip(self.segment_queries, results):
            self.tally.attempt("quiesced.segment")
            local = operator.evaluate(query)
            if isinstance(result, BaseException) or segment_wire_digest(
                    result) != segment_digest(local.vertices,
                                              local.edge_ids):
                self.tally.fail("quiesced.segment", "wrong-answer")
        self.tally.attempt("quiesced.summarize")
        served = self.summarize()
        local = PgSumOperator([operator.evaluate(query)
                               for query in self.summary_pool]
                              ).evaluate(PgSumQuery())
        if psg_to_wire(served) != psg_to_wire(local):
            self.tally.fail("quiesced.summarize", "wrong-answer")

    def close(self) -> None:
        close_quietly(self.reader, self.cluster)
        self.reader = self.cluster = None


def setup(seed: int, smoke: bool, traced: bool) -> Context:
    return Context(seed, smoke, traced)


def teardown(ctx: Context) -> None:
    ctx.close()


def measure(ctx: Context, seconds: float, spans: Spans) -> dict[str, Any]:
    """The fixed-duration window; returns the end-to-end metrics."""
    latencies: list[float] = []
    stamps: list[float] = []
    fresh: list[float] = []
    summaries: list[float] = []
    stop = threading.Event()

    def reader() -> None:
        while not stop.is_set():
            ctx.tally.attempt("reader.refresh")
            with ctx.gate:
                started = time.perf_counter()
                try:
                    results = ctx.reader.query_many(ctx.tiles)
                except Exception as exc:   # noqa: BLE001 - counted
                    ctx.tally.fail("reader.refresh", failure_reason(exc))
                    continue
                elapsed = time.perf_counter() - started
            reason = ctx.refresh_failure(results)
            if reason is not None:
                ctx.tally.fail("reader.refresh", reason)
            latencies.append(elapsed)
            stamps.append(started + elapsed)

    def owner() -> None:
        due = time.perf_counter()
        while not stop.is_set():
            delay = due - time.perf_counter()
            if delay > 0 and stop.wait(delay):
                break
            due += 1.0 / OWNER_HZ
            with ctx.gate:
                ctx.tick(spans, fresh=fresh, summaries=summaries)

    cpu0 = ctx.probe.cpu_s()
    window0 = time.perf_counter()
    run_threads({"reader": reader, "owner": owner}, seconds, stop)
    window1 = time.perf_counter()
    cpu_s = ctx.probe.cpu_s() - cpu0
    peak_rss = ctx.probe.peak_rss_mb()
    ctx.check_quiesced()
    ctx.latencies = latencies
    ops = len(latencies)
    out = {
        "ops_per_s": metric(sliced_rate(stamps, window0, window1), "op/s",
                            n=ops),
        "op_p50_ms": metric(median(latencies) * 1e3, "ms", n=ops),
        "op_p95_ms": metric(percentile(latencies, 0.95) * 1e3, "ms", n=ops),
        "fresh_read_p50_ms": metric(median(fresh) * 1e3, "ms", n=len(fresh)),
        "peak_rss_mb": metric(peak_rss, "MB"),
        "cpu_s_per_kop": metric(cpu_s / ops * 1e3, "s", base=ops),
    }
    if summaries:
        out["summarize_p50_ms"] = metric(median(summaries) * 1e3, "ms",
                                         n=len(summaries))
    return out


def layer_metrics(ctx: Context, spans: Spans) -> dict[str, Any]:
    """The per-layer budget of the traced run (cluster still up)."""
    from repro.serve import wire

    cluster, graph = ctx.cluster, ctx.graph
    traces = cluster.metrics()["traces"]["recent"]
    out, attributed = layers.hop_metrics(traces, group=len(ctx.tiles))
    out.update(layers.serving_counters(
        cluster, ctx.baseline, summarize_requests=ctx.summarize_calls))

    # The same bundle straight at the cluster vs. through the front-end.
    out["serve.frontend.self_ms"] = layers.probe_bundle(
        ctx.reader, cluster, ctx.tiles, spans)

    snapshot = layers.capture_snapshot(graph, spans)
    requests = [spec.as_tuple() for spec in ctx.tiles]
    answers = layers.replay_reads(graph, snapshot, requests, spans)
    segments = layers.replay_segments(graph, snapshot,
                                      ctx.segment_queries, spans)
    from repro.summarize.pgsum import PgSumQuery

    pool = layers.replay_segments(graph, snapshot, ctx.summary_pool,
                                  Spans())
    layers.replay_pgsum([(pool, PgSumQuery())] * 3, spans)
    answers_wire = []
    for (method, _params), answer in zip(requests, answers):
        if method == "lineage":
            answers_wire.append(wire.lineage_to_wire(answer))
        elif method == "blame":
            answers_wire.append(wire.blame_to_wire(answer))
    answers_wire += layers.replay_segment_codec(graph, segments, spans)
    # One worker's share of a refresh is every other tile.
    packed = layers.replay_responses_frame(answers_wire[::2],
                                           graph.store.epoch, spans)
    layers.replay_transport(packed, spans)
    follower = layers.replay_writes(ctx.start_checkpoint, ctx.shipped,
                                    spans)
    if follower.epoch != ctx.replay_epoch:
        raise AssertionError("write replay diverged from the leader")
    layers.replay_checkpoint(graph.store, SCRATCH_DIR, spans)
    ctx.start_checkpoint.unlink(missing_ok=True)

    out.update(layers.span_metrics(spans))
    share = layers.unattributed_share(attributed, ctx.latencies)
    if share is not None:
        out["ledger.unattributed_share"] = share
    return out
