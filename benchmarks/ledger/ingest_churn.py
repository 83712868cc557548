"""Workload ``ingest_churn``: the write side — capture beside reads, then
crash-restarts.

Phase A: thread ``owner`` records activities through
``LifecycleSession.record`` in a closed loop (one op = one captured
activity: record, 4 property annotations, ship to both workers), with a
strict fresh read of every 10th output; thread ``reader`` refreshes an
8-tile shallow-lineage bundle through the front-end, open loop at 5
refreshes/s, timed from the due time. Phase B: SIGKILL a worker, record
20 more activities, and time ``health_check()`` until the restarted
worker's pong epoch equals the leader's.
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
    close_quietly,
    failure_reason,
    frontend_client,
    jittered_marks,
    lineage_digest,
    median,
    metric,
    percentile,
    run_threads,
    serve_config,
    sliced_rate,
    worker_pids,
)

NAME = "ingest_churn"

READER_HZ = 5.0
FRESH_READ_EVERY = 10
#: ``peak_rss_mb`` is read when the owner has captured this many
#: activities in the window (i.e. at a fixed graph size): read at the end
#: it would grow with the number captured, and so with ingest *speed*.
RSS_AT_ACTIVITY = 2000
RESTART_CYCLES = 6
RESTART_WRITES = 20
MEMBERS = 5
COMMANDS = ("ingest", "clean", "featurize", "train", "evaluate", "plot")


class Context:
    def __init__(self, seed: int, smoke: bool, traced: bool):
        from repro.query import ops
        from repro.serve.api import QuerySpec
        from repro.serve.replication import ReplicationLog
        from repro.session import LifecycleSession
        from repro.store.checkpoint import write_checkpoint

        self.smoke = smoke
        self.rng = random.Random(seed)
        self.session = LifecycleSession("ledger")
        self.graph = self.session.graph
        self.tally = Tally()
        self.gate = Gate()
        self.names: list[str] = []
        self.cluster = None
        self.reader = None
        self.replog = None
        self.shipped: list[list[bytes]] = []
        self.replay_cap = 0
        self.fresh: list[float] = []
        for _ in range(300 if smoke else 4000):
            self.record(Spans())
        # The reader's bundle: depth-2 lineage of pre-recorded outputs,
        # write-invariant, so the digests are fixed before the window.
        builder = self.session.builder
        targets = [builder.latest(self.names[int(len(self.names) * mark)])
                   for mark in jittered_marks(self.rng, 0.1, 1.0, 8)]
        self.tiles = [QuerySpec.lineage(entity, max_depth=2)
                      for entity in targets]
        self.expected = [lineage_digest(ops.lineage(self.graph, entity,
                                                    max_depth=2))
                         for entity in targets]
        try:
            self.cluster = self.session.serve(config=serve_config(traced))
            self.probe = ProcessProbe(lambda: worker_pids(self.cluster))
            self.reader = frontend_client(self.cluster, "reader")
            for _ in range(3):          # warm the write and read paths
                self.activity(Spans(), phase="warmup", fresh=True)
                self.reader.query_many(self.tiles)
            if traced:
                self.start_checkpoint = SCRATCH_DIR / "ingest-start.ckpt"
                write_checkpoint(self.graph.store, self.start_checkpoint)
                self.replog = ReplicationLog(self.graph.store)
                self.replay_epoch = self.graph.store.epoch
            self.baseline = layers.worker_totals(self.cluster)
        except BaseException:
            self.close()
            raise

    # -- one captured activity ------------------------------------------

    def record(self, spans: Spans) -> tuple[int, str, list[str]]:
        """``session.record`` + 4 annotations; returns the new output id,
        its artifact name and the names it used."""
        index, rng = len(self.names), self.rng
        uses = rng.sample(self.names, 2) if index >= 2 \
            else [f"raw{index}-a", f"raw{index}-b"]
        name = f"artifact{index}"
        with spans.span("model.record"):
            self.session.record(
                f"member{index % MEMBERS}", COMMANDS[index % len(COMMANDS)],
                uses=uses, generates=[name],
                lr=0.01, epochs=index % 50, tag="ledger")
        self.names.append(name)
        output = self.session.builder.latest(name)
        with spans.span("model.annotate"):
            for key in ("loss", "accuracy", "duration", "note"):
                self.graph.store.set_vertex_property(output, key, index)
        return output, name, uses

    def activity(self, spans: Spans, phase: str, fresh: bool) -> float:
        """One op: capture, ship, and (when ``fresh``) read it back
        strictly. Returns the capture+ship time; the caller holds the
        gate."""
        started = time.perf_counter()
        output, _name, uses = self.record(spans)
        elapsed = time.perf_counter() - started
        if self.replog is not None and phase == "owner.activity":
            # Recording for the layer replay; not part of the op.
            with spans.span("serve.replication.ship"):
                payloads = self.replog.ship_binary_since(self.replay_epoch)
            self.replay_epoch = self.graph.store.epoch
            if len(self.shipped) < self.replay_cap:
                self.shipped.append(payloads)
            spans.add("store.delta.records_per_activity", len(payloads))
        started = time.perf_counter()
        with spans.span("serve.pool.refresh"):
            self.cluster.refresh()
        elapsed += time.perf_counter() - started
        if fresh:
            self.tally.attempt(f"{phase}.fresh_read")
            try:
                committed = time.perf_counter()
                answer = self.cluster.lineage(output, max_depth=1)
                self.fresh.append(time.perf_counter() - committed)
                builder = self.session.builder
                want = {output, *(builder.latest(name) for name in uses)}
                if not want <= answer.vertices \
                        or len(answer.vertices) != len(want) + 1:
                    raise AssertionError(
                        "fresh read does not reflect the write")
            except Exception as exc:   # noqa: BLE001 - counted
                self.tally.fail(f"{phase}.fresh_read", failure_reason(exc))
        return elapsed

    def close(self) -> None:
        close_quietly(self.reader)
        self.reader = None
        cluster, self.cluster = self.cluster, None
        if cluster is not None:
            try:
                self.session.stop_serving()
            except Exception:   # noqa: BLE001 - teardown must not raise
                close_quietly(cluster)


def setup(seed: int, smoke: bool, traced: bool) -> Context:
    return Context(seed, smoke, traced)


def teardown(ctx: Context) -> None:
    ctx.close()


def measure(ctx: Context, seconds: float, spans: Spans) -> dict[str, Any]:
    ctx.fresh = []
    # Layer replay pushes a contiguous 1-in-8 prefix of the window's
    # shipped spans through a follower (a follower cannot skip epochs).
    ctx.replay_cap = max(50, int(seconds * 100))
    activity_s: list[float] = []
    stamps: list[float] = []
    rss_at_mark: list[float] = []
    refresh_s: list[float] = []
    lateness_s: list[float] = []
    stop = threading.Event()

    def owner() -> None:
        count = 0
        while not stop.is_set():
            ctx.tally.attempt("owner.activity")
            with ctx.gate:
                try:
                    count += 1
                    activity_s.append(ctx.activity(
                        spans, "owner.activity",
                        fresh=count % FRESH_READ_EVERY == 0))
                    stamps.append(time.perf_counter())
                    if count == RSS_AT_ACTIVITY:
                        rss_at_mark.append(ctx.probe.peak_rss_mb())
                except Exception as exc:   # noqa: BLE001 - counted
                    ctx.tally.fail("owner.activity", failure_reason(exc))

    def reader() -> None:
        due = time.perf_counter()
        while not stop.is_set():
            delay = due - time.perf_counter()
            if delay > 0 and stop.wait(delay):
                break
            ctx.tally.attempt("reader.refresh")
            lateness_s.append(max(0.0, time.perf_counter() - due))
            with ctx.gate:
                try:
                    results = ctx.reader.query_many(ctx.tiles)
                except Exception as exc:   # noqa: BLE001 - counted
                    ctx.tally.fail("reader.refresh", failure_reason(exc))
                    due += 1.0 / READER_HZ
                    continue
            refresh_s.append(time.perf_counter() - due)
            due += 1.0 / READER_HZ
            for result, expected in zip(results, ctx.expected):
                if isinstance(result, BaseException):
                    ctx.tally.fail("reader.refresh", failure_reason(result))
                    break
                if lineage_digest(result) != expected:
                    ctx.tally.fail("reader.refresh", "wrong-answer")
                    break

    cpu0 = ctx.probe.cpu_s()
    window0 = time.perf_counter()
    run_threads({"owner": owner, "reader": reader}, seconds, stop)
    window1 = time.perf_counter()
    cpu_s = ctx.probe.cpu_s() - cpu0
    peak_rss = rss_at_mark[0] if rss_at_mark else ctx.probe.peak_rss_mb()
    ctx.activity_s = activity_s
    ctx.lateness_s = lateness_s

    restarts = restart_phase(ctx, spans)
    count = len(activity_s)
    return {
        "ops_per_s": metric(sliced_rate(stamps, window0, window1), "op/s",
                            n=count),
        "op_p50_ms": metric(median(activity_s) * 1e3, "ms", n=count),
        "op_p95_ms": metric(percentile(activity_s, 0.95) * 1e3, "ms",
                            n=count),
        "ingest_us_per_activity": metric(
            sum(activity_s) / count * 1e6, "us", n=count),
        "refresh_p50_ms": metric(median(refresh_s) * 1e3, "ms",
                                 n=len(refresh_s)),
        "fresh_read_p50_ms": metric(median(ctx.fresh) * 1e3, "ms",
                                    n=len(ctx.fresh)),
        "restart_to_caught_up_s": metric(median(restarts), "s",
                                         n=len(restarts)),
        "peak_rss_mb": metric(peak_rss, "MB"),
        "cpu_s_per_kop": metric(cpu_s / count * 1e3, "s", base=count),
    }


def restart_phase(ctx: Context, spans: Spans) -> list[float]:
    """Phase B: kill → write → ``health_check`` → caught-up pong."""
    cluster = ctx.cluster
    restarts: list[float] = []
    for cycle in range(1 if ctx.smoke else RESTART_CYCLES):
        ctx.probe.sample()        # the victim's CPU/RSS, before it dies
        victim = cluster.replicas[cycle % len(cluster.replicas)]
        victim.proc.kill()
        victim.proc.wait()
        for _ in range(RESTART_WRITES):
            ctx.record(Spans())
        ctx.tally.attempt("restart.caught_up")
        try:
            started = time.perf_counter()
            restarted = cluster.health_check()
            epoch, _stats = victim.ping()
            restarts.append(time.perf_counter() - started)
            if restarted != [victim.replica_id] \
                    or epoch != cluster.leader_epoch:
                raise AssertionError(
                    f"restart left worker at epoch {epoch}, leader at "
                    f"{cluster.leader_epoch} (restarted {restarted})")
            results = ctx.reader.query_many(ctx.tiles)
            if [lineage_digest(result) for result in results] \
                    != ctx.expected:
                raise AssertionError("wrong answer after restart")
        except Exception as exc:   # noqa: BLE001 - counted
            ctx.tally.fail("restart.caught_up", failure_reason(exc))
    return restarts


def layer_metrics(ctx: Context, spans: Spans) -> dict[str, Any]:
    from repro.serve import wire

    cluster, graph = ctx.cluster, ctx.graph
    traces = cluster.metrics()["traces"]["recent"]
    out, _attributed = layers.hop_metrics(traces, group=len(ctx.tiles))
    out.update(layers.serving_counters(cluster, baseline=ctx.baseline))

    out["serve.frontend.self_ms"] = layers.probe_bundle(
        ctx.reader, cluster, ctx.tiles, spans)

    snapshot = layers.capture_snapshot(graph, spans, adjacency=False)
    requests = [spec.as_tuple() for spec in ctx.tiles]
    answers = layers.replay_reads(graph, snapshot, requests, spans)
    packed = layers.replay_responses_frame(
        [wire.lineage_to_wire(answer) for answer in answers[::2]],
        graph.store.epoch, spans)
    layers.replay_transport(packed, spans)
    follower = layers.replay_writes(ctx.start_checkpoint, ctx.shipped,
                                    spans)
    if follower.epoch <= 0:
        raise AssertionError("write replay applied nothing")
    layers.replay_checkpoint(graph.store, SCRATCH_DIR, spans)
    ctx.start_checkpoint.unlink(missing_ok=True)

    out.update(layers.span_metrics(spans))
    out["ledger.generator_late_ms"] = metric(
        percentile(ctx.lateness_s, 0.95) * 1e3, "ms", n=len(ctx.lateness_s))
    # An op here is one captured activity: its layers are the spans the
    # owner recorded around record / annotate / refresh.
    attributed = [sum(parts) for parts in zip(
        spans.get("model.record"), spans.get("model.annotate"),
        spans.get("serve.pool.refresh"))]
    share = layers.unattributed_share(attributed, ctx.activity_s)
    if share is not None:
        out["ledger.unattributed_share"] = share
    return out
