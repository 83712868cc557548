"""The ledger's metric and workload tables (names are normative).

``BENCHMARK.json`` at the repo root is the contract the PR driver reads;
it can only name metrics that every workload emits, so it carries the
*gated* subset of :data:`END_TO_END` (``gated=True`` — defined on all
four workloads) and every :data:`PER_LAYER` name. The ledger's own
records, ``compare`` and ``report`` use the full tables below, where a
metric is emitted only on the workloads it applies to.
``test_ledger_smoke.py`` pins the two against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS: dict[str, str] = {
    "dash_hot": (
        "16-tile dashboard refreshes beside a 4 Hz writer: caches and "
        "views answer, so wire, transport, front-end and routing own the "
        "time; the solver only works after a write"),
    "explore_cold": (
        "two readers, no writes, no request repeated: every answer is a "
        "cache miss, so CFL solve, PgSeg induce and the walks own the "
        "time and the serving layers are a small share"),
    "ingest_churn": (
        "capture beside reads, then six worker kills: the write side of "
        "the same layers (delta log, batch codecs, ship, advance, "
        "checkpoint, restart) that no read workload exercises"),
    "paper_ops": (
        "PgSeg, PgSum and the walks in-process with no serving code on "
        "the path: absolute Fig. 5 operator cost, unmoved by any serve/ "
        "refactor"),
}

SERVED = ("dash_hot", "explore_cold", "ingest_churn")
ALL = tuple(WORKLOADS)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    workloads: tuple[str, ...]
    what: str
    gated: bool = False


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25, ALL,
             "graph generation + cluster boot + warm-up (median of the "
             "run's set-ups)", gated=True),
    EndToEnd("ops_per_s", "op/s", "higher", 0.25, ALL,
             "refreshes (dash_hot), requests (explore_cold), captured "
             "activities (ingest_churn), operator calls (paper_ops) per "
             "second of window", gated=True),
    EndToEnd("op_p50_ms", "ms", "lower", 0.25, ALL,
             "median latency of that op", gated=True),
    EndToEnd("op_p95_ms", "ms", "lower", 0.25, ALL,
             "95th percentile latency of that op", gated=True),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10, ALL,
             "sum of VmHWM over the benchmark process and every worker "
             "pid", gated=True),
    EndToEnd("cpu_s_per_kop", "s", "lower", 0.25, ALL,
             "leader process_time + workers' utime+stime per 1000 ops",
             gated=True),
    EndToEnd("lineage_p50_ms", "ms", "lower", 0.20,
             ("explore_cold", "paper_ops"), "full-depth lineage"),
    EndToEnd("blame_p50_ms", "ms", "lower", 0.20,
             ("explore_cold", "paper_ops"), "blame report"),
    EndToEnd("segment_p50_ms", "ms", "lower", 0.20,
             ("explore_cold", "paper_ops"), "PgSeg evaluation"),
    EndToEnd("cypher_p50_ms", "ms", "lower", 0.20, ("explore_cold",),
             "CypherLite by-name entity lookup"),
    EndToEnd("summarize_p50_ms", "ms", "lower", 0.20,
             ("dash_hot", "paper_ops"),
             "served summary (dash_hot) / cold PgSum (paper_ops)"),
    EndToEnd("fresh_read_p50_ms", "ms", "lower", 0.20,
             ("dash_hot", "ingest_churn"),
             "write committed on the leader -> strict read reflecting it "
             "answered"),
    EndToEnd("refresh_p50_ms", "ms", "lower", 0.20, ("ingest_churn",),
             "open-loop reader refresh, timed from its due time"),
    EndToEnd("ingest_us_per_activity", "us", "lower", 0.20,
             ("ingest_churn",),
             "builder -> store -> delta log -> ship, per captured activity"),
    EndToEnd("restart_to_caught_up_s", "s", "lower", 0.25,
             ("ingest_churn",),
             "health_check() -> restarted worker's pong epoch == leader "
             "epoch (median of the kill cycles)"),
    EndToEnd("failed_share", "ratio", "lower", 0.0, ALL,
             "ops that errored, timed out, were refused or answered "
             "wrongly / ops attempted (absolute bound: must be 0)"),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    how: str            # s = live span, r = layer replay, c = counter
    workloads: tuple[str, ...]
    moves: str          # the end-to-end metric it should move -> on


_WRITES = ("dash_hot", "ingest_churn")
_SEGMENTS = ("dash_hot", "explore_cold", "paper_ops")

PER_LAYER: tuple[PerLayer, ...] = (
    PerLayer("model.record_us", "us", "lower", "s", ("ingest_churn",),
             "ingest_us_per_activity -> ingest_churn"),
    PerLayer("model.annotate_us", "us", "lower", "s", _WRITES,
             "ingest_us_per_activity -> ingest_churn"),
    PerLayer("store.delta.records_per_activity", "count", "lower", "c",
             _WRITES, "ingest_us_per_activity -> ingest_churn"),
    PerLayer("store.store.apply_batch_us", "us", "lower", "r", _WRITES,
             "fresh_read_p50_ms -> ingest_churn, dash_hot"),
    PerLayer("store.snapshot.capture_ms", "ms", "lower", "s", ALL,
             "setup_s -> all; ops_per_s -> paper_ops"),
    PerLayer("store.snapshot.advance_us", "us", "lower", "r", _WRITES,
             "fresh_read_p50_ms -> ingest_churn; op_p95_ms -> dash_hot"),
    PerLayer("store.checkpoint.write_ms", "ms", "lower", "r", SERVED,
             "restart_to_caught_up_s, setup_s -> ingest_churn"),
    PerLayer("store.checkpoint.read_ms", "ms", "lower", "r", SERVED,
             "restart_to_caught_up_s -> ingest_churn"),
    PerLayer("store.checkpoint.bytes", "B", "lower", "c", SERVED,
             "restart_to_caught_up_s, peak_rss_mb -> ingest_churn"),
    PerLayer("store.sharding.split_batch_us", "us", "lower", "r", _WRITES,
             "none today (shards=1 is what is served)"),
    PerLayer("cfl.adjacency_build_ms", "ms", "lower", "r", _SEGMENTS,
             "segment_p50_ms -> paper_ops, explore_cold"),
    PerLayer("cfl.solve_tst_ms", "ms", "lower", "r", _SEGMENTS,
             "segment_p50_ms, ops_per_s -> explore_cold, paper_ops"),
    PerLayer("cfl.solve_alg_ms", "ms", "lower", "r", ("paper_ops",),
             "segment_p50_ms, ops_per_s -> paper_ops"),
    PerLayer("cfl.result_vertices", "count", "lower", "c", _SEGMENTS,
             "explains cfl.solve_*"),
    PerLayer("segment.evaluate_ms", "ms", "lower", "s/r", _SEGMENTS,
             "segment_p50_ms -> explore_cold, paper_ops; op_p95_ms -> "
             "dash_hot"),
    PerLayer("segment.induce_self_ms", "ms", "lower", "r", _SEGMENTS,
             "same as segment.evaluate_ms"),
    PerLayer("segment.vertices", "count", "lower", "c", _SEGMENTS,
             "explains segment.*"),
    PerLayer("summarize.pgsum_ms", "ms", "lower", "s/r",
             ("dash_hot", "paper_ops"), "summarize_p50_ms -> paper_ops"),
    PerLayer("summarize.input_vertices", "count", "lower", "c",
             ("dash_hot", "paper_ops"), "explains summarize.pgsum_ms"),
    PerLayer("summarize.compaction_ratio", "ratio", "lower", "c",
             ("dash_hot", "paper_ops"),
             "correctness guard for summarize_p50_ms"),
    PerLayer("query.lineage_us", "us", "lower", "r", ALL,
             "lineage_p50_ms -> explore_cold, paper_ops"),
    PerLayer("query.blame_us", "us", "lower", "r", _SEGMENTS,
             "blame_p50_ms -> explore_cold, paper_ops"),
    PerLayer("query.cypher_ms", "ms", "lower", "r", ("explore_cold",),
             "cypher_p50_ms -> explore_cold"),
    PerLayer("serve.wire.request_codec_us", "us", "lower", "r", SERVED,
             "op_p50_ms -> dash_hot"),
    PerLayer("serve.wire.result_encode_us", "us", "lower", "r", SERVED,
             "op_p50_ms, cpu_s_per_kop -> dash_hot"),
    PerLayer("serve.wire.result_decode_us", "us", "lower", "r", SERVED,
             "op_p50_ms -> dash_hot, explore_cold"),
    PerLayer("serve.wire.responses_pack_us", "us", "lower", "r", SERVED,
             "op_p50_ms -> dash_hot"),
    PerLayer("serve.wire.batch_codec_us", "us", "lower", "r", _WRITES,
             "ingest_us_per_activity, fresh_read_p50_ms -> ingest_churn"),
    PerLayer("serve.wire.bytes_per_response", "B", "lower", "c", SERVED,
             "op_p50_ms -> dash_hot"),
    PerLayer("serve.wire.bytes_per_batch", "B", "lower", "c", _WRITES,
             "ingest_us_per_activity -> ingest_churn"),
    PerLayer("serve.transport.roundtrip_us", "us", "lower", "r", SERVED,
             "op_p50_ms -> dash_hot"),
    PerLayer("serve.transport.hop_us", "us", "lower", "c", SERVED,
             "op_p50_ms -> dash_hot"),
    PerLayer("serve.replication.ship_us", "us", "lower", "r", _WRITES,
             "ingest_us_per_activity -> ingest_churn"),
    PerLayer("serve.worker.compute_ms", "ms", "lower", "c", SERVED,
             "op_p50_ms -> explore_cold"),
    PerLayer("serve.worker.cache_hit_share", "ratio", "higher", "c", SERVED,
             "ops_per_s -> dash_hot; ~0 predicted on explore_cold"),
    PerLayer("serve.worker.cache_retained_share", "ratio", "higher", "c",
             SERVED, "op_p95_ms -> dash_hot"),
    PerLayer("serve.worker.cache_evicted", "count", "lower", "c", SERVED,
             "op_p95_ms -> dash_hot"),
    PerLayer("serve.worker.views_served_share", "ratio", "higher", "c",
             ("dash_hot",), "summarize_p50_ms -> dash_hot"),
    PerLayer("serve.pool.bootstrap_s", "s", "lower", "c", SERVED,
             "restart_to_caught_up_s -> ingest_churn; setup_s -> served"),
    PerLayer("serve.pool.checkpoint_hits", "count", "higher", "c", SERVED,
             "restart_to_caught_up_s -> ingest_churn"),
    PerLayer("serve.pool.full_syncs", "count", "lower", "c", SERVED,
             "restart_to_caught_up_s -> ingest_churn"),
    PerLayer("serve.pool.bytes_shipped", "B", "lower", "c", SERVED,
             "restart_to_caught_up_s -> ingest_churn"),
    PerLayer("serve.pool.restarts", "count", "lower", "c", SERVED,
             "failed_share -> all served"),
    PerLayer("serve.pool.late_responses", "count", "lower", "c", SERVED,
             "failed_share -> all served"),
    PerLayer("serve.cluster.route_us", "us", "lower", "c", SERVED,
             "op_p50_ms -> dash_hot"),
    PerLayer("serve.cluster.query_many_ms", "ms", "lower", "s", SERVED,
             "op_p50_ms -> dash_hot"),
    PerLayer("serve.frontend.self_ms", "ms", "lower", "s", SERVED,
             "op_p50_ms -> dash_hot"),
    PerLayer("serve.frontend.queue_us", "us", "lower", "c", SERVED,
             "op_p95_ms -> dash_hot"),
    PerLayer("serve.frontend.batch_size", "count", "higher", "c", SERVED,
             "ops_per_s -> dash_hot"),
    PerLayer("serve.frontend.overloaded", "count", "lower", "c", SERVED,
             "failed_share -> all served"),
    PerLayer("obs.trace_overhead_share", "ratio", "lower", "s", ALL,
             "must stay small for the budget to be trusted"),
    PerLayer("ledger.unattributed_share", "ratio", "lower", "s", ALL,
             "how much of an op the outside view cannot see"),
    PerLayer("ledger.generator_late_ms", "ms", "lower", "s",
             ("ingest_churn",),
             "validity guard for refresh_p50_ms -> ingest_churn"),
)

END_TO_END_BY_NAME = {entry.name: entry for entry in END_TO_END}
PER_LAYER_BY_NAME = {entry.name: entry for entry in PER_LAYER}
GATED = tuple(entry for entry in END_TO_END if entry.gated)


def expected_end_to_end(workload: str) -> set[str]:
    return {entry.name for entry in END_TO_END
            if workload in entry.workloads}


def expected_per_layer(workload: str) -> set[str]:
    return {entry.name for entry in PER_LAYER if workload in entry.workloads}
