"""Per-layer measurement: layer replay, published counters, hop spans.

Three sources, all read from outside the program (ISSUE 11):

- **(s)** benchmark-side spans around public calls on the live path —
  recorded by the workloads into a :class:`~benchmarks.ledger.harness.Spans`;
- **(r)** *layer replay* — a sample of the recorded op / batch stream
  pushed in-process through one layer's public functions with a span
  around each call (the ``replay_*`` functions here);
- **(c)** counters the program already publishes — ``cluster.stats``,
  ``cluster.metrics`` four-hop spans, pool ``bootstrap.*``
  (the ``*_counters`` / :func:`hop_metrics` functions here).

:data:`SPAN_METRICS` maps span names to the per-layer metric each
becomes; the metric names are the module paths under ``src/repro/``.
"""

from __future__ import annotations

import json
import socket
import time
from functools import partial
from pathlib import Path
from typing import Any, Iterable, Sequence

from benchmarks.ledger.harness import Spans, median, metric

#: per-layer metric -> (span name, unit). Medians of the recorded spans.
SPAN_METRICS: dict[str, tuple[str, str]] = {
    "model.record_us": ("model.record", "us"),
    "model.annotate_us": ("model.annotate", "us"),
    "store.store.apply_batch_us": ("store.apply_batch", "us"),
    "store.snapshot.capture_ms": ("store.snapshot.capture", "ms"),
    "store.snapshot.advance_us": ("store.snapshot.advance", "us"),
    "store.checkpoint.write_ms": ("store.checkpoint.write", "ms"),
    "store.checkpoint.read_ms": ("store.checkpoint.read", "ms"),
    "store.sharding.split_batch_us": ("store.sharding.split_batch", "us"),
    "cfl.adjacency_build_ms": ("cfl.adjacency_build", "ms"),
    "cfl.solve_tst_ms": ("cfl.solve_tst", "ms"),
    "cfl.solve_alg_ms": ("cfl.solve_alg", "ms"),
    "segment.evaluate_ms": ("segment.evaluate", "ms"),
    "segment.induce_self_ms": ("segment.induce_self", "ms"),
    "summarize.pgsum_ms": ("summarize.pgsum", "ms"),
    "query.lineage_us": ("query.lineage", "us"),
    "query.blame_us": ("query.blame", "us"),
    "query.cypher_ms": ("query.cypher", "ms"),
    "serve.wire.request_codec_us": ("serve.wire.request_codec", "us"),
    "serve.wire.result_encode_us": ("serve.wire.result_encode", "us"),
    "serve.wire.result_decode_us": ("serve.wire.result_decode", "us"),
    "serve.wire.responses_pack_us": ("serve.wire.responses_pack", "us"),
    "serve.wire.batch_codec_us": ("serve.wire.batch_codec", "us"),
    "serve.transport.roundtrip_us": ("serve.transport.roundtrip", "us"),
    "serve.replication.ship_us": ("serve.replication.ship", "us"),
    "serve.cluster.query_many_ms": ("serve.cluster.query_many", "ms"),
}

#: per-layer metric -> unit, for exact counts recorded through
#: ``Spans.add`` under the metric's own name (medians, like the spans).
COUNT_METRICS: dict[str, str] = {
    "store.delta.records_per_activity": "count",
    "store.checkpoint.bytes": "B",
    "cfl.result_vertices": "count",
    "segment.vertices": "count",
    "summarize.input_vertices": "count",
    "summarize.compaction_ratio": "ratio",
    "serve.wire.bytes_per_response": "B",
    "serve.wire.bytes_per_batch": "B",
}


def span_metrics(spans: Spans) -> dict[str, dict[str, Any]]:
    """Every :data:`SPAN_METRICS` / :data:`COUNT_METRICS` entry that has
    at least one sample."""
    out = {}
    for name, (span_name, unit) in SPAN_METRICS.items():
        record = spans.median_metric(span_name, unit)
        if record is not None:
            out[name] = record
    for name, unit in COUNT_METRICS.items():
        values = spans.get(name)
        if values:
            out[name] = metric(median(values), unit, n=len(values))
    return out


# ---------------------------------------------------------------------------
# (r) read path: query walks and the result codecs
# ---------------------------------------------------------------------------


def replay_reads(graph: Any, snapshot: Any,
                 requests: Sequence[tuple[str, dict[str, Any]]],
                 spans: Spans) -> list[Any]:
    """Recompute ``requests`` in-process; returns the domain answers.

    Spans: ``query.*`` around the ``repro.query`` call, then the answer
    is pushed through the wire codecs a served read pays — request frame
    encode+decode, result ``*_to_wire``, result ``*_from_wire``. Segment
    requests are left to :func:`replay_segments`.
    """
    from repro.query import ops
    from repro.query.cypherlite import run_query
    from repro.serve import wire

    answers: list[Any] = []
    encoded_bytes = 0
    encoded = 0
    for request_id, (method, params) in enumerate(requests, 1):
        if method == "segment":
            answers.append(None)
            continue
        if method in ("lineage", "impacted"):
            walk = ops.lineage if method == "lineage" else ops.impacted
            with spans.span(f"query.{method}"):
                answer = walk(graph, params["entity"],
                              max_depth=params.get("max_depth"),
                              snapshot=snapshot)
            to_wire, from_wire = wire.lineage_to_wire, wire.lineage_from_wire
            call = {"entity": params["entity"],
                    "max_depth": params.get("max_depth")}
        elif method == "blame":
            with spans.span("query.blame"):
                answer = ops.blame(graph, params["entity"],
                                   snapshot=snapshot)
            to_wire, from_wire = wire.blame_to_wire, wire.blame_from_wire
            call = {"entity": params["entity"]}
        else:
            with spans.span("query.cypher"):
                answer = run_query(graph, params["text"], snapshot=snapshot)
            to_wire = wire.rows_to_wire
            from_wire = partial(wire.rows_from_wire, graph)
            call = {"text": params["text"], "budget": None}
        answers.append(answer)
        with spans.span("serve.wire.request_codec"):
            line = json.dumps(wire.request_to_wire(request_id, method, call),
                              sort_keys=True)
            wire.request_from_wire(json.loads(line))
        with spans.span("serve.wire.result_encode"):
            payload = to_wire(answer)
        with spans.span("serve.wire.result_decode"):
            from_wire(payload)
        encoded_bytes += len(json.dumps(payload))
        encoded += 1
    if encoded:
        spans.add("serve.wire.bytes_per_response", encoded_bytes / encoded)
    return answers


def replay_responses_frame(answers_wire: Sequence[Any], epoch: int,
                           spans: Spans, rounds: int = 20) -> bytes:
    """Pack + unpack one worker's bundle answer; returns the packed bytes
    (the median-size frame :func:`replay_transport` ships)."""
    from repro.serve import wire

    responses = [wire.response_to_wire(index, epoch, result=payload)
                 for index, payload in enumerate(answers_wire, 1)]
    frame = wire.responses_bundle_to_wire(epoch, responses)
    packed = b""
    for _ in range(rounds):
        with spans.span("serve.wire.responses_pack"):
            packed = wire.pack_responses_frame(frame)
            wire.unpack_responses_frame(packed)
    return packed


def replay_transport(payload: bytes, spans: Spans, rounds: int = 50) -> None:
    """``BinaryTransport`` send+recv of ``payload`` over a socketpair."""
    from repro.serve.transport import BinaryTransport, LineTransport

    left_sock, right_sock = socket.socketpair()
    left = BinaryTransport.adopt(LineTransport.over_socket(left_sock))
    right = BinaryTransport.adopt(LineTransport.over_socket(right_sock))
    try:
        for _ in range(rounds):
            with spans.span("serve.transport.roundtrip"):
                left.send_binary(payload, timeout=10.0)
                right.recv(timeout=10.0)
    finally:
        left.close()
        right.close()


# ---------------------------------------------------------------------------
# (r) operators: CFL solve, PgSeg induce, PgSum merge, snapshot capture
# ---------------------------------------------------------------------------


def capture_snapshot(graph: Any, spans: Spans,
                     adjacency: bool = True) -> Any:
    """``GraphSnapshot(graph)`` under a span; with ``adjacency`` also
    times the first ``ProvAdjacency`` build on it."""
    from repro.store.snapshot import GraphSnapshot

    with spans.span("store.snapshot.capture"):
        snapshot = GraphSnapshot(graph)
    if adjacency:
        with spans.span("cfl.adjacency_build"):
            snapshot.prov_adjacency()
    return snapshot


def replay_segments(graph: Any, snapshot: Any, queries: Iterable[Any],
                    spans: Spans) -> list[Any]:
    """Solve + induce each PgSeg query in-process; returns the segments.

    ``segment.induce_self`` is the operator's time minus the matching
    solver time, per query (the solver runs once standalone, then again
    inside ``evaluate`` on a cache-cold operator).
    """
    from repro.cfl.simprov_alg import SimProvAlg
    from repro.cfl.simprov_tst import SimProvTst
    from repro.segment.pgseg import PgSegOperator

    segments = []
    for query in queries:
        solver_cls, span_name = (
            (SimProvAlg, "cfl.solve_alg")
            if query.algorithm == "simprov-alg"
            else (SimProvTst, "cfl.solve_tst"))
        started = time.perf_counter()
        result = solver_cls(graph, query.src, query.dst,
                            snapshot=snapshot).solve()
        solve_s = time.perf_counter() - started
        spans.add(span_name, solve_s)
        spans.add("cfl.result_vertices", len(result.path_vertices))
        operator = PgSegOperator(graph, snapshot=snapshot)
        started = time.perf_counter()
        segment = operator.evaluate(query)
        evaluate_s = time.perf_counter() - started
        spans.add("segment.evaluate", evaluate_s)
        spans.add("segment.induce_self", max(0.0, evaluate_s - solve_s))
        spans.add("segment.vertices", segment.vertex_count)
        segments.append(segment)
    return segments


def replay_segment_codec(graph: Any, segments: Iterable[Any],
                         spans: Spans) -> list[dict[str, Any]]:
    """``segment_to_wire`` / ``segment_from_wire`` per segment; returns
    the wire payloads."""
    from repro.serve import wire

    payloads = []
    for segment in segments:
        with spans.span("serve.wire.result_encode"):
            payload = wire.segment_to_wire(segment)
        with spans.span("serve.wire.result_decode"):
            wire.segment_from_wire(graph, payload)
        payloads.append(payload)
    return payloads


def replay_pgsum(segment_sets: Iterable[tuple[Sequence[Any], Any]],
                 spans: Spans) -> list[Any]:
    """``PgSumOperator(segments).evaluate(query)`` per set; returns Psgs."""
    from repro.summarize.pgsum import PgSumOperator

    summaries = []
    for segments, query in segment_sets:
        with spans.span("summarize.pgsum"):
            psg = PgSumOperator(segments).evaluate(query)
        spans.add("summarize.input_vertices",
                  sum(segment.vertex_count for segment in segments))
        spans.add("summarize.compaction_ratio", psg.compaction_ratio)
        summaries.append(psg)
    return summaries


# ---------------------------------------------------------------------------
# (r) write path: batch codecs, follower apply, snapshot advance, sharding
# ---------------------------------------------------------------------------


def replay_writes(checkpoint_path: Path,
                  shipped_spans: Sequence[Sequence[bytes]],
                  spans: Spans) -> Any:
    """Push recorded shipped spans through a follower copy.

    ``checkpoint_path`` is the leader store as it stood when recording
    began; ``shipped_spans`` the consecutive ``ship_binary_since``
    payload lists recorded from then on (one span per activity / tick).
    Spans: ``serve.wire.batch_codec`` (decode, then re-encode against
    the follower), ``store.apply_batch`` and ``store.snapshot.advance``
    per shipped span, ``store.sharding.split_batch`` per batch. Returns
    the follower store (for the divergence check).
    """
    from repro.serve import wire
    from repro.store.checkpoint import read_checkpoint
    from repro.store.sharding import ShardMap, split_batch
    from repro.store.snapshot import GraphSnapshot

    follower = read_checkpoint(checkpoint_path)
    snapshot = GraphSnapshot(follower)
    shard_map = ShardMap(2)
    batches = 0
    batch_bytes = 0
    for payloads in shipped_spans:
        decoded = []
        for payload in payloads:
            with spans.span("serve.wire.batch_codec"):
                frame = wire.unpack_batch_frame(payload)
                decoded.append(wire.batch_from_wire(frame))
            batches += 1
            batch_bytes += len(payload)
        with spans.span("store.apply_batch"):
            for batch, values in decoded:
                follower.apply_replicated_batch(batch, values)
        with spans.span("store.snapshot.advance"):
            snapshot = snapshot.advance(follower)
        for batch, _values in decoded:
            with spans.span("serve.wire.batch_codec"):
                wire.encode_batch_binary(batch, follower)
            with spans.span("store.sharding.split_batch"):
                split_batch(batch, shard_map, follower.order_of)
    if batches:
        spans.add("serve.wire.bytes_per_batch", batch_bytes / batches)
    return follower


def replay_checkpoint(store: Any, scratch: Path, spans: Spans,
                      rounds: int = 3) -> None:
    """``write_checkpoint`` / ``read_checkpoint`` of ``store``."""
    from repro.store.checkpoint import read_checkpoint, write_checkpoint

    path = scratch / "ledger-replay.ckpt"
    try:
        for _ in range(rounds):
            with spans.span("store.checkpoint.write"):
                nbytes = write_checkpoint(store, path)
            with spans.span("store.checkpoint.read"):
                read_checkpoint(path)
        spans.add("store.checkpoint.bytes", nbytes)
    finally:
        path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# (c) counters and hop spans the program publishes
# ---------------------------------------------------------------------------


def hop_metrics(traces: Sequence[dict[str, Any]], group: int,
                ) -> tuple[dict[str, dict[str, Any]], list[float]]:
    """Medians of the program's four hop spans, and per-op attributed time.

    ``traces`` is the leader's recent-trace ring in finish order; one op
    is ``group`` consecutive traces (16 for a dashboard refresh, 1 for a
    single request). The hops of one request are disjoint and sum to at
    most its wall time; the requests of a bundle run in parallel, so an
    op's attributed time is its *slowest* request's hop sum.
    """
    hops: dict[tuple[str, str], list[float]] = {}
    sums: list[float] = []
    for trace in traces:
        total = 0.0
        for span in trace.get("spans", ()):
            hops.setdefault((span["hop"], span["name"]), []).append(
                span["dur_s"])
            total += span["dur_s"]
        sums.append(total)
    attributed = [max(sums[start:start + group])
                  for start in range(0, len(sums) - group + 1, group)]
    out = {}
    for name, key, unit, scale in (
            ("serve.frontend.queue_us", ("frontend", "queue"), "us", 1e6),
            ("serve.cluster.route_us", ("cluster", "route"), "us", 1e6),
            ("serve.transport.hop_us", ("transport", "roundtrip"), "us", 1e6),
            ("serve.worker.compute_ms", ("worker", "compute"), "ms", 1e3)):
        values = hops.get(key)
        if values:
            out[name] = metric(median(values) * scale, unit, n=len(values))
    return out, attributed


_WORKER_COUNTERS = ("cache_hits", "cache_misses", "cache_retained",
                    "cache_evicted", "views_served")


def worker_totals(cluster: Any) -> dict[str, int]:
    """The workers' pong counters summed over the pool, restart-folded.

    A ping refreshes each client's last-seen pong; ``WorkerClient.stats``
    then folds it over earlier spawns, so a kill mid-run loses no counts.
    Taken once at the end of set-up as the baseline the window's
    counters are read against (warm-up traffic is not the workload's).
    """
    totals = dict.fromkeys(_WORKER_COUNTERS, 0)
    for client in cluster.replicas:
        client.ping()
        worker = client.stats()["worker"]
        for key in _WORKER_COUNTERS:
            totals[key] += worker.get(key, 0)
    return totals


def serving_counters(cluster: Any, baseline: dict[str, int],
                     summarize_requests: int | None = None,
                     ) -> dict[str, dict[str, Any]]:
    """Cache, pool and front-end counters of a quiesced cluster."""
    now = worker_totals(cluster)
    delta = {key: now[key] - baseline.get(key, 0) for key in now}
    hits, misses = delta["cache_hits"], delta["cache_misses"]
    swept = delta["cache_retained"] + delta["cache_evicted"]
    stats = cluster.stats()
    out = {
        "serve.worker.cache_hit_share": metric(
            hits / max(1, hits + misses), "ratio", base=hits + misses),
        # Entries that survived a shipped batch ÷ entries a batch swept.
        "serve.worker.cache_retained_share": metric(
            delta["cache_retained"] / max(1, swept), "ratio", base=swept),
        "serve.worker.cache_evicted": metric(
            delta["cache_evicted"], "count"),
        "serve.pool.restarts": metric(
            sum(entry["restarts"] for entry in stats["replicas"]), "count"),
        "serve.pool.late_responses": metric(
            sum(entry["late_responses"] for entry in stats["replicas"]),
            "count"),
    }
    if summarize_requests:
        out["serve.worker.views_served_share"] = metric(
            delta["views_served"] / summarize_requests, "ratio",
            base=summarize_requests)
    pool = cluster.pool.stats()["bootstrap"]
    out["serve.pool.checkpoint_hits"] = metric(
        pool["checkpoint_hits"], "count")
    out["serve.pool.full_syncs"] = metric(pool["full_syncs"], "count")
    out["serve.pool.bytes_shipped"] = metric(pool["bytes_shipped"], "B")
    boot = stats["metrics"]["histograms"].get("pool.bootstrap.duration_s")
    if boot and boot["count"]:
        out["serve.pool.bootstrap_s"] = metric(
            boot["sum"] / boot["count"], "s", n=boot["count"])
    frontend = stats["frontend"]
    if frontend is not None:
        out["serve.frontend.batch_size"] = metric(
            frontend["requests_served"]
            / max(1, frontend["batches_dispatched"]), "count",
            base=frontend["batches_dispatched"])
        out["serve.frontend.overloaded"] = metric(
            frontend["overloaded_rejections"], "count")
    return out


def frontend_self(through_frontend_s: Sequence[float],
                  spans: Spans) -> dict[str, Any]:
    """``serve.frontend.self_ms``: the same requests through the
    front-end minus straight at ``cluster.query_many`` (medians; the
    direct calls are the ``serve.cluster.query_many`` spans)."""
    through = median(through_frontend_s)
    direct = median(spans.get("serve.cluster.query_many"))
    return metric((through - direct) * 1e3, "ms", base=through * 1e3,
                  n=len(through_frontend_s))


def probe_bundle(client: Any, cluster: Any, tiles: Sequence[Any],
                 spans: Spans, rounds: int = 30) -> dict[str, Any]:
    """One bundle alternately through the front-end and straight at the
    (quiesced) cluster; returns ``serve.frontend.self_ms``."""
    through_frontend = []
    for _ in range(rounds):
        started = time.perf_counter()
        client.query_many(tiles)
        through_frontend.append(time.perf_counter() - started)
        with spans.span("serve.cluster.query_many"):
            cluster.query_many(tiles)
    return frontend_self(through_frontend, spans)


def unattributed_share(attributed_s: Sequence[float],
                       observed_s: Sequence[float]) -> dict[str, Any] | None:
    """1 − median attributed layer time ÷ median client-observed op time."""
    if not attributed_s or not observed_s:
        return None
    observed = median(observed_s)
    return metric(1.0 - median(attributed_s) / observed, "ratio",
                  base=observed * 1e3, base_unit="ms")
