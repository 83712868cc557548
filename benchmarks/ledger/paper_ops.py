"""Workload ``paper_ops``: the paper's Fig. 5 operators, in-process.

Single thread, no ``repro.serve`` import on the path: repeated whole
passes of (a) PgSeg on a Pd graph for 10 destination marks × both SimProv
solvers, (b) PgSum over four Sd instances × k ∈ {0, 1}, (c) 20 full-depth
lineage + 20 blame walks on the snapshot, (d) one snapshot capture. Any
``serve/`` refactor must leave every number here unchanged; an operator
optimisation shows here first and undiluted.
"""

from __future__ import annotations

import os
import time
from typing import Any

from benchmarks.ledger import layers
from benchmarks.ledger.harness import (
    Spans,
    Tally,
    blame_digest,
    entity_at,
    lineage_digest,
    median,
    metric,
    percentile,
    rss_hwm_mb,
    segment_digest,
)

NAME = "paper_ops"

ALGORITHMS = ("simprov-tst", "simprov-alg")
SEGMENT_MARKS = tuple(0.05 + 0.90 * index / 9 for index in range(10))
SD_SEEDS = (7, 8, 9, 10)
WALKS = 20
#: Marks (by index) whose queries the solver replay re-runs: the 15 %,
#: 45 % and 75 % marks, both solvers — the full set would double the run.
REPLAY_MARKS = (1, 4, 7)


class Context:
    def __init__(self, seed: int, smoke: bool, traced: bool):
        from repro.segment.pgseg import PgSegQuery
        from repro.workloads.pd_generator import generate_pd_sized
        from repro.workloads.sd_generator import SdParams, generate_sd

        self.tally = Tally()
        instance = generate_pd_sized(300 if smoke else 2000)
        self.graph = instance.graph
        self.entities = list(instance.entities)
        src = tuple(self.entities[:2])
        self.queries = [
            PgSegQuery(src=src, dst=(entity_at(self.entities, mark),),
                       algorithm=algorithm)
            for mark in SEGMENT_MARKS for algorithm in ALGORITHMS]
        shape = {"num_segments": 3, "n_activities": 8} if smoke \
            else {"num_segments": 6, "n_activities": 15}
        self.sd_sets = [generate_sd(SdParams(alpha=0.25, seed=sd_seed,
                                             **shape)).segments
                        for sd_seed in SD_SEEDS]
        # Nothing here is drawn from ``seed``: the inputs are the fixed
        # generator instances ISSUE 11 names, so two runs differ only by
        # the machine. (A pass is 69 heterogeneous ops; moving the walk
        # targets with the seed moved the median op by ±15 %.)
        self.walk_targets = [
            entity_at(self.entities, 0.05 + 0.95 * (index + 0.5) / WALKS)
            for index in range(WALKS)]
        #: answers of the first timed pass; every later pass must
        #: reproduce them (determinism), on top of the cross-oracle checks.
        self.reference: dict[Any, Any] = {}
        self._warm_up()

    def _warm_up(self) -> None:
        """Each operator once on its cheapest input: lazy imports done."""
        from repro.query import ops
        from repro.segment.pgseg import PgSegOperator
        from repro.summarize.pgsum import pgsum
        from repro.workloads.sd_generator import SD_AGGREGATION

        operator = PgSegOperator(self.graph, snapshot=True)
        for query in self.queries[:len(ALGORITHMS)]:
            operator.evaluate(query)
        pgsum(self.sd_sets[0][:2], SD_AGGREGATION, 1)
        ops.blame(self.graph, self.walk_targets[0],
                  snapshot=operator.snapshot)

    def close(self) -> None:
        pass


def one_pass(ctx: Context, spans: Spans,
             ops_done: list[tuple[str, float]]) -> None:
    """(d) capture, (a) 20 PgSeg, (b) 8 PgSum, (c) 40 walks."""
    from repro.query import ops
    from repro.segment.pgseg import PgSegOperator
    from repro.store.snapshot import GraphSnapshot
    from repro.summarize.pgsum import pgsum
    from repro.workloads.sd_generator import SD_AGGREGATION

    graph, tally = ctx.graph, ctx.tally

    def done(family: str, key: Any, started: float, digest: Any) -> None:
        ops_done.append((family, time.perf_counter() - started))
        tally.attempt(family)
        if ctx.reference.setdefault(key, digest) != digest:
            tally.fail(family, "not-deterministic")

    started = time.perf_counter()
    with spans.span("store.snapshot.capture"):
        snapshot = GraphSnapshot(graph)
    done("capture", "capture", started, snapshot.vertex_count)

    # A fresh operator per pass: its segment cache would otherwise turn
    # every pass after the first into dictionary lookups.
    operator = PgSegOperator(graph, snapshot=snapshot)
    by_mark: dict[tuple, set[int]] = {}
    for query in ctx.queries:
        started = time.perf_counter()
        with spans.span("segment.evaluate"):
            segment = operator.evaluate(query)
        done("segment", ("segment", query.dst, query.algorithm), started,
             segment_digest(segment.vertices, segment.edge_ids))
        spans.add("segment.vertices", segment.vertex_count)
        # Cross-oracle: both solvers decide the same L(SimProv).
        other = by_mark.setdefault(query.dst, segment.vertices)
        if other != segment.vertices:
            tally.fail("segment", "solvers-disagree")

    for sd_seed, segments in zip(SD_SEEDS, ctx.sd_sets):
        for k in (0, 1):
            started = time.perf_counter()
            with spans.span("summarize.pgsum"):
                psg = pgsum(segments, SD_AGGREGATION, k)
            done("summarize", ("summarize", sd_seed, k), started,
                 (psg.node_count, len(psg.edges), psg.source_vertex_total))
            spans.add("summarize.input_vertices", psg.source_vertex_total)
            spans.add("summarize.compaction_ratio", psg.compaction_ratio)
            if not 0 < psg.node_count <= psg.source_vertex_total:
                tally.fail("summarize", "wrong-answer")

    for entity in ctx.walk_targets:
        started = time.perf_counter()
        with spans.span("query.lineage"):
            walk = ops.lineage(graph, entity, snapshot=snapshot)
        done("lineage", ("lineage", entity), started, lineage_digest(walk))
    for entity in ctx.walk_targets:
        started = time.perf_counter()
        with spans.span("query.blame"):
            report = ops.blame(graph, entity, snapshot=snapshot)
        done("blame", ("blame", entity), started, blame_digest(report))


def setup(seed: int, smoke: bool, traced: bool) -> Context:
    return Context(seed, smoke, traced)


def teardown(ctx: Context) -> None:
    ctx.close()


def measure(ctx: Context, seconds: float, spans: Spans) -> dict[str, Any]:
    ops_done: list[tuple[str, float]] = []
    cpu0 = time.process_time()
    window0 = time.perf_counter()
    # Whole passes only: the op mix is heterogeneous, so stopping inside
    # a pass would make ops/s depend on where the deadline fell.
    while time.perf_counter() - window0 < seconds:
        one_pass(ctx, spans, ops_done)
    elapsed = time.perf_counter() - window0
    cpu_s = time.process_time() - cpu0
    ctx.elapsed = elapsed
    ctx.ops_done = ops_done
    latencies = [latency for _family, latency in ops_done]
    count = len(latencies)
    out = {
        "ops_per_s": metric(count / elapsed, "op/s", n=count),
        "op_p50_ms": metric(median(latencies) * 1e3, "ms", n=count),
        "op_p95_ms": metric(percentile(latencies, 0.95) * 1e3, "ms",
                            n=count),
        "peak_rss_mb": metric(rss_hwm_mb(os.getpid()), "MB"),
        "cpu_s_per_kop": metric(cpu_s / count * 1e3, "s", base=count),
    }
    for family in ("lineage", "blame", "segment", "summarize"):
        values = [latency for name, latency in ops_done if name == family]
        out[f"{family}_p50_ms"] = metric(median(values) * 1e3, "ms",
                                         n=len(values))
    return out


def layer_metrics(ctx: Context, spans: Spans) -> dict[str, Any]:
    """Bench-side spans of the passes plus a solver replay (no serve.*)."""
    replay = Spans()
    snapshot = layers.capture_snapshot(ctx.graph, replay)
    sample = [query for index, query in enumerate(ctx.queries)
              if index // len(ALGORITHMS) in REPLAY_MARKS]
    layers.replay_segments(ctx.graph, snapshot, sample, replay)
    for name in ("cfl.adjacency_build", "cfl.solve_tst", "cfl.solve_alg",
                 "segment.induce_self", "cfl.result_vertices"):
        spans.durations[name] = replay.get(name)

    out = layers.span_metrics(spans)
    in_spans = sum(sum(spans.get(name)) for name in (
        "store.snapshot.capture", "segment.evaluate", "summarize.pgsum",
        "query.lineage", "query.blame"))
    out["ledger.unattributed_share"] = metric(
        1.0 - in_spans / ctx.elapsed, "ratio", base=ctx.elapsed, base_unit="s")
    return out
