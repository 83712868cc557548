"""The observability layer: ``repro.obs`` + its serving integration.

Three levels of guard:

- the registry/trace primitives in isolation (snapshot schema, merge
  semantics, Prometheus rendering, ``MetricAttr`` byte-compatibility,
  collector bounds);
- the ``ServeConfig`` knobs and ``ObsContext`` wiring;
- the full stack: a traced query through
  ``serve(out_of_process=True, frontend=True)`` must yield one trace
  whose spans cover all four hops and sum within the measured wall
  time, while untraced traffic leaves **zero** trace state anywhere —
  and worker restarts must not make cumulative counters jump backwards
  (restart-aware folding in ``WorkerClient.stats()``).
"""

import json
import time

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.obs import (
    DEFAULT_BUCKETS,
    MetricAttr,
    MetricsRegistry,
    NullRegistry,
    ObsContext,
    TraceCollector,
    merge_snapshots,
    new_trace_id,
    render_prometheus,
    span,
)
from repro.serve.api import ServeConfig
from repro.serve.cluster import ProvCluster
from repro.serve.frontend import FrontendClient
from repro.workloads.lifecycle import build_paper_example


def _wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(interval)
    return True


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_instruments_are_create_or_return(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_snapshot_schema(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc(2)
        registry.gauge("lag").set(3.5)
        hist = registry.histogram("lat", bounds=(0.01, 0.1))
        hist.observe(0.005)
        hist.observe(0.05)
        hist.observe(99.0)
        snap = registry.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert snap["counters"] == {"a": 2, "b": 1}
        assert list(snap["counters"]) == ["a", "b"]     # sorted
        assert snap["gauges"] == {"lag": 3.5}
        lat = snap["histograms"]["lat"]
        assert lat["count"] == 3
        assert lat["sum"] == pytest.approx(99.055)
        # Buckets are cumulative and end at +Inf == count.
        assert lat["buckets"] == [[0.01, 1], [0.1, 2], ["+Inf", 3]]
        assert json.loads(json.dumps(snap)) == snap     # JSON-safe

    def test_histogram_default_buckets_and_validation(self):
        registry = MetricsRegistry()
        assert registry.histogram("h").bounds == DEFAULT_BUCKETS
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("bad", bounds=(0.1, 0.1))

    def test_merge_sums_counters_merges_histograms_maxes_gauges(self):
        one = MetricsRegistry()
        one.counter("n").inc(3)
        one.gauge("lag").set(1.0)
        one.histogram("lat", bounds=(0.01,)).observe(0.005)
        two = MetricsRegistry()
        two.counter("n").inc(4)
        two.counter("only_two").inc()
        two.gauge("lag").set(9.0)
        two.histogram("lat", bounds=(0.01,)).observe(5.0)
        merged = merge_snapshots([one.snapshot(), None, two.snapshot()])
        assert merged["counters"] == {"n": 7, "only_two": 1}
        assert merged["gauges"] == {"lag": 9.0}
        lat = merged["histograms"]["lat"]
        assert lat["count"] == 2
        assert lat["buckets"] == [[0.01, 1], ["+Inf", 2]]

    def test_merge_drops_histograms_with_mismatched_bounds(self):
        one = MetricsRegistry()
        one.histogram("lat", bounds=(0.01,)).observe(0.005)
        two = MetricsRegistry()
        two.histogram("lat", bounds=(0.5,)).observe(0.005)
        merged = merge_snapshots([one.snapshot(), two.snapshot()])
        assert merged["histograms"]["lat"]["count"] == 1

    def test_render_prometheus(self):
        registry = MetricsRegistry()
        registry.counter("worker.cache_hits").inc(2)
        registry.gauge("pool.lag").set(1.5)
        registry.histogram("lat", bounds=(0.01,)).observe(0.005)
        text = render_prometheus(registry.snapshot())
        assert "# TYPE repro_worker_cache_hits counter" in text
        assert "repro_worker_cache_hits 2" in text
        assert "repro_pool_lag 1.5" in text
        assert 'repro_lat_bucket{le="+Inf"} 1' in text
        assert "repro_lat_count 1" in text

    def test_null_registry_same_surface_zero_state(self):
        registry = NullRegistry()
        registry.counter("a").inc(5)
        registry.gauge("g").set(3.0)
        registry.histogram("h").observe(1.0)
        assert registry.counter("a").value == 0
        assert registry.snapshot() == \
            {"counters": {}, "gauges": {}, "histograms": {}}
        assert registry.null and not MetricsRegistry.null


class TestMetricAttr:
    class Owner:
        served = MetricAttr("served")

        def __init__(self, registry, prefix):
            self._obs_registry = registry
            self._obs_prefix = prefix

    def test_attribute_is_the_registry_counter(self):
        registry = MetricsRegistry()
        owner = self.Owner(registry, "worker")
        assert owner.served == 0
        owner.served += 1
        owner.served += 2
        assert owner.served == 3
        assert registry.snapshot()["counters"] == {"worker.served": 3}
        owner.served = 0                     # restart-style reset
        assert registry.counter("worker.served").value == 0

    def test_prefixes_keep_instances_apart(self):
        registry = MetricsRegistry()
        a = self.Owner(registry, "replica0")
        b = self.Owner(registry, "replica1")
        a.served += 1
        assert (a.served, b.served) == (1, 0)
        # Reading b.served materialized its counter at 0 — deliberate,
        # so snapshots expose every instrument from the first poll.
        assert registry.snapshot()["counters"] == \
            {"replica0.served": 1, "replica1.served": 0}


# ---------------------------------------------------------------------------
# TraceCollector
# ---------------------------------------------------------------------------


class TestTraceCollector:
    def test_ids_are_unique_hex(self):
        ids = {new_trace_id() for _ in range(1000)}
        assert len(ids) == 1000
        assert all(len(t) == 16 and int(t, 16) >= 0 for t in ids)

    def test_finish_seals_spans_into_the_ring(self):
        collector = TraceCollector(ring_size=4)
        tid = new_trace_id()
        collector.add_span(tid, "frontend", "queue", 0.001)
        collector.extend(tid, [span("worker", "compute", 0.002,
                                    cache="hit")])
        trace = collector.finish(tid, method="blame", wall_s=0.004)
        assert trace["method"] == "blame"
        assert [s["hop"] for s in trace["spans"]] == ["frontend", "worker"]
        assert trace["spans"][1]["cache"] == "hit"
        assert "slow" not in trace and "error" not in trace
        assert collector.recent() == [trace]
        assert collector.slow_queries() == []
        # Finishing consumed the pending spans.
        collector.finish(tid, method="blame", wall_s=0.004)
        assert collector.recent()[-1]["spans"] == []

    def test_slow_threshold_and_error_tagging(self):
        collector = TraceCollector(ring_size=4, slow_threshold_s=0.01)
        fast = collector.finish(new_trace_id(), method="a", wall_s=0.001)
        slow = collector.finish(new_trace_id(), method="b", wall_s=0.02,
                                error="VertexNotFound")
        assert "slow" not in fast
        assert slow["slow"] is True and slow["error"] == "VertexNotFound"
        assert collector.slow_queries() == [slow]
        assert len(collector.recent()) == 2

    def test_rings_and_pending_are_bounded(self):
        collector = TraceCollector(ring_size=2)
        for index in range(5):
            collector.finish(str(index), method="m", wall_s=0.0)
        assert [t["trace_id"] for t in collector.recent()] == ["3", "4"]
        # Abandoned traces cannot leak pending span lists forever.
        for index in range(collector._max_pending + 10):
            collector.add_span(f"open-{index}", "h", "n", 0.0)
        assert len(collector._pending) == collector._max_pending

    def test_drop_forgets_without_ringing(self):
        collector = TraceCollector()
        collector.add_span("t", "h", "n", 0.0)
        collector.drop("t")
        assert collector.recent() == [] and collector._pending == {}

    def test_ring_size_validated(self):
        with pytest.raises(ValueError, match="ring_size"):
            TraceCollector(ring_size=0)


# ---------------------------------------------------------------------------
# ServeConfig knobs + ObsContext wiring
# ---------------------------------------------------------------------------


class TestObsConfig:
    @pytest.mark.parametrize("bad", [
        {"trace_sample": -0.1},
        {"trace_sample": 1.5},
        {"trace_ring": 0},
        {"slow_query_s": 0.0},
        {"slow_query_s": -1.0},
    ])
    def test_invalid_knobs_raise_config_error(self, bad):
        with pytest.raises(ConfigError):
            ServeConfig(**bad)

    def test_of_builds_real_registry_by_default(self):
        obs = ObsContext.of(ServeConfig())
        assert isinstance(obs.registry, MetricsRegistry)
        assert obs.sample == 0.0 and not obs.sampled()

    def test_metrics_false_means_null_registry_and_no_sampling(self):
        obs = ObsContext.of(ServeConfig(metrics=False, trace_sample=1.0))
        assert obs.registry.null
        assert not obs.sampled()

    def test_sample_one_always_traces(self):
        obs = ObsContext.of(ServeConfig(trace_sample=1.0,
                                        trace_ring=7,
                                        slow_query_s=0.5))
        assert obs.sampled()
        assert obs.collector.slow_threshold_s == 0.5
        assert obs.collector._ring.maxlen == 7


# ---------------------------------------------------------------------------
# Full stack: traced and untraced queries through frontend + workers
# ---------------------------------------------------------------------------


@pytest.fixture(scope="class")
def traced_stack():
    example = build_paper_example()
    cluster = ProvCluster(example.graph, config=ServeConfig(
        replicas=2, out_of_process=True,
        frontend=True, trace_sample=1.0, slow_query_s=1e-9))
    try:
        yield example, cluster
    finally:
        cluster.close()


class TestTracedFullStack:
    def test_traced_query_spans_all_four_hops(self, traced_stack):
        example, cluster = traced_stack
        collector = cluster.obs.collector
        before = len(collector.recent())
        with FrontendClient(cluster.frontend.address,
                            graph=example.graph) as client:
            client.lineage(example["weight-v2"])
        assert _wait_until(lambda: len(collector.recent()) > before)
        trace = collector.recent()[-1]
        assert trace["method"] == "lineage"
        hops = {s["hop"] for s in trace["spans"]}
        assert hops == {"frontend", "cluster", "transport", "worker"}
        # Hops are disjoint by construction (transport = round trip
        # minus worker compute), so spans sum within the wall time.
        assert sum(s["dur_s"] for s in trace["spans"]) \
            <= trace["wall_s"] + 1e-6
        worker_span = next(s for s in trace["spans"]
                           if s["hop"] == "worker")
        assert worker_span["cache"] in ("hit", "miss")
        # slow_query_s=1e-9: everything lands in the slow log too.
        assert trace["slow"] is True
        assert trace in collector.slow_queries()

    def test_cluster_metrics_aggregates_every_process(self, traced_stack):
        example, cluster = traced_stack
        payload = cluster.metrics()
        assert payload["out_of_process"] is True
        assert payload["leader_epoch"] == cluster.leader_epoch
        assert set(payload["process"]) == \
            {"counters", "gauges", "histograms"}
        assert len(payload["workers"]) == 2
        for worker in payload["workers"]:
            assert set(worker) == {"metrics", "traces"}
        assert set(payload["traces"]) == {"recent", "slow"}
        merged = merge_snapshots(
            [payload["process"]]
            + [w["metrics"] for w in payload["workers"] if w])
        assert render_prometheus(merged).startswith("# TYPE repro_")

    def test_metrics_method_served_through_the_frontend(self, traced_stack):
        example, cluster = traced_stack
        with FrontendClient(cluster.frontend.address) as client:
            payload = client.metrics()
        frontend = payload["frontend"]
        assert frontend["connections_total"] >= 1
        assert frontend["sessions"] >= 1
        # The health poll consumed no admission budget.
        assert payload["process"]["counters"].keys() >= \
            {"frontend.connections_total", "frontend.admitted"}

    def test_stats_carries_metrics_and_keeps_replica_keys(self, traced_stack):
        example, cluster = traced_stack
        stats = cluster.stats()
        assert set(stats["metrics"]) == {"counters", "gauges", "histograms"}
        for replica in stats["replicas"]:
            assert set(replica) >= set(ProvCluster.REPLICA_STAT_KEYS)

    def test_serve_stats_cli_renders_the_stack(self, traced_stack, capsys):
        example, cluster = traced_stack
        host, port = cluster.frontend.address
        address = f"{host}:{port}"
        assert main(["serve-stats", address, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["out_of_process"] is True
        assert "frontend" in payload
        assert main(["serve-stats", address, "--prometheus"]) == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_" in text
        assert main(["serve-stats", address]) == 0
        table = capsys.readouterr().out
        assert "leader epoch" in table
        assert "metric" in table and "value" in table
        assert "slow queries" in table


@pytest.fixture(scope="class")
def untraced_stack():
    example = build_paper_example()
    cluster = ProvCluster(example.graph, config=ServeConfig(
        replicas=2, out_of_process=True,
        frontend=True))
    try:
        yield example, cluster
    finally:
        cluster.close()


class TestUntracedLeavesZeroTraceState:
    def test_untraced_frames_touch_no_trace_state(self, untraced_stack):
        example, cluster = untraced_stack
        with FrontendClient(cluster.frontend.address,
                            graph=example.graph) as client:
            client.lineage(example["weight-v2"])
            client.blame(example["weight-v2"])
        collector = cluster.obs.collector
        assert collector.recent() == []
        assert collector._pending == {}
        for worker in cluster.replicas:
            payload = worker.metrics()
            assert payload["traces"] == []
            counters = payload["metrics"]["counters"]
            assert counters.get("worker.traces_recorded", 0) == 0
            # ... while the metrics themselves still flow.
            assert counters["worker.requests_served"] >= 1

    def test_restart_folds_keep_counters_continuous(self, untraced_stack):
        example, cluster = untraced_stack
        target = example["weight-v2"]
        client = cluster.replicas[0]
        cluster.refresh()
        for _ in range(3):
            client.blame(int(target))
        client.ping()
        before = client.stats()
        assert before["worker"]["requests_served"] >= 3
        # Kill the worker; the health check respawns generation + 1.
        client.proc.kill()
        client.proc.wait()
        assert cluster.health_check() == [0]
        client.blame(int(target))
        client.ping()
        after = client.stats()
        assert after["generation"] == before["generation"] + 1
        # Folded counters never jump backwards across the restart...
        assert after["worker"]["requests_served"] \
            >= before["worker"]["requests_served"] + 1
        # ... while ``raw`` is the fresh spawn's own (reset) view.
        assert after["raw"]["worker"]["requests_served"] \
            < after["worker"]["requests_served"]
