"""Command-line interface: generate, inspect, segment, summarize, bench.

Installed as ``python -m repro.cli`` (no console-script entry point to keep
the offline install simple). Subcommands:

- ``generate-pd``   write a synthetic Pd lifecycle graph as PROV-JSON
- ``generate-example`` write the paper's Fig. 2 graph as PROV-JSON
- ``info``          summarize a PROV-JSON graph (counts, artifacts, agents)
- ``validate``      check PROV constraints
- ``segment``       run a PgSeg query and print the segment
- ``summarize``     PgSum over segments produced by repeated ``--dst``
- ``bench``         run one named experiment and print its table
- ``serve-worker``  run one replica worker process (internal: the
  entrypoint :class:`repro.serve.pool.WorkerPool` spawns; speaks the wire
  protocol — including batched ``requests`` bundles served against one
  armed snapshot with a footprint-retaining result cache and materialized
  summary views — on the loopback socket it dials with ``--connect`` and
  exits when the pool hangs up)
- ``serve-frontend`` load a graph and serve it to remote wire-protocol
  clients through the asyncio front-end (admission control, per-client
  fairness, backpressure; see :mod:`repro.serve.frontend`); prints
  ``FRONTEND host:port`` once bound and runs until Ctrl-C
- ``serve-stats``   connect to a running front-end, fetch the
  cluster-wide observability snapshot (the ``metrics`` wire method:
  leader + every worker registry, recent/slow traces) and render it as
  a table — or as Prometheus text exposition with ``--prometheus``

Examples::

    python -m repro.cli generate-pd --n 500 --out pd.json
    python -m repro.cli segment pd.json --src 0 1 --dst 400 401
    python -m repro.cli bench fig5e
    python -m repro.cli serve-worker --connect 127.0.0.1:4822 \\
        --token SECRET --worker-id 0
    python -m repro.cli serve-frontend pd.json --replicas 4 \\
        --out-of-process --port 4823
    python -m repro.cli serve-stats 127.0.0.1:4823 --prometheus
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.reporting import ascii_table
from repro.model import serialization as ser
from repro.model.graph import ProvenanceGraph
from repro.model.validation import validate
from repro.model.versioning import VersionCatalog
from repro.segment.pgseg import PgSegOperator, PgSegQuery
from repro.summarize.aggregation import PropertyAggregation
from repro.summarize.pgsum import PgSumOperator, PgSumQuery
from repro.workloads.lifecycle import build_paper_example
from repro.workloads.pd_generator import PdParams, generate_pd


def _load_graph(path: str) -> ProvenanceGraph:
    return ser.loads(Path(path).read_text())


def _cmd_generate_pd(args: argparse.Namespace) -> int:
    instance = generate_pd(PdParams(
        n_vertices=args.n, seed=args.seed, sw=args.sw,
        lam_in=args.lam_in, lam_out=args.lam_out, se=args.se,
    ))
    Path(args.out).write_text(ser.dumps(instance.graph))
    src, dst = instance.default_query()
    print(f"wrote {args.out}: {instance.graph!r}")
    print(f"default query: src={src} dst={dst}")
    return 0


def _cmd_generate_example(args: argparse.Namespace) -> int:
    example = build_paper_example()
    Path(args.out).write_text(ser.dumps(example.graph))
    print(f"wrote {args.out}: {example.graph!r}")
    for name in ("dataset-v1", "weight-v2", "log-v3"):
        print(f"  {name} -> id {example[name]}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    for key, value in graph.store.summary().items():
        print(f"{key}: {value}")
    catalog = VersionCatalog(graph)
    multi = catalog.multi_version_artifacts()
    print(f"artifacts: {len(catalog.artifact_names())} "
          f"({len(multi)} with multiple versions)")
    for artifact in multi[:args.limit]:
        print(f"  {artifact.name}: {len(artifact.snapshots)} versions")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    report = validate(graph, check_temporal=not args.no_temporal)
    print(report.summary())
    for violation in report.violations[:args.limit]:
        print(f"  [{violation.kind}] {violation.message}")
    return 0 if report.ok else 1


def _cmd_segment(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    query = PgSegQuery(
        src=tuple(args.src), dst=tuple(args.dst),
        algorithm=args.algorithm,
    )
    segment = PgSegOperator(graph, snapshot=args.snapshot).evaluate(query)
    print(segment.describe())
    if args.dot:
        copy, _ = graph.copy_subgraph(segment.vertices)
        Path(args.dot).write_text(ser.to_dot(copy))
        print(f"wrote {args.dot}")
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    operator = PgSegOperator(graph, snapshot=args.snapshot)
    segments = []
    for dst in args.dst:
        segments.append(operator.evaluate(PgSegQuery(
            src=tuple(args.src), dst=(dst,), algorithm=args.algorithm,
        )))
    aggregation = PropertyAggregation.of(
        entity=tuple(args.entity_keys), activity=tuple(args.activity_keys),
    )
    psg = PgSumOperator(segments).evaluate(PgSumQuery(
        aggregation=aggregation, k=args.k,
    ))
    print(psg.describe())
    return 0


def _cmd_serve_worker(args: argparse.Namespace) -> int:
    """Run one replica worker until shutdown/EOF (spawned by WorkerPool)."""
    import socket

    from repro.serve.transport import LineTransport
    from repro.serve.wire import WIRE_FORMAT_V2, hello_frame
    from repro.serve.worker import ReplicaWorker

    host, _, port = args.connect.rpartition(":")
    sock = socket.create_connection((host, int(port)))
    transport = LineTransport.over_socket(sock)
    registry = None
    if args.no_metrics:
        from repro.obs import NullRegistry
        registry = NullRegistry()
    worker = ReplicaWorker(transport, args.worker_id,
                           generation=args.generation,
                           registry=registry,
                           shard=args.shard)
    # Close through the worker, not a bare `with transport:` — the
    # welcome swaps the worker onto an adopted binary framer over the
    # same fds, and only the worker knows the current one.
    try:
        transport.send(hello_frame(args.worker_id, args.token,
                                   wire=[WIRE_FORMAT_V2]))
        return worker.run()
    finally:
        worker.close()


def _cmd_serve_frontend(args: argparse.Namespace) -> int:
    """Serve a graph to remote wire-protocol clients (async front-end)."""
    from repro.serve.api import ServeConfig
    from repro.serve.cluster import ProvCluster

    graph = _load_graph(args.graph)
    config = ServeConfig(
        replicas=args.replicas,
        shards=args.shards,
        out_of_process=args.out_of_process,
        frontend=True,
        frontend_host=args.host,
        frontend_port=args.port,
        frontend_token=args.token or None,
        max_inflight=args.max_inflight,
        admission_budget=args.admission_budget,
        trace_sample=args.trace_sample,
        slow_query_s=args.slow_query_s,
    )
    if config.shards > 1:
        from repro.serve.shards import ShardedCluster

        cluster = ShardedCluster(graph, config=config)
    else:
        cluster = ProvCluster(graph, config=config)
    host, port = cluster.frontend.address
    # Machine-readable bind line first (callers parse it; port 0 above
    # means the OS picked one), diagnostics after.
    print(f"FRONTEND {host}:{port}", flush=True)
    shard_note = f" x {args.shards} shards" if config.shards > 1 else ""
    print(f"serving {args.graph} on {args.replicas} "
          f"{'' if args.out_of_process else 'in-process '}worker(s)"
          f"{shard_note}; Ctrl-C to stop", file=sys.stderr, flush=True)
    try:
        cluster.frontend.wait()
    except KeyboardInterrupt:
        pass
    finally:
        cluster.close()
    return 0


def _render_metrics_table(payload: dict) -> str:
    """The cluster-wide observability snapshot as an aligned table."""
    from repro.obs import merge_snapshots

    workers = payload.get("workers") or []
    snapshots = [payload["process"]]
    snapshots += [entry["metrics"] for entry in workers if entry]
    merged = merge_snapshots(snapshots)
    lines = [
        f"leader epoch {payload['leader_epoch']}  "
        f"mode {'out-of-process' if payload['out_of_process'] else 'in-process'}"
        f"  worker registries {sum(1 for entry in workers if entry)}"
        f"/{len(workers)}",
    ]
    frontend = payload.get("frontend")
    if frontend:
        lines.append("frontend  " + "  ".join(
            f"{key}={value}" for key, value in sorted(frontend.items())))
    counters = merged.get("counters", {})
    gauges = merged.get("gauges", {})
    histograms = merged.get("histograms", {})
    boot: dict[str, float] = {}
    for name, value in counters.items():
        if ".bootstrap." in name:
            key = name.rsplit(".", 1)[-1]
            boot[key] = boot.get(key, 0) + value
    if boot:
        spells = [data for name, data in histograms.items()
                  if name.endswith(".bootstrap.duration_s")]
        count = sum(data["count"] for data in spells)
        total = sum(data["sum"] for data in spells)
        mean_ms = (total / count * 1e3) if count else 0.0
        lines.append("bootstrap  " + "  ".join(
            f"{key}={value:g}" for key, value in sorted(boot.items()))
            + f"  mean_ms={mean_ms:.3f}")
        width = max(len(name) for name in [*counters, *gauges])
        lines.append("")
        lines.append(f"{'metric':<{width}}  value")
        for name, value in sorted(counters.items()):
            lines.append(f"{name:<{width}}  {value}")
        for name, value in sorted(gauges.items()):
            lines.append(f"{name:<{width}}  {value:g}")
    if histograms:
        width = max(len(name) for name in histograms)
        lines.append("")
        lines.append(f"{'latency':<{width}}  count  mean_ms")
        for name, data in sorted(histograms.items()):
            count = data["count"]
            mean_ms = (data["sum"] / count * 1e3) if count else 0.0
            lines.append(f"{name:<{width}}  {count:>5}  {mean_ms:8.3f}")
    traces = payload.get("traces") or {}
    slow = traces.get("slow") or []
    if slow:
        lines.append("")
        lines.append("slow queries (most recent last):")
        for trace in slow:
            lines.append(
                f"  {trace.get('trace_id')}  {trace.get('method')}  "
                f"{trace.get('wall_s', 0.0) * 1e3:.3f}ms  "
                f"{len(trace.get('spans') or [])} spans")
    return "\n".join(lines)


def _cmd_serve_stats(args: argparse.Namespace) -> int:
    """Fetch + render a running front-end's metrics snapshot."""
    from repro.obs import merge_snapshots, render_prometheus
    from repro.serve.frontend import FrontendClient

    host, _, port = args.address.rpartition(":")
    with FrontendClient((host or "127.0.0.1", int(port)),
                        token=args.token or None,
                        client="serve-stats") as client:
        payload = client.metrics()
    if args.json:
        import json
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.prometheus:
        workers = payload.get("workers") or []
        merged = merge_snapshots(
            [payload["process"]]
            + [entry["metrics"] for entry in workers if entry])
        print(render_prometheus(merged), end="")
    else:
        print(_render_metrics_table(payload))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.experiment not in ALL_EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; choose from "
              f"{', '.join(sorted(ALL_EXPERIMENTS))}", file=sys.stderr)
        return 2
    experiment = ALL_EXPERIMENTS[args.experiment](verbose=args.verbose)
    print(ascii_table(experiment))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Provenance graph segmentation & summarization "
                    "(Miao & Deshpande, ICDE 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-pd", help="generate a synthetic Pd graph")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--sw", type=float, default=1.2)
    p.add_argument("--lam-in", type=float, default=2.0)
    p.add_argument("--lam-out", type=float, default=2.0)
    p.add_argument("--se", type=float, default=1.5)
    p.add_argument("--out", default="pd.json")
    p.set_defaults(func=_cmd_generate_pd)

    p = sub.add_parser("generate-example", help="write the Fig. 2 graph")
    p.add_argument("--out", default="example.json")
    p.set_defaults(func=_cmd_generate_example)

    p = sub.add_parser("info", help="summarize a PROV-JSON graph")
    p.add_argument("graph")
    p.add_argument("--limit", type=int, default=10)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("validate", help="check PROV constraints")
    p.add_argument("graph")
    p.add_argument("--no-temporal", action="store_true")
    p.add_argument("--limit", type=int, default=10)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("segment", help="run a PgSeg query")
    p.add_argument("graph")
    p.add_argument("--src", type=int, nargs="+", required=True)
    p.add_argument("--dst", type=int, nargs="+", required=True)
    p.add_argument("--algorithm", default="simprov-tst",
                   choices=["simprov-tst", "simprov-alg", "cflr"])
    p.add_argument("--snapshot", action="store_true",
                   help="evaluate on a frozen read snapshot (fast path)")
    p.add_argument("--dot", help="also write the segment as Graphviz DOT")
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("summarize", help="PgSum over per-dst segments")
    p.add_argument("graph")
    p.add_argument("--src", type=int, nargs="+", required=True)
    p.add_argument("--dst", type=int, nargs="+", required=True)
    p.add_argument("--algorithm", default="simprov-tst",
                   choices=["simprov-tst", "simprov-alg", "cflr"])
    p.add_argument("--snapshot", action="store_true",
                   help="evaluate on a frozen read snapshot (fast path)")
    p.add_argument("--entity-keys", nargs="*", default=["name"])
    p.add_argument("--activity-keys", nargs="*", default=["command"])
    p.add_argument("--k", type=int, default=0)
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("bench", help="run one experiment, print the table")
    p.add_argument("experiment")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "serve-frontend",
        help="serve a graph to remote clients via the async front-end",
    )
    p.add_argument("graph", help="PROV-JSON graph to serve")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (0 = OS-assigned; the bind is "
                        "printed as 'FRONTEND host:port' on stdout)")
    p.add_argument("--token", default="",
                   help="require this client_hello auth token "
                        "(empty = accept any)")
    p.add_argument("--replicas", type=int, default=2)
    p.add_argument("--shards", type=int, default=1,
                   help="partition serving into N shards (each with its "
                        "own replica set) behind the scatter-gather "
                        "coordinator; 1 = unsharded")
    p.add_argument("--out-of-process", action="store_true",
                   help="spawn each replica worker as a process (default: "
                        "in this process, behind an in-memory link)")
    p.add_argument("--max-inflight", type=int, default=256,
                   help="largest multiplexed batch per dispatch cycle")
    p.add_argument("--admission-budget", type=int, default=1024,
                   help="total admitted-but-unanswered requests before "
                        "clients get typed 'Overloaded' rejections")
    p.add_argument("--trace-sample", type=float, default=0.0,
                   help="fraction of client frames traced end-to-end "
                        "(0.0 = never, 1.0 = every frame)")
    p.add_argument("--slow-query-s", type=float, default=None,
                   help="wall-time threshold (seconds) above which a "
                        "traced query lands on the slow-query log")
    p.set_defaults(func=_cmd_serve_frontend)

    p = sub.add_parser(
        "serve-stats",
        help="fetch + render a running front-end's metrics snapshot",
    )
    p.add_argument("address", metavar="HOST:PORT",
                   help="the front-end bind printed as 'FRONTEND ...'")
    p.add_argument("--token", default="",
                   help="client_hello auth token (empty = none)")
    p.add_argument("--prometheus", action="store_true",
                   help="emit Prometheus text exposition instead of "
                        "the table (merged leader + worker registries)")
    p.add_argument("--json", action="store_true",
                   help="emit the raw metrics document as JSON")
    p.set_defaults(func=_cmd_serve_stats)

    p = sub.add_parser(
        "serve-worker",
        help="run one replica worker process (internal)",
    )
    p.add_argument("--connect", metavar="HOST:PORT", required=True,
                   help="dial the pool's loopback listener")
    p.add_argument("--token", default="",
                   help="spawn token echoed in the hello frame")
    p.add_argument("--worker-id", type=int, default=0)
    p.add_argument("--generation", type=int, default=0,
                   help="monotonic spawn counter (pool restart count), "
                        "echoed in pong stats")
    p.add_argument("--shard", type=int, default=None,
                   help="shard index when spawned by a sharded pool, "
                        "echoed in pong stats (absent unsharded)")
    p.add_argument("--no-metrics", action="store_true",
                   help="swap in the no-op metrics registry (the "
                        "--trace-overhead benchmark baseline)")
    p.set_defaults(func=_cmd_serve_worker)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":      # pragma: no cover
    raise SystemExit(main())
