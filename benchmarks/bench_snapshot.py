"""Live-store vs frozen-snapshot query latency, and cache-hit throughput.

Unlike the ``bench_fig5*`` pytest-benchmark suites, this is a plain script
so CI can smoke it cheaply::

    PYTHONPATH=src python benchmarks/bench_snapshot.py --quick
    PYTHONPATH=src python benchmarks/bench_snapshot.py            # full

It measures three things over a generated Pd lifecycle graph (>= 10k
vertices in full mode):

1. **Repeated PgSeg** — one operator on the live store vs one holding a
   :class:`repro.store.snapshot.GraphSnapshot` (capture time included in
   the snapshot total), over a batch of distinct destination entities.
2. **Repeated lineage/blame** — :func:`repro.query.ops.lineage` live vs
   ``snapshot=`` (capture time again included).
3. **Session cache-hit throughput** — repeated
   :meth:`LifecycleSession.how_was_it_made` calls on an untouched store,
   where every call after the first is an epoch-validated cache hit.

The script exits non-zero if the snapshot path is not at least 2x faster
than the live path for the repeated PgSeg and lineage workloads (1.3x in
``--quick`` mode, where the small graph damps the ratio; pass
``--no-assert`` to disable, e.g. on noisy shared machines). ``--json``
writes a machine-readable result record; the CI bench job uploads it as an
artifact and fails on a regressed ratio.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.query.ops import blame, lineage
from repro.segment.pgseg import PgSegOperator, PgSegQuery
from repro.session import LifecycleSession
from repro.store.delta import ResultCache
from repro.store.snapshot import GraphSnapshot
from repro.workloads.pd_generator import generate_pd_sized

#: Asserted snapshot-vs-live speedup floors per mode.
FLOORS = {
    "full": {"pgseg": 2.0, "lineage": 2.0},
    "quick": {"pgseg": 1.3, "lineage": 1.3},
}


def bench_pgseg(instance, n_queries: int, repeats: int) -> tuple[float, float]:
    """A repeated-introspection stream: each query asked ``repeats`` times.

    The live path models the pre-snapshot behavior — every evaluation walks
    the mutable store and rebuilds the solver adjacency. The snapshot path
    is the session's read layer: one epoch-synced operator holding a
    :class:`GraphSnapshot` behind a :class:`ResultCache` — first
    occurrences run on frozen CSR, repeats are cache hits.
    """
    graph = instance.graph
    src = instance.entities[:2]
    step = max(1, len(instance.entities) // n_queries)
    dsts = instance.entities[::step][:n_queries]

    t0 = time.perf_counter()
    live_total = 0
    for _ in range(repeats):
        for dst in dsts:
            segment = PgSegOperator(graph).evaluate(
                PgSegQuery(src=tuple(src), dst=(dst,))
            )
            live_total += segment.vertex_count
    live = time.perf_counter() - t0

    t0 = time.perf_counter()
    snap_op = PgSegOperator(graph, snapshot=True)   # capture inside timing
    answers = ResultCache()
    snap_total = 0
    for _ in range(repeats):
        for dst in dsts:
            segment = answers.get(dst)
            if segment is None:
                segment = snap_op.evaluate(
                    PgSegQuery(src=tuple(src), dst=(dst,))
                )
                answers.put(dst, segment, "segment",
                            frozenset(segment.vertices),
                            graph.store.vertex_capacity)
            snap_total += segment.vertex_count
    snap = time.perf_counter() - t0

    if live_total != snap_total:
        raise AssertionError(
            f"snapshot PgSeg diverged: {live_total} != {snap_total}"
        )
    return live, snap


def bench_lineage(instance, n_entities: int,
                  repeats: int) -> tuple[float, float]:
    graph = instance.graph
    step = max(1, len(instance.entities) // n_entities)
    entities = instance.entities[::step][:n_entities]

    t0 = time.perf_counter()
    for _ in range(repeats):
        live_total = sum(
            len(lineage(graph, e).vertices) + len(blame(graph, e))
            for e in entities
        )
    live = time.perf_counter() - t0

    t0 = time.perf_counter()
    snapshot = GraphSnapshot(graph)                 # capture inside timing
    for _ in range(repeats):
        snap_total = sum(
            len(lineage(graph, e, snapshot=snapshot).vertices)
            + len(blame(graph, e, snapshot=snapshot))
            for e in entities
        )
    snap = time.perf_counter() - t0

    if live_total != snap_total:
        raise AssertionError(
            f"snapshot lineage diverged: {live_total} != {snap_total}"
        )
    return live, snap


def bench_session_cache(runs: int, hits: int) -> tuple[float, float, float]:
    session = LifecycleSession(project="bench")
    session.add_artifact("dataset", member="m0")
    for index in range(runs):
        member = f"m{index % 4}"
        session.record(member, f"step{index % 7}",
                       uses=["dataset", "model"], generates=["model", "log"])

    t0 = time.perf_counter()
    session.how_was_it_made("model")
    cold = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(hits):
        session.how_was_it_made("model")
    warm_total = time.perf_counter() - t0
    return cold, warm_total, hits / warm_total if warm_total else float("inf")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small graph + few repeats (CI smoke)")
    parser.add_argument("--no-assert", action="store_true",
                        help="report only; never fail on speedup targets")
    parser.add_argument("--json", metavar="PATH",
                        help="write a machine-readable result record")
    args = parser.parse_args(argv)

    if args.quick:
        n_vertices, n_queries, repeats, session_runs = 1500, 8, 2, 150
    else:
        n_vertices, n_queries, repeats, session_runs = 12000, 15, 3, 1500

    print(f"generating Pd lifecycle graph (n={n_vertices}) ...")
    instance = generate_pd_sized(n_vertices, seed=7)
    graph = instance.graph
    print(f"  {graph!r}")

    live, snap = bench_pgseg(instance, n_queries, repeats)
    pgseg_speedup = live / snap if snap else float("inf")
    print(f"PgSeg    x{n_queries * repeats:<4d} live {live:8.3f}s   "
          f"snapshot {snap:8.3f}s   speedup {pgseg_speedup:5.2f}x")

    live, snap = bench_lineage(instance, n_queries * 4, repeats)
    lineage_speedup = live / snap if snap else float("inf")
    print(f"lineage  x{n_queries * 4 * repeats:<4d} live {live:8.3f}s   "
          f"snapshot {snap:8.3f}s   speedup {lineage_speedup:5.2f}x")

    cold, warm_total, qps = bench_session_cache(session_runs, hits=1000)
    print(f"session cache: cold {cold * 1e3:8.2f}ms   "
          f"1000 hits {warm_total * 1e3:8.2f}ms   ({qps:,.0f} q/s)")

    mode = "quick" if args.quick else "full"
    floors = FLOORS[mode]
    speedups = {"pgseg": pgseg_speedup, "lineage": lineage_speedup}
    failed = [name for name, speedup in speedups.items()
              if speedup < floors[name]]
    if args.json:
        record = {
            "benchmark": "bench_snapshot",
            "mode": mode,
            "n_vertices": n_vertices,
            "speedups": speedups,
            "floors": floors,
            "session_cache_hits_per_s": qps,
            "pass": not failed,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")

    if not args.no_assert and failed:
        print(
            f"FAIL: snapshot speedup below floor {floors} for {failed}",
            file=sys.stderr,
        )
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
