"""The performance ledger's one command.

Two ways in:

- **Ledger mode** — ``PYTHONPATH=src python -m benchmarks.ledger.run
  --seed 17 --json OUT.json`` runs all four workloads, each as an
  untraced fixed-duration window (end-to-end metrics) followed by an
  equally long traced run of the same generated inputs (per-layer
  metrics), prints
  every metric by name with its unit, checks every answer, and exits
  non-zero on a wrong answer. ``--repeat N`` produces N sets for
  ``benchmarks.ledger.compare``; ``--smoke`` shrinks graphs and windows.
- **Driver mode** — ``python3 benchmarks/ledger/run.py --workload NAME
  --seed N --seconds S --trace 0|1`` (the ``BENCHMARK.json`` command)
  runs one workload one way and prints, as the last line of stdout, one
  JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
  exactly the gated end-to-end metrics (``--trace 0``) or exactly the
  per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any

if __package__ in (None, ""):
    # Run as a script: make ``benchmarks.ledger`` and ``repro`` importable
    # from this file's own checkout, whatever the working directory.
    _ROOT = Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

from benchmarks.ledger import (   # noqa: E402 - after the path fix-up
    dash_hot,
    explore_cold,
    harness,
    ingest_churn,
    paper_ops,
    spec,
)
from benchmarks.ledger.harness import NO_SPANS, Spans, median, metric  # noqa: E402

MODULES = {module.NAME: module for module in
           (dash_hot, explore_cold, ingest_churn, paper_ops)}

#: Set-ups per untraced run; ``setup_s`` is their median (the first one
#: also pays the process's imports, so one sample would overstate it).
SETUP_REPEATS = 3
SCHEMA = "repro-ledger-v1"
#: Ledger mode gives one workload (both runs, set-ups, checks) this long
#: before it is killed and recorded as a timeout.
WORKLOAD_TIMEOUT_S = 600.0


def run_untraced(module: Any, seed: int, seconds: float, smoke: bool,
                 setup_repeats: int) -> dict[str, Any]:
    """One untraced window; the workload's end-to-end record."""
    setups = []
    started = time.perf_counter()
    ctx = module.setup(seed, smoke, traced=False)
    setups.append(time.perf_counter() - started)
    try:
        end_to_end = module.measure(ctx, seconds, NO_SPANS)
    finally:
        module.teardown(ctx)
    # Extra set-ups come after the window, so the peak-RSS reading above
    # is the workload's and not the repetition's.
    for _ in range(setup_repeats - 1):
        started = time.perf_counter()
        extra = module.setup(seed, smoke, traced=False)
        setups.append(time.perf_counter() - started)
        module.teardown(extra)
    tally = ctx.tally
    end_to_end["setup_s"] = metric(median(setups), "s", n=len(setups))
    end_to_end["failed_share"] = metric(
        tally.failed / max(1, tally.attempted), "ratio",
        base=tally.attempted)
    return {"end_to_end": end_to_end, "counts": tally.as_record()}


def run_traced(module: Any, seed: int, seconds: float, smoke: bool,
               untraced_ops_per_s: float) -> dict[str, Any]:
    """One traced window of the same inputs; the per-layer record."""
    spans = Spans()
    ctx = module.setup(seed, smoke, traced=True)
    try:
        end_to_end = module.measure(ctx, seconds, spans)
        per_layer = module.layer_metrics(ctx, spans)
    finally:
        module.teardown(ctx)
    traced_ops_per_s = end_to_end["ops_per_s"]["value"]
    per_layer["obs.trace_overhead_share"] = metric(
        1.0 - traced_ops_per_s / untraced_ops_per_s, "ratio",
        base=untraced_ops_per_s, base_unit="op/s")
    return {"per_layer": per_layer, "counts": ctx.tally.as_record()}


def run_isolated(name: str, seed: int, seconds: float,
                 smoke: bool) -> dict[str, Any]:
    """:func:`run_workload` in a child process of its own session.

    The child's peak RSS is that workload's alone (``VmHWM`` is a
    process-lifetime mark), and a workload that hangs or crashes the
    interpreter is killed with its workers and recorded — it cannot hide
    the other three.
    """
    command = [sys.executable, str(Path(__file__).resolve()),
               "--record", name, "--seed", str(seed),
               "--seconds", repr(seconds)] + (["--smoke"] if smoke else [])
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=WORKLOAD_TIMEOUT_S)
        return json.loads(stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.communicate()
        return {"end_to_end": {"failed_share": metric(1.0, "ratio", base=0)},
                "per_layer": {}, "counts": {},
                "error": "Timeout" if isinstance(
                    exc, subprocess.TimeoutExpired) else "ChildCrashed"}


def run_workload(name: str, seed: int, seconds: float,
                 smoke: bool) -> dict[str, Any]:
    """Ledger mode: untraced window, then a traced one of the same length
    (equal windows, so their ratio is the tracing overhead and not the
    window's — ``ingest_churn``'s rate falls as its window goes on).

    A failure is recorded, not raised: the partial record carries
    ``failed_share`` and the exception's name, and the caller moves on
    to the next workload.
    """
    module = MODULES[name]
    record: dict[str, Any] = {"end_to_end": {}, "per_layer": {},
                              "counts": {}, "error": None}
    try:
        untraced = run_untraced(module, seed, seconds, smoke,
                                1 if smoke else SETUP_REPEATS)
        record["end_to_end"] = untraced["end_to_end"]
        record["counts"]["untraced"] = untraced["counts"]
        traced = run_traced(
            module, seed, seconds, smoke,
            untraced["end_to_end"]["ops_per_s"]["value"])
        record["per_layer"] = traced["per_layer"]
        record["counts"]["traced"] = traced["counts"]
    except Exception as exc:   # noqa: BLE001 - one workload must not hide
        # the other three; the partial record says what happened.
        traceback.print_exc()
        record["error"] = type(exc).__name__
        record["end_to_end"].setdefault(
            "failed_share", metric(1.0, "ratio", base=0))
    return record


def failed_ops(record: dict[str, Any]) -> int:
    return sum(counts["failed"] for counts in record["counts"].values())


def print_record(name: str, record: dict[str, Any]) -> None:
    print(f"\n== {name}" + (f"  [FAILED: {record['error']}]"
                            if record["error"] else ""))
    for section in ("end_to_end", "per_layer"):
        for metric_name, entry in sorted(record[section].items()):
            extras = "  ".join(f"{key}={entry[key]}" for key in entry
                               if key not in ("value", "unit"))
            print(f"  {metric_name:38s} {entry['value']:>14.6g} "
                  f"{entry['unit']:6s} {extras}")
    for mode, counts in record["counts"].items():
        print(f"  [{mode}] attempted={counts['attempted']} "
              f"succeeded={counts['succeeded']} failed={counts['failed']}")
        for phase, entry in counts["phases"].items():
            print(f"      {phase:28s} attempted={entry['attempted']} "
                  f"succeeded={entry['succeeded']} failed={entry['failed']}")
        if counts["reasons"]:
            print(f"      reasons: {counts['reasons']}")


def host_record() -> dict[str, Any]:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), "system": platform.system()}


def ledger_main(args: argparse.Namespace) -> int:
    seconds = args.seconds if args.seconds is not None \
        else (0.3 if args.smoke else 30.0)
    document = {"schema": SCHEMA, "seed": args.seed, "smoke": args.smoke,
                "seconds": seconds, "host": host_record(), "sets": []}
    bad = False
    for index in range(args.repeat):
        workloads = {}
        for name in MODULES:
            print(f"-- set {index + 1}/{args.repeat}: {name} "
                  f"(seed {args.seed}, window {seconds:g} s)", flush=True)
            record = run_isolated(name, args.seed, seconds, args.smoke)
            print_record(name, record)
            workloads[name] = record
            bad = bad or record["error"] is not None \
                or failed_ops(record) > 0
        document["sets"].append({"workloads": workloads})
    if args.json:
        Path(args.json).write_text(json.dumps(document, indent=1) + "\n")
    print("\nledger: " + ("FAILED (wrong answer, error or timeout above)"
                          if bad else "ok"))
    return 1 if bad else 0


def driver_main(args: argparse.Namespace) -> int:
    """One workload, one way; the result object is the last stdout line."""
    module = MODULES[args.workload]
    seconds = args.seconds if args.seconds is not None else 10.0
    if args.trace:
        # Half the budget each: an untraced reference for the overhead
        # share, then the traced window.
        untraced = run_untraced(module, args.seed, seconds / 2, args.smoke,
                                setup_repeats=1)
        traced = run_traced(module, args.seed, seconds / 2, args.smoke,
                            untraced["end_to_end"]["ops_per_s"]["value"])
        measured = traced["per_layer"]
        counts = [untraced["counts"], traced["counts"]]
        # The driver wants every declared name on every workload; a layer
        # that is not on this workload's path spent 0 there.
        metrics = {
            entry.name: {"value": measured[entry.name]["value"]
                         if entry.name in measured else 0,
                         "unit": entry.unit}
            for entry in spec.PER_LAYER}
    else:
        untraced = run_untraced(module, args.seed, seconds, args.smoke,
                                SETUP_REPEATS)
        counts = [untraced["counts"]]
        metrics = {
            entry.name: {"value": untraced["end_to_end"][entry.name]["value"],
                         "unit": entry.unit}
            for entry in spec.GATED}
    attempted = sum(entry["attempted"] for entry in counts)
    failed = sum(entry["failed"] for entry in counts)
    for entry in counts:
        if entry["reasons"]:
            print(f"failures: {entry['reasons']}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="benchmarks.ledger.run", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=17,
                        help="workload seed (op streams, tile targets)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="untraced window (default 30; smoke 0.3)")
    parser.add_argument("--smoke", action="store_true",
                        help="small graphs, sub-second windows")
    parser.add_argument("--json", metavar="OUT.json",
                        help="ledger mode: write the record here")
    parser.add_argument("--repeat", type=int, default=1,
                        help="ledger mode: number of sets")
    parser.add_argument("--workload", choices=list(MODULES),
                        help="driver mode: the one workload to run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 0 = end-to-end, 1 = per-layer")
    parser.add_argument("--record", choices=list(MODULES),
                        help=argparse.SUPPRESS)   # ledger mode's child
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    harness.prepare_scratch()
    try:
        if args.record:
            print(json.dumps(run_workload(args.record, args.seed,
                                          args.seconds, args.smoke)))
            return 0
        if args.workload:
            return driver_main(args)
        return ledger_main(args)
    finally:
        harness.remove_scratch()
        for pid in harness.stray_workers():   # belt and braces
            os.kill(pid, 9)
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


if __name__ == "__main__":
    sys.exit(main())
