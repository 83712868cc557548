"""``python -m benchmarks.ledger.compare A.json B.json``

One row per (end-to-end metric, workload): both medians over the files'
sets, the ratio B ÷ A with its base, and a verdict against the metric's
bound —

- ``within``: B's median is no worse than A's by more than the bound;
- ``worse``: it is;
- ``unresolved``: the spread between a file's own repeated sets is wider
  than the bound, so the pair cannot be told apart at this bound.

A and B are records written by ``benchmarks.ledger.run --json`` (use
``--repeat N`` for the sets). Bounds come from ``BENCHMARK.json`` for the
metrics it gates and from :mod:`benchmarks.ledger.spec` for the rest.
Exit status is non-zero when any row is ``worse`` or ``unresolved``, or
a workload recorded an error or failed ops. The same command compares a
file with itself split in two (``--self A.json``: first half of the sets
against the second half) — this issue's self-agreement criterion.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.ledger import spec   # noqa: E402 - after the path fix-up
from benchmarks.ledger.harness import REPO_ROOT   # noqa: E402


def load_bounds() -> dict[str, tuple[float, str]]:
    """metric -> (bound, better); ``BENCHMARK.json`` wins where it speaks."""
    bounds = {entry.name: (entry.bound, entry.better)
              for entry in spec.END_TO_END}
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    for entry in contract["end_to_end"]:
        bounds[entry["name"]] = (entry["bound"], entry["better"])
    return bounds


def values_of(sets: list[dict[str, Any]], workload: str,
              metric: str) -> list[float]:
    values = []
    for entry in sets:
        record = entry["workloads"].get(workload)
        if record and metric in record["end_to_end"]:
            values.append(record["end_to_end"][metric]["value"])
    return values


def spread(values: list[float]) -> float:
    """(max − min) ÷ median of a file's repeated sets (0 for one set)."""
    center = statistics.median(values)
    if len(values) < 2 or center == 0:
        return 0.0
    return (max(values) - min(values)) / abs(center)


def verdict(a: list[float], b: list[float], bound: float,
            better: str) -> tuple[str, float]:
    """``(verdict, worsening)``; worsening is B's median relative to A's,
    positive when worse."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    if bound == 0.0:
        # Absolute bound (failed_share): any non-zero value is worse.
        return ("within" if med_b <= med_a else "worse"), med_b - med_a
    if med_a == 0:
        return "unresolved", 0.0
    change = (med_b - med_a) / abs(med_a)
    worsening = change if better == "lower" else -change
    if max(spread(a), spread(b)) > bound:
        return "unresolved", worsening
    return ("worse" if worsening > bound else "within"), worsening


def compare(sets_a: list[dict[str, Any]], sets_b: list[dict[str, Any]],
            ) -> tuple[list[tuple], bool]:
    bounds = load_bounds()
    rows = []
    bad = False
    for workload in spec.WORKLOADS:
        for entry in spec.END_TO_END:
            if workload not in entry.workloads:
                continue
            a = values_of(sets_a, workload, entry.name)
            b = values_of(sets_b, workload, entry.name)
            if not a or not b:
                rows.append((workload, entry.name, None, None, None,
                             entry.unit, "missing", 0.0, 0.0))
                bad = True
                continue
            bound, better = bounds[entry.name]
            outcome, worsening = verdict(a, b, bound, better)
            bad = bad or outcome != "within"
            med_a, med_b = statistics.median(a), statistics.median(b)
            rows.append((workload, entry.name, med_a, med_b,
                         med_b / med_a if med_a else None, entry.unit,
                         outcome, bound, max(spread(a), spread(b))))
    for label, sets in (("A", sets_a), ("B", sets_b)):
        for entry in sets:
            for workload, record in entry["workloads"].items():
                failed = sum(counts["failed"]
                             for counts in record["counts"].values())
                if record["error"] or failed:
                    print(f"{label}: {workload} recorded "
                          f"error={record['error']} failed_ops={failed}")
                    bad = True
    return rows, bad


def render(rows: list[tuple]) -> str:
    lines = [f"{'workload':14s} {'metric':24s} {'A median':>12s} "
             f"{'B median':>12s} {'B/A':>7s} {'unit':6s} {'bound':>6s} "
             f"{'spread':>7s}  verdict"]
    for (workload, name, med_a, med_b, ratio, unit, outcome, bound,
         spread_seen) in rows:
        if med_a is None:
            lines.append(f"{workload:14s} {name:24s} {'-':>12s} {'-':>12s} "
                         f"{'-':>7s} {unit:6s} {'-':>6s} {'-':>7s}  "
                         f"{outcome}")
            continue
        ratio_text = f"{ratio:7.3f}" if ratio is not None else "      -"
        lines.append(
            f"{workload:14s} {name:24s} {med_a:12.5g} {med_b:12.5g} "
            f"{ratio_text} {unit:6s} {bound * 100:5.0f}% "
            f"{spread_seen * 100:6.1f}%  {outcome}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.ledger.compare", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", metavar="A.json")
    parser.add_argument("b", metavar="B.json", nargs="?")
    parser.add_argument("--self", dest="self_split", action="store_true",
                        help="compare the first half of A's sets with the "
                             "second half")
    args = parser.parse_args(argv)
    sets_a = json.loads(Path(args.a).read_text())["sets"]
    if args.self_split:
        half = len(sets_a) // 2
        if half < 1:
            parser.error("--self needs a record with at least two sets")
        sets_a, sets_b = sets_a[:half], sets_a[half:]
    elif args.b is None:
        parser.error("give B.json, or --self")
    else:
        sets_b = json.loads(Path(args.b).read_text())["sets"]
    rows, bad = compare(sets_a, sets_b)
    print(render(rows))
    print("\nratio base: A median; bound: share of A's median the metric "
          "may worsen; spread: (max-min)/median across a file's own sets")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
