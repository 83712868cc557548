"""``python -m benchmarks.ledger.report [BASELINE.json] [--out FILE]``

Renders ``PERFORMANCE.md`` — the committed budget page — from a ledger
record (default ``baselines/seed.json``): per workload, the end-to-end
table and the per-layer budget with a share-of-op-time column ending in
the ``ledger.unattributed_share`` row, plus the prose answers the numbers
support. Generated, like ``generate_experiments_md.py`` does for the
paper figures; edit this file, not the page.
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
from benchmarks.ledger.harness import LEDGER_DIR   # noqa: E402

_TO_MS = {"s": 1e3, "ms": 1.0, "us": 1e-3}


def med(sets: list[dict], workload: str, section: str,
        name: str) -> float | None:
    values = [entry["workloads"][workload][section][name]["value"]
              for entry in sets
              if name in entry["workloads"].get(workload, {}).get(section, {})]
    return statistics.median(values) if values else None


def spread_text(sets: list[dict], workload: str, section: str,
                name: str) -> str:
    values = [entry["workloads"][workload][section][name]["value"]
              for entry in sets
              if name in entry["workloads"][workload][section]]
    return f"{min(values):.4g} – {max(values):.4g}"


def sample_count(sets: list[dict], workload: str, section: str,
                 name: str) -> str:
    entry = sets[0]["workloads"][workload][section].get(name, {})
    return str(entry.get("n", entry.get("base", "")))


def workload_section(sets: list[dict], workload: str) -> list[str]:
    lines = [f"## `{workload}`", "", spec.WORKLOADS[workload] + ".", ""]
    record = sets[0]["workloads"][workload]
    for mode, counts in record["counts"].items():
        lines.append(f"- {mode}: attempted {counts['attempted']}, "
                     f"succeeded {counts['succeeded']}, "
                     f"failed {counts['failed']}")
    lines += ["", "| end-to-end metric | median | min – max | unit | n | "
              "bound |", "| --- | ---: | ---: | --- | ---: | ---: |"]
    for entry in spec.END_TO_END:
        value = med(sets, workload, "end_to_end", entry.name)
        if value is None:
            continue
        bound = "0 (absolute)" if entry.bound == 0 \
            else f"{entry.bound * 100:.0f} %"
        gate = "" if entry.gated else " (ledger only)"
        lines.append(
            f"| `{entry.name}`{gate} | {value:.5g} | "
            f"{spread_text(sets, workload, 'end_to_end', entry.name)} | "
            f"{entry.unit} | "
            f"{sample_count(sets, workload, 'end_to_end', entry.name)} | "
            f"{bound} |")
    op_ms = med(sets, workload, "end_to_end", "op_p50_ms")
    lines += ["", f"Per-layer budget (traced run; one op = "
              f"{op_ms:.4g} ms at the median untraced). The share column "
              "is one call's median ÷ the op's median — an op makes "
              "several calls of some layers and none of others, so the "
              "shares locate cost, they do not add up; what the outside "
              "view cannot attribute at all is the last row.", "",
              "| per-layer metric | how | median | unit | share of op | "
              "should move |", "| --- | --- | ---: | --- | ---: | --- |"]
    last = ("obs.trace_overhead_share", "ledger.unattributed_share")
    ordered = [entry for entry in spec.PER_LAYER if entry.name not in last] \
        + [spec.PER_LAYER_BY_NAME[name] for name in last]
    for entry in ordered:
        value = med(sets, workload, "per_layer", entry.name)
        if value is None:
            continue
        share = ""
        if entry.unit in _TO_MS and op_ms:
            share = f"{value * _TO_MS[entry.unit] / op_ms * 100:.2f} %"
        elif entry.name == "ledger.unattributed_share":
            share = f"{value * 100:.1f} %"
        lines.append(f"| `{entry.name}` | {entry.how} | {value:.5g} | "
                     f"{entry.unit} | {share} | {entry.moves} |")
    return lines + [""]


def ceiling_prose(sets: list[dict]) -> list[str]:
    """The first question the page must answer, from the numbers."""
    def cold(name: str) -> float:
        return med(sets, "explore_cold", "per_layer", name) or 0.0

    solver = cold("cfl.solve_tst_ms")
    induce = cold("segment.induce_self_ms")
    codecs = (cold("serve.wire.request_codec_us")
              + cold("serve.wire.result_encode_us")
              + cold("serve.wire.result_decode_us")
              + cold("serve.wire.responses_pack_us")) / 1e3
    advance = (med(sets, "ingest_churn", "per_layer",
                   "store.snapshot.advance_us") or 0.0) / 1e3
    segment = med(sets, "explore_cold", "end_to_end", "segment_p50_ms")
    compute = cold("serve.worker.compute_ms")
    op = med(sets, "explore_cold", "end_to_end", "op_p50_ms")
    ranked = sorted((("the `cfl` solver", solver),
                     ("the `serve.wire` codecs", codecs),
                     ("`store.snapshot.advance`", advance)),
                    key=lambda pair: pair[1], reverse=True)
    evaluate = cold("segment.evaluate_ms")
    return [
        "## On a cache-miss read, what is the ceiling?", "",
        f"**{ranked[0][0].capitalize()}.** On `explore_cold` a segment "
        f"request takes {segment:.4g} ms end to end at the median. "
        "Replayed in-process on a 1-in-8 sample of the same queries, "
        f"`segment.evaluate_ms` is {evaluate:.4g} ms — the same size, so "
        "a served segment request is operator time and little else — of "
        f"which `cfl.solve_tst_ms` is {solver:.4g} ms "
        f"({solver / evaluate * 100:.0f} %) and `segment.induce_self_ms` "
        f"{induce:.4g} ms. All four `serve.wire` codec steps together — "
        "request encode+decode, result encode, result decode, responses "
        f"pack+unpack — cost {codecs:.3g} ms per answer, and "
        "`store.snapshot.advance` is not on a read-only path at all "
        f"(per shipped span it costs {advance:.3g} ms on `ingest_churn`)."
        f" Over the whole mix the median op is {op:.4g} ms, of which the "
        f"worker's compute span is {compute:.4g} ms. So a codec or "
        "transport change can move `explore_cold` by a few percent at "
        "most; a solver change moves `segment_p50_ms`, `op_p95_ms` and "
        "`ops_per_s` there nearly one for one.", ""]


def other_findings(sets: list[dict]) -> list[str]:
    def hot(name: str) -> float | None:
        return med(sets, "dash_hot", "per_layer", name)

    lines = ["## What else the seed baseline says", ""]
    hit = hot("serve.worker.cache_hit_share")
    views = hot("serve.worker.views_served_share")
    lines.append(
        f"- `dash_hot` is {hit * 100:.0f} % worker-cache hits, yet "
        f"`serve.worker.views_served_share` is {views:.2f}: every "
        "structural write drops the workers' summary views, so under a "
        "4 Hz append stream each summary is a full recompute "
        f"(`summarize_p50_ms` "
        f"{med(sets, 'dash_hot', 'end_to_end', 'summarize_p50_ms'):.4g} ms "
        "over ~120 input vertices). Structural view patching is parked "
        "in ROADMAP; this is its number.")
    self_ms = hot("serve.frontend.self_ms")
    direct = hot("serve.cluster.query_many_ms")
    lines.append(
        f"- A hot refresh costs {direct:.3g} ms straight at "
        f"`cluster.query_many` and {self_ms:.3g} ms more through the "
        "front-end (JSON-lines framing of answers the workers already "
        f"encoded once): the front-end is "
        f"{self_ms / (self_ms + direct) * 100:.0f} % of a hot refresh, so "
        "`op_p50_ms` on `dash_hot` has two owners of similar size, "
        "`serve.frontend` and `serve.cluster` + `serve.transport`.")
    syncs = med(sets, "ingest_churn", "per_layer", "serve.pool.full_syncs")
    lines.append(
        f"- `serve.pool.full_syncs` is {syncs:.0f} on `ingest_churn` "
        "(one of the kill cycles falls back from checkpoint+tail to a "
        "full JSON sync, as the sizing probe saw) — recorded, not fixed "
        "here.")
    return lines + [""]


def render(document: dict[str, Any], source: str) -> str:
    sets = document["sets"]
    host = document["host"]
    lines = [
        "# Performance ledger — seed baseline", "",
        f"Generated by `python -m benchmarks.ledger.report` from "
        f"`{source}`; do not edit by hand.", "",
        f"- host: {host['nproc']} cores, Python {host['python']}, "
        f"{host['system']} {host['machine']}",
        f"- seed {document['seed']}, {len(sets)} sets, untraced and traced "
        f"windows {document['seconds']:g} s each",
        "- medians over the sets; n is the sample count (or the base of a "
        "ratio) within one set",
        "- `\"claim\": null` — this page claims no gain; it is the "
        "instrument later claims are read on", ""]
    lines += ceiling_prose(sets)
    lines += other_findings(sets)
    for workload in spec.WORKLOADS:
        if all(workload in entry["workloads"] for entry in sets):
            lines += workload_section(sets, workload)
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.ledger.report", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", nargs="?",
                        default=str(LEDGER_DIR / "baselines" / "seed.json"))
    parser.add_argument("--out", default=str(LEDGER_DIR / "PERFORMANCE.md"))
    args = parser.parse_args(argv)
    path = Path(args.baseline)
    document = json.loads(path.read_text())
    try:
        source = str(path.resolve().relative_to(LEDGER_DIR.parents[1]))
    except ValueError:
        source = path.name
    Path(args.out).write_text(render(document, source) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
