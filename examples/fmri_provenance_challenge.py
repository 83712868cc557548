#!/usr/bin/env python
"""The First Provenance Challenge workflow, via the LifecycleSession API.

Runs the classic fMRI atlas pipeline (align_warp → reslice → softmean →
slicer → convert) three times, then answers the challenge-style questions
with the library's high-level facade:

1. "What produced this atlas graphic?" — lineage + segmentation
2. "What changed between run 1 and run 3?" — segment diff
3. "What is the pipeline, across runs?" — PgSum summary (+ DOT export)
4. Durability: snapshot the store and reload it.

Run with::

    python examples/fmri_provenance_challenge.py
"""

import tempfile
from pathlib import Path

from repro.model.graph import ProvenanceGraph
from repro.segment.pgseg import segment
from repro.store.persistence import load_store, save_store
from repro.summarize.aggregation import PropertyAggregation
from repro.summarize.render import psg_to_dot
from repro.workloads.fmri import build_fmri_workflow


def main() -> None:
    fmri = build_fmri_workflow(n_subjects=3, runs=3)
    session = fmri.session
    print(f"Recorded {len(session.runs)} activity executions")
    print(session.statistics().describe())
    print(f"PROV constraints: {session.check().summary()}\n")

    # ------------------------------------------------------------------
    # 1. What produced atlas_x.gif?
    # ------------------------------------------------------------------
    print("=== [1] Upstream of the latest atlas_x.gif ===")
    print(f"    pipeline depth: {session.depth_of('atlas_x.gif')} stages")
    print(f"    blame: {session.who_touched('atlas_x.gif')}")
    seg = session.how_was_it_made("atlas_x.gif",
                                  from_artifacts=["anatomy0.img"])
    commands = sorted({
        session.graph.vertex(v).get("command")
        for v in seg.vertices if session.graph.is_activity(v)
    })
    print(f"    stages on the trail: {', '.join(commands)}\n")

    # ------------------------------------------------------------------
    # 2. What changed between run 1 and run 3?
    # ------------------------------------------------------------------
    print("=== [2] Diff: atlas_x.gif v1 vs v3 ===")
    diff = session.compare_versions("atlas_x.gif", 1, 3)
    print(f"    {diff.summary()}")
    print(f"    (the runs share the raw anatomy images and reference; "
          f"every derived snapshot differs)\n")

    # ------------------------------------------------------------------
    # 3. The pipeline skeleton across all three runs.
    # ------------------------------------------------------------------
    print("=== [3] PgSum across the three runs ===")
    psg = session.typical_pipeline(
        "atlas_x.gif",
        aggregation=PropertyAggregation.of(entity=("name",),
                                           activity=("command",)),
    )
    print(f"    {psg.source_vertex_total} vertices -> {psg.node_count} groups "
          f"(cr {psg.compaction_ratio:.2f})")
    always = sum(1 for f in psg.edges.values() if f == 1.0)
    print(f"    {always} edges appear in every run — the stable skeleton")
    dot = psg_to_dot(psg, min_frequency=0.99)
    print(f"    DOT export of the skeleton: {len(dot.splitlines())} lines\n")

    # ------------------------------------------------------------------
    # 4. Durability round trip.
    # ------------------------------------------------------------------
    print("=== [4] Snapshot & reload ===")
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "fmri-store.jsonl"
        save_store(session.graph.store, target)
        restored = ProvenanceGraph(store=load_store(target))
        anatomy = session.builder.version_of("anatomy0.img", 1)
        atlas = session.builder.latest("atlas.img")
        again = segment(restored, [anatomy], [atlas])
        original = segment(session.graph, [anatomy], [atlas])
        assert again.vertices == original.vertices
        print(f"    saved {target.stat().st_size} bytes; reloaded store "
              f"answers the same segmentation query identically")


if __name__ == "__main__":
    main()
