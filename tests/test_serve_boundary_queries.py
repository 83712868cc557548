"""Every paper query crosses the wire.

The paper's own Q1/Q2 (Fig. 2(d): exclude ``A``/``D`` edges, expand two
activities) and every boundary query the ``examples/`` scripts run are
answered by a worker — in-process and process-spawned alike — and each
answer equals the in-process operator's. The leader evaluates none of
them: a wrapped ``PgSegOperator.evaluate`` fails the test if it is ever
called on the leader graph while the cluster serves.
"""

import runpy
from pathlib import Path

import pytest

from repro.model.graph import ProvenanceGraph
from repro.model.types import EdgeType
from repro.segment.boundary import (
    BoundaryCriteria,
    exclude_edge_types,
    owned_by,
    property_not_equals,
    within_order_window,
)
from repro.segment.pgseg import PgSegOperator, PgSegQuery
from repro.serve.api import QuerySpec, ServeConfig
from repro.serve.cluster import ProvCluster
from repro.serve.wire import psg_to_wire, segment_to_wire
from repro.summarize.pgsum import PgSumOperator, PgSumQuery
from repro.workloads import generate_team_project
from repro.workloads.lifecycle import build_paper_example

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def paper_queries():
    """Q1 and Q2 exactly as ``examples/quickstart.py`` asks them, plus
    an ownership boundary and a property-name key."""
    example = build_paper_example()

    def boundaries(expand_from):
        return BoundaryCriteria().exclude_edges(
            exclude_edge_types(EdgeType.WAS_ATTRIBUTED_TO,
                               EdgeType.WAS_DERIVED_FROM)
        ).expand([example[expand_from]], k=2)

    src = (example["dataset-v1"],)
    return example.graph, [
        PgSegQuery(src=src, dst=(example["weight-v2"],),
                   boundaries=boundaries("weight-v2")),
        PgSegQuery(src=src, dst=(example["log-v3"],),
                   boundaries=boundaries("log-v3")),
        PgSegQuery(src=src, dst=(example["weight-v3"],),
                   boundaries=BoundaryCriteria().exclude_vertices(
                       owned_by(example.graph, example["Bob"]))),
        PgSegQuery(src=src, dst=(example["weight-v3"],),
                   algorithm="simprov-alg", activity_key=("command",),
                   entity_key=("name",)),
    ]


def cybersecurity_queries():
    """``examples/cybersecurity_segmentation.py`` step 2: the leak trail
    with the backup daemon excluded, on the example's own host graph."""
    build_host_day = runpy.run_path(
        str(EXAMPLES / "cybersecurity_segmentation.py"))["build_host_day"]
    graph = ProvenanceGraph()
    root = graph.add_agent(name="root")
    backup_user = graph.add_agent(name="backup")
    attacked = [build_host_day(graph, day, attacker_day=(day == 3),
                               root=root, backup_user=backup_user)
                for day in range(5)][3]
    return graph, [PgSegQuery(
        src=(attacked["secrets"],), dst=(attacked["socket"],),
        boundaries=BoundaryCriteria().exclude_vertices(
            property_not_equals("command", "backupd")))]


def lifecycle_queries():
    """``examples/lifecycle_introspection.py`` step 3's recency, no-report
    and expansion boundaries, asked as whole queries."""
    project = generate_team_project(members=4, iterations=16, seed=2024)
    graph, builder = project.graph, project.builder
    latest = builder.latest("weights")
    src, dst = (builder.version_of("dataset", 1),), (latest,)
    train_inputs = graph.used_entities(graph.generating_activities(latest)[0])
    return graph, [
        PgSegQuery(src=src, dst=dst, boundaries=BoundaryCriteria()
                   .exclude_vertices(within_order_window(
                       lo=graph.store.order_of(latest) - 40))),
        PgSegQuery(src=src, dst=dst, boundaries=BoundaryCriteria()
                   .exclude_vertices(property_not_equals("command", "report"))),
        PgSegQuery(src=src, dst=dst, boundaries=BoundaryCriteria()
                   .exclude_vertices(property_not_equals("command", "report"))
                   .expand(train_inputs, k=2)),
    ]


@pytest.fixture
def no_leader_evaluation(monkeypatch):
    """Fail any PgSeg evaluation on ``graph`` (the leader) from now on."""
    def arm(graph):
        evaluate = PgSegOperator.evaluate

        def worker_only(self, *args, **kwargs):
            assert self.graph is not graph, "the leader evaluated a query"
            return evaluate(self, *args, **kwargs)

        monkeypatch.setattr(PgSegOperator, "evaluate", worker_only)
    return arm


@pytest.mark.parametrize("out_of_process", [False, True],
                         ids=["in-process", "processes"])
@pytest.mark.parametrize("workload", [paper_queries, cybersecurity_queries,
                                      lifecycle_queries])
def test_boundary_queries_served_by_a_worker(workload, out_of_process,
                                             no_leader_evaluation):
    graph, queries = workload()
    operator = PgSegOperator(graph)
    expected = [segment_to_wire(operator.evaluate(q)) for q in queries]
    summary = psg_to_wire(PgSumOperator(
        [operator.evaluate(q) for q in queries]).evaluate(PgSumQuery()))
    cluster = ProvCluster(graph, config=ServeConfig(
        replicas=1, out_of_process=out_of_process))
    try:
        no_leader_evaluation(graph)
        assert [segment_to_wire(cluster.segment(q)) for q in queries] \
            == expected
        assert [segment_to_wire(s) for s in cluster.query_many(
            [QuerySpec.segment(q) for q in queries])] == expected
        assert psg_to_wire(cluster.summarize(queries)) == summary
        assert cluster.replicas[0].queries_served == 3 * len(queries)
    finally:
        cluster.close()
