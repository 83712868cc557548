"""Delta-log replication and the multi-replica query serving layer.

Turns the single-process provenance store into a leader + N read-replica
cluster: :mod:`repro.serve.wire` is the wire format (replication stream +
request/response query frames — spec in ``docs/wire-protocol.md``),
:mod:`repro.serve.replication` the leader publisher and the one
checkpoint + binary-tail bootstrap every follower shares,
:mod:`repro.serve.transport` the framed socket channel and the in-memory
link, :mod:`repro.serve.worker` the replica worker (the one follower), and
:mod:`repro.serve.pool` the worker pool that spawns (as processes or
in-process), health-checks, and restarts those workers.
:mod:`repro.serve.cluster` routes every read family across the pool with
epoch-stamped consistency, and
:mod:`repro.serve.frontend` is the asyncio front-end that multiplexes
thousands of remote client connections onto that fan-out.

Configuration rides one value type: ``LifecycleSession.serve(
config=ServeConfig(replicas=N, out_of_process=True, frontend=True))``
wires a session's reads through a cluster (``replicas=`` /
``out_of_process=`` are shorthand for the same value), and :class:`QuerySpec` is the
typed spec ``query_many`` batches take.
"""

from repro.serve.api import QuerySpec, ServeConfig
from repro.serve.cluster import ProvCluster, QueryRouter
from repro.serve.frontend import AsyncFrontend, FrontendClient
from repro.serve.pool import WorkerClient, WorkerPool
from repro.serve.replication import ReplicationLog
from repro.serve.shards import ShardedCluster
from repro.serve.transport import LineTransport
from repro.serve.wire import WIRE_FORMAT
from repro.serve.worker import ReplicaWorker

__all__ = [
    "WIRE_FORMAT",
    "AsyncFrontend",
    "FrontendClient",
    "LineTransport",
    "ProvCluster",
    "QueryRouter",
    "QuerySpec",
    "ReplicaWorker",
    "ReplicationLog",
    "ServeConfig",
    "ShardedCluster",
    "WorkerClient",
    "WorkerPool",
]
