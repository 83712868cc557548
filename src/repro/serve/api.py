"""The serving layer's public configuration and query-spec surface.

Two small value types stop the serving API from growing one positional
kwarg per PR:

- :class:`ServeConfig` — one frozen dataclass naming every serving
  knob. ``LifecycleSession.serve(config=...)``, :class:`ProvCluster`,
  :class:`WorkerPool`, and the async front-end all consume it; the
  ``replicas=`` / ``count=`` / ``out_of_process=`` shorthand on those
  constructors builds a ``ServeConfig`` internally.
- :class:`QuerySpec` — a typed batch-query spec with per-method
  constructors, replacing the bare ``(method, params-dict)`` tuples of
  ``query_many``/``route_many``. Tuples stay accepted everywhere via
  :func:`normalize_spec`, the single normalization point, so existing
  callers and tests migrate incrementally.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType
from typing import Any, Mapping

from repro.errors import ConfigError
from repro.serve.methods import BATCHABLE

__all__ = [
    "QUERY_METHODS",
    "QuerySpec",
    "ServeConfig",
    "normalize_spec",
    "normalize_specs",
]

#: Methods a :class:`QuerySpec` may name: the batchable rows of the
#: method table (``summarize`` is routed to one replica whole).
QUERY_METHODS = BATCHABLE


@dataclass(frozen=True)
class ServeConfig:
    """Every serving knob in one validated, immutable value.

    Args:
        replicas: read replicas, each one
            :class:`~repro.serve.worker.ReplicaWorker` (per shard, when
            sharded).
        shards: partition serving into this many shards behind a
            :class:`~repro.serve.shards.ShardedCluster` coordinator
            (``1`` = today's single-leader :class:`ProvCluster`,
            byte-compatible stats/wire schemas). Each shard runs its own
            replication feed and replica set; reads scatter-gather.
        out_of_process: spawn each worker as a ``serve-worker`` process
            (true parallel reads across cores) instead of in this process
            behind an in-memory link. Only the spawn differs: the same
            worker answers either way.
        frontend: also start the asyncio front-end
            (:class:`repro.serve.frontend.AsyncFrontend`) so remote
            clients can fan in over the wire protocol.
        frontend_host: interface the front-end listens on.
        frontend_port: front-end port (0 = ephemeral).
        frontend_token: client-session auth token; ``None`` accepts any.
        max_inflight: largest multiplexed batch the front-end dispatches
            onto the pool per drain cycle.
        admission_budget: total requests admitted-but-unanswered across
            every client connection before new ones are rejected with a
            typed :class:`~repro.errors.Overloaded` error.
        session_budget: per-connection cap on admitted-but-unwritten
            requests; a connection at its cap stops being read
            (backpressure) rather than rejected.
        metrics: keep a real :class:`~repro.obs.MetricsRegistry` per
            serving process; ``False`` swaps in the no-op registry
            (the ``--trace-overhead`` benchmark baseline).
        trace_sample: fraction of client frames the front-end traces
            end-to-end (0.0 = never, 1.0 = every frame).
        trace_ring: bound of the in-memory recent-trace ring (and the
            slow-query log) kept by the trace collector.
        slow_query_s: wall-time threshold above which a finished trace
            is also recorded on the slow-query log; ``None`` disables
            the log.
    """

    replicas: int = 2
    shards: int = 1
    out_of_process: bool = False
    frontend: bool = False
    frontend_host: str = "127.0.0.1"
    frontend_port: int = 0
    frontend_token: str | None = None
    max_inflight: int = 256
    admission_budget: int = 1024
    session_budget: int = 64
    metrics: bool = True
    trace_sample: float = 0.0
    trace_ring: int = 128
    slow_query_s: float | None = None

    def __post_init__(self):
        if self.replicas < 1:
            raise ConfigError("replicas must be >= 1")
        if self.shards < 1:
            raise ConfigError("shards must be >= 1")
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ConfigError("trace_sample must be in [0.0, 1.0]")
        if self.trace_ring < 1:
            raise ConfigError("trace_ring must be >= 1")
        if self.slow_query_s is not None and self.slow_query_s <= 0:
            raise ConfigError("slow_query_s must be > 0 (or None)")
        if not 0 <= self.frontend_port <= 65535:
            raise ConfigError("frontend_port must be in [0, 65535]")
        if self.max_inflight < 1:
            raise ConfigError("max_inflight must be >= 1")
        if self.session_budget < 1:
            raise ConfigError("session_budget must be >= 1")
        if self.admission_budget < self.max_inflight:
            raise ConfigError(
                "admission_budget must be >= max_inflight "
                f"({self.admission_budget} < {self.max_inflight}); a "
                "budget smaller than one batch can never fill a batch")

    @classmethod
    def of(cls, config: "ServeConfig | None" = None,
           **overrides: Any) -> "ServeConfig":
        """The alias path: an explicit config wins, bare kwargs build one.

        ``of(None, replicas=4)`` is what ``serve(replicas=4)`` becomes
        internally; ``of(config, replicas=4)`` rejects the mix so a
        caller can't silently lose an override.
        """
        overrides = {name: value for name, value in overrides.items()
                     if value is not None}
        if config is not None:
            if not isinstance(config, cls):
                raise ConfigError(
                    f"config must be a ServeConfig, got {type(config).__name__}")
            if overrides:
                raise ConfigError(
                    "pass either config= or bare kwargs, not both: "
                    + ", ".join(sorted(overrides)))
            return config
        known = {spec.name for spec in fields(cls)}
        unknown = set(overrides) - known
        if unknown:
            raise ConfigError(
                "unknown ServeConfig field(s): " + ", ".join(sorted(unknown)))
        return cls(**overrides)

    def with_(self, **overrides: Any) -> "ServeConfig":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **overrides)


def _frozen_params(params: Mapping[str, Any]) -> Mapping[str, Any]:
    if not isinstance(params, Mapping):
        raise TypeError(
            f"params must be a mapping, got {type(params).__name__}")
    return MappingProxyType(dict(params))


@dataclass(frozen=True)
class QuerySpec:
    """One typed read in a ``query_many`` batch.

    Build via the per-method constructors (:meth:`lineage`,
    :meth:`impacted`, :meth:`blame`, :meth:`segment`, :meth:`cypher`)
    rather than positionally — they name their parameters and validate
    the method up front, so a typo'd method fails at construction, not
    deep inside a routed bundle.
    """

    method: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in QUERY_METHODS:
            raise ValueError(
                f"unknown query method {self.method!r}; "
                f"choose from {QUERY_METHODS}")
        object.__setattr__(self, "params", _frozen_params(self.params))

    # -- constructors ---------------------------------------------------

    @classmethod
    def lineage(cls, entity: int, **options: Any) -> "QuerySpec":
        """Backward lineage of ``entity`` (``max_depth=`` etc. pass through)."""
        return cls("lineage", {"entity": entity, **options})

    @classmethod
    def impacted(cls, entity: int, **options: Any) -> "QuerySpec":
        """Forward impact set of ``entity``."""
        return cls("impacted", {"entity": entity, **options})

    @classmethod
    def blame(cls, entity: int, **options: Any) -> "QuerySpec":
        """Blame walk (contributing activities/agents) of ``entity``."""
        return cls("blame", {"entity": entity, **options})

    @classmethod
    def segment(cls, query: Any) -> "QuerySpec":
        """PgSeg segmentation for a ``PgSegQuery``."""
        return cls("segment", {"query": query})

    @classmethod
    def cypher(cls, text: str, budget: Any = None) -> "QuerySpec":
        """CypherLite evaluation of ``text`` under an optional budget."""
        params: dict[str, Any] = {"text": text}
        if budget is not None:
            params["budget"] = budget
        return cls("cypher", params)

    # -- interop --------------------------------------------------------

    def as_tuple(self) -> tuple[str, dict[str, Any]]:
        """The legacy ``(method, params)`` shape routed code still speaks."""
        return self.method, dict(self.params)


def normalize_spec(spec: Any) -> QuerySpec:
    """The one normalization point: ``QuerySpec`` | ``(method, params)``.

    ``ProvCluster.query_many`` (and the session's local fallback) funnel
    every incoming spec through here, so tuple-speaking callers keep
    working while typed callers get validation at the boundary.
    """
    if isinstance(spec, QuerySpec):
        return spec
    try:
        method, params = spec
    except (TypeError, ValueError):
        raise TypeError(
            "query spec must be a QuerySpec or a (method, params) pair, "
            f"got {spec!r}") from None
    return QuerySpec(method, params)


def normalize_specs(specs: Any) -> list[QuerySpec]:
    """Normalize a whole batch, preserving order."""
    return [normalize_spec(spec) for spec in specs]
