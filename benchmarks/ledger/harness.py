"""Shared measurement plumbing of the performance ledger.

Everything here is benchmark-side: clocks, percentiles, ``/proc`` probes,
the span recorder the traced runs use, the cluster boot/teardown helpers
and the answer digests the checkers compare. Nothing in this package
edits or monkeypatches ``src/``; layers are timed from outside, around
their public functions.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
#: Every file the benchmark (or the program under it: checkpoint
#: directories come from ``tempfile``) writes lands here, inside the
#: checkout, and is removed again before the process exits.
SCRATCH_DIR = LEDGER_DIR / ".scratch"

#: An op that has not answered after this long is a failure, not a hang.
OP_TIMEOUT_S = 30.0
#: Trace ring of the traced runs: large enough to keep every trace of a
#: window (the default 128 would keep only the last few refreshes).
TRACE_RING = 1 << 16

_CLK_TCK = os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values: Iterable[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (which need not be sorted)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


median = statistics.median


def sliced_rate(stamps: Iterable[float], start: float, end: float,
                slice_s: float = 1.0) -> float:
    """Median completions per second over consecutive ~``slice_s`` blocks.

    The reference box is a shared VM: a neighbour can slow a few seconds
    of a window by 10–20 %. The median block ignores that where a plain
    count ÷ window would absorb it. Blocks hold a fixed number of ops
    (about ``slice_s`` worth) and are timed end to end, so the rate is
    continuous rather than a count per tick. Windows worth fewer than
    four blocks fall back to count ÷ window.
    """
    stamps = sorted(stamp for stamp in stamps if start <= stamp <= end)
    window = end - start
    blocks = int(window / slice_s)
    per_block = len(stamps) // max(1, blocks)
    if blocks < 4 or per_block < 1:
        return len(stamps) / window
    edges = [start] + stamps[per_block - 1::per_block]
    return statistics.median(
        per_block / (right - left)
        for left, right in zip(edges, edges[1:]) if right > left)


def metric(value: float, unit: str, n: int | None = None,
           **extra: Any) -> dict[str, Any]:
    """One reported number: value as measured, its unit, its sample count."""
    record: dict[str, Any] = {"value": value, "unit": unit}
    if n is not None:
        record["n"] = n
    record.update(extra)
    return record


# ---------------------------------------------------------------------------
# /proc probes (RSS high-water mark, CPU seconds) of this and worker pids
# ---------------------------------------------------------------------------


def rss_hwm_mb(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MB (0.0 once the process is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_seconds(pid: int) -> float:
    """utime + stime of ``pid`` in seconds (0.0 once the process is gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


@dataclass
class ProcessProbe:
    """CPU and peak RSS of the benchmark process plus the worker pids.

    Workers can be killed and respawned mid-run (``ingest_churn`` phase
    B), so RSS is tracked per worker *slot* as the maximum seen and CPU
    as a running total folded at every :meth:`sample`.
    """

    pids: Callable[[], list[int]]
    _cpu_seen: dict[int, float] = field(default_factory=dict)
    _cpu_done: float = 0.0
    _rss: dict[int, float] = field(default_factory=dict)

    def sample(self) -> None:
        live = self.pids()
        for slot, pid in enumerate(live):
            self._rss[slot] = max(self._rss.get(slot, 0.0), rss_hwm_mb(pid))
        for pid in list(self._cpu_seen):
            if pid not in live:
                self._cpu_done += self._cpu_seen.pop(pid)
        for pid in live:
            self._cpu_seen[pid] = max(self._cpu_seen.get(pid, 0.0),
                                      cpu_seconds(pid))

    def cpu_s(self) -> float:
        """Leader ``process_time`` + every worker's utime+stime so far."""
        self.sample()
        return (time.process_time() + self._cpu_done
                + sum(self._cpu_seen.values()))

    def peak_rss_mb(self) -> float:
        self.sample()
        return rss_hwm_mb(os.getpid()) + sum(self._rss.values())


# ---------------------------------------------------------------------------
# Spans (benchmark-side tracing)
# ---------------------------------------------------------------------------


class Spans:
    """In-memory span recorder: name -> list of durations in seconds.

    Kept in memory and summarised when the run ends. An untraced run
    gets :data:`NO_SPANS`, whose ``span`` is a bare ``yield`` — the
    difference between the two runs is the tracing overhead the ledger
    reports.
    """

    def __init__(self) -> None:
        self.durations: dict[str, list[float]] = {}

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            self.durations.setdefault(name, []).append(
                time.perf_counter() - started)

    def add(self, name: str, seconds: float) -> None:
        self.durations.setdefault(name, []).append(seconds)

    def get(self, name: str) -> list[float]:
        return self.durations.get(name, [])

    def median_metric(self, name: str, unit: str) -> dict[str, Any] | None:
        values = self.get(name)
        if not values:
            return None
        scale = {"s": 1.0, "ms": 1e3, "us": 1e6}[unit]
        return metric(median(values) * scale, unit, n=len(values))


class _NoSpans(Spans):
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    def add(self, name: str, seconds: float) -> None:
        pass


NO_SPANS = _NoSpans()


# ---------------------------------------------------------------------------
# The pool gate
# ---------------------------------------------------------------------------


class Gate:
    """FIFO lock serialising leader-side work against front-end dispatch.

    ``WorkerClient`` is not thread-safe and ``WorkerPool.ship`` reads the
    leader's delta log without a lock, so the leader process may not
    mutate the graph or call the pool (``refresh``, strict reads,
    ``summarize``, ``health_check``) while the front-end's executor is
    inside ``cluster.query_many``. A reader holds the gate from request
    sent to answer received (its request is the only work the executor
    can have); the owner holds it around every write and leader-side
    call. Tickets make it fair: a tight owner loop cannot starve the
    open-loop reader the way a bare ``threading.Lock`` would.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._next = 0
        self._serving = 0

    def __enter__(self) -> "Gate":
        with self._cond:
            ticket = self._next
            self._next += 1
            while ticket != self._serving:
                self._cond.wait()
        return self

    def __exit__(self, *exc_info: object) -> None:
        with self._cond:
            self._serving += 1
            self._cond.notify_all()


def run_threads(targets: dict[str, Callable[[], None]],
                seconds: float | None, stop: threading.Event) -> None:
    """Run the load threads of one window and wait for them.

    With ``seconds`` the window is closed from here (``stop`` is set
    after that long); with ``None`` the threads end it themselves. An
    exception in a thread is re-raised here, and a thread that outlives
    the window by more than the pool's own 120 s request timeout is an
    error — never a hang.
    """
    errors: list[BaseException] = []

    def guarded(target: Callable[[], None]) -> None:
        try:
            target()
        except BaseException as exc:   # noqa: BLE001 - re-raised below
            errors.append(exc)
            stop.set()

    threads = [threading.Thread(target=guarded, args=(target,), name=name)
               for name, target in targets.items()]
    for thread in threads:
        thread.start()
    if seconds is not None:
        stop.wait(seconds)
        stop.set()
    for thread in threads:
        thread.join(timeout=(seconds or 0.0) + 150.0)
    if errors:
        raise errors[0]
    if any(thread.is_alive() for thread in threads):
        raise TimeoutError("a load thread outlived the window")


# ---------------------------------------------------------------------------
# Failure accounting
# ---------------------------------------------------------------------------


class Tally:
    """Attempted / failed op counts per phase (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.phases: dict[str, dict[str, int]] = {}
        self.reasons: dict[str, int] = {}

    def attempt(self, phase: str, count: int = 1) -> None:
        with self._lock:
            entry = self.phases.setdefault(
                phase, {"attempted": 0, "failed": 0})
            entry["attempted"] += count

    def fail(self, phase: str, reason: str, count: int = 1) -> None:
        with self._lock:
            entry = self.phases.setdefault(
                phase, {"attempted": 0, "failed": 0})
            entry["failed"] += count
            self.reasons[reason] = self.reasons.get(reason, 0) + count

    @property
    def attempted(self) -> int:
        return sum(entry["attempted"] for entry in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(entry["failed"] for entry in self.phases.values())

    def as_record(self) -> dict[str, Any]:
        phases = {
            name: {**entry,
                   "succeeded": entry["attempted"] - entry["failed"]}
            for name, entry in sorted(self.phases.items())}
        return {"attempted": self.attempted, "failed": self.failed,
                "succeeded": self.attempted - self.failed,
                "phases": phases, "reasons": dict(sorted(
                    self.reasons.items()))}


def failure_reason(exc: BaseException) -> str:
    """Class a failed op the way the ledger counts them."""
    name = type(exc).__name__
    if name in ("TransportTimeout", "TimeoutError"):
        return "timeout"
    if name == "Overloaded":
        return "overloaded"
    return f"error:{name}"


# ---------------------------------------------------------------------------
# Answer digests (cheap, order-independent, comparable across the wire)
# ---------------------------------------------------------------------------


def lineage_digest(result: Any) -> tuple:
    """Digest of a ``repro.query.ops.Lineage`` (domain object)."""
    vertices = result.vertices
    return (result.root, len(vertices), sum(vertices), len(result.levels))


def blame_digest(report: dict[int, set[int]]) -> tuple:
    return tuple(sorted((agent, len(owned), sum(owned))
                        for agent, owned in report.items()))


def segment_digest(vertices: Iterable[int], edge_ids: Iterable[int]) -> tuple:
    vertices = list(vertices)
    edge_ids = list(edge_ids)
    return (len(vertices), sum(vertices), len(edge_ids), sum(edge_ids))


def segment_wire_digest(payload: dict[str, Any]) -> tuple:
    """Digest of a ``segment_to_wire`` payload (graph-free client side)."""
    return segment_digest(payload["vertices"], payload["edge_ids"])


def rows_digest(rows: Any) -> tuple:
    """Digest of cypher rows in wire form (lists/dicts of JSON values)."""
    return (len(rows), repr(rows))


def answer_digest(method: str, answer: Any) -> tuple:
    """Digest of a graph-free ``FrontendClient`` answer."""
    if method in ("lineage", "impacted"):
        return lineage_digest(answer)
    if method == "blame":
        return blame_digest(answer)
    if method == "segment":
        return segment_wire_digest(answer)
    return rows_digest(answer)


# ---------------------------------------------------------------------------
# Serving topology
# ---------------------------------------------------------------------------


def serve_config(traced: bool):
    """The one served topology: defaults plus 2 workers and the front-end.

    Socket transport, wire v2, checkpoint bootstrap, footprint cache,
    one shard — none of the halves ROADMAP item 2 plans to delete. The
    traced run only switches the program's own four-hop tracing on.
    """
    from repro.serve.api import ServeConfig

    tracing = {"trace_sample": 1.0, "trace_ring": TRACE_RING} \
        if traced else {}
    return ServeConfig(replicas=2, out_of_process=True, frontend=True,
                       **tracing)


def worker_pids(cluster: Any) -> list[int]:
    return [client.proc.pid for client in cluster.replicas
            if client.proc is not None]


def frontend_client(cluster: Any, name: str):
    """A graph-free blocking client (segment/cypher stay in wire form)."""
    from repro.serve.frontend import FrontendClient

    return FrontendClient(cluster.frontend.address, client=name,
                          timeout=OP_TIMEOUT_S)


def close_quietly(*closables: Any) -> None:
    for closable in closables:
        if closable is None:
            continue
        try:
            closable.close()
        except Exception:   # noqa: BLE001 - teardown must reach the rest
            pass


def prepare_scratch() -> Path:
    """Create the scratch dir and point ``tempfile`` (ours and the
    workers') at it, so nothing is written outside the checkout."""
    import tempfile

    SCRATCH_DIR.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(SCRATCH_DIR)
    tempfile.tempdir = None
    return SCRATCH_DIR


def remove_scratch() -> None:
    shutil.rmtree(SCRATCH_DIR, ignore_errors=True)


def stray_workers() -> list[int]:
    """Pids of ``serve-worker`` processes whose parent is this process."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read()
        except OSError:
            continue
        if int(fields[1]) == me and b"serve-worker" in cmdline \
                and fields[0] != "Z":
            found.append(int(entry))
    return found


# ---------------------------------------------------------------------------
# Seeded input helpers
# ---------------------------------------------------------------------------


def entity_at(entities: list[int], mark: float) -> int:
    """The entity at creation-order fraction ``mark`` (its ancestry mark)."""
    return entities[min(len(entities) - 1, int(len(entities) * mark))]


def entity_near(entities: list[int], rng: random.Random, mark: float,
                jitter: float,
                accept: Callable[[int], bool] = lambda entity: True) -> int:
    """A seeded entity within ``mark ± jitter`` that ``accept`` passes.

    An entity's ancestry is ~0.72 × its mark of the graph, tightly, with
    rare exceptions (an output of an activity that only used old
    inputs); ``accept`` lets a caller reject those so a tile's cost does
    not depend on the seed.
    """
    for _ in range(64):
        entity = entity_at(entities, mark + rng.uniform(-jitter, jitter))
        if accept(entity):
            return entity
    raise ValueError(f"no acceptable entity near mark {mark}")


def jittered_marks(rng: random.Random, low: float, high: float,
                   count: int) -> list[float]:
    """``count`` marks, one drawn uniformly inside each equal stratum of
    ``[low, high)`` — every seed covers the band evenly, so a run's cost
    does not hinge on where a few unlucky draws landed."""
    width = (high - low) / count
    return [low + (index + rng.random()) * width for index in range(count)]
