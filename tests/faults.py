"""Shared fault-injection helpers for the serving test suites.

The replication, cache-retention, and sharded differential suites all
drive the same failure machinery — worker crashes, leader-log
truncation, unreadable checkpoints, transport poisoning, suspended
shipping. These helpers are
the one copy of each injection, so every suite kills a worker (or
starves a feed) the same way and new suites don't re-derive the
incantations.

The injections are synchronous and deterministic: they inject the fault
and return; observing the recovery (restart counters, re-sync counts,
bit-identical answers) is the calling test's job. Every worker fault
accepts a client of either spawn mode (a worker process, or an
in-process worker behind its in-memory link). Two helpers the suites
share live here too: ``open_fds`` (leak checks) and ``join_or_dump``
(bounded joins that fail with every thread's stack).
"""

from __future__ import annotations

import os
import sys
import threading
import time
import traceback
from contextlib import contextmanager


def kill_worker(client) -> None:
    """Kill a worker outright and reap it.

    A worker process gets SIGKILL; an in-process worker has the worker
    end of its link closed, which is what SIGKILL does to the socket.
    The next interaction through the client (catch-up, query, ping
    sweep) observes the death and drives the pool's restart + re-sync
    path. Accepts a :class:`repro.serve.pool.WorkerClient`.
    """
    if client.proc is None:
        client.transport.peer.close()
        return
    client.proc.kill()
    client.proc.wait()


def truncate_log(store, capacity: int):
    """Shrink a store's delta log so the next burst evicts history.

    Replicas (or sharded feed drains) whose cursor falls off the
    retained window must degrade to a full re-sync, never to a stale
    strong read. Returns the log for follow-up assertions
    (``log.truncated``).
    """
    store.delta_log.capacity = capacity
    return store.delta_log


def break_checkpoint(pool) -> None:
    """Empty the checkpoint file the pool's next bootstrap will name.

    The worker's load then fails and it answers ``checkpoint-failed``;
    the pool must capture a fresh checkpoint once and load that on the
    same stream (no restart). Call it *after* the writes under test: a
    checkpoint past the log's truncation horizon or refresh bound is
    recaptured, which would replace the broken file. Accepts a
    :class:`repro.serve.pool.WorkerPool`.
    """
    pool.log.checkpoint().path.write_bytes(b"")


def poison_transport(client) -> None:
    """Mark a worker's transport mid-frame-poisoned.

    Every subsequent ``send``/``recv`` raises ``TransportClosed`` —
    the same stream-desync state a timeout striking mid-frame leaves
    behind — so the pool takes the crash-restart path without the
    worker actually dying. The abandoned worker is reaped by the
    restart.
    """
    client.transport._poisoned = True


@contextmanager
def delay_ship(target, method: str = "refresh"):
    """Suspend one eager-shipping method so lag accumulates (lag skew).

    Replaces ``target.<method>`` with a no-op returning ``0`` for the
    duration of the block, then restores it. Typical injections:

    - ``delay_ship(cluster)`` — suspend ``ProvCluster.refresh`` so
      replicas only heal on the read path;
    - ``delay_ship(sharded, "_drain")`` — freeze a
      ``ShardedCluster``'s feeds at their current epochs, so relaxed
      (``min_epoch=0``) reads observe genuinely skewed per-shard
      state while the leader keeps writing.

    Strict reads through a *router* still catch up on the read path
    (only the named method is suspended); freezing the catch-up path
    itself (e.g. ``method="ship"`` on a pool) makes strict stamps
    unsatisfiable by design — use only with relaxed reads.
    """
    original = getattr(target, method)
    setattr(target, method, lambda *args, **kwargs: 0)
    try:
        yield target
    finally:
        setattr(target, method, original)


def open_fds() -> int:
    """File descriptors this process holds right now (leak checks compare
    two readings taken after ``gc.collect()``)."""
    return len(os.listdir("/proc/self/fd"))


def join_or_dump(threads, timeout: float) -> None:
    """Join ``threads`` within ``timeout`` seconds in total, or fail with
    every live thread's stack — a deadlock must fail the test, never
    hang the job."""
    deadline = time.monotonic() + timeout
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    stuck = [thread.name for thread in threads if thread.is_alive()]
    if stuck:
        frames = sys._current_frames()
        dump = "\n".join(
            f"--- {thread.name}\n"
            + "".join(traceback.format_stack(frames[thread.ident]))
            for thread in threading.enumerate() if thread.ident in frames)
        raise AssertionError(
            f"threads still running after {timeout}s: {stuck}\n{dump}")
