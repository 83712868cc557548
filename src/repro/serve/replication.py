"""Leader-side replication over the store's delta log.

The store already commits one atomic, epoch-tagged
:class:`~repro.store.delta.DeltaBatch` per mutation (PR 2); this module
turns that log into a replication stream with **one state-transfer
format** for every follower:

- :class:`ReplicationLog` — the leader-side publisher. ``checkpoint()``
  maintains the binary snapshot file (:mod:`repro.store.checkpoint`) a
  follower loads its state from; ``ship_binary_since(epoch)`` emits the
  ``repro-wire-v2`` binary batch payloads covering ``(epoch,
  leader_epoch]``, or ``None`` when the bounded log has truncated the
  span — the follower must bootstrap again, never partially replay (the
  same contract
  :meth:`GraphSnapshot.advance <repro.store.snapshot.GraphSnapshot.advance>`
  obeys). ``bootstrap(load)`` is the one fault policy around the two: a
  checkpoint the follower cannot load, or a log that truncated between
  capture and ship, is dropped and captured fresh once; a second failure
  raises :class:`~repro.errors.ReplicaUnavailable`.

The one follower is :class:`~repro.serve.worker.ReplicaWorker`, spawned
and fed by :class:`~repro.serve.pool.WorkerPool` — as a process or in the
leader's own process, with the same inputs either way.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.errors import ReplicaUnavailable
from repro.serve.wire import encode_batch_binary
from repro.store.checkpoint import Checkpoint, CheckpointManager
from repro.store.store import PropertyGraphStore


class ReplicationLog:
    """Leader-side publisher of the delta-log replication stream.

    Stateless over the leader store: followers track their own replayed
    epoch and ask for the span they are missing, so one publisher serves
    any number of replicas.

    Args:
        source: the leader — a :class:`PropertyGraphStore` or anything
            exposing ``.store`` (a :class:`ProvenanceGraph`, a session's
            graph).
    """

    #: Tail length (delta records, not batches) past which an existing
    #: checkpoint is refreshed instead of reused: shipping a very long
    #: tail on top of an old checkpoint costs more than recapturing, and
    #: a bounded refresh keeps checkpoints "periodic" without a timer.
    CHECKPOINT_REFRESH_RECORDS = 1024

    def __init__(self, source):
        self.store: PropertyGraphStore = getattr(source, "store", source)
        self._checkpoints = CheckpointManager()
        #: Guards the checkpoint memo: followers bootstrap on any thread.
        self._lock = threading.Lock()

    @property
    def epoch(self) -> int:
        """The leader's current mutation epoch."""
        return self.store.epoch

    def ship_binary_since(self, epoch: int) -> list[bytes] | None:
        """Binary batch payloads covering ``(epoch, leader_epoch]``.

        Returns ``None`` when the span is no longer fully retained by the
        leader's bounded delta log — the follower must bootstrap again
        (partial replay is never allowed). Every follower is shipped these
        (:func:`repro.serve.wire.encode_batch_binary`).
        """
        batches = self.store.delta_log.batches_since(epoch)
        if batches is None or (batches and batches[0].epoch != epoch + 1):
            return None
        return [encode_batch_binary(batch, self.store) for batch in batches]

    # ------------------------------------------------------------------
    # Checkpoint lifecycle (binary bootstrap snapshots)
    # ------------------------------------------------------------------

    def checkpoint(self) -> Checkpoint:
        """The checkpoint a follower should bootstrap from right now.

        The current checkpoint is reused while its tail is still fully
        retained by the delta log and shorter than
        :attr:`CHECKPOINT_REFRESH_RECORDS` (the common path: N replicas
        or a restart share one file + a short tail). Otherwise — none
        yet, a long tail, or a checkpoint that predates the log's
        truncation horizon — one is captured at the current epoch,
        replacing the old file; its tail is empty, so that bootstrap is
        checkpoint-only.
        """
        with self._lock:
            latest = self._checkpoints.latest
            if latest is not None:
                # None: the tail fell off the log's truncation horizon.
                tail = self.store.delta_log.record_count_since(latest.epoch)
                if tail is not None \
                        and tail <= self.CHECKPOINT_REFRESH_RECORDS:
                    return latest
            return self._checkpoints.capture(self.store)

    def bootstrap(self, load: Callable[[Checkpoint, list[bytes]], bool],
                  ) -> tuple[Checkpoint, list[bytes], bool]:
        """Bring one follower to the leader: checkpoint + binary tail.

        ``load(checkpoint, tail)`` is the follower's load step: load the
        file, apply the tail, and return ``False`` — with nothing
        half-applied — when the file cannot be loaded. The one fault
        policy every follower shares: when the load fails, or the log
        truncated past the checkpoint between capture and ship, the
        checkpoint is dropped and one fresh capture is tried.

        Returns ``(checkpoint, tail, recaptured)``. The follower's cursor
        is ``checkpoint.epoch + len(tail)``, not the leader epoch by the
        time the load finished: a write landing after the tail was read
        belongs to the next ship.

        Raises:
            ReplicaUnavailable: the fresh capture could not be loaded
                either.
        """
        for recaptured in (False, True):
            ckpt = self.checkpoint()
            tail = self.ship_binary_since(ckpt.epoch)
            if tail is not None and load(ckpt, tail):
                return ckpt, tail, recaptured
            with self._lock:
                if self._checkpoints.latest == ckpt:
                    self._checkpoints.invalidate()
        raise ReplicaUnavailable(
            f"follower could not load a fresh checkpoint at epoch "
            f"{ckpt.epoch}")

    def close(self) -> None:
        """Delete the checkpoint directory; a closed log captures no
        more. Idempotent."""
        with self._lock:
            self._checkpoints.close()
