"""Framed JSON-lines transport over stream sockets.

The wire frames (:mod:`repro.serve.wire`) are one JSON object per line;
this module moves those lines across a process boundary. The one duplex
carrier is a connected stream socket (:meth:`LineTransport.over_socket`):
the pool listens on loopback and workers connect back, and front-end
client sessions arrive the same way.

Framing is newline-delimited UTF-8 JSON: JSON string escaping guarantees
no frame contains a raw newline, so ``\\n`` is an unambiguous frame
boundary and the same bytes work as a capture/replay log. Reads run over
the raw file descriptors with :func:`select.select` so health checks can
bound their wait (POSIX semantics; the repo targets linux).

Failure mapping — the part the serving layer builds on:

- peer gone (EOF, ``EPIPE``, ``ECONNRESET``) ->
  :class:`~repro.errors.TransportClosed`;
- deadline expired -> :class:`~repro.errors.TransportTimeout`;
- undecodable frame -> :class:`~repro.errors.SerializationError` (a codec
  bug, never retried).

A timeout that strikes **mid-frame** (partial bytes already buffered)
additionally poisons the transport: the stream position is inside a
frame, so any further read would splice the tail of the abandoned frame
onto the next one. A poisoned transport refuses every subsequent
``send``/``recv`` with :class:`~repro.errors.TransportClosed`, which the
pool already treats as "restart + re-sync the worker" — the same crash
path a real peer death takes. A timeout that strikes on a clean frame
boundary leaves the transport reusable (the in-flight answer is simply
late, not torn).

:class:`BinaryTransport` is the ``repro-wire-v2`` framing every worker
stream runs after its handshake: ``[u32 big-endian length][payload]``
instead of newline delimiters. A payload starting with ``{`` is a UTF-8
JSON frame; any other leading byte is a binary codec tag resolved through
:func:`register_frame_decoder` (populated by :mod:`repro.serve.wire` for
the two hot frame families — shipped delta batches and response
bundles). ``recv`` always returns the same frame dict either way, so
everything above the transport is framing-agnostic. ``send`` packs the
frame kinds registered through :func:`register_frame_packer` the same
way. The failure mapping,
mid-frame poisoning, and close-sweep contract are identical to
:class:`LineTransport`; both sides switch framing on the same file
descriptors after the hello/welcome capability exchange
(:meth:`BinaryTransport.adopt`).

:class:`MemoryTransport` keeps :class:`BinaryTransport`'s contract with
no socket, no thread and no fd: it is the link to a worker that runs in
the pool's own process (``ServeConfig(out_of_process=False)``). Frames
cross it as the dicts ``recv`` would have returned.
"""

from __future__ import annotations

import json
import os
import select
import socket
import struct
import sys
import time
import traceback
from collections import deque
from typing import Any, BinaryIO, Callable

from repro.errors import SerializationError, TransportClosed, TransportTimeout

#: Read chunk size; frames are typically far smaller, sync payloads larger.
_CHUNK = 1 << 16

#: Kernel buffer size requested for serving sockets. Bundle frames
#: (batched requests/responses) run to hundreds of KB; with the default
#: ~16KB TCP buffers every buffer-full block inside one frame costs a
#: scheduler handoff between leader and worker — multi-millisecond on a
#: busy single core — so buffers are sized to pass a typical bundle in
#: one write.
_SOCK_BUFFER = 1 << 20


def _tune_socket(sock: socket.socket) -> None:
    """Serving-socket tuning: large buffers, no Nagle delay.

    Best-effort — AF_UNIX pairs reject TCP options, exotic stacks may
    reject the buffer sizes; the transport works untuned, just slower on
    large frames.
    """
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, _SOCK_BUFFER)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, _SOCK_BUFFER)
    except OSError:   # pragma: no cover - platform-dependent
        pass
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass          # not TCP (e.g. a socketpair test transport)


class LineTransport:
    """One duplex newline-framed JSON channel.

    Args:
        reader: binary file-like the peer writes to (must have
            ``fileno()``/``readinto`` semantics; only ``fileno`` is used).
        writer: binary file-like we write frames to (``write`` + ``flush``).
        on_close: extra callables invoked once on :meth:`close` (the
            socket shutdown sweep).

    Not thread-safe: one transport belongs to one request loop. The worker
    pool gives every worker its own transport, which is what makes
    per-worker client threads safe in the benchmark's fan-out mode.
    """

    def __init__(self, reader: BinaryIO, writer: BinaryIO,
                 on_close: tuple[Callable[[], None], ...] = ()):
        self._reader = reader
        self._writer = writer
        self._on_close = on_close
        self._buffer = bytearray()
        self._closed = False
        self._poisoned = False

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def over_socket(cls, sock: socket.socket) -> "LineTransport":
        """Frame over a connected stream socket (both directions).

        The ``makefile`` wrappers hold io-refs on the socket: closing the
        socket alone leaves the fd open until both wrappers die, so the
        close hook sweeps **all three** — wrappers first, then the socket
        — and pool restart loops cannot leak fds (pinned by
        ``tests/test_serve_pool.py::TestTransportFds``).
        """
        _tune_socket(sock)
        reader = sock.makefile("rb", buffering=0)
        writer = sock.makefile("wb", buffering=0)

        def _shutdown() -> None:
            for resource in (writer, reader, sock):
                try:
                    resource.close()
                except (OSError, ValueError):   # pragma: no cover -
                    pass                        # close is best-effort

        return cls(reader, writer, on_close=(_shutdown,))

    # ------------------------------------------------------------------
    # Framing
    # ------------------------------------------------------------------

    def send(self, frame: dict[str, Any],
             timeout: float | None = None) -> None:
        """Write one frame (a JSON-able dict) and flush it to the peer."""
        line = json.dumps(frame, sort_keys=True).encode("utf-8") + b"\n"
        self.send_raw(line, timeout=timeout)

    def send_text(self, line: str, timeout: float | None = None) -> None:
        """Write one pre-encoded JSON line."""
        self.send_raw(line.encode("utf-8") + b"\n", timeout=timeout)

    @property
    def poisoned(self) -> bool:
        """True once a timeout tore a frame mid-read (stream unusable)."""
        return self._poisoned

    def send_raw(self, data: bytes,
                 timeout: float | None = None) -> None:
        """Write framed bytes; the caller guarantees trailing newlines.

        With a ``timeout``, each write is gated on writability so a peer
        that stopped draining (e.g. a worker itself blocked writing a
        large response nobody reads — the classic duplex write-write
        deadlock) surfaces as :class:`~repro.errors.TransportTimeout`
        instead of blocking forever; the pool treats that like a crash.
        Without one the call may block indefinitely (bootstrap sync
        payloads, where the worker is known to be reading).
        """
        if self._closed:
            raise TransportClosed("transport is closed")
        if self._poisoned:
            raise TransportClosed(
                "transport poisoned by a mid-frame timeout")
        # Writes go through the raw fd (symmetric with _fill's os.read):
        # partial writes keep the newline framing intact because we loop
        # until every byte is on the wire, and select can gate each step.
        fd = self._writer.fileno()
        deadline = None if timeout is None else time.monotonic() + timeout
        view = memoryview(data)
        try:
            while view:
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not select.select(
                            [], [fd], [], remaining)[1]:
                        if len(view) != len(data):
                            # Partial frame already on the wire: the
                            # outbound stream is desynced, poison it.
                            self._poisoned = True
                        raise TransportTimeout(
                            "framed write deadline expired")
                written = os.write(fd, view)
                view = view[written:]
        except (BrokenPipeError, ConnectionResetError, ValueError,
                OSError) as exc:
            raise TransportClosed(f"peer hung up mid-send: {exc}") from exc

    def recv(self, timeout: float | None = None) -> dict[str, Any]:
        """Read one frame; block up to ``timeout`` seconds (None = forever).

        Raises:
            TransportClosed: the peer hung up (EOF/reset) before a full
                frame arrived.
            TransportTimeout: the deadline expired first. If partial
                frame bytes were already buffered, the transport is
                poisoned: a later read would splice the abandoned
                frame's tail onto the next frame, so every subsequent
                ``send``/``recv`` raises ``TransportClosed`` instead.
            SerializationError: the line was not a JSON object.
        """
        if self._poisoned:
            raise TransportClosed(
                "transport poisoned by a mid-frame timeout")
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line = bytes(self._buffer[:newline])
                del self._buffer[:newline + 1]
                return self._parse(line)
            try:
                self._fill(deadline)
            except TransportTimeout:
                if self._buffer:
                    # Mid-frame: the next byte on the stream belongs to
                    # the frame this caller just abandoned.
                    self._poisoned = True
                raise

    def _fill(self, deadline: float | None) -> None:
        """Pull more bytes into the buffer, honoring the deadline."""
        if self._closed:
            raise TransportClosed("transport is closed")
        fd = self._reader.fileno()
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportTimeout("framed read deadline expired")
            # Plain select: one syscall per wait, no selector object per
            # 64KB chunk on the serving hot path (timed reads are the
            # default for every pool request).
            readable, _, _ = select.select([fd], [], [], remaining)
            if not readable:
                raise TransportTimeout("framed read deadline expired")
        try:
            chunk = os.read(fd, _CHUNK)
        except (ConnectionResetError, OSError) as exc:
            raise TransportClosed(f"peer hung up mid-recv: {exc}") from exc
        if not chunk:
            raise TransportClosed("peer closed the stream (EOF)")
        self._buffer.extend(chunk)

    @staticmethod
    def _parse(line: bytes) -> dict[str, Any]:
        try:
            frame = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SerializationError(f"invalid frame line: {exc}") from exc
        if not isinstance(frame, dict):
            raise SerializationError(
                f"frame is not a JSON object: {frame!r}"
            )
        return frame

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close both directions (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for stream in (self._writer, self._reader):
            try:
                stream.close()
            except (OSError, ValueError):   # pragma: no cover - best-effort
                pass
        for hook in self._on_close:
            hook()

    def __enter__(self) -> "LineTransport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Length-prefixed binary framing (repro-wire-v2)
# ---------------------------------------------------------------------------

#: Binary-payload decoders by tag byte. A decoder takes the full payload
#: (tag byte included) and returns the equivalent JSON frame dict.
_FRAME_DECODERS: dict[int, Callable[[bytes], dict[str, Any]]] = {}


def register_frame_decoder(tag: int,
                           decoder: Callable[[bytes], dict[str, Any]],
                           ) -> None:
    """Register a binary-payload decoder for frames starting with ``tag``.

    ``tag`` must not collide with ``{`` (0x7B), which dispatches to the
    JSON path. :mod:`repro.serve.wire` registers its codecs at import
    time, so any process that speaks the protocol can decode them.
    """
    if tag == 0x7B:
        raise ValueError("tag 0x7B is reserved for JSON payloads")
    _FRAME_DECODERS[tag] = decoder


#: Binary packers by frame kind: :meth:`BinaryTransport.send` ships a
#: frame of a registered kind as ``packer(frame)`` instead of JSON.
_FRAME_PACKERS: dict[str, Callable[[dict[str, Any]], bytes]] = {}


def register_frame_packer(kind: str,
                          packer: Callable[[dict[str, Any]], bytes]) -> None:
    """Register the binary packer for frames of ``kind``; its payload must
    start with a tag registered through :func:`register_frame_decoder`."""
    _FRAME_PACKERS[kind] = packer


class BinaryTransport(LineTransport):
    """Length-prefixed framing over the :class:`LineTransport` machinery.

    Wire layout per frame: 4-byte big-endian payload length, then the
    payload. Construction, fd handling, timeouts, poisoning, and the
    close sweep are all inherited; only the framing differs. Handshakes
    run line-framed; :meth:`adopt` upgrades an existing line transport
    in place once both peers agreed on ``repro-wire-v2``.
    """

    _HEADER = struct.Struct(">I")

    @classmethod
    def adopt(cls, line: LineTransport) -> "BinaryTransport":
        """Take over a :class:`LineTransport`'s streams and switch framing.

        The original transport is neutered — marked closed with its close
        hooks stripped — so a stray ``close()`` on it cannot tear down the
        file descriptors now owned by the returned transport. Any bytes
        already buffered (a pipelined peer may send its first binary frame
        on the heels of the handshake) carry over.
        """
        upgraded = cls(line._reader, line._writer, on_close=line._on_close)
        upgraded._buffer = line._buffer
        upgraded._poisoned = line._poisoned
        line._on_close = ()
        line._closed = True
        return upgraded

    def send(self, frame: dict[str, Any],
             timeout: float | None = None) -> None:
        """Write one frame with a length prefix: packed binary for a kind
        with a registered packer, JSON otherwise."""
        packer = _FRAME_PACKERS.get(frame.get("kind"))
        payload = packer(frame) if packer is not None \
            else json.dumps(frame, sort_keys=True).encode("utf-8")
        self.send_raw(self._HEADER.pack(len(payload)) + payload,
                      timeout=timeout)

    def send_text(self, line: str, timeout: float | None = None) -> None:
        """Write one pre-encoded JSON payload with a length prefix."""
        payload = line.encode("utf-8")
        self.send_raw(self._HEADER.pack(len(payload)) + payload,
                      timeout=timeout)

    def send_binary(self, payload: bytes,
                    timeout: float | None = None) -> None:
        """Write one pre-packed binary payload (tag byte first)."""
        self.send_raw(self._HEADER.pack(len(payload)) + payload,
                      timeout=timeout)

    def recv(self, timeout: float | None = None) -> dict[str, Any]:
        """Read one length-prefixed frame (same contract as the line mode:
        a deadline striking mid-frame — partial header *or* partial
        payload buffered — poisons the transport)."""
        if self._poisoned:
            raise TransportClosed(
                "transport poisoned by a mid-frame timeout")
        deadline = None if timeout is None else time.monotonic() + timeout
        header = self._HEADER.size
        while True:
            if len(self._buffer) >= header:
                (length,) = self._HEADER.unpack_from(self._buffer)
                if len(self._buffer) >= header + length:
                    payload = bytes(self._buffer[header:header + length])
                    del self._buffer[:header + length]
                    return self._decode(payload)
            try:
                self._fill(deadline)
            except TransportTimeout:
                if self._buffer:
                    # Mid-frame: the next byte belongs to the frame this
                    # caller just abandoned.
                    self._poisoned = True
                raise

    @staticmethod
    def _decode(payload: bytes) -> dict[str, Any]:
        if not payload:
            raise SerializationError("empty binary frame")
        if payload[0] == 0x7B:      # "{" — a JSON payload
            return LineTransport._parse(payload)
        decoder = _FRAME_DECODERS.get(payload[0])
        if decoder is None:
            raise SerializationError(
                f"unknown binary frame tag 0x{payload[0]:02x}")
        frame = decoder(payload)
        if not isinstance(frame, dict):    # pragma: no cover - codec bug
            raise SerializationError(
                f"binary decoder returned a non-frame: {frame!r}")
        return frame


class MemoryTransport:
    """One end of an in-memory link to a worker in this process.

    :meth:`connect` builds the worker around its end and returns the
    pool's. A frame sent on the pool end runs ``worker.handle(frame)`` on
    the caller's thread; whatever the worker sends back waits in the pool
    end's inbox until ``recv``. Shipped binary batches are decoded on the
    way in, so the worker always sees frame dicts.

    The failure mapping follows a socket's: a worker that raises (its
    traceback goes to stderr, as a dying process's would) or returns
    ``False`` (diverged, shut down) closes the link and the send raises
    :class:`~repro.errors.TransportClosed`, as a dying process hangs up.
    ``recv`` on an empty inbox raises it too: a synchronous worker that
    owes no answer never will. Timeouts never fire.
    """

    def __init__(self):
        self.peer: MemoryTransport | None = None
        #: The worker this end drives (``None`` on the worker's end).
        self.worker = None
        self.closed = False
        self._poisoned = False
        self._inbox: deque[dict[str, Any]] = deque()

    @classmethod
    def connect(cls, make_worker: Callable[["MemoryTransport"], Any],
                ) -> "MemoryTransport":
        """The pool end of a link to ``make_worker(worker_end)``."""
        pool_end, worker_end = cls(), cls()
        pool_end.peer, worker_end.peer = worker_end, pool_end
        pool_end.worker = make_worker(worker_end)
        return pool_end

    @property
    def poisoned(self) -> bool:
        return self._poisoned

    def send(self, frame: dict[str, Any],
             timeout: float | None = None) -> None:
        if self._poisoned or self.closed:
            state = "poisoned" if self._poisoned else "closed"
            raise TransportClosed(f"in-memory link is {state}")
        if self.worker is None:
            self.peer._inbox.append(frame)
            return
        try:
            alive = self.worker.handle(frame)
        except Exception as exc:
            traceback.print_exception(exc, file=sys.stderr)
            self.close()
            raise TransportClosed(f"worker failed: {exc!r}") from exc
        if not alive:
            self.close()
            raise TransportClosed("worker exited")

    def send_binary(self, payload: bytes,
                    timeout: float | None = None) -> None:
        self.send(BinaryTransport._decode(payload), timeout)

    def recv(self, timeout: float | None = None) -> dict[str, Any]:
        if self._poisoned:
            raise TransportClosed("in-memory link is poisoned")
        if not self._inbox:
            raise TransportClosed("no frame pending on the in-memory link")
        return self._inbox.popleft()

    def close(self) -> None:
        """Close both ends (idempotent)."""
        self.closed = self.peer.closed = True
