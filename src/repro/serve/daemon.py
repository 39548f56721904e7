"""The asyncio heartbeat daemon: ``repro serve``'s network front end.

One :class:`ServeDaemon` owns one :class:`~repro.serve.engine.ServeEngine`
and exposes it over a TCP or UNIX-domain socket speaking the NDJSON
protocol of :mod:`repro.serve.protocol`.  Message handling is synchronous
on the event loop — the same single-decision-lock concurrency model as
the real JobTracker's RPC handler — so connections interleave at the
granularity of one received chunk and the engine never needs a lock.

Framing: each connection is an :class:`asyncio.Protocol`.  Every complete
line of a received chunk is decoded, handled and encoded in one pass, and
the chunk's replies leave in one write.  Flow control has one point: when
a connection's unsent replies pass the transport's high-water mark (a
client that does not read), the daemon stops reading that connection
until they drain.

Clock: the daemon anchors the engine's simulation clock to the event
loop's monotonic clock at start, scaled by ``time_scale`` simulated
seconds per wall second, and stamps each message with it.  The clock
moves only on messages: a control interval fires when a message carries
the clock past its deadline (missed ones fire in order on the next
message after an idle spell).  ``time_scale=1`` serves in real time (a
control interval is the paper's 300 s); tests and benchmarks crank it up
so pheromone updates fire within seconds.

Shutdown: SIGINT/SIGTERM (via :meth:`install_signal_handlers`), a client
``{"type": "shutdown"}`` message, or :meth:`request_stop` all trigger the
same graceful sequence — stop accepting, flush buffered replies, close
client sockets (aborting any that cannot take their replies within
:data:`CLOSE_GRACE_S`), and snapshot final stats.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
from typing import Any, Dict, List, Optional, Set

from .engine import ServeEngine
from .protocol import MAX_LINE_BYTES, decode, encode

__all__ = ["ServeDaemon"]

#: Wall seconds a stopping daemon waits for clients to take their
#: buffered replies before it aborts their connections.
CLOSE_GRACE_S = 1.0


class ServeDaemon:
    """Serve one engine over a socket until told to stop.

    Parameters
    ----------
    engine:
        The message-driven scheduler host.  If it trusts wire clocks
        (``trust_wire_now=True``; replay and parity harnesses) message
        timestamps drive the sim clock; otherwise the daemon stamps every
        message with its scaled wall clock.
    host, port:
        TCP endpoint (``port=0`` picks a free port, exposed as
        :attr:`address` after :meth:`start`).
    path:
        UNIX-domain socket path; mutually exclusive with host/port.
    time_scale:
        Simulated seconds per wall-clock second (default 1.0).
    """

    def __init__(
        self,
        engine: ServeEngine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        path: Optional[str] = None,
        time_scale: float = 1.0,
    ) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.engine = engine
        self.host = host
        self.port = port
        self.path = path
        self.time_scale = time_scale
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_Connection] = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._t0 = 0.0
        self.final_stats: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------ clock
    def _now(self) -> float:
        return (self._loop.time() - self._t0) * self.time_scale

    @property
    def address(self) -> str:
        """The bound endpoint (``host:port`` or the socket path)."""
        if self.path is not None:
            return self.path
        if self._server is not None and self._server.sockets:
            host, port = self._server.sockets[0].getsockname()[:2]
            return f"{host}:{port}"
        return f"{self.host}:{self.port}"

    @property
    def bound_port(self) -> int:
        """The actual TCP port after binding (resolves ``port=0``)."""
        if self._server is not None and self._server.sockets and self.path is None:
            return self._server.sockets[0].getsockname()[1]
        return self.port

    # -------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        loop = self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._t0 = loop.time()
        if self.path is not None:
            self._server = await loop.create_unix_server(
                lambda: _Connection(self), path=self.path
            )
        else:
            self._server = await loop.create_server(
                lambda: _Connection(self), host=self.host, port=self.port
            )

    def install_signal_handlers(self) -> None:
        """Route SIGINT/SIGTERM into a graceful stop (POSIX event loops)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(signum, self.request_stop)

    def request_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    async def wait_stopped(self) -> Dict[str, Any]:
        """Block until a stop is requested, then shut down gracefully.

        Returns the engine's final stats snapshot (also kept on
        :attr:`final_stats`).
        """
        assert self._stop_event is not None, "start() first"
        await self._stop_event.wait()
        # Stop accepting new connections.  Every message received so far
        # has been answered (handling is synchronous), so what remains is
        # flushing buffered replies: close each connection, which flushes
        # first, and abort those whose client is not reading.
        assert self._server is not None
        self._server.close()
        closing = list(self._connections)
        for connection in closing:
            connection.transport.close()
        if closing:
            await asyncio.wait([c.closed for c in closing], timeout=CLOSE_GRACE_S)
        for connection in list(self._connections):
            connection.transport.abort()
        await self._server.wait_closed()
        self.final_stats = self.engine.shutdown()
        return self.final_stats

    async def run(self, *, install_signals: bool = False) -> Dict[str, Any]:
        """Start, optionally install signal handlers, and serve until stopped."""
        await self.start()
        if install_signals:
            self.install_signal_handlers()
        return await self.wait_stopped()


class _Connection(asyncio.Protocol):
    """One client connection: NDJSON lines in, one reply line per message out."""

    def __init__(self, daemon: ServeDaemon) -> None:
        self.daemon = daemon
        self.transport: Optional[asyncio.Transport] = None
        #: Resolved when the connection is gone (``wait_stopped`` awaits it).
        self.closed = daemon._loop.create_future()
        self._buffer = b""

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        self.daemon._connections.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.daemon._connections.discard(self)
        self.closed.set_result(None)

    # The transport calls these around its write high-water mark: a client
    # that stops reading its replies stops being read.
    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def data_received(self, data: bytes) -> None:
        if self._buffer:
            data = self._buffer + data
        lines = data.split(b"\n")
        self._buffer = lines.pop()
        if len(self._buffer) > MAX_LINE_BYTES:
            # Answered as over-limit after the complete lines before it.
            lines.append(self._buffer)
            self._buffer = b""
        self._answer(lines)

    def eof_received(self) -> None:
        # A last line without its newline is still a message.  Returning
        # None closes the transport once the replies are flushed.
        if self._buffer:
            self._answer([self._buffer])
            self._buffer = b""

    def _answer(self, lines: List[bytes]) -> None:
        """Decode, handle and encode ``lines`` in order; write the replies once."""
        daemon = self.daemon
        engine = daemon.engine
        stamp_clock = not engine.trust_wire_now
        replies = []
        close = False
        for line in lines:
            if len(line) > MAX_LINE_BYTES:
                replies.append(encode({"type": "error", "message": "line too long"}))
                close = True
                break
            line = line.strip()
            if not line:
                continue
            try:
                message = decode(line)
            except ValueError as exc:  # WireError is a ValueError
                replies.append(encode({"type": "error", "message": str(exc)}))
                continue
            if message.get("type") == "shutdown":
                reply = {"type": "stats", **engine.stats()}
                if "seq" in message:
                    reply["seq"] = message["seq"]
                replies.append(encode(reply))
                daemon.request_stop()
                close = True
                break
            now = daemon._now() if stamp_clock else None
            replies.append(encode(engine.handle(message, now=now)))
        if replies:
            self.transport.write(b"".join(replies))
        if close:
            self.transport.close()
