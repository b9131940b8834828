"""A single-threaded HTTP/1.1 keep-alive client for open and closed loops.

One process, at most two connections, no threads: a ``selectors`` loop
writes pre-encoded requests and parses ``Content-Length`` framed
responses.  The loop busy-polls and never sleeps: on a virtual machine a
sleeping client wakes up late, by milliseconds when the host is busy,
and that lateness would be charged to the server.  The daemon refuses pipelined requests, so each connection
carries one request at a time; an open loop that finds both connections
busy holds due requests in a client-side queue and still times each one
from when it was due.
"""

from __future__ import annotations

import gc
import selectors
import socket
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Sequence



def post(path: str, body: bytes) -> bytes:
    return (
        b"POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n" % (path.encode("ascii"), len(body))
    ) + body


def get(path: str) -> bytes:
    return b"GET %s HTTP/1.1\r\nHost: bench\r\n\r\n" % path.encode("ascii")


@dataclass
class Exchange:
    """One request's life: when it was due, sent and answered."""

    request_id: int
    kind: int  # index into the caller's request list
    due: float
    issued: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to the full response."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """Seconds the generator itself ran late in issuing this request.

        Waiting for a free connection is not lag: that is the server's
        backlog, and it is already in :attr:`latency`.
        """
        return self.issued - self.due


@dataclass
class _Conn:
    sock: socket.socket
    inflight: deque = field(default_factory=deque)
    outbuf: bytearray = field(default_factory=bytearray)
    inbuf: bytearray = field(default_factory=bytearray)
    closed: bool = False

    def parse(self) -> list[tuple[int, bytes]]:
        """Complete responses at the front of the input buffer."""
        out = []
        buf = self.inbuf
        while True:
            end = buf.find(b"\r\n\r\n")
            if end < 0:
                return out
            head = bytes(buf[:end]).decode("latin-1").split("\r\n")
            status = int(head[0].split(" ", 2)[1])
            length = 0
            for line in head[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            if len(buf) < end + 4 + length:
                return out
            out.append((status, bytes(buf[end + 4 : end + 4 + length])))
            del buf[: end + 4 + length]


def connect(port: int, timeout: float = 5.0) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def request(port: int, raw: bytes, timeout: float = 10.0) -> tuple[int, bytes]:
    """One request on a fresh connection (set-up probes, /stats)."""
    with connect(port, timeout) as sock:
        conn = _Conn(sock)
        sock.sendall(raw)
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            conn.inbuf += chunk
            responses = conn.parse()
            if responses:
                return responses[0]


@contextmanager
def _no_gc_pauses():
    """Keep the client's own collector from stalling the generator.

    Everything alive before the loop is frozen out of collection and
    automatic collection is off while it runs; one collection afterwards
    reclaims the loop's garbage.
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()
        gc.collect()


class Driver:
    """Runs exchanges over ``n_conns`` keep-alive connections to ``port``."""

    def __init__(self, port: int, n_conns: int) -> None:
        self.conns = [_Conn(connect(port)) for _ in range(n_conns)]
        for conn in self.conns:
            conn.sock.setblocking(False)
        self.selector = selectors.DefaultSelector()
        for conn in self.conns:
            self.selector.register(conn.sock, selectors.EVENT_READ, conn)

    def close(self) -> None:
        self.selector.close()
        for conn in self.conns:
            conn.sock.close()

    def __enter__(self) -> "Driver":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- plumbing --------------------------------------------------------
    def _send(self, conn: _Conn, exchange: Exchange, raw: bytes) -> None:
        exchange.sent = time.perf_counter()
        conn.inflight.append(exchange)
        if conn.outbuf:
            conn.outbuf += raw
            return
        try:
            written = conn.sock.send(raw)
        except BlockingIOError:
            written = 0
        if written < len(raw):
            conn.outbuf += raw[written:]
            self.selector.modify(
                conn.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, conn
            )

    def _pump(self, timeout: float) -> list[tuple[_Conn, Exchange]]:
        """Wait up to ``timeout`` for I/O; returns exchanges just completed."""
        finished = []
        for key, events in self.selector.select(timeout):
            conn = key.data
            if events & selectors.EVENT_WRITE and conn.outbuf:
                try:
                    written = conn.sock.send(conn.outbuf)
                except BlockingIOError:
                    written = 0
                del conn.outbuf[:written]
                if not conn.outbuf:
                    self.selector.modify(conn.sock, selectors.EVENT_READ, conn)
            if events & selectors.EVENT_READ:
                try:
                    chunk = conn.sock.recv(1 << 18)
                except BlockingIOError:
                    continue
                now = time.perf_counter()
                if not chunk:
                    conn.closed = True
                    self.selector.unregister(conn.sock)
                    continue
                conn.inbuf += chunk
                for status, body in conn.parse():
                    exchange = conn.inflight.popleft()
                    exchange.done = now
                    exchange.status = status
                    exchange.body = body
                    finished.append((conn, exchange))
        return finished

    def _live(self) -> bool:
        return any(c.inflight and not c.closed for c in self.conns)

    # -- loops -----------------------------------------------------------
    def open_loop(
        self,
        requests: Sequence[bytes],
        rate: float,
        first_id: int = 0,
        drain_s: float = 30.0,
    ) -> list[Exchange]:
        """Issue ``requests[i]`` at ``start + i / rate`` (a fixed schedule).

        Each request is timed from when it was due, so a stall is charged
        to every request scheduled behind it.  Requests still unanswered
        ``drain_s`` after the last one was due stay at status 0.  Due
        requests go to whichever connection is free first.
        """
        with _no_gc_pauses():
            return self._open_loop(requests, rate, first_id, drain_s)

    def _open_loop(
        self, requests: Sequence[bytes], rate: float, first_id: int, drain_s: float
    ) -> list[Exchange]:
        exchanges = []
        pending: deque = deque()
        start = time.perf_counter() + 0.005
        n = len(requests)
        i = 0
        while i < n or pending or self._live():
            now = time.perf_counter()
            while i < n and start + i / rate <= now:
                exchange = Exchange(first_id + i, i, start + i / rate, issued=now)
                exchanges.append(exchange)
                pending.append(exchange)
                i += 1
            for conn in self.conns:
                if pending and not conn.inflight and not conn.closed:
                    exchange = pending.popleft()
                    self._send(conn, exchange, requests[exchange.kind])
            if not self._live():
                if pending:  # every connection is gone
                    break
                if i >= n:
                    break
            if i >= n and time.perf_counter() > start + n / rate + drain_s:
                break
            self._pump(0)
        return exchanges

    def closed_loop(
        self,
        streams: Sequence[Callable[[int], tuple[int, bytes] | None]],
        seconds: float,
        first_id: int = 0,
    ) -> tuple[list[Exchange], list[float]]:
        """Connection ``c`` sends ``streams[c](j)`` as soon as reply ``j-1`` lands.

        ``streams[c](j)`` returns ``(kind, raw request)``, or ``None`` when
        connection ``c`` has nothing left to send.  Returns the exchanges
        and the client turnaround times (reply read to next send), which
        is how late a closed-loop generator runs.
        """
        with _no_gc_pauses():
            return self._closed_loop(streams, seconds, first_id)

    def _closed_loop(
        self,
        streams: Sequence[Callable[[int], tuple[int, bytes] | None]],
        seconds: float,
        first_id: int,
    ) -> tuple[list[Exchange], list[float]]:
        exchanges: list[Exchange] = []
        turnaround: list[float] = []
        counts = [0] * len(self.conns)
        next_id = first_id

        def issue(c: int) -> None:
            nonlocal next_id
            item = streams[c](counts[c])
            if item is None:
                return
            kind, raw = item
            counts[c] += 1
            now = time.perf_counter()
            exchange = Exchange(next_id, kind, now, issued=now)
            next_id += 1
            exchanges.append(exchange)
            self._send(self.conns[c], exchange, raw)

        deadline = time.perf_counter() + seconds
        for c in range(len(self.conns)):
            issue(c)
        while self._live():
            for conn, exchange in self._pump(0):
                if time.perf_counter() < deadline and exchange.status == 200:
                    sent = len(exchanges)
                    issue(self.conns.index(conn))
                    if len(exchanges) > sent:
                        turnaround.append(exchanges[-1].sent - exchange.done)
            if time.perf_counter() > deadline + 30.0:
                break
        return exchanges, turnaround
