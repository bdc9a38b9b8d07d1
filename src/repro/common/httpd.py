"""A small HTTP/1.1 server: one ``selectors`` loop thread for every client.

:class:`HttpListener` serves every connection from one background
thread: non-blocking sockets with a read and a write buffer each, a
hand parser for the request line and headers, and one send per
response (headers and body together).  It speaks the part of HTTP/1.1
its clients use:

* keep-alive and pipelined requests, answered in order; an HTTP/1.0
  request closes the connection unless it asks for keep-alive;
* ``Expect: 100-continue`` gets an interim ``100 Continue``;
* a request is read whole, body included, before it is routed, so a
  kept-alive connection stays in step whatever the answer;
* a head (request line and headers, CRLF-terminated) over 64 KiB gets
  431, a malformed request line or header or a bad ``Content-Length``
  400, a ``Transfer-Encoding`` 411 and a body over
  :data:`MAX_BODY_BYTES` 413 after a bounded drain; each of these
  closes the connection.  Any method but GET or POST gets 501;
* every error body is JSON ``{"error": ...}``.

A router maps ``(method, target, body)`` to ``(code, body, content
type, Retry-After)``.  Routes run on the loop thread, so they must not
block.  A route that raises answers 500; any other failure while
serving one client hangs up that client only.

Two servers use it: ``repro serve``
(:class:`~repro.serve.http.ServeServer`) and the ``--metrics-port``
scrape endpoint (:class:`~repro.obs.metrics.MetricsServer`).  It
imports nothing from the rest of the package.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
import traceback
from http import HTTPStatus
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

#: Request bodies larger than this are rejected with 413.
MAX_BODY_BYTES = 1 << 20

#: A request head (request line, headers and the blank line ending
#: them) larger than this is rejected with 431.
MAX_HEAD_BYTES = 64 * 1024

#: ``(code, body, content type, Retry-After seconds or None)``.
Response = Tuple[int, bytes, str, Optional[float]]

#: ``(method, target, body) -> Response``.
Router = Callable[[str, str, bytes], Response]

_REASONS = {status.value: status.phrase for status in HTTPStatus}
_VERSIONS = (b"HTTP/1.0", b"HTTP/1.1")
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


def json_response(code: int, doc: Any,
                  retry_after: Optional[float] = None) -> Response:
    """``doc`` as the service's JSON encoding (indented, newline)."""
    return (code, (json.dumps(doc, indent=2) + "\n").encode("utf-8"),
            "application/json", retry_after)


def error_response(code: int, message: str,
                   retry_after: Optional[float] = None) -> Response:
    """The ``{"error": message}`` document every error answers with."""
    return json_response(code, {"error": message}, retry_after)


_TOO_LARGE = error_response(413, f"body over {MAX_BODY_BYTES} bytes")


class _BadRequest(Exception):
    """A request head the listener answers itself, then hangs up."""

    def __init__(self, code: int, message: str,
                 method: str = "other") -> None:
        super().__init__(message)
        self.code = code
        self.method = method


class _Request(NamedTuple):
    """One parsed request head, waiting for its body."""

    method: str
    target: str
    length: int
    keep_alive: bool
    expects_continue: bool


def _parse_head(head: bytes) -> _Request:
    """Parse a request line and its headers (``head`` holds no final
    blank line); raises :class:`_BadRequest` for what cannot be read."""
    lines = head.split(b"\r\n")
    parts = lines[0].split(b" ")
    if len(parts) != 3 or not all(parts) or parts[2] not in _VERSIONS:
        raise _BadRequest(400, f"bad request line {lines[0][:200]!r}")
    method, target, version = (part.decode("latin-1") for part in parts)
    fields: Dict[bytes, bytes] = {}
    for line in lines[1:]:
        name, colon, value = line.partition(b":")
        name = name.lower()
        if not colon or not name or name != name.strip():
            raise _BadRequest(400, f"bad header line {line[:200]!r}",
                              method)
        if name in fields and name == b"content-length":
            raise _BadRequest(400, "repeated Content-Length", method)
        fields[name] = value.strip()
    if b"transfer-encoding" in fields:
        raise _BadRequest(411, "send the body with a Content-Length, "
                               "not a Transfer-Encoding", method)
    length = fields.get(b"content-length", b"0")
    # int() refuses a number over 4,300 digits, and no body is 10**18
    # bytes long: a longer Content-Length is as unreadable as "x".
    if not length.isdigit() or len(length) > 18:
        raise _BadRequest(400, "bad Content-Length", method)
    connection = {token.strip() for token
                  in fields.get(b"connection", b"").lower().split(b",")}
    keep_alive = (b"keep-alive" in connection if version == "HTTP/1.0"
                  else b"close" not in connection)
    expects_continue = (version == "HTTP/1.1" and
                        fields.get(b"expect", b"").lower() == b"100-continue")
    return _Request(method, target, int(length), keep_alive,
                    expects_continue)


class _Connection:
    """One client socket and its buffers."""

    __slots__ = ("sock", "rbuf", "scanned", "wbuf", "request", "drain",
                 "events", "closing")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.rbuf = bytearray()
        self.scanned = 0               # rbuf bytes searched for a head's end
        self.wbuf = bytearray()
        self.request: Optional[_Request] = None
        self.drain = 0                 # oversized body bytes left to discard
        self.events = selectors.EVENT_READ
        self.closing = False           # hang up once wbuf is sent


class HttpListener:
    """Serves ``route`` on ``host:port`` from one background thread.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`).
    A connection is read only while its last response is fully sent,
    which bounds both buffers and keeps pipelined answers in order.
    ``requests_total`` (a counter family), when given, is incremented
    once per response, labeled ``{method, code}``.
    """

    #: Socket listen backlog.  The socketserver default (5) resets
    #: connections under a thundering herd of coalescing clients; the
    #: whole point of the service is surviving exactly that.
    request_queue_size = 128

    def __init__(self, route: Router, host: str = "127.0.0.1",
                 port: int = 0, *, name: str = "repro-http",
                 requests_total: Any = None) -> None:
        self._route = route
        self._name = name
        self._requests_total = requests_total
        self._sock = socket.create_server(
            (host, port), backlog=self.request_queue_size)
        self._sock.setblocking(False)
        self.host, self.port = self._sock.getsockname()[:2]
        # close() wakes the loop through this pair.
        self._wake_r, self._wake_w = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._sock, selectors.EVENT_READ)
        self._selector.register(self._wake_r, selectors.EVENT_READ, self)
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "HttpListener":
        self._thread = threading.Thread(target=self._serve, name=self._name,
                                        daemon=True)
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop the loop, hang up every connection, release the port."""
        if self._thread is not None:
            self._wake_w.send(b"\0")
            self._thread.join(timeout=5)
            self._thread = None
        self._selector.close()
        self._sock.close()
        self._wake_r.close()
        self._wake_w.close()

    def __enter__(self) -> "HttpListener":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # The loop
    # ------------------------------------------------------------------ #

    def _serve(self) -> None:
        try:
            while True:
                for key, events in self._selector.select():
                    conn = key.data
                    if conn is self:
                        return
                    try:
                        if conn is None:
                            self._accept()
                        elif events & selectors.EVENT_READ:
                            self._on_readable(conn)
                        else:
                            self._flush(conn)
                            self._serve_buffered(conn)
                    except Exception:
                        # What goes wrong serving one client must not
                        # stop the loop that serves the others.
                        traceback.print_exc()
                        if conn is not None:
                            self._close(conn)
        finally:
            for key in list(self._selector.get_map().values()):
                if isinstance(key.data, _Connection):
                    self._close(key.data)

    def _accept(self) -> None:
        try:
            sock, _ = self._sock.accept()
        except OSError:            # nothing pending, or the client left
            return
        sock.setblocking(False)
        # Interim 100 Continue and a large body's last segment must not
        # wait on the client's delayed ACK (~40 ms).
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._selector.register(sock, selectors.EVENT_READ,
                                _Connection(sock))

    def _on_readable(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:            # reset by the client
            self._close(conn)
            return
        if data:
            if conn.drain:
                discard = min(conn.drain, len(data))
                conn.drain -= discard
                data = data[discard:]
            conn.rbuf += data
            self._serve_buffered(conn)
        elif conn.drain:           # the client stopped short of its body
            conn.drain = 0
            self._reply(conn, conn.request.method, _TOO_LARGE,
                        keep_alive=False)
        else:                      # any partial request is dropped
            self._close(conn)

    def _serve_buffered(self, conn: _Connection) -> None:
        """Answer the complete requests in ``conn``'s read buffer, in
        order, until a response is left unsent or one is missing bytes."""
        while not conn.wbuf and not conn.closing:
            request = conn.request
            if request is None:
                # Resume the search where the last one stopped, so a
                # head sent a byte at a time is scanned once, not once
                # per byte.
                end = conn.rbuf.find(b"\r\n\r\n", conn.scanned,
                                     MAX_HEAD_BYTES)
                if end < 0:
                    if len(conn.rbuf) >= MAX_HEAD_BYTES:
                        self._reply(conn, "other", error_response(
                            431, f"request head over {MAX_HEAD_BYTES} "
                                 f"bytes"), keep_alive=False)
                    else:
                        conn.scanned = max(0, len(conn.rbuf) - 3)
                    return
                try:
                    request = _parse_head(bytes(conn.rbuf[:end]))
                except _BadRequest as exc:
                    self._reply(conn, exc.method,
                                error_response(exc.code, str(exc)),
                                keep_alive=False)
                    return
                del conn.rbuf[:end + 4]
                conn.scanned = 0
                conn.request = request
                if request.length > MAX_BODY_BYTES:
                    # Read (bounded) what the client is writing so it
                    # can see the 413, not a reset, then hang up: the
                    # stream past the cap is unparseable.
                    drain = min(request.length, 8 * MAX_BODY_BYTES)
                    conn.drain = max(0, drain - len(conn.rbuf))
                    conn.rbuf.clear()
                if request.expects_continue and \
                        len(conn.rbuf) < request.length:
                    conn.wbuf += _CONTINUE
                    self._flush(conn)
                    continue
            if request.length > MAX_BODY_BYTES:
                if not conn.drain:
                    self._reply(conn, request.method, _TOO_LARGE,
                                keep_alive=False)
                return
            if len(conn.rbuf) < request.length:
                return
            body = bytes(conn.rbuf[:request.length])
            del conn.rbuf[:request.length]
            conn.request = None
            self._reply(conn, request.method, self._answer(request, body),
                        request.keep_alive)

    def _answer(self, request: _Request, body: bytes) -> Response:
        if request.method not in ("GET", "POST"):
            return error_response(
                501, f"unsupported method {request.method!r}")
        try:
            return self._route(request.method, request.target, body)
        except Exception as exc:   # a failing route must not stop the loop
            traceback.print_exc()
            return error_response(500, f"{type(exc).__name__}: {exc}")

    def _reply(self, conn: _Connection, method: str, response: Response,
               keep_alive: bool) -> None:
        code, body, ctype, retry_after = response
        if self._requests_total is not None:
            self._requests_total.inc(
                method=method if method in ("GET", "POST") else "other",
                code=str(code))
        head = (f"HTTP/1.1 {code} {_REASONS.get(code, '')}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n")
        if retry_after is not None:
            head += f"Retry-After: {max(1, round(retry_after))}\r\n"
        if not keep_alive:
            head += "Connection: close\r\n"
            conn.closing = True
        conn.wbuf += (head + "\r\n").encode("latin-1") + body
        self._flush(conn)

    def _flush(self, conn: _Connection) -> None:
        """Send what ``wbuf`` holds; watch for writability while any is
        left, hang up after the last byte of a closing response."""
        try:
            sent = conn.sock.send(conn.wbuf)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError:            # the client went away
            self._close(conn)
            return
        del conn.wbuf[:sent]
        if conn.wbuf:
            self._watch(conn, selectors.EVENT_WRITE)
        elif conn.closing:
            self._close(conn)
        else:
            self._watch(conn, selectors.EVENT_READ)

    def _watch(self, conn: _Connection, events: int) -> None:
        if conn.events != events:
            self._selector.modify(conn.sock, events, conn)
            conn.events = events

    def _close(self, conn: _Connection) -> None:
        if conn.sock.fileno() < 0:     # already hung up
            return
        conn.closing = True
        self._selector.unregister(conn.sock)
        try:
            # Shut down before closing, as socketserver does: a forked
            # pool worker holds a copy of every fd open when it started,
            # and close() alone sends no FIN while a copy is open.
            conn.sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        conn.sock.close()
