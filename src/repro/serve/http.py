"""A deliberately tiny HTTP/1.1 transport over asyncio streams.

Just enough protocol for a local admission daemon: request line,
query strings, headers, ``Content-Length`` bodies (JSON only),
keep-alive, and nothing else — no chunked encoding, no TLS, no external
dependencies.  Anything malformed gets a ``400`` and the connection
closed; so does a request line over the stream's 64 KiB line limit, and
a header line over it, or a header block over :data:`MAX_HEADER_LINES`
lines, gets a ``431``.  A stream that ends inside the header block is a
clean close: the truncated request is never dispatched.  A request
line and header block not in :data:`HEADER_TIMEOUT_S` seconds after
the connection began waiting for them get a ``408`` (or, when not even
the request line arrived, a close without a response), and a body that
has not fully arrived :data:`BODY_TIMEOUT_S` seconds after its headers
gets a ``408``, so neither an idle nor a trickling client can hold its
connection open.  Responses are
JSON by default; a handler returning ``bytes`` has them sent verbatim
as JSON (the cached ``/state`` body), and a ``str`` body is sent as
``text/plain`` (the Prometheus exposition path).
"""

from __future__ import annotations

import asyncio
import json
from urllib.parse import parse_qsl, unquote

from repro.serve.handlers import Api
from repro.serve.protocol import MAX_BODY_BYTES

__all__ = ["BODY_TIMEOUT_S", "HEADER_TIMEOUT_S", "HttpServer", "MAX_HEADER_LINES"]

#: Header lines one request may carry; the next one gets a ``431``.
MAX_HEADER_LINES = 100
#: Seconds a connection waits for its next request line and header
#: block: an idle one is then closed without a response, an incomplete
#: header block gets a ``408``.  Generous, as keep-alive clients idle
#: between requests.
HEADER_TIMEOUT_S = 30.0
#: Seconds a request body may take to arrive once its headers are in;
#: a slower one gets a ``408`` and the connection closed.
BODY_TIMEOUT_S = 10.0
#: After a header-flood answer, unread request bytes are discarded (up
#: to this many, until the client pauses) before closing: closing over
#: unread bytes sends a reset, which can cost the client the answer.
_DISCARD_BYTES = 1 << 20
_DISCARD_IDLE_S = 0.05
#: What :func:`_within` returns when its deadline passed first.
_EXPIRED = object()

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    431: "Request Header Fields Too Large",
    503: "Service Unavailable",
}


class _Rejected(Exception):
    """A request answered with ``status`` (the message as its error) and
    closed before dispatch; ``discard`` drops its unread bytes first."""

    def __init__(self, status: int, error: str, discard: bool = False):
        super().__init__(error)
        self.status, self.discard = status, discard


class HttpServer:
    """Serves an :class:`Api` on a local TCP port."""

    def __init__(
        self, api: Api, host: str = "127.0.0.1", port: int = 0, backlog: int = 100
    ):
        self.api = api
        self.host = host
        self.port = port
        self.backlog = backlog  #: connections the kernel holds unaccepted
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the actual ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._client, self.host, self.port, backlog=self.backlog
        )
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        self.port = port
        return host, port

    async def stop(self) -> None:
        """Stop accepting new connections and wait for the listener."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    async def _client(self, reader: asyncio.StreamReader, writer) -> None:
        try:
            while True:
                keep_alive = await self._one_request(reader, writer)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass  # client went away mid-request
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _one_request(self, reader, writer) -> bool:
        line_in: list[bool] = []  # non-empty once the request line is in
        try:
            head = await _within(HEADER_TIMEOUT_S, _read_head(reader, line_in))
            if head is _EXPIRED:
                if not line_in:
                    return False  # idle before a request: close unanswered
                raise _Rejected(
                    408, f"headers not received within {HEADER_TIMEOUT_S:g} s"
                )
            if head is None:
                return False  # the stream ended between or inside requests
            method, path, query, headers = head
            payload = await _read_payload(reader, headers)
        except _Rejected as exc:
            await self._respond(writer, exc.status, {"error": str(exc)})
            if exc.discard:
                await _discard(reader)
            return False

        status, body = await self.api.handle(
            method.upper(), path, payload, query=query
        )
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        await self._respond(writer, status, body, keep_alive=keep_alive)
        return keep_alive

    @staticmethod
    async def _respond(
        writer, status: int, body: dict | bytes | str, keep_alive=False
    ) -> None:
        content_type = "application/json"
        if isinstance(body, bytes):
            data = body
        elif isinstance(body, str):
            data = body.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            data = json.dumps(body).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {connection}\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + data)
        await writer.drain()


async def _read_head(reader: asyncio.StreamReader, line_in: list):
    """The request line and header block as ``(method, path, query,
    headers)``, or ``None`` if the stream ends first; appends to
    ``line_in`` once the request line is in."""
    try:
        request_line = (await reader.readline()).decode("latin-1").strip()
    except ValueError:  # longer than the reader's line limit
        raise _Rejected(400, "request line too long") from None
    if not request_line:
        return None  # clean close between keep-alive requests
    line_in.append(True)
    parts = request_line.split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _Rejected(400, "malformed request line")
    method, target, _version = parts
    path, _, query_string = target.partition("?")

    headers: dict[str, str] = {}
    for count in range(MAX_HEADER_LINES + 1):
        try:
            line = (await reader.readline()).decode("latin-1")
        except ValueError:  # longer than the reader's line limit
            raise _Rejected(431, "header line too long") from None
        if not line:
            return None  # the stream ended inside the header block
        if line in ("\r\n", "\n"):
            break
        if count == MAX_HEADER_LINES:
            raise _Rejected(
                431, f"more than {MAX_HEADER_LINES} header lines", discard=True
            )
        if ":" in line:
            key, value = line.split(":", 1)
            headers[key.strip().lower()] = value.strip()
    query = dict(parse_qsl(query_string, keep_blank_values=True))
    return method, unquote(path), query, headers


async def _read_payload(reader: asyncio.StreamReader, headers: dict):
    """The request's JSON body (``None`` without one), due within
    :data:`BODY_TIMEOUT_S` of its headers."""
    try:
        length = int(headers.get("content-length", 0))
    except ValueError:
        length = -1
    if length < 0:  # readexactly(-n) would raise inside this task
        raise _Rejected(400, "bad Content-Length")
    if length > MAX_BODY_BYTES:
        raise _Rejected(413, f"body exceeds {MAX_BODY_BYTES} bytes")
    if not length:
        return None
    raw = await _within(BODY_TIMEOUT_S, reader.readexactly(length))
    if raw is _EXPIRED:
        raise _Rejected(408, f"body not received within {BODY_TIMEOUT_S:g} s")
    try:
        return json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError):
        raise _Rejected(400, "body is not JSON") from None


async def _within(seconds: float, awaitable):
    """``await awaitable``, or :data:`_EXPIRED` if it has not finished
    within ``seconds``.  The deadline is a loop timer that cancels this
    task: ``asyncio.wait_for`` would start a task per request before
    Python 3.12, and ``asyncio.timeout`` needs 3.11."""
    task = asyncio.current_task()
    expired = False

    def expire() -> None:
        nonlocal expired
        expired = True
        task.cancel()

    timer = asyncio.get_running_loop().call_later(seconds, expire)
    try:
        return await awaitable
    except asyncio.CancelledError:
        # Re-raise a cancellation that is not (only) the deadline's.
        if not expired or (hasattr(task, "uncancel") and task.uncancel() > 0):
            raise
        return _EXPIRED
    finally:
        timer.cancel()


async def _discard(reader: asyncio.StreamReader) -> None:
    """Read and drop what the client is still sending, until it pauses
    for :data:`_DISCARD_IDLE_S`, closes, or :data:`_DISCARD_BYTES` went."""
    left = _DISCARD_BYTES
    try:
        while left > 0:
            chunk = await asyncio.wait_for(reader.read(65536), _DISCARD_IDLE_S)
            if not chunk:
                return
            left -= len(chunk)
    except asyncio.TimeoutError:
        pass
