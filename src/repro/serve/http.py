"""A deliberately tiny HTTP/1.1 transport over asyncio streams.

Just enough protocol for a local admission daemon: request line,
query strings, headers, ``Content-Length`` bodies (JSON only),
keep-alive, and nothing else — no chunked encoding, no TLS, no external
dependencies.  Anything malformed gets a ``400`` and the connection
closed; so does a request line over the stream's 64 KiB line limit, and
a header line over it, or a header block over :data:`MAX_HEADER_LINES`
lines, gets a ``431``.  A stream that ends inside the header block is a
clean close: the truncated request is never dispatched.  A body that
has not fully arrived :data:`BODY_TIMEOUT_S` seconds after its headers
gets a ``408``, so a client that declares more than it sends cannot
hold its connection open.  Responses are
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

__all__ = ["BODY_TIMEOUT_S", "HttpServer", "MAX_HEADER_LINES"]

#: Header lines one request may carry; the next one gets a ``431``.
MAX_HEADER_LINES = 100
#: Seconds a request body may take to arrive once its headers are in;
#: a slower one gets a ``408`` and the connection closed.
BODY_TIMEOUT_S = 10.0
#: After a header-flood answer, unread request bytes are discarded (up
#: to this many, until the client pauses) before closing: closing over
#: unread bytes sends a reset, which can cost the client the answer.
_DISCARD_BYTES = 1 << 20
_DISCARD_IDLE_S = 0.05

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
        try:
            request_line = (await reader.readline()).decode("latin-1").strip()
        except ValueError:  # longer than the reader's line limit
            await self._respond(writer, 400, {"error": "request line too long"})
            return False
        if not request_line:
            return False  # clean close between keep-alive requests
        parts = request_line.split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            await self._respond(writer, 400, {"error": "malformed request line"})
            return False
        method, target, _version = parts
        path, _, query_string = target.partition("?")
        path = unquote(path)
        query = dict(parse_qsl(query_string, keep_blank_values=True))

        headers: dict[str, str] = {}
        for count in range(MAX_HEADER_LINES + 1):
            try:
                line = (await reader.readline()).decode("latin-1")
            except ValueError:  # longer than the reader's line limit
                await self._respond(writer, 431, {"error": "header line too long"})
                return False
            if not line:
                return False  # the stream ended inside the header block
            if line in ("\r\n", "\n"):
                break
            if count == MAX_HEADER_LINES:
                await self._respond(
                    writer,
                    431,
                    {"error": f"more than {MAX_HEADER_LINES} header lines"},
                )
                await _discard(reader)
                return False
            if ":" in line:
                key, value = line.split(":", 1)
                headers[key.strip().lower()] = value.strip()

        try:
            length = int(headers.get("content-length", 0))
        except ValueError:
            length = -1
        if length < 0:  # readexactly(-n) would raise inside this task
            await self._respond(writer, 400, {"error": "bad Content-Length"})
            return False
        if length > MAX_BODY_BYTES:
            await self._respond(
                writer, 413, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"}
            )
            return False
        payload = None
        if length:
            raw = await _read_body(reader, length)
            if raw is None:
                await self._respond(
                    writer,
                    408,
                    {"error": f"body not received within {BODY_TIMEOUT_S:g} s"},
                )
                return False
            try:
                payload = json.loads(raw)
            except (json.JSONDecodeError, UnicodeDecodeError, RecursionError):
                await self._respond(writer, 400, {"error": "body is not JSON"})
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


async def _read_body(reader: asyncio.StreamReader, length: int) -> bytes | None:
    """The ``length``-byte body, or ``None`` if it has not arrived within
    :data:`BODY_TIMEOUT_S`.  The deadline is a loop timer that cancels
    this task: ``asyncio.wait_for`` would start a task per request before
    Python 3.12, and ``asyncio.timeout`` needs 3.11."""
    task = asyncio.current_task()
    expired = False

    def expire() -> None:
        nonlocal expired
        expired = True
        task.cancel()

    timer = asyncio.get_running_loop().call_later(BODY_TIMEOUT_S, expire)
    try:
        return await reader.readexactly(length)
    except asyncio.CancelledError:
        # Re-raise a cancellation that is not (only) the deadline's.
        if not expired or (hasattr(task, "uncancel") and task.uncancel() > 0):
            raise
        return None
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
