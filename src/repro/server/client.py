"""Raw-socket HTTP/1.1 client for the match daemon.

:class:`ServerClient` speaks the daemon's JSON wire format over one
persistent keep-alive socket (re-opened transparently if the server restarts
between requests): each request leaves as a single segment — head and body
in one ``sendall`` — and the response is read as status line +
``Content-Length`` + body off one buffered reader, with no header parser in
between.  JSON in/out, typed errors; of :mod:`http.client` only the exception
classes are used, so callers keep catching ``(ServerError, OSError,
http.client.HTTPException)``.  It is what the daemon tests, the latency
benchmark's load generator and the CI smoke job drive the server with — and
a reasonable starting point for an application client.

The client is deliberately *not* thread-safe: it owns one socket.  Use one
client per thread (the benchmark does exactly that).
"""

from __future__ import annotations

import http.client
import io
import json
import socket
import time
from typing import Any, Sequence
from urllib.parse import urlparse

from repro.server.daemon import _MAX_LINE, DEFAULT_PORT

__all__ = ["ServerClient", "ServerError"]


class ServerError(RuntimeError):
    """A non-2xx response from the daemon, with the decoded error payload."""

    def __init__(self, status: int, payload: dict[str, Any]) -> None:
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload


class ServerClient:
    """Typed access to every daemon endpoint over one keep-alive connection."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = DEFAULT_PORT, *, timeout: float = 10.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._wire: tuple[socket.socket, io.BufferedReader] | None = None

    @classmethod
    def from_address(cls, address: str, *, timeout: float = 10.0) -> "ServerClient":
        """Build a client from a base URL like ``http://127.0.0.1:8765``.

        The port may be omitted: a URL with a scheme defaults to that
        scheme's well-known port (80 for http, 443 for https); a bare
        ``host`` or ``host:port`` without a scheme defaults to the
        daemon's :data:`DEFAULT_PORT`.
        """
        url = urlparse(address if "//" in address else f"//{address}")
        if not url.hostname:
            raise ValueError(f"address must include a host: {address!r}")
        port = url.port
        if port is None:
            port = {"http": 80, "https": 443}.get(url.scheme, DEFAULT_PORT)
        return cls(url.hostname, port, timeout=timeout)

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Drop the persistent connection (re-opened on the next request)."""
        if self._wire is not None:
            sock, reader = self._wire
            self._wire = None
            reader.close()
            sock.close()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _round_trip(self, request: bytes) -> tuple[int, bytes]:
        """Send one request, read one ``Content-Length``-framed response."""
        if self._wire is None:
            sock = socket.create_connection((self.host, self.port), self.timeout)
            # A batch above one MSS still leaves as several segments; without
            # Nagle the last one never waits for the ACK of the first.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._wire = (sock, sock.makefile("rb"))
        sock, reader = self._wire
        sock.sendall(request)
        line = reader.readline(_MAX_LINE)  # a longer line is cut there and fails to parse
        if not line:
            raise http.client.RemoteDisconnected("server closed the connection")
        words = line.split(None, 2)
        if len(words) < 2 or not words[0].startswith(b"HTTP/1.") or not words[1].isdigit():
            raise http.client.BadStatusLine(repr(line))
        headers: dict[bytes, bytes] = {}
        while (line := reader.readline(_MAX_LINE)) not in (b"\r\n", b"\n"):
            if not line:
                raise http.client.IncompleteRead(b"")
            name, _, value = line.partition(b":")
            headers[name.strip().lower()] = value.strip().lower()
        declared = headers.get(b"content-length", b"")
        if not declared.isdigit() or len(declared) > 18:  # absent (chunked), signed, not a number
            raise http.client.HTTPException(f"no usable Content-Length: {declared!r}")
        length = int(declared)
        body = reader.read(length)
        if len(body) < length:
            raise http.client.IncompleteRead(body, length - len(body))
        if words[0] != b"HTTP/1.1" or b"close" in headers.get(b"connection", b""):
            self.close()
        return int(words[1]), body

    def _request(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        encoded = b"" if body is None else json.dumps(body, ensure_ascii=False).encode("utf-8")
        request = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
            "Accept-Encoding: identity\r\nContent-Type: application/json; charset=utf-8\r\n"
            f"Content-Length: {len(encoded)}\r\n\r\n"
        ).encode("ascii") + encoded
        # One retry on a dead socket: the server may have restarted (or an
        # idle keep-alive connection timed out) since the last request.
        for attempt in (0, 1):
            try:
                status, raw = self._round_trip(request)
                break
            except (http.client.HTTPException, OSError):
                self.close()
                if attempt:
                    raise
        try:
            payload = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            payload = {"error": raw.decode("utf-8", "replace")}
        if not 200 <= status < 300:
            raise ServerError(status, payload)
        return payload

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #

    def healthz(self) -> dict[str, Any]:
        return self._request("GET", "/healthz")

    def stats(self) -> dict[str, Any]:
        return self._request("GET", "/stats")

    def match(self, query: str) -> dict[str, Any]:
        """Match one query; returns the daemon's match payload."""
        return self._request("POST", "/match", {"query": query})

    def match_many(self, queries: Sequence[str]) -> list[dict[str, Any]]:
        """Match a batch in one round trip (order preserved)."""
        return self._request("POST", "/match", {"queries": list(queries)})["results"]

    def resolve(self, query: str) -> dict[str, Any]:
        """Match one query and rank its entities (adds the ``ranked`` list)."""
        return self._request("POST", "/resolve", {"query": query})

    def resolve_many(self, queries: Sequence[str]) -> list[dict[str, Any]]:
        """Resolve a batch in one round trip (order preserved)."""
        return self._request("POST", "/resolve", {"queries": list(queries)})["results"]

    def reload(self) -> dict[str, Any]:
        """Force the daemon to reload its artifact file now."""
        return self._request("POST", "/admin/reload")

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #

    def wait_until_ready(self, *, timeout: float = 10.0) -> dict[str, Any]:
        """Poll ``/healthz`` until the daemon answers (startup races in CI).

        Returns the first healthy payload; raises ``TimeoutError`` when the
        daemon never comes up within *timeout* seconds.
        """
        deadline = time.monotonic() + timeout
        last_error: Exception | None = None
        while time.monotonic() < deadline:
            try:
                return self.healthz()
            except (ServerError, ConnectionError, OSError, http.client.HTTPException) as exc:
                last_error = exc
                time.sleep(0.05)
        raise TimeoutError(f"server at {self.host}:{self.port} not ready: {last_error}")
