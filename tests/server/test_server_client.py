"""Unit tests for the daemon's raw-socket client."""

import contextlib
import http.client
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.matching.dictionary import DictionaryEntry, SynonymDictionary
from repro.server import DEFAULT_PORT, ServerClient, ServerError
from repro.serving.artifact import compile_dictionary
from tests.conftest import daemon_server, start_daemon


@pytest.fixture()
def artifact_path(tmp_path):
    path = tmp_path / "dict.synart"
    compile_dictionary(
        SynonymDictionary([DictionaryEntry("indy 4", "m1", "mined", 10.0)]), path
    )
    return path


class TestAddressing:
    def test_from_address_parses_url(self):
        client = ServerClient.from_address("http://127.0.0.1:9321")
        assert (client.host, client.port) == ("127.0.0.1", 9321)

    def test_from_address_parses_bare_host_port(self):
        client = ServerClient.from_address("localhost:8080")
        assert (client.host, client.port) == ("localhost", 8080)

    def test_from_address_defaults_to_scheme_port(self):
        """A portless URL uses its scheme's well-known port, not ValueError."""
        assert ServerClient.from_address("http://127.0.0.1").port == 80
        assert ServerClient.from_address("https://match.example").port == 443

    def test_from_address_bare_host_defaults_to_daemon_port(self):
        client = ServerClient.from_address("localhost")
        assert (client.host, client.port) == ("localhost", DEFAULT_PORT)

    def test_from_address_requires_host(self):
        with pytest.raises(ValueError):
            ServerClient.from_address("http://")

    def test_default_port(self):
        assert ServerClient().port == DEFAULT_PORT


class TestTransport:
    def test_keep_alive_connection_is_reused(self, artifact_path, connects):
        with daemon_server(artifact_path, watch_interval=0) as (_daemon, client):
            client.match("indy 4")
            client.match("indy 4")
            client.close()
            client.match("indy 4")
        assert len(connects) == 2  # healthz + 2 matches on one socket, then the re-open

    def test_reconnects_after_server_restart(self, artifact_path):
        """The retry path: a dead keep-alive socket is reopened, once."""
        daemon = start_daemon(artifact_path, watch_interval=0)
        port = daemon.port
        client = ServerClient(daemon.host, port)
        try:
            client.wait_until_ready()
            assert client.match("indy 4")["matched"] is True
            daemon.stop()
            # Same port, fresh server: the old pooled socket is dead.
            # start_daemon's EADDRINUSE retry absorbs the rebind race.
            daemon = start_daemon(artifact_path, port=port, watch_interval=0)
            assert client.match("indy 4")["matched"] is True
        finally:
            client.close()
            daemon.stop()

    def test_wait_until_ready_times_out_when_no_server(self):
        client = ServerClient("127.0.0.1", 1)  # nothing listens on port 1
        with pytest.raises(TimeoutError):
            client.wait_until_ready(timeout=0.3)


@contextlib.contextmanager
def scripted_server(reply, *, hold_s=0.0):
    """A fake server: swallow one request per connection, send *reply*, close.

    Yields ``(port, connections)``; *connections* counts accepted sockets, so
    a test can see the client's one reconnect.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    connections = []
    done = threading.Event()

    def serve():
        while not done.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                continue
            with conn:
                connections.append(conn.recv(65536))
                conn.sendall(reply)
                done.wait(hold_s)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[1], connections
    finally:
        done.set()
        thread.join(timeout=5)
        listener.close()


MALFORMED = {
    "immediate-eof": b"",
    "bad-status-line": b"garbage\r\n\r\n",
    "status-line-of-one-word": b"HTTP/1.1\r\n\r\n",
    "non-numeric-status": b"HTTP/1.1 abc OK\r\nContent-Length: 2\r\n\r\n{}",
    "not-http-1.x": b"ICY 200 OK\r\nContent-Length: 2\r\n\r\n{}",
    "missing-content-length": b"HTTP/1.1 200 OK\r\n\r\n{}",
    "non-integer-content-length": b"HTTP/1.1 200 OK\r\nContent-Length: two\r\n\r\n{}",
    "negative-content-length": b"HTTP/1.1 200 OK\r\nContent-Length: -2\r\n\r\n{}",
    "content-length-too-long-for-int": (
        b"HTTP/1.1 200 OK\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n{}"
    ),
    "chunked-response": (
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n"
    ),
    "eof-inside-headers": b"HTTP/1.1 200 OK\r\nContent-Le",
    "eof-mid-body": b'HTTP/1.1 200 OK\r\nContent-Length: 40\r\n\r\n{"matched"',
}


class TestExceptionContract:
    """Whatever a server sends, a failed request is HTTPException or OSError.

    ``repro.scenarios.experiment`` and the perf ledger catch exactly
    ``(ServerError, OSError, http.client.HTTPException)`` and count a failed
    operation; a ``ValueError`` / ``IndexError`` would abort their run.
    """

    @pytest.mark.parametrize("reply", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_response(self, reply):
        with scripted_server(reply) as (port, connections):
            with ServerClient("127.0.0.1", port, timeout=2) as client:
                with pytest.raises((http.client.HTTPException, OSError)):
                    client.match("indy 4")
            assert len(connections) == 2  # the first try and the one reconnect

    def test_silent_server_times_out_as_oserror(self):
        with scripted_server(b"", hold_s=1.0) as (port, _connections):
            with ServerClient("127.0.0.1", port, timeout=0.1) as client:
                with pytest.raises(OSError):
                    client.healthz()

    def test_error_status_with_a_non_json_body_is_a_server_error(self):
        reply = b"HTTP/1.1 502 Bad Gateway\r\nContent-Length: 4\r\n\r\noops"
        with scripted_server(reply) as (port, connections):
            with ServerClient("127.0.0.1", port) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.healthz()
            assert (excinfo.value.status, excinfo.value.payload) == (502, {"error": "oops"})
            assert len(connections) == 1  # an HTTP error is an answer, not a dead socket


class _Echo(BaseHTTPRequestHandler):
    """A plain stdlib JSON server: answers with what it was sent."""

    def do_POST(self):  # noqa: N802 (stdlib naming)
        sent = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        body = json.dumps(
            {"path": self.path, "sent": sent, "host": self.headers["Host"]}
        ).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):
        pass


class TestForeignServer:
    """Our client against a server we did not write: still plain HTTP."""

    @pytest.mark.parametrize("protocol", ["HTTP/1.0", "HTTP/1.1"])
    def test_stdlib_json_echo(self, protocol, connects):
        handler = type("Echo", (_Echo,), {"protocol_version": protocol})
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            with ServerClient("127.0.0.1", port) as client:
                for n in range(3):
                    payload = client._request("POST", f"/echo/{n}", {"query": "héllo", "n": n})
                    assert payload == {
                        "path": f"/echo/{n}",
                        "sent": {"query": "héllo", "n": n},
                        "host": f"127.0.0.1:{port}",
                    }
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        # An HTTP/1.0 server closes after every response and the client
        # must notice without burning its retry; HTTP/1.1 keeps one socket.
        assert len(connects) == (3 if protocol == "HTTP/1.0" else 1)
