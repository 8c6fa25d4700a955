"""Wire conformance of the daemon's hand-written HTTP/1.1 front end.

Every case talks to an in-process daemon over a raw socket and asserts three
things: the status, that the body is JSON (``application/json``), and whether
the connection is still usable afterwards — a response that leaves unread
bytes on the stream must close it.  The interop cases at the bottom drive the
daemon with the stdlib's own clients, so "HTTP/1.1" stays a claim a foreign
peer can check and not a private dialect between the daemon and
:class:`ServerClient`.
"""

import http.client
import json
import socket
import urllib.request

import pytest

from repro.matching.index import DictionaryEntry
from repro.server import ServerClient
from repro.serving.artifact import compile_dictionary
from tests.conftest import start_daemon


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    path = tmp_path_factory.mktemp("wire") / "dict.synart"
    compile_dictionary([DictionaryEntry("lyra quinn", "m1")], path)
    daemon = start_daemon(path, watch_interval=0)
    yield daemon
    daemon.stop()


class Wire:
    """One raw connection to the daemon and a minimal response reader."""

    def __init__(self, daemon):
        self.sock = socket.create_connection((daemon.host, daemon.port), timeout=10)
        self.reader = self.sock.makefile("rb")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.reader.close()
        self.sock.close()

    def response(self):
        """(status, headers, decoded JSON body); body is None for an interim 100."""
        status_line = self.reader.readline()
        if not status_line:
            raise EOFError("daemon closed the connection")
        assert status_line.startswith(b"HTTP/1.1 "), status_line
        headers = {}
        while (line := self.reader.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("ascii").partition(":")
            headers[name.lower()] = value.strip()
        status = int(status_line.split()[1])
        if status == 100:
            return status, headers, None
        assert headers["content-type"] == "application/json; charset=utf-8"
        assert headers["server"] == "repro-match/1"
        assert headers["date"].endswith(" GMT")
        return status, headers, json.loads(self.reader.read(int(headers["content-length"])))

    def is_open(self):
        """Whether a follow-up request on the same connection is answered."""
        try:
            self.sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            return self.response()[0] == 200
        except (EOFError, OSError):
            return False


def post(path, body, *extra_headers):
    head = [f"POST {path} HTTP/1.1", "Host: t", f"Content-Length: {len(body)}", *extra_headers]
    return "\r\n".join(head).encode("ascii") + b"\r\n\r\n" + body


MATCH = b'{"query": "lyra quinn"}'

# (id, request bytes, status, key the JSON body must carry, connection stays open)
CASES = [
    (
        "header-names-in-any-case",
        b"POST /match HTTP/1.1\r\nhOsT: t\r\ncOnTeNt-LeNgTh: %d\r\n\r\n%b" % (len(MATCH), MATCH),
        200, "matched", True,
    ),
    ("bare-lf-line-ends", b"GET /healthz HTTP/1.1\nHost: t\n\n", 200, "status", True),
    ("blank-line-is-not-a-request", b"\r\nGET /healthz HTTP/1.1\r\n\r\n", 400, "error", False),
    (
        "obs-fold-continuation-line",
        post("/match", MATCH, "X-Note: one", "\ttwo", "  three"),
        200, "matched", True,
    ),
    (
        "100-headers-allowed",
        post("/match", MATCH, *(f"X-{n}: v" for n in range(98))),
        200, "matched", True,
    ),
    (
        "101-headers-refused",
        post("/match", MATCH, *(f"X-{n}: v" for n in range(99))),
        431, "error", False,
    ),
    (
        "header-line-too-long",
        b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 65536 + b"\r\n\r\n",
        431, "error", False,
    ),
    (
        "request-line-too-long",
        b"GET /match?q=" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n",
        414, "error", False,
    ),
    ("http-1.0-answered-and-closed", b"GET /healthz HTTP/1.0\r\n\r\n", 200, "status", False),
    (
        "connection-close-honoured",
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        200, "status", False,
    ),
    (
        "get-body-is-drained",
        b"GET /healthz HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
        200, "status", True,
    ),
    (
        "duplicate-content-length",
        post("/match", MATCH, f"Content-Length: {len(MATCH)}"),
        400, "error", False,
    ),
    (
        "negative-content-length",
        b"POST /match HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
        400, "error", False,
    ),
    (
        "non-numeric-content-length",
        b"POST /match HTTP/1.1\r\nContent-Length: 1e1\r\n\r\n",
        400, "error", False,
    ),
    (
        "content-length-too-long-for-int",
        b"POST /match HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n",
        400, "error", False,
    ),
    (
        "signed-content-length",
        b"POST /match HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello",
        400, "error", False,
    ),
    ("header-without-colon", b"GET /healthz HTTP/1.1\r\nnot a header\r\n\r\n", 400, "error", False),
    ("bad-request-line", b"hello\r\n\r\n", 400, "error", False),
    ("http-0.9-request-line", b"GET /healthz\r\n\r\n", 400, "error", False),
    # JSON escapes that decode to lone surrogates: not text, so not a query.
    (
        "query-lone-surrogate",
        post("/match", rb'{"query": "\ud800"}'),
        400, "error", True,
    ),
    (
        "batch-query-lone-surrogate",
        post("/match", rb'{"queries": ["\udfff", "lyra quinn"]}'),
        400, "error", True,
    ),
    (
        "resolve-query-lone-surrogate",
        post("/resolve", rb'{"query": "\ud800"}'),
        400, "error", True,
    ),
    ("unknown-method", post("/match", MATCH).replace(b"POST", b"PUT", 1), 501, "error", False),
    ("unsupported-version", b"GET /healthz HTTP/2.0\r\n\r\n", 505, "error", False),
]


class TestConformance:
    @pytest.mark.parametrize(
        "request_bytes, status, key, stays_open",
        [case[1:] for case in CASES],
        ids=[case[0] for case in CASES],
    )
    def test_case(self, daemon, request_bytes, status, key, stays_open):
        with ServerClient(daemon.host, daemon.port) as observer:
            errors_before = observer.stats()["server"]["errors"]
            with Wire(daemon) as wire:
                wire.sock.sendall(request_bytes)
                got_status, headers, body = wire.response()
                assert got_status == status, body
                assert key in body, body
                assert ("close" in headers.get("connection", "")) == (not stays_open)
                assert wire.is_open() == stays_open
            # Every non-2xx is counted, protocol errors included.
            errors_after = observer.stats()["server"]["errors"]
            assert errors_after - errors_before == (0 if status == 200 else 1)

    def test_expect_100_continue_gets_the_interim_response(self, daemon):
        with Wire(daemon) as wire:
            head = post("/match", MATCH, "Expect: 100-continue")[: -len(MATCH)]
            wire.sock.sendall(head)  # the body is held back until the daemon says go
            assert wire.response()[0] == 100
            wire.sock.sendall(MATCH)
            status, _headers, body = wire.response()
            assert (status, body["matched"]) == (200, True)
            assert wire.is_open()

    def test_expect_is_not_answered_when_the_body_is_refused(self, daemon):
        """A 413 on the header alone must not first invite the body."""
        with Wire(daemon) as wire:
            wire.sock.sendall(
                b"POST /match HTTP/1.1\r\nContent-Length: 99999999\r\nExpect: 100-continue\r\n\r\n"
            )
            assert wire.response()[0] == 413
            assert not wire.is_open()

    def test_pipelined_requests_in_one_segment_answered_in_order(self, daemon):
        other = b'{"query": "nothing here"}'
        with Wire(daemon) as wire:
            wire.sock.sendall(post("/match", MATCH) + post("/match", other))
            answers = [wire.response() for _ in range(2)]
            assert [status for status, _headers, _body in answers] == [200, 200]
            assert [body["query"] for *_, body in answers] == ["lyra quinn", "nothing here"]
            assert [body["matched"] for *_, body in answers] == [True, False]
            assert wire.is_open()

    def test_stdlib_header_parser_is_off_the_request_path(self, daemon, monkeypatch):
        """Neither end of a /match round trip may build an ``email`` Message."""

        def no_parser(*args, **kwargs):
            raise AssertionError("http.client.parse_headers was called")

        monkeypatch.setattr(http.client, "parse_headers", no_parser)
        with ServerClient(daemon.host, daemon.port) as client:
            assert client.match("lyra quinn")["matched"] is True
            assert client.match_many(["lyra quinn", "zzz"])[1]["matched"] is False


class TestForeignClients:
    """The stdlib's clients get correct answers: we still speak HTTP."""

    def test_http_client_keep_alive(self, daemon):
        conn = http.client.HTTPConnection(daemon.host, daemon.port, timeout=10)
        try:
            conn.request("GET", "/match?q=lyra+quinn")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == "application/json; charset=utf-8"
            assert json.loads(response.read())["entities"] == ["m1"]
            sock = conn.sock
            conn.request("POST", "/match", body=MATCH, headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert (response.status, json.loads(response.read())["matched"]) == (200, True)
            assert conn.sock is sock  # two requests, one socket
            conn.request("PUT", "/match", body=MATCH)
            response = conn.getresponse()
            assert response.status == 501 and "error" in json.loads(response.read())
        finally:
            conn.close()

    def test_urllib_request(self, daemon):
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(f"{daemon.address}/match?q=lyra+quinn", timeout=10) as response:
            assert json.loads(response.read())["matched"] is True
        request = urllib.request.Request(
            f"{daemon.address}/resolve", data=MATCH, headers={"Content-Type": "application/json"}
        )
        with opener.open(request, timeout=10) as response:
            assert response.status == 200
            assert json.loads(response.read())["ranked"][0]["entity_id"] == "m1"
