"""The HTTP client both model backends share."""

from __future__ import annotations

import json
import random
import subprocess
import sys
import threading
import time

import pytest

from concernminer import _http
from concernminer.config import LlmBackendConfig, NliBackendConfig
from concernminer.errors import BackendError
from concernminer.hypotheses import builtin_domain_mh
from concernminer.llm.backends import HttpLlmBackend
from concernminer.llm.classify import PromptMessages, SamplingSettings
from concernminer.nli.backends import HttpNliBackend

from httpserver import KeepAliveHandler, RawHandler, SilentCloseHandler, serve

NLI = (
    HttpNliBackend,
    lambda backend: backend.score_pair("p", builtin_domain_mh().hypotheses[0]),
    {"entailment": 0.4, "neutral": 0.4, "contradiction": 0.2},
)
LLM = (
    HttpLlmBackend,
    lambda backend: backend.complete(PromptMessages("s", "u"), SamplingSettings()),
    {"choices": [{"message": {"content": "yes"}}]},
)
BACKENDS = pytest.mark.parametrize("backend_type, call, body", [NLI, LLM], ids=["nli", "llm"])


def build(backend_type, endpoint, *, backoff, **settings):
    """A ``backend_type`` built from a config block named ``remote``."""
    config_type = NliBackendConfig if backend_type is HttpNliBackend else LlmBackendConfig
    return backend_type(config_type("remote", endpoint, **settings), backoff=backoff)


@pytest.fixture()
def sleeps(monkeypatch):
    """Every backoff delay the client sleeps, recorded instead of slept."""
    delays = []
    monkeypatch.setattr(_http.time, "sleep", delays.append)
    return delays


@BACKENDS
def test_one_connection_per_thread_and_counted_calls(backend_type, call, body):
    with serve(lambda path, payload, n: (200, body), KeepAliveHandler) as (server, url):
        backend = build(backend_type, url, backoff=0.01)
        for _ in range(10):
            call(backend)
        assert server.connections == 1
        assert backend.calls == 10

        threaded = build(backend_type, url, backoff=0.01)
        workers = [threading.Thread(target=call, args=(threaded,)) for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=10)
            assert not worker.is_alive()
        assert server.connections == 3
    assert threaded.calls == 2
    assert len(server.requests) == 12


@BACKENDS
def test_connection_closed_by_server_reconnects_without_retry(sleeps, backend_type, call, body):
    with serve(lambda path, payload, n: (200, body), SilentCloseHandler) as (server, url):
        backend = build(backend_type, url, backoff=5.0)
        start = time.monotonic()
        for _ in range(5):
            call(backend)
            assert server.closed.acquire(timeout=10)  # the server closed the idle connection
        elapsed = time.monotonic() - start
    assert sleeps == []
    assert elapsed < 1.0
    assert len(server.requests) == 5
    assert server.connections == 5


@BACKENDS
def test_http10_server_gets_one_connection_per_call(sleeps, backend_type, call, body):
    with serve(lambda path, payload, n: (200, body)) as (server, url):
        backend = build(backend_type, url, backoff=0.01)
        for _ in range(10):
            call(backend)
    assert sleeps == []
    assert len(server.requests) == 10
    assert server.connections == 10


@BACKENDS
@pytest.mark.parametrize(
    "status, reply, message",
    [
        (200, b"oops", "malformed response"),
        (200, [0.4, 0.4, 0.2], "malformed response"),
        (302, {"error": "moved"}, "HTTP 302"),
        (307, {"error": "moved"}, "HTTP 307"),
    ],
    ids=["not-json", "not-an-object", "302", "307"],
)
def test_fails_at_once(sleeps, backend_type, call, body, status, reply, message):
    with serve(lambda path, payload, n: (status, reply)) as (server, url):
        backend = build(backend_type, url, max_retries=3, backoff=0.01)
        with pytest.raises(BackendError, match=message):
            call(backend)
    assert len(server.requests) == 1
    assert sleeps == []


@BACKENDS
def test_backoff_is_jittered_within_its_bound(sleeps, backend_type, call, body):
    state = random.getstate()
    with serve(lambda path, payload, n: (503, {"error": "busy"})) as (server, url):
        backend = build(backend_type, url, max_retries=3, backoff=0.5)
        with pytest.raises(BackendError, match="after 4 attempts"):
            call(backend)
    assert len(server.requests) == 4
    assert len(sleeps) == 3
    assert all(0 <= delay <= 0.5 * 2**attempt for attempt, delay in enumerate(sleeps))
    assert sleeps != [0.5, 1.0, 2.0]
    assert random.getstate() == state


@BACKENDS
def test_url_credentials_go_out_as_basic_auth(backend_type, call, body):
    with serve(lambda path, payload, n: (200, body)) as (server, url):
        call(build(backend_type, url.replace("http://", "http://user:p%40ss@") + "v1?key=1", backoff=0.01))
    assert server.requests[0][0] == "/v1?key=1"
    assert server.headers[0]["Authorization"] == "Basic dXNlcjpwQHNz"  # base64 of "user:p@ss"


def test_request_headers():
    with serve(lambda path, payload, n: (200, NLI[2])) as (server, url):
        NLI[1](build(HttpNliBackend, url, backoff=0.01))
    (path, payload), headers = server.requests[0], server.headers[0]
    assert dict(headers) == {
        "Host": url.split("/")[2],
        "Accept-Encoding": "identity",
        "Content-Type": "application/json",
        "Content-Length": str(len(json.dumps(payload))),
    }


def test_https_endpoint_speaks_tls(sleeps):
    with serve(lambda path, payload, n: (200, NLI[2])) as (server, url):
        backend = build(HttpNliBackend, url.replace("http://", "https://"), max_retries=1, backoff=0.01)
        with pytest.raises(BackendError, match="after 2 attempts"):
            NLI[1](backend)
    assert server.requests == []
    assert len(sleeps) == 1


def test_cli_imports_no_third_party_http_library():
    modules = ("requests", "urllib3", "http.client", "email")
    code = f"import concernminer.cli, sys; loaded = set({modules}) & set(sys.modules); assert not loaded, loaded"
    subprocess.run([sys.executable, "-c", code], check=True)


SCORE = json.dumps(NLI[2]).encode()
OK = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(SCORE), SCORE)


def raw_nli(url, **options):
    """An NLI backend whose timeout is short enough that a client waiting
    for bytes a response does not promise fails the test quickly."""
    return build(HttpNliBackend, url, timeout=5.0, backoff=0.01, **options)


@pytest.mark.parametrize(
    "close, data, connections",
    [
        (False, b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"5;name=value\r\n%s\r\n%x\r\n%s\r\n0;last\r\nX-Trailer: 1\r\n\r\n"
                % (SCORE[:5], len(SCORE) - 5, SCORE[5:]), 1),
        (True, b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n" + SCORE, 3),
        (False, b"HTTP/1.1 100 Continue\r\n\r\n" + OK, 1),
        (True, OK.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n", 1), 3),
        (False, OK.replace(b"\r\n", b"\r\n" + b"X: %s\r\n" % (b"x" * (_http.MAX_LINE - 5)), 1), 1),
        (False, OK.replace(b"\r\n", b"\r\n" + b"X: 1\r\n" * (_http.MAX_HEADERS - 1), 1), 1),
    ],
    ids=["chunked", "http10-until-close", "100-continue", "connection-close", "longest-line", "most-headers"],
)
def test_response_framings(sleeps, close, data, connections):
    with serve(lambda path, payload, n: (close, data), RawHandler) as (server, url):
        backend = raw_nli(url)
        for _ in range(3):
            assert NLI[1](backend).entail == 0.4
    assert sleeps == []
    assert len(server.requests) == 3
    assert server.connections == connections


def test_204_is_a_malformed_response_without_a_body(sleeps):
    with serve(lambda path, payload, n: (False, b"HTTP/1.1 204 No Content\r\n\r\n"), RawHandler) as (server, url):
        with pytest.raises(BackendError, match="malformed response"):
            NLI[1](raw_nli(url))
    assert len(server.requests) == 1
    assert sleeps == []


@pytest.mark.parametrize(
    "data, message",
    [
        (OK.replace(b"Length: %d" % len(SCORE), b"Length: -1"), "bad Content-Length b'-1'"),
        (OK.replace(b"Length: %d" % len(SCORE), b"Length: 1e2"), "bad Content-Length b'1e2'"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n-5\r\n", "bad chunk size b'-5'"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0x5\r\n", "bad chunk size b'0x5'"),
        (b"HTTP/1.1 200 OK\r\nX: " + b"x" * _http.MAX_LINE, "a line longer than 65536 bytes"),
        (OK.replace(b"\r\n", b"\r\n" + b"X: 1\r\n" * _http.MAX_HEADERS, 1), "more than 100 header lines"),
        (b"HTTP/1.1 2OO OK\r\n\r\n", "bad status line"),
    ],
    ids=["negative-length", "non-numeric-length", "negative-chunk", "hex-prefixed-chunk", "long-line",
         "many-headers", "bad-status"],
)
def test_framing_errors_raise_without_waiting(sleeps, data, message):
    """The server keeps the connection open after each of these responses,
    so a client that read on to the end of the stream would time out."""
    with serve(lambda path, payload, n: (False, data), RawHandler) as (server, url):
        start = time.monotonic()
        with pytest.raises(BackendError, match=f"after 2 attempts: {message}"):
            NLI[1](raw_nli(url, max_retries=1))
        assert time.monotonic() - start < 2.0
    assert len(server.requests) == 2
    assert len(sleeps) == 1


def test_body_cut_short_is_retried_as_a_transport_error(sleeps):
    short = OK[: -len(SCORE) // 2]
    with serve(lambda path, payload, n: (n == 1, short if n == 1 else OK), RawHandler) as (server, url):
        assert NLI[1](raw_nli(url)).entail == 0.4
    assert len(server.requests) == 2
    assert len(sleeps) == 1
    assert server.connections == 2


def test_bytes_after_a_framed_response_are_not_the_next_response(sleeps):
    stray = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}"
    with serve(lambda path, payload, n: (False, OK + stray), RawHandler) as (server, url):
        backend = raw_nli(url)
        for _ in range(3):
            assert NLI[1](backend).entail == 0.4
    assert sleeps == []
    assert len(server.requests) == 3
    assert server.connections == 3
