"""The HTTP client both model backends share."""

from __future__ import annotations

import random
import subprocess
import sys
import threading
import time

import pytest

from concernminer import _http
from concernminer.errors import BackendError
from concernminer.hypotheses import builtin_domain_mh
from concernminer.llm import HttpLlmBackend, PromptMessages, SamplingSettings
from concernminer.nli import HttpNliBackend

from httpserver import KeepAliveHandler, SilentCloseHandler, serve

NLI = (
    HttpNliBackend,
    lambda backend: backend.score_pair("p", builtin_domain_mh().by_id(1)),
    {"entailment": 0.4, "neutral": 0.4, "contradiction": 0.2},
)
LLM = (
    HttpLlmBackend,
    lambda backend: backend.complete(PromptMessages("s", "u"), SamplingSettings()),
    {"choices": [{"message": {"content": "yes"}}]},
)
BACKENDS = pytest.mark.parametrize("backend_type, call, body", [NLI, LLM], ids=["nli", "llm"])


@pytest.fixture()
def sleeps(monkeypatch):
    """Every backoff delay the client sleeps, recorded instead of slept."""
    delays = []
    monkeypatch.setattr(_http.time, "sleep", delays.append)
    return delays


@BACKENDS
def test_one_connection_per_thread_and_counted_calls(backend_type, call, body):
    with serve(lambda path, payload, n: (200, body), KeepAliveHandler) as (server, url):
        backend = backend_type("remote", url, backoff=0.01)
        for _ in range(10):
            call(backend)
        assert server.connections == 1
        assert backend.calls == 10

        threaded = backend_type("remote", url, backoff=0.01)
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
        backend = backend_type("remote", url, backoff=5.0)
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
        backend = backend_type("remote", url, backoff=0.01)
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
        backend = backend_type("remote", url, max_retries=3, backoff=0.01)
        with pytest.raises(BackendError, match=message):
            call(backend)
    assert len(server.requests) == 1
    assert sleeps == []


@BACKENDS
def test_backoff_is_jittered_within_its_bound(sleeps, backend_type, call, body):
    state = random.getstate()
    with serve(lambda path, payload, n: (503, {"error": "busy"})) as (server, url):
        backend = backend_type("remote", url, max_retries=3, backoff=0.5)
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
        call(backend_type("remote", url.replace("http://", "http://user:p%40ss@") + "v1?key=1", backoff=0.01))
    assert server.requests[0][0] == "/v1?key=1"
    assert server.headers[0]["Authorization"] == "Basic dXNlcjpwQHNz"  # base64 of "user:p@ss"


def test_https_endpoint_speaks_tls(sleeps):
    with serve(lambda path, payload, n: (200, NLI[2])) as (server, url):
        backend = HttpNliBackend("remote", url.replace("http://", "https://"), max_retries=1, backoff=0.01)
        with pytest.raises(BackendError, match="after 2 attempts"):
            NLI[1](backend)
    assert server.requests == []
    assert len(sleeps) == 1


def test_cli_imports_no_third_party_http_library():
    code = "import concernminer.cli, sys; assert 'requests' not in sys.modules and 'urllib3' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)
