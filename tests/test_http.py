"""The HTTP client both model backends share."""

from __future__ import annotations

import threading

import pytest
import requests

from concernminer.hypotheses import builtin_domain_mh
from concernminer.llm import HttpLlmBackend, PromptMessages, SamplingSettings
from concernminer.nli import HttpNliBackend

from httpserver import serve

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


@pytest.mark.parametrize("backend_type, call, body", [NLI, LLM], ids=["nli", "llm"])
def test_one_session_per_thread_and_counted_calls(monkeypatch, backend_type, call, body):
    sessions = []

    class CountingSession(requests.Session):
        def __init__(self):
            super().__init__()
            sessions.append(self)

    monkeypatch.setattr(requests, "Session", CountingSession)
    with serve(lambda path, payload, n: (200, body)) as (server, url):
        backend = backend_type("remote", url, backoff=0.01)
        for _ in range(10):
            call(backend)
        assert len(sessions) == 1
        assert backend.calls == 10

        threaded = backend_type("remote", url, backoff=0.01)
        workers = [threading.Thread(target=call, args=(threaded,)) for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    assert len(sessions) == 3
    assert threaded.calls == 2
    assert len(server.requests) == 12
