"""Chat-completions backends: the HTTP client and a scripted mock.

Wire contract: POST ``{model, messages, temperature, top_p, max_tokens}``
and read ``choices[0].message.content``, a string, from the response.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import TYPE_CHECKING

from .._http import HttpBackend, post_json
from .._jsonl import checked, read_json
from ..errors import BackendError, ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from .classify import PromptMessages, SamplingSettings


class HttpLlmBackend(HttpBackend):
    """Client for any chat-completions-compatible serving endpoint."""

    def complete(self, prompt: "PromptMessages", settings: "SamplingSettings", *, tag: str | None = None) -> str:
        payload = {
            "model": self.name,
            "messages": [
                {"role": "system", "content": prompt.system},
                {"role": "user", "content": prompt.user},
            ],
            "temperature": settings.temperature,
            "top_p": settings.top_p,
            "max_tokens": settings.max_response_tokens,
        }
        body = post_json(self, payload)
        try:
            return checked("content", "str", body["choices"][0]["message"]["content"])
        except (KeyError, IndexError, TypeError, ValidationError) as exc:
            raise BackendError(f"{self.name}: malformed completion response {body!r}: {exc}") from None


UNSCRIPTED_RESPONSE = "no"  # the mock's answer for a review its script does not name


def _parse_llm_script(raw: dict) -> dict[str, list[str]]:
    return {
        review_id: [checked(f"a response to {review_id!r}", "str", r) for r in checked(f"the responses to {review_id!r}", "list", rs)]
        for review_id, rs in checked("script", "dict", raw).items()
    }


def load_llm_script(path: str | Path) -> dict[str, list[str]]:
    """Read a mock script: JSON object mapping review id -> canned responses."""
    return read_json(Path(path), _parse_llm_script)


class MockLlmBackend:
    """Deterministic offline completions driven by a per-review script.

    The ``tag`` passed by the classifier (the review id) selects the response
    list; successive calls for the same review walk the list, cycling if the
    sample count exceeds its length. Unknown or missing tags get
    ``UNSCRIPTED_RESPONSE``.
    """

    def __init__(self, script: dict[str, list[str]] | None = None, *, name: str = "mock-llm"):
        self.name = name
        self.script = script or {}
        self.calls = 0
        self._cursor: dict[str, int] = {}
        self._lock = threading.Lock()

    def complete(self, prompt: "PromptMessages", settings: "SamplingSettings", *, tag: str | None = None) -> str:
        with self._lock:
            self.calls += 1
            responses = self.script.get(tag) if tag is not None else None
            if not responses:
                return UNSCRIPTED_RESPONSE
            index = self._cursor.get(tag, 0)
            self._cursor[tag] = index + 1
            return responses[index % len(responses)]
