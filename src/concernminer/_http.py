"""The one JSON-over-HTTP client under both model backends: one
``requests.Session`` per thread, one retry policy, one locked call count.
Each backend calls :func:`post_json` through the name its own module imports,
so a wrapper put on that name sees every request.
"""

from __future__ import annotations

import logging
import threading
import time

import requests

from .errors import BackendError

logger = logging.getLogger(__name__)


def post_json(
    url: str,
    payload: dict,
    *,
    session: requests.Session,
    timeout: float,
    max_retries: int = 3,
    backoff: float = 0.5,
) -> dict:
    """POST ``payload`` through ``session`` and return the decoded JSON body.

    Retries transport errors and 5xx/429 responses ``max_retries`` times with
    exponential backoff, then raises :class:`BackendError`; any other 4xx
    raises it at once.
    """
    last_error: Exception | None = None
    for attempt in range(max_retries + 1):
        try:
            response = session.post(url, json=payload, timeout=timeout)
            if 400 <= response.status_code < 500 and response.status_code != 429:
                raise BackendError(f"POST {url} rejected with HTTP {response.status_code}, not retried")
            response.raise_for_status()  # 5xx and 429: retried below
            return response.json()
        except (requests.RequestException, ValueError) as exc:
            last_error = exc
            if attempt < max_retries:
                delay = backoff * (2**attempt)
                logger.debug("POST %s failed (%s), retrying in %.2fs", url, exc, delay)
                time.sleep(delay)
    raise BackendError(f"POST {url} failed after {max_retries + 1} attempts: {last_error}")


class HttpBackend:
    """Endpoint, retry policy, per-thread session and call count of an
    HTTP model backend."""

    def __init__(self, name: str, endpoint: str, *, timeout: float, max_retries: int, backoff: float):
        self.name = name
        self.endpoint = endpoint
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.calls = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _post_options(self) -> dict:
        """Count one call and return the keyword arguments of
        :func:`post_json` for it: the retry policy and this thread's session."""
        with self._lock:
            self.calls += 1
        session = getattr(self._local, "session", None)
        if session is None:
            session = self._local.session = requests.Session()
        return {"session": session, "timeout": self.timeout, "max_retries": self.max_retries, "backoff": self.backoff}
