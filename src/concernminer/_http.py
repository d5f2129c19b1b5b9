"""Small JSON-over-HTTP POST helper with exponential backoff."""

from __future__ import annotations

import logging
import time

import requests

from .errors import BackendError

logger = logging.getLogger(__name__)


def post_json(
    url: str,
    payload: dict,
    *,
    timeout: float,
    max_retries: int = 3,
    backoff: float = 0.5,
    session: requests.Session | None = None,
) -> dict:
    """POST ``payload`` and return the decoded JSON body.

    Retries transport errors and 5xx/429 responses ``max_retries`` times with
    exponential backoff, then raises :class:`BackendError`; any other 4xx
    raises it at once.
    """
    sess = session or requests
    last_error: Exception | None = None
    for attempt in range(max_retries + 1):
        try:
            response = sess.post(url, json=payload, timeout=timeout)
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
