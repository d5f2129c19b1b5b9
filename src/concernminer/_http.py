"""The one JSON-over-HTTP client under both model backends, on the standard
library's ``http.client``: one kept-alive connection per thread, one retry
policy, one locked call count. Before a kept-alive socket carries a request,
a non-blocking check finds whether the server has closed it, so a server's
idle timeout costs a reconnect, not a retry.
Each backend calls :func:`post_json` through the name its own module imports,
so a wrapper put on that name sees every request.
"""

from __future__ import annotations

import base64
import functools
import http.client
import json
import logging
import random
import select
import threading
import time
import weakref
from urllib.parse import SplitResult, unquote, urlsplit, urlunsplit

from .errors import BackendError, ValidationError

logger = logging.getLogger(__name__)

# Backoff jitter draws from its own generator, so retries leave the global
# random state untouched.
_jitter = random.Random()


def split_endpoint(endpoint: str) -> SplitResult | None:
    """The parts of an ``http://`` or ``https://`` URL that names a host, or
    ``None`` for anything else."""
    try:
        parts = urlsplit(endpoint)
        # .port raises ValueError for a port that is not a number below 65536
        valid = parts.scheme in ("http", "https") and bool(parts.hostname) and parts.port != 0
    except ValueError:
        return None
    return parts if valid else None


def post_json(
    url: str,
    payload: dict,
    *,
    connection: http.client.HTTPConnection,
    target: str,
    headers: dict[str, str],
    max_retries: int = 3,
    backoff: float = 0.5,
) -> dict:
    """POST ``payload`` as JSON to ``target`` over ``connection`` and return
    the decoded JSON object; ``url`` names the endpoint in errors.

    Retries transport errors and 5xx/429 responses ``max_retries`` times,
    sleeping a uniform draw from ``[0, backoff * 2**attempt]`` between
    attempts, then raises :class:`BackendError`. Any other non-2xx status and
    a malformed 2xx body raise it at once.
    """
    try:
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
    except ValueError as exc:
        raise BackendError(f"POST {url}: payload is not valid JSON: {exc}") from None
    failure: object = None
    for attempt in range(max_retries + 1):
        try:
            sock = connection.sock
            if sock is not None and select.select([sock], [], [], 0)[0]:
                # An idle kept-alive socket that reads as ready was closed by
                # the server (or holds bytes nobody asked for): reconnect.
                connection.close()
            connection.request("POST", target, body, headers)
            response = connection.getresponse()
            status, data = response.status, response.read()  # read to the end: the connection stays reusable
        except (OSError, http.client.HTTPException) as exc:
            connection.close()
            failure = exc
        else:
            if 200 <= status < 300:
                try:
                    decoded = json.loads(data)
                except ValueError:
                    decoded = None
                if not isinstance(decoded, dict):
                    raise BackendError(f"POST {url} returned a malformed response, not a JSON object: {data[:200]!r}")
                return decoded
            if status != 429 and not 500 <= status < 600:
                raise BackendError(f"POST {url} rejected with HTTP {status}, not retried")
            failure = f"HTTP {status}"
        if attempt < max_retries:
            delay = _jitter.uniform(0, backoff * 2**attempt)
            logger.debug("POST %s failed (%s), retrying in %.2fs", url, failure, delay)
            time.sleep(delay)
    raise BackendError(f"POST {url} failed after {max_retries + 1} attempts: {failure}")


def _close_all(connections: list[http.client.HTTPConnection]) -> None:
    for connection in connections:
        connection.close()


class HttpBackend:
    """Endpoint, retry policy, per-thread connection and call count of an
    HTTP model backend."""

    def __init__(self, name: str, endpoint: str, *, timeout: float, max_retries: int, backoff: float):
        parts = split_endpoint(endpoint)
        if parts is None:
            raise ValidationError(f"backend {name!r}: {endpoint!r} is not an http:// or https:// URL with a host")
        self.name = name
        self.endpoint = endpoint
        self.calls = 0
        kind = http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
        self._connect = functools.partial(kind, parts.hostname, parts.port, timeout=timeout)
        headers = {"Content-Type": "application/json"}
        if parts.username is not None:  # credentials in the URL go out as HTTP Basic auth
            credentials = f"{unquote(parts.username)}:{unquote(parts.password or '')}".encode("latin-1")
            headers["Authorization"] = "Basic " + base64.b64encode(credentials).decode("ascii")
        target = urlunsplit(("", "", parts.path or "/", parts.query, ""))
        self._options = {"target": target, "headers": headers, "max_retries": max_retries, "backoff": backoff}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._connections: list[http.client.HTTPConnection] = []
        # Every thread's connection is closed when the backend is collected,
        # not left to the socket's own finalizer, which warns under -X dev.
        weakref.finalize(self, _close_all, self._connections)

    def _post_options(self) -> dict:
        """Count one call and return the keyword arguments of
        :func:`post_json` for it: the retry policy and this thread's connection."""
        with self._lock:
            self.calls += 1
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = self._connect()
            self._connections.append(connection)
        return {"connection": connection, **self._options}
