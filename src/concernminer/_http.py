"""The one JSON-over-HTTP client under both model backends: HTTP/1.1 on plain
sockets, one kept-alive connection per thread, one retry policy, one locked
call count.

A request is the backend's request line and headers, built once, then its
``Content-Length`` and body, sent in one write. A response is read through
the connection's one buffer: a status line and at most ``MAX_HEADERS``
header lines, each at most ``MAX_LINE`` bytes, after any interim 1xx
responses; then a body framed by ``Transfer-Encoding: chunked``, by
``Content-Length``, or by the server closing the connection, in that order.
A 204 or 304 has no body. A response that breaks these rules, or ends early,
is a transport error. Proxies, ``.netrc`` and compressed bodies are not
supported.

Before a kept-alive socket carries a request, a non-blocking check finds
whether the server has closed it or sent bytes nobody asked for; either
costs a reconnect, not a retry. Each backend calls :func:`post_json` through
the name its own module imports, so a wrapper put on that name sees every
request.
"""

from __future__ import annotations

import base64
import json
import logging
import random
import re
import select
import socket
import threading
import time
import weakref
from typing import TYPE_CHECKING
from urllib.parse import SplitResult, unquote, urlsplit, urlunsplit

from .errors import BackendError

if TYPE_CHECKING:
    import ssl

    from .config import LlmBackendConfig, NliBackendConfig

logger = logging.getLogger(__name__)

# Backoff jitter draws from its own generator, so retries leave the global
# random state untouched.
_jitter = random.Random()

MAX_LINE = 65536
MAX_HEADERS = 100
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]{1,16}")


class ResponseError(Exception):
    """A response that breaks HTTP/1.1 framing or ends early."""


def split_endpoint(endpoint: str) -> SplitResult | None:
    """The parts of an ``http://`` or ``https://`` URL that names a host and
    is printable ASCII without spaces, or ``None`` for anything else."""
    try:
        parts = urlsplit(endpoint)
        # .port raises ValueError for a port that is not a number below 65536
        valid = parts.scheme in ("http", "https") and bool(parts.hostname) and parts.port != 0
    except ValueError:
        return None
    return parts if valid and re.fullmatch(r"[!-~]+", endpoint) else None


class Connection:
    """One kept-alive socket to ``host`` and the buffer it is read through,
    opened on first use and again after :meth:`close`; ``tls`` wraps it."""

    def __init__(self, host: str, port: int, timeout: float, tls: ssl.SSLContext | None):
        self._host, self._port, self._timeout, self._tls = host, port, timeout, tls
        self._sock: socket.socket | None = None
        self._buffer = bytearray()

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self._buffer.clear()

    def exchange(self, request: bytes) -> tuple[int, bytes]:
        """Send ``request`` in one write; return the final response's status and body."""
        if self._sock is not None and (self._buffer or select.select([self._sock], [], [], 0)[0]):
            # Bytes after the last response, or an idle socket that reads as
            # ready because the server closed it: reconnect.
            self.close()
        if self._sock is None:
            sock = socket.create_connection((self._host, self._port), self._timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # A failed handshake closes the socket it was given.
            self._sock = sock if self._tls is None else self._tls.wrap_socket(sock, server_hostname=self._host)
        self._sock.sendall(request)
        version, status, headers = self._head()
        while 100 <= status < 200:
            version, status, headers = self._head()
        tokens = {token.strip() for token in headers.get(b"connection", b"").lower().split(b",")}
        keep_alive = b"close" not in tokens and (version == b"HTTP/1.1" or b"keep-alive" in tokens)
        length = headers.get(b"content-length")
        if status in (204, 304):
            body = b""
        elif headers.get(b"transfer-encoding", b"").lower() == b"chunked":
            body = self._chunked()
        elif length is not None:
            if not length.isdigit():
                raise ResponseError(f"bad Content-Length {length[:80]!r}")
            body = self._take(int(length))
        else:
            while self._fill():
                pass
            body, keep_alive = self._take(len(self._buffer)), False
        if not keep_alive:
            self.close()
        return status, body

    def _head(self) -> tuple[bytes, int, dict[bytes, bytes]]:
        """The version, status and headers of one response."""
        line = self._line()
        parts = line.split(None, 2)
        valid = len(parts) > 1 and parts[0] in (b"HTTP/1.0", b"HTTP/1.1") and len(parts[1]) == 3
        if not (valid and parts[1].isdigit()):
            raise ResponseError(f"bad status line {line[:80]!r}")
        return parts[0], int(parts[1]), self._headers()

    def _headers(self) -> dict[bytes, bytes]:
        """Header lines up to the blank line that ends them, by lower-case name."""
        headers = {}
        for _ in range(MAX_HEADERS + 1):
            line = self._line()
            if line in (b"\r\n", b"\n"):
                return headers
            name, _, value = line.partition(b":")
            headers[name.strip().lower()] = value.strip()
        raise ResponseError(f"more than {MAX_HEADERS} header lines")

    def _chunked(self) -> bytes:
        chunks = []
        while True:
            size = self._line().partition(b";")[0].strip()  # a chunk extension follows ";"
            if not _CHUNK_SIZE.fullmatch(size):
                raise ResponseError(f"bad chunk size {size[:80]!r}")
            size = int(size, 16)
            if size == 0:
                break
            chunks.append(self._take(size))
            if self._line() not in (b"\r\n", b"\n"):
                raise ResponseError("chunk longer than its size")
        self._headers()  # trailers, read and ignored
        return b"".join(chunks)

    def _line(self) -> bytes:
        while (end := self._buffer.find(b"\n", 0, MAX_LINE)) < 0:
            if len(self._buffer) >= MAX_LINE:
                raise ResponseError(f"a line longer than {MAX_LINE} bytes")
            if not self._fill():
                raise ResponseError("connection closed before the response ended")
        return self._take(end + 1)

    def _take(self, size: int) -> bytes:
        while len(self._buffer) < size:
            if not self._fill():
                raise ResponseError("connection closed before the response ended")
        data = bytes(self._buffer[:size])
        del self._buffer[:size]
        return data

    def _fill(self) -> bool:
        """Append what the socket has to the buffer; ``False`` at its end."""
        data = self._sock.recv(65536)
        self._buffer += data
        return bool(data)


def post_json(backend: HttpBackend, payload: dict) -> dict:
    """POST ``payload`` as JSON to ``backend``'s endpoint over this thread's
    connection, count the call, and return the decoded JSON object.

    Retries transport errors (a socket error, a timeout, a response that
    breaks the framing rules of this module or ends early) and 5xx/429
    responses ``backend.max_retries`` times, sleeping a uniform draw from
    ``[0, backend.backoff * 2**attempt]`` between attempts, then raises
    :class:`BackendError`. Any other non-2xx status and a 2xx body that is
    not a JSON object raise it at once.
    """
    with backend._lock:
        backend.calls += 1
    url, max_retries, connection = backend.endpoint, backend.max_retries, backend.connection()
    try:
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
    except ValueError as exc:
        raise BackendError(f"POST {url}: payload is not valid JSON: {exc}") from None
    request = b"%s%d\r\n\r\n%s" % (backend.head, len(body), body)
    failure: object = None
    for attempt in range(max_retries + 1):
        try:
            status, data = connection.exchange(request)
        except (OSError, ResponseError) as exc:
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
            delay = _jitter.uniform(0, backend.backoff * 2**attempt)
            logger.debug("POST %s failed (%s), retrying in %.2fs", url, failure, delay)
            time.sleep(delay)
    raise BackendError(f"POST {url} failed after {max_retries + 1} attempts: {failure}")


def _close_all(connections: list[Connection]) -> None:
    for connection in connections:
        connection.close()


class HttpBackend:
    """The name, endpoint, retry policy, per-thread connection and call
    count of an HTTP model backend, built from its config block
    (:class:`~concernminer.config.NliBackendConfig` or
    :class:`~concernminer.config.LlmBackendConfig`), whose endpoint that
    block has checked; ``backoff`` is the first retry's delay bound."""

    def __init__(self, config: NliBackendConfig | LlmBackendConfig, *, backoff: float = 0.5):
        self.name, self.endpoint = config.name, config.endpoint
        self.max_retries, self.backoff = config.max_retries, backoff
        self.calls = 0
        parts = urlsplit(config.endpoint)
        host, default_port = parts.hostname, 443 if parts.scheme == "https" else 80
        port, tls = parts.port or default_port, None
        if parts.scheme == "https":
            import ssl  # here, so that only an https endpoint loads the TLS library

            tls = ssl.create_default_context()
        self._address = (host, port, config.timeout, tls)
        authority = f"[{host}]" if ":" in host else host  # an IPv6 literal
        lines = [
            f"POST {urlunsplit(('', '', parts.path or '/', parts.query, ''))} HTTP/1.1",
            f"Host: {authority}" if port == default_port else f"Host: {authority}:{port}",
            "Accept-Encoding: identity",
            "Content-Type: application/json",
        ]
        if parts.username is not None:  # credentials in the URL go out as HTTP Basic auth
            credentials = f"{unquote(parts.username)}:{unquote(parts.password or '')}".encode("latin-1")
            lines.append("Authorization: Basic " + base64.b64encode(credentials).decode("ascii"))
        # The request line and headers up to the value of Content-Length,
        # which post_json adds with the body.
        self.head = "\r\n".join([*lines, "Content-Length: "]).encode("ascii")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._connections: list[Connection] = []
        # Every thread's connection is closed when the backend is collected,
        # not left to the socket's own finalizer, which warns under -X dev.
        weakref.finalize(self, _close_all, self._connections)

    def connection(self) -> Connection:
        """This thread's connection to the endpoint."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = Connection(*self._address)
            self._connections.append(connection)
        return connection
