"""Minimal threaded JSON HTTP server for exercising the wire contracts."""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class Handler(BaseHTTPRequestHandler):
    """HTTP/1.0: one request per connection. A ``bytes`` body goes out as
    ``text/plain``, anything else as JSON."""

    def do_POST(self):
        status, body = self.dispatch()
        plain = isinstance(body, bytes)
        data = body if plain else json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain" if plain else "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def dispatch(self):
        """Read the request body and return what ``respond`` makes of it."""
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length)) if length else {}
        return self.server.handle_request(self.path, payload, self.headers)

    def log_message(self, *args):
        pass


class KeepAliveHandler(Handler):
    """HTTP/1.1: the connection stays open for the next request. Nagle's
    algorithm is off, or the split header and body writes of each response
    wait on the client's delayed ACK."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True


class SilentCloseHandler(KeepAliveHandler):
    """HTTP/1.1 that closes the connection after each response without a
    ``Connection: close`` header, as a server's idle timeout does."""

    def do_POST(self):
        super().do_POST()
        self.close_connection = True


class RawHandler(KeepAliveHandler):
    """HTTP/1.1 that sends raw bytes: ``respond`` returns ``(close, data)``,
    ``data`` goes out in one write as the whole response, status line and
    headers included, and the connection closes after it when ``close`` is
    true."""

    def do_POST(self):
        close, data = self.dispatch()
        try:
            self.wfile.write(data)
        except OSError:  # the client stopped reading, as it does after a line too long
            close = True
        self.close_connection = close


class RecordingServer(ThreadingHTTPServer):
    """Records every request, its headers and every connection, and
    delegates the response to ``respond``.

    ``respond(path, payload, n)`` gets the 1-based request counter so tests
    can script fail-then-succeed sequences. ``closed`` is released once per
    connection the server has closed.
    """

    # Handler threads of kept-alive connections wait for the client's next
    # request; daemon threads let the server close without joining them.
    daemon_threads = True

    def __init__(self, respond, handler=Handler):
        super().__init__(("127.0.0.1", 0), handler)
        self._respond = respond
        self.requests: list[tuple[str, dict]] = []
        self.headers: list = []
        self.connections = 0
        self.closed = threading.Semaphore(0)
        self._lock = threading.Lock()

    def handle_request(self, path, payload, headers):
        with self._lock:
            self.requests.append((path, payload))
            self.headers.append(headers)
            return self._respond(path, payload, len(self.requests))

    def process_request(self, request, client_address):
        with self._lock:
            self.connections += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.release()


@contextmanager
def serve(respond, handler=Handler):
    server = RecordingServer(respond, handler)
    # shutdown() waits up to one poll interval for serve_forever to notice.
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}/"
    finally:
        server.shutdown()
        server.server_close()
