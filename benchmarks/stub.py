"""Loopback stub for the NLI and chat-completions wire contracts.

Run as its own process: ``python3 benchmarks/stub.py --seed N --nli-name NAME
--llm-table FILE``. It prints ``PORT <n>`` on its first stdout line and
serves until terminated.

- ``POST /nli`` answers with the scores ``MockNliBackend`` gives for the same
  seed and backend name, so HTTP-scored cells match mock-scored ones.
  Requests carry the hypothesis text only; where two hypotheses share a text
  (ids 10 and 11 of ``builtin:domain-mh``) the lower id's jitter is used.
  Those cells are untriggered, so labels are unaffected.
- ``POST /llm`` answers from the reply table (review text -> replies),
  walking each review's list on successive calls.
- ``POST /stats`` returns the per-route request counts received since the
  last ``/stats`` call, then resets the counts and reply cursors.

Connections are kept alive (HTTP/1.1) with Nagle's algorithm disabled, and
every response goes out in one write: with Nagle on, the split header/body
writes of ``BaseHTTPRequestHandler`` stall on delayed ACKs.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from concernminer.hypotheses import resolve_hypothesis_set
from concernminer.nli.backends import MockNliBackend

from generator import HYPOTHESIS_SET


class StubState:
    def __init__(self, nli: MockNliBackend, hypotheses: dict, replies: dict[str, list[str]]):
        self.nli = nli
        self.hypotheses = hypotheses
        self.replies = replies
        self._lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        self.counts = {"nli": 0, "llm": 0}
        self.cursor: dict[str, int] = {}

    def respond(self, route: str, payload: dict) -> tuple[int, dict]:
        if route == "/stats":
            with self._lock:
                counts = self.counts
                self._reset()
            return 200, counts
        if route == "/nli":
            with self._lock:
                self.counts["nli"] += 1
            score = self.nli.score_pair(payload["premise"], self.hypotheses[payload["hypothesis"]])
            return 200, {"entailment": score.entail, "neutral": score.neutral, "contradiction": score.contradict}
        if route == "/llm":
            text = payload["messages"][-1]["content"]
            with self._lock:
                self.counts["llm"] += 1
                index = self.cursor.get(text, 0)
                self.cursor[text] = index + 1
            replies = self.replies[text]
            return 200, {"choices": [{"message": {"role": "assistant", "content": replies[index % len(replies)]}}]}
        return 404, {"error": f"no route {route}"}


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length)) if length else {}
        status, body = self.server.state.respond(self.path, payload)
        data = json.dumps(body).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + data)

    def log_message(self, *args):
        pass


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--nli-name", required=True)
    parser.add_argument("--llm-table", type=Path, required=True)
    args = parser.parse_args()

    hypotheses = {}
    for hyp in resolve_hypothesis_set(HYPOTHESIS_SET).hypotheses:
        hypotheses.setdefault(hyp.text, hyp)
    replies = json.loads(args.llm_table.read_text(encoding="utf-8"))
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    server.state = StubState(MockNliBackend(args.nli_name, seed=args.seed), hypotheses, replies)
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    sys.exit(main())
