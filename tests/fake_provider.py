"""A scripted model provider on a loopback socket, for the provider tests.

One ``ThreadingHTTPServer`` on ``127.0.0.1`` serves both request schemas of
docs/providers.md: a body with ``input`` gets an embedding, a body with
``messages`` gets a chat completion.  Every request is recorded.  Faults are
scripted per request with ``script``; a request with no scripted reply gets
the normal answer.

This module is kept apart from ``helpers.py`` so that the benchmark, which
imports ``helpers``, never loads ``http.server``.
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np


@dataclass(frozen=True)
class Reply:
    """One scripted answer: a ``status`` with ``body`` (JSON) or ``raw`` bytes.

    ``drop`` closes the connection without a response.  ``hold`` keeps the
    request open that many seconds first; ``body=None`` and ``raw=None`` send
    the normal answer.
    """

    status: int = 200
    body: object = None
    raw: bytes | None = None
    drop: bool = False
    hold: float = 0.0


class FakeProvider:
    def __init__(self, dimension: int = 32, message="apply the provider fix"):
        self.dimension = dimension
        # The chat answer: a string, or a function of the prompt.
        self.message = message
        self.requests: list[dict] = []  # {"path", "headers", "payload"} in arrival order
        self.active = 0
        self.peak = 0  # most requests open at once
        self._replies: list[Reply] = []
        self._lock = threading.Lock()
        self._released = threading.Event()  # set on close, so no hold outlives the server
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _handler(self))
        self._server.daemon_threads = True
        self._server.handle_error = lambda *_: None  # a client that hung up is not a failure
        threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        ).start()

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def embeds(self) -> int:
        return sum("input" in r["payload"] for r in self.requests)

    @property
    def generations(self) -> int:
        return sum("messages" in r["payload"] for r in self.requests)

    def script(self, *replies: Reply) -> None:
        """Answer the next requests with ``replies``, one each, in order."""
        with self._lock:
            self._replies.extend(replies)

    def config(self, path, model: str = "e", dimension: int | None = None, inflight=None):
        """Write a provider config file for this server; return its path."""
        values = {
            "embed": {"endpoint": f"{self.url}/embed", "model": model,
                      "dimension": self.dimension if dimension is None else dimension},
            "gen": {"endpoint": f"{self.url}/gen", "model": "g"},
        }
        if inflight is not None:
            values["concurrency"] = {"inflight": inflight}
        path.write_text(json.dumps(values))
        return path

    def close(self) -> None:
        self._released.set()
        self._server.shutdown()
        self._server.server_close()

    def _answer(self, payload) -> object:
        if "input" in payload:
            seed = hashlib.sha256(payload["input"].encode("utf-8")).digest()
            vector = np.random.default_rng(list(seed)).standard_normal(self.dimension)
            return {"data": [{"embedding": vector.tolist()}]}
        prompt = payload["messages"][0]["content"]
        text = self.message(prompt) if callable(self.message) else self.message
        return {"choices": [{"message": {"content": text}}]}

    def _serve(self, handler: BaseHTTPRequestHandler) -> None:
        length = int(handler.headers.get("Content-Length", 0))
        payload = json.loads(handler.rfile.read(length))
        with self._lock:
            self.requests.append(
                {"path": handler.path, "headers": dict(handler.headers), "payload": payload}
            )
            reply = self._replies.pop(0) if self._replies else Reply()
            self.active += 1
            self.peak = max(self.peak, self.active)
        self._released.wait(reply.hold)
        with self._lock:
            # Counted closed before the answer leaves, while the client still waits.
            self.active -= 1
        if reply.drop:
            handler.close_connection = True
            return
        if reply.raw is not None:
            data = reply.raw
        else:
            body = self._answer(payload) if reply.body is None else reply.body
            data = json.dumps(body).encode("utf-8")
        handler.send_response(reply.status)
        handler.send_header("Content-Type", "application/json")
        handler.send_header("Content-Length", str(len(data)))
        handler.end_headers()
        handler.wfile.write(data)


def _handler(fake: FakeProvider) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_POST(self):
            fake._serve(self)

        def log_message(self, *args):
            pass

    return Handler


def closed_port_url() -> str:
    """A loopback URL on which nothing listens: every connect is refused."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"
