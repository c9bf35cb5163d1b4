"""Loopback HTTP/1.1 stand-in for a hosted resolver model.

It answers POST {"prompt": ...} with {"text": ...} from a prompt -> answer
table the generator wrote, after a fixed service time. Rows the table marks
as faults get HTTP 503; prompts missing from the table get an empty answer,
which the evaluation counts as invalid. `serve` runs in a process of its own
and talks to its parent over a pipe: it sends its port, then answers
"stats" (counters since the previous "stats") until it receives "stop".
"""
from __future__ import annotations

import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class _Stats:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        self.connections = 0
        self.requests = 0
        self.service_s: list[float] = []

    def record(self, new_connection: bool, service_s: float) -> None:
        with self._lock:
            self.connections += new_connection
            self.requests += 1
            self.service_s.append(service_s)

    def take(self) -> dict:
        with self._lock:
            snapshot = {
                "connections": self.connections,
                "requests": self.requests,
                "service_s": self.service_s,
            }
            self._reset()
        return snapshot


def _handler(table: dict, service_s: float, stats: _Stats) -> type:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self) -> None:
            super().setup()
            self.fresh = True

        def do_POST(self) -> None:
            start = time.perf_counter()
            body = self.rfile.read(int(self.headers["Content-Length"]))
            prompt = json.loads(body)["prompt"]
            answer, fault = table.get(hashlib.sha256(prompt.encode("utf-8")).hexdigest(), ("", False))
            time.sleep(service_s)
            if fault:
                payload, status = b"overloaded", 503
            else:
                payload, status = json.dumps({"text": answer}).encode("utf-8"), 200
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
            stats.record(self.fresh, time.perf_counter() - start)
            self.fresh = False

        def log_message(self, format: str, *args: object) -> None:
            pass

    return Handler


def serve(table_path: str, service_s: float, conn) -> None:
    with open(table_path, encoding="utf-8") as handle:
        table = json.load(handle)
    stats = _Stats()
    server = ThreadingHTTPServer(("127.0.0.1", 0), _handler(table, service_s, stats))
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        conn.send(server.server_address[1])
        while conn.recv() == "stats":
            conn.send(stats.take())
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
