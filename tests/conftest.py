from __future__ import annotations

import contextlib
import functools
import http.server
import importlib.util
import io
import json
import logging
import sys
import threading
import time
from pathlib import Path

import pytest

SCENARIOS_ROOT = Path(__file__).resolve().parent.parent / "scenarios"
REPO = SCENARIOS_ROOT.parent
# The seed the generated benchmark workloads are counted at.
COUNTED_SEED = 5


@pytest.fixture
def scenarios_root() -> Path:
    return SCENARIOS_ROOT


@pytest.fixture(scope="session")
def workload_counts():
    """``scripts/role_counts.py``'s JSON output for a benchmark workload (a
    generated one at COUNTED_SEED), run over ``src/`` at most once per
    session."""
    spec = importlib.util.spec_from_file_location("role_counts", REPO / "scripts" / "role_counts.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    @functools.cache
    def counts(workload: str) -> dict:
        argv = ["--src", str(REPO / "src"), "--workload", workload, "--seed", f"{COUNTED_SEED}"]
        with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(io.StringIO()) as out:
            # The script extends sys.path, sys.modules and the package
            # logger's handlers for its process; undo all three here.
            patch.setattr(sys, "path", list(sys.path))
            patch.setattr(logging.getLogger("sum2act"), "handlers", [])
            for name in ("perfbench_workloads", "perfbench_tracing"):
                patch.setitem(sys.modules, name, None)
            assert script.main(argv) == 0
        return json.loads(out.getvalue())

    return counts


class ScriptedHTTPServer:
    """Local HTTP stub replying from an ordered (status, body) or
    (status, body, headers) script; the last entry repeats once the script
    is exhausted. A scripted header replaces the default of the same name
    (``Content-Type: application/json`` and the body's ``Content-Length``). ``delay`` seconds pass before the headers are sent and
    ``stall`` seconds between the headers and the body. ``paths`` keeps the
    path of every request, ``bodies`` the raw bytes of every request body,
    ``headers`` the headers of every request and ``clients`` the client
    address of every request, in arrival order.
    It speaks HTTP/1.1, so a client may send many requests over one
    connection, and the distinct ``clients`` count the connections. Requests
    may arrive from many threads at once: ``calls``, ``paths``, ``bodies``,
    ``headers`` and ``clients`` are updated under one lock."""

    def __init__(self, script: list[tuple], delay: float = 0.0, stall: float = 0.0):
        self.script = list(script)
        self.calls = 0
        self.paths: list[str] = []
        self.bodies: list[bytes] = []
        self.headers: list[dict[str, str]] = []
        self.clients: list[tuple[str, int]] = []
        self.delay = delay
        self.stall = stall
        self.lock = threading.Lock()
        outer = self

        class Handler(http.server.BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # With Nagle on, the body segment waits for the client's delayed
            # ACK of the headers, about 45 ms per call.
            disable_nagle_algorithm = True

            def _respond(self) -> None:
                if outer.delay:
                    time.sleep(outer.delay)
                with outer.lock:
                    outer.paths.append(self.path)
                    outer.headers.append(dict(self.headers))
                    outer.clients.append(self.client_address)
                    index = min(outer.calls, len(outer.script) - 1)
                    outer.calls += 1
                status, body, *extra = outer.script[index]
                data = body.encode("utf-8")
                self.send_response(status)
                headers = {
                    "Content-Type": "application/json", "Content-Length": str(len(data)),
                    **(extra[0] if extra else {}),
                }
                for name, value in headers.items():
                    self.send_header(name, value)
                self.end_headers()
                if outer.stall:
                    time.sleep(outer.stall)
                try:
                    self.wfile.write(data)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # the client stopped reading a long body

            def do_GET(self) -> None:
                self._respond()

            def do_POST(self) -> None:
                length = int(self.headers.get("Content-Length", 0))
                body = self.rfile.read(length)
                with outer.lock:
                    outer.bodies.append(body)
                self._respond()

            def log_message(self, *args) -> None:
                pass

        self.server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # shutdown() waits for the loop to wake, at most one poll interval.
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self.thread.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server.server_address[1]}"

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def http_stub():
    servers: list[ScriptedHTTPServer] = []

    def start(script: list[tuple], delay: float = 0.0, stall: float = 0.0) -> ScriptedHTTPServer:
        server = ScriptedHTTPServer(script, delay=delay, stall=stall)
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.stop()
