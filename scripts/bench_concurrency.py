#!/usr/bin/env python3
"""Time `sum2act bench` at several concurrencies, with every provider call
made to wait as a live model's would.

The scripted provider answers in microseconds, so a plain `bench` shows only
the engine's CPU at any concurrency. Here each scripted call first sleeps
--delay-ms, which the threads of `bench --concurrency N` overlap as they
would overlap live calls. For each concurrency level the script runs `bench`
over --scenario-dir once and prints, as one JSON object, the wall seconds,
the provider calls, the ideal wall time (calls x delay / N) and the sha256 of
report.json, which must not depend on the concurrency.

Run from the repo root; --src picks the source tree to import, so two
revisions can be timed alternately from their own checkouts:

    python scripts/bench_concurrency.py --src src --concurrency 1,2,4,8
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import threading
import time
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="directory holding the sum2act package")
    parser.add_argument("--scenario-dir", default="scenarios")
    parser.add_argument("--methods", default="sum2act,react,dfsdt")
    parser.add_argument("--concurrency", default="1,2,4,8", help="comma-separated levels")
    parser.add_argument("--delay-ms", type=float, default=5.0, help="sleep before each provider call")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(args.src).resolve()))
    from sum2act import cli

    delay = args.delay_ms / 1000
    calls = [0]
    lock = threading.Lock()

    class DelayedProvider(cli.ScriptedProvider):
        def complete(self, request):
            with lock:
                calls[0] += 1
            time.sleep(delay)
            return super().complete(request)

    cli.ScriptedProvider = DelayedProvider
    levels = {}
    with tempfile.TemporaryDirectory() as tmp:
        for level in (int(text) for text in args.concurrency.split(",")):
            out = Path(tmp) / f"c{level}"
            before = calls[0]
            started = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([
                    "bench", "--scenario-dir", args.scenario_dir, "--methods", args.methods,
                    "--concurrency", str(level), "--out", str(out),
                ])
            wall = time.perf_counter() - started
            if code != 0:
                print(f"bench exited {code} at concurrency {level}", file=sys.stderr)
                return code
            made = calls[0] - before
            levels[str(level)] = {
                "wall_s": round(wall, 3),
                "provider_calls": made,
                "ideal_wall_s": round(made * delay / level, 3),
                "report_sha256": hashlib.sha256((out / "report.json").read_bytes()).hexdigest(),
            }
    print(json.dumps({"methods": args.methods, "delay_ms": args.delay_ms, "levels": levels}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
