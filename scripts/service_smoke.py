#!/usr/bin/env python3
"""End-to-end smoke test of ``repro serve`` over a real socket.

Boots the service as a subprocess, submits a preset over HTTP, follows
the run to completion, and asserts the service's archived document is
byte-identical to what ``repro scenario --preset ... --json`` prints for
the same spec and seed — the contract docs/service.md promises.  Also
exercises the SSE stream, the archive query route, malformed-request
handling and a kept-alive connection (no request after the first may take
over 20 ms).  Stdlib only; exits non-zero with a diagnostic on any failure.

Usage: PYTHONPATH=src python scripts/service_smoke.py [--preset NAME]
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path
from urllib.parse import urlparse

REPO = Path(__file__).resolve().parent.parent
ANNOUNCE = re.compile(r"listening on (http://[^ ]+) \(archive: (.+)\)")
#: Slowest a kept-alive request after the first may be, seconds.
KEEPALIVE_LIMIT_S = 0.020


def fail(message: str) -> "NoReturn":  # noqa: F821 - py3.11 typing
    print(f"service smoke FAILED: {message}", file=sys.stderr)
    raise SystemExit(1)


def get(url: str, expect: int = 200) -> bytes:
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.read()
    except urllib.error.HTTPError as exc:
        if exc.code == expect:
            return exc.read()
        fail(f"GET {url} -> {exc.code}, expected {expect}")


def post_json(url: str, payload, expect: int = 202) -> dict:
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            raw, code = response.read(), response.status
    except urllib.error.HTTPError as exc:
        raw, code = exc.read(), exc.code
    if code != expect:
        fail(f"POST {url} -> {code}, expected {expect}: {raw[:300]!r}")
    return json.loads(raw)


def wait_for_announce(process: subprocess.Popen) -> tuple[str, str]:
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            if process.poll() is not None:
                fail(f"serve exited early with {process.returncode}")
            time.sleep(0.05)
            continue
        match = ANNOUNCE.search(line)
        if match:
            return match.group(1), match.group(2)
    fail("serve never announced its address")


def check_keepalive(base: str) -> None:
    """10 x ``GET /health`` and one ``GET /runs`` on one connection."""
    url = urlparse(base)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=30)
    timings = []
    try:
        for path in ["/health"] * 10 + ["/runs"]:
            start = time.perf_counter()
            conn.request("GET", path)
            response = conn.getresponse()
            response.read()
            timings.append(time.perf_counter() - start)
            if response.status != 200:
                fail(f"kept-alive GET {path} -> {response.status}")
    finally:
        conn.close()
    slowest = max(timings[1:])
    if slowest > KEEPALIVE_LIMIT_S:
        fail(f"a kept-alive request took {slowest * 1e3:.1f} ms (limit "
             f"{KEEPALIVE_LIMIT_S * 1e3:.0f} ms): "
             f"{[round(t * 1e3, 1) for t in timings]}")


def wait_done(base: str, run_id: str) -> dict:
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        envelope = json.loads(get(f"{base}/runs/{run_id}"))
        if envelope["status"] == "done":
            return envelope
        if envelope["status"] == "failed":
            fail(f"run failed: {envelope.get('error')}")
        time.sleep(0.2)
    fail(f"run {run_id} did not finish in time")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="coupled-core")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        runs_dir = str(Path(tmp) / "runs")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--runs-dir", runs_dir],
            cwd=REPO, env={**os.environ, "PYTHONPATH": "src"},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        try:
            base, announced_dir = wait_for_announce(process)
            print(f"service up at {base} (archive: {announced_dir})")

            health = json.loads(get(f"{base}/health"))
            if health["status"] != "ok":
                fail(f"health reported {health}")
            check_keepalive(base)

            # Malformed requests must 400, not crash the service.
            post_json(f"{base}/runs", {"preset": "no-such-preset"},
                      expect=400)
            post_json(f"{base}/runs", {"preset": args.preset,
                                       "overrides": {"bogus": 1}},
                      expect=400)

            accepted = post_json(f"{base}/runs", {"preset": args.preset})
            run_id = accepted["run_id"]
            print(f"submitted {args.preset} as {run_id}")
            wait_done(base, run_id)

            served = get(f"{base}/runs/{run_id}/document").decode("utf-8")
            archived = (Path(runs_dir) / f"{run_id}.json").read_text(
                encoding="utf-8")
            if served != archived:
                fail("served document differs from the archived file")

            # The SSE stream must replay snapshots and end cleanly.
            stream = get(f"{base}/runs/{run_id}/events").decode("utf-8")
            if "event: end" not in stream:
                fail("SSE stream did not terminate with an end event")

            listed = json.loads(get(f"{base}/runs?preset={args.preset}"))
            if not any(entry["run_id"] == run_id
                       for entry in listed["runs"]):
                fail("archive query did not list the finished run")
        finally:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()

        cli = subprocess.run(
            [sys.executable, "-m", "repro", "scenario",
             "--preset", args.preset, "--json"],
            cwd=REPO, env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True, text=True)
        if cli.returncode != 0:
            fail(f"CLI run failed: {cli.stderr[-500:]}")
        if cli.stdout != archived:
            fail("CLI --json output is not byte-identical to the "
                 "service-archived document")

        document = json.loads(archived)
        print(f"OK: service, archive and CLI agree byte-for-byte "
              f"(schema_version={document['schema_version']}, "
              f"{len(archived)} bytes, "
              f"{document['events_processed']} events)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
