"""The ``service-smoke`` CI job: serve, storm, drain.

Run with the package importable; the port file is written in the
working directory unless a path is given::

    python ci/service_smoke.py [PORT_FILE]

It starts ``python -m repro.cli serve`` with a fault-storm profile and
checks over HTTP that mixed kernels answer correctly and concurrently,
that a degraded batch names its incomplete item, that a storm on one
profile opens its breaker while the default profile keeps serving, and
that SIGTERM mid-load drains every admitted request and exits 0. A
failed check raises AssertionError (exit 1); a passing run prints one
line.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Tuple


def post(
    base: str, kernel: str, body: Dict[str, Any], timeout: float = 60
) -> Tuple[int, Dict[str, Any]]:
    request = urllib.request.Request(
        f"{base}/v1/{kernel}", data=json.dumps(body).encode(), method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def check_service(port_file: str) -> None:
    """Serve, storm and drain one gateway process."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port", "0", "--port-file", port_file,
         "--profile", "storm:tr_fault_rate=0.2,seed=11",
         "--retry-attempts", "2", "--workers", "1"],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not os.path.exists(port_file):
            assert proc.poll() is None, "serve died on startup"
            assert time.monotonic() < deadline, "no port file"
            time.sleep(0.1)
        with open(port_file) as fh:
            base = f"http://127.0.0.1:{int(fh.read())}"

        # 1. Mixed kernels answer correctly and concurrently.
        results: Dict[str, Tuple[int, Dict[str, Any]]] = {}

        def fire(name: str, kernel: str, body: Dict[str, Any]) -> None:
            results[name] = post(base, kernel, body)

        threads = [
            threading.Thread(target=fire, args=args) for args in [
                ("add", "add",
                 {"payload": {"words": [13, 200, 7], "n_bits": 8}}),
                ("mult", "multiply",
                 {"payload": {"a": 173, "b": 219, "n_bits": 8}}),
                ("pop", "popcount",
                 {"payload": {"bits": [1, 0, 1, 1]}}),
            ]
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert results["add"][1]["result"]["sum"] == 220, results
        assert results["mult"][1]["result"]["product"] == 37887
        assert results["pop"][1]["result"]["count"] == 3

        # 2. A degraded batch names its incomplete items.
        status, body = post(base, "add", {"payload": {"items": [
            {"words": [1, 2], "n_bits": 4},
            {"words": "broken"},
        ]}})
        assert status == 200 and body["status"] == "degraded", body
        assert body["incomplete"] == [
            {"index": 1, "reason": "bad_request"}], body

        # 3. A fault storm on one profile opens its breaker while the
        #    default profile keeps serving.
        saw_open = False
        for _ in range(20):
            status, body = post(
                base, "add", {"payload": {"words": [3, 4], "n_bits": 8},
                              "profile": "storm"})
            if body.get("error") == "breaker_open":
                saw_open = True
                break
        assert saw_open, "storm breaker never opened"
        status, body = post(
            base, "add", {"payload": {"words": [3, 4], "n_bits": 8}})
        assert body["status"] == "ok", body
        with urllib.request.urlopen(f"{base}/readyz", timeout=10) as reply:
            ready = json.loads(reply.read())
        assert ready["ready"] is True, ready

        # 4. SIGTERM mid-load drains every admitted request, exit 0.
        drained: List[Tuple[int, Dict[str, Any]]] = []

        def late() -> None:
            drained.append(post(
                base, "add", {"payload": {"words": [5, 6], "n_bits": 8}}))

        late_threads = [threading.Thread(target=late) for _ in range(4)]
        for thread in late_threads:
            thread.start()
        time.sleep(0.2)
        proc.send_signal(signal.SIGTERM)
        for thread in late_threads:
            thread.join(120)
        out, _ = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, (proc.returncode, out)
    assert "drained clean" in out, out
    assert len(drained) == 4
    assert all(b["status"] == "ok" for _, b in drained), drained


def main(argv: List[str]) -> int:
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    check_service(argv[0] if argv else "port.txt")
    print("service smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
