"""Open-loop load process for the ``serve-open`` workload.

Protocol (one run): print ``ready`` once imports are done, read one JSON
plan from stdin, send request ``i`` at ``t0 + i * interval_s`` from a
small pool of sender threads (each with its own
``ServiceClient(max_retries=0)``), then print one JSON list with one
record per request: due, sent and done times on the shared monotonic
clock, and the decoded payload or the error.

A request that finds every sender busy goes out late; its latency still
counts from when it was due, so a stall charges the requests behind it.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from repro.service import ServiceClient  # noqa: E402

#: Payload fields the benchmark reads back.
KEEP = ("winner", "score", "exact", "topk", "trace_id", "queue_wait_ms")


def _send(plan: dict, records: list, claim) -> None:
    client = ServiceClient(
        plan["host"], plan["port"], max_retries=0, timeout_s=plan["timeout_ms"] / 1000.0 + 5.0
    )
    while True:
        index = claim()
        if index is None:
            return
        kind, r, k = plan["requests"][index]
        due = plan["t0"] + index * plan["interval_s"]
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        record = {"due": due, "sent": time.monotonic()}
        try:
            if kind == "topk":
                payload = client.topk(r, k, timeout_ms=plan["timeout_ms"])
            else:
                payload = client.query(r, timeout_ms=plan["timeout_ms"])
            record["payload"] = {key: payload[key] for key in KEEP if key in payload}
        except Exception as exc:  # noqa: BLE001 -- every failure is recorded
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["done"] = time.monotonic()
        records[index] = record


def main() -> int:
    print("ready", flush=True)
    plan = json.loads(sys.stdin.readline())
    records: list = [None] * len(plan["requests"])
    lock = threading.Lock()
    cursor = iter(range(len(records)))

    def claim():
        with lock:
            return next(cursor, None)

    senders = [
        threading.Thread(target=_send, args=(plan, records, claim), name=f"sender-{i}")
        for i in range(plan["threads"])
    ]
    for sender in senders:
        sender.start()
    for sender in senders:
        sender.join()
    print(json.dumps(records), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
