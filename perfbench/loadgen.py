"""Device-side load for the served workloads (one asyncio process).

``serve_open`` is an open loop: session ``i`` is due at ``i / RATE``
seconds and its latency counts from that due time, so a stall shows in
every session queued behind it.  At most ``IN_FLIGHT`` sessions run at
once; a session whose slot is not free when due starts late, and the
lateness is reported.  ``data_echo`` is a closed loop over one
established channel: the next window is sent when the previous one has
been echoed and checked.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Dict, List, Optional

from common import STATUS_SESSION
from repro.server import (
    DeviceClient,
    Endpoint,
    channel_from_frame,
    encode_frame,
    fetch_status,
    run_behavior,
)

perf_counter = time.perf_counter

#: Offered session rate (sessions/s) and the in-flight cap of ``serve_open``.
RATE = 8.0
IN_FLIGHT = 2

#: Share of ``serve_open`` sessions that continue into a secure echo.
SECURE_SHARE = 0.3

#: Probing rounds every served session requests.
ROUNDS = 96

#: Records per ``data_echo`` window and bytes per record.
WINDOW = 64
RECORD_BYTES = 64

#: Client-side budget for any one await on the server.
TIMEOUT_S = 30.0


def open_labels(seconds: int) -> List[str]:
    """The fixed episode list of ``serve_open`` (``RATE`` per second)."""
    return [f"open-{i}" for i in range(int(RATE * seconds))]


def open_plan(seed: int, labels: List[str]) -> List[tuple]:
    """Seeded arrival order and behaviour of the fixed label list:
    exactly ``SECURE_SHARE`` of the sessions run ``secure-echo``."""
    rng = random.Random(seed)
    n_secure = round(SECURE_SHARE * len(labels))
    behaviors = ["secure-echo"] * n_secure + ["normal"] * (len(labels) - n_secure)
    rng.shuffle(behaviors)
    order = list(labels)
    rng.shuffle(order)
    return list(zip(order, behaviors))


def result_matches(frame: Optional[dict], expected: dict) -> bool:
    """A delivered result frame agrees with the library's outcome."""
    return (
        frame is not None
        and frame.get("type") == "result"
        and frame.get("success") == expected["success"]
        and frame.get("key_digest") == expected["key_digest"]
        and frame.get("failure_reason") == expected["failure_reason"]
    )


async def serve_open(port: int, seed: int, seconds: int, tracer=None) -> Dict:
    """Run the open loop; returns per-session records (unchecked)."""
    endpoint = Endpoint(port=port)
    plan = open_plan(seed, open_labels(seconds))
    slots = asyncio.Semaphore(IN_FLIGHT)
    t0 = perf_counter() + 0.1

    async def session(index: int, label: str, behavior: str) -> dict:
        due = t0 + index / RATE
        await asyncio.sleep(max(0.0, due - perf_counter()))
        async with slots:
            began = perf_counter()
            outcome = await run_behavior(
                endpoint, behavior, label, episode=label, rounds=ROUNDS, timeout_s=TIMEOUT_S
            )
            end = perf_counter()
        if tracer is not None:
            tracer.spans.append((tracer._new_id(), None, "client.session", label, began, end, 0.0))
        return {
            "label": label,
            "behavior": behavior,
            "kind": outcome.kind,
            "frame": outcome.frame,
            "detail": outcome.detail,
            "late_s": began - due,
            "latency_s": end - due,
            "end": end,
        }

    tasks = [asyncio.create_task(session(i, *item)) for i, item in enumerate(plan)]
    records = await asyncio.gather(*tasks)
    wall = max(r["end"] for r in records) - t0
    return {"records": records, "wall_s": wall}


async def data_echo(port: int, seed: int, seconds: int, tracer=None) -> Dict:
    """Echo 64-byte records in windows of 64 over one established channel."""
    endpoint = Endpoint(port=port)
    client = None
    for attempt in range(32):
        # Set-up, not measured: establish until a session agrees a key
        # (the fixed label sequence makes this the same session every run).
        label = f"echo-{attempt}"
        client = DeviceClient(
            endpoint, label, episode=label, rounds=ROUNDS, timeout_s=TIMEOUT_S, data=True
        )
        await client.connect()
        answer = await client.hello()
        if answer is not None and answer.get("type") == "welcome":
            await client.send({"type": "start"})
            verdict = await client.recv()
            if verdict is not None and verdict.get("success") and verdict.get("channel"):
                break
        await client.close()
        client = None
    if client is None:
        raise RuntimeError("no echo session agreed a key")
    channel = channel_from_frame(verdict["channel"])
    rng = random.Random(seed)
    pool = [rng.randbytes(RECORD_BYTES) for _ in range(WINDOW * 8)]
    latencies, verified, answered = [], 0, 0
    start = perf_counter()
    deadline = start + seconds
    window = 0
    try:
        while perf_counter() < deadline:
            offset = (window % 8) * WINDOW
            plaintexts = pool[offset : offset + WINDOW]
            began = perf_counter()
            # The whole window goes out in one write, as a device would
            # pipeline a burst; the server drains it in batched passes.
            client._writer.write(
                b"".join(
                    encode_frame({"type": "secure", "record": record.hex()})
                    for record in channel.seal_records(plaintexts)
                )
            )
            await client._writer.drain()
            replies = [await client.recv() for _ in range(WINDOW)]
            complete = all(r is not None and r.get("type") == "secure" for r in replies)
            opened = (
                channel.open_records([bytes.fromhex(r["record"]) for r in replies])
                if complete
                else []
            )
            end = perf_counter()
            latencies.append(end - began)
            answered += complete
            verified += complete and [o.plaintext for o in opened if o.ok] == plaintexts
            if tracer is not None:
                tracer.spans.append(
                    (tracer._new_id(), None, "client.window", str(window), began, end, float(WINDOW))
                )
            window += 1
        wall = perf_counter() - start
        await client.send({"type": "bye"})
    finally:
        await client.close()
    return {
        "latencies": latencies,
        "wall_s": wall,
        "attempted": len(latencies),
        "correct": verified,
        "succeeded": verified,
        "answered": answered,
    }


async def status(port: int) -> dict:
    """The server's ``status`` counters (empty when it did not answer)."""
    frame = await fetch_status(Endpoint(port=port), session_id=STATUS_SESSION)
    return frame["metrics"] if frame else {}


def trace_client(tracer) -> None:
    """Mark the moment each session's ``start`` frame is sent."""
    send = DeviceClient.send

    async def traced_send(self, payload: dict) -> None:
        await send(self, payload)
        if payload.get("type") == "start":
            tracer.mark("client.start_sent", self.session_id)

    DeviceClient.send = traced_send
