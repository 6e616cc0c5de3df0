"""Shared plumbing: checkout paths, child processes, statistics.

Every process the benchmark starts is a fresh ``python3`` with
``PYTHONPATH=src`` and ``TMPDIR`` inside the checkout's build directory,
talking to its parent through ``PERFBENCH {json}`` lines on stdout.
``time.perf_counter`` is CLOCK_MONOTONIC on Linux, so timestamps taken in
different processes subtract directly.
"""

from __future__ import annotations

import json
import os
import resource
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Prefix of the protocol lines children print on stdout.
TAG = "PERFBENCH "

#: Session id of the benchmark's own ``status`` scrape.
STATUS_SESSION = "perfbench-status"

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


def work_root() -> Path:
    """The checkout-local build directory (``CARGO_TARGET_DIR`` or
    ``.bench_build``) joined with ``perfbench``; created on demand."""
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    path = base / "perfbench"
    path.mkdir(parents=True, exist_ok=True)
    return path


def shard_dir() -> Path:
    """Where forked shard workers of a traced run leave their spans."""
    return work_root() / "shards"


def child_env() -> Dict[str, str]:
    """Environment of every child: the source tree on the path, temp
    files inside the checkout, and a fixed hash seed so dict/set layouts
    repeat from run to run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    tmp = work_root() / "tmp"
    tmp.mkdir(exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def emit(message: dict) -> None:
    """Send one protocol message to the parent."""
    sys.stdout.write(TAG + json.dumps(message) + "\n")
    sys.stdout.flush()


def spawn(script: str, *args: str) -> Tuple[subprocess.Popen, float]:
    """Start ``python3 perfbench/<script> args``; returns (proc, t_spawn)."""
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / script), *args],
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
    )
    return proc, t_spawn


def receive(proc: subprocess.Popen, timeout_s: float) -> dict:
    """The child's next protocol message; raises on EOF or timeout."""
    deadline = time.monotonic() + timeout_s
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not selector.select(remaining):
                raise TimeoutError(f"child {proc.args[1]} sent nothing for {timeout_s}s")
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(f"child {proc.args[1]} exited with {proc.wait()}")
            if line.startswith(TAG):
                return json.loads(line[len(TAG):])


def reap(proc: subprocess.Popen, timeout_s: float = 30.0) -> None:
    """Make sure a child has ended: wait, then kill if it does not."""
    try:
        proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set of this process (and, optionally, its reaped
    children, e.g. forked shard workers) in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples
    beyond it: returns (value, percentile).  With fewer than
    ``TAIL_BEYOND + 1`` samples it is the maximum."""
    ordered = sorted(values)
    index = len(ordered) - TAIL_BEYOND - 1
    if index < 0:
        index = len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def median(values: Sequence[float]) -> float:
    """Median, 0.0 for no samples."""
    return float(statistics.median(values)) if values else 0.0


def per_op(total: float, ops: int) -> float:
    """A run total normalized by the ops of that run."""
    return total / ops if ops else 0.0


def summarize(
    latencies: List[float],
    wall_s: float,
    attempted: int,
    succeeded: int,
    answered: int,
    rss_mb: float,
    setup_s: float,
) -> Dict[str, float]:
    """The seven end-to-end metrics, by name."""
    tail_value, _ = tail(latencies)
    return {
        "setup_s": setup_s,
        "op_latency_p50_s": median(latencies),
        "op_latency_tail_s": tail_value,
        "ops_per_s": attempted / wall_s,
        "op_success_share": succeeded / attempted,
        "op_answered_share": answered / attempted,
        "peak_rss_mb": rss_mb,
    }
