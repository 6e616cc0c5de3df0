"""Vehicle-Key benchmark: one command per workload, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/README.md`` for why each exists):

- ``serve_open``      open-loop device sessions into a separate server process
- ``data_echo_64B``   64-byte secure records echoed in windows of 64
- ``batch_establish`` 32-session batches through the 2-shard batched engine
- ``lossy_sweep``     library chaos sessions under seeded faults and attacks
                      (runnable, not listed in BENCHMARK.json: see
                      ``perfbench/STEADINESS.md``)

``--trace 0`` prints the seven end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced, and prints the per-layer metrics,
the tracing overhead and a per-span self-time table, and writes the
span file.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any output-check mismatch
exits 1.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import shutil
import signal
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

from common import (
    ROOT,
    SRC,
    STATUS_SESSION,
    median,
    per_op,
    reap,
    receive,
    shard_dir,
    spawn,
    summarize,
    tail,
    work_root,
)
from tracer import Tracer, load_spans, self_times, write_span_file

#: Cold starts before and after the measured pass; ``setup_s`` and the
#: ``setup.*`` phases are medians over all of them.
SETUP_BEFORE = 3
SETUP_AFTER = 2

#: Budget for one child to become ready (import + weight load + bind).
READY_TIMEOUT_S = 120.0

#: Workloads and metric names/units, from the benchmark's definition.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: The listed workloads, plus ``lossy_sweep``: runnable, but left out of
#: BENCHMARK.json as too unsteady on this host (see STEADINESS.md).
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["lossy_sweep"]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class Run:
    """One invocation: its scratch directory, children and findings."""

    def __init__(self, args: argparse.Namespace, artifact: Path) -> None:
        self.args = args
        self.artifact = artifact
        self.dir = work_root() / f"run-{args.workload}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir()
        self.procs: list = []
        self.problems: List[str] = []
        self.setup: List[dict] = []
        self.setup_command: tuple = ()

    def child(self, script: str, *argv: str):
        """Start a child and wait for its ``ready`` message."""
        proc, t_spawn = spawn(script, *argv)
        self.procs.append(proc)
        ready = receive(proc, READY_TIMEOUT_S)
        ready["t_ready"] = time.perf_counter()
        ready["t_spawn"] = t_spawn
        return proc, ready

    def sample_setup(self, script: str, argv: Callable[[int], list], count: int) -> None:
        """``count`` cold starts of children that exit once ready."""
        for _ in range(count):
            proc, ready = self.child(script, *argv(len(self.setup)), "--setup-only")
            self.setup.append(ready)
            reap(proc)

    def measure_setup(self, script: str, argv: Callable[[int], list]):
        """Cold starts before the measured pass; the last child is kept
        to do the work.  :meth:`finish_setup` adds the ones after it."""
        self.setup_command = (script, argv)
        self.sample_setup(script, argv, SETUP_BEFORE - 1)
        proc, ready = self.child(script, *argv(len(self.setup)))
        self.setup.append(ready)
        return proc, ready

    def finish_setup(self) -> None:
        """Cold starts after the measured pass, so ``setup_s`` samples
        the whole run rather than its first seconds."""
        self.sample_setup(*self.setup_command, SETUP_AFTER)

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            reap(proc)
        shutil.rmtree(self.dir, ignore_errors=True)


# -- server workloads -------------------------------------------------------


def stop_server(proc) -> dict:
    """SIGTERM (graceful drain) and collect the ``done`` report."""
    proc.send_signal(signal.SIGTERM)
    done = receive(proc, 60.0)
    reap(proc)
    return done


def serve_reference(run: Run, labels: List[str]) -> Dict[str, dict]:
    """Library outcomes of the served episodes, cached per artifact."""
    path = run.artifact / f"reference-{len(labels)}.json"
    if path.is_file():
        return json.loads(path.read_text())
    proc, _ = run.child(
        "worker.py", str(run.artifact), "reference", "0", "0", "--labels", ",".join(labels)
    )
    reference = receive(proc, 600.0)["reference"]
    reap(proc)
    staging = path.with_suffix(f".tmp{proc.pid}")
    staging.write_text(json.dumps(reference))
    staging.replace(path)
    return reference


def served_pass(run: Run, server, port: int, workload: str, tracer=None) -> dict:
    """Drive one server process through the workload, then stop it."""
    import loadgen

    async def drive():
        if workload == "serve_open":
            result = await loadgen.serve_open(port, run.args.seed, run.args.seconds, tracer)
        else:
            result = await loadgen.data_echo(port, run.args.seed, run.args.seconds, tracer)
        result["status"] = await loadgen.status(port)
        return result

    result = asyncio.run(drive())
    done = stop_server(server)
    result["peak_rss_mb"] = done["peak_rss_mb"]
    if done["leaked"]:
        run.problems.append(f"server drain leaked {done['leaked']} sessions")
    return result


def check_serve_open(run: Run, result: dict) -> None:
    """Compare every delivered outcome with the library's."""
    import loadgen

    records = result["records"]
    reference = serve_reference(run, loadgen.open_labels(run.args.seconds))
    correct = succeeded = answered = 0
    for record in records:
        expected = reference[record["label"]]
        matches = record["kind"] == "result" and loadgen.result_matches(record["frame"], expected)
        answered += record["kind"] in ("result", "abort", "rejected")
        correct += matches
        succeeded += matches and expected["success"]
        if not matches:
            run.problems.append(
                f"{record['label']} ({record['behavior']}): {record['kind']} "
                f"{record['detail']} {record['frame']} != library {expected}"
            )
    result.update(
        latencies=[r["latency_s"] for r in records],
        attempted=len(records),
        correct=correct,
        succeeded=succeeded,
        answered=answered,
        late=[r["late_s"] for r in records],
    )


def served(run: Run, workload: str):
    def journal(index) -> Path:
        return run.dir / f"journal-{index}"

    server, ready = run.measure_setup(
        "server_entry.py", lambda index: [str(run.artifact), str(journal(index))]
    )
    result = served_pass(run, server, ready["port"], workload)
    run.finish_setup()
    if workload == "serve_open":
        check_serve_open(run, result)
    if not run.args.trace:
        return result, None
    import loadgen

    tracer = Tracer()
    loadgen.trace_client(tracer)
    spans_path = run.dir / "server-spans.jsonl"
    server, ready = run.child(
        "server_entry.py", str(run.artifact), str(journal("traced")), "--trace", str(spans_path)
    )
    traced = served_pass(run, server, ready["port"], workload, tracer)
    if workload == "serve_open":
        check_serve_open(run, traced)
    server_spans, counters = load_spans(spans_path)
    traced["spans"] = tracer.spans + server_spans
    traced["counters"] = counters
    return result, traced


# -- library workloads ------------------------------------------------------


def run_worker(proc) -> dict:
    """Collect a worker's result once it has run the workload."""
    result = receive(proc, 170.0)
    reap(proc)
    result["wall_s"] = result["t_end"] - result["t_begin"]
    return result


def library(run: Run, workload: str):
    argv = [str(run.artifact), workload, str(run.args.seed), str(run.args.seconds)]
    worker, _ = run.measure_setup("worker.py", lambda index: argv)
    result = run_worker(worker)
    run.finish_setup()
    if not run.args.trace:
        return result, None
    spans_path = run.dir / "worker-spans.jsonl"
    shards = shard_dir()
    shutil.rmtree(shards, ignore_errors=True)
    traced = run_worker(run.child("worker.py", *argv, "--trace", str(spans_path))[0])
    spans, counters = load_spans(spans_path)
    for path in sorted(shards.glob("*.jsonl")):
        spans += load_spans(path)[0]
    shutil.rmtree(shards, ignore_errors=True)
    traced["spans"] = spans
    traced["counters"] = counters
    return result, traced


# -- metrics ----------------------------------------------------------------


def setup_metrics(run: Run) -> Dict[str, float]:
    """``setup_s`` plus its phases, each the median over the samples.

    A server's set-up is everything from spawn to a bound socket; a
    library workload's is import plus weight load (what a library user
    pays in their own already-running process).
    """
    samples = run.setup
    phases = {
        "setup.spawn_s": [s["t_start"] - s["t_spawn"] for s in samples],
        "setup.import_s": [s["t_imported"] - s["t_start"] for s in samples],
        "setup.load_s": [s["t_loaded"] - s["t_imported"] for s in samples],
        "setup.start_s": [s["t_started"] - s["t_loaded"] for s in samples],
    }
    if run.args.workload in ("serve_open", "data_echo_64B"):
        totals = [s["t_ready"] - s["t_spawn"] for s in samples]
    else:
        totals = [s["t_loaded"] - s["t_start"] for s in samples]
    metrics = {name: median(values) for name, values in phases.items()}
    metrics["setup_s"] = median(totals)
    return metrics


def layer_metrics(run: Run, untraced: dict, traced: dict) -> Dict[str, float]:
    """Every per-layer metric from the traced pass's spans and counters."""
    spans, counters = traced["spans"], traced["counters"]
    ops = traced["attempted"]
    selfs = self_times(spans)
    path = work_root() / f"trace-{run.args.workload}.jsonl"
    write_span_file(path, spans, selfs)
    print(f"span file: {path} ({len(spans)} spans)")
    by_name: Dict[str, list] = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)
    print(f"{'span':32s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}")
    for name in sorted(by_name):
        group = by_name[name]
        total = sum(s[5] - s[4] for s in group)
        print(f"{name:32s} {len(group):8d} {total:10.4f} {sum(selfs[s[0]] for s in group):10.4f}")

    def self_total(name):
        return sum(selfs[s[0]] for s in by_name.get(name, ()))

    def durations(name, keep=lambda s: True):
        return [s[5] - s[4] for s in by_name.get(name, ()) if keep(s)]

    # Per-session server spans, joined on the episode label.
    batch_of: Dict[str, tuple] = {}
    for span in by_name.get("batch.run_episodes", ()):
        for label in span[3].split("+"):
            batch_of[label] = span
    start_sent = {s[3]: s[4] for s in by_name.get("client.start_sent", ())}
    result_write: Dict[str, float] = {}
    for span in sorted(by_name.get("server.frame_write", ()), key=lambda s: s[5]):
        if span[6] and span[3] not in result_write:
            result_write[span[3]] = span[5]
    queue_wait = [batch_of[l][4] - t for l, t in start_sent.items() if l in batch_of]
    deliver = [t - batch_of[l][5] for l, t in result_write.items() if l in batch_of]
    fork_merge = 0.0
    shards_of: Dict[int, list] = defaultdict(list)
    for span in by_name.get("batch.shard", ()):
        shards_of[span[1]].append(span[5] - span[4])
    for span in by_name.get("batch.run_episodes", ()):
        if shards_of.get(span[0]):
            fork_merge += (span[5] - span[4]) - max(shards_of[span[0]])
    journal = by_name.get("server.journal_append", ())
    critical = sum(1 for s in journal if s[6])
    status = traced.get("status", {})
    secure_batches = status.get("secure_batches", 0)
    run_episodes = len(by_name.get("batch.run_episodes", ()))
    late = untraced.get("late", [])
    attempts = counters.get("faults.attempts", 0.0)
    base_p50 = median(untraced["latencies"])
    metrics = {
        "trace.overhead_share": median(traced["latencies"]) / base_p50 - 1.0,
        "loadgen.late_p50_s": median(late),
        "loadgen.late_max_s": max(late) if late else 0.0,
        "server.admit_s": median(durations("server.admit", lambda s: s[3] != STATUS_SESSION)),
        "server.queue_wait_s": median(queue_wait),
        "server.tick_s": median(durations("server.tick")),
        "server.tick_sessions": median([s[6] for s in by_name.get("server.tick", ())]),
        "server.deliver_s": median(deliver),
        "server.journal_append_s": per_op(self_total("server.journal_append"), ops),
        "server.journal_appends_critical": per_op(critical, ops),
        "server.journal_appends_batched": per_op(len(journal) - critical, ops),
        "server.frame_read_s": per_op(self_total("server.frame_decode"), ops),
        "server.frame_write_s": per_op(self_total("server.frame_write"), ops),
        "server.frames": per_op(
            len(by_name.get("server.frame_decode", ())) + len(by_name.get("server.frame_write", ())),
            ops,
        ),
        "secure.open_records_s": per_op(self_total("secure.open_records"), ops),
        "secure.seal_records_s": per_op(self_total("secure.seal_records"), ops),
        "secure.records": per_op(sum(s[6] for s in by_name.get("secure.open_records", ())), ops),
        "secure.batch_records": (
            status.get("secure_records", 0) / secure_batches if secure_batches else 0.0
        ),
        "secure.derive_s": median(durations("secure.derive")),
        "probing.collect_traces_s": per_op(counters.get("phase.probe", 0.0), ops),
        "probing.window_s": per_op(counters.get("phase.window", 0.0), ops),
        "model.predict_s": per_op(counters.get("phase.predict", 0.0), ops),
        "model.predict_rows": per_op(sum(s[6] for s in by_name.get("model.predict", ())), ops),
        "session.reconcile_s": per_op(counters.get("phase.reconcile", 0.0), ops),
        "privacy.amplify_s": per_op(counters.get("phase.amplify", 0.0), ops),
        "batch.orchestrate_s": per_op(counters.get("phase.orchestrate", 0.0), ops),
        "batch.fork_merge_s": per_op(fork_merge, ops),
        "batch.shards": per_op(counters.get("batch.shards", 0.0), run_episodes),
        "probing.run_loop_s": per_op(self_total("probing.run_loop"), ops),
        "probing.run_loop_calls": per_op(len(by_name.get("probing.run_loop", ())), ops),
        "channel.shadowing_value_at_s": per_op(self_total("channel.shadowing_value_at"), ops),
        "channel.shadowing_value_at_calls": per_op(
            len(by_name.get("channel.shadowing_value_at", ())), ops
        ),
        "faults.attempts": per_op(attempts, ops),
        "faults.retries": per_op(counters.get("faults.retries", 0.0), ops),
        "faults.dropped_rounds": per_op(counters.get("faults.dropped_rounds", 0.0), ops),
        "faults.useful_share": counters.get("faults.keys", 0.0) / attempts if attempts else 0.0,
        "server.rejected_overload": float(status.get("rejected_overload", 0)),
        "server.batch_fallbacks": float(status.get("batch_fallbacks", 0)),
        "server.malformed_frames": float(status.get("malformed_frames", 0)),
    }
    return metrics


def check_pass(run: Run, result: dict, label: str) -> None:
    """Record every op whose output check failed."""
    wrong = result["attempted"] - result["correct"]
    if wrong:
        run.problems.append(f"{label}: {wrong} of {result['attempted']} ops failed their check")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=WORKLOADS,
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    from fixture import artifact_sha256, ensure_artifact

    artifact = ensure_artifact()
    print(f"weights: {artifact.name} sha256 {artifact_sha256(artifact)}")
    # The load generator is the benchmark's own process: keep collector
    # pauses out of its timestamps.
    gc.collect()
    gc.freeze()
    run = Run(args, artifact)
    try:
        if args.workload in ("serve_open", "data_echo_64B"):
            result, traced = served(run, args.workload)
        else:
            result, traced = library(run, args.workload)
        check_pass(run, result, "untraced pass")
        metrics = setup_metrics(run)
        e2e = summarize(
            result["latencies"],
            result["wall_s"],
            result["attempted"],
            result["succeeded"],
            result["answered"],
            result["peak_rss_mb"],
            metrics["setup_s"],
        )
        _, percentile = tail(result["latencies"])
        print(
            f"{args.workload}: N={result['attempted']} ops, tail = p{percentile:.1f} "
            f"(10 samples beyond), {result['wall_s']:.2f} s measured"
        )
        if traced is None:
            reported = {name: (e2e[name], unit) for name, unit in END_TO_END.items()}
        else:
            check_pass(run, traced, "traced pass")
            metrics.update(layer_metrics(run, result, traced))
            reported = {name: (metrics[name], unit) for name, unit in PER_LAYER.items()}
        for name, (value, unit) in reported.items():
            print(f"  {name:34s} {value:14.6g} {unit}")
        for problem in run.problems[:20]:
            print(f"CHECK FAILED: {problem}")
        attempted = result["attempted"] + (traced["attempted"] if traced else 0)
        failed = (result["attempted"] - result["correct"]) + (
            traced["attempted"] - traced["correct"] if traced else 0
        )
        correct = not run.problems
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": {n: {"value": v, "unit": u} for n, (v, u) in reported.items()},
                }
            )
        )
        return 0 if correct else 1
    finally:
        run.close()


if __name__ == "__main__":
    sys.exit(main())
