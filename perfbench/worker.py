"""Library-level workloads, run in their own process.

    python3 perfbench/worker.py ARTIFACT_DIR MODE SEED SECONDS [--trace SPANS] [--setup-only]

MODE is ``lossy_sweep``, ``batch_establish`` or ``reference`` (the
library outcomes the ``serve_open`` check compares against).  The
worker reports its set-up phases (import, weight load) in a ``ready``
message, then runs the workload's fixed op list and reports per-op
latencies, output checks and its peak RSS -- for ``batch_establish``
the largest of itself and its forked shards.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402

from common import emit, peak_rss_mb, shard_dir  # noqa: E402

from repro.core import batch  # noqa: E402
from repro.faults import chaos  # noqa: E402

T_IMPORTED = time.perf_counter()

from fixture import load_pipeline  # noqa: E402
from tracer import Tracer, count_outcomes, wrap_engine  # noqa: E402

#: Probing rounds of every session (the chaos pipeline's session_rounds).
ROUNDS = 96

#: Sessions per ``batch_establish`` op, and the shard count under test.
BATCH_SESSIONS = 32
BATCH_SHARDS = 2


def outcome_signature(outcome) -> tuple:
    """What two runs of one session must agree on."""
    key = outcome.final_key
    digest = hashlib.sha256(key).hexdigest()[:32] if key is not None else None
    return (outcome.success, digest, outcome.failure_reason, outcome.session.agreed_bits)


def run_lossy_sweep(pipeline, seconds: int) -> dict:
    """The fixed sweep ``k = 0 .. 2*seconds-1``, in that order, every run.

    The heavy sessions (k = 0 and 28 take ~8 s here, k = 1 and 23 ~3 s)
    stay in.  The seed does not reorder the list: a session's cost also
    depends on what ran before it in the process.
    """
    latencies, ok, agreed = [], 0, 0
    start = time.perf_counter()
    for k in range(2 * seconds):
        t0 = time.perf_counter()
        report = chaos.run_chaos(pipeline, 1, seed=k)
        latencies.append(time.perf_counter() - t0)
        if report.ok:
            ok += 1
            agreed += report.successes == 1
    return {
        "latencies": latencies,
        "t_begin": start,
        "t_end": time.perf_counter(),
        "attempted": len(latencies),
        "correct": ok,
        "succeeded": agreed,
        "answered": len(latencies),
        "peak_rss_mb": peak_rss_mb(),
    }


def batch_labels(seed: int) -> list:
    """The fixed label list, in a seeded order."""
    labels = [f"batch-{i}" for i in range(BATCH_SESSIONS)]
    random.Random(seed).shuffle(labels)
    return labels


def run_batch_establish(pipeline, seed: int, seconds: int, tracer) -> dict:
    labels = batch_labels(seed)
    reference = batch.BatchedSessionRunner(pipeline, n_rounds=ROUNDS, shards=1)
    expected = [outcome_signature(o) for o in reference.run_episodes(labels).outcomes]
    if tracer is not None:
        install_batch_tracing(tracer)
    runner = batch.BatchedSessionRunner(pipeline, n_rounds=ROUNDS, shards=BATCH_SHARDS)
    latencies, correct = [], 0
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        t0 = time.perf_counter()
        report = runner.run_episodes(labels)
        latencies.append(time.perf_counter() - t0)
        correct += [outcome_signature(o) for o in report.outcomes] == expected
    return {
        "latencies": latencies,
        "t_begin": start,
        "t_end": time.perf_counter(),
        "attempted": len(latencies),
        "correct": correct,
        "succeeded": correct,
        "answered": len(latencies),
        "keys_agreed": sum(1 for sig in expected if sig[0]),
        "peak_rss_mb": peak_rss_mb(include_children=True),
    }


def run_reference(pipeline, labels) -> dict:
    """In-process ``establish_key`` outcomes of the served episodes."""
    outcomes = {}
    for label in labels:
        outcome = pipeline.establish_key(episode=label, n_rounds=ROUNDS)
        success, digest, reason, _ = outcome_signature(outcome)
        outcomes[label] = {"success": success, "key_digest": digest, "failure_reason": reason}
    return {"reference": outcomes}


def install_lossy_tracing(tracer) -> None:
    from repro.core.pipeline import VehicleKeyPipeline

    tracer.wrap(chaos, "run_chaos", "op.run_chaos",
                trace_of=lambda a, k, r: str(k.get("seed")))
    tracer.wrap(VehicleKeyPipeline, "establish_key", "pipeline.establish_key",
                trace_of=lambda a, k, r: str(k.get("episode")),
                on_result=lambda a, k, outcome: count_outcomes(tracer.counters, [outcome]))
    wrap_engine(tracer)


def install_batch_tracing(tracer) -> None:
    """Engine spans; forked shards ship theirs in a file.

    A shard worker is a fork of this process, so it inherits the
    wrappers; its ``_run_episodes_local`` wrapper writes the spans the
    chunk produced to ``shard-<pid>-<n>.jsonl`` before returning.
    """
    wrap_engine(tracer)
    runner_cls = batch.BatchedSessionRunner
    traced_local = runner_cls._run_episodes_local
    shards = shard_dir()
    shards.mkdir(exist_ok=True)
    chunks = itertools.count()

    def shard_local(self, labels):
        if os.getpid() == tracer.pid:
            return traced_local(self, labels)
        mark = len(tracer.spans)
        span_id, parent = tracer._new_id(), tracer._parent()
        token = tracer._current.set(span_id)
        start = time.perf_counter()
        try:
            report = traced_local(self, labels)
        finally:
            tracer._current.reset(token)
        tracer.spans.append(
            (span_id, parent, "batch.shard", "+".join(labels), start,
             time.perf_counter(), float(len(labels)))
        )
        path = shards / f"shard-{os.getpid()}-{next(chunks)}.jsonl"
        tracer.dump(path, tracer.spans[mark:])
        return report

    runner_cls._run_episodes_local = shard_local


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("artifact_dir")
    parser.add_argument("mode", choices=("lossy_sweep", "batch_establish", "reference"))
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=int)
    parser.add_argument("--labels", default="")
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    pipeline = load_pipeline(args.artifact_dir)
    t_loaded = time.perf_counter()
    emit(
        {
            "ready": True,
            "t_start": T_START,
            "t_imported": T_IMPORTED,
            "t_loaded": t_loaded,
            "t_started": t_loaded,
        }
    )
    if args.setup_only:
        return
    tracer = None
    if args.trace:
        tracer = Tracer()
    if args.mode == "reference":
        result = run_reference(pipeline, args.labels.split(","))
    elif args.mode == "lossy_sweep":
        if tracer is not None:
            install_lossy_tracing(tracer)
        result = run_lossy_sweep(pipeline, args.seconds)
    else:
        result = run_batch_establish(pipeline, args.seed, args.seconds, tracer)
    if tracer is not None:
        tracer.dump(args.trace)
    emit(result)


if __name__ == "__main__":
    main()
