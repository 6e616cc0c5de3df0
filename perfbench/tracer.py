"""In-memory span tracer the traced run installs from the benchmark's files.

A span is ``(id, parent, name, trace, start, end, extra)``: ``trace`` is
the session's episode label (or the op index), ``extra`` a small
per-call number such as rows predicted or records opened.  Spans are
appended to a list while the run is measured and written once at the
end (:meth:`Tracer.dump`).  The parent of a span is the span open in the
same asyncio task or thread when it started (a ``ContextVar``); calls the
server pushes to its executor thread have no such context, so they fall
back to :attr:`Tracer.thread_parent`, which the tick wrapper sets while a
tick runs (ticks run strictly one after another).

Nothing here touches the program's files: :meth:`Tracer.wrap` replaces a
public function or method on its owner object at run time, in the
process being traced only.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextvars import ContextVar
from typing import Callable, Dict, Iterable, List, Optional

perf_counter = time.perf_counter


class Tracer:
    """Spans and counters of one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.thread_parent: Optional[int] = None
        self._ids = itertools.count(1)
        self._current: ContextVar = ContextVar("perfbench_span", default=None)

    def _new_id(self) -> int:
        return os.getpid() * 1_000_000_000 + next(self._ids)

    def _parent(self) -> Optional[int]:
        parent = self._current.get()
        if parent is None and threading.current_thread() is not threading.main_thread():
            parent = self.thread_parent
        return parent

    def mark(self, name: str, trace: str, extra: float = 0.0) -> None:
        """An instant event (a span whose start equals its end)."""
        now = perf_counter()
        self.spans.append((self._new_id(), self._parent(), name, trace, now, now, extra))

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        trace_of: Optional[Callable] = None,
        extra_of: Optional[Callable] = None,
        on_open: Optional[Callable[[Optional[int]], None]] = None,
        on_result: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``trace_of(args, kwargs, result)`` names the span's trace and
        ``extra_of(args, kwargs, result)`` its per-call number; both run
        after the call, as does ``on_result(args, kwargs, result)`` when
        the call returned.  ``on_open(span_id)`` runs on entry and
        ``on_open(None)`` on exit (the tick wrapper uses it to publish
        :attr:`thread_parent`).
        """
        original = getattr(owner, attr)
        tracer = self

        def finish(span_id, parent, start, args, kwargs, result):
            end = perf_counter()
            trace = trace_of(args, kwargs, result) if trace_of else ""
            extra = extra_of(args, kwargs, result) if extra_of else 0.0
            tracer.spans.append((span_id, parent, name, trace, start, end, extra))

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                span_id, parent = tracer._new_id(), tracer._parent()
                token = tracer._current.set(span_id)
                if on_open:
                    on_open(span_id)
                result = None
                start = perf_counter()
                try:
                    result = await original(*args, **kwargs)
                    if on_result:
                        on_result(args, kwargs, result)
                    return result
                finally:
                    finish(span_id, parent, start, args, kwargs, result)
                    tracer._current.reset(token)
                    if on_open:
                        on_open(None)

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span_id, parent = tracer._new_id(), tracer._parent()
                token = tracer._current.set(span_id)
                result = None
                start = perf_counter()
                try:
                    result = original(*args, **kwargs)
                    if on_result:
                        on_result(args, kwargs, result)
                    return result
                finally:
                    finish(span_id, parent, start, args, kwargs, result)
                    tracer._current.reset(token)

        setattr(owner, attr, wrapper)

    def dump(self, path, spans: Optional[Iterable[tuple]] = None) -> None:
        """Write spans (default: all of them) and counters as JSON lines."""
        with open(path, "w") as handle:
            handle.write(json.dumps({"counters": dict(self.counters)}) + "\n")
            for span in self.spans if spans is None else spans:
                handle.write(json.dumps(span) + "\n")


def count_outcomes(counters: Dict[str, float], outcomes) -> None:
    """Probing bursts, ARQ retries, dropped rounds and keys agreed of
    :class:`KeyEstablishmentOutcome` objects (the ``faults.*`` layer)."""
    for outcome in outcomes:
        counters["faults.attempts"] += outcome.attempts
        counters["faults.retries"] += outcome.total_retries
        counters["faults.dropped_rounds"] += outcome.dropped_rounds
        counters["faults.keys"] += outcome.success


def count_batch(tracer: Tracer, report) -> None:
    """Phase seconds, shard count and outcomes of one ``BatchReport``."""
    for phase, seconds in report.phase_s.items():
        tracer.counters[f"phase.{phase}"] += seconds
    tracer.counters["batch.shards"] += report.shards
    count_outcomes(tracer.counters, report.outcomes)


def wrap_engine(tracer: Tracer) -> None:
    """Spans on the key-establishment engine every workload runs: the
    batched runner, bulk probing, prediction, the per-session exchange,
    the per-round probing loop and the shadowing grid."""
    from repro.channel.shadowing import GudmundsonShadowing
    from repro.core.batch import BatchedSessionRunner
    from repro.core.model import PredictionQuantizationModel
    from repro.core.pipeline import VehicleKeyPipeline
    from repro.core.session import KeyAgreementSession
    from repro.probing.protocol import ProbingProtocol

    def count(args, kwargs, result):
        return float(len(args[1]))

    tracer.wrap(
        BatchedSessionRunner, "run_episodes", "batch.run_episodes",
        trace_of=lambda a, k, r: "+".join(a[1]),
        extra_of=count,
        on_result=lambda a, k, report: count_batch(tracer, report),
    )
    tracer.wrap(VehicleKeyPipeline, "collect_traces", "probing.collect_traces", extra_of=count)
    tracer.wrap(
        PredictionQuantizationModel, "predict_bit_probabilities", "model.predict",
        extra_of=count,
    )
    tracer.wrap(KeyAgreementSession, "run", "session.run")
    tracer.wrap(ProbingProtocol, "run_loop", "probing.run_loop")
    tracer.wrap(GudmundsonShadowing, "value_at", "channel.shadowing_value_at")


def load_spans(path) -> tuple:
    """Read a :meth:`Tracer.dump` file: (spans, counters)."""
    with open(path) as handle:
        counters = json.loads(handle.readline())["counters"]
        spans = [tuple(json.loads(line)) for line in handle]
    return spans, counters


def self_times(spans: List[tuple]) -> Dict[int, float]:
    """Per-span self time: duration minus the union of the parts of its
    interval that its child spans cover."""
    children: Dict[int, List[tuple]] = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append((span[4], span[5]))
    result = {}
    for span_id, _, _, _, start, end, _ in spans:
        covered, cursor = 0.0, start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span_id] = (end - start) - covered
    return result


def write_span_file(path, spans: List[tuple], selfs: Dict[int, float]) -> None:
    """The traced run's one span file: a JSON object per span."""
    keys = ("id", "parent", "name", "trace", "start", "end", "extra")
    with open(path, "w") as handle:
        for span in spans:
            record = dict(zip(keys, span))
            record["self"] = selfs[span[0]]
            handle.write(json.dumps(record) + "\n")
