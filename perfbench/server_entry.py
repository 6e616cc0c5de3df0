"""The server under test: one process serving the trained pipeline.

    python3 perfbench/server_entry.py ARTIFACT_DIR JOURNAL_DIR [--trace SPANS] [--setup-only]

Serves through the same public path ``repro serve`` uses --
:class:`ModelRegistry`, :class:`ServerConfig`,
:meth:`KeyEstablishmentServer.start` -- on a loopback port with the
write-ahead journal on (``journal_fsync="batch"``).  It reports its
set-up phases (import, weight load, journal open + bind) in a ``ready``
message, serves until SIGTERM, drains, and reports its peak RSS and
final metrics.  ``--setup-only`` exits right after ``ready``;
``--trace`` installs span wrappers first and writes the spans at exit.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import signal  # noqa: E402

from common import emit, peak_rss_mb  # noqa: E402

from repro.server import (  # noqa: E402
    KeyEstablishmentServer,
    ModelRegistry,
    ServerConfig,
)

T_IMPORTED = time.perf_counter()

from fixture import load_pipeline  # noqa: E402


def install_tracing(tracer) -> None:
    """Span wrappers on the server's layer boundaries (this process only)."""
    from repro.secure import SecureChannel
    from repro.server import framing, journal, server
    from tracer import wrap_engine

    def publish_tick(span_id):
        tracer.thread_parent = span_id

    def result_frame(args, kwargs, result):
        return 1.0 if args[1].get("type") == "result" else 0.0

    def critical(args, kwargs, result):
        return 1.0 if (args[2] if len(args) > 2 else kwargs.get("critical")) else 0.0

    def count(args, kwargs, result):
        return float(len(args[1]))

    wrap = tracer.wrap
    wrap(
        KeyEstablishmentServer, "_admit", "server.admit",
        trace_of=lambda a, k, session: session.session_id if session else "",
    )
    wrap(
        KeyEstablishmentServer, "_run_tick", "server.tick",
        trace_of=lambda a, k, r: "+".join(s.episode for s in a[1]),
        extra_of=count,
        on_open=publish_tick,
    )
    wrap(framing, "decode_body", "server.frame_decode")
    wrap(server, "write_frame", "server.frame_write",
         trace_of=lambda a, k, r: str(a[1].get("session_id", "")),
         extra_of=result_frame)
    wrap(journal.SessionJournal, "append", "server.journal_append", extra_of=critical)
    wrap(SecureChannel, "open_records", "secure.open_records", extra_of=count)
    wrap(SecureChannel, "seal_records", "secure.seal_records", extra_of=count)
    wrap(server, "derive_channel_keys", "secure.derive")
    wrap_engine(tracer)


async def serve(args) -> None:
    pipeline = load_pipeline(args.artifact_dir)
    t_loaded = time.perf_counter()
    registry = ModelRegistry(pipeline)
    config = ServerConfig(port=0, journal_dir=args.journal_dir, journal_fsync="batch")
    server = KeyEstablishmentServer(registry, config)
    await server.start()
    t_started = time.perf_counter()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        install_tracing(tracer)
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    emit(
        {
            "ready": True,
            "port": server.bound_port,
            "t_start": T_START,
            "t_imported": T_IMPORTED,
            "t_loaded": t_loaded,
            "t_started": t_started,
        }
    )
    if not args.setup_only:
        await stop.wait()
    report = await server.drain(timeout=10.0)
    if tracer is not None:
        tracer.dump(args.trace)
    emit(
        {
            "done": True,
            "leaked": report.leaked,
            "peak_rss_mb": peak_rss_mb(),
            "metrics": server.metrics.snapshot(),
        }
    )


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("artifact_dir")
    parser.add_argument("journal_dir")
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    main()
