"""Behavioural tests for the key-establishment session server.

Each test stands up a real :class:`KeyEstablishmentServer` on a loopback
port and exercises one clause of the robustness contract: honest clients
get results, overload sheds with a structured retry-after, duplicate ids
are refused, quiet and slow-loris peers are reaped, corrupt frames abort
only their own session, a poisoned batch falls back to supervised
per-session execution, and a drain delivers in-flight work without
leaking a single session record.

No pytest-asyncio in the environment: every test wraps its scenario in
``asyncio.run``.
"""

import asyncio
import sys

import pytest

from repro.server import (
    DeviceClient,
    Endpoint,
    KeyEstablishmentServer,
    ModelRegistry,
    ServerConfig,
    run_behavior,
)

#: Short probing sessions keep each scenario well under a second.
ROUNDS = 48


def fast_config(**overrides) -> ServerConfig:
    """Loopback server knobs with test-sized liveness budgets."""
    defaults = dict(
        port=0,
        hello_timeout_s=1.0,
        idle_timeout_s=5.0,
        session_deadline_s=30.0,
        tick_interval_s=0.01,
        max_batch=8,
        queue_limit=8,
        max_sessions=32,
        retry_after_s=0.25,
        reap_interval_s=0.1,
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


def run_scenario(pipeline, config, scenario):
    """Start a server, run ``scenario(server, endpoint)``, always drain."""

    async def body():
        server = KeyEstablishmentServer(ModelRegistry(pipeline), config)
        await server.start()
        endpoint = Endpoint(port=server.bound_port)
        try:
            result = await scenario(server, endpoint)
        finally:
            if not server.closed:
                await server.drain(timeout=10.0)
        assert server.active_sessions == 0  # no leak, ever
        return result, server

    return asyncio.run(body())


class TestHonestPath:
    def test_honest_session_gets_result(self, tiny_pipeline):
        async def scenario(server, endpoint):
            return await run_behavior(
                endpoint, "normal", "dev-1", episode="srv-t1", rounds=ROUNDS
            )

        outcome, server = run_scenario(tiny_pipeline, fast_config(), scenario)
        assert outcome.kind == "result"
        assert outcome.frame["session_id"] == "dev-1"
        assert outcome.frame["final_state"] in ("complete", "aborted")
        assert "key_digest" in outcome.frame
        assert "degraded_mode" in outcome.frame
        assert server.metrics.completed == 1
        assert server.metrics.ticks >= 1

    def test_result_never_carries_raw_key(self, tiny_pipeline):
        async def scenario(server, endpoint):
            return await run_behavior(
                endpoint, "normal", "dev-1", episode="srv-t2", rounds=ROUNDS
            )

        outcome, _ = run_scenario(tiny_pipeline, fast_config(), scenario)
        digest = outcome.frame.get("key_digest")
        if digest is not None:
            assert len(digest) == 32  # truncated sha256 hex, not key bytes
        assert "final_key" not in outcome.frame
        assert "key" not in outcome.frame

    def test_concurrent_honest_clients_coalesce(self, tiny_pipeline):
        async def scenario(server, endpoint):
            outcomes = await asyncio.gather(
                *(
                    run_behavior(
                        endpoint,
                        "normal",
                        f"dev-{i}",
                        episode=f"srv-t3-{i}",
                        rounds=ROUNDS,
                    )
                    for i in range(6)
                )
            )
            return outcomes

        outcomes, server = run_scenario(tiny_pipeline, fast_config(), scenario)
        assert all(outcome.kind == "result" for outcome in outcomes)
        # Fewer ticks than sessions proves coalescing happened.
        assert server.metrics.ticks <= len(outcomes)
        assert server.metrics.tick_sessions_max >= 1

    def test_ping_and_health_are_answered(self, tiny_pipeline):
        async def scenario(server, endpoint):
            client = DeviceClient(endpoint, "dev-ping", rounds=ROUNDS)
            await client.connect()
            try:
                await client.hello()
                await client.send({"type": "ping"})
                pong = await client.recv()
                await client.send({"type": "health"})
                health = await client.recv()
                await client.send({"type": "bye"})
                return pong, health
            finally:
                await client.close()

        (pong, health), _ = run_scenario(tiny_pipeline, fast_config(), scenario)
        assert pong["type"] == "pong"
        assert health["type"] == "health"
        assert health["active_sessions"] >= 1
        assert health["metrics"]["accepted"] >= 1


class TestWorkConservingTicks:
    """Default ticks fire on readiness and batch by queue depth, no timer."""

    @staticmethod
    async def burst(endpoint, n_clients, tag):
        return await asyncio.gather(
            *(
                run_behavior(
                    endpoint,
                    "normal",
                    f"dev-{i}",
                    episode=f"srv-{tag}-{i}",
                    rounds=ROUNDS,
                )
                for i in range(n_clients)
            )
        )

    def test_burst_coalesces_without_a_window(self, tiny_pipeline):
        async def scenario(server, endpoint):
            return await self.burst(endpoint, 16, "wc-burst")

        outcomes, server = run_scenario(tiny_pipeline, ServerConfig(), scenario)
        assert server.config.tick_interval_s == 0
        assert all(outcome.kind == "result" for outcome in outcomes)
        assert server.metrics.completed == 16
        # Arrivals during a running tick queue up behind it and share the
        # next one, so batching survives without the coalescing window.
        assert server.metrics.ticks <= 4
        assert server.metrics.tick_sessions_max >= 2

    @staticmethod
    def tick_loop_sleeps(pipeline, config, monkeypatch):
        """Delays of every ``asyncio.sleep`` the tick loop awaits."""
        real_sleep = asyncio.sleep
        delays = []

        async def spy(delay, *args, **kwargs):
            if sys._getframe(1).f_code.co_name == "_tick_loop":
                delays.append(delay)
            return await real_sleep(delay, *args, **kwargs)

        monkeypatch.setattr(asyncio, "sleep", spy)

        async def scenario(server, endpoint):
            return await TestWorkConservingTicks.burst(endpoint, 3, "wc-sleep")

        outcomes, server = run_scenario(pipeline, config, scenario)
        assert all(outcome.kind == "result" for outcome in outcomes)
        assert server.metrics.ticks >= 1
        return delays

    def test_default_tick_loop_never_sleeps(self, tiny_pipeline, monkeypatch):
        delays = self.tick_loop_sleeps(tiny_pipeline, ServerConfig(), monkeypatch)
        assert [d for d in delays if d > 0] == []

    def test_positive_interval_is_an_opt_in_hold(self, tiny_pipeline, monkeypatch):
        delays = self.tick_loop_sleeps(
            tiny_pipeline, ServerConfig(tick_interval_s=0.02), monkeypatch
        )
        assert delays and set(delays) == {0.02}


class TestBackpressure:
    def test_overload_sheds_with_retry_after(self, tiny_pipeline):
        config = fast_config(max_sessions=1)

        async def scenario(server, endpoint):
            first = DeviceClient(endpoint, "dev-a")
            await first.connect()
            try:
                welcome = await first.hello()
                assert welcome["type"] == "welcome"
                shed = await run_behavior(endpoint, "normal", "dev-b")
                return shed
            finally:
                await first.close()

        shed, server = run_scenario(tiny_pipeline, config, scenario)
        assert shed.kind == "rejected"
        assert shed.frame["reason"] == "server-overloaded"
        assert shed.frame["retry_after_s"] == pytest.approx(0.25)
        assert server.metrics.rejected_overload == 1

    def test_duplicate_session_id_is_refused(self, tiny_pipeline):
        async def scenario(server, endpoint):
            first = DeviceClient(endpoint, "dev-dup")
            await first.connect()
            try:
                await first.hello()
                second = await run_behavior(endpoint, "normal", "dev-dup")
                return second
            finally:
                await first.close()

        second, server = run_scenario(tiny_pipeline, fast_config(), scenario)
        assert second.kind == "rejected"
        assert second.frame["reason"] == "duplicate-session"
        assert "retry_after_s" in second.frame
        assert server.metrics.rejected_duplicate == 1


class TestLiveness:
    def test_idle_session_is_reaped(self, tiny_pipeline):
        config = fast_config(idle_timeout_s=0.3, reap_interval_s=0.05)

        async def scenario(server, endpoint):
            client = DeviceClient(endpoint, "dev-idle", timeout_s=10.0)
            await client.connect()
            try:
                await client.hello()
                return await client.recv()  # the reaper's abort frame
            finally:
                await client.close()

        verdict, server = run_scenario(tiny_pipeline, config, scenario)
        assert verdict["type"] == "abort"
        assert verdict["reason"] == "idle-timeout"
        assert server.metrics.reaped_idle == 1

    def test_slow_loris_is_reaped_not_hung(self, tiny_pipeline):
        config = fast_config(idle_timeout_s=0.3, reap_interval_s=0.05)

        async def scenario(server, endpoint):
            return await run_behavior(
                endpoint, "slow-loris", "dev-loris", timeout_s=10.0
            )

        outcome, server = run_scenario(tiny_pipeline, config, scenario)
        assert outcome.kind == "abort"
        assert outcome.frame["reason"] == "idle-timeout"
        assert server.metrics.reaped_idle == 1

    def test_deadline_is_enforced(self, tiny_pipeline):
        # Deadline shorter than the idle budget: the session dies by
        # deadline even though the peer keeps pinging.
        config = fast_config(
            idle_timeout_s=30.0, session_deadline_s=0.4, reap_interval_s=0.05
        )

        async def scenario(server, endpoint):
            client = DeviceClient(endpoint, "dev-deadline", timeout_s=10.0)
            await client.connect()
            try:
                await client.hello()
                while True:
                    await client.send({"type": "ping"})
                    frame = await client.recv()
                    if frame is None or frame.get("type") == "abort":
                        return frame
                    await asyncio.sleep(0.1)
            finally:
                await client.close()

        verdict, server = run_scenario(tiny_pipeline, config, scenario)
        assert verdict["type"] == "abort"
        assert verdict["reason"] == "deadline-exceeded"
        assert server.metrics.reaped_deadline == 1


class TestFailureIsolation:
    def test_corrupt_frame_aborts_only_its_session(self, tiny_pipeline):
        async def scenario(server, endpoint):
            return await asyncio.gather(
                run_behavior(
                    endpoint, "normal", "dev-good", episode="srv-iso", rounds=ROUNDS
                ),
                run_behavior(endpoint, "corrupt-frame", "dev-evil"),
            )

        (good, evil), server = run_scenario(tiny_pipeline, fast_config(), scenario)
        assert good.kind == "result"
        assert evil.kind == "abort"
        assert evil.frame["reason"] == "malformed-frame"
        assert server.metrics.malformed_frames >= 1

    def test_oversized_frame_aborts_structurally(self, tiny_pipeline):
        async def scenario(server, endpoint):
            return await run_behavior(endpoint, "oversized-frame", "dev-big")

        outcome, _ = run_scenario(tiny_pipeline, fast_config(), scenario)
        assert outcome.kind == "abort"
        assert outcome.frame["reason"] == "malformed-frame"

    def test_unknown_frame_type_aborts_taxonomized(self, tiny_pipeline):
        async def scenario(server, endpoint):
            return await run_behavior(endpoint, "unknown-frame", "dev-odd")

        outcome, _ = run_scenario(tiny_pipeline, fast_config(), scenario)
        assert outcome.kind == "abort"
        assert outcome.frame["reason"] == "malformed-message"

    def test_poisoned_batch_falls_back_per_session(self, tiny_pipeline, monkeypatch):
        import repro.server.server as server_module

        class ExplodingRunner:
            """A batch runner whose batched path always detonates."""

            def __init__(self, *args, **kwargs):
                pass

            def run_episodes(self, labels):
                raise RuntimeError("poisoned batch tick")

        monkeypatch.setattr(server_module, "BatchedSessionRunner", ExplodingRunner)

        async def scenario(server, endpoint):
            return await asyncio.gather(
                run_behavior(
                    endpoint, "normal", "dev-f1", episode="srv-fb1", rounds=ROUNDS
                ),
                run_behavior(
                    endpoint, "normal", "dev-f2", episode="srv-fb2", rounds=ROUNDS
                ),
            )

        outcomes, server = run_scenario(tiny_pipeline, fast_config(), scenario)
        # The supervisor isolated the batch failure and every session
        # still received a structured verdict via the per-session path.
        assert all(outcome.kind == "result" for outcome in outcomes)
        assert server.metrics.batch_fallbacks >= 1

    def test_poisoned_session_aborts_alone(self, tiny_pipeline, monkeypatch):
        import repro.server.server as server_module

        real_establish = tiny_pipeline.establish_key

        class ExplodingRunner:
            """Force the per-session fallback so one session can poison."""

            def __init__(self, *args, **kwargs):
                pass

            def run_episodes(self, labels):
                raise RuntimeError("force fallback")

        def selective_establish(episode="live", **kwargs):
            if episode == "srv-poison":
                raise RuntimeError("poisoned session")
            return real_establish(episode=episode, **kwargs)

        monkeypatch.setattr(server_module, "BatchedSessionRunner", ExplodingRunner)
        monkeypatch.setattr(tiny_pipeline, "establish_key", selective_establish)

        async def scenario(server, endpoint):
            return await asyncio.gather(
                run_behavior(
                    endpoint, "normal", "dev-ok", episode="srv-fine", rounds=ROUNDS
                ),
                run_behavior(
                    endpoint, "normal", "dev-bad", episode="srv-poison", rounds=ROUNDS
                ),
            )

        (ok, bad), server = run_scenario(tiny_pipeline, fast_config(), scenario)
        assert ok.kind == "result"
        assert bad.kind == "abort"
        assert bad.frame["reason"] == "internal-error"
        assert server.metrics.aborted.get("internal-error") == 1


class TestGracefulDrain:
    def test_drain_delivers_inflight_and_rejects_new(self, tiny_pipeline):
        async def scenario(server, endpoint):
            inflight = asyncio.create_task(
                run_behavior(
                    endpoint, "normal", "dev-in", episode="srv-drain", rounds=ROUNDS
                )
            )
            parked = DeviceClient(endpoint, "dev-parked", timeout_s=10.0)
            await parked.connect()
            await parked.hello()  # admitted but never starts
            await asyncio.sleep(0.05)
            report = await server.drain(timeout=15.0)
            late = await run_behavior(endpoint, "normal", "dev-late", timeout_s=2.0)
            inflight_outcome = await inflight
            parked_verdict = await parked.recv()
            await parked.close()
            return report, inflight_outcome, parked_verdict, late

        (report, inflight, parked, late), server = run_scenario(
            tiny_pipeline, fast_config(), scenario
        )
        assert report.leaked == 0
        # The started session completed and its result was delivered.
        assert inflight.kind == "result"
        # The parked session was aborted with the draining slug.
        assert parked["type"] == "abort"
        assert parked["reason"] == "server-draining"
        # Latecomers cannot connect at all (listener closed) -- a
        # structured client-side error, not a hang.
        assert late.kind in ("error", "rejected", "closed")
        assert server.closed

    def test_disconnect_after_start_does_not_stall_ticks(self, tiny_pipeline):
        async def scenario(server, endpoint):
            ghost = await run_behavior(
                endpoint,
                "disconnect-after-start",
                "dev-ghost",
                episode="srv-ghost",
                rounds=ROUNDS,
            )
            honest = await run_behavior(
                endpoint, "normal", "dev-honest", episode="srv-honest", rounds=ROUNDS
            )
            return ghost, honest

        (ghost, honest), server = run_scenario(
            tiny_pipeline, fast_config(), scenario
        )
        assert ghost.kind == "closed"
        assert honest.kind == "result"  # the wedge didn't stall anyone
