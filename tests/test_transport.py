"""The asyncio transport survives raising handlers and shuts down cleanly."""

import asyncio

from repro.events.broker import Notify
from repro.events.model import make_event
from repro.net.transport import AsyncioTransport, serve_worker


def note(n: int) -> Notify:
    return Notify(make_event("t", n=n))


def test_raising_handler_does_not_stop_the_hub_pump():
    async def scenario():
        hub = AsyncioTransport()
        await hub.start()
        got = []

        def bad(src, payload):
            raise RuntimeError("handler failure")

        hub.register("bad", bad)
        hub.register("good", lambda src, payload: got.append(payload))
        hub.send("x", "bad", note(-1))
        for n in range(5):
            hub.send("x", "good", note(n))
        await asyncio.wait_for(hub.drain(), timeout=5.0)
        await hub.stop()
        return got, hub.handler_errors

    got, errors = asyncio.run(scenario())
    assert [payload.notification["n"] for payload in got] == [0, 1, 2, 3, 4]
    assert errors == 1


def test_raising_handler_does_not_stop_a_worker(tmp_path):
    """Frames from the hub and local short-circuit sends both keep
    flowing past a handler that raises."""

    async def scenario():
        path = str(tmp_path / "hub.sock")
        hub = AsyncioTransport(path)
        await hub.start()
        got = []

        def build(send):
            def bad(src, payload):
                raise RuntimeError("handler failure")

            def relay(src, payload):
                send("relay", "bad", payload)
                send("relay", "good", payload)

            return {
                "bad": bad,
                "good": lambda src, payload: got.append(payload),
                "relay": relay,
            }

        worker = asyncio.create_task(serve_worker(path, build))
        await hub.wait_until(lambda: hub.known("relay"))
        hub.send("hub", "bad", note(-1))
        for n in range(3):
            hub.send("hub", "relay", note(n))
        await hub.wait_until(lambda: len(got) == 3)
        await hub.stop()
        await asyncio.wait_for(worker, timeout=5.0)
        return got

    got = asyncio.run(scenario())
    assert [payload.notification["n"] for payload in got] == [0, 1, 2]


def test_unix_socket_teardown_reports_nothing(tmp_path):
    """Stopping the hub with a worker still connected finishes every
    connection task, so loop teardown has nothing to cancel or report."""
    reported = []

    async def scenario():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: reported.append(context)
        )
        path = str(tmp_path / "hub.sock")
        hub = AsyncioTransport(path)
        await hub.start()
        worker = asyncio.create_task(
            serve_worker(path, lambda send: {"w": lambda src, payload: None})
        )
        await hub.wait_until(lambda: hub.known("w"))
        await hub.stop()
        # Return at once: whatever stop() left running is cancelled by
        # asyncio.run's teardown, which is where the reports would come.
        return worker

    asyncio.run(scenario())
    assert reported == []
