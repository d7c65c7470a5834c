"""Asyncio socket transport: the broker protocol on real connections.

Same interface as :class:`repro.simulation.transport.SimTransport` —
``register(addr, handler)`` + ``send(src, dst, payload)`` — but frames
move over unix-domain stream sockets through the wire codec in
:mod:`repro.net.serialization`, so the sharded fleet runs as a real
multi-process deployment (or as in-process loopback for tests) instead
of only under the discrete-event kernel.

Topology is a star: the :class:`AsyncioTransport` instance is the *hub*
(it listens, and hosts whatever endpoints were registered on it —
typically the :class:`~repro.events.sharding.ShardRouter` and the
clients).  Worker processes connect with :func:`serve_worker`, announce
the addresses they host via a ``Hello`` frame, and the hub relays any
frame whose destination lives on another connection.  The relay costs a
hop, but keeps connection management O(workers) — and the scaling story
lives in the *partitioned matching*, not in socket topology (see
``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

import asyncio
import logging
import multiprocessing
import os
from typing import Any, Callable, Dict

from repro.net.serialization import FrameDecoder, Hello, encode_frame

Address = Any  # JSON scalar (str | int) on this transport
Handler = Callable[[Address, Any], None]

_READ_CHUNK = 65536

logger = logging.getLogger(__name__)


def _dispatch(handler: Handler, src: Address, dst: Address, payload: Any) -> bool:
    """Run one handler; one that raises is logged instead of killing the loop.

    Returns ``False`` when the handler raised, so the caller can count it.
    """
    try:
        handler(src, payload)
    except Exception:
        logger.exception("handler for %r raised on a message from %r", dst, src)
        return False
    return True


class AsyncioTransport:
    """The hub node: local endpoint registry + listener + relay.

    ``send`` is synchronous (fleet components call it from inside their
    handlers): local destinations are queued onto the event loop, remote
    ones are framed onto the owning connection, unknown ones dropped —
    the same silent-drop semantics the simulated network gives a
    vanished peer.  A handler that raises is logged and counted in
    ``handler_errors``; dispatch carries on with the next message.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self._handlers: Dict[Address, Handler] = {}
        self._routes: Dict[Address, asyncio.StreamWriter] = {}
        self._server: asyncio.AbstractServer | None = None
        self._queue: asyncio.Queue | None = None
        self._pump: asyncio.Task | None = None
        # Open connections: the task serving each, and its writer.
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self.frames_relayed = 0
        self.handler_errors = 0

    def register(self, addr: Address, handler: Handler) -> None:
        self._handlers[addr] = handler

    def known(self, addr: Address) -> bool:
        """Is ``addr`` reachable (local handler or announced route)?"""
        return addr in self._handlers or addr in self._routes

    def send(self, src: Address, dst: Address, payload: Any) -> None:
        if dst in self._handlers:
            assert self._queue is not None, "transport not started"
            self._queue.put_nowait((src, dst, payload))
            return
        writer = self._routes.get(dst)
        if writer is not None and not writer.is_closing():
            writer.write(encode_frame(src, dst, payload))

    async def start(self) -> None:
        self._queue = asyncio.Queue()
        self._pump = asyncio.create_task(self._pump_loop())
        if self.path is not None:
            self._server = await asyncio.start_unix_server(
                self._serve_connection, path=self.path
            )

    async def _pump_loop(self) -> None:
        assert self._queue is not None
        while True:
            src, dst, payload = await self._queue.get()
            try:
                handler = self._handlers.get(dst)
                if handler is not None and not _dispatch(handler, src, dst, payload):
                    self.handler_errors += 1
            finally:
                self._queue.task_done()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        decoder = FrameDecoder()
        announced: list[Address] = []
        try:
            while data := await reader.read(_READ_CHUNK):
                for src, dst, message in decoder.feed(data):
                    if isinstance(message, Hello):
                        for addr in message.addrs:
                            self._routes[addr] = writer
                            announced.append(addr)
                        continue
                    if dst not in self._handlers:
                        self.frames_relayed += 1
                    self.send(src, dst, message)
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass
        finally:
            del self._connections[task]
            for addr in announced:
                if self._routes.get(addr) is writer:
                    del self._routes[addr]
            writer.close()

    async def drain(self) -> None:
        """Wait for queued local dispatches and outbound buffers."""
        if self._queue is not None:
            await self._queue.join()
        for writer in set(self._routes.values()):
            if not writer.is_closing():
                await writer.drain()

    async def wait_until(
        self, predicate: Callable[[], bool], timeout: float = 10.0
    ) -> None:
        """Poll ``predicate`` until true — the fleet has no global clock."""
        async with asyncio.timeout(timeout):
            while not predicate():
                await asyncio.sleep(0.01)

    async def stop(self) -> None:
        """Stop listening, close every connection and wait for its task.

        A connection task still pending when the loop shuts down would
        be cancelled there, and asyncio reports each such cancellation.
        """
        if self._pump is not None:
            self._pump.cancel()
            try:
                await self._pump
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
        for writer in self._connections.values():
            writer.close()
        if self._connections:
            await asyncio.wait(list(self._connections))
        if self._server is not None:
            await self._server.wait_closed()
        self._routes.clear()


async def serve_worker(
    path: str,
    build: Callable[[Callable[[Address, Address, Any], None]], Dict[Address, Handler]],
    connect_timeout: float = 10.0,
) -> None:
    """Run one worker node: connect to the hub and serve until it closes.

    ``build(send)`` constructs the worker's endpoints and returns the
    ``addr -> handler`` map to host; the addresses are announced to the
    hub, which relays matching frames here.  Sends between two endpoints
    of the same worker short-circuit locally.  A handler that raises is
    logged and the worker keeps serving.
    """
    deadline = asyncio.get_running_loop().time() + connect_timeout
    while True:
        try:
            reader, writer = await asyncio.open_unix_connection(path)
            break
        except (FileNotFoundError, ConnectionRefusedError):
            if asyncio.get_running_loop().time() > deadline:
                raise
            await asyncio.sleep(0.05)

    local: Dict[Address, Handler] = {}
    queue: asyncio.Queue = asyncio.Queue()

    def send(src: Address, dst: Address, payload: Any) -> None:
        if dst in local:
            queue.put_nowait((src, dst, payload))
        elif not writer.is_closing():
            writer.write(encode_frame(src, dst, payload))

    local.update(build(send))
    writer.write(encode_frame("", "", Hello(tuple(local))))
    await writer.drain()

    async def pump() -> None:
        while True:
            src, dst, payload = await queue.get()
            handler = local.get(dst)
            if handler is not None:
                _dispatch(handler, src, dst, payload)

    pump_task = asyncio.create_task(pump())
    decoder = FrameDecoder()
    try:
        while data := await reader.read(_READ_CHUNK):
            for src, dst, message in decoder.feed(data):
                handler = local.get(dst)
                if handler is not None:
                    _dispatch(handler, src, dst, message)
    except ConnectionError:
        pass  # the hub closed the link while replies were in flight: EOF
    finally:
        pump_task.cancel()
        writer.close()


def _shard_worker_main(
    path: str,
    n_shards: int,
    partition_attr: str,
    vnodes: int,
    shard_ids: tuple,
) -> None:
    """Entry point of one shard worker process (picklable scalars only)."""
    from repro.events.sharding import ShardEndpoint, ShardPlan

    plan = ShardPlan(n_shards, partition_attr=partition_attr, vnodes=vnodes)
    shard_addrs = {sid: f"shard-{sid}" for sid in range(n_shards)}

    def build(send: Callable) -> Dict[Address, Handler]:
        endpoints = {}
        for sid in shard_ids:
            endpoint = ShardEndpoint(sid, plan, shard_addrs[sid], send, shard_addrs)
            endpoints[endpoint.addr] = endpoint.handle
        return endpoints

    asyncio.run(serve_worker(path, build))


def spawn_shard_workers(
    path: str, plan, groups: list[tuple]
) -> list[multiprocessing.Process]:
    """Fork one OS process per shard group, each serving its endpoints.

    ``groups`` is a list of shard-id tuples, one per process.  Workers
    retry the hub connection, so they may be spawned before the hub
    listens.  The caller owns termination (``terminate()``/``join()``).
    """
    context = multiprocessing.get_context(
        "fork" if os.name == "posix" else "spawn"
    )
    processes = []
    for shard_ids in groups:
        process = context.Process(
            target=_shard_worker_main,
            args=(path, plan.n_shards, plan.partition_attr, plan.vnodes, tuple(shard_ids)),
            daemon=True,
        )
        process.start()
        processes.append(process)
    return processes
