"""The socket fleet behind one small adapter, plus its worker entry.

Today the fleet is the sharded matching plane of
:mod:`repro.events.sharding`: this process is the hub
(``AsyncioTransport`` on a unix socket, hosting the ``ShardRouter`` and
every client), and one worker process (``python -m perfbench.fleet``)
serves all shard endpoints through the public
:func:`repro.net.transport.serve_worker`.
A fleet of real ``BrokerNode``s on sockets would replace this module
only: workloads talk to :class:`SocketFleet` alone.

When traced, the worker installs the same probes as the hub and, after
EOF, writes its spans and a timestamped counter log to a file, so the
hub can split them at the start of its timed phase.
"""

from __future__ import annotations

import asyncio
import functools
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

from repro.events.broker import NotifyBatch
from repro.events.filters import Filter
from repro.events.model import Notification
from repro.events.sharding import FleetClient, ShardEndpoint, ShardPlan, build_shard_fleet
from repro.net.transport import AsyncioTransport, serve_worker

from perfbench.tracing import SpanRecorder, load

JOIN_TIMEOUT_S = 15.0
ROOT = Path(__file__).resolve().parent.parent


class _CounterLog(SpanRecorder):
    """A recorder whose counter updates keep their time, for splitting later."""

    def __init__(self) -> None:
        super().__init__()
        self.log: list[tuple[float, str, float, bool]] = []

    def add(self, key: str, amount: float = 1) -> None:
        self.log.append((time.perf_counter(), key, amount, False))

    def peak(self, key: str, value: float) -> None:
        self.log.append((time.perf_counter(), key, value, True))


def worker_main(path: str, n_shards: int, span_file: str | None) -> None:
    """Entry point of the worker process: every shard, until EOF."""
    recorder = None
    if span_file is not None:
        from perfbench import probes

        recorder = _CounterLog()
        probes.install(recorder)
    plan = ShardPlan(n_shards)
    shard_addrs = {sid: f"shard-{sid}" for sid in range(n_shards)}

    def build(send: Callable) -> dict:
        endpoints = [ShardEndpoint(sid, plan, shard_addrs[sid], send, shard_addrs)
                     for sid in range(n_shards)]
        return {endpoint.addr: endpoint.handle for endpoint in endpoints}

    asyncio.run(serve_worker(path, build))
    if recorder is not None:
        recorder.restore()
        recorder.dump(span_file, {"log": recorder.log})


def split_worker_trace(span_file: str, boundary: float) -> tuple[list[list], dict]:
    """The worker's spans and counters from ``boundary`` on, rebased."""
    header, spans = load(span_file)
    first = next((i for i, span in enumerate(spans) if span[1] >= boundary), len(spans))
    tail = [[name, start, end, parent - first if parent >= first else -1, pub]
            for name, start, end, parent, pub in spans[first:]]
    counters: dict[str, float] = {}
    for at, key, amount, is_peak in header["log"]:
        if at < boundary:
            continue
        if is_peak:
            counters[key] = max(counters.get(key, 0), amount)
        else:
            counters[key] = counters.get(key, 0) + amount
    return tail, counters


class SocketFleet:
    """Start the fleet, attach clients, publish, and stop it.

    ``on_receipt(client, notifications, at)`` is called for every batch a
    client receives, with the hub's ``time.perf_counter()`` at arrival.
    """

    def __init__(self, path: str, n_shards: int,
                 on_receipt: Callable[[str, tuple, float], None],
                 span_file: str | None = None) -> None:
        self.path = path
        self.plan = ShardPlan(n_shards)
        self.span_file = span_file
        self.on_receipt = on_receipt
        self.transport = AsyncioTransport(path)
        self.router = None
        self.clients: dict[str, FleetClient] = {}
        self.worker: subprocess.Popen | None = None

    async def start(self, timeout: float = 30.0) -> None:
        if os.path.exists(self.path):
            os.unlink(self.path)
        await self.transport.start()
        self.router, _ = build_shard_fleet(self.plan, self.transport.send)
        self.transport.register(self.router.addr, self.router.handle)
        # A plain child process (not multiprocessing, whose resource
        # tracker would outlive the benchmark) that reap() waits for.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")]))
        self.worker = subprocess.Popen(
            [sys.executable, "-m", "perfbench.fleet", self.path, str(self.plan.n_shards),
             self.span_file or ""],
            env=env)
        shard_addrs = list(self.router.shard_addrs.values())
        await self.transport.wait_until(
            lambda: all(self.transport.known(addr) for addr in shard_addrs), timeout)

    def add_client(self, name: str) -> None:
        client = FleetClient(name, self.router.addr, self.transport.send)
        self.clients[name] = client
        self.transport.register(name, functools.partial(self._deliver, client))
        self.router.attach_client(name)

    def _deliver(self, client: FleetClient, src, payload) -> None:
        at = time.perf_counter()
        client.handle(src, payload)
        if isinstance(payload, NotifyBatch):
            self.on_receipt(client.addr, payload.notifications, at)

    def subscribe(self, name: str, filter: Filter) -> None:
        self.clients[name].subscribe(filter)

    def publish(self, name: str, notification: Notification) -> None:
        self.clients[name].publish(notification)

    def publish_batch(self, name: str, notifications: list) -> None:
        self.clients[name].publish_batch(notifications)

    @property
    def frames_relayed(self) -> int:
        return self.transport.frames_relayed

    async def stop(self) -> None:
        """Close the hub; the worker sees EOF and exits."""
        await self.transport.stop()

    def reap(self) -> None:
        """Wait for the worker to exit (after :meth:`stop`), then clean up."""
        worker, self.worker = self.worker, None
        if worker is not None:
            try:
                worker.wait(JOIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()
        if os.path.exists(self.path):
            os.unlink(self.path)


if __name__ == "__main__":
    worker_main(sys.argv[1], int(sys.argv[2]), sys.argv[3] or None)
