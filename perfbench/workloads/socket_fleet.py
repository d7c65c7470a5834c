"""socket_fleet — the real multi-process fleet: codec and transport.

This process is the hub: ``AsyncioTransport`` on a unix socket, the
``ShardRouter``, 20 subscriber clients holding 400 subject-pinned band
subscriptions, one monitoring sink subscribed to every reading, and one
publisher.  One worker process serves all 4 shards, so two
processes share one connection (see :mod:`perfbench.fleet`).

The timed phase has two halves:

* open loop — single-event ``Publish`` at a fixed 1,000 events/s, well
  below the knee; each delivery's latency runs from the event's *due*
  time to its receipt, so a stalled generator is charged to latency;
* closed loop — 64-event ``publish_batch`` calls with at most 8 batches
  in flight (the sink's receipts retire them); throughput is events
  fully delivered per second.

The only workload through the wire codec and the socket transport, at
the smallest frame (one event) and a larger one (64).  Bypasses the
simulated kernel and network, the broker, covering, the overlay,
storage and the engine.
"""

from __future__ import annotations

import asyncio
import os
import random
import time
from collections import Counter

from repro.events.filters import Filter, exists

from perfbench import OUT_DIR
from perfbench.fleet import SocketFleet, split_worker_trace
from perfbench.workloads import Phase
from perfbench.workloads.bands import BandOracle, band_specs, make_subjects, readings

SHARDS = 4
SUBSCRIBERS = 20
SUBSCRIPTIONS = 400
STREETS = 3  # 18 subjects
WILDCARD_FRACTION = 0.02
OPEN_RATE = 1000.0
BATCH = 64
WINDOW = 8
WARMUP_EVENTS = 256
# Readings for the closed loop: ~8 s at today's rate; a run that
# exhausts them stops early and reports the rate it measured.
CLOSED_POOL = 100_000
DEADLINE_S = 20.0
PUBLISHER = "publisher"
SINK = "sink"


class Workload:
    # Set-up is cheap but its time is dominated by starting the worker
    # process, which is noisy, so it is repeated more often.
    setups = 9

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"socket_fleet:{seed}")
        subjects = make_subjects(STREETS)
        self.specs = band_specs(rng, subjects, SUBSCRIPTIONS, WILDCARD_FRACTION)
        self.filters = [spec.to_filter() for spec in self.specs]
        self.owners = [f"client-{i % SUBSCRIBERS}" for i in range(SUBSCRIPTIONS)]
        self.readings = readings(rng, subjects, CLOSED_POOL + 60_000)
        self.oracle = BandOracle(self.specs, self.owners)

    def setup(self, traced: bool = False) -> "Instance":
        return Instance(self, traced)


class Instance:
    def __init__(self, workload: Workload, traced: bool) -> None:
        self.workload = workload
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tag = f"fleet-{os.getpid()}-{time.perf_counter_ns()}"
        path = os.path.relpath(OUT_DIR / f"{tag}.sock")
        self.span_file = str(OUT_DIR / f"{tag}-worker.jsonl") if traced else None
        self.receipts: list[tuple[str, int, float]] = []
        self.due: dict[int, float] = {}
        self.sunk = 0
        self.delivered = 0  # receipts of readings after the warm-up
        self.progress: asyncio.Event | None = None
        self.fleet = SocketFleet(path, SHARDS, self._on_receipt, self.span_file)
        self.next_reading = 0
        self.expected: Counter | None = None
        self.runner = asyncio.Runner()
        try:
            self.runner.run(self._start())
        except BaseException:
            self.close()
            raise

    def _on_receipt(self, client: str, notifications: tuple, at: float) -> None:
        receipts = self.receipts
        for notification in notifications:
            receipts.append((client, notification["seq"], at))
            self.delivered += notification["seq"] >= WARMUP_EVENTS
        if client == SINK:
            self.sunk += len(notifications)
            self.progress.set()

    def _take(self, count: int) -> list:
        start = self.next_reading
        self.next_reading += count
        return self.workload.readings[start:self.next_reading]

    async def _wait_sunk(self, target: int, timeout: float) -> bool:
        deadline = time.perf_counter() + timeout
        while self.sunk < target:
            left = deadline - time.perf_counter()
            if left <= 0:
                return False
            self.progress.clear()
            try:
                await asyncio.wait_for(self.progress.wait(), left)
            except TimeoutError:
                return False
        return True

    async def _start(self) -> None:
        self.progress = asyncio.Event()
        fleet = self.fleet
        await fleet.start()
        for name in [SINK, PUBLISHER] + sorted(set(self.workload.owners)):
            fleet.add_client(name)
        fleet.subscribe(SINK, Filter(exists("seq")))
        for filter, owner in zip(self.workload.filters, self.workload.owners):
            fleet.subscribe(owner, filter)
        # Frames on one connection stay in order, so once the sink has the
        # warm-up readings every subscription before them is installed.
        fleet.publish_batch(PUBLISHER, self._take(WARMUP_EVENTS))
        if not await self._wait_sunk(WARMUP_EVENTS, DEADLINE_S):
            raise RuntimeError("socket fleet did not come up")

    async def _open_loop(self, seconds: float) -> float:
        """Publish on a fixed schedule; returns the worst lateness (s)."""
        count = int(OPEN_RATE * seconds)
        events = self._take(count)
        fleet, due = self.fleet, self.due
        begin = time.perf_counter()
        worst = 0.0
        sent = 0
        while sent < count:
            now = time.perf_counter()
            next_due = begin + sent / OPEN_RATE
            if next_due > now:
                await asyncio.sleep(next_due - now)
                continue
            while sent < count and begin + sent / OPEN_RATE <= now:
                event = events[sent]
                due[event["seq"]] = begin + sent / OPEN_RATE
                worst = max(worst, now - due[event["seq"]])
                fleet.publish(PUBLISHER, event)
                sent += 1
            await asyncio.sleep(0)
        await self._wait_sunk(self.next_reading, DEADLINE_S)
        return worst

    async def _closed_loop(self, seconds: float) -> tuple[int, int, float]:
        """Batches with a bounded window; returns (events, calls, elapsed)."""
        fleet = self.fleet
        pool_end = len(self.workload.readings)
        first = self.next_reading
        begin = time.perf_counter()
        calls = 0
        while time.perf_counter() - begin < seconds and self.next_reading + BATCH <= pool_end:
            while (self.next_reading - self.sunk < WINDOW * BATCH
                   and self.next_reading + BATCH <= pool_end):
                fleet.publish_batch(PUBLISHER, self._take(BATCH))
                calls += 1
            if not await self._wait_sunk(self.sunk + 1, DEADLINE_S):
                break  # the fleet stalled; check() counts what went missing
        await self._wait_sunk(self.next_reading, DEADLINE_S)
        return self.next_reading - first, calls, time.perf_counter() - begin

    async def _timed(self, seconds: float) -> Phase:
        relayed = self.fleet.frames_relayed
        begin, cpu = time.perf_counter(), time.process_time()
        self.boundary = begin
        worst = await self._open_loop(seconds / 2.0)
        events, calls, elapsed = await self._closed_loop(seconds / 2.0)
        wall = time.perf_counter() - begin
        cpu = time.process_time() - cpu
        # The sink has every reading, but a subscriber homed on another
        # shard may still have its last batch in flight: wait for the
        # expected total (untimed) before the oracle looks.
        deadline = time.perf_counter() + DEADLINE_S
        while self.delivered < sum(self._expected().values()) and time.perf_counter() < deadline:
            await asyncio.sleep(0.01)
        due = self.due
        latencies = [1000.0 * (at - due[seq]) for _, seq, at in self.receipts if seq in due]
        extra = {
            "phase_wall_s": wall,
            "counters": {
                "transport.gen_late_ms": 1000.0 * worst,
                "transport.frames_relayed": self.fleet.frames_relayed - relayed,
            },
        }
        return Phase(elapsed, events, calls, latencies, cpu, extra)

    def run(self, seconds: float) -> Phase:
        self.phase = self.runner.run(self._timed(seconds))
        return self.phase

    def _expected(self) -> Counter:
        """Deliveries the published readings must produce, from the oracle."""
        if self.expected is None:
            oracle = self.workload.oracle
            self.expected = Counter()
            for event in self.workload.readings[WARMUP_EVENTS:self.next_reading]:
                self.expected[(SINK, event["seq"])] += 1
                for client in oracle.receivers(event):
                    self.expected[(client, event["seq"])] += 1
        return self.expected

    def check(self) -> tuple[int, int]:
        """Every expected delivery arrived before the deadline, exactly once."""
        expected = self._expected()
        actual = Counter((client, seq) for client, seq, _ in self.receipts
                         if seq >= WARMUP_EVENTS)
        return sum(expected.values()), sum(((actual - expected) + (expected - actual)).values())

    def close(self) -> None:
        try:
            self.runner.run(self.fleet.stop())
        finally:
            self.runner.close()
            self.fleet.reap()
        if self.span_file is not None and hasattr(self, "phase"):
            spans, counters = split_worker_trace(self.span_file, self.boundary)
            self.phase.extra["worker_spans"] = spans
            self.phase.extra["counters"].update(counters)
