"""city_match — the read side of matching at city scale.

One broker (``batched=True``) holds an E14-shaped city: 48,000 band
subscriptions pinned to one of 144 subjects (2% subject wildcards),
spread over 240 subscriber clients.  16 gateways publish readings as
256-event ``publish_batch`` bursts, one burst every 10 ms of simulated
time (open loop in sim time: the schedule never waits for the broker).

Stresses ``PredicateIndex.match_batch`` and the fan-out to subscribers
(broker, network, client).  Bypasses the covering control plane (no
subscription is forwarded: there is one broker), the overlay, storage,
the correlation engine, the codec and the transport.
"""

from __future__ import annotations

import random
import time
from collections import Counter

from repro.events.broker import BrokerNode, SienaClient
from repro.net import GeographicLatency, Network, Position
from repro.simulation import Simulator

from perfbench.workloads import Phase
from perfbench.workloads.bands import BandOracle, band_specs, make_subjects, readings

SUBSCRIPTIONS = 48_000
STREETS = 24  # 6 place kinds x 24 streets = 144 subjects
WILDCARD_FRACTION = 0.02
SUBSCRIBERS = 240
GATEWAYS = 16
BURST = 256
BURST_GAP_S = 0.01
# Enough readings for ~30 s at today's rate; a run that exhausts them
# stops early and reports the rate over the time it did measure.
POOL = 64_000


class Workload:
    def __init__(self, seed: int) -> None:
        rng = random.Random(f"city_match:{seed}")
        self.seed = seed
        subjects = make_subjects(STREETS)
        self.specs = band_specs(rng, subjects, SUBSCRIPTIONS, WILDCARD_FRACTION)
        self.filters = [spec.to_filter() for spec in self.specs]
        self.owners = [i % SUBSCRIBERS for i in range(SUBSCRIPTIONS)]
        self.pool = readings(rng, subjects, POOL)
        self.positions = [
            Position(56.335 + rng.uniform(0.0, 0.01), -2.80 + rng.uniform(0.0, 0.02))
            for _ in range(1 + SUBSCRIBERS + GATEWAYS)
        ]

    def setup(self, traced: bool = False) -> "Instance":
        return Instance(self)


class Instance:
    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.sim = Simulator(seed=workload.seed)
        self.network = Network(self.sim, GeographicLatency(), batched=True)
        positions = iter(workload.positions)
        self.broker = BrokerNode(self.sim, self.network, next(positions), batched=True)
        self.clients = [
            SienaClient(self.sim, self.network, next(positions), self.broker)
            for _ in range(SUBSCRIBERS)
        ]
        self.gateways = [
            SienaClient(self.sim, self.network, next(positions), self.broker)
            for _ in range(GATEWAYS)
        ]
        for filter, owner in zip(workload.filters, workload.owners):
            self.clients[owner].subscribe(filter)
        self.sim.run_for(1.0)
        if self.sim.pending_events:
            raise RuntimeError("subscriptions did not drain during set-up")
        self.published_at: list[float] = []

    def run(self, seconds: float) -> Phase:
        sim, pool = self.sim, self.workload.pool
        start, cpu = time.perf_counter(), time.process_time()
        bursts = 0
        while (bursts + 1) * BURST <= len(pool):
            self.published_at.append(sim.now)
            self.gateways[bursts % GATEWAYS].publish_batch(pool[bursts * BURST:(bursts + 1) * BURST])
            bursts += 1
            sim.run_for(BURST_GAP_S)
            if time.perf_counter() - start >= seconds:
                break
        sim.run_for(1.0)
        elapsed = time.perf_counter() - start
        cpu = time.process_time() - cpu
        published_at = self.published_at
        latencies = [
            1000.0 * (at - published_at[n["seq"] // BURST])
            for client in self.clients
            for at, n in client.received
        ]
        return Phase(elapsed, bursts * BURST, bursts, latencies, cpu)

    def check(self) -> tuple[int, int]:
        """Every delivery against an independent evaluation of the bands."""
        oracle = BandOracle(self.workload.specs, self.workload.owners)
        expected = {
            (client, event["seq"])
            for event in self.workload.pool[: len(self.published_at) * BURST]
            for client in oracle.receivers(event)
        }
        actual = Counter(
            (index, n["seq"]) for index, client in enumerate(self.clients)
            for _, n in client.received
        )
        missing = len(expected - actual.keys())
        spurious = sum(count for key, count in actual.items() if key not in expected)
        duplicates = sum(count - 1 for key, count in actual.items() if key in expected)
        return len(expected), missing + spurious + duplicates

    def close(self) -> None:
        self.clients.clear()
        self.gateways.clear()
