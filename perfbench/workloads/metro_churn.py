"""metro_churn — the write side of the index plus the covering control plane.

A 13-broker ``build_broker_tree`` (default knobs: covering, indexed;
geographic latency) serves 200 ``MobileClient``s
holding standing subject-pinned band subscriptions.  The timed phase
walks a fixed script, one step every 4 s of simulated time (open loop
in sim time): in turn a subscribe, an unsubscribe, and a Mobikit move
(move-out, then move-in at another broker 3.2 s later), each followed
by 10 single ``publish`` calls from 20 sensor clients 2 s after the
step's control operation.

Stresses ``CoveringPoset`` queries and ``PredicateIndex`` writes on
every broker a subscription floods to, per-event dispatch and proxy
hand-over.  Bypasses batched matching, the overlay, storage, the
engine, the codec and the transport.

The overlay is a tree, not ``build_broker_mesh``: with covering on (its
default), the mesh loses deliveries for good.  A subscription that a
broker suppresses because an already-forwarded filter covers it never
reaches the brokers on that covering filter's source path, since the
path-scoped flood does not send the covering filter back along it; a
publication entering at one of those brokers then has no route to the
covered subscriber (seed 168830290: client 22 misses seq 1225 after
moving to broker 3).  The tree and ``covering_enabled=False`` deliver
every publication.  Duplicate suppression across cycles is therefore
not exercised here.

The settle gaps (2 s before the publications, 0.8 s after the move-in
before the next step) exceed the tree's worst control-plane transit,
so what each client must receive follows from the script alone: every
publication goes to each client holding a matching subscription when it
is published (a client that is moving receives it from its proxy after
the move-in).  The oracle evaluates that directly from the script's
band specs, without the program's matching code.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass

from repro.events.broker import SienaClient, build_broker_tree
from repro.events.mobility import MobileClient
from repro.events.model import make_event
from repro.net import Network
from repro.simulation import Simulator

from perfbench.workloads import Phase
from perfbench.workloads.bands import BandSpec

BROKERS = 13
MOBILE_CLIENTS = 200
SENSORS = 20
# One standing band per client: moves then carry equal state, and with
# 300 bands the covering cascades made throughput swing ~13% from seed
# to seed against ~2% here.
STANDING = 200
SUBJECTS = 24
PUBLICATIONS_PER_STEP = 10
STEP_S = 4.0
PUBLISH_AT_S = 2.0
PUBLISH_GAP_S = 0.02
MOVE_IN_AT_S = 3.2
# Steps cycle through the three kinds in a fixed order, so every second
# of the timed phase carries the same mix of control operations.
KINDS = ("subscribe", "unsubscribe", "move")
# Script length: far more steps than one run reaches today, so the run
# is bounded by --seconds, not by the script.
SCRIPT_STEPS = 3_000
# The deployment (tree, clients, standing subscriptions) is fixed: how
# much covering work a step costs depends on the standing population, so
# drawing it per seed moved throughput from seed to seed.  The seed
# varies the churn script and the publications.
FLEET_SEED = 11


@dataclass(frozen=True, slots=True)
class Step:
    kind: str  # "subscribe" | "unsubscribe" | "move"
    client: int
    band: BandSpec | None
    broker: int  # move target
    publications: tuple  # ((sensor, notification), ...)
    receivers: tuple  # per publication, the clients that must receive it


def _band(rng: random.Random, subjects: list[str]) -> BandSpec:
    low = rng.uniform(0.0, 10.0)
    return BandSpec(rng.choice(subjects), low, low + rng.uniform(1.0, 3.0), False)


class Workload:
    # Set-up takes about a second, short enough for CPU-speed jitter on a
    # shared host to move a median of three by a third, so it is repeated more.
    setups = 7

    def __init__(self, seed: int) -> None:
        subjects = [f"zone-{i}" for i in range(SUBJECTS)]
        standing_rng = random.Random(f"metro_churn:standing:{FLEET_SEED}")
        self.standing = [(i % MOBILE_CLIENTS, _band(standing_rng, subjects))
                         for i in range(STANDING)]
        rng = random.Random(f"metro_churn:{seed}")
        self.filters = {band: band.to_filter() for _, band in self.standing}
        held: dict[int, list[BandSpec]] = {}
        by_subject: dict[str, list[tuple[int, BandSpec]]] = {}
        for client, band in self.standing:
            held.setdefault(client, []).append(band)
            by_subject.setdefault(band.subject, []).append((client, band))
        home = {client: client % BROKERS for client in range(MOBILE_CLIENTS)}
        self.steps: list[Step] = []
        seq = 0
        for index in range(SCRIPT_STEPS):
            kind = KINDS[index % len(KINDS)]
            if kind == "unsubscribe":
                client = rng.choice([c for c, bands in held.items() if bands])
            else:
                client = rng.randrange(MOBILE_CLIENTS)
            band, broker = None, home[client]
            if kind == "subscribe":
                band = _band(rng, subjects)
                self.filters[band] = band.to_filter()
                held.setdefault(client, []).append(band)
                by_subject.setdefault(band.subject, []).append((client, band))
            elif kind == "unsubscribe":
                band = held[client].pop(rng.randrange(len(held[client])))
                by_subject[band.subject].remove((client, band))
            else:
                broker = rng.choice([b for b in range(BROKERS) if b != home[client]])
                home[client] = broker
            publications = []
            receivers = []
            for _ in range(PUBLICATIONS_PER_STEP):
                subject, strength = rng.choice(subjects), rng.uniform(0.0, 12.0)
                publications.append((rng.randrange(SENSORS),
                                     make_event(subject, strength=strength, seq=seq)))
                receivers.append(frozenset(
                    holder for holder, b in by_subject.get(subject, ())
                    if b.low < strength < b.high
                ))
                seq += 1
            self.steps.append(Step(kind, client, band, broker, tuple(publications),
                                   tuple(receivers)))

    def setup(self, traced: bool = False) -> "Instance":
        return Instance(self)


class Instance:
    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.sim = Simulator(seed=FLEET_SEED)
        self.network = Network(self.sim)
        self.brokers = build_broker_tree(self.sim, self.network, BROKERS)
        self.clients = [
            MobileClient(self.sim, self.network, self.brokers[i % BROKERS].position,
                         self.brokers[i % BROKERS])
            for i in range(MOBILE_CLIENTS)
        ]
        self.sensors = [
            SienaClient(self.sim, self.network, self.brokers[i % BROKERS].position,
                        self.brokers[i % BROKERS])
            for i in range(SENSORS)
        ]
        for client, band in workload.standing:
            self.clients[client].subscribe(workload.filters[band])
        self.sim.run_for(30.0)
        if self.sim.pending_events:
            raise RuntimeError("standing subscriptions did not settle during set-up")
        self.steps_done = 0
        self.published_at: dict[int, float] = {}

    def _step(self, step: Step) -> int:
        """Execute one script step; returns the client calls it made."""
        sim = self.sim
        begin = sim.now
        client = self.clients[step.client]
        calls = PUBLICATIONS_PER_STEP + 1
        if step.kind == "subscribe":
            client.subscribe(self.workload.filters[step.band])
        elif step.kind == "unsubscribe":
            client.unsubscribe(self.workload.filters[step.band])
        else:
            client.move_out()
            calls += 1
        for index, (sensor, notification) in enumerate(step.publications):
            sim.run(until=begin + PUBLISH_AT_S + index * PUBLISH_GAP_S)
            self.published_at[notification["seq"]] = sim.now
            self.sensors[sensor].publish(notification)
        if step.kind == "move":
            sim.run(until=begin + MOVE_IN_AT_S)
            client.move_in(self.brokers[step.broker])
        sim.run(until=begin + STEP_S)
        self.steps_done += 1
        return calls

    def run(self, seconds: float) -> Phase:
        start, cpu = time.perf_counter(), time.process_time()
        calls = 0
        for step in self.workload.steps:
            calls += self._step(step)
            if time.perf_counter() - start >= seconds:
                break
        self.sim.run_for(STEP_S)
        elapsed = time.perf_counter() - start
        cpu = time.process_time() - cpu
        latencies = [
            1000.0 * (at - self.published_at[n["seq"]])
            for client in self.clients for at, n in client.received
        ]
        events = self.steps_done * PUBLICATIONS_PER_STEP
        return Phase(elapsed, events, calls, latencies, cpu)

    def check(self) -> tuple[int, int]:
        """Every client's deliveries against the script's expectation."""
        expected = Counter(
            (client, notification["seq"])
            for step in self.workload.steps[: self.steps_done]
            for (_, notification), receivers in zip(step.publications, step.receivers)
            for client in receivers
        )
        actual = Counter(
            (index, n["seq"]) for index, client in enumerate(self.clients)
            for _, n in client.received
        )
        return sum(expected.values()), sum(((actual - expected) + (expected - actual)).values())

    def close(self) -> None:
        self.clients.clear()
        self.sensors.clear()
