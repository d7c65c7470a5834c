"""context_day — the paper's Figure 1, end to end, for one business hour.

``ActiveArchitecture`` builds 5 brokers, 16 Pastry/storage nodes and the
control plane; the set-up then simulates the idle infrastructure until
06:58, adds a synthetic city (weather sensor, an ice-cream shop open
07:00-18:00), 60 people with GPS sensors walking it, their knowledge-base
facts, the ``IceCreamMeetupService`` and ``WeatherAlertService``
matchlets and one user agent per person, and runs to 07:00.  The timed
phase simulates the day onward one minute at a time.  The day is warm
enough from 07:00 that both services really synthesise suggestions.

The only workload through the correlation engine, the Pastry overlay
and storage maintenance; the kernel and the simulated network carry
most of it.  Bypasses batched matching, the covering-heavy churn, the
codec and the transport.
"""

from __future__ import annotations

import random
import time
from collections import Counter

from repro import ActiveArchitecture, ArchitectureConfig
from repro.gis.places import OpeningHours, Place
from repro.knowledge.facts import Fact
from repro.net import Position
from repro.sensors import Person, RandomWaypoint, make_synthetic_city
from repro.services import IceCreamMeetupService, WeatherAlertService

from perfbench.workloads import Phase

PEOPLE = 60
CITY_CENTRE = Position(56.34, -2.80)
WEATHER_BASE_C = 24.0  # 21 C at 07:00 on the sensor's diurnal curve
# Populated just before the window opens, so the alerts a warm morning
# triggers at once (each user gets one per hour) fall inside it.
POPULATE_AT_H = 6.0 + 58 / 60
OPEN_AT_H = 7.0
CHUNK_S = 60.0
DRAIN_S = 5.0
# The deployment (infrastructure and city) is fixed; the seed varies
# where the people start, and so every walk and meeting after that.
FLEET_SEED = 31


class Workload:
    def __init__(self, seed: int) -> None:
        self.city = make_synthetic_city("perfville", random.Random(f"context_day:city:{FLEET_SEED}"),
                                        centre=CITY_CENTRE, places=25)
        rng = random.Random(f"context_day:{seed}")
        self.city.add_place(Place("gelato-central", self.city.region.centre, "ice-cream-shop",
                                  OpeningHours.from_hours(OPEN_AT_H, 18.0)))
        names = [f"user{i}" for i in range(PEOPLE)]
        # People walk, so each instance gets fresh Person objects built
        # from these fixed starting points.
        self.people = [
            dict(name=name, position=self.city.random_position(rng),
                 nationality="scottish" if i % 2 == 0 else "italian",
                 likes=["ice-cream"], knows=[names[(i + 1) % PEOPLE]])
            for i, name in enumerate(names)
        ]
        self.facts = []
        for i, spec in enumerate(self.people):
            self.facts.extend(Person(**spec).profile_facts())
            self.facts.append(Fact(spec["name"], "free-time", True))
            # Thresholds the warming morning crosses between 07:05 and 07:40.
            self.facts.append(Fact(spec["name"], "alert-temp-above", 21.1 + 0.15 * (i % 6)))

    def setup(self, traced: bool = False) -> "Instance":
        return Instance(self)


class Instance:
    def __init__(self, workload: Workload) -> None:
        self.arch = arch = ActiveArchitecture(
            ArchitectureConfig(seed=FLEET_SEED, overlay_nodes=16, brokers=5))
        arch.run(POPULATE_AT_H * 3600.0 - arch.sim.now)
        arch.add_city(workload.city, weather_base_c=WEATHER_BASE_C)
        for spec in workload.people:
            arch.add_person(Person(**spec, mobility=RandomWaypoint(workload.city, pause_s=300.0)))
        arch.settle(arch.publish_facts(workload.facts))
        self.services = [
            arch.deploy_service(IceCreamMeetupService(workload.city)),
            arch.deploy_service(WeatherAlertService()),
        ]
        self.agents = [arch.add_user_agent(spec["name"]) for spec in workload.people]
        arch.run(OPEN_AT_H * 3600.0 - arch.sim.now)
        self.started_at = arch.sim.now
        self.ended_at = self.started_at

    def _emitted(self) -> int:
        return sum(sensor.emitted for sensor in self.arch.sensors)

    def run(self, seconds: float) -> Phase:
        arch = self.arch
        first = self._emitted()
        start, cpu = time.perf_counter(), time.process_time()
        while time.perf_counter() - start < seconds:
            arch.run(CHUNK_S)
        self.ended_at = arch.sim.now
        events = self._emitted() - first
        arch.run(DRAIN_S)
        elapsed = time.perf_counter() - start
        cpu = time.process_time() - cpu
        # Latency of the meetup matchlet's input stream only: the two
        # matchlets sit behind different brokers, so their samples form
        # two equal modes and a median over both flips between them.
        latencies = [
            1000.0 * (at - n.time)
            for at, n in self.services[0].ingress.received
            if self.started_at <= n.time <= self.ended_at
        ]
        return Phase(elapsed, events, events, latencies, cpu)

    def check(self) -> tuple[int, int]:
        """Both services synthesise, and every suggestion reaches its user."""
        window = self.started_at, self.ended_at
        synthesised = Counter(
            n for service in self.services for n in service.suggestions
            if window[0] <= n.time <= window[1]
        )
        delivered = Counter(
            n for agent in self.agents for _, n in agent.received
            if window[0] <= n.time <= window[1]
        )
        silent = sum(1 for service in self.services
                     if not any(window[0] <= n.time <= window[1] for n in service.suggestions))
        mismatched = sum(((synthesised - delivered) + (delivered - synthesised)).values())
        return sum(synthesised.values()) + len(self.services), mismatched + silent

    def close(self) -> None:
        self.services.clear()
        self.agents.clear()
