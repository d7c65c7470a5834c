"""Subject-pinned band subscriptions and their independent oracle.

``city_match`` and ``socket_fleet`` share one interest shape: "tell me
when the reading at this place sits between ``low`` and ``high``" — an
equality on the subject plus a numeric band — with a small share of
subject wildcards ("anything above ``x``", optionally only readings
located on a street).  Bands are where a counting index pays for
threshold windows; wildcards are what a subject partition must
replicate.

:class:`BandOracle` answers "who should receive this reading?" from the
generated specs alone, with numpy comparisons instead of
``Filter.matches`` or any index, so a matching bug cannot hide in both
the program and its check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.events.filters import Filter, eq, exists, gt, lt
from repro.events.model import Notification, make_event

PLACE_KINDS = ("cafe", "shop", "park", "station", "museum", "library")


def make_subjects(streets: int) -> list[str]:
    """``kind@street`` partitions: 6 place kinds per street."""
    return [f"{kind}@street-{s}" for kind in PLACE_KINDS for s in range(streets)]


@dataclass(frozen=True, slots=True)
class BandSpec:
    """One subscription as data: ``subject=None`` marks a wildcard."""

    subject: str | None
    low: float
    high: float  # +inf for wildcards
    needs_street: bool

    def to_filter(self) -> Filter:
        if self.subject is None:
            if self.needs_street:
                return Filter(exists("street"), gt("strength", self.low))
            return Filter(gt("strength", self.low))
        return Filter(eq("type", self.subject), gt("strength", self.low),
                      lt("strength", self.high))


def band_specs(rng: random.Random, subjects: list[str], count: int,
               wildcard_fraction: float) -> list[BandSpec]:
    """Narrow strength bands pinned to one subject, plus rare wildcards.

    Wildcards are every ``1/wildcard_fraction``-th spec, not a coin
    flip, and their thresholds sit in a narrow range near the top of the
    strength scale: each wildcard receives a few percent of all readings,
    so how many there are and where they sit would otherwise move the
    fan-out per event from seed to seed.
    """
    every = round(1 / wildcard_fraction) if wildcard_fraction else 0
    specs = []
    for index in range(count):
        if every and index % every == every - 1:
            specs.append(BandSpec(None, rng.uniform(11.4, 11.6), float("inf"), index % 2 == 0))
            continue
        low = rng.uniform(0.0, 10.5)
        specs.append(BandSpec(rng.choice(subjects), low, low + rng.uniform(0.3, 1.2), False))
    return specs


def readings(rng: random.Random, subjects: list[str], count: int,
             first_seq: int = 0) -> list[Notification]:
    """Readings with a unique ``seq``; one in ten is not on a street."""
    events = []
    for seq in range(first_seq, first_seq + count):
        attrs = {
            "strength": rng.uniform(0.0, 12.0),
            "lat": 56.33 + rng.uniform(0.0, 0.02),
            "lon": -2.81 + rng.uniform(0.0, 0.03),
            "seq": seq,
        }
        if rng.random() >= 0.1:
            attrs["street"] = f"street-{rng.randrange(24)}"
        events.append(make_event(rng.choice(subjects), **attrs))
    return events


class BandOracle:
    """Who should receive each reading, computed from the specs alone."""

    def __init__(self, specs: list[BandSpec], owners: list) -> None:
        grouped: dict[str, tuple[list, list, list]] = {}
        wild = ([], [], [])
        for spec, owner in zip(specs, owners):
            if spec.subject is None:
                wild[0].append(spec.low)
                wild[1].append(spec.needs_street)
                wild[2].append(owner)
                continue
            lows, highs, group_owners = grouped.setdefault(spec.subject, ([], [], []))
            lows.append(spec.low)
            highs.append(spec.high)
            group_owners.append(owner)
        self._by_subject = {
            subject: (np.array(lows), np.array(highs), np.array(group_owners, dtype=object))
            for subject, (lows, highs, group_owners) in grouped.items()
        }
        self._wild = (np.array(wild[0]), np.array(wild[1], dtype=bool),
                      np.array(wild[2], dtype=object))

    def receivers(self, event: Notification) -> set:
        strength = event["strength"]
        out: set = set()
        group = self._by_subject.get(event["type"])
        if group is not None:
            lows, highs, owners = group
            out.update(owners[(lows < strength) & (strength < highs)].tolist())
        lows, needs_street, owners = self._wild
        on_street = "street" in event
        hit = (lows < strength) & (on_street | ~needs_street)
        out.update(owners[hit].tolist())
        return out
