"""The benchmark's workloads.

Each module defines ``Workload(seed)``, which generates every input from
the seed when constructed (untimed), and whose ``setup()`` builds one
live :class:`Instance` (timed as ``setup_s``).  An instance runs one
timed phase and is then checked against the workload's own oracle.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field

import numpy as np

NAMES = ("city_match", "metro_churn", "context_day", "socket_fleet")


@dataclass
class Phase:
    """What one timed phase did.

    ``events`` are publications processed and delivered; ``ops`` are
    client API calls (each publish, publish_batch, subscribe,
    unsubscribe, move-out and move-in is one).  ``latencies_ms`` holds
    one publish-to-receipt sample per delivery.  ``cpu_s`` is the
    process CPU time the phase used; ``extra`` carries per-layer
    numbers only the workload can see.
    """

    elapsed_s: float
    events: int
    ops: int
    latencies_ms: list[float]
    cpu_s: float = 0.0
    extra: dict = field(default_factory=dict)


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    return float(np.percentile(samples, q)) if samples else 0.0


def load(name: str):
    """The ``Workload`` class of workload ``name``."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(NAMES)}")
    return importlib.import_module(f"perfbench.workloads.{name}").Workload
