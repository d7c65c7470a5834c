"""Shared test utilities.

Simulations with periodic tasks (overlay maintenance, storage audits,
sensors) never drain the event heap, so tests must always run the clock for
a bounded span or until a condition holds.
"""

from __future__ import annotations

from typing import Callable

from repro.simulation import Future, Simulator


def run_until(
    sim: Simulator,
    predicate: Callable[[], bool],
    timeout: float = 300.0,
    step: float = 1.0,
) -> bool:
    """Advance the clock until ``predicate()`` or ``timeout`` sim-seconds."""
    deadline = sim.now + timeout
    while not predicate():
        if sim.now >= deadline:
            return False
        sim.run(until=min(sim.now + step, deadline))
    return True


def resolve(sim: Simulator, future: Future, timeout: float = 300.0):
    """Run the simulation until ``future`` completes; return its result."""
    completed = run_until(sim, lambda: future.done, timeout=timeout)
    assert completed, "future never completed within the timeout"
    return future.result()


def resolve_error(sim: Simulator, future: Future, timeout: float = 300.0):
    """Run until ``future`` completes; return its exception (must fail)."""
    completed = run_until(sim, lambda: future.done, timeout=timeout)
    assert completed, "future never completed within the timeout"
    assert future.exception is not None, "expected the future to fail"
    return future.exception


def control_plane_state(brokers) -> list[dict]:
    """Each broker's routing state, for comparing filter-table modes.

    Control-message counts, the ordered forwarded lists and the stored
    filters by source are compared exactly.  Stored and sent paths are
    compared as sets: the order inside a narrowed or re-widened path
    follows the iteration order of a filter's sources.
    """
    states = []
    for broker in brokers:
        state: dict = {"control_counts": dict(broker.control_counts)}
        for kind, table in (("subs", broker.subs), ("adverts", broker.adverts)):
            state[kind] = {
                "by_source": {s: list(fs) for s, fs in table.by_source.items()},
                "forwarded": {n: list(fs) for n, fs in table.forwarded.items()},
                "paths": {key: set(path) for key, path in table.paths.items()},
                "sent": {n: dict(sent) for n, sent in table.sent.items() if sent},
            }
        states.append(state)
    return states
