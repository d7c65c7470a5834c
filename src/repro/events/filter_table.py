"""A broker's control state for one filter kind, in one table type.

A :class:`~repro.events.broker.BrokerNode` keeps the same bookkeeping
for subscriptions and for advertisements, so it holds one
:class:`FilterTable` per kind.  A table owns

* ``by_source`` — the stored filters by immediate source (a neighbour
  broker or a client), in arrival order;
* ``paths`` — the source path each ``(source, filter)`` entry arrived
  with, plus the sources of each filter;
* ``forwarded`` — per neighbour, the filters pushed toward it in push
  order, and ``sent``, the path (as a set) each was last pushed with;
* ``announce``/``withdraw`` — the wire messages that push and retract
  this kind's filters across a link.

The routing questions the broker asks of that state have two
implementations behind one interface:

* :class:`IndexedFilterTable` — matching on the counting
  :class:`~repro.events.index.PredicateIndex` (or, with ``shards > 1``,
  a :class:`~repro.events.sharding.ShardedSubscriptionIndex`), covering
  and intersection on :class:`~repro.events.index.CoveringPoset`\\ s.
* :class:`LinearFilterTable` — pairwise scans of the stored and
  forwarded lists: the "naive" ablation measured in benchmark E13.

Both give the same answers; ``tests/test_filter_table.py`` pins that
under random churn.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.events.covering import filter_covers
from repro.events.filters import Filter, filters_intersect
from repro.events.index import CoveringPoset, PredicateIndex
from repro.events.model import Notification
from repro.net.network import Address

# The broker addresses a filter has traversed, origin side first.
Path = tuple[Address, ...]


class FilterTable(ABC):
    """Stored filters, their paths and per-neighbour forwarded state.

    The dicts are created once and never rebound, so a broker may hand
    them out under its own attribute names.
    """

    def __init__(self, announce: type, withdraw: type) -> None:
        self.announce = announce
        self.withdraw = withdraw
        self.by_source: dict[Address, list[Filter]] = {}
        self.paths: dict[tuple[Address, Filter], Path] = {}
        self._sources: dict[Filter, set[Address]] = {}
        self.forwarded: dict[Address, list[Filter]] = {}
        self.sent: dict[Address, dict[Filter, frozenset]] = {}

    # -- the store ------------------------------------------------------
    def has(self, source: Address, filter: Filter) -> bool:
        return source in self._sources.get(filter, ())

    def add(self, source: Address, filter: Filter, path: Path) -> None:
        """Store a new entry (the caller has checked :meth:`has`)."""
        self.by_source.setdefault(source, []).append(filter)
        self.paths[(source, filter)] = path
        self._sources.setdefault(filter, set()).add(source)

    def discard(self, source: Address, filter: Filter) -> bool:
        """Remove an entry; ``False`` when it was not stored."""
        sources = self._sources.get(filter)
        if sources is None or source not in sources:
            return False
        sources.discard(source)
        if not sources:
            del self._sources[filter]
        filters = self.by_source[source]
        filters.remove(filter)
        if not filters:
            del self.by_source[source]
        del self.paths[(source, filter)]
        return True

    def narrow(self, source: Address, filter: Filter, path: Path) -> Path | None:
        """Narrow a stored path when a copy arrives over another chain.

        The stored path becomes the intersection of every chain the
        filter has arrived over from this source — only the brokers on
        *all* of them are guaranteed to know the filter already.
        Returns the new path when it shrank, else ``None``.
        """
        key = (source, filter)
        old = self.paths[key]
        arrived = set(path)
        new = tuple(x for x in old if x in arrived)
        if len(new) == len(old):
            return None
        self.paths[key] = new
        return new

    def widen(self, source: Address, filter: Filter, path: Path) -> bool:
        """Replace a stored path with a strictly wider reset; else ignore.

        Only strict supersets are accepted: a reset is the sender's
        recomputation after one of the chains feeding an intersection
        disappeared, so it can only widen — and insisting on that keeps
        the narrow/widen pair monotone (no oscillating re-sends).
        """
        key = (source, filter)
        old = self.paths.get(key)
        if old is None or not set(path) > set(old):
            return False
        self.paths[key] = tuple(path)
        return True

    def source_paths(self, filter: Filter, exclude: Address) -> list[Path]:
        """Stored paths of every copy of ``filter`` not from ``exclude``."""
        return [
            self.paths[(source, filter)]
            for source in self._sources.get(filter, ())
            if source != exclude
        ]

    # -- per-neighbour forwarded state ----------------------------------
    def add_forwarded(self, neighbour: Address, filter: Filter, path: Path) -> None:
        self.forwarded.setdefault(neighbour, []).append(filter)
        self.sent.setdefault(neighbour, {})[filter] = frozenset(path)

    def drop_forwarded(self, neighbour: Address, filter: Filter) -> None:
        self.forwarded[neighbour].remove(filter)
        self.sent.get(neighbour, {}).pop(filter, None)

    def forget(self, neighbour: Address) -> None:
        """Drop everything recorded as forwarded toward ``neighbour``."""
        self.forwarded.pop(neighbour, None)
        self.sent.pop(neighbour, None)

    # -- queries --------------------------------------------------------
    @abstractmethod
    def receivers(self, notification: Notification) -> set[Address]:
        """Sources storing some filter the notification matches."""

    @abstractmethod
    def receivers_batch(self, notifications: list) -> list[set[Address]]:
        """:meth:`receivers` for each notification, in order."""

    @abstractmethod
    def covered_by(self, filter: Filter) -> list[tuple[Address, Filter]]:
        """Every stored ``(source, filter)`` entry ``filter`` covers.

        The "what was this withdrawn filter masking?" query: only
        entries the withdrawn filter covers can have been suppressed by
        it.
        """

    @abstractmethod
    def intersects(self, source: Address, filter: Filter) -> bool:
        """Does some filter stored from ``source`` intersect ``filter``?"""

    @abstractmethod
    def covered_by_other(self, source: Address, filter: Filter) -> bool:
        """Is ``filter`` covered by another filter stored from ``source``?"""

    @abstractmethod
    def is_forwarded(self, neighbour: Address, filter: Filter) -> bool:
        """Was exactly ``filter`` pushed toward ``neighbour``?"""

    @abstractmethod
    def covers_any(self, neighbour: Address, filter: Filter) -> bool:
        """Does a filter pushed toward ``neighbour`` cover ``filter``?"""


class LinearFilterTable(FilterTable):
    """Every query a scan of the stored or forwarded lists."""

    def __init__(self, announce: type, withdraw: type, shards: int = 1) -> None:
        if shards != 1:
            raise ValueError("sharded matching requires indexed=True")
        super().__init__(announce, withdraw)

    def receivers(self, notification: Notification) -> set[Address]:
        return {
            source
            for source, filters in self.by_source.items()
            if any(f.matches(notification) for f in filters)
        }

    def receivers_batch(self, notifications: list) -> list[set[Address]]:
        return [self.receivers(notification) for notification in notifications]

    def covered_by(self, filter: Filter) -> list[tuple[Address, Filter]]:
        return [
            (source, stored)
            for source, filters in self.by_source.items()
            for stored in filters
            if filter_covers(filter, stored)
        ]

    def intersects(self, source: Address, filter: Filter) -> bool:
        return any(
            filters_intersect(stored, filter)
            for stored in self.by_source.get(source, ())
        )

    def covered_by_other(self, source: Address, filter: Filter) -> bool:
        return any(
            stored != filter and filter_covers(stored, filter)
            for stored in self.by_source.get(source, ())
        )

    def is_forwarded(self, neighbour: Address, filter: Filter) -> bool:
        return filter in self.forwarded.get(neighbour, ())

    def covers_any(self, neighbour: Address, filter: Filter) -> bool:
        return any(
            filter_covers(pushed, filter)
            for pushed in self.forwarded.get(neighbour, ())
        )


class IndexedFilterTable(FilterTable):
    """Queries answered by a match index and covering posets.

    The per-source posets serve only advertisement pruning, so each is
    built on its source's first :meth:`intersects` or
    :meth:`covered_by_other` query and kept in step from then on; a
    subscription table never builds one.
    """

    def __init__(self, announce: type, withdraw: type, shards: int = 1) -> None:
        super().__init__(announce, withdraw)
        if shards > 1:
            # Imported lazily: sharding.py imports the broker's wire
            # dataclasses, and the broker imports this module.
            from repro.events.sharding import ShardedSubscriptionIndex, ShardPlan

            self._index: PredicateIndex = ShardedSubscriptionIndex(ShardPlan(shards))
        else:
            self._index = PredicateIndex()
        # The store poset's payload is the (source, filter) entry.
        self._poset = CoveringPoset()
        self._ids: dict[tuple[Address, Filter], tuple[int, int]] = {}
        self._fwd_posets: dict[Address, CoveringPoset] = {}
        self._fwd_ids: dict[Address, dict[Filter, int]] = {}
        self._source_posets: dict[Address, CoveringPoset] = {}
        self._source_ids: dict[tuple[Address, Filter], int] = {}

    def add(self, source: Address, filter: Filter, path: Path) -> None:
        super().add(source, filter, path)
        key = (source, filter)
        self._ids[key] = (
            self._index.add(filter, payload=source),
            self._poset.add(filter, payload=key),
        )
        poset = self._source_posets.get(source)
        if poset is not None:
            self._source_ids[key] = poset.add(filter)

    def discard(self, source: Address, filter: Filter) -> bool:
        if not super().discard(source, filter):
            return False
        key = (source, filter)
        fid, pid = self._ids.pop(key)
        self._index.remove(fid)
        self._poset.remove(pid)
        poset = self._source_posets.get(source)
        if poset is not None:
            poset.remove(self._source_ids.pop(key))
            if not len(poset):
                del self._source_posets[source]
        return True

    def add_forwarded(self, neighbour: Address, filter: Filter, path: Path) -> None:
        super().add_forwarded(neighbour, filter, path)
        poset = self._fwd_posets.setdefault(neighbour, CoveringPoset())
        self._fwd_ids.setdefault(neighbour, {})[filter] = poset.add(filter)

    def drop_forwarded(self, neighbour: Address, filter: Filter) -> None:
        super().drop_forwarded(neighbour, filter)
        self._fwd_posets[neighbour].remove(self._fwd_ids[neighbour].pop(filter))

    def forget(self, neighbour: Address) -> None:
        super().forget(neighbour)
        self._fwd_posets.pop(neighbour, None)
        self._fwd_ids.pop(neighbour, None)

    def receivers(self, notification: Notification) -> set[Address]:
        payload = self._index.payload
        return {payload(fid) for fid in self._index.match(notification)}

    def receivers_batch(self, notifications: list) -> list[set[Address]]:
        payload = self._index.payload
        return [
            {payload(fid) for fid in matched}
            for matched in self._index.match_batch(notifications)
        ]

    def covered_by(self, filter: Filter) -> list[tuple[Address, Filter]]:
        payload = self._poset.payload
        return [payload(pid) for pid in self._poset.covered_by(filter)]

    def _source_poset(self, source: Address) -> CoveringPoset | None:
        poset = self._source_posets.get(source)
        if poset is None and self.by_source.get(source):
            poset = self._source_posets[source] = CoveringPoset()
            for filter in self.by_source[source]:
                self._source_ids[(source, filter)] = poset.add(filter)
        return poset

    def intersects(self, source: Address, filter: Filter) -> bool:
        poset = self._source_poset(source)
        return poset is not None and poset.intersecting_any(filter)

    def covered_by_other(self, source: Address, filter: Filter) -> bool:
        poset = self._source_poset(source)
        if poset is None:
            return False
        own = self._source_ids.get((source, filter))
        return any(pid != own for pid in poset.covering(filter))

    def is_forwarded(self, neighbour: Address, filter: Filter) -> bool:
        return filter in self._fwd_ids.get(neighbour, ())

    def covers_any(self, neighbour: Address, filter: Filter) -> bool:
        poset = self._fwd_posets.get(neighbour)
        return poset is not None and poset.covers_any(filter)
