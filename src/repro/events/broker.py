"""Siena-style content-based broker network over trees *and* meshes.

Subscriptions propagate through the broker graph with covering-based
pruning; notifications follow the reverse paths of the subscriptions they
match.  No broker sees traffic its subtree did not ask for — the property
that lets the per-broker load stay flat as the population grows (E4).

Overlays may contain cycles.  Three mechanisms make routing on a mesh
converge the way it does on a tree:

* **Hop-count-tagged source paths** — every ``Subscribe``/``Advertise``
  carries the tuple of brokers it has traversed (its hop count is the
  tuple's length).  A broker never forwards control state to a
  neighbour already on its path and never stores a reflection of its
  own forwarding, so the control-plane flood terminates and installs,
  at every broker, one reverse-path entry per incoming direction —
  redundant state that later link failures simply prune.  When a copy
  of an already-known filter arrives over a *different* chain (two
  subscribers or producers registering the same filter, or a second
  route around a cycle), the recorded path **narrows** to the
  intersection of the chains — the brokers every known route passes
  through — and the filter re-propagates to the neighbours the wider
  path was wrongly excluding.  Paths only ever shrink, so the extra
  flooding is finite and the mesh converges to per-link-complete
  routing state.

* **Per-source reverse-path forwarding with first-hop wins** — every
  publication carries an id ``(origin address, sequence)``; each broker
  tracks, per origin, a sequence *floor* plus the out-of-order ids above
  it (:class:`~repro.events.failure.OriginFloorCache`) and processes
  only the first copy to arrive, dropping the rest
  (``duplicates_suppressed`` counts them).  Each publisher's traffic
  therefore follows an implicit spanning tree of the mesh rooted at its
  first-hop broker, and every matching client receives exactly one copy
  no matter how many redundant links the publication crossed.  The
  duplicate state is bounded by the count of origins active within
  ``seen_ttl`` — not by a fixed-size guess — and the safety contract is
  explicit: ``seen_ttl`` must exceed a publication's worst transit.

* **Link-failure survival and self-healing** —
  :meth:`BrokerNode.disconnect` withdraws only the state the dead link
  carried; the entries installed through surviving directions keep
  routing, so traffic re-converges over the remaining paths without a
  full state rebuild.  On a mesh with a redundant link, killing either
  copy of the redundancy loses nothing (the E5 fault-tolerance phase
  measures this against the tree variant, which partitions).  Each side
  of a link can also be torn down *one-sidedly*
  (:meth:`BrokerNode.drop_link`) and re-joined with a full state
  exchange (:meth:`BrokerNode.restore_link`) — the primitives a
  :class:`~repro.events.failure.FailureDetector` drives when its
  heartbeats stop (or resume) crossing a link, making the overlay
  self-healing without any caller noticing the failure first.

* **Path re-widening** — narrowing (above) is driven by *arrivals*; the
  inverse pass is driven by *removals*.  When one copy of a filter is
  unsubscribed/unadvertised away but another copy keeps the filter
  forwarded, the forwarding broker recomputes the path a fresh overlay
  would send — the intersection of the surviving chains, necessarily a
  superset of the old narrowed path — and re-sends it with
  ``path_reset`` so downstream brokers widen their stored paths too.
  Without it, heavy churn leaves paths narrowed by departed origins,
  flooding control state wider than a freshly-built overlay ever would.
  Resets only ever widen (a non-superset reset is ignored), so the
  narrowing/widening pair cannot oscillate.

A broker's control state lives in two
:class:`~repro.events.filter_table.FilterTable`\\ s, one for
subscriptions and one for advertisements, and every step above is
written once against a table.  The default
:class:`~repro.events.filter_table.IndexedFilterTable` routes
publications with a counting :class:`~repro.events.index.PredicateIndex`
over the subscription store and answers covering decisions (forwarding
suppression, unmasking on removal) with
:class:`~repro.events.index.CoveringPoset` lookups.  ``indexed=False``
picks :class:`~repro.events.filter_table.LinearFilterTable`, the seed's
linear scans, as the measurable ablation baseline (benchmark E13), just
as ``covering_enabled=False`` keeps the no-covering baseline
(benchmark A1).

Two routing behaviours complete Siena's advertisement/subscription
interaction:

* **Advertisement-pruned subscription forwarding** (``adv_pruned=True``)
  — a subscription travels toward a neighbour only when that
  neighbour's subtree has advertised a filter intersecting it
  (:func:`~repro.events.filters.filters_intersect`; a ``False``
  intersection answer is exact, so pruning can never lose advertised
  traffic).  An advertisement arriving later re-forwards the
  subscriptions it unblocks; an unadvertise retracts the subscriptions
  the withdrawn filter alone was justifying.  Producers must advertise
  before publishing for deliveries to be mode-independent — the Siena
  contract — and the E5 benchmark quantifies the Subscribe-forwarding
  reduction on producer-sparse trees.

* **Dynamic topologies** — :meth:`BrokerNode.connect` exchanges the
  complete current subscription/advertisement state between the two
  brokers (advertisements first, so pruning decisions on the far side
  see them), letting subtrees join after traffic has started and still
  converge to delivery-equivalent routing state;
  :meth:`BrokerNode.disconnect` withdraws everything the departing link
  carried, propagating the retractions onward.

``tests/test_broker_topology_equivalence.py`` holds all of it to
randomized delivery equivalence across {naive, indexed,
indexed+adv_pruned} and across join orders.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.events.failure import (
    Heartbeat,
    OriginFloorCache,
    Resync,
    install_detectors,
)
from repro.events.filter_table import (
    FilterTable,
    IndexedFilterTable,
    LinearFilterTable,
)
from repro.events.filters import Filter, eq, exists, filters_intersect
from repro.events.placement import plan_extra_links
from repro.events.model import Notification, make_event
from repro.events.rendezvous import RendezvousEngine
from repro.ids import GUID_DIGITS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.events.failure import FailureDetector, HeartbeatConfig
from repro.net.geo import WORLD_REGIONS, Position
from repro.net.host import Host
from repro.net.network import Address, Network
from repro.simulation import PeriodicTask, Simulator


# -- wire messages ------------------------------------------------------
#
# Subscribe/Advertise carry ``path``: the ordered tuple of broker
# addresses the filter has traversed, origin-side first, ending with the
# sender.  ``len(path)`` is the hop count.  On meshes the tag scopes the
# flood (never forward to a broker already on the path) and rejects
# reflections (never store state whose path passes through yourself),
# which is what lets add/remove churn converge to the same routing state
# a tree would reach.  On acyclic overlays the tag never changes a
# forwarding decision, though identical filters from different origins
# still trigger (no-op) narrowing re-sends — the modest control-traffic
# price of mesh-readiness.  ``path_reset`` marks a *re-widening* re-send
# (one surviving copy of a filter recomputed its path after another was
# removed): the receiver replaces its stored path when the carried one
# is strictly wider, instead of intersecting.  Retractions carry no tag:
# they terminate via state-presence checks (removing an absent entry is
# a no-op), not flood scoping.
@dataclass(slots=True)
class Subscribe:
    filter: Filter
    path: tuple[Address, ...] = ()
    path_reset: bool = False


@dataclass(slots=True)
class Unsubscribe:
    filter: Filter


@dataclass(slots=True)
class Advertise:
    """A producer declares the notifications it will publish (§3)."""

    filter: Filter
    path: tuple[Address, ...] = ()
    path_reset: bool = False


@dataclass(slots=True)
class Unadvertise:
    filter: Filter


@dataclass(slots=True)
class Publish:
    """A publication in flight, tagged for duplicate suppression.

    ``pub_id`` is ``(origin address, sequence)`` — stamped by the
    publishing client (or by the first broker to see an untagged
    publication) and carried unchanged across every hop, so brokers on
    a mesh can recognise the second copy arriving over a redundant
    link.  ``None`` stays accepted for wire compatibility.
    """

    notification: Notification
    pub_id: tuple[Address, int] | None = None


@dataclass(slots=True)
class Notify:
    notification: Notification


@dataclass(slots=True)
class PublishBatch:
    """A burst of publications travelling as one wire message.

    ``items`` is an ordered tuple of ``(notification, pub_id)`` pairs —
    each pair carries exactly what a standalone :class:`Publish` would,
    so a receiver without the batched fast path can unbundle and process
    them one at a time with identical results.  Order within the batch
    is the publish order, and the network's per-(src, dst) FIFO makes
    batch boundaries invisible to delivery ordering.
    """

    items: tuple


@dataclass(slots=True)
class NotifyBatch:
    """A burst of client deliveries coalesced into one wire message."""

    notifications: tuple


@dataclass(slots=True)
class MoveOut:
    """Client announces disconnection; broker must proxy for it (Mobikit)."""


@dataclass(slots=True)
class MoveIn:
    """Client reappears at a (possibly different) broker."""

    client: Address
    old_broker: Address | None
    filters: tuple


@dataclass(slots=True)
class TransferRequest:
    """Ask the old broker to hand a client's proxy state to ``new_broker``.

    ``successor`` redirects the handover to a *different* endpoint than
    the one that moved out: a migrating service's replacement instance
    has its own address, so the old broker addresses the resulting
    :class:`Transfer` (and its buffered notifications) to the successor
    rather than back to the departed original.  ``None`` keeps Mobikit's
    same-client roaming behaviour.
    """

    client: Address
    new_broker: Address
    successor: Address | None = None


@dataclass(slots=True)
class Transfer:
    """Proxy handover from the old broker to the new one (Mobikit).

    Carries both the buffered notifications and the client's filters as
    recorded by the old broker.  The MoveIn normally re-registers the
    filters (the client carries its own list), but the receiving broker
    also re-registers ``filters`` defensively so a handover can never
    strip a subscription even if the MoveIn's list was stale.
    """

    client: Address
    buffered: tuple
    filters: tuple


class BrokerNode(Host):
    """One broker in the overlay (tree or mesh).

    Every optimisation is a constructor knob, each preserving delivery
    semantics exactly (the equivalence suites pin this) while changing
    what the hot paths cost.  Knob by knob:

    ``covering_enabled`` (default ``True``) — Siena's covering
      optimisation on forwarded control state; ``False`` (exact-duplicate
      suppression only) is the ablation measured in benchmark A1.
    ``indexed`` (default ``True``) — picks the filter-table
      implementation (:mod:`repro.events.filter_table`) for both the
      subscription and the advertisement table:
      :class:`~repro.events.filter_table.IndexedFilterTable` matches on
      the counting :class:`~repro.events.index.PredicateIndex` and
      answers covering queries from
      :class:`~repro.events.index.CoveringPoset`\\ s; ``False`` picks
      :class:`~repro.events.filter_table.LinearFilterTable`, the
      seed's linear scans — the "naive" ablation measured in benchmark
      E13.
    ``adv_pruned`` (default ``False``) — advertisement-pruned
      subscription forwarding, benchmark E5's ablation: subscriptions
      travel only toward advertising subtrees.  Deliveries stay
      identical for producers that advertise before publishing;
      unadvertised traffic is only guaranteed local delivery (see
      ``advert_on_first_publish``).
    ``batched`` (default ``False``) — the PublishBatch fast path:
      inbound bursts share one ``match_batch`` sweep and forward as
      per-destination batches (benchmark E13's batch rows).  Off, bursts
      unbundle through the one-at-a-time path, identically.
    ``advert_on_first_publish`` (default ``False``) — legacy-producer
      escape hatch under ``adv_pruned``: synthesise an advertisement
      from the first unadvertised publication's shape.
    ``seen_ttl`` (default ``30.0`` s) — per-origin publication dedup
      horizon (:class:`~repro.events.failure.OriginFloorCache`); must
      exceed a publication's worst transit for exactly-once processing
      on cyclic overlays.
    ``routing`` (default ``"flood"``) — ``"flood"`` is Siena's
      subscription flooding; ``"dht"`` replaces the control-state flood
      with Scribe-style rendezvous trees on Pastry state
      (:mod:`repro.events.rendezvous`), measured against flooding in
      benchmark E5's ``dht_scale`` phase.
    ``rv_refresh`` (default ``1.0`` s) — rendezvous soft-state refresh
      period; only meaningful under ``routing="dht"``.
    ``shards`` (default ``1``) — partitioned local matching
      (:class:`~repro.events.sharding.ShardedSubscriptionIndex`): the
      subscription table splits across this many subject shards so each
      event pays only its shard's candidate pools (benchmark E14;
      2.67× at 4 shards on the city workload).  Requires ``indexed``;
      ``1`` keeps the monolithic index — the E14 ablation baseline.

    All knobs compose with mesh overlays — cycles are handled by
    path-tagged control state and the per-origin dedup floor — and with
    an attached :class:`~repro.events.failure.FailureDetector`, which
    drives the one-sided :meth:`drop_link`/:meth:`restore_link`
    primitives when heartbeats stop (or resume) crossing a link.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        position: Position,
        covering_enabled: bool = True,
        indexed: bool = True,
        adv_pruned: bool = False,
        batched: bool = False,
        advert_on_first_publish: bool = False,
        seen_ttl: float = 30.0,
        routing: str = "flood",
        rv_refresh: float = 1.0,
        shards: int = 1,
    ):
        super().__init__(sim, network, position)
        if routing not in ("flood", "dht"):
            raise ValueError(f"unknown routing mode: {routing!r}")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.covering_enabled = covering_enabled
        self.adv_pruned = adv_pruned
        # Routing mode: "flood" is Siena's subscription flooding (with
        # or without adv_pruned); "dht" replaces the control-state flood
        # with Scribe-style rendezvous trees on Pastry routing state
        # (repro.events.rendezvous) — overlay links then only carry the
        # membership gossip and heartbeats, while subscriptions stay
        # local and publications travel point-to-point along the DHT.
        self.routing = routing
        # Batched publication fast path: inbound PublishBatch bursts are
        # matched through PredicateIndex.match_batch and forwarded as
        # per-destination batches.  Off, a batch is unbundled and walked
        # through the one-at-a-time path — deliveries are identical
        # either way (the batch-equivalence suite pins this).
        self.batched = batched
        # Legacy-producer escape hatch for advertisement pruning: when a
        # directly-attached client publishes without ever advertising,
        # synthesise an advertisement from the publication's shape so
        # remote subscriptions get routed toward this broker.  The first
        # publication may still miss remote subscribers (the synthesised
        # advert races outward); later ones ride the unblocked routes.
        self.advert_on_first_publish = advert_on_first_publish
        self.seen_ttl = seen_ttl
        # Broker→neighbour control traffic by message type — the E5
        # benchmark reads the Subscribe row to price routing-table upkeep.
        self.control_counts: Counter[str] = Counter()
        self.neighbours: set[Address] = set()
        self.client_addrs: set[Address] = set()
        # Control state, one table per filter kind: the filters stored by
        # immediate source (neighbour broker or client) with the source
        # paths they arrived with, the match index and covering poset
        # over them, and what was forwarded toward each neighbour.  With
        # shards > 1 the subscription index is partitioned by event
        # subject (repro.events.sharding); deliveries are identical.
        table = IndexedFilterTable if indexed else LinearFilterTable
        self.subs = table(Subscribe, Unsubscribe, shards=shards)
        self.adverts = table(Advertise, Unadvertise)
        # The tables' dicts under the names management tooling, tests
        # and benchmarks read ("who produces weather events?").
        self.subs_by_source: dict[Address, list[Filter]] = self.subs.by_source
        self.forwarded: dict[Address, list[Filter]] = self.subs.forwarded
        self.adverts_by_source: dict[Address, list[Filter]] = self.adverts.by_source
        self.adverts_forwarded: dict[Address, list[Filter]] = self.adverts.forwarded
        # Mobikit proxies: disconnected client -> buffered notifications.
        self.proxies: dict[Address, list[Notification]] = {}
        self.notifications_processed = 0
        self.notifications_delivered = 0
        # Publication duplicate suppression: per-origin sequence floors
        # with TTL expiry.  First copy wins; every later copy arriving
        # over a redundant path is dropped here.
        self.pub_dedup = OriginFloorCache(ttl=seen_ttl)
        self._pub_seq = 0
        self.duplicates_suppressed = 0
        # Advertisements synthesised by advert_on_first_publish, so one
        # publication shape registers (and floods) only once per client.
        self._auto_adverts: set[tuple[Address, Filter]] = set()
        # Set by an attached FailureDetector; inbound Heartbeats route
        # there, and connect()/disconnect() report intentional topology
        # changes so they are never mistaken for failures.
        self.failure_detector: "FailureDetector | None" = None
        # Set by an attached BrokerMetrics; the publication paths feed it
        # every processed notification so it can age the traffic.
        self.metrics: "BrokerMetrics | None" = None
        # The rendezvous engine exists only in dht mode; every flood
        # suppression below keys off it.
        self.rv: RendezvousEngine | None = (
            RendezvousEngine(self, refresh_interval=rv_refresh)
            if routing == "dht"
            else None
        )

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def connect(self, other: "BrokerNode") -> None:
        """Link two brokers and exchange their full routing state.

        Each side pushes every advertisement and subscription it stores
        (advertisements first, so advertisement-pruned forwarding
        decisions on the receiving side can already see them), exactly
        as if the filters were arriving fresh — covering suppression
        and pruning apply as usual.  A subtree connected after traffic
        has started therefore converges to the same delivery behaviour
        as one present from the start.  Idempotent: connecting an
        already-linked pair is a no-op (no state re-exchange).

        Repairing a *half-dropped* link (one side tore it down with
        :meth:`drop_link`, the other never noticed) works too: the side
        that kept the link replays its state with cleared per-link
        bookkeeping — its records of what the far side holds are stale —
        exactly as a :class:`~repro.events.failure.Resync` would.
        """
        if other.addr in self.neighbours and self.addr in other.neighbours:
            return
        if other.addr in self.neighbours:
            self._reset_and_sync(other.addr)
        else:
            self.restore_link(other.addr)
        if self.addr in other.neighbours:
            other._reset_and_sync(self.addr)
        else:
            other.restore_link(self.addr)
        if self.failure_detector is not None:
            self.failure_detector.watch(other.addr)
        if other.failure_detector is not None:
            other.failure_detector.watch(self.addr)

    def disconnect(self, other: "BrokerNode") -> None:
        """Tear down the link and withdraw the state it carried.

        Both ends drop what they forwarded across the link, remove the
        subscriptions/advertisements the departing neighbour had sent,
        and propagate the retractions onward — the inverse of
        :meth:`connect`'s state exchange.  On a mesh, entries installed
        through surviving directions are untouched, so traffic
        re-converges over the remaining paths without a state rebuild.
        Idempotent: disconnecting a non-neighbour is a no-op.
        """
        if self.failure_detector is not None:
            self.failure_detector.forget(other.addr)
        if other.failure_detector is not None:
            other.failure_detector.forget(self.addr)
        self.drop_link(other.addr)
        other.drop_link(self.addr)

    def drop_link(self, neighbour: Address) -> None:
        """One-sided link teardown: withdraw the state the link carried.

        This is :meth:`disconnect`'s half that a failure detector can
        drive without reaching the (unreachable) far side: forget what
        was forwarded across the link, remove what the neighbour had
        sent, and propagate the retractions onward.  Idempotent.
        """
        if neighbour not in self.neighbours:
            return
        self.neighbours.discard(neighbour)
        self._forget_neighbour(neighbour)
        if self.rv is not None:
            self.rv.on_link_down(neighbour)

    def restore_link(self, neighbour: Address) -> None:
        """One-sided link (re-)establishment with full state push.

        The :meth:`connect` half a failure detector drives when a
        suspected neighbour's heartbeats resume: record the link and
        push every stored advertisement and subscription toward it, as
        if each were arriving fresh.  Idempotent.
        """
        if neighbour in self.neighbours:
            return
        self.neighbours.add(neighbour)
        self._reset_and_sync(neighbour)

    def _sync_new_neighbour(self, neighbour: Address) -> None:
        if self.rv is not None:
            # No filter state crosses links in dht mode; a new/restored
            # link instead exchanges membership snapshots, from which
            # both sides re-graft their rendezvous trees.
            self.rv.hello(neighbour)
            return
        # Advertisements first, so the subscription pass below (and the
        # far side's pruning) already sees them.
        for table in (self.adverts, self.subs):
            for source, filters in list(table.by_source.items()):
                if source == neighbour:
                    continue
                for filter in list(filters):
                    if self._blocked(table, neighbour, filter):
                        continue  # re-forwarded if advertisements arrive
                    self._forward(
                        table, neighbour, filter, table.paths[(source, filter)]
                    )

    def _forget_neighbour(self, neighbour: Address) -> None:
        for table in (self.subs, self.adverts):
            table.forget(neighbour)
        for filter in list(self.subs.by_source.get(neighbour, ())):
            self._remove_subscription(neighbour, filter)
        for filter in list(self.adverts.by_source.get(neighbour, ())):
            self._remove_advertisement(neighbour, filter)

    def attach_client(self, client_addr: Address) -> None:
        self.client_addrs.add(client_addr)

    # ------------------------------------------------------------------
    # Control state: one implementation for both filter kinds
    # ------------------------------------------------------------------
    def _store_subscription(
        self,
        source: Address,
        filter: Filter,
        path: tuple[Address, ...] = (),
        path_reset: bool = False,
    ) -> None:
        stored = self._store(self.subs, source, filter, path, path_reset)
        if stored and self.rv is not None:
            self.rv.on_subscribe(filter)

    def _store_advertisement(
        self,
        source: Address,
        filter: Filter,
        path: tuple[Address, ...] = (),
        path_reset: bool = False,
    ) -> None:
        if not self._store(self.adverts, source, filter, path, path_reset):
            return
        if self.rv is not None:
            self.rv.on_advertise(source, filter)
        if self.adv_pruned and source in self.neighbours:
            # Deferred re-propagation: the new advertisement may unblock
            # subscriptions previously pruned toward its source.
            self._unblock_subscriptions(source, filter)

    def _remove_subscription(self, source: Address, filter: Filter) -> None:
        if self.subs.discard(source, filter) and self.rv is not None:
            self.rv.on_unsubscribe(filter)
        self._retract_everywhere(self.subs, source, filter)

    def _remove_advertisement(self, source: Address, filter: Filter) -> None:
        if self.adverts.discard(source, filter):
            if self.rv is not None:
                self.rv.on_unadvertise(source, filter)
            if self.adv_pruned and source in self.neighbours:
                # Symmetric retraction: subscriptions only this
                # advertisement justified are withdrawn from its source.
                self._reprune_subscriptions(source, filter)
        self._retract_everywhere(self.adverts, source, filter)

    def _store(
        self,
        table: FilterTable,
        source: Address,
        filter: Filter,
        path: tuple[Address, ...],
        path_reset: bool,
    ) -> bool:
        """Store a filter arriving from ``source``; ``True`` when new.

        A known filter arriving again over another chain narrows its
        stored path (see :meth:`FilterTable.narrow`) and re-propagates
        when it shrank — neighbours the wider path excluded may now
        legitimately need it.  A ``path_reset`` copy widens it instead.
        """
        if self.addr in path:
            return False  # a reflection of our own forwarding around a cycle
        if table.has(source, filter):
            if path_reset:
                if table.widen(source, filter, path):
                    self._propagate_widening(table, filter)
            else:
                narrowed = table.narrow(source, filter, path)
                if narrowed is not None:
                    self._propagate(table, source, filter, narrowed)
            return False
        table.add(source, filter, path)
        self._propagate(table, source, filter, path)
        return True

    def _propagate(
        self,
        table: FilterTable,
        source: Address,
        filter: Filter,
        path: tuple[Address, ...],
    ) -> None:
        if self.rv is not None:
            return  # dht mode: interest is grafted, adverts registered
        for neighbour in self.neighbours:
            if neighbour == source:
                continue
            if self._blocked(table, neighbour, filter):
                continue  # deferred: unblocked if an advertisement arrives
            self._forward(table, neighbour, filter, path)

    def _retract_everywhere(
        self, table: FilterTable, source: Address, filter: Filter
    ) -> None:
        for neighbour in self.neighbours:
            if neighbour != source:
                self._retract(table, neighbour, filter)

    # ------------------------------------------------------------------
    # Path re-widening (the inverse of narrowing, driven by removals)
    # ------------------------------------------------------------------
    def _propagate_widening(self, table: FilterTable, filter: Filter) -> None:
        if self.rv is not None:
            return
        for neighbour in self.neighbours:
            self._rewiden(
                table, neighbour, filter, table.source_paths(filter, neighbour)
            )

    def _rewiden(
        self,
        table: FilterTable,
        neighbour: Address,
        filter: Filter,
        survivor_paths: list[tuple[Address, ...]],
    ) -> None:
        """Re-send a forwarded filter whose fresh path is wider than sent.

        ``survivor_paths`` are the stored paths of the copies still
        justifying the forward; a fresh overlay would send their
        intersection, which after a removal may be a strict superset of
        what narrowing left behind.  A wider path means *fewer* brokers
        flooded on later re-sends — the state a long-lived overlay keeps
        converges back to what a freshly built one would hold.
        """
        if not table.is_forwarded(neighbour, filter):
            return
        sent = table.sent.get(neighbour)
        old = sent.get(filter) if sent is not None else None
        if old is None or not survivor_paths:
            return
        base = survivor_paths[0]
        fresh = set(base)
        for path in survivor_paths[1:]:
            fresh &= set(path)
        if not fresh > old:
            return
        if neighbour in fresh:
            # The neighbour sits on every surviving chain: it would
            # reject the re-send as a reflection anyway.
            return
        sent[filter] = frozenset(fresh)
        ordered = tuple(x for x in base if x in fresh)
        self._send_control(
            neighbour, table.announce(filter, ordered + (self.addr,), True)
        )

    # ------------------------------------------------------------------
    # Advertisement pruning
    # ------------------------------------------------------------------
    def _adv_intersects(self, neighbour: Address, filter: Filter) -> bool:
        """Has ``neighbour`` advertised anything intersecting ``filter``?"""
        return self.adverts.intersects(neighbour, filter)

    def _blocked(self, table: FilterTable, neighbour: Address, filter: Filter) -> bool:
        """Should forwarding ``filter`` toward ``neighbour`` be withheld?

        Only subscriptions under ``adv_pruned``, and only while no
        advertisement from that neighbour intersects the subscription —
        i.e. while its subtree provably produces nothing it wants.
        """
        return (
            self.adv_pruned
            and table is self.subs
            and not self._adv_intersects(neighbour, filter)
        )

    def _unblock_subscriptions(self, neighbour: Address, advert: Filter) -> None:
        """Forward the stored subscriptions a new advertisement unblocks.

        Any subscription intersecting the advertisement now has a
        producer in the neighbour's subtree; ``_forward``'s
        duplicate/covering suppression keeps the scan idempotent.  A
        covering advertisement already stored from the same neighbour
        means every such subscription was unblocked before — skip.
        """
        if self.adverts.covered_by_other(neighbour, advert):
            return
        for source, filters in list(self.subs.by_source.items()):
            if source == neighbour:
                continue
            for filter in list(filters):
                if filters_intersect(advert, filter):
                    self._forward(
                        self.subs, neighbour, filter,
                        self.subs.paths[(source, filter)],
                    )

    def _reprune_subscriptions(self, neighbour: Address, advert: Filter) -> None:
        """Retract forwarded subscriptions a withdrawn advert justified.

        Symmetric to :meth:`_unblock_subscriptions`: a subscription
        forwarded toward the neighbour is withdrawn once no remaining
        advertisement from that neighbour intersects it.  Subscriptions
        the retracted one was masking need no restore — anything they
        intersect, it intersects too, so they are equally unjustified.
        A covering advertisement still stored from the same neighbour
        keeps justifying all of them — skip.
        """
        if self.adverts.covered_by_other(neighbour, advert):
            return
        for filter in list(self.subs.forwarded.get(neighbour, ())):
            if not filters_intersect(advert, filter):
                continue  # never depended on the withdrawn advertisement
            if self._adv_intersects(neighbour, filter):
                continue  # still justified by another advertisement
            self.subs.drop_forwarded(neighbour, filter)
            self._send_control(neighbour, Unsubscribe(filter))

    # ------------------------------------------------------------------
    # Forwarding toward one neighbour
    # ------------------------------------------------------------------
    def _send_control(self, neighbour: Address, payload) -> None:
        self.control_counts[type(payload).__name__] += 1
        self.send(neighbour, payload, size_bytes=128)

    def _forward(
        self,
        table: FilterTable,
        neighbour: Address,
        filter: Filter,
        path: tuple[Address, ...],
    ) -> None:
        """Push ``filter`` toward a neighbour unless it is redundant there.

        Under covering, a filter whose notifications the neighbour already
        receives (some forwarded filter covers it, itself included) is
        suppressed; with covering disabled only exact duplicates are — the
        ablation baseline measured in benchmark A1.

        ``path`` is the copy's stored source path (this broker appends
        itself on the wire).  A neighbour on the path has necessarily
        seen the filter, so the flood never crosses a cycle twice.  An
        already-forwarded filter arriving again over a narrower chain is
        re-sent with the narrowed path (the intersection of every chain
        pushed so far), so the neighbour learns the filter no longer
        depends on the brokers the original path crossed — without this,
        two identical filters from different origins would collapse into
        one path and starve redundant routes of routing state.
        """
        if neighbour in path:
            return
        # A neighbour we tried to push to gets a (possibly empty) list.
        table.forwarded.setdefault(neighbour, [])
        if table.is_forwarded(neighbour, filter):
            self._narrow_forwarded(table, neighbour, filter, path)
            return
        if self.covering_enabled and table.covers_any(neighbour, filter):
            return
        table.add_forwarded(neighbour, filter, path)
        self._send_control(neighbour, table.announce(filter, path + (self.addr,)))

    def _narrow_forwarded(
        self,
        table: FilterTable,
        neighbour: Address,
        filter: Filter,
        path: tuple[Address, ...],
    ) -> None:
        """Re-send an already-forwarded filter whose path just narrowed."""
        sent = table.sent.setdefault(neighbour, {})
        old = sent.get(filter)
        new = frozenset(path) if old is None else old & frozenset(path)
        if old is not None and new == old:
            return
        sent[filter] = new
        narrowed = tuple(x for x in path if x in new)
        self._send_control(neighbour, table.announce(filter, narrowed + (self.addr,)))

    def _retract(self, table: FilterTable, neighbour: Address, filter: Filter) -> None:
        """Withdraw ``filter`` from a neighbour and re-forward what it masked.

        A stored filter can only have been suppressed (never forwarded)
        because some forwarded filter covered it, so the candidates for
        re-forwarding are exactly the table's ``covered_by`` entries for
        the withdrawn filter — a poset lookup on the indexed table
        instead of a rescan of the whole store.  Advertisement pruning
        applies to the restores: a masked subscription no advertisement
        justifies stays parked until one arrives.
        """
        table.forwarded.setdefault(neighbour, [])
        if not table.is_forwarded(neighbour, filter):
            return
        survivors = table.source_paths(filter, neighbour)
        if survivors:
            # Still stored from elsewhere: the neighbour keeps it, but
            # the departed copy may have been narrowing the sent path —
            # recompute it from the surviving chains.
            self._rewiden(table, neighbour, filter, survivors)
            return
        table.drop_forwarded(neighbour, filter)
        self._send_control(neighbour, table.withdraw(filter))
        for masked_source, masked in table.covered_by(filter):
            if masked_source == neighbour or self._blocked(table, neighbour, masked):
                continue
            # Duplicate/covering/path suppression lives in _forward (the
            # duplicate check there is explicit because filter_covers is
            # not reflexive for range constraints over strings/bools).
            self._forward(
                table, neighbour, masked, table.paths[(masked_source, masked)]
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def advertisements(self) -> list[Filter]:
        """Every advertisement this broker knows about (all sources)."""
        return [f for filters in self.adverts_by_source.values() for f in filters]

    def advertised(self, notification: Notification) -> bool:
        """Would this notification fall under some known advertisement?"""
        return bool(self.adverts.receivers(notification))

    def control_state_size(self) -> int:
        """Routing-relevant control entries held by this broker.

        The E5 scale phase's comparison metric.  Flood modes count every
        stored and forwarded filter (subscriptions and advertisements) —
        the O(global filters) burden rendezvous routing exists to shed.
        dht mode counts the rendezvous engine's membership, tree, and
        registry entries plus the broker's own local filter store.
        """
        tables = (self.subs, self.adverts)
        local = sum(len(fs) for table in tables for fs in table.by_source.values())
        if self.rv is not None:
            return local + self.rv.state_size()
        return local + sum(
            len(fs) for table in tables for fs in table.forwarded.values()
        )

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    def _process_publication(
        self,
        source: Address,
        notification: Notification,
        pub_id: tuple[Address, int] | None = None,
    ) -> None:
        """Route one publication: first copy wins, the rest are dropped.

        An untagged publication (legacy producers sending bare
        ``Publish``) is stamped here, so every copy this broker forwards
        is recognisable if a cycle routes it back.
        """
        if pub_id is None:
            pub_id = (self.addr, self._pub_seq)
            self._pub_seq += 1
        if self.pub_dedup.seen(pub_id, self.sim.now):
            self.duplicates_suppressed += 1
            return
        self.notifications_processed += 1
        if self.metrics is not None:
            self.metrics.observe(notification)
        if self.advert_on_first_publish:
            self._maybe_auto_advertise(source, notification)
        size = notification.size_bytes()
        interested = self.subs.receivers(notification)
        if not interested:
            return
        for dest in list(self.subs_by_source):
            if dest != source and dest in interested:
                self._deliver(dest, notification, size, pub_id)

    def _maybe_auto_advertise(self, source: Address, notification: Notification) -> None:
        """Synthesise an advertisement for a non-advertising local producer.

        Only first-hop traffic qualifies (``source`` is an attached
        client): remote publications were either advertised at their own
        first hop or are legacy traffic whose broker carries this knob.
        The synthesised filter is the publication's type equality when a
        ``type`` attribute is present — the shape adv_pruned routing
        prunes on — falling back to the attribute-existence skeleton.
        """
        if source not in self.client_addrs:
            return
        if "type" in notification:
            advert = Filter(eq("type", notification["type"]))
        else:
            advert = Filter(*(exists(name) for name in sorted(notification.keys())))
        key = (source, advert)
        if key in self._auto_adverts:
            return
        self._auto_adverts.add(key)
        self._store_advertisement(source, advert)

    def _process_publication_batch(
        self,
        source: Address,
        items: tuple | list,
    ) -> None:
        """Route a burst of publications through one index traversal.

        Dedup, counters and the auto-advertise hook run per item in
        batch order — their outcomes cannot depend on batching because
        each decision reads only per-publication state.  The survivors
        share one :meth:`PredicateIndex.match_batch` sweep, and each
        destination receives its matched subset as a single batch, in
        publish order.
        """
        survivors: list[tuple[Notification, tuple[Address, int]]] = []
        for notification, pub_id in items:
            if pub_id is None:
                pub_id = (self.addr, self._pub_seq)
                self._pub_seq += 1
            if self.pub_dedup.seen(pub_id, self.sim.now):
                self.duplicates_suppressed += 1
                continue
            self.notifications_processed += 1
            if self.metrics is not None:
                self.metrics.observe(notification)
            if self.advert_on_first_publish:
                self._maybe_auto_advertise(source, notification)
            survivors.append((notification, pub_id))
        if not survivors:
            return
        per_dest: dict[Address, list] = {}
        receivers = self.subs.receivers_batch(
            [notification for notification, _ in survivors]
        )
        for item, interested in zip(survivors, receivers):
            if not interested:
                continue
            for dest in list(self.subs_by_source):
                if dest != source and dest in interested:
                    per_dest.setdefault(dest, []).append(item)
        for dest, batch in per_dest.items():
            self._deliver_batch(dest, batch)

    def publish_batch(
        self,
        notifications: list,
        source: Address | None = None,
    ) -> None:
        """Inject a burst of locally-originated publications.

        Each notification is stamped with a fresh ``pub_id`` exactly as
        the single-publication path would; with ``batched`` off the
        burst is unbundled through the one-at-a-time path instead.
        """
        items = [(notification, None) for notification in notifications]
        if self.rv is not None:
            for notification, pub_id in items:
                self.inject_publication(source, notification, pub_id)
            return
        if self.batched:
            self._process_publication_batch(source, items)
        else:
            for notification, pub_id in items:
                self._process_publication(source, notification, pub_id)

    def inject_publication(
        self,
        source: Address | None,
        notification: Notification,
        pub_id: tuple[Address, int] | None = None,
    ) -> None:
        """Entry point for first-hop traffic (clients, local producers).

        Flood modes process in place — matching and neighbour forwarding
        are one step.  In dht mode the publication is *also* handed to
        the rendezvous engine, which routes a copy toward each key's
        root for tree multicast; the local processing step still runs
        first so attached subscribers hear about it without a round
        trip, with ``OriginFloorCache`` dedup collapsing any echo.
        """
        if self.rv is None:
            self._process_publication(source, notification, pub_id)
            return
        if pub_id is None:
            pub_id = (self.addr, self._pub_seq)
            self._pub_seq += 1
        self._process_publication(source, notification, pub_id)
        self.rv.publish(notification, pub_id)

    def _deliver(
        self,
        dest: Address,
        notification: Notification,
        size: int,
        pub_id: tuple[Address, int] | None = None,
    ) -> None:
        if dest in self.proxies:
            self.proxies[dest].append(notification)  # buffer for the mobile client
        elif dest in self.client_addrs:
            self.notifications_delivered += 1
            self.send(dest, Notify(notification), size_bytes=size)
        elif dest in self.neighbours:
            self.send(dest, Publish(notification, pub_id), size_bytes=size)

    def _deliver_batch(self, dest: Address, batch: list) -> None:
        """Deliver a publish-ordered batch to one destination.

        Clients get one :class:`NotifyBatch`, neighbours one
        :class:`PublishBatch` (pub_ids intact for their dedup), proxies
        buffer in order — mirroring :meth:`_deliver` case for case.
        """
        if dest in self.proxies:
            self.proxies[dest].extend(notification for notification, _ in batch)
        elif dest in self.client_addrs:
            self.notifications_delivered += len(batch)
            size = sum(notification.size_bytes() for notification, _ in batch)
            self.send(
                dest,
                NotifyBatch(tuple(notification for notification, _ in batch)),
                size_bytes=size,
            )
        elif dest in self.neighbours:
            size = sum(notification.size_bytes() for notification, _ in batch)
            self.send(dest, PublishBatch(tuple(batch)), size_bytes=size)

    # ------------------------------------------------------------------
    # Mobility (Mobikit §3: static proxies for mobile entities)
    # ------------------------------------------------------------------
    def _handle_move_out(self, client: Address) -> None:
        if client in self.client_addrs:
            self.proxies.setdefault(client, [])

    def _handle_move_in(self, msg: MoveIn) -> None:
        self.attach_client(msg.client)
        for filter in msg.filters:
            self._store_subscription(msg.client, filter)
        if msg.old_broker is not None and msg.old_broker != self.addr:
            self.send(msg.old_broker, TransferRequest(msg.client, self.addr))
        elif msg.client in self.proxies:
            self._flush_proxy(msg.client)

    def _handle_transfer_request(self, msg: TransferRequest) -> None:
        buffered = tuple(self.proxies.pop(msg.client, ()))
        filters = tuple(self.subs_by_source.get(msg.client, ()))
        self.client_addrs.discard(msg.client)
        for filter in filters:
            self._remove_subscription(msg.client, filter)
        # A service migration names a successor endpoint: the buffered
        # notifications belong to the replacement instance, not to the
        # torn-down original.
        recipient = msg.successor if msg.successor is not None else msg.client
        self.send(msg.new_broker, Transfer(recipient, buffered, filters), size_bytes=512)

    def _handle_transfer(self, msg: Transfer) -> None:
        # Defensive re-registration: the Transfer is self-contained, so
        # the handover holds even if the MoveIn carried a stale filter
        # list (registering an already-known filter is a no-op).  Only
        # while the client is still attached here, though — a late
        # Transfer for a client that has already moved on again must not
        # resurrect it with ghost subscriptions.
        if msg.client in self.client_addrs:
            for filter in msg.filters:
                self._store_subscription(msg.client, filter)
        for notification in msg.buffered:
            if msg.client in self.proxies:
                # The client went dark again before the handover landed:
                # keep buffering rather than sending into the void.
                self.proxies[msg.client].append(notification)
            else:
                self.notifications_delivered += 1
                self.send(msg.client, Notify(notification), size_bytes=notification.size_bytes())

    def _flush_proxy(self, client: Address) -> None:
        for notification in self.proxies.pop(client, []):
            self.notifications_delivered += 1
            self.send(client, Notify(notification), size_bytes=notification.size_bytes())

    def _reset_and_sync(self, neighbour: Address) -> None:
        """Clear the per-link forwarding bookkeeping and re-push everything.

        Used when the far side dropped its half of a link we kept: our
        records of what it holds are stale and would suppress the
        re-push, so they are discarded before the full state sync.
        """
        for table in (self.subs, self.adverts):
            table.forget(neighbour)
        self.forwarded.setdefault(neighbour, [])
        self._sync_new_neighbour(neighbour)

    def _handle_resync(self, src: Address) -> None:
        """The neighbour reset our link and is about to replay its state.

        Everything this link previously told us is stale on both
        directions: the inbound entries it may have retracted during the
        outage (those Unsubscribe/Unadvertise messages died with the
        link) are withdrawn, and the outbound bookkeeping claiming it
        still holds our filters is cleared before the full re-push.  The
        sender's replay follows this message on the same FIFO link, so
        its live state is restored immediately after.  Ignored when we
        do not consider ``src`` a neighbour (our own detector dropped
        the link, taking all of this state with it, and will resync when
        it notices the revival itself).
        """
        if src not in self.neighbours:
            return
        self._forget_neighbour(src)
        self._reset_and_sync(src)

    # ------------------------------------------------------------------
    def handle_message(self, src: Address, payload) -> None:
        if isinstance(payload, Subscribe):
            self._store_subscription(
                src, payload.filter, payload.path, payload.path_reset
            )
        elif isinstance(payload, Unsubscribe):
            self._remove_subscription(src, payload.filter)
        elif isinstance(payload, Advertise):
            self._store_advertisement(
                src, payload.filter, payload.path, payload.path_reset
            )
        elif isinstance(payload, Unadvertise):
            self._remove_advertisement(src, payload.filter)
        elif isinstance(payload, Publish):
            self.inject_publication(src, payload.notification, payload.pub_id)
        elif isinstance(payload, PublishBatch):
            if self.rv is not None:
                # dht mode: unbundle through the rendezvous entry point —
                # each publication keys its own tree.
                for notification, pub_id in payload.items:
                    self.inject_publication(src, notification, pub_id)
            elif self.batched:
                self._process_publication_batch(src, payload.items)
            else:
                # Unbundle: a batch is just its publications in order.
                for notification, pub_id in payload.items:
                    self._process_publication(src, notification, pub_id)
        elif isinstance(payload, Heartbeat):
            if self.failure_detector is not None:
                self.failure_detector.on_heartbeat(src, payload)
        elif isinstance(payload, Resync):
            self._handle_resync(src)
        elif isinstance(payload, MoveOut):
            self._handle_move_out(src)
        elif isinstance(payload, MoveIn):
            self._handle_move_in(payload)
        elif isinstance(payload, TransferRequest):
            self._handle_transfer_request(payload)
        elif isinstance(payload, Transfer):
            self._handle_transfer(payload)
        elif self.rv is not None and self.rv.handle(src, payload):
            pass
        else:
            raise TypeError(f"unknown broker message: {payload!r}")


# Event types that are control-plane traffic, not service demand: the
# metrics layer must not let its own plumbing (or the failure detector's)
# pollute the demand-age signal migrations key on.
CONTROL_EVENT_TYPES = frozenset(
    {"resource", "node-leaving", "node-failed", "node-recovered"}
)


class BrokerMetrics:
    """Export one broker's load/queue/latency digest on the event fabric.

    §4.4's monitoring loop starts here: the broker itself periodically
    publishes a ``resource`` event (through its own publication path, so
    the metrics ride the same fabric as the traffic they describe)
    carrying

    * ``load`` — processed-notification rate over the interval, as a
      fraction of ``capacity_eps`` (events/second the host is sized for);
    * ``queue_depth`` — notifications parked in mobility proxy buffers;
    * ``event_age`` — mean of ``now - notification.time`` over the
      service publications processed this interval.  A host far from the
      traffic's producers sees events that are already old on arrival,
      so this is the decentralised delivery-latency signal a
      :class:`~repro.evolution.constraints.LoadConstraint` migrates on.
      Omitted entirely when the interval carried no service traffic.

    ``deploy_addr`` is the address migration targets should be deployed
    to (the thin server co-located with this broker); it defaults to the
    broker's own address.
    """

    def __init__(
        self,
        broker: BrokerNode,
        node_id: str,
        period_s: float = 20.0,
        deploy_addr: Address | None = None,
        capacity_eps: float = 200.0,
        capacity: float = 1.0,
        jitter: float = 0.0,
        start_delay: float | None = None,
        ignore_types: frozenset = CONTROL_EVENT_TYPES,
    ):
        self.broker = broker
        self.node_id = node_id
        self.period_s = period_s
        self.deploy_addr = deploy_addr if deploy_addr is not None else broker.addr
        self.capacity_eps = capacity_eps
        self.capacity = capacity
        self.ignore_types = ignore_types
        self.region = self._region_of(broker.position)
        self.published = 0
        self._age_sum = 0.0
        self._age_count = 0
        self._last_processed = broker.notifications_processed
        broker.metrics = self
        rng = broker.sim.rng_for(f"metrics-{node_id}") if jitter else None
        self._task = PeriodicTask(
            broker.sim,
            period_s,
            self._publish_metrics,
            jitter=jitter,
            start_delay=start_delay,
            rng=rng,
        )

    @staticmethod
    def _region_of(position: Position) -> str:
        for region in WORLD_REGIONS:
            if region.contains(position):
                return region.name
        return "other"

    def observe(self, notification: Notification) -> None:
        """Called by the broker for every publication it processes."""
        if notification.event_type in self.ignore_types:
            return
        if "time" not in notification:
            return
        self._age_sum += max(0.0, self.broker.sim.now - notification.time)
        self._age_count += 1

    def _publish_metrics(self) -> None:
        broker = self.broker
        processed = broker.notifications_processed - self._last_processed
        self._last_processed = broker.notifications_processed
        rate = processed / self.period_s
        queue_depth = sum(len(buffer) for buffer in broker.proxies.values())
        attrs: dict = {
            "node": self.node_id,
            "addr": int(self.deploy_addr),
            "region": self.region,
            "lat": broker.position.lat,
            "lon": broker.position.lon,
            "load": round(min(1.0, rate / self.capacity_eps), 4),
            "rate": round(rate, 4),
            "queue_depth": queue_depth,
            "capacity": self.capacity,
        }
        if self._age_count:
            attrs["event_age"] = self._age_sum / self._age_count
        self._age_sum = 0.0
        self._age_count = 0
        self.published += 1
        # Injected as a locally-originated publication: the digest routes
        # through the overlay exactly like the traffic it measures.
        broker.inject_publication(None, make_event("resource", time=broker.sim.now, **attrs))

    def stop(self) -> None:
        self._task.stop()


class SienaClient(Host):
    """An event producer/consumer attached to one broker.

    The client side of the paper's access protocol: :meth:`subscribe` /
    :meth:`unsubscribe` register interest, :meth:`advertise` /
    :meth:`unadvertise` declare publication shapes (what ``adv_pruned``
    brokers route by), :meth:`publish` stamps a per-client sequence id
    (the overlay's exactly-once dedup key) and :meth:`publish_batch`
    sends a burst as one wire message for the broker's ``batched``
    path.  Deliveries land in :attr:`received` as ``(sim-time,
    notification)`` pairs and fan out to any registered
    :attr:`handlers`.  Mobility (MoveIn/MoveOut hand-off between
    brokers) lives in :class:`~repro.events.mobility.MobileClient`.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        position: Position,
        broker: BrokerNode,
    ):
        super().__init__(sim, network, position)
        self.broker_addr = broker.addr
        broker.attach_client(self.addr)
        self.filters: list[Filter] = []
        self.received: list[tuple[float, Notification]] = []
        self.handlers: list[Callable[[Notification], None]] = []
        self._pub_seq = 0

    def subscribe(self, filter: Filter) -> None:
        self.filters.append(filter)
        self.send(self.broker_addr, Subscribe(filter), size_bytes=128)

    def unsubscribe(self, filter: Filter) -> None:
        if filter in self.filters:
            self.filters.remove(filter)
        self.send(self.broker_addr, Unsubscribe(filter), size_bytes=128)

    def advertise(self, filter: Filter) -> None:
        """Declare what this client will publish (§3's advertisements)."""
        self.send(self.broker_addr, Advertise(filter), size_bytes=128)

    def unadvertise(self, filter: Filter) -> None:
        self.send(self.broker_addr, Unadvertise(filter), size_bytes=128)

    def publish(self, notification: Notification) -> None:
        pub_id = (self.addr, self._pub_seq)
        self._pub_seq += 1
        self.send(
            self.broker_addr,
            Publish(notification, pub_id),
            size_bytes=notification.size_bytes(),
        )

    def publish_batch(self, notifications: list) -> None:
        """Publish a burst as one wire message, pub_ids stamped in order.

        The sequence numbers are exactly those ``publish`` would have
        assigned, so dedup state downstream cannot tell the difference.
        """
        items = []
        for notification in notifications:
            items.append((notification, (self.addr, self._pub_seq)))
            self._pub_seq += 1
        self.send(
            self.broker_addr,
            PublishBatch(tuple(items)),
            size_bytes=sum(n.size_bytes() for n in notifications),
        )

    def handle_message(self, src: Address, payload) -> None:
        if isinstance(payload, Notify):
            self.received.append((self.sim.now, payload.notification))
            for handler in list(self.handlers):
                handler(payload.notification)
        elif isinstance(payload, NotifyBatch):
            for notification in payload.notifications:
                self.received.append((self.sim.now, notification))
                for handler in list(self.handlers):
                    handler(notification)


def build_broker_tree(
    sim: Simulator,
    network: Network,
    count: int,
    branching: int = 3,
    covering_enabled: bool = True,
    indexed: bool = True,
    adv_pruned: bool = False,
    batched: bool = False,
    advert_on_first_publish: bool = False,
    seen_ttl: float = 30.0,
    heartbeat: "HeartbeatConfig | None" = None,
    routing: str = "flood",
    rv_refresh: float = 1.0,
    shards: int = 1,
) -> list[BrokerNode]:
    """A tree-shaped (hence acyclic) broker overlay spread across regions.

    Passing a :class:`~repro.events.failure.HeartbeatConfig` as
    ``heartbeat`` attaches a failure detector to every broker, making
    the overlay self-healing out of the box.
    """
    rng = sim.rng_for("broker-build")
    brokers = [
        BrokerNode(
            sim,
            network,
            WORLD_REGIONS[i % len(WORLD_REGIONS)].random_position(rng),
            covering_enabled=covering_enabled,
            indexed=indexed,
            adv_pruned=adv_pruned,
            batched=batched,
            advert_on_first_publish=advert_on_first_publish,
            seen_ttl=seen_ttl,
            routing=routing,
            rv_refresh=rv_refresh,
            shards=shards,
        )
        for i in range(count)
    ]
    for index in range(1, count):
        parent = brokers[(index - 1) // branching]
        brokers[index].connect(parent)
    if heartbeat is not None:
        install_detectors(brokers, heartbeat)
    return brokers


def build_broker_mesh(
    sim: Simulator,
    network: Network,
    count: int,
    branching: int = 3,
    extra_links: int = 2,
    covering_enabled: bool = True,
    indexed: bool = True,
    adv_pruned: bool = False,
    batched: bool = False,
    advert_on_first_publish: bool = False,
    seen_ttl: float = 30.0,
    heartbeat: "HeartbeatConfig | None" = None,
    placement: str = "latency",
    stretch_bound: float = 3.0,
    routing: str = "flood",
    rv_refresh: float = 1.0,
    shards: int = 1,
) -> list[BrokerNode]:
    """A broker mesh: the :func:`build_broker_tree` overlay plus
    ``extra_links`` redundant links between non-adjacent brokers.

    Every extra link closes a cycle, so any single link on that cycle
    can fail without partitioning the overlay — the fault-tolerance
    property the E5 benchmark's failure phase measures.  Where the
    links land is the ``placement`` policy:

    * ``"latency"`` (default) — the greedy latency/disjointness-aware
      plan from :func:`repro.events.placement.plan_extra_links`: each
      chord maximizes newly-protected tree edges subject to a direct
      latency at most ``stretch_bound`` times the mean tree-link delay.
      Deterministic given broker positions (which the builder draws
      from ``sim.rng_for``, so the same simulator seed still yields the
      same mesh).
    * ``"random"`` — uniformly random non-adjacent pairs, seeded
      through ``sim.rng_for``; the ablation the E5 placement phase
      prices the planner against.

    ``branching`` (default 3) shapes the underlying tree and
    ``extra_links`` (default 2) counts the chords; passing a
    :class:`~repro.events.failure.HeartbeatConfig` as ``heartbeat``
    attaches a failure detector to every broker, making the mesh
    self-healing.  The remaining keywords (``covering_enabled``,
    ``indexed``, ``adv_pruned``, ``batched``, ``advert_on_first_publish``,
    ``seen_ttl``, ``routing``, ``rv_refresh``, ``shards``) pass through
    to every :class:`BrokerNode` — see its docstring for what each
    ablates and its default.
    """
    brokers = build_broker_tree(
        sim,
        network,
        count,
        branching=branching,
        covering_enabled=covering_enabled,
        indexed=indexed,
        adv_pruned=adv_pruned,
        batched=batched,
        advert_on_first_publish=advert_on_first_publish,
        seen_ttl=seen_ttl,
        heartbeat=heartbeat,
        routing=routing,
        rv_refresh=rv_refresh,
        shards=shards,
    )
    if placement == "latency":
        tree_edges = [(index, (index - 1) // branching) for index in range(1, count)]
        plan = plan_extra_links(
            [broker.position for broker in brokers],
            tree_edges,
            extra_links,
            network.latency,
            stretch_bound=stretch_bound,
        )
        for i, j in plan:
            brokers[i].connect(brokers[j])
        return brokers
    if placement != "random":
        raise ValueError(f"unknown placement policy: {placement!r}")
    rng = sim.rng_for("broker-mesh")
    candidates = [
        (i, j)
        for i in range(count)
        for j in range(i + 1, count)
        if brokers[j].addr not in brokers[i].neighbours
    ]
    rng.shuffle(candidates)
    for i, j in candidates[:extra_links]:
        brokers[i].connect(brokers[j])
    return brokers


def build_dht_fleet(
    sim: Simulator,
    network: Network,
    count: int,
    indexed: bool = True,
    seen_ttl: float = 30.0,
    rv_refresh: float = 1.0,
    prefix_depth: int = 8,
) -> list[BrokerNode]:
    """A converged ``routing="dht"`` fleet built from global knowledge.

    Mirrors :func:`repro.overlay.pastry.fast_build`: leaf sets come from
    the sorted guid ring, prefix tables from geographically-closest
    candidates per (row, digit) bucket — the state Pastry's join
    protocol converges to, at O(N log N) build cost.  No overlay links
    are created (rendezvous routing addresses peers directly through
    the ring view), so the membership ``directory`` stays empty and the
    per-broker control state the scale benchmark measures is the honest
    O(log N) Pastry footprint.

    Knobs: ``indexed`` (default ``True``) selects the predicate-indexed
    matching fabric as on :class:`BrokerNode`; ``seen_ttl`` (default
    ``30.0`` s) bounds the per-origin dedup floor; ``rv_refresh``
    (default ``1.0`` s) is the rendezvous soft-state refresh period —
    lower heals faster, higher sends less control traffic;
    ``prefix_depth`` (default ``8``) caps the prefix-table rows built
    per broker, trading routing-table size against hop count at the
    bench's fleet sizes.  Use this builder for scale measurements
    (bench E5 ``dht_scale``); for protocol-level join/heal behaviour
    build small fleets organically via ``BrokerNode(routing="dht")``
    plus :meth:`BrokerNode.connect`.
    """
    rng = sim.rng_for("dht-fleet-build")
    brokers = [
        BrokerNode(
            sim,
            network,
            WORLD_REGIONS[i % len(WORLD_REGIONS)].random_position(rng),
            indexed=indexed,
            seen_ttl=seen_ttl,
            routing="dht",
            rv_refresh=rv_refresh,
        )
        for i in range(count)
    ]
    ordered = sorted(brokers, key=lambda b: b.rv.guid.value)
    total = len(ordered)
    half = ordered[0].rv.leaf_size // 2
    for index, broker in enumerate(ordered):
        for offset in range(1, min(half, total - 1) + 1):
            broker.rv.leaf.add(ordered[(index + offset) % total].rv.descriptor)
            broker.rv.leaf.add(ordered[(index - offset) % total].rv.descriptor)

    by_prefix: dict[str, list[BrokerNode]] = {}
    for broker in brokers:
        hex_id = broker.rv.guid.hex
        for depth in range(1, prefix_depth + 1):
            by_prefix.setdefault(hex_id[:depth], []).append(broker)

    for broker in brokers:
        hex_id = broker.rv.guid.hex
        for row in range(min(prefix_depth, GUID_DIGITS)):
            own_digit = broker.rv.guid.digit(row)
            for col in range(16):
                if col == own_digit:
                    continue
                candidates = by_prefix.get(hex_id[:row] + f"{col:x}")
                if not candidates:
                    continue
                best = min(
                    candidates[:16],
                    key=lambda c: broker.position.distance_km(c.position),
                )
                broker.rv.table.add(best.rv.descriptor)
    return brokers
