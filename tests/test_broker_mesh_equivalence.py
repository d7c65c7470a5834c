"""Randomized mesh-overlay equivalence: cycles, duplicates, link failure.

PR 3 proved that routing modes and join orders never change what clients
receive on *trees*.  This suite extends the obligation to overlays with
cycles: scenarios are generated as pure data (a tree, a set of redundant
extra links, a client population, an op script) and executed per routing
mode — {naive, indexed, indexed+adv_pruned} — and per topology variant,
asserting identical per-client deliveries every time:

* **tree vs mesh** — the same op script on the spanning tree alone and
  on the mesh (tree + redundant links) must deliver identically: the
  redundant links add paths, never copies (per-publication ids with a
  bounded seen-cache suppress every duplicate) and never losses
  (path-tagged control floods install reverse-path state along each
  direction);

* **mesh vs mesh-with-one-killed-link** — killing any single redundant
  link (one whose removal keeps the overlay connected) mid-script must
  not change deliveries either: the surviving directions' routing
  entries were installed by the original flood, so traffic re-converges
  without a state rebuild.

Deterministic tests below pin the individual mechanisms: exactly-once
delivery on a cycle, the bounded seen-cache, reflection-free control
state, convergence to the empty state after unsubscribe, idempotent
``connect``/``disconnect``, and the ``build_broker_mesh`` builder.
"""

import random
from collections import deque

import pytest

from repro.events import placement
from repro.events.broker import BrokerNode, SienaClient, build_broker_mesh
from repro.events.failure import HeartbeatConfig, install_detectors
from repro.events.filters import Constraint, Filter, Op
from repro.events.mobility import ServiceEndpoint, ServiceHandoff, ServiceInbox
from repro.events.model import make_event
from repro.net import FixedLatency, Network, Position
from repro.net.latency import GeographicLatency
from repro.simulation import Simulator
from tests.helpers import control_plane_state

FAST_HEARTBEAT = HeartbeatConfig(interval=0.25, miss_limit=3)

MODES = {
    "naive": dict(indexed=False),
    "indexed": dict(indexed=True),
    "adv_pruned": dict(indexed=True, adv_pruned=True),
    "dht": dict(indexed=True, routing="dht"),
    # Partitioned matching (repro.events.sharding): the subscription
    # index is split across 3 subject shards; flood routing otherwise.
    "sharded": dict(indexed=True, shards=3),
}

# Flood-routing modes only: tests of flood-specific machinery (cycle
# duplicate suppression, forwarded-path narrowing) have no dht analogue
# — rendezvous routing never floods, so those counters stay zero.
FLOOD_MODES = {
    name: kwargs for name, kwargs in MODES.items() if name != "dht"
}

EVENT_TYPES = ["presence", "weather", "rfid", "gps"]
ROOMS = ["lab", "cafe", "atrium", "hall"]
USERS = [f"user{i}" for i in range(6)]


# ----------------------------------------------------------------------
# Scenario generation: pure data, shared verbatim by every variant.
# ----------------------------------------------------------------------
def random_sub_filter(rng: random.Random) -> Filter:
    roll = rng.random()
    if roll < 0.08:
        return Filter(Constraint("room", Op.EXISTS))
    if roll < 0.16:
        return Filter(Constraint("subject", Op.PREFIX, "user"))
    constraints = [Constraint("type", Op.EQ, rng.choice(EVENT_TYPES))]
    extra = rng.random()
    if extra < 0.2:
        constraints.append(Constraint("room", Op.EQ, rng.choice(ROOMS)))
    elif extra < 0.35:
        constraints.append(
            Constraint("strength", Op.GT, round(rng.uniform(0.0, 4.0), 1))
        )
    elif extra < 0.45:
        constraints.append(Constraint("room", Op.NE, rng.choice(ROOMS)))
    elif extra < 0.55:
        constraints.append(Constraint("subject", Op.SUFFIX, str(rng.randrange(4))))
    elif extra < 0.62:
        constraints.append(Constraint("room", Op.CONTAINS, "a"))
    elif extra < 0.7:
        constraints.append(
            Constraint("strength", Op.LE, round(rng.uniform(1.0, 5.0), 1))
        )
    return Filter(*constraints)


def random_producer(rng: random.Random) -> dict:
    event_type = rng.choice(EVENT_TYPES)
    if rng.random() < 0.4:
        room = rng.choice(ROOMS)
        advert = Filter(
            Constraint("type", Op.EQ, event_type), Constraint("room", Op.EQ, room)
        )
        rooms = [room]
    else:
        advert = Filter(Constraint("type", Op.EQ, event_type))
        rooms = ROOMS
    return {"type": event_type, "advert": advert, "rooms": rooms}


def random_publication(rng: random.Random, producer: dict, seq: int):
    return make_event(
        producer["type"],
        subject=rng.choice(USERS),
        room=rng.choice(producer["rooms"]),
        strength=round(rng.uniform(0.0, 5.0), 2),
        seq=seq,
    )


def connected_without(
    n_brokers: int, edges: list[tuple[int, int]], cut: tuple[int, int]
) -> bool:
    """Is the overlay still one component after removing ``cut``?"""
    adjacency: dict[int, set[int]] = {i: set() for i in range(n_brokers)}
    for a, b in edges:
        if {a, b} == set(cut):
            continue
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = {0}
    frontier = deque([0])
    while frontier:
        node = frontier.popleft()
        for peer in adjacency[node]:
            if peer not in seen:
                seen.add(peer)
                frontier.append(peer)
    return len(seen) == n_brokers


def redundant_links(n_brokers: int, edges: list[tuple[int, int]]):
    """Every link whose removal keeps the overlay connected."""
    return [cut for cut in edges if connected_without(n_brokers, edges, cut)]


def generate_scenario(seed: int) -> dict:
    """A spanning tree, redundant extra links, clients, and an op script.

    Producers publish only while advertised (the Siena contract
    advertisement pruning assumes), so deliveries are mode-independent.
    """
    rng = random.Random(seed)
    n_brokers = rng.randint(4, 12)
    tree_edges = [(child, rng.randrange(child)) for child in range(1, n_brokers)]
    adjacent = {frozenset(edge) for edge in tree_edges}
    candidates = [
        (i, j)
        for i in range(n_brokers)
        for j in range(i + 1, n_brokers)
        if frozenset((i, j)) not in adjacent
    ]
    rng.shuffle(candidates)
    extra_edges = candidates[: rng.randint(1, min(3, len(candidates)))]

    subscribers = []  # (broker, [filters])
    producers = []  # (broker, profile)
    for broker in range(n_brokers):
        subscribers.append(
            (broker, [random_sub_filter(rng) for _ in range(rng.randint(1, 3))])
        )
        if rng.random() < 0.6:
            producers.append((broker, random_producer(rng)))
    if not producers:
        producers.append((0, random_producer(rng)))

    ops: list[tuple] = []
    advertised = set()
    active_subs: set[tuple[int, int]] = set()
    seq = 0
    for index in range(len(producers)):
        if rng.random() < 0.7:
            ops.append(("adv", index))
            advertised.add(index)
    for index, (_, filters) in enumerate(subscribers):
        if rng.random() < 0.8:
            ops.append(("sub", index, 0))
            active_subs.add((index, 0))
    for _ in range(rng.randint(12, 24)):
        roll = rng.random()
        if roll < 0.35 and advertised:
            index = rng.choice(sorted(advertised))
            count = rng.randint(1, 3)
            ops.append(("pub", index, seq, count))
            seq += count
        elif roll < 0.55:
            index = rng.randrange(len(subscribers))
            slot = rng.randrange(len(subscribers[index][1]))
            if (index, slot) in active_subs:
                ops.append(("unsub", index, slot))
                active_subs.discard((index, slot))
            else:
                ops.append(("sub", index, slot))
                active_subs.add((index, slot))
        elif roll < 0.7:
            index = rng.randrange(len(producers))
            if index in advertised:
                ops.append(("unadv", index))
                advertised.discard(index)
            else:
                ops.append(("adv", index))
                advertised.add(index)
        elif advertised:
            index = rng.choice(sorted(advertised))
            ops.append(("pub", index, seq, 1))
            seq += 1
    # The kill variant cuts one redundant link somewhere in the second
    # half of the script (chosen against the full mesh edge set).
    mesh_edges = tree_edges + extra_edges
    cut = rng.choice(redundant_links(n_brokers, mesh_edges))
    cut_position = rng.randint(len(ops) // 2, len(ops))
    # The crash variant fail-stops one whole broker at the same point.
    # (Drawn last: appending draws keeps earlier scenarios byte-stable.)
    crash_broker = rng.randrange(n_brokers)
    return {
        "seed": seed,
        "n_brokers": n_brokers,
        "tree_edges": tree_edges,
        "extra_edges": extra_edges,
        "cut": cut,
        "cut_position": cut_position,
        "crash_broker": crash_broker,
        "subscribers": subscribers,
        "producers": producers,
        "ops": ops,
    }


def _delivery_key(notification):
    return tuple(sorted((k, repr(v)) for k, v in notification.items()))


def run_scenario(
    scenario: dict,
    mode_kwargs: dict,
    mesh: bool,
    kill_link: bool = False,
) -> dict:
    edges = list(scenario["tree_edges"])
    if mesh:
        edges += list(scenario["extra_edges"])
    ops = list(scenario["ops"])
    if kill_link:
        ops.insert(scenario["cut_position"], ("cut",))
    sim = Simulator(seed=11)
    network = Network(sim, latency=FixedLatency(0.01))
    brokers = [
        BrokerNode(sim, network, Position(1.0, float(i)), **mode_kwargs)
        for i in range(scenario["n_brokers"])
    ]
    for a, b in edges:
        brokers[a].connect(brokers[b])
    sub_clients = [
        SienaClient(sim, network, Position(2.0, float(i)), brokers[broker])
        for i, (broker, _) in enumerate(scenario["subscribers"])
    ]
    pub_clients = [
        SienaClient(sim, network, Position(3.0, float(i)), brokers[broker])
        for i, (broker, _) in enumerate(scenario["producers"])
    ]
    pub_rng = random.Random(scenario["seed"] * 7919 + 13)
    for op in ops:
        kind = op[0]
        if kind == "sub":
            _, index, slot = op
            sub_clients[index].subscribe(scenario["subscribers"][index][1][slot])
        elif kind == "unsub":
            _, index, slot = op
            sub_clients[index].unsubscribe(scenario["subscribers"][index][1][slot])
        elif kind == "adv":
            _, index = op
            pub_clients[index].advertise(scenario["producers"][index][1]["advert"])
        elif kind == "unadv":
            _, index = op
            pub_clients[index].unadvertise(scenario["producers"][index][1]["advert"])
        elif kind == "pub":
            _, index, seq, count = op
            profile = scenario["producers"][index][1]
            for offset in range(count):
                pub_clients[index].publish(
                    random_publication(pub_rng, profile, seq + offset)
                )
        elif kind == "cut":
            a, b = scenario["cut"]
            brokers[a].disconnect(brokers[b])
        sim.run_for(2.0)
    sim.run_for(5.0)
    deliveries = [
        sorted(_delivery_key(n) for _, n in client.received)
        for client in sub_clients + pub_clients
    ]
    duplicates_ok = all(
        len(filters) == len(set(filters))
        for b in brokers
        for filters in list(b.forwarded.values()) + list(b.adverts_forwarded.values())
    )
    return {
        "deliveries": deliveries,
        "duplicates_ok": duplicates_ok,
        "duplicates_suppressed": sum(b.duplicates_suppressed for b in brokers),
        "dedup_origins": [len(b.pub_dedup) for b in brokers],
        "control_plane": control_plane_state(brokers),
    }


class TestRandomizedMeshEquivalence:
    @pytest.mark.parametrize("seed", range(22))
    def test_tree_and_mesh_deliver_identically(self, seed):
        scenario = generate_scenario(seed)
        tree = run_scenario(scenario, MODES["naive"], mesh=False)
        results = {}
        for name, kwargs in MODES.items():
            result = results[name] = run_scenario(scenario, kwargs, mesh=True)
            assert result["deliveries"] == tree["deliveries"], name
            assert result["duplicates_ok"], name
        assert (
            results["indexed"]["control_plane"] == results["naive"]["control_plane"]
        )

    @pytest.mark.parametrize("seed", range(22))
    def test_killing_one_redundant_link_changes_nothing(self, seed):
        scenario = generate_scenario(seed)
        killed_runs = {}
        for name, kwargs in MODES.items():
            intact = run_scenario(scenario, kwargs, mesh=True)
            killed = killed_runs[name] = run_scenario(
                scenario, kwargs, mesh=True, kill_link=True
            )
            assert killed["deliveries"] == intact["deliveries"], name
            assert killed["duplicates_ok"], name
        assert (
            killed_runs["indexed"]["control_plane"]
            == killed_runs["naive"]["control_plane"]
        )

    def test_every_redundant_link_is_individually_killable(self):
        """Exhaustive over one scenario: whichever redundant link dies,
        deliveries match the intact mesh."""
        scenario = generate_scenario(3)
        mesh_edges = scenario["tree_edges"] + scenario["extra_edges"]
        cuts = redundant_links(scenario["n_brokers"], mesh_edges)
        assert len(cuts) >= 3  # the meta-check below keeps this honest
        intact = run_scenario(scenario, MODES["indexed"], mesh=True)
        for cut in cuts:
            variant = dict(scenario, cut=cut)
            killed = run_scenario(variant, MODES["indexed"], mesh=True, kill_link=True)
            assert killed["deliveries"] == intact["deliveries"], cut

    def test_scenarios_exercise_the_mesh(self):
        """Meta-check: the generator produces cycles the traffic actually
        crosses (duplicates get suppressed), churn of every kind, and
        non-empty deliveries."""
        kinds = set()
        delivered = 0
        suppressed = 0
        for seed in range(22):
            scenario = generate_scenario(seed)
            assert scenario["extra_edges"]  # every mesh has ≥1 cycle
            kinds |= {op[0] for op in scenario["ops"]}
            result = run_scenario(scenario, MODES["indexed"], mesh=True)
            delivered += sum(len(d) for d in result["deliveries"])
            suppressed += result["duplicates_suppressed"]
        assert kinds == {"sub", "unsub", "adv", "unadv", "pub"}
        assert delivered > 100
        assert suppressed > 0


# ----------------------------------------------------------------------
# Deterministic mechanism tests
# ----------------------------------------------------------------------
def triangle(**kwargs):
    sim = Simulator(seed=0)
    network = Network(sim, latency=FixedLatency(0.01))
    brokers = [
        BrokerNode(sim, network, Position(0.0, float(i)), **kwargs) for i in range(3)
    ]
    brokers[0].connect(brokers[1])
    brokers[1].connect(brokers[2])
    brokers[2].connect(brokers[0])
    return sim, network, brokers


class TestDuplicateSuppression:
    @pytest.mark.parametrize("mode", sorted(FLOOD_MODES))
    def test_cycle_delivers_exactly_once(self, mode):
        sim, network, brokers = triangle(**MODES[mode])
        sub = SienaClient(sim, network, Position(1.0, 0.0), brokers[0])
        pub = SienaClient(sim, network, Position(1.0, 1.0), brokers[1])
        sub.subscribe(Filter(Constraint("type", Op.EQ, "t")))
        sim.run_for(1.0)
        pub.advertise(Filter(Constraint("type", Op.EQ, "t")))
        sim.run_for(1.0)
        pub.publish(make_event("t", n=1))
        sim.run_for(1.0)
        assert [n["n"] for _, n in sub.received] == [1]
        # The publication crossed the redundant link and was dropped there.
        assert sum(b.duplicates_suppressed for b in brokers) > 0

    def test_dedup_state_bounded_by_live_origins(self):
        """The dedup state is one floor per live origin — not one entry
        per publication — suppression stays exact across a long stream,
        and an origin idle past the TTL is reclaimed entirely."""
        sim, network, brokers = triangle(seen_ttl=5.0)
        sub = SienaClient(sim, network, Position(1.0, 0.0), brokers[0])
        pub = SienaClient(sim, network, Position(1.0, 1.0), brokers[1])
        sub.subscribe(Filter(Constraint("type", Op.EQ, "t")))
        sim.run_for(1.0)
        for n in range(40):
            pub.publish(make_event("t", n=n))
            sim.run_for(1.0)
        assert [n["n"] for _, n in sub.received] == list(range(40))
        for broker in brokers:
            # One publishing origin; contiguous delivery leaves no gaps.
            assert len(broker.pub_dedup) <= 1
            assert broker.pub_dedup.pending_count() == 0
        sim.run_for(10.0)
        for broker in brokers:
            broker.pub_dedup.expire(sim.now)
            assert len(broker.pub_dedup) == 0

    def test_reflections_never_stored(self):
        """A broker's own forwarding looping around the cycle must not
        come back as foreign state: after the flood settles, the
        subscriber's broker stores only its client's entry."""
        sim, network, brokers = triangle()
        sub = SienaClient(sim, network, Position(1.0, 0.0), brokers[0])
        sub.subscribe(Filter(Constraint("type", Op.EQ, "t")))
        sim.run_for(2.0)
        assert set(brokers[0].subs_by_source) == {sub.addr}

    def test_unsubscribe_converges_to_empty_state(self):
        """No ghost subscriptions circulate the ring after the only
        subscriber leaves — every store and forwarded set drains."""
        sim, network, brokers = triangle()
        sub = SienaClient(sim, network, Position(1.0, 0.0), brokers[0])
        filter = Filter(Constraint("type", Op.EQ, "t"))
        sub.subscribe(filter)
        sim.run_for(2.0)
        sub.unsubscribe(filter)
        sim.run_for(5.0)
        for broker in brokers:
            assert broker.subs_by_source == {}
            assert all(not fs for fs in broker.forwarded.values())
            assert broker.subs.paths == {}


class TestPathRewidening:
    """Unsubscribe/unadvertise must *re-widen* narrowed paths.

    Two origins registering the same filter narrow its recorded paths to
    the chains' intersection; when one origin leaves, the long-lived
    overlay's stored/sent paths must converge back to exactly what a
    fresh overlay holding only the survivor would build — otherwise
    heavy churn leaves control floods wider than necessary forever.
    """

    @staticmethod
    def _nonempty(sent_by_neighbour):
        return {
            n: dict(sent) for n, sent in sent_by_neighbour.items() if sent
        }

    @pytest.mark.parametrize("mode", sorted(FLOOD_MODES))
    def test_unsubscribe_restores_fresh_overlay_paths(self, mode):
        filter = Filter(Constraint("type", Op.EQ, "t"))

        def build(churn: bool):
            sim = Simulator(seed=0)
            network = Network(sim, latency=FixedLatency(0.01))
            hub = BrokerNode(sim, network, Position(0.0, 0.0), **MODES[mode])
            spokes = [
                BrokerNode(sim, network, Position(0.0, float(i + 1)), **MODES[mode])
                for i in range(3)
            ]
            for spoke in spokes:
                spoke.connect(hub)
            s1 = SienaClient(sim, network, Position(1.0, 0.0), spokes[0])
            s2 = SienaClient(sim, network, Position(1.0, 1.0), spokes[1])
            producers = [
                SienaClient(sim, network, Position(1.0, 2.0 + i), broker)
                for i, broker in enumerate([spokes[0], spokes[1]])
            ]
            for producer in producers:
                producer.advertise(Filter(Constraint("type", Op.EXISTS)))
            sim.run_for(2.0)
            if churn:
                s1.subscribe(filter)
                sim.run_for(2.0)
            s2.subscribe(filter)
            sim.run_for(2.0)
            if churn:
                s1.unsubscribe(filter)
                sim.run_for(2.0)
            sim.run_for(5.0)
            return [hub] + spokes

        churned = build(churn=True)
        fresh = build(churn=False)
        # Host-allocation order is identical, so state is comparable
        # address-for-address: every stored path and every sent path the
        # churned world retains must equal the fresh world's.
        for world_a, world_b in zip(churned, fresh):
            assert world_a.subs.paths == world_b.subs.paths
            assert self._nonempty(world_a.subs.sent) == self._nonempty(
                world_b.subs.sent
            )

    @pytest.mark.parametrize("mode", sorted(FLOOD_MODES))
    def test_unadvertise_restores_fresh_overlay_paths(self, mode):
        advert = Filter(Constraint("type", Op.EQ, "t"))

        def build(churn: bool):
            sim = Simulator(seed=0)
            network = Network(sim, latency=FixedLatency(0.01))
            hub = BrokerNode(sim, network, Position(0.0, 0.0), **MODES[mode])
            spokes = [
                BrokerNode(sim, network, Position(0.0, float(i + 1)), **MODES[mode])
                for i in range(3)
            ]
            for spoke in spokes:
                spoke.connect(hub)
            p1 = SienaClient(sim, network, Position(1.0, 0.0), spokes[0])
            p2 = SienaClient(sim, network, Position(1.0, 1.0), spokes[1])
            if churn:
                p1.advertise(advert)
                sim.run_for(2.0)
            p2.advertise(advert)
            sim.run_for(2.0)
            if churn:
                p1.unadvertise(advert)
                sim.run_for(2.0)
            sim.run_for(5.0)
            return [hub] + spokes

        churned = build(churn=True)
        fresh = build(churn=False)
        for world_a, world_b in zip(churned, fresh):
            assert world_a.adverts.paths == world_b.adverts.paths
            assert self._nonempty(world_a.adverts.sent) == self._nonempty(
                world_b.adverts.sent
            )


class TestLinkFailureSurvival:
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_ring_survives_any_single_link_failure(self, mode):
        for kill in range(4):
            sim = Simulator(seed=0)
            network = Network(sim, latency=FixedLatency(0.01))
            ring = [
                BrokerNode(sim, network, Position(0.0, float(i)), **MODES[mode])
                for i in range(4)
            ]
            for i in range(4):
                ring[i].connect(ring[(i + 1) % 4])
            sub = SienaClient(sim, network, Position(1.0, 0.0), ring[0])
            pub = SienaClient(sim, network, Position(1.0, 2.0), ring[2])
            pub.advertise(Filter(Constraint("type", Op.EQ, "t")))
            sim.run_for(1.0)
            sub.subscribe(Filter(Constraint("type", Op.EQ, "t")))
            sim.run_for(2.0)
            pub.publish(make_event("t", n=1))
            sim.run_for(2.0)
            ring[kill].disconnect(ring[(kill + 1) % 4])
            sim.run_for(5.0)
            pub.publish(make_event("t", n=2))
            sim.run_for(2.0)
            assert [n["n"] for _, n in sub.received] == [1, 2], (mode, kill)

    def test_failure_then_heal_restores_redundancy(self):
        sim, network, brokers = triangle()
        sub = SienaClient(sim, network, Position(1.0, 0.0), brokers[0])
        pub = SienaClient(sim, network, Position(1.0, 1.0), brokers[1])
        sub.subscribe(Filter(Constraint("type", Op.EQ, "t")))
        sim.run_for(2.0)
        brokers[0].disconnect(brokers[1])
        sim.run_for(2.0)
        pub.publish(make_event("t", n=1))  # travels 1 → 2 → 0
        sim.run_for(2.0)
        brokers[0].connect(brokers[1])
        sim.run_for(2.0)
        brokers[2].disconnect(brokers[0])  # now kill the other path
        sim.run_for(2.0)
        pub.publish(make_event("t", n=2))  # travels 1 → 0
        sim.run_for(2.0)
        assert [n["n"] for _, n in sub.received] == [1, 2]


class TestMeshBuilder:
    def test_adds_exactly_the_requested_redundancy(self):
        sim = Simulator(seed=5)
        network = Network(sim, latency=FixedLatency(0.01))
        brokers = build_broker_mesh(sim, network, 10, extra_links=3)
        links = sum(len(b.neighbours) for b in brokers) // 2
        assert links == 9 + 3  # spanning tree plus the redundant links
        edges = [
            (i, j)
            for i in range(10)
            for j in range(i + 1, 10)
            if brokers[j].addr in brokers[i].neighbours
        ]
        assert len(redundant_links(10, edges)) >= 3

    def test_same_seed_same_mesh(self):
        # Random placement: seeded through the simulator, so the same
        # seed reproduces the mesh and different seeds vary it.
        def topology(seed):
            sim = Simulator(seed=seed)
            network = Network(sim, latency=FixedLatency(0.01))
            brokers = build_broker_mesh(
                sim, network, 8, extra_links=2, placement="random"
            )
            return [
                (i, j)
                for i in range(8)
                for j in range(i + 1, 8)
                if brokers[j].addr in brokers[i].neighbours
            ]

        assert topology(7) == topology(7)
        assert topology(7) != topology(8)

    def test_latency_placement_is_deterministic(self):
        # Latency-aware placement is a pure function of broker
        # positions: the same seed (hence the same positions) must
        # reproduce the plan exactly.
        def topology(seed):
            sim = Simulator(seed=seed)
            network = Network(sim, latency=GeographicLatency(jitter_frac=0.0))
            brokers = build_broker_mesh(
                sim, network, 12, extra_links=3, placement="latency"
            )
            return [
                (i, j)
                for i in range(12)
                for j in range(i + 1, 12)
                if brokers[j].addr in brokers[i].neighbours
            ]

        assert topology(11) == topology(11)

    def test_latency_placement_protects_more_than_random(self):
        # The planner's whole point: at the same link budget it leaves
        # fewer bridges (single points of partition) than random
        # placement — here, none on the benchmark-sized overlay.
        count, extra = 15, 4
        tree_edges = [(i, (i - 1) // 3) for i in range(1, count)]
        paths = placement.tree_paths(count, tree_edges)

        def chords(policy):
            sim = Simulator(seed=7)
            network = Network(sim, latency=GeographicLatency(jitter_frac=0.0))
            brokers = build_broker_mesh(
                sim, network, count, extra_links=extra, placement=policy
            )
            tree = {frozenset(e) for e in tree_edges}
            return [
                (i, j)
                for i in range(count)
                for j in range(i + 1, count)
                if brokers[j].addr in brokers[i].neighbours
                and frozenset((i, j)) not in tree
            ]

        protected_latency = placement.protected_edges(chords("latency"), paths)
        protected_random = placement.protected_edges(chords("random"), paths)
        assert len(protected_latency) >= len(protected_random)
        assert len(protected_latency) >= 3 * extra - 1

    def test_unknown_placement_rejected(self):
        sim = Simulator(seed=5)
        network = Network(sim, latency=FixedLatency(0.01))
        with pytest.raises(ValueError):
            build_broker_mesh(sim, network, 6, placement="closest")

    def test_mesh_routes_like_a_tree(self):
        sim = Simulator(seed=5)
        network = Network(sim, latency=FixedLatency(0.01))
        brokers = build_broker_mesh(sim, network, 9, branching=2, extra_links=2)
        clients = [
            SienaClient(sim, network, Position(2.0, float(i)), broker)
            for i, broker in enumerate(brokers)
        ]
        for client in clients:
            client.subscribe(Filter(Constraint("type", Op.EQ, "tick")))
        sim.run_for(3.0)
        clients[0].publish(make_event("tick", n=1))
        sim.run_for(3.0)
        for i, client in enumerate(clients):
            expected = [] if i == 0 else [1]
            assert [n["n"] for _, n in client.received] == expected


# ----------------------------------------------------------------------
# Service migration mid-churn: a ServiceHandoff moving a service's
# endpoint between brokers while the op script runs must not change the
# service's delivery stream — in any routing mode.
# ----------------------------------------------------------------------
def run_migration_scenario(scenario: dict, mode_kwargs: dict, migrate: bool):
    """The mesh op script with a service endpoint attached at broker 0;
    when ``migrate`` is set, a :class:`ServiceHandoff` moves the endpoint
    to another broker at the scenario's cut position, mid-churn.

    Every publication carries a unique ``seq``, so the inbox's sorted
    delivery keys are an exact multiset of what the service received.
    """
    edges = list(scenario["tree_edges"]) + list(scenario["extra_edges"])
    ops = list(scenario["ops"])
    if migrate:
        ops.insert(scenario["cut_position"], ("migrate",))
    sim = Simulator(seed=11)
    network = Network(sim, latency=FixedLatency(0.01))
    brokers = [
        BrokerNode(sim, network, Position(1.0, float(i)), **mode_kwargs)
        for i in range(scenario["n_brokers"])
    ]
    for a, b in edges:
        brokers[a].connect(brokers[b])
    sub_clients = [
        SienaClient(sim, network, Position(2.0, float(i)), brokers[broker])
        for i, (broker, _) in enumerate(scenario["subscribers"])
    ]
    pub_clients = [
        SienaClient(sim, network, Position(3.0, float(i)), brokers[broker])
        for i, (broker, _) in enumerate(scenario["producers"])
    ]
    inbox = ServiceInbox(sim)
    endpoint = ServiceEndpoint(sim, network, Position(4.0, 0.0), brokers[0], inbox)
    endpoint.subscribe(Filter(Constraint("seq", Op.EXISTS)))
    handoff = ServiceHandoff(sim, network, settle_s=2.0)
    sim.run_for(2.0)
    # The endpoint starts at broker 0; migrate to the scenario's crash
    # broker (an arbitrary deterministic draw), or the far end if that is
    # already home.
    target = scenario["crash_broker"]
    if target == 0:
        target = scenario["n_brokers"] - 1
    pub_rng = random.Random(scenario["seed"] * 7919 + 13)
    for op in ops:
        kind = op[0]
        if kind == "migrate":
            endpoint = handoff.migrate(endpoint, brokers[target])
            sim.run_for(6.0)  # settle window + cut-over + transfer
            continue
        if kind == "sub":
            _, index, slot = op
            sub_clients[index].subscribe(scenario["subscribers"][index][1][slot])
        elif kind == "unsub":
            _, index, slot = op
            sub_clients[index].unsubscribe(scenario["subscribers"][index][1][slot])
        elif kind == "adv":
            _, index = op
            pub_clients[index].advertise(scenario["producers"][index][1]["advert"])
        elif kind == "unadv":
            _, index = op
            pub_clients[index].unadvertise(scenario["producers"][index][1]["advert"])
        elif kind == "pub":
            _, index, seq, count = op
            profile = scenario["producers"][index][1]
            for offset in range(count):
                pub_clients[index].publish(
                    random_publication(pub_rng, profile, seq + offset)
                )
        sim.run_for(2.0)
    sim.run_for(8.0)
    deliveries = sorted(_delivery_key(n) for _, n in inbox.deliveries)
    return deliveries, inbox, handoff


class TestMigrationMidChurnEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_migration_preserves_the_service_stream(self, seed):
        scenario = generate_scenario(seed)
        baseline, _, _ = run_migration_scenario(
            scenario, MODES["naive"], migrate=False
        )
        for name, kwargs in MODES.items():
            migrated, _, handoff = run_migration_scenario(
                scenario, kwargs, migrate=True
            )
            assert handoff.completed, name  # the cut-over really happened
            assert migrated == baseline, name

    def test_migration_scenarios_exercise_live_traffic(self):
        """Meta-check: the endpoint receives real traffic and at least one
        scenario keeps publishing after the migration point, so the
        equivalence above covers a genuinely mid-stream handoff."""
        delivered = 0
        post_migration_pubs = 0
        for seed in range(6):
            scenario = generate_scenario(seed)
            baseline, _, _ = run_migration_scenario(
                scenario, MODES["naive"], migrate=False
            )
            delivered += len(baseline)
            post_migration_pubs += sum(
                1
                for op in scenario["ops"][scenario["cut_position"] :]
                if op[0] == "pub"
            )
        assert delivered > 50
        assert post_migration_pubs >= 1


# ----------------------------------------------------------------------
# Shared harness: scripted worlds, folded final state, settle-and-probe.
# (test_failure_detection builds its detector suites on these too.)
# ----------------------------------------------------------------------
def _fold_final_state(ops):
    """Active (subscriber, slot) pairs and advertised producers after ops."""
    active: set[tuple[int, int]] = set()
    advertised: set[int] = set()
    for op in ops:
        if op[0] == "sub":
            active.add((op[1], op[2]))
        elif op[0] == "unsub":
            active.discard((op[1], op[2]))
        elif op[0] == "adv":
            advertised.add(op[1])
        elif op[0] == "unadv":
            advertised.discard(op[1])
    return active, advertised


def _probe(scenario, sim, sub_clients, pub_clients, advertised):
    marks = [len(c.received) for c in sub_clients + pub_clients]
    probe_rng = random.Random(scenario["seed"] * 31 + 7)
    for index in sorted(advertised):
        profile = scenario["producers"][index][1]
        for extra in range(3):
            pub_clients[index].publish(
                random_publication(probe_rng, profile, 9000 + extra)
            )
        sim.run_for(2.0)
    sim.run_for(8.0)
    return [
        sorted(_delivery_key(n) for _, n in client.received[mark:])
        for mark, client in zip(marks, sub_clients + pub_clients)
    ]


def _build_world(scenario, mode_kwargs, edges, detectors):
    sim = Simulator(seed=11)
    network = Network(sim, latency=FixedLatency(0.01))
    brokers = [
        BrokerNode(sim, network, Position(1.0, float(i)), **mode_kwargs)
        for i in range(scenario["n_brokers"])
    ]
    for a, b in edges:
        brokers[a].connect(brokers[b])
    if detectors:
        install_detectors(brokers, FAST_HEARTBEAT)
    sub_clients = [
        SienaClient(sim, network, Position(2.0, float(i)), brokers[broker])
        for i, (broker, _) in enumerate(scenario["subscribers"])
    ]
    pub_clients = [
        SienaClient(sim, network, Position(3.0, float(i)), brokers[broker])
        for i, (broker, _) in enumerate(scenario["producers"])
    ]
    return sim, network, brokers, sub_clients, pub_clients


def run_rebuilt(scenario, mode_kwargs, with_cut_link: bool):
    """Fresh overlay in the target topology with only the final state."""
    edges = list(scenario["tree_edges"]) + list(scenario["extra_edges"])
    if not with_cut_link:
        cut = set(scenario["cut"])
        edges = [e for e in edges if set(e) != cut]
    sim, network, brokers, sub_clients, pub_clients = _build_world(
        scenario, mode_kwargs, edges, detectors=False
    )
    active, advertised = _fold_final_state(scenario["ops"])
    for index in sorted(advertised):
        pub_clients[index].advertise(scenario["producers"][index][1]["advert"])
        sim.run_for(2.0)
    for index, slot in sorted(active):
        sub_clients[index].subscribe(scenario["subscribers"][index][1][slot])
        sim.run_for(2.0)
    sim.run_for(8.0)
    return _probe(scenario, sim, sub_clients, pub_clients, advertised)


# ----------------------------------------------------------------------
# Broker crash + restart: the revived broker must converge to the state
# a hand-rebuilt overlay would hold — across every routing mode.
# ----------------------------------------------------------------------
def run_crash_churn(scenario, mode_kwargs):
    """Full op script on the mesh with detectors attached; the scenario's
    crash broker fail-stops mid-script and revives after it.

    Ops issued by the dead broker's own clients during the outage are
    skipped — their messages would die on the dead host — and the list
    of ops that actually executed is returned so the rebuilt comparison
    folds exactly what the overlay heard.
    """
    edges = list(scenario["tree_edges"]) + list(scenario["extra_edges"])
    ops = list(scenario["ops"])
    ops.insert(scenario["cut_position"], ("crash",))
    sim, network, brokers, sub_clients, pub_clients = _build_world(
        scenario, mode_kwargs, edges, detectors=True
    )
    victim = brokers[scenario["crash_broker"]]
    down = False
    executed: list[tuple] = []
    pub_rng = random.Random(scenario["seed"] * 7919 + 13)
    for op in ops:
        kind = op[0]
        if kind == "crash":
            victim.crash()
            down = True
            sim.run_for(2.0)
            continue
        if down:
            owner = (
                scenario["subscribers"][op[1]][0]
                if kind in ("sub", "unsub")
                else scenario["producers"][op[1]][0]
            )
            if owner == scenario["crash_broker"]:
                continue
        executed.append(op)
        if kind == "sub":
            _, index, slot = op
            sub_clients[index].subscribe(scenario["subscribers"][index][1][slot])
        elif kind == "unsub":
            _, index, slot = op
            sub_clients[index].unsubscribe(scenario["subscribers"][index][1][slot])
        elif kind == "adv":
            _, index = op
            pub_clients[index].advertise(scenario["producers"][index][1]["advert"])
        elif kind == "unadv":
            _, index = op
            pub_clients[index].unadvertise(scenario["producers"][index][1]["advert"])
        elif kind == "pub":
            _, index, seq, count = op
            profile = scenario["producers"][index][1]
            for offset in range(count):
                pub_clients[index].publish(
                    random_publication(pub_rng, profile, seq + offset)
                )
        sim.run_for(2.0)
    sim.run_for(8.0)  # peers detect the crash and tear their links down
    victim.recover()
    sim.run_for(12.0)  # peers' probes find it; Resync replays both ways
    _, advertised = _fold_final_state(executed)
    probes = _probe(scenario, sim, sub_clients, pub_clients, advertised)
    detected = sum(b.failure_detector.links_declared_dead for b in brokers)
    return probes, executed, detected


class TestCrashRestartEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_revived_broker_converges_to_rebuilt_overlay(self, mode, seed):
        scenario = generate_scenario(seed)
        probes, executed, detected = run_crash_churn(scenario, MODES[mode])
        assert detected >= 1  # somebody noticed the crash
        rebuilt = run_rebuilt(
            dict(scenario, ops=executed), MODES[mode], with_cut_link=True
        )
        assert probes == rebuilt

    def test_crash_scenarios_actually_exercise_revival(self):
        """Meta-check: across the seeds the crash victim carries clients
        and overlay links, so the equivalence above tests a real rejoin
        rather than a leaf nobody missed."""
        victims_with_subs = 0
        for seed in range(4):
            scenario = generate_scenario(seed)
            victim = scenario["crash_broker"]
            assert 0 <= victim < scenario["n_brokers"]
            if any(broker == victim for broker, _ in scenario["subscribers"]):
                victims_with_subs += 1
        assert victims_with_subs >= 1
