"""Randomized broker-tree equivalence: routing modes and join orders.

The advertisement/subscription interaction and the dynamic-topology
state exchange are only admissible if they never change what clients
receive.  Scenarios here are generated as pure data (a broker tree, a
client population, an op script) and then *executed* once per routing
mode — {naive, indexed, indexed+adv_pruned} — and per construction
order, asserting identical per-client deliveries every time:

* seeded random trees of 3–12 brokers, with interleaved
  subscribe/unsubscribe/advertise/unadvertise/publish churn and
  mid-run ``connect()`` of fresh subtrees (producers advertise before
  publishing — the Siena contract advertisement pruning assumes);
* the same final topology assembled edge-by-edge in shuffled orders
  after all subscriptions/advertisements are already registered, which
  must deliver exactly like the tree that existed from the start.

Deterministic tests below pin the individual mechanisms: connect-time
state exchange, disconnect retraction, pruned forwarding, deferred
re-propagation when an advertisement arrives, and symmetric retraction
when one leaves.
"""

import random

import pytest

from repro.events.broker import BrokerNode, SienaClient
from repro.events.filters import Constraint, Filter, Op, eq, exists, gt, type_is
from repro.events.model import make_event
from repro.net import FixedLatency, Network, Position
from repro.simulation import Simulator
from tests.helpers import control_plane_state

MODES = {
    "naive": dict(indexed=False),
    "indexed": dict(indexed=True),
    "adv_pruned": dict(indexed=True, adv_pruned=True),
    "dht": dict(indexed=True, routing="dht"),
    # Partitioned matching (repro.events.sharding): same broker, but the
    # subscription index is split across 3 subject shards — deliveries
    # must stay identical to the monolithic index.
    "sharded": dict(indexed=True, shards=3),
}

EVENT_TYPES = ["presence", "weather", "rfid", "gps"]
ROOMS = ["lab", "cafe", "atrium", "hall"]
USERS = [f"user{i}" for i in range(6)]


# ----------------------------------------------------------------------
# Scenario generation: pure data, shared verbatim by every mode.
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


def generate_scenario(seed: int) -> dict:
    """A broker tree, a client population, and an op script.

    ``edges`` maps child → parent; ``late_edges`` lists the edges whose
    ``connect()`` happens mid-script (their subtrees start as separate
    components).  Producers publish only while advertised, so every
    publication is covered by a live advertisement on its path.
    """
    rng = random.Random(seed)
    n_brokers = rng.randint(3, 12)
    edges = [(child, rng.randrange(child)) for child in range(1, n_brokers)]
    late_roots = {
        child
        for child, _ in rng.sample(edges, k=rng.randint(0, min(3, len(edges))))
    }
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
    # Mid-run joins: each late edge connects at a random point in the
    # second half of the script (fresh subtrees join after churn began).
    for child in sorted(late_roots):
        parent = dict(edges)[child]
        position = rng.randint(len(ops) // 2, len(ops))
        ops.insert(position, ("connect", child, parent))
    return {
        "seed": seed,
        "n_brokers": n_brokers,
        "edges": edges,
        "late_roots": late_roots,
        "subscribers": subscribers,
        "producers": producers,
        "ops": ops,
    }


def _in_late_component(child: int, edges: dict[int, int], late_roots: set[int]) -> bool:
    """Does the path from ``child`` to the root cross a late edge?"""
    while child != 0:
        if child in late_roots:
            return True
        child = edges[child]
    return False


def _delivery_key(notification):
    return tuple(sorted((k, repr(v)) for k, v in notification.items()))


def run_scenario(scenario: dict, mode_kwargs: dict) -> list[list]:
    sim = Simulator(seed=11)
    network = Network(sim, latency=FixedLatency(0.01))
    brokers = [
        BrokerNode(sim, network, Position(1.0, float(i)), **mode_kwargs)
        for i in range(scenario["n_brokers"])
    ]
    edges = dict(scenario["edges"])
    for child, parent in scenario["edges"]:
        if child not in scenario["late_roots"]:
            brokers[child].connect(brokers[parent])
    sub_clients = [
        SienaClient(sim, network, Position(2.0, float(i)), brokers[broker])
        for i, (broker, _) in enumerate(scenario["subscribers"])
    ]
    pub_clients = [
        SienaClient(sim, network, Position(3.0, float(i)), brokers[broker])
        for i, (broker, _) in enumerate(scenario["producers"])
    ]
    pub_rng = random.Random(scenario["seed"] * 7919 + 13)
    for op in scenario["ops"]:
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
        elif kind == "connect":
            _, child, parent = op
            brokers[child].connect(brokers[parent])
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
    subscribe_msgs = sum(b.control_counts["Subscribe"] for b in brokers)
    return {
        "deliveries": deliveries,
        "duplicates_ok": duplicates_ok,
        "subscribe_msgs": subscribe_msgs,
        "control_plane": control_plane_state(brokers),
    }


class TestRandomizedTreeEquivalence:
    @pytest.mark.parametrize("seed", range(34))
    def test_all_modes_deliver_identically_under_churn(self, seed):
        scenario = generate_scenario(seed)
        results = {name: run_scenario(scenario, kw) for name, kw in MODES.items()}
        assert results["indexed"]["deliveries"] == results["naive"]["deliveries"]
        # The table implementation changes no routing decision either.
        assert (
            results["indexed"]["control_plane"] == results["naive"]["control_plane"]
        )
        assert results["adv_pruned"]["deliveries"] == results["naive"]["deliveries"]
        assert results["dht"]["deliveries"] == results["naive"]["deliveries"]
        for name, result in results.items():
            assert result["duplicates_ok"], name
        # Pruning must never forward *more* subscription traffic.
        assert (
            results["adv_pruned"]["subscribe_msgs"]
            <= results["indexed"]["subscribe_msgs"]
        )

    def test_scenarios_exercise_late_joins_and_deliveries(self):
        """Meta-check: the generator actually produces mid-run connects,
        unsubscribes, unadvertises, and non-empty deliveries."""
        kinds = set()
        delivered = 0
        saved = 0
        for seed in range(34):
            scenario = generate_scenario(seed)
            kinds |= {op[0] for op in scenario["ops"]}
            result = run_scenario(scenario, MODES["indexed"])
            delivered += sum(len(d) for d in result["deliveries"])
            pruned = run_scenario(scenario, MODES["adv_pruned"])
            saved += result["subscribe_msgs"] - pruned["subscribe_msgs"]
        assert kinds == {"sub", "unsub", "adv", "unadv", "pub", "connect"}
        assert delivered > 100
        assert saved > 0  # pruning saves Subscribe traffic somewhere


class TestJoinOrderIndependence:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_assembly_order_does_not_change_deliveries(self, seed, mode):
        scenario = generate_scenario(seed + 400)
        # Strip connects: this test controls assembly itself.
        setup_ops = [
            op for op in scenario["ops"] if op[0] in ("sub", "adv")
        ]
        publish_ops = [op for op in scenario["ops"] if op[0] == "pub"]
        order_rng = random.Random(seed)

        def run(edge_order, pre_connected):
            sim = Simulator(seed=11)
            network = Network(sim, latency=FixedLatency(0.01))
            brokers = [
                BrokerNode(sim, network, Position(1.0, float(i)), **MODES[mode])
                for i in range(scenario["n_brokers"])
            ]
            if pre_connected:
                for child, parent in edge_order:
                    brokers[child].connect(brokers[parent])
            sub_clients = [
                SienaClient(sim, network, Position(2.0, float(i)), brokers[broker])
                for i, (broker, _) in enumerate(scenario["subscribers"])
            ]
            pub_clients = [
                SienaClient(sim, network, Position(3.0, float(i)), brokers[broker])
                for i, (broker, _) in enumerate(scenario["producers"])
            ]
            for op in setup_ops:
                if op[0] == "sub":
                    _, index, slot = op
                    sub_clients[index].subscribe(
                        scenario["subscribers"][index][1][slot]
                    )
                else:
                    _, index = op
                    pub_clients[index].advertise(
                        scenario["producers"][index][1]["advert"]
                    )
                sim.run_for(2.0)
            if not pre_connected:
                for child, parent in edge_order:
                    brokers[child].connect(brokers[parent])
                    sim.run_for(2.0)
            pub_rng = random.Random(scenario["seed"] * 7919 + 13)
            for _, index, seq, count in publish_ops:
                profile = scenario["producers"][index][1]
                for offset in range(count):
                    pub_clients[index].publish(
                        random_publication(pub_rng, profile, seq + offset)
                    )
                sim.run_for(2.0)
            sim.run_for(5.0)
            return [
                sorted(_delivery_key(n) for _, n in client.received)
                for client in sub_clients + pub_clients
            ]

        baseline = run(list(scenario["edges"]), pre_connected=True)
        for _ in range(2):
            shuffled = list(scenario["edges"])
            order_rng.shuffle(shuffled)
            assert run(shuffled, pre_connected=False) == baseline


class TestDisconnectUnderAdvPrunedChurn:
    """``disconnect()`` must retract exactly the routing state the dead
    link justified — in particular the subscriptions an advertisement
    arriving over that link had unblocked.

    The pin is a brute-force rebuild: after churning a tree through the
    whole op script and then disconnecting a random edge, the survivors'
    routing behaviour must be indistinguishable from a fresh overlay
    built directly in the post-disconnect topology with only the
    still-active subscriptions and advertisements registered.  Both
    worlds then receive an identical probe barrage and must deliver
    identically, and the churned world's forwarded subscriptions must
    all still be advertisement-justified.
    """

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("mode", ["indexed", "adv_pruned"])
    def test_probe_deliveries_match_rebuilt_topology(self, seed, mode):
        scenario = generate_scenario(seed + 700)
        ops = [op for op in scenario["ops"] if op[0] != "connect"]
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
        cut_rng = random.Random(seed)
        cut = cut_rng.choice(scenario["edges"])

        def probe_run(churned: bool):
            sim = Simulator(seed=11)
            network = Network(sim, latency=FixedLatency(0.01))
            brokers = [
                BrokerNode(sim, network, Position(1.0, float(i)), **MODES[mode])
                for i in range(scenario["n_brokers"])
            ]
            for child, parent in scenario["edges"]:
                if churned or (child, parent) != cut:
                    brokers[child].connect(brokers[parent])
            sub_clients = [
                SienaClient(sim, network, Position(2.0, float(i)), brokers[broker])
                for i, (broker, _) in enumerate(scenario["subscribers"])
            ]
            pub_clients = [
                SienaClient(sim, network, Position(3.0, float(i)), brokers[broker])
                for i, (broker, _) in enumerate(scenario["producers"])
            ]
            pub_rng = random.Random(scenario["seed"] * 7919 + 13)
            if churned:
                for op in ops:
                    kind = op[0]
                    if kind == "sub":
                        _, index, slot = op
                        sub_clients[index].subscribe(
                            scenario["subscribers"][index][1][slot]
                        )
                    elif kind == "unsub":
                        _, index, slot = op
                        sub_clients[index].unsubscribe(
                            scenario["subscribers"][index][1][slot]
                        )
                    elif kind == "adv":
                        _, index = op
                        pub_clients[index].advertise(
                            scenario["producers"][index][1]["advert"]
                        )
                    elif kind == "unadv":
                        _, index = op
                        pub_clients[index].unadvertise(
                            scenario["producers"][index][1]["advert"]
                        )
                    elif kind == "pub":
                        _, index, seq, count = op
                        profile = scenario["producers"][index][1]
                        for offset in range(count):
                            pub_clients[index].publish(
                                random_publication(pub_rng, profile, seq + offset)
                            )
                    sim.run_for(2.0)
                brokers[cut[0]].disconnect(brokers[cut[1]])
            else:
                # Brute-force rebuild: only the surviving state, applied
                # in canonical order to the post-disconnect topology.
                for index, slot in sorted(active):
                    sub_clients[index].subscribe(
                        scenario["subscribers"][index][1][slot]
                    )
                    sim.run_for(2.0)
                for index in sorted(advertised):
                    pub_clients[index].advertise(
                        scenario["producers"][index][1]["advert"]
                    )
                    sim.run_for(2.0)
            sim.run_for(5.0)
            marks = [len(c.received) for c in sub_clients + pub_clients]
            probe_rng = random.Random(seed * 31 + 7)
            for index in sorted(advertised):
                profile = scenario["producers"][index][1]
                for extra in range(3):
                    pub_clients[index].publish(
                        random_publication(probe_rng, profile, 9000 + extra)
                    )
                sim.run_for(2.0)
            sim.run_for(5.0)
            probes = [
                sorted(
                    _delivery_key(n)
                    for _, n in client.received[mark:]
                )
                for mark, client in zip(marks, sub_clients + pub_clients)
            ]
            return probes, brokers

        churned_probes, churned_brokers = probe_run(churned=True)
        rebuilt_probes, _ = probe_run(churned=False)
        assert churned_probes == rebuilt_probes
        if mode == "adv_pruned":
            # Every subscription still forwarded over a surviving link
            # must still be justified by an advertisement received over
            # it — the dead link's justifications were retracted.
            for broker in churned_brokers:
                for neighbour, filters in broker.forwarded.items():
                    for filter in filters:
                        assert broker._adv_intersects(neighbour, filter), (
                            neighbour,
                            filter,
                        )


# ----------------------------------------------------------------------
# Deterministic mechanism tests
# ----------------------------------------------------------------------
def two_brokers(**kwargs):
    sim = Simulator(seed=0)
    network = Network(sim, latency=FixedLatency(0.01))
    a = BrokerNode(sim, network, Position(0.0, 0.0), **kwargs)
    b = BrokerNode(sim, network, Position(0.0, 1.0), **kwargs)
    return sim, network, a, b


class TestDynamicTopology:
    @pytest.mark.parametrize("indexed", [True, False])
    def test_connect_exchanges_existing_state(self, indexed):
        sim, network, a, b = two_brokers(indexed=indexed)
        sub = SienaClient(sim, network, Position(1.0, 0.0), a)
        pub = SienaClient(sim, network, Position(1.0, 1.0), b)
        sub.subscribe(Filter(type_is("weather")))
        pub.advertise(Filter(type_is("weather")))
        sim.run_for(1.0)
        pub.publish(make_event("weather", n=1))
        sim.run_for(1.0)
        assert sub.received == []  # separate components
        a.connect(b)
        sim.run_for(1.0)
        # The late join forwarded the pre-existing subscription and
        # advertisement both ways.
        assert a.addr in b.subs_by_source
        assert a.adverts_by_source.get(b.addr) == [Filter(type_is("weather"))]
        pub.publish(make_event("weather", n=2))
        sim.run_for(1.0)
        assert [n["n"] for _, n in sub.received] == [2]

    @pytest.mark.parametrize("indexed", [True, False])
    def test_disconnect_withdraws_state_and_reconnect_restores(self, indexed):
        sim, network, a, b = two_brokers(indexed=indexed)
        a.connect(b)
        sub = SienaClient(sim, network, Position(1.0, 0.0), a)
        pub = SienaClient(sim, network, Position(1.0, 1.0), b)
        sub.subscribe(Filter(type_is("tick")))
        sim.run_for(1.0)
        assert a.addr in b.subs_by_source
        a.disconnect(b)
        sim.run_for(1.0)
        assert a.addr not in b.subs_by_source
        assert b.addr not in a.forwarded
        pub.publish(make_event("tick", n=1))
        sim.run_for(1.0)
        assert sub.received == []
        a.connect(b)
        sim.run_for(1.0)
        pub.publish(make_event("tick", n=2))
        sim.run_for(1.0)
        assert [n["n"] for _, n in sub.received] == [2]

    def test_disconnect_propagates_retractions_onward(self, ):
        sim = Simulator(seed=0)
        network = Network(sim, latency=FixedLatency(0.01))
        chain = [BrokerNode(sim, network, Position(0.0, float(i))) for i in range(3)]
        chain[1].connect(chain[0])
        chain[2].connect(chain[1])
        sub = SienaClient(sim, network, Position(1.0, 2.0), chain[2])
        sub.subscribe(Filter(type_is("x")))
        sim.run_for(1.0)
        assert chain[1].addr in chain[0].subs_by_source
        chain[2].disconnect(chain[1])
        sim.run_for(1.0)
        # The middle broker withdrew the subtree's subscription upstream.
        assert chain[1].addr not in chain[0].subs_by_source


class TestAdvertisementPruning:
    def test_subscription_withheld_until_producer_advertises(self):
        sim, network, a, b = two_brokers(adv_pruned=True)
        a.connect(b)
        sub = SienaClient(sim, network, Position(1.0, 0.0), a)
        pub = SienaClient(sim, network, Position(1.0, 1.0), b)
        sub.subscribe(Filter(type_is("weather")))
        sim.run_for(1.0)
        # No producer anywhere: the subscription stays local.
        assert a.forwarded[b.addr] == []
        assert a.addr not in b.subs_by_source
        pub.advertise(Filter(type_is("weather")))
        sim.run_for(1.0)
        # Deferred re-propagation kicked in.
        assert a.forwarded[b.addr] == [Filter(type_is("weather"))]
        pub.publish(make_event("weather", n=1))
        sim.run_for(1.0)
        assert [n["n"] for _, n in sub.received] == [1]

    def test_non_intersecting_advertisement_does_not_unblock(self):
        sim, network, a, b = two_brokers(adv_pruned=True)
        a.connect(b)
        sub = SienaClient(sim, network, Position(1.0, 0.0), a)
        pub = SienaClient(sim, network, Position(1.0, 1.0), b)
        sub.subscribe(Filter(type_is("weather")))
        pub.advertise(Filter(type_is("rfid")))
        sim.run_for(1.0)
        assert a.forwarded[b.addr] == []
        # And publications outside the subscription never travel.
        processed = b.notifications_processed
        pub.publish(make_event("rfid", n=1))
        sim.run_for(1.0)
        assert b.notifications_processed == processed + 1
        assert a.notifications_processed == 0

    def test_unadvertise_retracts_forwarded_subscription(self):
        sim, network, a, b = two_brokers(adv_pruned=True)
        a.connect(b)
        sub = SienaClient(sim, network, Position(1.0, 0.0), a)
        pub = SienaClient(sim, network, Position(1.0, 1.0), b)
        weather = Filter(type_is("weather"))
        sub.subscribe(weather)
        pub.advertise(weather)
        sim.run_for(1.0)
        assert a.forwarded[b.addr] == [weather]
        pub.unadvertise(weather)
        sim.run_for(1.0)
        assert a.forwarded[b.addr] == []
        assert a.addr not in b.subs_by_source
        # A second advertisement cycle restores delivery.
        pub.advertise(weather)
        sim.run_for(1.0)
        pub.publish(make_event("weather", n=1))
        sim.run_for(1.0)
        assert [n["n"] for _, n in sub.received] == [1]

    def test_covering_advertisement_keeps_subscription_forwarded(self):
        sim, network, a, b = two_brokers(adv_pruned=True)
        a.connect(b)
        sub = SienaClient(sim, network, Position(1.0, 0.0), a)
        pub = SienaClient(sim, network, Position(1.0, 1.0), b)
        weather = Filter(type_is("weather"))
        broad = Filter(Constraint("type", Op.EXISTS))
        sub.subscribe(weather)
        pub.advertise(broad)
        sim.run_for(1.0)
        pub.advertise(weather)
        sim.run_for(1.0)
        # Withdrawing the narrow advert changes nothing: the broad one
        # still justifies the subscription.
        pub.unadvertise(weather)
        sim.run_for(1.0)
        assert a.forwarded[b.addr] == [weather]
        pub.publish(make_event("weather", n=1))
        sim.run_for(1.0)
        assert [n["n"] for _, n in sub.received] == [1]

    def test_late_connect_defers_then_unblocks(self):
        """A subscription synced over a fresh link stays pruned until the
        other side's advertisements arrive — then flows."""
        sim, network, a, b = two_brokers(adv_pruned=True)
        sub = SienaClient(sim, network, Position(1.0, 0.0), a)
        pub = SienaClient(sim, network, Position(1.0, 1.0), b)
        sub.subscribe(Filter(type_is("weather")))
        pub.advertise(Filter(type_is("weather")))
        sim.run_for(1.0)
        a.connect(b)
        sim.run_for(1.0)
        assert a.forwarded[b.addr] == [Filter(type_is("weather"))]
        pub.publish(make_event("weather", n=1))
        sim.run_for(1.0)
        assert [n["n"] for _, n in sub.received] == [1]

    def test_pruning_reduces_subscribe_traffic_on_producer_sparse_chain(self):
        def run(adv_pruned):
            sim = Simulator(seed=0)
            network = Network(sim, latency=FixedLatency(0.01))
            chain = [
                BrokerNode(
                    sim, network, Position(0.0, float(i)), adv_pruned=adv_pruned
                )
                for i in range(6)
            ]
            for i in range(1, 6):
                chain[i].connect(chain[i - 1])
            pub = SienaClient(sim, network, Position(1.0, 0.0), chain[0])
            pub.advertise(Filter(type_is("weather")))
            sim.run_for(1.0)
            subs = []
            for i, broker in enumerate(chain):
                client = SienaClient(sim, network, Position(2.0, float(i)), broker)
                client.subscribe(Filter(type_is("weather"), eq("slot", i)))
                client.subscribe(Filter(type_is("rfid"), eq("slot", i)))
                subs.append(client)
            sim.run_for(2.0)
            pub.publish(make_event("weather", slot=3))
            sim.run_for(2.0)
            total = sum(b.control_counts["Subscribe"] for b in chain)
            hits = sum(len(c.received) for c in subs)
            return total, hits

        flooded, flooded_hits = run(adv_pruned=False)
        pruned, pruned_hits = run(adv_pruned=True)
        assert pruned_hits == flooded_hits == 1
        # The rfid subscriptions (no producer anywhere) and the weather
        # ones heading away from the producer all stay local.
        assert pruned < flooded / 2


class TestAdvertOnFirstPublish:
    """The ``advert_on_first_publish`` compatibility knob.

    Advertisement pruning assumes producers advertise before they
    publish.  The knob lets a broker front legacy producers that never
    do: the first publication from an attached client synthesises a
    type-equality advertisement (or an attribute-existence skeleton) on
    the producer's behalf, so subscriptions get pulled toward it and
    every *subsequent* publication routes normally.  The first
    publication itself still races the synthesised advertisement
    outward and may only be delivered locally — exactly the legacy
    semantics the knob promises, no better.
    """

    def _chain(self, n, **kwargs):
        sim = Simulator(seed=0)
        network = Network(sim, latency=FixedLatency(0.01))
        brokers = [
            BrokerNode(sim, network, Position(0.0, float(i)), **kwargs)
            for i in range(n)
        ]
        for i in range(1, n):
            brokers[i].connect(brokers[i - 1])
        return sim, network, brokers

    def test_unadvertised_producer_heals_after_first_publish(self):
        sim, network, brokers = self._chain(
            3, indexed=True, adv_pruned=True, advert_on_first_publish=True
        )
        remote = SienaClient(sim, network, Position(1.0, 2.0), brokers[2])
        local = SienaClient(sim, network, Position(1.0, 0.0), brokers[0])
        pub = SienaClient(sim, network, Position(2.0, 0.0), brokers[0])
        remote.subscribe(Filter(type_is("weather")))
        local.subscribe(Filter(type_is("weather")))
        sim.run_for(2.0)
        # No advertisement anywhere: the remote subscription stayed home.
        assert brokers[0].subs_by_source.get(brokers[1].addr) is None
        pub.publish(make_event("weather", n=1))
        sim.run_for(2.0)
        pub.publish(make_event("weather", n=2))
        sim.run_for(2.0)
        # First hop synthesised eq("type", "weather") and flooded it.
        assert Filter(eq("type", "weather")) in (
            brokers[2].adverts_by_source.get(brokers[1].addr) or []
        )
        # The local subscriber saw everything; the remote one joined the
        # stream from the second publication on.
        assert [n["n"] for _, n in local.received] == [1, 2]
        assert [n["n"] for _, n in remote.received] == [2]

    def test_without_knob_unadvertised_producer_stays_dark(self):
        sim, network, brokers = self._chain(3, indexed=True, adv_pruned=True)
        remote = SienaClient(sim, network, Position(1.0, 2.0), brokers[2])
        pub = SienaClient(sim, network, Position(2.0, 0.0), brokers[0])
        remote.subscribe(Filter(type_is("weather")))
        sim.run_for(2.0)
        for n in range(3):
            pub.publish(make_event("weather", n=n))
            sim.run_for(2.0)
        assert remote.received == []

    def test_advert_synthesised_once_per_producer_and_shape(self):
        sim, network, brokers = self._chain(
            2, indexed=True, adv_pruned=True, advert_on_first_publish=True
        )
        pub = SienaClient(sim, network, Position(2.0, 0.0), brokers[0])
        for n in range(5):
            pub.publish(make_event("weather", n=n))
        sim.run_for(2.0)
        # control_counts tallies *sent* control traffic: the first hop
        # (brokers[0]) advertises toward its neighbour exactly once.
        assert brokers[0].control_counts.get("Advertise", 0) == 1
        # A second attached producer of the same type advertises again —
        # the dedup key is (producer, shape), not the shape alone.
        pub2 = SienaClient(sim, network, Position(2.0, 1.0), brokers[0])
        pub2.publish(make_event("weather", n=99))
        sim.run_for(2.0)
        assert len(brokers[0]._auto_adverts) == 2

    def test_untyped_publication_falls_back_to_existence_skeleton(self):
        sim, network, brokers = self._chain(
            2, indexed=True, adv_pruned=True, advert_on_first_publish=True
        )
        remote = SienaClient(sim, network, Position(1.0, 1.0), brokers[1])
        pub = SienaClient(sim, network, Position(2.0, 0.0), brokers[0])
        remote.subscribe(Filter(gt("x", 0)))
        sim.run_for(2.0)
        pub.publish(make_event("weather", x=1))
        sim.run_for(2.0)
        pub.publish(make_event("weather", x=2))
        sim.run_for(2.0)
        # make_event stamps a "type" attribute, so this one synthesises
        # the type filter; a raw typeless notification takes the
        # existence-skeleton branch instead.
        from repro.events.model import Notification

        pub.publish(Notification({"x": 5, "y": 1}))
        sim.run_for(2.0)
        pub.publish(Notification({"x": 6, "y": 1}))
        sim.run_for(2.0)
        stored = brokers[1].adverts_by_source.get(brokers[0].addr) or []
        assert Filter(exists("x"), exists("y")) in stored
        assert sorted(n["x"] for _, n in remote.received) == [2, 5, 6]

    def test_remote_publications_do_not_synthesise(self):
        sim, network, brokers = self._chain(
            2, indexed=True, adv_pruned=True, advert_on_first_publish=True
        )
        pub = SienaClient(sim, network, Position(2.0, 1.0), brokers[1])
        pub.publish(make_event("weather", n=1))
        sim.run_for(2.0)
        # brokers[0] received the publication from its *neighbour*, not
        # from an attached client: it must not advertise on its behalf.
        # The first hop (brokers[1]) synthesised and forwarded instead.
        assert not brokers[0]._auto_adverts
        assert len(brokers[1]._auto_adverts) == 1
        assert Filter(eq("type", "weather")) in (
            brokers[0].adverts_by_source.get(brokers[1].addr) or []
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_scenario_deliveries_unchanged_for_advertising_producers(self, seed):
        """For producers that *do* advertise (the scenario contract),
        the knob only adds redundant routing state — deliveries must be
        byte-identical to every other mode."""
        scenario = generate_scenario(seed)
        baseline = run_scenario(scenario, MODES["naive"])
        with_knob = run_scenario(
            scenario,
            dict(indexed=True, adv_pruned=True, advert_on_first_publish=True),
        )
        assert with_knob["deliveries"] == baseline["deliveries"]
        assert with_knob["duplicates_ok"]
