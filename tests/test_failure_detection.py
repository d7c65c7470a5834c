"""Heartbeat failure detection: self-healing overlays end to end.

PR 4's mesh survived link kills only when the caller invoked
``disconnect()`` by hand; the :class:`~repro.events.failure.FailureDetector`
closes the loop.  Deterministic tests pin the mechanisms — detection
after ``miss_limit`` silent intervals, one-sided teardown, revival on the
first returning heartbeat, full state resync after a heal (including the
asymmetric case where only one side ever suspected), tolerance of lossy
but live links, and administrative ``disconnect()`` never being mistaken
for a failure.

The randomized suite is the acceptance pin: kill a random redundant link
*at the network level* mid-churn (nobody calls ``disconnect()``) and the
detector-driven overlay must converge to the routing behaviour of an
overlay hand-rebuilt in the post-kill topology; heal the link and it
must converge back to the behaviour of the intact mesh — across seeds ×
{naive, indexed, adv_pruned}, measured by per-client probe deliveries.
"""

import random

import pytest

from repro.events.broker import BrokerNode, SienaClient
from repro.events.failure import (
    FailureDetector,
    HeartbeatConfig,
    install_detectors,
)
from repro.events.filters import Filter, type_is
from repro.events.model import make_event
from repro.net import FixedLatency, Network, Position
from repro.simulation import Simulator

from tests.test_broker_mesh_equivalence import (
    MODES,
    _build_world,
    _fold_final_state,
    _probe,
    generate_scenario,
    random_publication,
    run_rebuilt,
)

FAST = HeartbeatConfig(interval=0.25, miss_limit=3)


def linked_pair(config=FAST, **broker_kwargs):
    sim = Simulator(seed=0)
    network = Network(sim, latency=FixedLatency(0.01))
    a = BrokerNode(sim, network, Position(0.0, 0.0), **broker_kwargs)
    b = BrokerNode(sim, network, Position(0.0, 1.0), **broker_kwargs)
    a.connect(b)
    detectors = install_detectors([a, b], config)
    return sim, network, a, b, detectors


class TestDetection:
    def test_link_failure_detected_and_state_withdrawn(self):
        sim, network, a, b, (da, db) = linked_pair()
        sub = SienaClient(sim, network, Position(1.0, 0.0), a)
        sub.subscribe(Filter(type_is("t")))
        sim.run_for(2.0)
        assert a.addr in b.subs_by_source  # forwarded before the failure
        network.fail_link(a.addr, b.addr)
        sim.run_for(5.0)
        # Both detectors fired, both sides tore the link down one-sidedly
        # and withdrew the state it carried — no caller ever intervened.
        assert da.links_declared_dead == 1 and db.links_declared_dead == 1
        assert b.addr not in a.neighbours and a.addr not in b.neighbours
        assert a.addr not in b.subs_by_source
        assert b.addr not in a.forwarded
        assert da.suspected == {b.addr} and db.suspected == {a.addr}

    def test_detection_waits_for_the_full_miss_window(self):
        sim, network, a, b, (da, db) = linked_pair()
        sim.run_for(2.0)
        network.fail_link(a.addr, b.addr)
        # Inside the miss window nothing is suspected yet.
        sim.run_for(FAST.interval * (FAST.miss_limit - 1))
        assert da.links_declared_dead == 0
        assert b.addr in a.neighbours

    def test_heal_restores_routing_and_resyncs_outage_state(self):
        sim, network, a, b, (da, db) = linked_pair()
        sub = SienaClient(sim, network, Position(1.0, 0.0), a)
        pub = SienaClient(sim, network, Position(1.0, 1.0), b)
        pub.advertise(Filter(type_is("t")))
        sub.subscribe(Filter(type_is("t")))
        sim.run_for(2.0)
        network.fail_link(a.addr, b.addr)
        sim.run_for(5.0)
        assert b.addr not in a.neighbours
        # State changes *during* the outage only reach the local side...
        late = Filter(type_is("late"))
        sub.subscribe(late)
        pub.advertise(Filter(type_is("late")))
        sim.run_for(2.0)
        assert a.addr not in b.subs_by_source
        network.heal_link(a.addr, b.addr)
        sim.run_for(5.0)
        # ...until the revived heartbeats trigger the re-join + resync.
        assert da.links_restored == 1 and db.links_restored == 1
        assert b.addr in a.neighbours and a.addr in b.neighbours
        pub.publish(make_event("t", n=1))
        pub.publish(make_event("late", n=2))
        sim.run_for(2.0)
        assert sorted(n["n"] for _, n in sub.received) == [1, 2]

    def test_asymmetric_suspicion_still_resyncs_both_sides(self):
        """Only one side's detector fires (the other's timeout is huge);
        the healed link must still converge — the Resync makes the
        never-suspecting side replay the state its bookkeeping says the
        dropped side already has."""
        sim = Simulator(seed=0)
        network = Network(sim, latency=FixedLatency(0.01))
        a = BrokerNode(sim, network, Position(0.0, 0.0))
        b = BrokerNode(sim, network, Position(0.0, 1.0))
        a.connect(b)
        da = FailureDetector(a, FAST)
        db = FailureDetector(b, HeartbeatConfig(interval=0.25, miss_limit=10_000))
        sub_a = SienaClient(sim, network, Position(1.0, 0.0), a)
        pub_b = SienaClient(sim, network, Position(1.0, 1.0), b)
        pub_b.advertise(Filter(type_is("t")))
        sub_a.subscribe(Filter(type_is("t")))
        sim.run_for(2.0)
        network.fail_link(a.addr, b.addr)
        sim.run_for(5.0)
        assert da.links_declared_dead == 1 and db.links_declared_dead == 0
        assert b.addr not in a.neighbours      # a dropped the advert state
        assert a.addr in b.neighbours          # b never noticed
        network.heal_link(a.addr, b.addr)
        sim.run_for(5.0)
        assert da.links_restored == 1
        # a recovered b's advertisement via the Resync replay, so routing
        # works end to end again.
        pub_b.publish(make_event("t", n=1))
        sim.run_for(2.0)
        assert [n["n"] for _, n in sub_a.received] == [1]

    def test_asymmetric_outage_reconciles_removals(self):
        """State *retracted* during an asymmetric outage (the retraction
        died with the link) must not survive the heal as a phantom
        routing entry on the side whose detector never fired."""
        sim = Simulator(seed=0)
        network = Network(sim, latency=FixedLatency(0.01))
        a = BrokerNode(sim, network, Position(0.0, 0.0))
        b = BrokerNode(sim, network, Position(0.0, 1.0))
        a.connect(b)
        FailureDetector(a, FAST)
        FailureDetector(b, HeartbeatConfig(interval=0.25, miss_limit=10_000))
        sub_a = SienaClient(sim, network, Position(1.0, 0.0), a)
        pub_b = SienaClient(sim, network, Position(1.0, 1.0), b)
        filter = Filter(type_is("t"))
        pub_b.advertise(filter)
        sub_a.subscribe(filter)
        sim.run_for(2.0)
        assert a.addr in b.subs_by_source
        network.fail_link(a.addr, b.addr)
        sim.run_for(5.0)  # only a's detector fires
        sub_a.unsubscribe(filter)  # the retraction dies with the link
        sim.run_for(2.0)
        network.heal_link(a.addr, b.addr)
        sim.run_for(5.0)
        # The Resync made b reconcile: no phantom subscription survives,
        # so b never forwards matching traffic toward a again.
        assert all(
            s != filter for s in b.subs_by_source.get(a.addr, [])
        )
        pub_b.publish(make_event("t", n=1))
        sim.run_for(2.0)
        assert sub_a.received == []

    def test_intentional_disconnect_is_not_a_failure(self):
        sim, network, a, b, (da, db) = linked_pair()
        sim.run_for(2.0)
        a.disconnect(b)
        sim.run_for(10.0)
        # No suspicion, no probing, and crucially no auto-reconnect.
        assert da.links_declared_dead == 0 and db.links_declared_dead == 0
        assert da.suspected == frozenset() and db.suspected == frozenset()
        assert b.addr not in a.neighbours and a.addr not in b.neighbours

    def test_lossy_but_live_link_survives_the_miss_threshold(self):
        """A flaky link dropping a fraction of its traffic must not trip
        a detector whose miss window outlasts plausible loss runs — and
        even if a pathological run ever tripped one, the next heartbeat
        through heals it, so the link always converges to up."""
        sim, network, a, b, (da, db) = linked_pair(
            config=HeartbeatConfig(interval=0.25, miss_limit=6)
        )
        network.set_link_loss(a.addr, b.addr, 0.15)
        sim.run_for(60.0)
        assert da.links_declared_dead == 0 and db.links_declared_dead == 0
        assert b.addr in a.neighbours and a.addr in b.neighbours

    def test_connect_repairs_a_half_dropped_link(self):
        """One side tore the link down one-sidedly and an administrative
        connect() repairs it: the side that kept the link must replay
        its state (its forwarding bookkeeping is stale), or deliveries
        stay silently lost forever."""
        sim = Simulator(seed=0)
        network = Network(sim, latency=FixedLatency(0.01))
        a = BrokerNode(sim, network, Position(0.0, 0.0))
        b = BrokerNode(sim, network, Position(0.0, 1.0))
        a.connect(b)
        sub = SienaClient(sim, network, Position(1.0, 0.0), a)
        pub = SienaClient(sim, network, Position(1.0, 1.0), b)
        sub.subscribe(Filter(type_is("t")))
        sim.run_for(2.0)
        assert a.addr in b.subs_by_source
        b.drop_link(a.addr)  # b forgets a's state; a never notices
        sim.run_for(2.0)
        assert a.addr not in b.subs_by_source
        assert b.addr in a.neighbours  # the half-dropped state
        a.connect(b)
        sim.run_for(2.0)
        assert a.addr in b.subs_by_source  # a replayed despite its stale books
        pub.publish(make_event("t", n=1))
        sim.run_for(2.0)
        assert [n["n"] for _, n in sub.received] == [1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HeartbeatConfig(interval=0.0)
        with pytest.raises(ValueError):
            HeartbeatConfig(miss_limit=0)
        with pytest.raises(ValueError):
            HeartbeatConfig(grace=-1.0)
        with pytest.raises(ValueError):
            HeartbeatConfig(probe_backoff=0.5)
        with pytest.raises(ValueError):
            HeartbeatConfig(probe_cap=0.0)
        with pytest.raises(ValueError):
            HeartbeatConfig(flap_threshold=0)
        with pytest.raises(ValueError):
            HeartbeatConfig(flap_window=-1.0)
        with pytest.raises(ValueError):
            HeartbeatConfig(hold_down=0.0)

    def test_stray_heartbeat_after_disconnect_leaves_no_state(self):
        """A beat racing an administrative disconnect must not re-create
        monitoring state for a link the detector was told to forget."""
        sim, network, a, b, (da, db) = linked_pair()
        sim.run_for(2.0)
        a.disconnect(b)
        da.on_heartbeat(b.addr, None)  # the racing beat arrives late
        assert b.addr not in da._last_seen
        assert da.suspected == frozenset()

    def test_connect_after_detector_attach_is_watched(self):
        sim = Simulator(seed=0)
        network = Network(sim, latency=FixedLatency(0.01))
        a = BrokerNode(sim, network, Position(0.0, 0.0))
        b = BrokerNode(sim, network, Position(0.0, 1.0))
        da = FailureDetector(a, FAST)
        db = FailureDetector(b, FAST)
        a.connect(b)
        sim.run_for(2.0)
        network.fail_link(a.addr, b.addr)
        sim.run_for(5.0)
        assert da.links_declared_dead == 1 and db.links_declared_dead == 1


class TestProbeBackoff:
    def test_suspected_link_probe_cost_is_bounded(self):
        """A permanently-dead neighbour must not be beaten every interval
        forever: the capped exponential backoff settles at one probe per
        ``probe_cap`` intervals."""
        sim, network, a, b, (da, db) = linked_pair()
        sim.run_for(2.0)
        network.fail_link(a.addr, b.addr)
        sim.run_for(60.0)
        assert da.links_declared_dead == 1 and db.links_declared_dead == 1
        # Full-rate probing would have cost ~240 probes per side over
        # 60 s; the backoff schedule settles near 60 / (cap × interval).
        full_rate = 60.0 / FAST.interval
        floor = 60.0 / (FAST.probe_cap * FAST.interval) / 2
        for detector in (da, db):
            assert floor <= detector.probes_sent <= full_rate / 4

    def test_heal_after_long_outage_restores_within_the_probe_cap(self):
        """Backoff bounds revival latency too: once a probe crosses the
        healed link, both sides fall back to full-rate probing and
        restore — the saturated gap never exceeds cap × interval."""
        sim, network, a, b, (da, db) = linked_pair()
        sim.run_for(2.0)
        network.fail_link(a.addr, b.addr)
        sim.run_for(30.0)  # backoff fully saturated on both sides
        network.heal_link(a.addr, b.addr)
        sim.run_for(FAST.probe_cap * FAST.interval + 2.0)
        assert da.links_restored == 1 and db.links_restored == 1
        assert b.addr in a.neighbours and a.addr in b.neighbours


class TestBrokerCrash:
    def test_crash_pauses_beats_and_revival_resets_windows(self):
        sim, network, a, b, (da, db) = linked_pair()
        sim.run_for(2.0)
        a.crash()
        sent_while_down = da.heartbeats_sent
        sim.run_for(5.0)
        # A dead NIC puts nothing on the wire — and the counter must not
        # pretend otherwise.
        assert da.heartbeats_sent == sent_while_down
        assert db.suspected == {a.addr}  # the peer noticed the silence
        a.recover()
        sim.run_for(5.0)
        # a's liveness windows were stale for the whole outage; resetting
        # them on revival means a declares nobody dead...
        assert da.links_declared_dead == 0
        # ...while its resumed beats answer b's probes and heal the link.
        assert da.heartbeats_sent > sent_while_down
        assert db.links_restored == 1
        assert b.addr in a.neighbours and a.addr in b.neighbours

    def test_crash_revive_rebuilds_subscriptions_end_to_end(self):
        """The revived broker's client state must flow again without any
        client re-subscribing: peers' probes find it, the Resync replay
        rebuilds both directions."""
        sim, network, a, b, (da, db) = linked_pair()
        sub = SienaClient(sim, network, Position(1.0, 0.0), a)
        pub = SienaClient(sim, network, Position(1.0, 1.0), b)
        pub.advertise(Filter(type_is("t")))
        sub.subscribe(Filter(type_is("t")))
        sim.run_for(2.0)
        a.crash()
        sim.run_for(6.0)
        assert a.addr not in b.neighbours  # b tore the link down
        a.recover()
        sim.run_for(8.0)
        pub.publish(make_event("t", n=1))
        sim.run_for(2.0)
        assert [n["n"] for _, n in sub.received] == [1]

    def test_stopped_detector_stays_stopped_across_a_crash_cycle(self):
        sim, network, a, b, (da, db) = linked_pair()
        sim.run_for(2.0)
        da.stop()
        sent = da.heartbeats_sent
        a.crash()
        a.recover()
        sim.run_for(3.0)
        assert da.heartbeats_sent == sent


class TestFlapDamping:
    # Explicit window/hold values keep the trace deterministic; the
    # derived defaults are exercised by the randomized storm below.
    DAMPED = HeartbeatConfig(
        interval=0.25, miss_limit=3, flap_window=60.0, hold_down=4.0
    )

    def test_flapping_link_is_quarantined_then_held_down(self):
        sim, network, a, b, (da, db) = linked_pair(config=self.DAMPED)
        sim.run_for(2.0)
        # Two full drop/restore cycles build each side's flap score...
        for _ in range(2):
            network.fail_link(a.addr, b.addr)
            sim.run_for(3.0)
            network.heal_link(a.addr, b.addr)
            sim.run_for(3.0)
        # ...and the third death crosses the threshold: quarantine.
        network.fail_link(a.addr, b.addr)
        sim.run_for(3.0)
        network.heal_link(a.addr, b.addr)
        sim.run_for(2.0)
        assert da.links_quarantined == 1 and db.links_quarantined == 1
        assert da.quarantined(b.addr) and db.quarantined(a.addr)
        # Restoration (and its full-state exchange) is withheld: the two
        # pre-quarantine restores are still the only ones.
        assert da.links_restored == 2 and db.links_restored == 2
        assert b.addr not in a.neighbours
        # The link now stays up; the hold-down elapses and it restores
        # exactly once, with a clean flap record.
        sim.run_for(8.0)
        assert da.links_restored == 3 and db.links_restored == 3
        assert not da.quarantined(b.addr) and not db.quarantined(a.addr)
        assert b.addr in a.neighbours and a.addr in b.neighbours

    def test_single_failure_never_quarantines(self):
        # One clean kill + heal is not a flap: the detector must restore
        # immediately, without hold-down, exactly as before.
        sim, network, a, b, (da, db) = linked_pair(config=self.DAMPED)
        sim.run_for(2.0)
        network.fail_link(a.addr, b.addr)
        sim.run_for(5.0)
        network.heal_link(a.addr, b.addr)
        sim.run_for(5.0)
        assert da.links_restored == 1 and db.links_restored == 1
        assert da.links_quarantined == 0 and db.links_quarantined == 0
        assert b.addr in a.neighbours and a.addr in b.neighbours


def run_flap_storm(seed: int, config: HeartbeatConfig):
    """A triangle overlay whose 0-1 link flaps at random periods around
    the detector timeout for 40 s, then stays up.  Returns churn
    counters and the post-quiet-down probe deliveries."""
    rng = random.Random(seed * 101 + 3)
    sim = Simulator(seed=seed)
    network = Network(sim, latency=FixedLatency(0.01))
    brokers = [
        BrokerNode(sim, network, Position(0.0, float(i))) for i in range(3)
    ]
    brokers[0].connect(brokers[1])
    brokers[1].connect(brokers[2])
    brokers[2].connect(brokers[0])
    detectors = install_detectors(brokers, config)
    sub = SienaClient(sim, network, Position(1.0, 0.0), brokers[0])
    pub = SienaClient(sim, network, Position(1.0, 2.0), brokers[2])
    pub.advertise(Filter(type_is("t")))
    sub.subscribe(Filter(type_is("t")))
    sim.run_for(2.0)
    a, b = brokers[0].addr, brokers[1].addr
    deadline = sim.now + 40.0
    while sim.now < deadline:
        network.fail_link(a, b)
        sim.run_for(rng.uniform(1.0, 2.0))  # long enough to detect
        network.heal_link(a, b)
        sim.run_for(rng.uniform(0.5, 1.5))  # short enough to flap
    network.heal_link(a, b)
    sim.run_for(12.0)  # quiet-down: hold-down elapses, the link restores
    link_up = b in brokers[0].neighbours and a in brokers[1].neighbours
    mark = len(sub.received)
    for n in range(3):
        pub.publish(make_event("t", n=n))
    sim.run_for(3.0)
    return {
        "restores": sum(d.links_restored for d in detectors),
        "quarantines": sum(d.links_quarantined for d in detectors),
        "link_up": link_up,
        "delivered": [n["n"] for _, n in sub.received[mark:]],
    }


class TestFlapStorm:
    # hold_down=5 keeps the quarantine engaged through the storm's
    # longest calm stretch (1.5 s), so release happens exactly once.
    DAMPED = HeartbeatConfig(interval=0.25, miss_limit=3, hold_down=5.0)
    UNDAMPED = HeartbeatConfig(
        interval=0.25, miss_limit=3, flap_threshold=10**6, hold_down=5.0
    )

    @pytest.mark.parametrize("seed", range(4))
    def test_storm_churn_is_bounded_and_recovery_clean(self, seed):
        result = run_flap_storm(seed, self.DAMPED)
        # Each side restores at most flap_threshold times before the
        # quarantine engages, plus once when the storm ends — however
        # many times the link actually flapped.
        per_side = self.DAMPED.flap_threshold + 1
        assert result["restores"] <= 2 * per_side
        assert result["quarantines"] == 2  # both ends of the flapping link
        assert result["link_up"]
        # Zero delivery loss (and no duplicates) after quiet-down.
        assert result["delivered"] == [0, 1, 2]

    def test_damping_beats_undamped_churn(self):
        """The ablation: with the threshold unreachable, every detected
        flap cycle pays a drop/restore state exchange."""
        damped = run_flap_storm(0, self.DAMPED)
        undamped = run_flap_storm(0, self.UNDAMPED)
        assert undamped["delivered"] == [0, 1, 2]  # correct but churny
        assert undamped["restores"] >= 4 * damped["restores"]


# ----------------------------------------------------------------------
# Randomized acceptance suite: detector-driven == hand-rebuilt
# (The scripted-world harness — _build_world, _fold_final_state, _probe,
# run_rebuilt — lives in test_broker_mesh_equivalence and is shared with
# its crash+restart suite.)
# ----------------------------------------------------------------------
def run_detector_churn(scenario, mode_kwargs, heal: bool):
    """Full op script on the mesh; the cut link dies at the *network*
    level mid-script (and optionally heals after the script); probes run
    once everything settles."""
    edges = list(scenario["tree_edges"]) + list(scenario["extra_edges"])
    ops = list(scenario["ops"])
    ops.insert(scenario["cut_position"], ("fail",))
    sim, network, brokers, sub_clients, pub_clients = _build_world(
        scenario, mode_kwargs, edges, detectors=True
    )
    cut_a, cut_b = (brokers[i].addr for i in scenario["cut"])
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
        elif kind == "fail":
            network.fail_link(cut_a, cut_b)
        sim.run_for(2.0)
    sim.run_for(8.0)  # detection + retraction settle
    if heal:
        network.heal_link(cut_a, cut_b)
        sim.run_for(8.0)  # revival + resync settle
    _, advertised = _fold_final_state(scenario["ops"])
    probes = _probe(scenario, sim, sub_clients, pub_clients, advertised)
    detected = sum(
        b.failure_detector.links_declared_dead for b in brokers
    )
    return probes, detected


class TestRandomizedDetectorEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_detector_kill_converges_to_rebuilt_overlay(self, mode, seed):
        scenario = generate_scenario(seed)
        probes, detected = run_detector_churn(scenario, MODES[mode], heal=False)
        assert detected >= 2  # both ends of the dead link noticed
        rebuilt = run_rebuilt(scenario, MODES[mode], with_cut_link=False)
        assert probes == rebuilt

    @pytest.mark.parametrize("seed", range(5, 9))
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_detector_heal_converges_to_intact_overlay(self, mode, seed):
        scenario = generate_scenario(seed)
        probes, detected = run_detector_churn(scenario, MODES[mode], heal=True)
        assert detected >= 2
        rebuilt = run_rebuilt(scenario, MODES[mode], with_cut_link=True)
        assert probes == rebuilt
