"""Simulated network delivery, partitions, drops, crashes."""

import random

import pytest

from repro.errors import SimulationError
from repro.simnet import FixedLatency, Message, Network, NetworkNode, Simulator, UniformLatency


class Recorder(NetworkNode):
    """Records everything delivered to it."""

    def __init__(self, node_id: str):
        super().__init__(node_id)
        self.received: list[Message] = []

    def on_message(self, message: Message) -> None:
        self.received.append(message)


def build(n: int = 3, **kwargs) -> tuple[Simulator, Network, list[Recorder]]:
    sim = Simulator()
    net = Network(sim, **kwargs)
    nodes = [Recorder(f"n{i}") for i in range(n)]
    for node in nodes:
        net.add_node(node)
    return sim, net, nodes


def test_message_delivered_with_latency():
    sim, net, nodes = build(latency=FixedLatency(0.25))
    nodes[0].send("n1", "ping", {"x": 1})
    sim.run()
    assert len(nodes[1].received) == 1
    message = nodes[1].received[0]
    assert message.kind == "ping" and message.payload == {"x": 1}
    assert sim.now == pytest.approx(0.25)


def test_broadcast_excludes_self_by_default():
    sim, net, nodes = build(4)
    nodes[0].broadcast("hello", None)
    sim.run()
    assert len(nodes[0].received) == 0
    assert all(len(n.received) == 1 for n in nodes[1:])


def test_broadcast_include_self():
    sim, net, nodes = build(2)
    nodes[0].broadcast("hello", None, include_self=True)
    sim.run()
    assert len(nodes[0].received) == 1


def test_partition_blocks_cross_group_traffic():
    sim, net, nodes = build(4)
    net.partition({"n0", "n1"})
    nodes[0].send("n1", "in-group", None)
    nodes[0].send("n2", "cross", None)
    sim.run()
    assert len(nodes[1].received) == 1
    assert len(nodes[2].received) == 0
    assert net.obs.total("net.dropped_partition") == 1


def test_heal_restores_traffic():
    sim, net, nodes = build(3)
    net.partition({"n0"})
    nodes[0].send("n1", "blocked", None)
    net.heal()
    nodes[0].send("n1", "open", None)
    sim.run()
    assert [m.kind for m in nodes[1].received] == ["open"]


def test_unnamed_nodes_form_implicit_group():
    sim, net, nodes = build(4)
    net.partition({"n0", "n1"})
    nodes[2].send("n3", "rest-group", None)
    sim.run()
    assert len(nodes[3].received) == 1


def test_crashed_node_drops_messages():
    sim, net, nodes = build(2)
    nodes[1].crashed = True
    nodes[0].send("n1", "lost", None)
    sim.run()
    assert nodes[1].received == []
    assert net.obs.total("net.dropped_crashed") == 1


def test_random_drops_are_seeded():
    def run(seed):
        sim, net, nodes = build(2, drop_probability=0.5, seed=seed)
        for _ in range(100):
            nodes[0].send("n1", "m", None)
        sim.run()
        return len(nodes[1].received)

    assert run(7) == run(7)
    assert 20 < run(7) < 80  # roughly half survive


def test_unknown_destination_raises():
    sim, net, nodes = build(1)
    with pytest.raises(SimulationError):
        nodes[0].send("nope", "m", None)


def test_duplicate_node_id_rejected():
    sim, net, nodes = build(1)
    with pytest.raises(SimulationError):
        net.add_node(Recorder("n0"))


def test_detached_node_cannot_send():
    node = Recorder("loner")
    with pytest.raises(SimulationError):
        node.send("n0", "m", None)


def test_stats_track_latency():
    sim, net, nodes = build(2, latency=FixedLatency(0.1))
    for _ in range(10):
        nodes[0].send("n1", "m", None)
    sim.run()
    assert net.obs.total("net.delivered") == 10
    assert sim.now == pytest.approx(0.1)  # every message took the model's latency


def test_uniform_latency_in_bounds():
    rng = random.Random(0)
    model = UniformLatency(0.01, 0.05)
    samples = [model.sample("a", "b", rng) for _ in range(200)]
    assert all(0.01 <= s <= 0.05 for s in samples)


def test_overlapping_partition_groups_rejected():
    """Overlapping groups would make _same_side asymmetric (resolution
    depends on which group is checked first) — must be an error."""
    sim, net, nodes = build(3)
    with pytest.raises(SimulationError):
        net.partition({"n0", "n1"}, {"n1", "n2"})
    # The bad call must not have half-installed a partition.
    nodes[0].send("n2", "still-flowing", None)
    sim.run()
    assert len(nodes[2].received) == 1


def test_disjoint_partition_groups_still_fine():
    sim, net, nodes = build(4)
    net.partition({"n0", "n1"}, {"n2"})
    nodes[0].send("n1", "ok", None)
    nodes[2].send("n3", "cross", None)
    sim.run()
    assert len(nodes[1].received) == 1
    assert len(nodes[3].received) == 0  # n2 and n3 are in different groups


def test_bytes_estimate_counts_traffic():
    """bytes_estimate was declared but never incremented (seed bug)."""
    sim, net, nodes = build(2)
    nodes[0].send("n1", "ping", {"key": "value", "n": 7})
    sim.run()
    assert net.obs.total("net.bytes_estimate") > 0
    before = net.obs.total("net.bytes_estimate")
    nodes[0].send("n1", "ping", {"key": "value" * 100, "n": 7})
    sim.run()
    # A 100x larger payload costs visibly more estimated bandwidth.
    assert net.obs.total("net.bytes_estimate") - before > before


def test_bytes_estimate_charged_even_for_drops():
    """Sender bandwidth is spent whether or not delivery succeeds."""
    sim, net, nodes = build(2)
    net.partition({"n0"})
    nodes[0].send("n1", "lost", {"data": "x" * 50})
    sim.run()
    assert net.obs.total("net.dropped_partition") == 1
    assert net.obs.total("net.bytes_estimate") > 50


def test_broadcast_iterates_cached_id_tuple():
    """broadcast must not rebuild the node-id list per call; the cache
    is invalidated when membership changes."""
    sim, net, nodes = build(3)
    first = net.all_node_ids()
    assert first is net.all_node_ids()  # same tuple object, no rebuild
    late = Recorder("n9")
    net.add_node(late)
    assert net.all_node_ids() != first
    assert "n9" in net.all_node_ids()
    nodes[0].broadcast("hello", None)
    sim.run()
    assert len(late.received) == 1
    # The public list API still returns a fresh, mutation-safe copy.
    ids = net.node_ids()
    ids.append("bogus")
    assert "bogus" not in net.all_node_ids()


def test_transmit_drop_paths_schedule_nothing():
    """Partition/drop early-outs must not reach the scheduler: a dropped
    message costs counters, not an Event allocation."""
    sim, net, nodes = build(2)
    net.partition({"n0"})
    nodes[0].send("n1", "lost", {"data": "x" * 10})
    assert sim.pending == 0  # nothing queued for a partitioned message
    net.heal()
    nodes[0].send("n1", "kept", None)
    assert sim.pending == 1
    sim.run()
    assert [m.kind for m in nodes[1].received] == ["kept"]


def test_transmit_random_drop_charges_bytes_without_scheduling():
    sim, net, nodes = build(2, drop_probability=0.999999, seed=3)
    before = net.obs.total("net.bytes_estimate")
    for _ in range(20):
        nodes[0].send("n1", "m", {"data": "y" * 30})
    assert net.obs.total("net.dropped_random") == 20
    assert net.obs.total("net.bytes_estimate") - before > 20 * 30  # bandwidth still spent
    assert sim.pending == 0


def test_payload_size_estimator_shapes():
    from repro.simnet import estimate_payload_size

    assert estimate_payload_size(None) == 1
    assert estimate_payload_size("abcd") == 4
    assert estimate_payload_size(b"abcd") == 4
    assert estimate_payload_size(123) == 8
    assert estimate_payload_size({"ab": "cd"}) == 4
    assert estimate_payload_size(["ab", "cd", 1]) == 12
    # Dataclasses are walked field by field.
    msg = Message(src="a", dst="b", kind="kk", payload="pppp", sent_at=0.0)
    assert estimate_payload_size(msg) == 1 + 1 + 2 + 4 + 8
