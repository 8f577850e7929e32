"""Seeded chaos runs with the invariant auditor always on.

Each case generates a deterministic fault plan (crashes, partitions,
latency spikes, rogue vote-flooders) from its seed via
:class:`~repro.simnet.chaos.ChaosSchedule`, drives client traffic
through it, and lets :class:`~repro.chain.audit.InvariantAuditor` verify
agreement, certificate validity, tx durability, state convergence, and
catch-up liveness (every recovered/restarted peer back at the head) —
incrementally after every commit, and in a full forensic pass at the
end.

The default parametrization keeps tier-1 fast; the ``chaos`` marker
(``make chaos`` / ``pytest -m chaos``) runs a much wider seed sweep.
"""

from __future__ import annotations

import random

import pytest

from repro.chain import BlockchainNetwork, InvariantAuditor
from repro.simnet import ChaosSchedule, UniformLatency
from tests.chain.test_pbft_golden import CHAOS_GOLDEN, fingerprint

DEFAULT_SEEDS = range(10)
EXTENDED_SEEDS = range(10, 40)
#: Schedules from beyond the sweep that once wedged the catch-up for good:
#: one replica ahead of the rest by a whole pipeline of blocks the others
#: only voted for (83, 306), and heights guessed from a validator's votes
#: that its own announcements never corrected (157).
WEDGE_SEEDS = (83, 157, 306)


def run_chaos_audited(
    seed: int,
    consensus: str = "pbft",
    duration: float = 24.0,
    settle: float = 40.0,
    n_txs: int = 12,
    pipeline_depth: int = 4,
) -> tuple[BlockchainNetwork, InvariantAuditor, ChaosSchedule]:
    """One audited chaos run; returns the network, auditor, and schedule."""
    from tests.conftest import CounterContract

    rng = random.Random(seed)
    network = BlockchainNetwork(
        n_peers=4, consensus=consensus, block_interval=0.5,
        latency=UniformLatency(0.01, 0.08), seed=seed, view_timeout=4.0,
        drop_probability=rng.choice([0.0, 0.02]),
        pipeline_depth=pipeline_depth,
    )
    network.install_contract(CounterContract)
    auditor = InvariantAuditor(network)  # strict: violations raise mid-run
    chaos = ChaosSchedule(network.sim, network.net, seed=seed)
    scenarios = ("crash", "partition", "latency", "rogue") if consensus == "pbft" else (
        "crash", "partition", "latency")
    chaos.plan(duration, validators=[p.node_id for p in network.peers],
               scenarios=scenarios)
    client = network.client()
    for _ in range(n_txs):
        tx = network.endorse_transaction(client, "counter", "increment", {"amount": 1})
        network.submit(tx)
        network.run_for(rng.uniform(0.4, duration / n_txs))
    network.run_for(max(0.0, duration - network.sim.now) + settle)
    network.stop()
    # sync_window spans the whole settle: a peer recovered late in the
    # plan may be re-crashed by the next window before it can catch up,
    # so per-event latency is only bounded by the final quiet period.
    auditor.final_check(failures=chaos.log, sync_window=duration + settle)
    return network, auditor, chaos


@pytest.mark.parametrize("seed", DEFAULT_SEEDS)
def test_chaos_audit_pbft(seed):
    network, auditor, chaos = run_chaos_audited(seed)
    assert auditor.violations == []
    assert fingerprint(network) == CHAOS_GOLDEN[seed]
    assert network.obs.total("audit.blocks_audited") > 0, "chaos plan starved the run entirely"
    assert auditor.tracked_txs, "no transactions were tracked"
    # The plan actually injected faults (the schedule logs what fired).
    assert chaos.log, "chaos plan injected nothing"
    # Rogue flooders (if the plan spawned any) were rejected wholesale.
    if chaos.flooders:
        assert sum(f.messages_flooded for f in chaos.flooders) > 0
        assert network.obs.total("pbft.votes_rejected_nonvalidator") > 0
    # Every peer that came back (pause or restart) caught up in finite time.
    for event, latency in auditor.catchup_latencies(chaos.log):
        assert latency is not None, f"{event.target} never caught up after {event.action}"


@pytest.mark.parametrize("seed", [0, 3])
def test_chaos_audit_poa(seed):
    """The auditor is engine-agnostic: agreement/durability/convergence
    hold for the PoA orderer too (certificates are PBFT-only)."""
    network, auditor, chaos = run_chaos_audited(seed, consensus="poa")
    assert auditor.violations == []
    assert network.obs.total("audit.blocks_audited") > 0


def test_determinism_same_seed_same_run():
    """A chaos run is a pure function of its seed."""
    network_a, auditor_a, chaos_a = run_chaos_audited(5)
    network_b, auditor_b, chaos_b = run_chaos_audited(5)
    assert network_a.committed_heights() == network_b.committed_heights()
    assert [(e.time, e.action, e.target) for e in chaos_a.log] == [
        (e.time, e.action, e.target) for e in chaos_b.log
    ]
    digests_a = {p.node_id: p.state.state_digest() for p in network_a.peers}
    digests_b = {p.node_id: p.state.state_digest() for p in network_b.peers}
    assert digests_a == digests_b


def test_rounds_bounded_after_chaos():
    """Chaos (incl. garbage-coordinate floods) must not leak round state."""
    network, _, _ = run_chaos_audited(2)
    for peer in network.peers:
        core = peer.engine.core
        assert len(core.rounds) <= core.height_window * (core.VIEW_WINDOW + 1)
        assert len(core.view_votes) <= core.VIEW_WINDOW + 1


@pytest.mark.chaos
@pytest.mark.parametrize("seed", [*EXTENDED_SEEDS, *WEDGE_SEEDS])
def test_chaos_audit_pbft_extended(seed):
    """The wide sweep behind ``make chaos``: 30 more seeds, longer runs,
    and the schedules that are there for a reason."""
    network, auditor, chaos = run_chaos_audited(seed, duration=40.0, settle=50.0, n_txs=20)
    assert auditor.violations == []
    assert network.obs.total("audit.blocks_audited") > 0
    assert chaos.log


# -- the platform publishing through chaos ----------------------------------


def run_platform_chaos(seed: int, n_articles: int = 8):
    """Publish through ``TrustingNewsPlatform`` over a ``NetworkedChain``
    while a validator crashes (and restarts from its store) and another is
    partitioned away; returns ``(network, platform, acknowledged, refused)``."""
    from repro.chain import NetworkedChain
    from repro.core import TrustingNewsPlatform, build_supply_chain_graph
    from repro.corpus import CorpusGenerator
    from repro.errors import ReproError
    from repro.simnet import FailureSchedule

    rng = random.Random(seed)
    network = BlockchainNetwork(
        n_peers=4, consensus="pbft", block_interval=0.25,
        latency=UniformLatency(0.01, 0.06), seed=seed, view_timeout=4.0,
        storage="durable", snapshot_interval=8,
    )
    auditor = InvariantAuditor(network)
    platform = TrustingNewsPlatform(
        seed=seed, chain=NetworkedChain(network, receipt_timeout=30.0))
    gen = CorpusGenerator(seed=seed)
    fact = gen.factual(topic="politics")
    platform.seed_fact("f-0", fact.text, "public-record", "politics")
    platform.register_participant("wire", role="publisher")
    platform.create_distribution_platform("wire", "wire-platform")
    platform.create_news_room("wire", "wire-platform", "room", "politics")
    platform.register_participant("author", role="journalist")
    platform.authenticate_journalist("wire-platform", "author")

    start = network.sim.now
    schedule = FailureSchedule(network.sim, network.net)
    crashed, isolated = rng.sample([p.node_id for p in network.peers], 2)
    down_at = start + rng.uniform(0.5, 2.0)
    schedule.torn_write_at(down_at - 1e-3, crashed)
    schedule.crash_at(down_at, crashed)
    back_at = down_at + rng.uniform(2.0, 5.0)
    schedule.restart_at(back_at, crashed)
    cut_at = back_at + rng.uniform(1.0, 3.0)
    schedule.partition_at(cut_at, {isolated})
    schedule.heal_at(cut_at + rng.uniform(2.0, 5.0))

    acknowledged, refused = [], []
    for index in range(n_articles):
        article_id = f"a-{index}"
        try:
            platform.publish_article("author", "wire-platform", "room", article_id,
                                     gen.relay_derivation(fact, "author", 0.0).text, "politics")
            acknowledged.append(article_id)
        except ReproError:
            refused.append(article_id)
        network.run_for(rng.uniform(0.2, 1.2))
    network.run_for(40.0)
    network.stop()
    auditor.final_check(failures=schedule.log, sync_window=60.0)
    assert auditor.violations == [] and schedule.log

    # Whatever happened to a publish happened to all of it, on every peer:
    # its four steps are valid in one block, or none of them is valid.
    for peer in network.peers:
        events = {
            kind: {e["article_id"] for e in peer.ledger.events(kind=kind)}
            for kind in ("draft-submitted", "review-started", "article-published",
                         "supply-node-recorded")
        }
        assert len({frozenset(ids) for ids in events.values()}) == 1, events
        assert events["article-published"] >= set(acknowledged)
        graph = build_supply_chain_graph(peer.ledger)
        assert all(article_id in graph for article_id in acknowledged)
    listed = {ranked.article_id for ranked in platform.rank_room("wire-platform", "room")}
    assert set(acknowledged) <= listed and all(a in platform.index for a in acknowledged)
    return network, platform, acknowledged, refused


def test_platform_publishes_through_crash_and_partition():
    network, _, acknowledged, _ = run_platform_chaos(seed=1)
    assert len(acknowledged) >= 4
    assert network.obs.total("chain.groups_committed") >= 4 * len(acknowledged) - 8


@pytest.mark.chaos
@pytest.mark.parametrize("seed", range(10, 22))
def test_platform_publishes_through_crash_and_partition_extended(seed):
    """The platform schedule behind ``make chaos``: more seeds, more articles."""
    _, _, acknowledged, refused = run_platform_chaos(seed, n_articles=12)
    assert len(acknowledged) + len(refused) == 12 and acknowledged
