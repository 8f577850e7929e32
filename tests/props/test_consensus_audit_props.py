"""Property-based tests: the auditor's safety invariants are seed-independent.

Hypothesis drives the scenario space — network seed, which replica
crashes, when it crashes, traffic shape — while the harness holds the
adversary at the protocol's design point (f = 1 for n = 4: one crashed
replica *plus* a byzantine, equivocating primary).  Whatever the seed,
the agreement and certificate invariants must hold on every honest
peer: safety never degrades to "usually".
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chain import BlockchainNetwork, InvariantAuditor
from repro.simnet import FixedLatency, UniformLatency
from repro.chain.peer import Admission


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    crash_index=st.integers(min_value=1, max_value=3),
    crash_after=st.floats(min_value=0.0, max_value=8.0),
    n_txs=st.integers(min_value=2, max_value=6),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_agreement_and_certificates_hold_with_f_crash_and_byzantine_primary(
    seed, crash_index, crash_after, n_txs
):
    from tests.conftest import CounterContract

    network = BlockchainNetwork(
        n_peers=4, consensus="pbft", block_interval=0.5,
        latency=UniformLatency(0.01, 0.06), seed=seed,
        byzantine_peers={"peer-0"}, view_timeout=3.0,
    )
    network.install_contract(CounterContract)
    auditor = InvariantAuditor(network)  # strict: raises on any violation
    victim = network.peers[crash_index]
    client = network.client()
    for index in range(n_txs):
        tx = network.endorse_transaction(client, "counter", "increment", {"amount": 1})
        entry = network.peers[1 + (index % 3)]
        if entry.submit(tx) is Admission.ADMITTED:
            auditor.track_tx(tx.tx_id)
        network.run_for(2.0)
        if not victim.crashed and network.sim.now >= crash_after:
            victim.crashed = True
    network.run_for(25.0)
    network.stop()
    # Strict incremental checks already ran on every commit; re-run the
    # full forensic pass over the final ledgers and certificates.
    auditor.check_agreement()
    auditor.check_certificates()
    auditor.check_convergence()
    assert auditor.violations == []
    # Certificates that exist are honest: 2f+1 distinct validators each.
    for peer in network.peers:
        if peer.byzantine:
            continue
        for _, certificate in peer.engine.commit_certificates.values():
            assert len(set(certificate)) >= peer.engine.quorum
            assert set(certificate) <= set(peer.engine.validators)


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_durability_holds_under_crash(seed):
    """With gossip on and faults within f, no admitted tx ever vanishes."""
    from tests.conftest import CounterContract

    network = BlockchainNetwork(
        n_peers=4, consensus="pbft", block_interval=0.5,
        latency=FixedLatency(0.02), seed=seed, view_timeout=3.0,
    )
    network.install_contract(CounterContract)
    auditor = InvariantAuditor(network)
    victim = network.peers[seed % 4]
    client = network.client()
    for index in range(4):
        tx = network.endorse_transaction(client, "counter", "increment", {"amount": 1})
        network.submit(tx)
        network.run_for(1.5)
        if index == 1:
            victim.crashed = True
        if index == 3:
            victim.crashed = False
    network.run_for(20.0)
    network.stop()
    assert not auditor.final_check()
    assert len(auditor.tracked_txs) == 4
