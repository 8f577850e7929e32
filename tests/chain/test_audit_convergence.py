"""The auditor states "every honest replica agrees" once: one fork check
(every honest ledger, crashed or not, agrees with the honest majority at
every height it holds, and the peer holding the odd block is the one
named) and one state check (live honest peers at one height hold one
``state_digest()``).
``InvariantAuditor`` reports what they find and
``BlockchainNetwork.assert_convergence`` raises the first of it; a
Byzantine peer's ledger is compared by neither."""

from __future__ import annotations

import pytest

from repro.chain import AuditViolation, BlockchainNetwork, InvariantAuditor
from repro.chain.block import Block
from repro.simnet import FixedLatency
from tests.conftest import CounterContract


def _network(n_peers=4, **kwargs):
    network = BlockchainNetwork(
        n_peers=n_peers, consensus="pbft", block_interval=0.5,
        latency=FixedLatency(0.02), seed=3, **kwargs,
    )
    network.install_contract(CounterContract)
    return network, InvariantAuditor(network, strict=False)


def _commit_one(network):
    client = network.client()
    network.submit(network.endorse_transaction(client, "counter", "increment", {"amount": 1}))
    network.run_for(5.0)


def _forge(peer, height=1):
    """Overwrite *peer*'s block at *height* with a different one."""
    parent = peer.ledger.block(height - 1).block_hash
    forged = Block.build(height, parent, 9.9, "evil", [])
    peer.ledger._entries[height] = (forged, [], [])
    return forged


@pytest.fixture
def committed():
    network, auditor = _network()
    for _ in range(3):
        _commit_one(network)
    network.stop()
    assert min(p.ledger.height for p in network.peers) >= 3
    assert auditor.violations == []
    return network, auditor


def test_assert_convergence_with_every_peer_crashed(committed):
    network, auditor = committed
    for peer in network.peers:
        peer.crashed = True
    network.assert_convergence()
    auditor.final_check()
    assert auditor.violations == []


def test_fork_on_a_crashed_honest_peer_is_raised(committed):
    network, auditor = committed
    victim = network.peers[2]
    _forge(victim)
    victim.crashed = True
    with pytest.raises(AuditViolation) as raised:
        network.assert_convergence()
    auditor.check_agreement()
    [reported] = auditor.violations
    for violation in (raised.value, reported):
        assert (violation.invariant, violation.height) == ("agreement", 1)
        assert violation.peers == ("peer-0", "peer-2")
        assert violation.forensics["crashed"] is True


def test_the_fork_check_names_the_peer_holding_the_odd_block(committed):
    """The forged block sits on the first tallest peer: the three honest
    peers that agree are not blamed, the one that differs is."""
    network, auditor = committed
    forged = _forge(network.peers[0])
    auditor.check_agreement()
    [reported] = auditor.violations
    with pytest.raises(AuditViolation) as raised:
        network.assert_convergence()
    for violation in (reported, raised.value):
        assert (violation.invariant, violation.height) == ("agreement", 1)
        assert violation.detail == "peer-0 diverges from peer-1"
        assert violation.peers == ("peer-1", "peer-0")
        assert violation.forensics["peer_digest"] == forged.block_hash


def test_a_tied_fork_goes_to_the_group_of_the_first_peer(committed):
    """Two against two: the reference block is the one the first peer in
    peer order holds, and each of the other pair is named at the height
    where it first differs."""
    network, auditor = committed
    for peer in network.peers[2:]:
        _forge(peer, height=2)
    auditor.check_agreement()
    assert [(v.height, v.peers) for v in auditor.violations] == [
        (2, ("peer-0", "peer-2")), (2, ("peer-0", "peer-3"))]


def test_a_byzantine_ledger_is_compared_by_neither_path():
    network, auditor = _network(byzantine_peers={"peer-3"})
    for _ in range(3):
        _commit_one(network)
    network.stop()
    rogue = network.peers[3]
    assert rogue.ledger.height >= 1
    _forge(rogue)
    rogue.state.apply_write_set({"rogue": 1})
    network.assert_convergence()
    auditor.check_agreement()
    auditor.check_convergence()
    assert auditor.violations == []


def test_a_forged_block_reaches_both_agreement_paths(committed):
    network, auditor = committed
    victim = network.peers[2]
    forged = _forge(victim)
    auditor._check_agreement_incremental(victim, forged)
    auditor.check_agreement()
    incremental, final = auditor.violations
    with pytest.raises(AuditViolation) as raised:
        network.assert_convergence()
    for violation in (incremental, final, raised.value):
        assert (violation.invariant, violation.height) == ("agreement", 1)


def test_a_state_split_below_head_is_reported_and_raised():
    """Two live honest peers sit one block below the head and disagree on
    their state there: no fork, nobody at head differs, and still the
    state check names the height."""
    network, auditor = _network(n_peers=5)
    _commit_one(network)
    low = network.peers[3:]
    for peer in low:
        peer.crashed = True
    _commit_one(network)
    network.stop()
    for peer in low:
        peer.crashed = False
    height = low[0].ledger.height
    assert {p.ledger.height for p in low} == {height}
    assert height < max(p.ledger.height for p in network.peers)
    low[1].state.apply_write_set({"rogue": 1})
    auditor.check_convergence()
    [reported] = auditor.violations
    with pytest.raises(AuditViolation) as raised:
        network.assert_convergence()
    for violation in (reported, raised.value):
        assert (violation.invariant, violation.height) == ("convergence", height)
        assert violation.peers == ("peer-3", "peer-4")
