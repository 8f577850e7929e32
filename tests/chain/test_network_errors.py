"""BlockchainNetwork error paths: endorsement shortfalls, dead networks."""

import pytest

from repro.chain import BlockchainNetwork, EndorsementPolicy
from repro.errors import ChainError, ContractError, EndorsementError
from repro.simnet import FixedLatency


def _network(**kwargs):
    from tests.conftest import CounterContract

    defaults = dict(n_peers=4, consensus="poa", block_interval=0.3,
                    latency=FixedLatency(0.01), seed=88)
    defaults.update(kwargs)
    network = BlockchainNetwork(**defaults)
    policy = kwargs.pop("policy", None)
    network.install_contract(CounterContract, policy=policy)
    return network


def test_endorsement_shortfall_raises():
    from tests.conftest import CounterContract

    network = BlockchainNetwork(n_peers=4, consensus="poa", seed=1)
    network.install_contract(CounterContract, policy=EndorsementPolicy(required=3))
    for peer in network.peers[1:]:
        peer.crashed = True  # only one endorser left
    client = network.client()
    with pytest.raises(EndorsementError, match="policy requires 3"):
        client.invoke("counter", "increment")


def test_contract_error_surfaces_at_endorsement():
    network = _network()
    client = network.client()
    with pytest.raises(ContractError, match="deliberate"):
        client.invoke("counter", "fail")


def test_all_peers_crashed_cannot_endorse():
    network = _network()
    for peer in network.peers:
        peer.crashed = True
    client = network.client()
    with pytest.raises(ContractError, match="no peer could endorse"):
        client.invoke("counter", "increment")


def test_query_with_all_peers_crashed():
    network = _network()
    for peer in network.peers:
        peer.crashed = True
    client = network.client()
    with pytest.raises(ChainError, match="no live peer"):
        client.query("counter", "read")


def test_receipt_timeout_when_nothing_commits():
    network = _network()
    client = network.client()
    tx = network.endorse_transaction(client, "counter", "increment", {})
    # Crash everyone after endorsement: the tx can never be ordered.
    for peer in network.peers:
        peer.crashed = True
    network.peers[0].mempool.add(tx)
    with pytest.raises(ChainError, match="did not commit"):
        network.wait_for_receipt(tx.tx_id, timeout=5.0)


def test_query_returns_error_for_bad_method():
    network = _network()
    client = network.client()
    with pytest.raises(ContractError, match="no method"):
        client.query("counter", "does_not_exist")


@pytest.mark.parametrize("kwargs", [
    {"storage": "durabel"},
    {"storage": "memory"},
    {"consensus": "POA"},
    {"consensus": "raft"},
])
def test_unknown_storage_or_consensus_is_refused(kwargs):
    with pytest.raises(ChainError, match="unknown"):
        BlockchainNetwork(n_peers=4, **kwargs)
