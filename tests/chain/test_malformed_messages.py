"""A malformed payload is dropped and counted, never an exception.

Payloads come from other nodes: any field may be missing or of the wrong
type.  Each kind is checked once where it enters — the PBFT driver's
decode, the sync manager, ``Peer.on_message`` for gossip, the PoA
orderer — and a payload that fails is counted under
``peer.messages_malformed{kind}`` and goes no further.  Before the check
every case below raised out of ``Simulator.step`` and ended the run.
"""

from __future__ import annotations

import pytest

from repro.chain import BlockchainNetwork
from repro.chain.block import Block, make_genesis_block
from repro.simnet import FixedLatency

_OFF_HEIGHT = Block.build(2, make_genesis_block().block_hash, 0.0, "peer-0", [])

CASES = [
    ("pbft", "pbft-prepare", {}),
    ("pbft", "pbft-view-change", {"new_view": "1"}),
    ("pbft", "pbft-pre-prepare", {"view": 0, "height": 1, "block": "x"}),
    ("pbft", "pbft-pre-prepare", {"view": 0, "height": 1, "block": None}),
    ("pbft", "pbft-pre-prepare", {"view": 0, "height": 1, "block": _OFF_HEIGHT}),
    ("pbft", "pbft-commit", {"view": 0, "height": "1", "digest": "d"}),
    ("pbft", "sync-request", {"req_id": "r"}),
    ("pbft", "sync-request", {"req_id": "r", "start": "a", "end": 1}),
    ("pbft", "sync-announce", []),
    ("pbft", "tx-gossip", 7),
    ("pbft", "tx-gossip", ["nope"]),
    ("poa", "poa-block", "x"),
]


@pytest.mark.parametrize("consensus, kind, payload", CASES)
def test_malformed_payload_is_dropped_and_counted(consensus, kind, payload):
    from tests.conftest import CounterContract

    network = BlockchainNetwork(
        n_peers=4, consensus=consensus, latency=FixedLatency(0.02),
        block_interval=0.5, view_timeout=3.0,
    )
    network.install_contract(CounterContract)
    # From the primary to everyone: a pre-prepare whose block sits at
    # another height would otherwise be decided and fail in the ledger.
    for dst in ("peer-1", "peer-2", "peer-3"):
        network.net.transmit("peer-0", dst, kind, payload)
    receipt = network.client().invoke("counter", "increment", {"amount": 1})
    network.run_for(3.0)
    network.stop()
    assert receipt.success
    assert set(network.committed_heights().values()) == {1}
    counted = network.obs.counters("peer.messages_malformed")
    assert {c.labels["kind"] for c in counted} == {kind}
    assert network.obs.total("peer.messages_malformed") == 3
