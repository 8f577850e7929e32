"""Golden PBFT runs: what consensus leaves on the wire and on the ledgers.

A run's fingerprint is every peer's ``(height, head hash, view)`` and the
network's totals of messages and bytes sent, view changes, lock
re-proposals and lock refusals.  A refactor of the engine that keeps the
protocol must keep every fingerprint below exactly: a different head hash
means a different block, a different message count a different exchange.

The ten default chaos seeds are pinned inside
``tests/chain/test_chaos_audit.py::test_chaos_audit_pbft`` (that run
already happens in tier-1, so it is not repeated here); this module adds a
byzantine-primary run and a quiet run at pipeline depths 1 and 4.
"""

from __future__ import annotations

import pytest

from repro.chain import BlockchainNetwork
from repro.simnet import UniformLatency

_TOTALS = ("net.sent", "net.bytes_estimate", "pbft.view_changes",
           "pbft.lock_reproposals", "pbft.lock_refusals")


def fingerprint(network: BlockchainNetwork) -> tuple:
    """Per-peer ``(height, head hash, view)`` and the network totals."""
    peers = tuple(
        (p.ledger.height, p.ledger.head.block_hash, p.engine.view) for p in network.peers
    )
    return peers, tuple(int(network.obs.total(name)) for name in _TOTALS)


#: ``test_chaos_audit_pbft[seed]`` -> its fingerprint.
CHAOS_GOLDEN: dict[int, tuple] = {
    0: (
        (
            (10, "f8fe8862480f5fe80a22a1e5f5593c43f002bea764e1c07300e74c30f725d85c", 0),
            (10, "f8fe8862480f5fe80a22a1e5f5593c43f002bea764e1c07300e74c30f725d85c", 0),
            (10, "f8fe8862480f5fe80a22a1e5f5593c43f002bea764e1c07300e74c30f725d85c", 0),
            (10, "f8fe8862480f5fe80a22a1e5f5593c43f002bea764e1c07300e74c30f725d85c", 0),
        ),
        (1552, 382468, 0, 0, 0),
    ),
    1: (
        (
            (6, "be9d3f514d721a6020439f152cead5e6f1bc7056a033c4f3ef9d17043d0ce8eb", 0),
            (6, "be9d3f514d721a6020439f152cead5e6f1bc7056a033c4f3ef9d17043d0ce8eb", 0),
            (6, "be9d3f514d721a6020439f152cead5e6f1bc7056a033c4f3ef9d17043d0ce8eb", 0),
            (6, "be9d3f514d721a6020439f152cead5e6f1bc7056a033c4f3ef9d17043d0ce8eb", 0),
        ),
        (1548, 359621, 0, 0, 0),
    ),
    2: (
        (
            (11, "b191fe25f47670802125da00cc2c273c85ab395ebea0b64677aeea8b378fa6d6", 2),
            (11, "b191fe25f47670802125da00cc2c273c85ab395ebea0b64677aeea8b378fa6d6", 2),
            (11, "b191fe25f47670802125da00cc2c273c85ab395ebea0b64677aeea8b378fa6d6", 2),
            (11, "b191fe25f47670802125da00cc2c273c85ab395ebea0b64677aeea8b378fa6d6", 2),
        ),
        (6249, 1195514, 8, 0, 0),
    ),
    3: (
        (
            (10, "5b341803fd24272e043b4fddcc166dc6ece5c6b04cbe4a88ad675600451b2f59", 1),
            (10, "5b341803fd24272e043b4fddcc166dc6ece5c6b04cbe4a88ad675600451b2f59", 1),
            (10, "5b341803fd24272e043b4fddcc166dc6ece5c6b04cbe4a88ad675600451b2f59", 1),
            (10, "5b341803fd24272e043b4fddcc166dc6ece5c6b04cbe4a88ad675600451b2f59", 1),
        ),
        (1360, 350618, 4, 0, 0),
    ),
    4: (
        (
            (7, "9c8711a832ea1adf60e1868ce07bf226729879b7873ee65abaf0bfc0007bd501", 0),
            (7, "9c8711a832ea1adf60e1868ce07bf226729879b7873ee65abaf0bfc0007bd501", 1),
            (7, "9c8711a832ea1adf60e1868ce07bf226729879b7873ee65abaf0bfc0007bd501", 1),
            (7, "9c8711a832ea1adf60e1868ce07bf226729879b7873ee65abaf0bfc0007bd501", 1),
        ),
        (1298, 363210, 3, 0, 0),
    ),
    5: (
        (
            (5, "d54355b4d495df62356c760dca94ebdd1bb1ddc0d1af12cf1d3645913fca6ad4", 10),
            (5, "d54355b4d495df62356c760dca94ebdd1bb1ddc0d1af12cf1d3645913fca6ad4", 10),
            (5, "d54355b4d495df62356c760dca94ebdd1bb1ddc0d1af12cf1d3645913fca6ad4", 10),
            (5, "d54355b4d495df62356c760dca94ebdd1bb1ddc0d1af12cf1d3645913fca6ad4", 10),
        ),
        (1703, 421765, 38, 1, 0),
    ),
    6: (
        (
            (6, "8a551c6d63a7a761e24337ac251951c32dd69fdf749152fac8dfb01f517d7ce8", 2),
            (6, "8a551c6d63a7a761e24337ac251951c32dd69fdf749152fac8dfb01f517d7ce8", 2),
            (6, "8a551c6d63a7a761e24337ac251951c32dd69fdf749152fac8dfb01f517d7ce8", 2),
            (6, "8a551c6d63a7a761e24337ac251951c32dd69fdf749152fac8dfb01f517d7ce8", 2),
        ),
        (1922, 452730, 8, 1, 0),
    ),
    7: (
        (
            (10, "57e13e5554884ded3d52c636de811baad59f259ce4c2a95610135792ff439c9b", 2),
            (10, "57e13e5554884ded3d52c636de811baad59f259ce4c2a95610135792ff439c9b", 2),
            (10, "57e13e5554884ded3d52c636de811baad59f259ce4c2a95610135792ff439c9b", 2),
            (10, "57e13e5554884ded3d52c636de811baad59f259ce4c2a95610135792ff439c9b", 2),
        ),
        (4941, 996221, 7, 1, 1),
    ),
    8: (
        (
            (8, "60c46e37d2a9c331d15217161040c31ab7de8e6b1e78ec4e3816698ed789b0c1", 2),
            (8, "60c46e37d2a9c331d15217161040c31ab7de8e6b1e78ec4e3816698ed789b0c1", 2),
            (8, "60c46e37d2a9c331d15217161040c31ab7de8e6b1e78ec4e3816698ed789b0c1", 2),
            (8, "60c46e37d2a9c331d15217161040c31ab7de8e6b1e78ec4e3816698ed789b0c1", 2),
        ),
        (5442, 1080221, 7, 1, 1),
    ),
    9: (
        (
            (9, "cc365e81b502753a5521ea90a8b96d8f888f31fc505109af03b49bde36775899", 0),
            (9, "cc365e81b502753a5521ea90a8b96d8f888f31fc505109af03b49bde36775899", 0),
            (9, "cc365e81b502753a5521ea90a8b96d8f888f31fc505109af03b49bde36775899", 0),
            (9, "cc365e81b502753a5521ea90a8b96d8f888f31fc505109af03b49bde36775899", 0),
        ),
        (1486, 367564, 0, 0, 0),
    ),
}

GOLDEN: dict[str, tuple] = {
    "byzantine-primary": (
        (
            (12, "5a909aa878a9b34ed472ee6fec2b3db6617e10e8f9040b0940adf86428b781fb", 1),
            (12, "5a909aa878a9b34ed472ee6fec2b3db6617e10e8f9040b0940adf86428b781fb", 1),
            (12, "5a909aa878a9b34ed472ee6fec2b3db6617e10e8f9040b0940adf86428b781fb", 1),
            (12, "5a909aa878a9b34ed472ee6fec2b3db6617e10e8f9040b0940adf86428b781fb", 1),
        ),
        (645, 252060, 4, 0, 0),
    ),
    "quiet-depth-1": (
        (
            (12, "08f36a8542ba102918034c5b55c9623fc4c61b8aed90e33a3b56af8ced90d3c8", 0),
            (12, "08f36a8542ba102918034c5b55c9623fc4c61b8aed90e33a3b56af8ced90d3c8", 0),
            (12, "08f36a8542ba102918034c5b55c9623fc4c61b8aed90e33a3b56af8ced90d3c8", 0),
            (12, "08f36a8542ba102918034c5b55c9623fc4c61b8aed90e33a3b56af8ced90d3c8", 0),
        ),
        (612, 229068, 0, 0, 0),
    ),
    "quiet-depth-4": (
        (
            (12, "20b245130fea95ef38acb8f71b8e301cc363f43ecbf5368dd6828b2c512a872a", 0),
            (12, "20b245130fea95ef38acb8f71b8e301cc363f43ecbf5368dd6828b2c512a872a", 0),
            (12, "20b245130fea95ef38acb8f71b8e301cc363f43ecbf5368dd6828b2c512a872a", 0),
            (12, "20b245130fea95ef38acb8f71b8e301cc363f43ecbf5368dd6828b2c512a872a", 0),
        ),
        (612, 229068, 0, 0, 0),
    ),
}


def _run(byzantine: frozenset[str] = frozenset(), pipeline_depth: int = 4) -> BlockchainNetwork:
    from tests.conftest import CounterContract

    network = BlockchainNetwork(
        n_peers=4, consensus="pbft", block_interval=0.5, seed=21,
        latency=UniformLatency(0.01, 0.05), view_timeout=2.0,
        pipeline_depth=pipeline_depth, byzantine_peers=set(byzantine), max_block_txs=2,
    )
    network.install_contract(CounterContract)
    client = network.client()
    for wave in range(6):
        for amount in range(4):
            client.invoke("counter", "increment", {"amount": amount}, wait=False)
        network.run_for(0.4 + 0.3 * wave)
    network.run_for(30.0)
    network.stop()
    return network


@pytest.mark.parametrize(
    "name, byzantine, depth",
    [("byzantine-primary", frozenset({"peer-0"}), 4), ("quiet-depth-1", frozenset(), 1),
     ("quiet-depth-4", frozenset(), 4)],
)
def test_golden_run(name, byzantine, depth):
    assert fingerprint(_run(byzantine, depth)) == GOLDEN[name]
