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
            (10, "5e33cc0d4480f3ed6b76a49c16f5c5208ef74afbe91486627a5756d18d4ecdbc", 0),
            (10, "5e33cc0d4480f3ed6b76a49c16f5c5208ef74afbe91486627a5756d18d4ecdbc", 0),
            (10, "5e33cc0d4480f3ed6b76a49c16f5c5208ef74afbe91486627a5756d18d4ecdbc", 0),
            (10, "5e33cc0d4480f3ed6b76a49c16f5c5208ef74afbe91486627a5756d18d4ecdbc", 0),
        ),
        (1552, 382468, 0, 0, 0),
    ),
    1: (
        (
            (6, "2b0072dc7744451e8fca9963da38e0562f6f6865e326f5f52cd6a19f2a25f297", 0),
            (6, "2b0072dc7744451e8fca9963da38e0562f6f6865e326f5f52cd6a19f2a25f297", 0),
            (6, "2b0072dc7744451e8fca9963da38e0562f6f6865e326f5f52cd6a19f2a25f297", 0),
            (6, "2b0072dc7744451e8fca9963da38e0562f6f6865e326f5f52cd6a19f2a25f297", 0),
        ),
        (1548, 359621, 0, 0, 0),
    ),
    2: (
        (
            (11, "2ccf3ce06d5e95a1d3e468895f453c47d8c7b658f0bdbfc617f4ec89d57bf4d0", 2),
            (11, "2ccf3ce06d5e95a1d3e468895f453c47d8c7b658f0bdbfc617f4ec89d57bf4d0", 2),
            (11, "2ccf3ce06d5e95a1d3e468895f453c47d8c7b658f0bdbfc617f4ec89d57bf4d0", 2),
            (11, "2ccf3ce06d5e95a1d3e468895f453c47d8c7b658f0bdbfc617f4ec89d57bf4d0", 2),
        ),
        (6249, 1195514, 8, 0, 0),
    ),
    3: (
        (
            (10, "c87cc3ad4758c9cc3f3b27211e76ca035447192c2e167a5059ec66e6986b8a7d", 1),
            (10, "c87cc3ad4758c9cc3f3b27211e76ca035447192c2e167a5059ec66e6986b8a7d", 1),
            (10, "c87cc3ad4758c9cc3f3b27211e76ca035447192c2e167a5059ec66e6986b8a7d", 1),
            (10, "c87cc3ad4758c9cc3f3b27211e76ca035447192c2e167a5059ec66e6986b8a7d", 1),
        ),
        (1360, 350618, 4, 0, 0),
    ),
    4: (
        (
            (7, "0f2f22415d98091908bac62ae8b4b19e7be5719a4f7ebe7aa64efb215724774f", 0),
            (7, "0f2f22415d98091908bac62ae8b4b19e7be5719a4f7ebe7aa64efb215724774f", 1),
            (7, "0f2f22415d98091908bac62ae8b4b19e7be5719a4f7ebe7aa64efb215724774f", 1),
            (7, "0f2f22415d98091908bac62ae8b4b19e7be5719a4f7ebe7aa64efb215724774f", 1),
        ),
        (1298, 363210, 3, 0, 0),
    ),
    5: (
        (
            (5, "5858669f31d7a4326628054e16f9b5a74572a4b2bb2d4200041c99e0b990edbf", 10),
            (5, "5858669f31d7a4326628054e16f9b5a74572a4b2bb2d4200041c99e0b990edbf", 10),
            (5, "5858669f31d7a4326628054e16f9b5a74572a4b2bb2d4200041c99e0b990edbf", 10),
            (5, "5858669f31d7a4326628054e16f9b5a74572a4b2bb2d4200041c99e0b990edbf", 10),
        ),
        (1703, 421765, 38, 1, 0),
    ),
    6: (
        (
            (6, "8d3e6031ea31651ba01054475d575971cf1b44e1b0d62585259d9d8adf0c70a2", 2),
            (6, "8d3e6031ea31651ba01054475d575971cf1b44e1b0d62585259d9d8adf0c70a2", 2),
            (6, "8d3e6031ea31651ba01054475d575971cf1b44e1b0d62585259d9d8adf0c70a2", 2),
            (6, "8d3e6031ea31651ba01054475d575971cf1b44e1b0d62585259d9d8adf0c70a2", 2),
        ),
        (1922, 452730, 8, 1, 0),
    ),
    7: (
        (
            (10, "e03014aa0357b12792822c7a668ef2aeb9d3bc9c58b281511c7be0698e13bace", 2),
            (10, "e03014aa0357b12792822c7a668ef2aeb9d3bc9c58b281511c7be0698e13bace", 2),
            (10, "e03014aa0357b12792822c7a668ef2aeb9d3bc9c58b281511c7be0698e13bace", 2),
            (10, "e03014aa0357b12792822c7a668ef2aeb9d3bc9c58b281511c7be0698e13bace", 2),
        ),
        (4941, 996221, 7, 1, 1),
    ),
    8: (
        (
            (8, "7794542955aa08a61f571fbcc6544f36901072ee707c601ad6283c881c7af3fb", 2),
            (8, "7794542955aa08a61f571fbcc6544f36901072ee707c601ad6283c881c7af3fb", 2),
            (8, "7794542955aa08a61f571fbcc6544f36901072ee707c601ad6283c881c7af3fb", 2),
            (8, "7794542955aa08a61f571fbcc6544f36901072ee707c601ad6283c881c7af3fb", 2),
        ),
        (5442, 1080221, 7, 1, 1),
    ),
    9: (
        (
            (9, "051a5f77c0ae5945f9d6fd4da5e4fb136969207443c344080af3c0570a524757", 0),
            (9, "051a5f77c0ae5945f9d6fd4da5e4fb136969207443c344080af3c0570a524757", 0),
            (9, "051a5f77c0ae5945f9d6fd4da5e4fb136969207443c344080af3c0570a524757", 0),
            (9, "051a5f77c0ae5945f9d6fd4da5e4fb136969207443c344080af3c0570a524757", 0),
        ),
        (1486, 367564, 0, 0, 0),
    ),
}

GOLDEN: dict[str, tuple] = {
    "byzantine-primary": (
        (
            (12, "16e345977fc7139e07d90b6a2e7a687cc101e7ed0afaa08643691d43b07c1d45", 1),
            (12, "16e345977fc7139e07d90b6a2e7a687cc101e7ed0afaa08643691d43b07c1d45", 1),
            (12, "16e345977fc7139e07d90b6a2e7a687cc101e7ed0afaa08643691d43b07c1d45", 1),
            (12, "16e345977fc7139e07d90b6a2e7a687cc101e7ed0afaa08643691d43b07c1d45", 1),
        ),
        (645, 252060, 4, 0, 0),
    ),
    "quiet-depth-1": (
        (
            (12, "e38223534e9fb5579c33c339d5ee649c46bc5b5234a12405a77136bf970f54ac", 0),
            (12, "e38223534e9fb5579c33c339d5ee649c46bc5b5234a12405a77136bf970f54ac", 0),
            (12, "e38223534e9fb5579c33c339d5ee649c46bc5b5234a12405a77136bf970f54ac", 0),
            (12, "e38223534e9fb5579c33c339d5ee649c46bc5b5234a12405a77136bf970f54ac", 0),
        ),
        (612, 229068, 0, 0, 0),
    ),
    "quiet-depth-4": (
        (
            (12, "bfe0a035af08f8a4b66dc1a83e9c134ac5a8eaf3eb39d8535f1d35706f7d2fca", 0),
            (12, "bfe0a035af08f8a4b66dc1a83e9c134ac5a8eaf3eb39d8535f1d35706f7d2fca", 0),
            (12, "bfe0a035af08f8a4b66dc1a83e9c134ac5a8eaf3eb39d8535f1d35706f7d2fca", 0),
            (12, "bfe0a035af08f8a4b66dc1a83e9c134ac5a8eaf3eb39d8535f1d35706f7d2fca", 0),
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
