"""Golden PBFT runs: what consensus leaves on the wire and on the ledgers.

A run's fingerprint is every peer's ``(height, head hash, view)`` and the
network's totals of messages and bytes sent, view changes, lock
re-proposals and lock refusals.  A refactor of the engine that keeps the
protocol must keep every fingerprint below exactly: a different head hash
means a different block, a different message count a different exchange.
A change to what a transaction carries moves head hashes and bytes only,
and a change to what a sync statement carries bytes only (the last two:
endorsements, then sync statements, stopped carrying their signer's key).

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
            (10, "2ed5f13af531776fabcab5c4190e8781b889cc8a566e48179ff6ceec10dc4783", 0),
            (10, "2ed5f13af531776fabcab5c4190e8781b889cc8a566e48179ff6ceec10dc4783", 0),
            (10, "2ed5f13af531776fabcab5c4190e8781b889cc8a566e48179ff6ceec10dc4783", 0),
            (10, "2ed5f13af531776fabcab5c4190e8781b889cc8a566e48179ff6ceec10dc4783", 0),
        ),
        (1552, 348604, 0, 0, 0),
    ),
    1: (
        (
            (6, "bb6512d3a05bde308266f5109c1aed4b85794c0b709d56c78c7c0fd6a635aa43", 0),
            (6, "bb6512d3a05bde308266f5109c1aed4b85794c0b709d56c78c7c0fd6a635aa43", 0),
            (6, "bb6512d3a05bde308266f5109c1aed4b85794c0b709d56c78c7c0fd6a635aa43", 0),
            (6, "bb6512d3a05bde308266f5109c1aed4b85794c0b709d56c78c7c0fd6a635aa43", 0),
        ),
        (1548, 327761, 0, 0, 0),
    ),
    2: (
        (
            (11, "c340b38e7fada6e4c1614c5bce65d4b8dc4586518ebd862200765ca36d0704e8", 2),
            (11, "c340b38e7fada6e4c1614c5bce65d4b8dc4586518ebd862200765ca36d0704e8", 2),
            (11, "c340b38e7fada6e4c1614c5bce65d4b8dc4586518ebd862200765ca36d0704e8", 2),
            (11, "c340b38e7fada6e4c1614c5bce65d4b8dc4586518ebd862200765ca36d0704e8", 2),
        ),
        (6249, 1153881, 8, 0, 0),
    ),
    3: (
        (
            (10, "6c9b2fdf4c8585bd8dff86f2ef4171cc0802c6ad6d2d06ca7a8b10437cd74921", 1),
            (10, "6c9b2fdf4c8585bd8dff86f2ef4171cc0802c6ad6d2d06ca7a8b10437cd74921", 1),
            (10, "6c9b2fdf4c8585bd8dff86f2ef4171cc0802c6ad6d2d06ca7a8b10437cd74921", 1),
            (10, "6c9b2fdf4c8585bd8dff86f2ef4171cc0802c6ad6d2d06ca7a8b10437cd74921", 1),
        ),
        (1360, 317194, 4, 0, 0),
    ),
    4: (
        (
            (7, "1c08687f922b5e09c9bf4c03fec1e854e639366698a4883c9abfd06859124697", 0),
            (7, "1c08687f922b5e09c9bf4c03fec1e854e639366698a4883c9abfd06859124697", 1),
            (7, "1c08687f922b5e09c9bf4c03fec1e854e639366698a4883c9abfd06859124697", 1),
            (7, "1c08687f922b5e09c9bf4c03fec1e854e639366698a4883c9abfd06859124697", 1),
        ),
        (1298, 327765, 3, 0, 0),
    ),
    5: (
        (
            (5, "abc33ff9e207749b3e481e1995ea1e6bb99c93e507bd501865e04f65840a9446", 10),
            (5, "abc33ff9e207749b3e481e1995ea1e6bb99c93e507bd501865e04f65840a9446", 10),
            (5, "abc33ff9e207749b3e481e1995ea1e6bb99c93e507bd501865e04f65840a9446", 10),
            (5, "abc33ff9e207749b3e481e1995ea1e6bb99c93e507bd501865e04f65840a9446", 10),
        ),
        (1703, 386302, 38, 1, 0),
    ),
    6: (
        (
            (6, "8c1c1d68231a6e510655436bd4554f31657cdae2866f7de1a8018faf5ef5313d", 2),
            (6, "8c1c1d68231a6e510655436bd4554f31657cdae2866f7de1a8018faf5ef5313d", 2),
            (6, "8c1c1d68231a6e510655436bd4554f31657cdae2866f7de1a8018faf5ef5313d", 2),
            (6, "8c1c1d68231a6e510655436bd4554f31657cdae2866f7de1a8018faf5ef5313d", 2),
        ),
        (1922, 417962, 8, 1, 0),
    ),
    7: (
        (
            (10, "d0ee8b3c568f28e9e3f227681e402407e643255912b39936b0c60d6eae0d2c20", 2),
            (10, "d0ee8b3c568f28e9e3f227681e402407e643255912b39936b0c60d6eae0d2c20", 2),
            (10, "d0ee8b3c568f28e9e3f227681e402407e643255912b39936b0c60d6eae0d2c20", 2),
            (10, "d0ee8b3c568f28e9e3f227681e402407e643255912b39936b0c60d6eae0d2c20", 2),
        ),
        (4941, 952483, 7, 1, 1),
    ),
    8: (
        (
            (8, "7dc6547f887da338b8d437d89427d171410840c04698828a33073e47a853064d", 2),
            (8, "7dc6547f887da338b8d437d89427d171410840c04698828a33073e47a853064d", 2),
            (8, "7dc6547f887da338b8d437d89427d171410840c04698828a33073e47a853064d", 2),
            (8, "7dc6547f887da338b8d437d89427d171410840c04698828a33073e47a853064d", 2),
        ),
        (5442, 1036374, 7, 1, 1),
    ),
    9: (
        (
            (9, "fa9b3f9d8da1b79d8dfa05c2e54721872ef98d9fbdd78a4d0e318e3458b76a83", 0),
            (9, "fa9b3f9d8da1b79d8dfa05c2e54721872ef98d9fbdd78a4d0e318e3458b76a83", 0),
            (9, "fa9b3f9d8da1b79d8dfa05c2e54721872ef98d9fbdd78a4d0e318e3458b76a83", 0),
            (9, "fa9b3f9d8da1b79d8dfa05c2e54721872ef98d9fbdd78a4d0e318e3458b76a83", 0),
        ),
        (1486, 334332, 0, 0, 0),
    ),
}

GOLDEN: dict[str, tuple] = {
    "byzantine-primary": (
        (
            (12, "c54d6291493388d633bd3287acf7009195367ad76c1b7ce01effd650c79c82ca", 1),
            (12, "c54d6291493388d633bd3287acf7009195367ad76c1b7ce01effd650c79c82ca", 1),
            (12, "c54d6291493388d633bd3287acf7009195367ad76c1b7ce01effd650c79c82ca", 1),
            (12, "c54d6291493388d633bd3287acf7009195367ad76c1b7ce01effd650c79c82ca", 1),
        ),
        (645, 229428, 4, 0, 0),
    ),
    "quiet-depth-1": (
        (
            (12, "c86f4e98bf1d49f1ff1cf1298fcfa29dc8dff57cb70b554af49b6c10e39e469e", 0),
            (12, "c86f4e98bf1d49f1ff1cf1298fcfa29dc8dff57cb70b554af49b6c10e39e469e", 0),
            (12, "c86f4e98bf1d49f1ff1cf1298fcfa29dc8dff57cb70b554af49b6c10e39e469e", 0),
            (12, "c86f4e98bf1d49f1ff1cf1298fcfa29dc8dff57cb70b554af49b6c10e39e469e", 0),
        ),
        (612, 207972, 0, 0, 0),
    ),
    "quiet-depth-4": (
        (
            (12, "94b36dd9b877dcef274981522e54344d3affce85b093722d183e56ef18d30e25", 0),
            (12, "94b36dd9b877dcef274981522e54344d3affce85b093722d183e56ef18d30e25", 0),
            (12, "94b36dd9b877dcef274981522e54344d3affce85b093722d183e56ef18d30e25", 0),
            (12, "94b36dd9b877dcef274981522e54344d3affce85b093722d183e56ef18d30e25", 0),
        ),
        (612, 207972, 0, 0, 0),
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
