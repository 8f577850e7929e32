"""One write path: a transaction on its own is a unit of one.

``invoke`` is ``invoke_group`` of one step, ``endorse_transaction`` is
``endorse_group`` of one step, and a unit of any size is simulated and
signed by one ``Peer.endorse``, handed in by one ``submit(tx, *siblings)``,
gossiped under one message kind and judged by one ``commit._judge``.  These
tests pin what the single-transaction path promised before it stopped being
a second implementation — the bytes on the chain, on the wire and in the
WAL — and two things the twin paths disagreed on: whether an aborted
simulation is signed, and what a batch of signatures crafted to cancel in a
combined check is worth.
"""

from __future__ import annotations

import random

import pytest

from repro.chain import BlockchainNetwork, LocalChain, NetworkedChain
from repro.chain.block import Block
from repro.chain.peer import Admission
from repro.chain.store.codec import encode_record
from repro.crypto import KeyPair, ed25519
from repro.errors import ContractError
from repro.simnet import UniformLatency
from repro.simnet.network import _WIRE_OVERHEAD, estimate_payload_size
from tests.chain.test_groups import KVContract, _network
from tests.conftest import CounterContract, OrderTwoKeyPair


# -- invoke is invoke_group of one step ----------------------------------------


def _local() -> LocalChain:
    return LocalChain(seed=7)


def _networked() -> NetworkedChain:
    return NetworkedChain(BlockchainNetwork(
        n_peers=4, consensus="pbft", block_interval=0.25, storage="durable",
        latency=UniformLatency(0.01, 0.04), seed=7, view_timeout=4.0))


def _drive(chain, one_step):
    """The same seeded writes, each through *one_step*; what they left behind."""
    for contract in (CounterContract(), KVContract()):
        chain.install_contract(contract)
    accounts = [chain.new_account() for _ in range(3)]
    receipts = []
    for i in range(8):
        account = accounts[i % 3]
        receipts.append(one_step(chain, (account, "counter", "increment", {"amount": i + 1})))
        receipts.append(one_step(chain, (account, "kv", "put", {"key": f"k{i}", "value": "v"})))
        chain.advance_time(0.5)
    with pytest.raises(ContractError, match="deliberate failure"):
        one_step(chain, (accounts[0], "counter", "fail", None))
    if isinstance(chain, LocalChain):
        ledger = chain.ledger
        wal = [encode_record(
            ledger.block(h), ledger.block_validity(h),
            [ledger.receipt_at(h, i).error for i in range(len(ledger.block(h)))])
            for h in range(1, ledger.height + 1)]
    else:
        chain.network.stop()
        wal = [{name: peer.disk.read(name) for name in peer.disk.names()}
               for peer in chain.network.peers]
        assert all(files for files in wal)
    return chain.ledger.head.block_hash, receipts, wal


@pytest.mark.parametrize("make_chain", [_local, _networked], ids=["local", "pbft-durable"])
def test_invoke_and_a_group_of_one_step_leave_the_same_bytes(make_chain):
    via_invoke = _drive(make_chain(), lambda chain, step: chain.invoke(*step))
    via_group = _drive(make_chain(), lambda chain, step: chain.invoke_group([step])[0])
    assert via_invoke[0] == via_group[0]          # head hash
    assert via_invoke[1] == via_group[1] and len(via_invoke[1]) == 16
    assert via_invoke[2] == via_group[2]          # WAL bytes (every peer's files)


def test_a_unit_of_one_is_an_untagged_transaction_under_its_own_id():
    network = _network()
    client = network.client()
    (alone,) = network.endorse_group([(client, "counter", "increment", {"amount": 1})])
    assert alone.group is None and alone.endorsed_id == alone.tx_id
    # The endorsement signs the member's own rw-set digest, as it always did.
    assert [e.digest for e in alone.endorsements] == [alone.rwset_digest]
    assert alone.endorsements[0].verify(alone.tx_id)
    pair = network.endorse_group([(client, "counter", "increment", {"amount": 1})] * 2)
    assert pair[0].endorsements[0].digest not in {tx.rwset_digest for tx in pair}
    # Every member starts with the digest its endorser hashed.
    assert all("_rwset_digest" in vars(tx) for tx in (alone, *pair))


# -- one gossip kind, and a unit of one costs what the bare transaction did ------


def test_units_of_one_and_three_gossip_under_one_kind_at_the_old_price(monkeypatch):
    network = _network()
    client = network.client()
    sent = []
    transmit = network.net.transmit

    def recording(src, dst, kind, payload, _size=None):
        sent.append((kind, payload))
        return transmit(src, dst, kind, payload, _size=_size)

    monkeypatch.setattr(network.net, "transmit", recording)
    entry = network.peers[0]
    for size in (1, 3):
        txs = network.endorse_group(
            [(client, "kv", "put", {"key": f"k{size}-{i}", "value": "v"}) for i in range(size)])
        before = network.net.stats.bytes_estimate
        assert entry.submit(*txs) is Admission.ADMITTED
        charged = network.net.stats.bytes_estimate - before
        # What a bare transaction cost at 5ed0c33: overhead + "tx-gossip" + its
        # own wire size, to each of the three other peers; a tuple adds nothing.
        assert charged == 3 * (_WIRE_OVERHEAD + len("tx-gossip")
                               + sum(estimate_payload_size(tx) for tx in txs))
        assert estimate_payload_size(txs) == sum(estimate_payload_size(tx) for tx in txs)
    assert {kind for kind, _ in sent} == {"tx-gossip"}
    assert sorted({len(payload) for _, payload in sent}) == [1, 3]
    network.run_for(3.0)
    network.stop()
    assert all(peer.ledger.height >= 1 and len(peer.mempool) == 0 for peer in network.peers)


# -- an aborted simulation is not signed ----------------------------------------


def test_an_aborted_simulation_is_not_signed(monkeypatch):
    signers: list[str] = []
    sign = KeyPair.sign

    def counting(self, message):
        signers.append(self.address)
        return sign(self, message)

    monkeypatch.setattr(KeyPair, "sign", counting)
    network = _network()
    client = network.client()
    with pytest.raises(ContractError, match="deliberate failure"):
        network.endorse_transaction(client, "counter", "fail", {})
    assert signers == [client.address]            # the proposal; no endorser signed
    del signers[:]
    with pytest.raises(ContractError, match="deliberate failure"):
        network.endorse_group([
            (client, "counter", "increment", {"amount": 1}),
            (client, "counter", "fail", {}),
            (client, "counter", "increment", {"amount": 1}),
        ])
    assert signers == [client.address] * 3
    del signers[:]
    chain = LocalChain(seed=1)
    chain.install_contract(CounterContract())
    account = chain.new_account()
    with pytest.raises(ContractError, match="deliberate failure"):
        chain.invoke(account, "counter", "fail")
    assert signers == [account.address]
    # A simulation that runs to its end is signed once per endorser asked.
    del signers[:]
    network.endorse_transaction(client, "counter", "increment", {"amount": 1})
    assert signers == [client.address, network.peers[0].keypair.address]


# -- a signature has one verdict, whatever the caches hold ------------------------


@pytest.mark.parametrize("seen", [False, True], ids=["cold", "seen"])
def test_a_group_signed_to_cancel_in_a_combined_check_is_invalid_everywhere(seen):
    """Two fresh clients sign the two members of a group, each signature
    off by the point of order 2.  A peer whose point cache had never seen
    the keys used to admit the group and commit it valid; one that had,
    refused it."""
    network = _network(consensus="poa")           # never run: blocks committed by hand
    forgers = [network.client(OrderTwoKeyPair.generate(random.Random(tag)))
               for tag in ("f1", "f2")]
    txs = network.endorse_group(
        [(forger, "kv", "put", {"key": f"k{i}", "value": "v"})
         for i, forger in enumerate(forgers)])
    assert [tx.verify_signature() for tx in txs] == [False, False]

    def caches():
        ed25519.verify_cache_clear()
        ed25519.point_cache_clear()
        if seen:
            for tx in txs:
                assert not ed25519.verify(*tx.signature_item())
            ed25519.verify_cache_clear()

    entry, validator = network.peers[0], network.peers[1]
    caches()
    assert entry.submit(*txs, gossip=False) is Admission.INVALID
    assert len(entry.mempool) == 0
    # A primary orders the run regardless; every validator judges it.
    block = Block.build(1, validator.ledger.head.block_hash, 0.0, validator.node_id, txs)
    caches()
    validator.commit_block(block)
    assert validator.ledger.block_validity(1) == [False, False]
    assert all("bad signature" in validator.ledger.receipt_at(1, i).error for i in range(2))
    assert validator.state.get("k0") is None
