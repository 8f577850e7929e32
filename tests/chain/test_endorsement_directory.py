"""An endorsement is judged against the peer directory, and a peer takes
its own endorsement from its record.

A committing peer checks each endorsement of a unit against the key its
directory holds for the named peer — never a key the endorsement brings —
and counts it only if that peer is eligible and known, it signed the
unit's digest and its signature is that key's.  One it signed itself it
finds in its own record (``OwnEndorsements``) and does not verify again.
An endorsement that does not hold is not counted: it can neither carry a
unit nor veto one.  Each case runs on a network and, where it applies, on
``LocalChain``.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.chain import BlockchainNetwork, LocalChain
from repro.chain.block import Block
from repro.chain.contracts.endorsement import OWN_RECORD_LIMIT, EndorsementPolicy, OwnEndorsements
from repro.chain.peer import Admission, Peer
from repro.chain.transaction import Endorsement
from repro.core.identity import IdentityContract
from repro.crypto import KeyPair, ed25519
from repro.simnet import FixedLatency
from tests.chain.test_groups import KVContract
from tests.chain.test_unit_signatures import _endorse_local
from tests.conftest import CounterContract

ATTACKER = KeyPair.generate(random.Random(666))
EVIL = {"id:evil": {"verified": True, "role": "governance"}}
JUNK_SIGNATURE = "00" * 64


def _network() -> BlockchainNetwork:
    network = BlockchainNetwork(n_peers=4, consensus="pbft", block_interval=0.5,
                                latency=FixedLatency(0.02), seed=7, view_timeout=5.0)
    network.install_contract(IdentityContract)
    network.install_contract(KVContract)
    return network


def _reendorsed(tx, write_set, peer_id, keypair=ATTACKER):
    """*tx* with its write set swapped and a fresh endorsement of the new
    execution, signed by *keypair* under *peer_id*'s name."""
    swapped = dataclasses.replace(tx, write_set=write_set, endorsements=())
    endorsement = Endorsement.create(keypair, peer_id, tx.endorsed_id, swapped.endorsed_digest)
    return dataclasses.replace(swapped, endorsements=(endorsement,))


def _local_chain() -> LocalChain:
    chain = LocalChain(seed=4)
    chain.install_contract(IdentityContract())
    chain.install_contract(KVContract())
    return chain


@pytest.fixture
def uncached(monkeypatch):
    """Every ``(public key, message, signature)`` that reaches the curve."""
    items = []
    verify_uncached = ed25519._verify_uncached
    monkeypatch.setattr(ed25519, "_verify_uncached",
                        lambda *item: items.append(item) or verify_uncached(*item))
    return items


@pytest.fixture
def endorsement_checks(monkeypatch):
    """``node id -> endorsements it verified`` at commit, by signature."""
    checks: dict[str, list[str]] = {}
    committing: list[str | None] = [None]
    verify, commit = Endorsement.verify, Peer.commit_block

    def counting_verify(self, tx_id, public_key):
        checks.setdefault(committing[0], []).append(self.signature_hex)
        return verify(self, tx_id, public_key)

    def at_commit(self, block):
        outer, committing[0] = committing[0], self.node_id
        try:
            return commit(self, block)
        finally:
            committing[0] = outer

    monkeypatch.setattr(Endorsement, "verify", counting_verify)
    monkeypatch.setattr(Peer, "commit_block", at_commit)
    return checks


# -- a forged endorsement carries nothing ---------------------------------------


def test_a_write_set_re_endorsed_under_a_peers_name_commits_on_no_peer():
    """The probe: an honestly endorsed ``identity.register``, its write set
    swapped for a verified governance identity and re-endorsed by the
    client's own key under ``peer-0``'s name."""
    network = _network()
    client = network.client()
    honest = network.endorse_transaction(client, "identity", "register",
                                         {"display_name": "eve", "role": "journalist"})
    forged = _reendorsed(honest, EVIL, "peer-0")
    assert network.submit(forged) is Admission.ADMITTED  # admission checks client signatures
    network.run_for(5.0)
    network.stop()
    for peer in network.peers:
        receipt = peer.ledger.receipt(forged.tx_id)
        assert receipt is not None and not receipt.success
        assert receipt.error == f"tx {forged.tx_id[:12]}: bad endorsement signature from peer-0"
        assert peer.state.get("id:evil") is None


def test_a_write_set_re_endorsed_under_the_nodes_name_fails_on_a_local_chain():
    chain = _local_chain()
    (honest,) = _endorse_local(
        chain, [(chain.new_account(), "identity", "register",
                 {"display_name": "eve", "role": "journalist"})])
    for peer_id, why in ((chain.node_id, "bad endorsement signature from local-peer"),
                         ("peer-9", "endorser peer-9 is not a known peer")):
        (receipt,) = chain._commit([_reendorsed(honest, EVIL, peer_id)])
        assert not receipt.success and receipt.error == f"tx {honest.tx_id[:12]}: {why}"
        assert chain.state.get("id:evil") is None
    assert chain._commit([honest])[0].success


def test_an_endorser_outside_the_directory_is_not_counted():
    network = _network()
    client = network.client()
    honest = network.endorse_transaction(client, "kv", "put", {"key": "k", "value": "v"})
    # A correct signature of the right execution, by a peer nobody knows.
    stranger = Endorsement.create(ATTACKER, "peer-9", honest.tx_id, honest.endorsed_digest)
    block = Block.build(1, network.peers[0].ledger.head.block_hash, 0.0, "peer-1",
                        [dataclasses.replace(honest, endorsements=(stranger,))])
    for peer in network.peers:
        peer.commit_block(block)
        assert peer.ledger.block_validity(1) == [False]
        assert peer.ledger.receipt_at(1, 0).error.endswith("endorser peer-9 is not a known peer")
    network.stop()


# -- a junk endorsement vetoes nothing -------------------------------------------


def _junk(peer_id: str = "peer-2") -> Endorsement:
    return Endorsement(peer_id=peer_id, digest="ff" * 32, signature_hex=JUNK_SIGNATURE)


def test_a_junk_endorsement_appended_to_an_endorsed_unit_does_not_veto_it():
    """The probe: the honest unit with a junk endorsement appended keeps its
    id.  It used to commit invalid, and the honest copy then came back
    ``COMMITTED``: the write was lost."""
    network = _network()
    client = network.client()
    honest = network.endorse_transaction(client, "kv", "put", {"key": "k", "value": "v"})
    padded = dataclasses.replace(honest, endorsements=(*honest.endorsements, _junk()))
    assert padded.tx_id == honest.tx_id
    assert network.submit(padded) is Admission.ADMITTED
    network.run_for(5.0)
    network.stop()
    for peer in network.peers:
        assert peer.ledger.receipt(honest.tx_id).success
        assert peer.state.get("k") == "v"


def test_a_junk_endorsement_costs_no_curve_work(uncached):
    """Ahead of the honest one, the junk is passed over on its digest."""
    chain = _local_chain()
    (honest,) = _endorse_local(chain, [(chain.new_account(), "kv", "put",
                                        {"key": "k", "value": "v"})])
    junk_first = dataclasses.replace(
        honest, endorsements=(_junk(chain.node_id), _junk("peer-9"), *honest.endorsements))
    assert chain._commit([junk_first])[0].success
    assert [item for item in uncached if item[2] == bytes.fromhex(JUNK_SIGNATURE)] == []


def test_a_malformed_endorsement_is_passed_over_and_a_forged_tag_breaks_nothing():
    """What a client or a proposer builds may hold anything: a peer id
    that is no string, a signature that is no hex string, a group tag
    whose root is no string.  None of it raises out of the commit path."""
    chain = _local_chain()
    (honest,) = _endorse_local(chain, [(chain.new_account(), "kv", "put",
                                        {"key": "k", "value": "v"})])
    (mine,) = honest.endorsements
    odd = (dataclasses.replace(mine, peer_id=[chain.node_id]),
           dataclasses.replace(mine, signature_hex=None))
    (receipt,) = chain._commit([dataclasses.replace(honest, endorsements=odd)])
    assert receipt.error == f"tx {honest.tx_id[:12]}: malformed endorsement"
    assert chain._commit([dataclasses.replace(honest, endorsements=(*odd, mine))])[0].success
    stray = dataclasses.replace(honest, group=(["root"], 0, 2))
    (receipt,) = chain._commit([stray])
    assert receipt.error == "group member outside its complete group"


# -- a peer's own endorsement -------------------------------------------------------


def test_a_local_unit_verifies_each_client_signer_once_and_its_endorsement_never(uncached):
    chain = _local_chain()
    alice, bob = chain.new_account(), chain.new_account()
    chain.invoke(alice, "kv", "put", {"key": "warm", "value": "0"})  # point tables, base table
    for steps, signers in (
        ([(alice, "kv", "put", {"key": "a", "value": "1"})], {alice}),
        ([(alice, "kv", "put", {"key": "b", "value": "1"}),
          (alice, "kv", "put", {"key": "c", "value": "1"}),
          (bob, "kv", "put", {"key": "d", "value": "1"})], {alice, bob}),
    ):
        uncached.clear()
        receipts = chain.invoke_group(steps)
        assert all(receipt.success for receipt in receipts)
        assert sorted(item[0] for item in uncached) == sorted(k.public_key for k in signers)
        assert chain.keypair.public_key not in {item[0] for item in uncached}
        assert len(chain.own_endorsements) == 0  # taken when its unit committed


def test_on_four_peers_the_endorser_verifies_no_endorsement_and_the_others_do(
        endorsement_checks):
    network = _network()
    client = network.client()
    tx = network.endorse_transaction(client, "kv", "put", {"key": "k", "value": "v"})
    (endorsement,) = tx.endorsements
    assert endorsement.peer_id == "peer-0" and len(network.peers[0].own_endorsements) == 1
    network.submit(tx)
    network.run_for(5.0)
    network.stop()
    assert all(peer.ledger.receipt(tx.tx_id).success for peer in network.peers)
    assert "peer-0" not in endorsement_checks
    assert {node: checks for node, checks in endorsement_checks.items()} == {
        node: [endorsement.signature_hex] for node in ("peer-1", "peer-2", "peer-3")}
    assert len(network.peers[0].own_endorsements) == 0


@pytest.mark.parametrize("edit", ["signature", "digest"])
def test_an_own_endorsement_unlike_the_record_is_checked_and_refused(edit, uncached):
    """The committing node's own name on an endorsement buys nothing: one
    that differs from its record in signature is verified under the
    directory key, one that differs in digest is refused on it."""
    chain = _local_chain()
    alice = chain.new_account()
    (honest,) = _endorse_local(chain, [(alice, "kv", "put", {"key": "k", "value": "v"})])
    (mine,) = honest.endorsements
    assert chain.own_endorsements.holds(honest.tx_id, mine)
    flipped = bytearray.fromhex(mine.signature_hex)
    flipped[0] ^= 1
    other = {"signature": dataclasses.replace(mine, signature_hex=flipped.hex()),
             "digest": dataclasses.replace(mine, digest="ab" * 32)}[edit]
    uncached.clear()
    (receipt,) = chain._commit([dataclasses.replace(honest, endorsements=(other,))])
    assert not receipt.success
    why = {"signature": "bad endorsement signature from local-peer",
           "digest": "endorser local-peer signed a different execution"}[edit]
    assert why in receipt.error
    curve = [item for item in uncached if item[0] == chain.keypair.public_key]
    assert len(curve) == (1 if edit == "signature" else 0)


def test_after_a_restart_a_peer_verifies_its_own_endorsement(endorsement_checks):
    """A restart wipes the record: the endorser's commit then checks its
    endorsement under its directory key like any other peer, and it holds."""
    network = _network()
    client = network.client()
    tx = network.endorse_transaction(client, "kv", "put", {"key": "k", "value": "v"})
    endorser = network.peers[0]
    endorser.restart()
    assert len(endorser.own_endorsements) == 0
    network.submit(tx)
    network.run_for(8.0)
    network.stop()
    assert all(peer.ledger.receipt(tx.tx_id).success for peer in network.peers)
    assert endorsement_checks["peer-0"] == [tx.endorsements[0].signature_hex]


def test_a_joined_peer_replays_endorsed_blocks_and_its_own_endorsement_holds_everywhere(
        endorsement_checks):
    network = _network()
    client = network.client()
    for key in ("a", "b"):
        network.submit(network.endorse_transaction(client, "kv", "put",
                                                   {"key": key, "value": "v"}))
        network.run_for(1.5)
    joiner = network.join_peer()
    heights = range(1, network.peers[1].ledger.height + 1)
    assert [joiner.ledger.block_validity(h) for h in heights] == [
        network.peers[1].ledger.block_validity(h) for h in heights]
    assert all(all(joiner.ledger.block_validity(h)) for h in heights)
    # Only the joiner may endorse this contract: every peer takes its
    # endorsement on the key the shared directory got at the join.
    network.install_contract(CounterContract, EndorsementPolicy(endorsers=(joiner.node_id,)))
    tx = network.endorse_transaction(client, "counter", "increment", {"amount": 1})
    assert [e.peer_id for e in tx.endorsements] == [joiner.node_id]
    endorsement_checks.clear()
    network.submit(tx)
    network.run_for(5.0)
    network.stop()
    assert all(peer.ledger.receipt(tx.tx_id).success for peer in network.peers)
    assert joiner.node_id not in endorsement_checks
    assert sorted(endorsement_checks) == [f"peer-{i}" for i in range(4)]


def test_the_record_is_bounded_and_forgets_its_oldest_first():
    own = OwnEndorsements()
    entries = [Endorsement(f"p{i}", "d", f"{i:02x}") for i in range(OWN_RECORD_LIMIT + 2)]
    for i, endorsement in enumerate(entries):
        own.add(f"unit-{i}", endorsement)
    assert len(own) == OWN_RECORD_LIMIT
    assert not own.holds("unit-0", entries[0]) and not own.holds("unit-1", entries[1])
    assert own.holds(f"unit-{OWN_RECORD_LIMIT + 1}", entries[-1])
