"""A group is signed once per signer, and a member is authenticated only
as part of its unit.

Each signer of a group signs ``unit_message(root)`` once, and all of its
members carry that signature.  A member's signature therefore says
nothing about the member by itself: what ties the member's proposal to the
signed root is ``group_run``, which admission (``Peer.submit``) and the
commit path (``commit._judge``, shared by ``LocalChain`` and every peer)
both apply.  Every forgery below passes some per-transaction check and is
still refused at both stations, on a network and on ``LocalChain``.  The
last test counts what one publish costs.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.chain import BlockchainNetwork, LocalChain, NetworkedChain
from repro.chain.block import Block
from repro.chain.contracts.endorsement import gather_endorsements
from repro.chain.peer import Admission, Peer, simulate_and_sign
from repro.chain.store.codec import decode_record, encode_record
from repro.chain.transaction import check_signatures, create_group, unit_message
from repro.core.platform import TrustingNewsPlatform
from repro.crypto import KeyPair, ed25519
from repro.crypto.hashing import sha256_hex
from repro.simnet import FixedLatency
from tests.chain.test_groups import KVContract, _network
from tests.conftest import LengthScorer


def _resigned(keypair: KeyPair, message: bytes, nonce: int) -> bytes:
    """A second valid Ed25519 signature of *message* by *keypair*: the same
    equation as ``ed25519.sign`` under another nonce, which is the signer's
    own choice."""
    a, _, public = ed25519._secret_expand(keypair.seed)
    r_bytes = ed25519._ladder([ed25519._base_points(nonce)])
    h = int.from_bytes(ed25519._sha512(r_bytes + public + message), "little") % ed25519._L
    return r_bytes + int.to_bytes((nonce + h * a) % ed25519._L, 32, "little")


def _steps(alice, bob, key: str):
    """Two members by *alice*, one by *bob*: two signers, three members."""
    return [(alice, "kv", "put", {"key": f"{key}-0", "value": "a"}),
            (alice, "kv", "put", {"key": f"{key}-1", "value": "a"}),
            (bob, "kv", "put", {"key": f"{key}-2", "value": "b"})]


def _forge(kind: str, unit, other, alice: KeyPair):
    """A forged version of the endorsed *unit*; *other* is another unit
    endorsed with the same signers."""
    a, b, c = unit
    if kind == "edited-args":
        # The id is recomputed, so the member's own bindings hold and the
        # signature over the root verifies: only the root no longer matches.
        edited = dataclasses.replace(b, args={**b.args, "value": "forged"})
        edited = dataclasses.replace(edited, tx_id=sha256_hex(edited._proposal()))
        assert edited.verify_signature()
        return [a, edited, c]
    if kind == "signature-from-another-unit":
        lifted = other[0].signature_hex
        return [dataclasses.replace(a, signature_hex=lifted),
                dataclasses.replace(b, signature_hex=lifted), c]
    if kind == "member-alone":
        assert b.verify_signature()  # its signer did sign that root
        return [b]
    if kind == "two-signatures-by-one-signer":
        message = unit_message(b.group[0])
        second = _resigned(alice, message, nonce=12345)
        assert second.hex() != b.signature_hex
        assert ed25519.verify(alice.public_key, message, second)
        return [a, dataclasses.replace(b, signature_hex=second.hex()), c]
    raise AssertionError(kind)


KINDS = ["edited-args", "signature-from-another-unit", "member-alone",
         "two-signatures-by-one-signer"]


@pytest.mark.parametrize("kind", KINDS)
def test_a_forged_member_is_refused_at_admission(kind):
    network = _network()
    alice, bob = network.client(), network.client()
    unit = network.endorse_group(_steps(alice, bob, "k"))
    other = network.endorse_group(_steps(alice, bob, "o"))
    forged = _forge(kind, unit, other, alice.keypair)
    for peer in network.peers:
        assert peer.submit(*forged, gossip=False) is Admission.INVALID
        assert len(peer.mempool) == 0
    assert network.peers[0].submit(*unit) is Admission.ADMITTED
    network.stop()


@pytest.mark.parametrize("kind", KINDS)
def test_a_forged_member_is_judged_invalid_in_a_block_on_every_peer(kind):
    network = _network(consensus="poa")       # never run: blocks are committed by hand
    alice, bob = network.client(), network.client()
    unit = network.endorse_group(_steps(alice, bob, "k"))
    other = network.endorse_group(_steps(alice, bob, "o"))
    forged = _forge(kind, unit, other, alice.keypair)
    head = network.peers[0].ledger.head
    block = Block.build(1, head.block_hash, 0.0, "peer-0", forged)
    for peer in network.peers:
        peer.commit_block(block)
        assert peer.ledger.block_validity(1) == [False] * len(forged)
        assert peer.state.get("k-0") is None
    honest = Block.build(2, block.block_hash, 0.0, "peer-0", list(unit))
    for peer in network.peers:
        peer.commit_block(honest)
        assert peer.ledger.block_validity(2) == [True] * 3


def _endorse_local(chain: LocalChain, steps):
    """What ``LocalChain.invoke_group`` commits, stopped before the commit."""
    txs = create_group([(keypair, contract, method, args, chain._next_nonce(keypair))
                        for keypair, contract, method, args in steps], chain.now)
    outcome = simulate_and_sign(chain.registry, chain.state, chain.keypair, chain.node_id, txs,
                                chain.own_endorsements)
    return tuple(gather_endorsements(txs, [outcome], 1))


@pytest.mark.parametrize("kind", KINDS)
def test_a_forged_member_is_judged_invalid_on_a_local_chain(kind):
    chain = LocalChain(seed=3)
    chain.install_contract(KVContract())
    alice, bob = chain.new_account(), chain.new_account()
    unit = _endorse_local(chain, _steps(alice, bob, "k"))
    other = _endorse_local(chain, _steps(alice, bob, "o"))
    forged = _forge(kind, unit, other, alice)
    receipts = chain._commit(forged)
    assert [r.success for r in receipts] == [False] * len(forged)
    assert chain.ledger.block_validity(1) == [False] * len(forged)
    assert chain.state.get("k-0") is None
    assert [r.success for r in chain._commit(list(unit))] == [True] * 3


def test_a_signer_signs_a_group_once_and_every_member_carries_it():
    network = _network()
    alice, bob = network.client(), network.client()
    a, b, c = network.endorse_group(_steps(alice, bob, "k"))
    message = unit_message(a.group[0])
    assert a.signature_hex == b.signature_hex != c.signature_hex
    assert a.signature_item() == b.signature_item() == (
        alice.keypair.public_key, message, bytes.fromhex(a.signature_hex))
    assert c.signature_item()[1] == message
    # Three ids, each the hash of its own tagged proposal.
    assert len({a.tx_id, b.tx_id, c.tx_id}) == 3
    assert all(sha256_hex(tx._proposal()) == tx.tx_id for tx in (a, b, c))
    # A member read back from the WAL derives the same triple from its fields.
    block = Block.build(1, "ab" * 32, 0.0, "peer-0", [a, b, c])
    decoded = decode_record(encode_record(block, [True] * 3))[0].transactions
    assert "_signature_item" not in vars(decoded[1])
    assert [tx.signature_item() for tx in decoded] == [tx.signature_item() for tx in (a, b, c)]
    assert check_signatures(decoded) is None
    network.stop()


def test_one_publish_signs_two_client_signatures_and_the_entry_peer_verifies_three(
        monkeypatch):
    """A publish is a unit of four (submit_draft, start_review and
    record_node by the journalist, publish by the owner): two signers, so
    two client signatures, plus the one endorsement.  The peer the unit is
    handed to checks each distinct signature once per station: the two
    client ones at admission and again at commit.  It is the endorser
    here, so it takes the endorsement from its own record and verifies
    it nowhere; any other peer would verify it at commit, a third."""
    chain = NetworkedChain(BlockchainNetwork(
        n_peers=4, consensus="pbft", block_interval=0.2, latency=FixedLatency(0.01), seed=0))
    platform = TrustingNewsPlatform(seed=0, chain=chain, scorer=LengthScorer())
    platform.register_participant("acme", role="publisher")
    platform.create_distribution_platform("acme", "acme-news")
    platform.create_news_room("acme", "acme-news", "desk", "politics")
    platform.register_participant("jane", role="journalist")
    platform.authenticate_journalist("acme-news", "jane")
    network = chain.network

    signed: list[tuple[str, bytes]] = []
    sign = KeyPair.sign

    def counting_sign(self, message):
        signed.append((self.address, message))
        return sign(self, message)

    station: list[tuple[str, str] | None] = [None]
    verified: list[tuple[tuple[str, str], tuple[bytes, bytes, bytes]]] = []
    verify = ed25519.verify

    def counting_verify(public_key, message, signature):
        if station[0] is not None:
            verified.append((station[0], (public_key, message, signature)))
        return verify(public_key, message, signature)

    def at_station(name, method):
        def wrapped(self, *args, **kwargs):
            outer, station[0] = station[0], (self.node_id, name)
            try:
                return method(self, *args, **kwargs)
            finally:
                station[0] = outer
        return wrapped

    monkeypatch.setattr(KeyPair, "sign", counting_sign)
    monkeypatch.setattr(ed25519, "verify", counting_verify)
    monkeypatch.setattr(Peer, "submit", at_station("admission", Peer.submit))
    monkeypatch.setattr(Peer, "commit_block", at_station("commit", Peer.commit_block))
    published = platform.publish_article(
        "jane", "acme-news", "desk", "a1", "the council approved the budget on monday",
        "politics")
    monkeypatch.undo()
    network.stop()
    assert published.receipt.success

    peers = {peer.keypair.address for peer in network.peers}
    client_signs = [address for address, _ in signed if address not in peers]
    endorsements = [(address, message) for address, message in signed
                    if address in peers and not message.startswith(b"sync-")]
    assert sorted(client_signs) == sorted(
        [platform.address_of("jane"), platform._owner_key("acme-news").address])
    assert len(endorsements) == 1

    entry = verified[0][0][0]
    (endorser,) = [peer.node_id for peer in network.peers
                   if peer.keypair.address == endorsements[0][0]]
    at_entry = [(name, triple) for (node, name), triple in verified if node == entry]
    admission = [triple for name, triple in at_entry if name == "admission"]
    commit = [triple for name, triple in at_entry if name == "commit"]
    assert len(admission) == len(set(admission)) == 2
    assert entry == endorser  # on this seed the unit enters at its endorser
    assert len(commit) == len(set(commit)) == 2
    assert set(admission) == set(commit)
    assert len({triple for _, triple in at_entry}) == 2
