"""Signed transactions and their lifecycle artifacts.

The chain follows Hyperledger Fabric's *execute–order–validate* model,
which the paper's platform builds on (its refs [45], [54]):

1. A client signs a **proposal** (contract, method, args).
2. Endorsing peers *execute* it against their current state, producing a
   read set (keys + versions) and a write set; they sign the result.
3. The ordering service batches endorsed transactions into blocks.
4. Every peer *validates* each transaction's read set against current
   state versions (MVCC) and applies the write set only if it is fresh.

The transaction id is the hash of the proposal alone, so a transaction
is identifiable before endorsement and the id cannot be changed by a
malicious endorser.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Sequence

from repro.crypto.hashing import hash_json, sha256_hex
from repro.crypto.keys import KeyPair, address_from_public_key, verify_signature
from repro.errors import InvalidTransactionError
from repro.simnet.network import WireSized

__all__ = [
    "Transaction",
    "Endorsement",
    "ReadSet",
    "WriteSet",
    "TxReceipt",
    "signature_items",
    "create_group",
    "group_digest",
    "group_run",
]

# A read set maps key -> version observed during simulated execution.
ReadSet = dict[str, int]
# A write set maps key -> new value (None encodes deletion).
WriteSet = dict[str, Any]
# What a member of a group signs beside its proposal: the group's root
# (the digest of every member's untagged proposal, in order), the
# member's position and the group's size.  A unit of one has no tag.
GroupTag = tuple[str, int, int]


def _proposal_payload(
    sender: str, contract: str, method: str, args: dict[str, Any], nonce: int, timestamp: float,
    group: "GroupTag | None" = None,
) -> bytes:
    body = {
        "sender": sender,
        "contract": contract,
        "method": method,
        "args": args,
        "nonce": nonce,
        "timestamp": timestamp,
    }
    if group is not None:
        body["group"] = group
    return json.dumps(body, sort_keys=True, separators=(",", ":"), default=str).encode("utf-8")


def rwset_digest(read_set: ReadSet, write_set: WriteSet) -> str:
    """Digest endorsers sign: commits them to one simulated execution."""
    return hash_json({"reads": read_set, "writes": write_set})


@dataclass(frozen=True)
class Endorsement:
    """One endorsing peer's signature over (tx_id, rw-set digest) — for a
    group, over (root, digest of its members' rw-set digests)."""

    peer_id: str
    public_key_hex: str
    digest: str
    signature_hex: str

    def verify(self, tx_id: str) -> bool:
        item = self.signature_item(tx_id)
        if item is None:
            return False
        return verify_signature(*item)

    def signature_item(self, tx_id: str) -> tuple[bytes, bytes, bytes] | None:
        """The ``(public_key, message, signature)`` triple :meth:`verify`
        checks, for batch verification; ``None`` if the hex fields don't
        decode (in which case :meth:`verify` is ``False`` anyway)."""
        try:
            public_key = bytes.fromhex(self.public_key_hex)
            signature = bytes.fromhex(self.signature_hex)
        except ValueError:
            return None
        return (public_key, f"{tx_id}:{self.digest}".encode("utf-8"), signature)

    @classmethod
    def create(cls, keypair: KeyPair, peer_id: str, tx_id: str, digest: str) -> "Endorsement":
        message = f"{tx_id}:{digest}".encode("utf-8")
        return cls(
            peer_id=peer_id,
            public_key_hex=keypair.public_key.hex(),
            digest=digest,
            signature_hex=keypair.sign(message).hex(),
        )


@dataclass(frozen=True)
class Transaction(WireSized):
    """A signed contract invocation, optionally carrying endorsements.

    Immutable, so what is derived from its fields alone — the signing
    payload (:meth:`signature_item`), :attr:`rwset_digest`, the wire size
    — is derived once and remembered on the object (DESIGN.md, "What an
    immutable chain object may remember").  ``dataclasses.replace``, the
    store codec and direct construction build a new object with nothing
    remembered, so a tampered copy is always judged on its own fields.
    ``args`` / ``read_set`` / ``write_set`` are frozen by contract, not by
    type: nothing may write to them once the transaction exists.
    """

    sender: str
    public_key_hex: str
    contract: str
    method: str
    args: dict[str, Any]
    nonce: int
    timestamp: float
    signature_hex: str
    tx_id: str
    read_set: ReadSet = field(default_factory=dict)
    write_set: WriteSet = field(default_factory=dict)
    endorsements: tuple[Endorsement, ...] = ()
    events: tuple[dict[str, Any], ...] = ()
    return_value: Any = None
    #: ``(root, position, size)`` for a member of a group (see
    #: :func:`create_group`), part of what the sender signs; ``None`` for
    #: a transaction on its own, whose bytes do not mention it.
    group: GroupTag | None = field(default=None, metadata={"wire_omit_none": True})

    @classmethod
    def create(
        cls,
        keypair: KeyPair,
        contract: str,
        method: str,
        args: dict[str, Any] | None = None,
        nonce: int = 0,
        timestamp: float = 0.0,
        group: GroupTag | None = None,
    ) -> "Transaction":
        """Build and sign a proposal (steps before endorsement)."""
        args = args or {}
        payload = _proposal_payload(
            keypair.address, contract, method, args, nonce, timestamp, group
        )
        signature = keypair.sign(payload)
        tx = cls(
            sender=keypair.address,
            public_key_hex=keypair.public_key.hex(),
            contract=contract,
            method=method,
            args=args,
            nonce=nonce,
            timestamp=timestamp,
            signature_hex=signature.hex(),
            tx_id=sha256_hex(payload),
            group=group,
        )
        object.__setattr__(tx, "_signature_item", (keypair.public_key, payload, signature))
        return tx

    def verify_signature(self) -> bool:
        """Check the client signature and that sender matches the key."""
        item = self.signature_item()
        if item is None:
            return False
        public_key, payload, signature = item
        if address_from_public_key(public_key) != self.sender:
            return False
        if sha256_hex(payload) != self.tx_id:
            return False
        return verify_signature(public_key, payload, signature)

    def signature_item(self) -> tuple[bytes, bytes, bytes] | None:
        """The client-signature ``(public_key, message, signature)``
        triple, for batch verification; ``None`` if the hex fields don't
        decode.  Address/tx-id binding is NOT checked here — those are
        cheap equality checks :meth:`verify_signature` still performs.
        Derived on first use and remembered (see the class docstring)."""
        item = self.__dict__.get("_signature_item")
        if item is None:
            try:
                public_key = bytes.fromhex(self.public_key_hex)
                signature = bytes.fromhex(self.signature_hex)
            except ValueError:
                return None
            payload = _proposal_payload(
                self.sender, self.contract, self.method, self.args, self.nonce,
                self.timestamp, self.group,
            )
            item = (public_key, payload, signature)
            object.__setattr__(self, "_signature_item", item)
        return item

    def validate_structure(self) -> None:
        """Raise :class:`InvalidTransactionError` on a malformed tx."""
        if not self.contract or not self.method:
            raise InvalidTransactionError("transaction must name a contract and method")
        if not self.verify_signature():
            raise InvalidTransactionError(f"bad signature on tx {self.tx_id[:12]}")

    def with_execution(
        self,
        read_set: ReadSet,
        write_set: WriteSet,
        events: tuple[dict[str, Any], ...],
        return_value: Any,
        endorsements: tuple[Endorsement, ...],
        digest: str | None = None,
    ) -> "Transaction":
        """Attach simulated-execution results (endorsement phase).

        The proposal fields are untouched, so the signing payload this
        transaction remembers is the endorsed one's too.  *digest*, when
        the endorsement phase has it in hand, must be
        ``rwset_digest(read_set, write_set)`` of exactly these sets; the
        endorsed transaction then starts with it remembered.
        """
        endorsed = replace(
            self,
            read_set=dict(read_set),
            write_set=dict(write_set),
            events=events,
            return_value=return_value,
            endorsements=endorsements,
        )
        item = self.__dict__.get("_signature_item")
        if item is not None:
            object.__setattr__(endorsed, "_signature_item", item)
        if digest is not None:
            object.__setattr__(endorsed, "_rwset_digest", digest)
        return endorsed

    @property
    def rwset_digest(self) -> str:
        digest = self.__dict__.get("_rwset_digest")
        if digest is None:
            digest = rwset_digest(self.read_set, self.write_set)
            object.__setattr__(self, "_rwset_digest", digest)
        return digest

    @property
    def endorsed_id(self) -> str:
        """What this transaction's endorsements sign beside a digest:
        its own id, or for a group member the group's root."""
        tag = self.group
        return tag[0] if isinstance(tag, tuple) and tag else self.tx_id


def _group_root(untagged_payloads: Iterable[bytes]) -> str:
    return sha256_hex(b"\n".join(untagged_payloads))


def create_group(
    steps: Sequence[tuple[KeyPair, str, str, dict[str, Any] | None, int]], timestamp: float
) -> tuple[Transaction, ...]:
    """Sign ``(keypair, contract, method, args, nonce)`` *steps* as one
    unit: each its own transaction under its own key.  The members of a
    group (two steps or more) each sign the tag that binds them to their
    siblings and their place; a unit of one is a transaction on its own,
    untagged, with the bytes it has always had."""
    steps = [(keypair, contract, method, args or {}, nonce)
             for keypair, contract, method, args, nonce in steps]
    tags: list[GroupTag | None] = [None]
    if len(steps) > 1:
        root = _group_root(
            _proposal_payload(keypair.address, contract, method, args, nonce, timestamp)
            for keypair, contract, method, args, nonce in steps
        )
        tags = [(root, position, len(steps)) for position in range(len(steps))]
    return tuple(
        Transaction.create(keypair, contract, method, args, nonce, timestamp, group=tag)
        for tag, (keypair, contract, method, args, nonce) in zip(tags, steps)
    )


def group_run(txs: Sequence[Transaction], start: int) -> tuple[Transaction, ...] | None:
    """The unit that begins at ``txs[start]``: an untagged transaction on
    its own, or a complete group — all of its members, consecutive, in
    order, hashing to the root they signed.  ``None`` when a tagged
    ``txs[start]`` does not begin such a run — a tag is whatever its
    sender chose to sign, so its shape is checked."""
    tag = txs[start].group
    if tag is None:
        return (txs[start],)
    if not (isinstance(tag, tuple) and len(tag) == 3 and isinstance(tag[2], int) and tag[2] > 1):
        return None
    root, _, size = tag
    members = tuple(txs[start:start + size])
    if [tx.group for tx in members] != [(root, k, size) for k in range(size)]:
        return None
    untagged = (
        _proposal_payload(tx.sender, tx.contract, tx.method, tx.args, tx.nonce, tx.timestamp)
        for tx in members
    )
    return members if _group_root(untagged) == root else None


def group_digest(digests: Sequence[str]) -> str:
    """What a unit's endorsement signs beside :attr:`Transaction.endorsed_id`:
    its members' rw-set digests, in order — for a unit of one, the
    member's own digest as it stands."""
    return digests[0] if len(digests) == 1 else hash_json(list(digests))


def signature_items(txs: "list[Transaction] | tuple[Transaction, ...]") -> list[tuple[bytes, bytes, bytes]]:
    """Every signature a validator will check across *txs* — each client
    proposal signature plus every endorsement signature — as raw
    ``(public_key, message, signature)`` triples ready for
    :func:`repro.crypto.verify_many`.  Undecodable hex fields are
    skipped; the per-transaction checks reject those without ever
    reaching a curve operation."""
    items: list[tuple[bytes, bytes, bytes]] = []
    for tx in txs:
        item = tx.signature_item()
        if item is not None:
            items.append(item)
        for endorsement in tx.endorsements:
            item = endorsement.signature_item(tx.endorsed_id)
            if item is not None:
                items.append(item)
    return items


@dataclass(frozen=True)
class TxReceipt:
    """What a client gets back after its transaction reaches a block."""

    tx_id: str
    block_height: int
    success: bool
    return_value: Any = None
    events: tuple[dict[str, Any], ...] = ()
    error: str | None = None
    gas_used: int = 0
