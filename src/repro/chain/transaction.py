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

A transaction on its own is signed over its proposal.  The members of a
*group* (:func:`create_group`) are signed once per signer: each signer
signs :func:`unit_message` of the group's root, which commits to every
member's proposal, and each of its members carries that one signature.
A member is authenticated only as part of its unit: :func:`check_signatures`
verifies each distinct signature of the unit once and :func:`group_run`
ties each member's proposal to the root its signer signed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Sequence

from repro.crypto.hashing import canonical_json, hash_json, sha256_hex
from repro.crypto.keys import KeyPair, address_from_public_key, verify_signature
from repro.errors import InvalidTransactionError
from repro.simnet.network import WireSized

__all__ = [
    "Transaction",
    "Endorsement",
    "ReadSet",
    "WriteSet",
    "TxReceipt",
    "check_signatures",
    "create_group",
    "group_digest",
    "group_run",
    "unit_message",
]

# A read set maps key -> version observed during simulated execution.
ReadSet = dict[str, int]
# A write set maps key -> new value (None encodes deletion).
WriteSet = dict[str, Any]
# What a member of a group carries in its proposal, and so in its tx id:
# the group's root (the digest of every member's untagged proposal, in
# order), the member's position and the group's size.  A unit of one has
# no tag.
GroupTag = tuple[str, int, int]
# A client signature to check: (public key, signed message, signature).
SignatureItem = tuple[bytes, bytes, bytes]


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
    return canonical_json(body)


def unit_message(root: str) -> bytes:
    """What each signer of a group signs, once: the group's root under a
    domain tag.  A proposal payload is a JSON object and starts with
    ``{``, so no proposal is ever this message."""
    return b"unit|" + root.encode("utf-8")


def endorsed_digest(
    read_set: ReadSet, write_set: WriteSet, events: Sequence[dict[str, Any]], return_value: Any
) -> str:
    """Digest endorsers sign: commits them to one simulated execution —
    what it read, what it wrote, the events it emitted and the value it
    returned (Fabric's endorser signs the results, events and response
    alike).  Nothing a committing peer keeps from the execution is left
    out, so no part of it can be edited after endorsement."""
    return hash_json(
        {"reads": read_set, "writes": write_set, "events": events, "return": return_value}
    )


@dataclass(frozen=True)
class Endorsement:
    """One endorsing peer's signature over (tx_id, endorsed digest) — for
    a group, over (root, digest of its members' endorsed digests).  It
    names its peer and carries no key: a committing peer checks it
    against the key its peer directory holds for that name."""

    peer_id: str
    digest: str
    signature_hex: str

    def verify(self, tx_id: str, public_key: bytes) -> bool:
        """Whether the signature is *public_key*'s over (tx_id, digest)."""
        try:
            signature = bytes.fromhex(self.signature_hex)
        except (TypeError, ValueError):
            return False
        return verify_signature(public_key, f"{tx_id}:{self.digest}".encode("utf-8"), signature)

    @classmethod
    def create(cls, keypair: KeyPair, peer_id: str, tx_id: str, digest: str) -> "Endorsement":
        message = f"{tx_id}:{digest}".encode("utf-8")
        return cls(peer_id=peer_id, digest=digest, signature_hex=keypair.sign(message).hex())


@dataclass(frozen=True)
class Transaction(WireSized):
    """A signed contract invocation, optionally carrying endorsements.

    Immutable, so what is derived from its fields alone — the proposal
    payload, the signed triple (:meth:`signature_item`),
    :attr:`endorsed_digest`, :attr:`merkle_leaf`, the wire size — is
    derived once and remembered on the object (DESIGN.md, "What an
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
    #: :func:`create_group`), part of the proposal its id hashes; ``None``
    #: for a transaction on its own, whose bytes do not mention it.
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
    ) -> "Transaction":
        """Build and sign a proposal on its own: a unit of one (the step
        before endorsement)."""
        return create_group([(keypair, contract, method, args, nonce)], timestamp)[0]

    @classmethod
    def _signed(
        cls,
        keypair: KeyPair,
        contract: str,
        method: str,
        args: dict[str, Any],
        nonce: int,
        timestamp: float,
        group: GroupTag | None,
        signatures: dict[bytes, bytes],
    ) -> "Transaction":
        """One step of :func:`create_group`: its proposal, signed by
        *keypair* unless *signatures* already holds that key's signature
        of the unit (and remembers it there)."""
        payload = _proposal_payload(
            keypair.address, contract, method, args, nonce, timestamp, group
        )
        message = payload if group is None else unit_message(group[0])
        signature = signatures.get(keypair.public_key)
        if signature is None:
            signature = signatures[keypair.public_key] = keypair.sign(message)
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
        if group is not None:
            object.__setattr__(tx, "_proposal_bytes", payload)
        object.__setattr__(tx, "_signature_item", (keypair.public_key, message, signature))
        return tx

    def _proposal(self) -> bytes:
        """The proposal payload, tag included: what :attr:`tx_id` hashes.
        A transaction on its own signs it, so its signed triple remembers
        it; a group member remembers it beside."""
        item = self.__dict__.get("_signature_item")
        if item is not None and self.group is None:
            return item[1]
        payload = self.__dict__.get("_proposal_bytes")
        if payload is None:
            payload = _proposal_payload(
                self.sender, self.contract, self.method, self.args, self.nonce,
                self.timestamp, self.group,
            )
            if self.group is not None:
                object.__setattr__(self, "_proposal_bytes", payload)
        return payload

    def signature_item(self) -> SignatureItem | None:
        """The client-signature ``(public_key, message, signature)`` triple:
        the message is the proposal for a transaction on its own and
        :func:`unit_message` of the root for a group member.  ``None`` if
        the hex fields don't decode or the tag has no root.  No binding is
        checked here (see :func:`check_signatures`).  Derived on first use
        and remembered (see the class docstring)."""
        item = self.__dict__.get("_signature_item")
        if item is None:
            tag = self.group
            if tag is None:
                message = self._proposal()
            elif isinstance(tag, tuple) and tag and isinstance(tag[0], str):
                message = unit_message(tag[0])
            else:
                return None
            try:
                item = (bytes.fromhex(self.public_key_hex), message,
                        bytes.fromhex(self.signature_hex))
            except ValueError:
                return None
            object.__setattr__(self, "_signature_item", item)
        return item

    def _bound_item(self) -> SignatureItem:
        """:meth:`signature_item`, once the cheap checks hold: a contract
        and a method are named, the sender is the key's address and the id
        is the proposal's hash.  Raises :class:`InvalidTransactionError`."""
        if not self.contract or not self.method:
            raise InvalidTransactionError("transaction must name a contract and method")
        item = self.signature_item()
        if (
            item is None
            or address_from_public_key(item[0]) != self.sender
            or sha256_hex(self._proposal()) != self.tx_id
        ):
            raise InvalidTransactionError(f"bad signature on tx {self.tx_id[:12]}")
        return item

    def validate_structure(self) -> None:
        """Raise :class:`InvalidTransactionError` unless this transaction,
        taken alone, is well formed and its signer signed what it names.
        For a group member that is the root, not the member's place in
        it: only :func:`check_signatures` with :func:`group_run`
        authenticates a member, as part of its unit."""
        error = check_signatures((self,))
        if error is not None:
            raise InvalidTransactionError(error[1])

    def verify_signature(self) -> bool:
        """:meth:`validate_structure` as a bool."""
        return check_signatures((self,)) is None

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

        The proposal fields are untouched, so the proposal and the signed
        triple this transaction remembers are the endorsed one's too.
        *digest*, when the endorsement phase has it in hand, must be
        ``endorsed_digest(read_set, write_set, events, return_value)`` of
        exactly these; the endorsed transaction then starts with it
        remembered.
        """
        endorsed = replace(
            self,
            read_set=dict(read_set),
            write_set=dict(write_set),
            events=events,
            return_value=return_value,
            endorsements=endorsements,
        )
        for memo in ("_proposal_bytes", "_signature_item"):
            if memo in self.__dict__:
                object.__setattr__(endorsed, memo, self.__dict__[memo])
        if digest is not None:
            object.__setattr__(endorsed, "_endorsed_digest", digest)
        return endorsed

    @property
    def endorsed_digest(self) -> str:
        digest = self.__dict__.get("_endorsed_digest")
        if digest is None:
            digest = endorsed_digest(
                self.read_set, self.write_set, self.events, self.return_value
            )
            object.__setattr__(self, "_endorsed_digest", digest)
        return digest

    @property
    def merkle_leaf(self) -> str:
        """What a block's Merkle tree holds for this transaction: a digest
        of its whole body — its proposal, its id, its client signature,
        its :attr:`endorsed_digest` and every endorsement — so a block
        hash names one body, and an inclusion proof proves the execution
        the ledger folds, not only the id."""
        leaf = self.__dict__.get("_merkle_leaf")
        if leaf is None:
            leaf = hash_json({
                "proposal": sha256_hex(self._proposal()),
                "tx_id": self.tx_id,
                "signer": [self.public_key_hex, self.signature_hex],
                "endorsed": self.endorsed_digest,
                "endorsements": [
                    [e.peer_id, e.digest, e.signature_hex]
                    for e in self.endorsements
                ],
            })
            object.__setattr__(self, "_merkle_leaf", leaf)
        return leaf

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
    unit: each its own transaction, sent by its own key.  A unit of one
    is a transaction on its own, untagged and signed over its proposal,
    with the bytes it has always had.  The members of a group (two steps
    or more) each carry the tag that binds them to their siblings and
    their place, and every distinct signer signs the group's root once
    (:func:`unit_message`): its members all carry that one signature."""
    steps = [(keypair, contract, method, args or {}, nonce)
             for keypair, contract, method, args, nonce in steps]
    tags: list[GroupTag | None] = [None]
    if len(steps) > 1:
        root = _group_root(
            _proposal_payload(keypair.address, contract, method, args, nonce, timestamp)
            for keypair, contract, method, args, nonce in steps
        )
        tags = [(root, position, len(steps)) for position in range(len(steps))]
    signatures: dict[bytes, bytes] = {}
    return tuple(
        Transaction._signed(keypair, contract, method, args, nonce, timestamp, tag, signatures)
        for tag, (keypair, contract, method, args, nonce) in zip(tags, steps)
    )


def check_signatures(unit: Sequence[Transaction]) -> tuple[int, str] | None:
    """Check the client signatures of *unit*, a transaction on its own or
    the members of one group: every member's cheap bindings (a contract
    and a method named, sender and id bound to key and proposal), then
    each distinct ``(signer, message)`` signature once.  A signer signs a
    unit once, so a second, different signature by the same signer over
    the same message is refused whether or not it verifies.  ``None``
    when all hold, else the position of the first member that fails and
    why.  That the members' proposals hash to the root they name is
    :func:`group_run`'s check, not this one."""
    verified: dict[tuple[bytes, bytes], bytes] = {}
    for position, tx in enumerate(unit):
        try:
            public_key, message, signature = tx._bound_item()
        except InvalidTransactionError as exc:
            return position, str(exc)
        seen = verified.get((public_key, message))
        if seen is None and verify_signature(public_key, message, signature):
            verified[(public_key, message)] = seen = signature
        if seen != signature:
            return position, f"bad signature on tx {tx.tx_id[:12]}"
    return None


def group_run(txs: Sequence[Transaction], start: int) -> tuple[Transaction, ...] | None:
    """The unit that begins at ``txs[start]``: an untagged transaction on
    its own, or a complete group — all of its members, consecutive, in
    order, their proposals hashing to the root their signers signed.
    This is what ties a member to the signature it carries: the
    signature covers the root, and only the run's proposals hash to it.
    ``None`` when a tagged ``txs[start]`` does not begin such a run — a
    tag is whatever its sender chose to put in its proposal, so its
    shape is checked."""
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
    its members' endorsed digests, in order — for a unit of one, the
    member's own digest as it stands."""
    return digests[0] if len(digests) == 1 else hash_json(list(digests))


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
