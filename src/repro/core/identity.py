"""Verified identities: the platform's accountability root (§IV).

"Within the blockchain platform, each record is signed and easy to
track.  Can't deny that he/she has created this news."  That property
needs an identity layer binding ledger addresses to verified
participants with roles.  Registration is open; *verification* is the
gate — a governance account (or m-of-n in a real deployment) attests an
identity, after which the account may publish, vote, or found platforms.
"""

from __future__ import annotations

from repro.chain.contracts import Contract, ContractContext, contract_method

__all__ = ["IdentityContract", "ROLES"]

ROLES = ("consumer", "creator", "journalist", "publisher", "checker", "developer")


def identity_key(address: str) -> str:
    return f"id:{address}"


class IdentityContract(Contract):
    """On-chain registry of participants and their verification status."""

    name = "identity"

    @contract_method
    def register(self, ctx: ContractContext, display_name: str, role: str):
        """Self-register an identity (unverified until attested)."""
        ctx.require(role in ROLES, f"unknown role {role!r}; valid: {ROLES}")
        ctx.require(bool(display_name), "display_name must be non-empty")
        key = identity_key(ctx.caller)
        ctx.require(ctx.get(key) is None, "identity already registered")
        record = {
            "address": ctx.caller,
            "display_name": display_name,
            "role": role,
            "verified": False,
            "registered_at": ctx.timestamp,
            "verified_by": None,
        }
        ctx.put(key, record)
        ctx.emit("identity-registered", address=ctx.caller, role=role)
        return record

    @contract_method
    def verify(self, ctx: ContractContext, address: str):
        """Attest an identity.  The first caller ever to verify becomes
        the governance root (bootstrap); afterwards only verified
        identities may attest others — a simple web-of-trust chain whose
        every link is on the ledger."""
        key = identity_key(address)
        record = ctx.get(key)
        ctx.require(record is not None, f"no identity registered for {address}")
        ctx.require(not record["verified"], "identity is already verified")
        governance_root = ctx.get("id-governance-root")
        if governance_root is None:
            ctx.put("id-governance-root", ctx.caller)
        else:
            caller_record = ctx.get(identity_key(ctx.caller))
            is_root = ctx.caller == governance_root
            ctx.require(
                is_root or (caller_record is not None and caller_record["verified"]),
                "only verified identities may attest others",
            )
        record["verified"] = True
        record["verified_by"] = ctx.caller
        ctx.put(key, record)
        ctx.emit("identity-verified", address=address, by=ctx.caller)
        return record

    @contract_method
    def get_identity(self, ctx: ContractContext, address: str):
        """Fetch an identity record (None if unregistered)."""
        return ctx.get(identity_key(address))
