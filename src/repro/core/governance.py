"""Crowd-reviewed establishment of distribution platforms (§V).

"There will be smart contracts for authentication and crowd sourcing
review process to allow for the establishment of a trusted distribution
platform in the blockchain platform."

Flow: a verified publisher *petitions*; verified checkers vote during a
review window; once approvals reach the quorum the petition can be
finalized, which marks the platform charter as community-trusted.  The
newsroom contract continues to gate rooms/membership; the charter adds
the community's imprimatur — and its full voting record — on-chain.
"""

from __future__ import annotations

from repro.chain.contracts import Contract, ContractContext, contract_method
from repro.core.identity import identity_key

__all__ = ["PlatformGovernanceContract", "petition_key"]


def petition_key(platform_name: str) -> str:
    return f"petition:{platform_name}"


def petition_vote_key(platform_name: str, address: str) -> str:
    return f"petition-vote:{platform_name}:{address}"


class PlatformGovernanceContract(Contract):
    """Petition -> crowd review -> charter for distribution platforms."""

    name = "governance"

    @contract_method
    def petition(self, ctx: ContractContext, platform_name: str, charter: str, quorum: int):
        """Open a petition to establish a trusted distribution platform."""
        caller = ctx.get(identity_key(ctx.caller))
        ctx.require(
            caller is not None and caller["verified"],
            "only verified identities may petition",
        )
        ctx.require(caller["role"] in ("publisher", "journalist"),
                    f"role {caller['role']!r} may not petition for a platform")
        ctx.require(quorum >= 1, "quorum must be at least 1")
        key = petition_key(platform_name)
        ctx.require(ctx.get(key) is None, f"petition for {platform_name!r} already exists")
        record = {
            "platform_name": platform_name,
            "petitioner": ctx.caller,
            "charter": charter,
            "quorum": quorum,
            "approvals": 0,
            "rejections": 0,
            "status": "open",
            "opened_at": ctx.timestamp,
        }
        ctx.put(key, record)
        ctx.emit("petition-opened", platform_name=platform_name, quorum=quorum)
        return record

    @contract_method
    def review(self, ctx: ContractContext, platform_name: str, approve: bool):
        """A verified checker reviews an open petition (one vote each)."""
        caller = ctx.get(identity_key(ctx.caller))
        ctx.require(
            caller is not None and caller["verified"],
            "only verified identities may review petitions",
        )
        ctx.require(caller["role"] == "checker", "only checkers review petitions")
        key = petition_key(platform_name)
        record = ctx.get(key)
        ctx.require(record is not None, f"no petition for {platform_name!r}")
        ctx.require(record["status"] == "open", "petition is not open")
        vote_key = petition_vote_key(platform_name, ctx.caller)
        ctx.require(ctx.get(vote_key) is None, "checker already reviewed this petition")
        ctx.put(vote_key, {"approve": approve, "at": ctx.timestamp})
        if approve:
            record["approvals"] += 1
        else:
            record["rejections"] += 1
        ctx.put(key, record)
        ctx.emit("petition-reviewed", platform_name=platform_name, approve=approve)
        return record

    @contract_method
    def finalize(self, ctx: ContractContext, platform_name: str):
        """Close the petition once the quorum decides it.

        Approved iff approvals reach the quorum before rejections do;
        rejected iff rejections reach the quorum.  Anyone may call — the
        outcome is determined entirely by the recorded votes.
        """
        key = petition_key(platform_name)
        record = ctx.get(key)
        ctx.require(record is not None, f"no petition for {platform_name!r}")
        ctx.require(record["status"] == "open", "petition already finalized")
        if record["approvals"] >= record["quorum"]:
            record["status"] = "approved"
        elif record["rejections"] >= record["quorum"]:
            record["status"] = "rejected"
        else:
            ctx.require(False, "quorum not yet reached on either side")
        record["finalized_at"] = ctx.timestamp
        ctx.put(key, record)
        ctx.emit("petition-finalized", platform_name=platform_name, status=record["status"])
        return record

    @contract_method
    def is_chartered(self, ctx: ContractContext, platform_name: str):
        """True iff the platform passed its crowd review."""
        record = ctx.get(petition_key(platform_name))
        return bool(record and record["status"] == "approved")
