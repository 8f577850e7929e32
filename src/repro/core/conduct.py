"""The AI Blockchain Platform Management Act, enforced (§V).

"All participants in the AI blockchain platform agree to abide by the
AI Blockchain Platform Management Act … economic incentives to reward
individuals for flagging behaviors that do not meet the standards."

Mechanics: any registered identity may file a conduct report against
another (staking a small amount against frivolous reporting); an
adjudicator — governance here, a checker panel in a larger deployment —
upholds or dismisses it.  Upheld reports pay the reporter a bounty and
give the accused a strike; at :data:`SUSPENSION_STRIKES` strikes the
account is suspended, which the newsroom contract enforces by refusing
its drafts.  Dismissed reports forfeit the reporter's stake, so
flag-spamming is costly too.
"""

from __future__ import annotations

from repro.chain.contracts import Contract, ContractContext, contract_method
from repro.core.identity import identity_key

__all__ = ["ConductContract", "CATEGORIES", "SUSPENSION_STRIKES", "suspension_key"]

CATEGORIES = ("fake-news", "spam", "plagiarism", "harassment", "impersonation")
SUSPENSION_STRIKES = 3
REPORT_BOUNTY = 2.0


def report_key(report_id: str) -> str:
    return f"conduct:{report_id}"


def strikes_key(address: str) -> str:
    return f"strikes:{address}"


def suspension_key(address: str) -> str:
    return f"suspended:{address}"


class ConductContract(Contract):
    """Conduct reports, adjudication, strikes, and suspension."""

    name = "conduct"

    @contract_method
    def file_report(
        self,
        ctx: ContractContext,
        report_id: str,
        accused: str,
        article_id: str,
        category: str,
        stake: float,
    ):
        """Flag an account's behaviour (stake required)."""
        reporter = ctx.get(identity_key(ctx.caller))
        ctx.require(reporter is not None, "only registered identities may report")
        ctx.require(category in CATEGORIES, f"unknown category {category!r}; valid: {CATEGORIES}")
        ctx.require(stake > 0, "stake must be positive")
        ctx.require(ctx.get(identity_key(accused)) is not None, "accused is not a registered identity")
        ctx.require(accused != ctx.caller, "cannot report yourself")
        key = report_key(report_id)
        ctx.require(ctx.get(key) is None, f"report {report_id} already filed")
        record = {
            "report_id": report_id,
            "reporter": ctx.caller,
            "accused": accused,
            "article_id": article_id,
            "category": category,
            "stake": stake,
            "status": "open",
            "filed_at": ctx.timestamp,
        }
        ctx.put(key, record)
        ctx.emit("conduct-reported", report_id=report_id, accused=accused, category=category)
        return record

    @contract_method
    def adjudicate(self, ctx: ContractContext, report_id: str, upheld: bool):
        """Decide an open report.

        Upheld: reporter's stake returns plus the bounty; the accused
        takes a strike and is suspended at the threshold.  Dismissed:
        the stake is forfeited.
        """
        adjudicator = ctx.get(identity_key(ctx.caller))
        ctx.require(
            adjudicator is not None and adjudicator["verified"],
            "only verified identities may adjudicate",
        )
        key = report_key(report_id)
        record = ctx.get(key)
        ctx.require(record is not None, f"no report {report_id}")
        ctx.require(record["status"] == "open", "report already adjudicated")
        ctx.require(ctx.caller != record["reporter"], "reporters cannot adjudicate their own report")
        if upheld:
            record["status"] = "upheld"
            record["payout"] = record["stake"] + REPORT_BOUNTY
            strikes = (ctx.get(strikes_key(record["accused"])) or 0) + 1
            ctx.put(strikes_key(record["accused"]), strikes)
            if strikes >= SUSPENSION_STRIKES:
                ctx.put(suspension_key(record["accused"]), True)
                ctx.emit("account-suspended", address=record["accused"], strikes=strikes)
        else:
            record["status"] = "dismissed"
            record["payout"] = 0.0  # stake forfeited
        record["adjudicated_by"] = ctx.caller
        record["adjudicated_at"] = ctx.timestamp
        ctx.put(key, record)
        ctx.emit("conduct-adjudicated", report_id=report_id, upheld=upheld)
        return record

    @contract_method
    def standing(self, ctx: ContractContext, address: str):
        """(strikes, suspended) for an account — the public record."""
        return {
            "strikes": ctx.get(strikes_key(address)) or 0,
            "suspended": bool(ctx.get(suspension_key(address))),
        }

    @contract_method
    def reinstate(self, ctx: ContractContext, address: str):
        """Lift a suspension (verified adjudicators only); strikes reset."""
        caller = ctx.get(identity_key(ctx.caller))
        ctx.require(
            caller is not None and caller["verified"],
            "only verified identities may reinstate",
        )
        ctx.require(ctx.get(suspension_key(address)), "account is not suspended")
        ctx.delete(suspension_key(address))
        ctx.put(strikes_key(address), 0)
        ctx.emit("account-reinstated", address=address)
        return True
