"""AI detection-tool marketplace (§V).

"As the community grows, so will the demand for new artificial
intelligence software tools, fake news detection tools and professional
services, and begin to develop an economy similar to the app store that
motivates and screens ethical developers."

Developers register scoring tools (staking tokens against misbehaviour);
every invocation accrues a royalty; once an article's final verdict
lands, each tool's call is scored for agreement, building an on-chain
accuracy record.  Tools whose accuracy collapses can be slashed and
delisted — screening, not just motivating.
"""

from __future__ import annotations

from repro.chain.contracts import Contract, ContractContext, contract_method
from repro.core.identity import identity_key

__all__ = ["ToolMarketContract", "tool_key"]

# A tool whose rolling accuracy drops below this is delisted on slash.
MIN_ACCURACY = 0.55
# Calls before the accuracy gate applies (warm-up grace).
MIN_CALLS_FOR_GATE = 10


def tool_key(tool_id: str) -> str:
    return f"tool:{tool_id}"


class ToolMarketContract(Contract):
    """Registry + usage accounting + quality screening for AI tools."""

    name = "toolmarket"

    @contract_method
    def register_tool(
        self, ctx: ContractContext, tool_id: str, description: str, fee: float, stake: float
    ):
        """List a detection tool (verified developers only)."""
        caller = ctx.get(identity_key(ctx.caller))
        ctx.require(
            caller is not None and caller["verified"] and caller["role"] == "developer",
            "only verified developers may register tools",
        )
        ctx.require(fee >= 0 and stake > 0, "fee must be >= 0 and stake positive")
        key = tool_key(tool_id)
        ctx.require(ctx.get(key) is None, f"tool {tool_id} already registered")
        record = {
            "tool_id": tool_id,
            "developer": ctx.caller,
            "description": description,
            "fee": fee,
            "stake": stake,
            "calls": 0,
            "correct": 0,
            "royalties_accrued": 0.0,
            "listed": True,
            "registered_at": ctx.timestamp,
        }
        ctx.put(key, record)
        ctx.emit("tool-registered", tool_id=tool_id, fee=fee)
        return record

    @contract_method
    def record_invocation(self, ctx: ContractContext, tool_id: str, article_id: str, score: float):
        """Account one scoring call; the caller owes the tool's fee."""
        key = tool_key(tool_id)
        record = ctx.get(key)
        ctx.require(record is not None, f"no tool {tool_id}")
        ctx.require(record["listed"], f"tool {tool_id} is delisted")
        ctx.require(0.0 <= score <= 1.0, "score must be in [0, 1]")
        record["calls"] += 1
        record["royalties_accrued"] += record["fee"]
        ctx.put(key, record)
        ctx.put(
            f"toolcall:{tool_id}:{article_id}",
            {"score": score, "caller": ctx.caller, "at": ctx.timestamp},
        )
        ctx.emit("tool-invoked", tool_id=tool_id, article_id=article_id, score=score)
        return record["calls"]

    @contract_method
    def record_outcome(self, ctx: ContractContext, tool_id: str, article_id: str, final_fake: bool):
        """Settle one call against the article's final verdict.

        The tool was *correct* if its score landed on the right side of
        0.5.  Accuracy is public and immutable — the screening record.
        """
        call = ctx.get(f"toolcall:{tool_id}:{article_id}")
        ctx.require(call is not None, f"tool {tool_id} never scored {article_id}")
        ctx.require(not call.get("settled"), "outcome already recorded")
        key = tool_key(tool_id)
        record = ctx.get(key)
        predicted_fake = call["score"] >= 0.5
        correct = predicted_fake == final_fake
        if correct:
            record["correct"] += 1
        call["settled"] = True
        call["correct"] = correct
        ctx.put(f"toolcall:{tool_id}:{article_id}", call)
        ctx.put(key, record)
        ctx.emit("tool-settled", tool_id=tool_id, article_id=article_id, correct=correct)
        return correct

    @contract_method
    def slash_if_unreliable(self, ctx: ContractContext, tool_id: str):
        """Anyone may trigger the quality gate; the record decides.

        A tool past its warm-up whose accuracy sits below the floor
        forfeits its stake and is delisted.
        """
        key = tool_key(tool_id)
        record = ctx.get(key)
        ctx.require(record is not None, f"no tool {tool_id}")
        ctx.require(record["listed"], "tool already delisted")
        ctx.require(record["calls"] >= MIN_CALLS_FOR_GATE, "tool still in warm-up grace")
        accuracy = record["correct"] / record["calls"]
        ctx.require(
            accuracy < MIN_ACCURACY,
            f"accuracy {accuracy:.2f} is above the {MIN_ACCURACY} floor",
        )
        record["listed"] = False
        forfeited = record["stake"]
        record["stake"] = 0.0
        ctx.put(key, record)
        ctx.emit("tool-slashed", tool_id=tool_id, forfeited=forfeited, accuracy=accuracy)
        return forfeited

    @contract_method
    def get_tool(self, ctx: ContractContext, tool_id: str):
        return ctx.get(tool_key(tool_id))
