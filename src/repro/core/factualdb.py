"""The factual news database — contribution (1) of the paper.

§VI: a smart-contract-managed store that is "a root of blockchain data
architecture ... provides the ground truth and corner stone for our
system".  It bootstraps from records that are facts *by nature* (the
paper's examples: official speech records of lawmakers and public
figures) and grows by promotion: an article whose ranking pipeline
verdict clears the promotion bar can be added, making the database "a
powerful trusting news engine".

No one can modify an entry once stored — enforced here by the contract
refusing overwrites, and systemically by the ledger's immutability.
"""

from __future__ import annotations

from repro.chain.contracts import Contract, ContractContext, contract_method
from repro.core.identity import identity_key
from repro.core.supplychain import MAX_TEXT_LENGTH, is_text, supply_node_key

__all__ = ["FactualDatabaseContract", "fact_key"]

# Promotion requires at least this final factualness score (see
# repro.core.ranking for how the score is assembled).
PROMOTION_THRESHOLD = 0.75


def fact_key(fact_id: str) -> str:
    return f"fact:{fact_id}"


class FactualDatabaseContract(Contract):
    """Append-only ground-truth store managed on-chain."""

    name = "factualdb"

    @contract_method
    def seed_fact(
        self,
        ctx: ContractContext,
        fact_id: str,
        content_hash: str,
        source: str,
        topic: str,
        text: str | None = None,
    ):
        """Bootstrap entry from an official public record.

        Only verified identities may seed (the operator importing the
        congressional record is accountable for the import).  ``text``,
        when given, is the record's text for the provenance fold (as in
        ``supplychain.record_node``): neither stored nor emitted, and at most
        ``MAX_TEXT_LENGTH`` characters.
        """
        ctx.require(is_text(text), f"text must be at most {MAX_TEXT_LENGTH} characters")
        caller = ctx.get(identity_key(ctx.caller))
        ctx.require(
            caller is not None and caller["verified"],
            "only verified identities may seed facts",
        )
        key = fact_key(fact_id)
        ctx.require(ctx.get(key) is None, f"fact {fact_id} already recorded")
        record = {
            "fact_id": fact_id,
            "content_hash": content_hash,
            "source": source,
            "topic": topic,
            "kind": "seed",
            "added_by": ctx.caller,
            "added_at": ctx.timestamp,
            "score": 1.0,
        }
        ctx.put(key, record)
        ctx.emit("fact-seeded", fact_id=fact_id, topic=topic, source=source)
        return record

    @contract_method
    def promote(self, ctx: ContractContext, fact_id: str, article_id: str):
        """Promote a ranked article into the factual database.

        Everything the fact says is read from committed state: the content
        hash and topic from the article's supply-chain record, the score
        from its latest ranking (which only a verified identity can
        record).  The promotion bar is enforced on-chain so a buggy (or
        corrupt) off-chain ranking service cannot quietly pollute ground
        truth.
        """
        caller = ctx.get(identity_key(ctx.caller))
        ctx.require(
            caller is not None and caller["verified"],
            "only verified identities may promote facts",
        )
        node = ctx.get(supply_node_key(article_id))
        ctx.require(node is not None, f"article {article_id} is not recorded in the supply chain")
        ranking = ctx.get(f"scrank:{article_id}")
        ctx.require(ranking is not None, f"article {article_id} has no recorded ranking")
        score = ranking["final_score"]
        ctx.require(
            score >= PROMOTION_THRESHOLD,
            f"score {score:.3f} below promotion threshold {PROMOTION_THRESHOLD}",
        )
        key = fact_key(fact_id)
        ctx.require(ctx.get(key) is None, f"fact {fact_id} already recorded")
        record = {
            "fact_id": fact_id,
            "content_hash": node["content_hash"],
            "topic": node["topic"],
            "kind": "promoted",
            "article_id": article_id,
            "added_by": ctx.caller,
            "added_at": ctx.timestamp,
            "score": score,
        }
        ctx.put(key, record)
        ctx.emit("fact-promoted", fact_id=fact_id, article_id=article_id, score=score)
        return record

    @contract_method
    def list_facts(self, ctx: ContractContext, topic: str | None = None):
        """All fact ids (optionally filtered by topic)."""
        facts = []
        for key in ctx.keys_with_prefix("fact:"):
            record = ctx.get(key)
            if topic is None or record["topic"] == topic:
                facts.append(record["fact_id"])
        return facts
