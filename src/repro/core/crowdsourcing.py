"""Blockchain crowd-sourced trust checking — contribution (3).

Two halves:

- :class:`VoteContract` — the on-chain record: who voted what on which
  article, immutable and attributable.  This is what makes validator
  *accountability* possible: a validator's entire voting history is on
  the ledger, so reputation is earned and cannot be laundered by
  re-registering opinions.
- :class:`ValidatorPool` — the off-chain statistical machinery: a
  population of validators with accuracy/bias/stake, vote collection,
  and the two aggregation rules the paper contrasts — naive majority
  (what "traditional majority decided crowd sourcing" does) versus
  reputation-weighted consensus with stake slashing (what the
  accountability layer enables).  E12 sweeps the biased fraction and
  shows where majority voting collapses and weighted consensus holds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.chain.contracts import Contract, ContractContext, contract_method
from repro.core.identity import identity_key

__all__ = ["VoteContract", "Validator", "Vote", "ValidatorPool", "vote_key", "factual_share"]


def vote_key(article_id: str, address: str) -> str:
    return f"vote:{article_id}:{address}"


def factual_share(votes: list[dict]) -> float:
    """Weighted factual share of one article's ``{"voter", "verdict",
    "weight"}`` records — 0.5 when no weight was cast.

    The sums run in voter-address order, the order of the article's
    :func:`vote_key` range, so :meth:`VoteContract.tally` over world state
    and the platform's fold over ``vote-cast`` events (which holds them in
    chain order) add the same floats in the same order.
    """
    total = factual = 0.0
    for vote in sorted(votes, key=lambda vote: vote["voter"]):
        total += vote["weight"]
        if vote["verdict"]:
            factual += vote["weight"]
    return factual / total if total > 0 else 0.5


class VoteContract(Contract):
    """On-chain vote records for article trust checking."""

    name = "votes"

    @contract_method
    def cast(self, ctx: ContractContext, article_id: str, verdict: bool, weight: float):
        """Record a trust vote (verdict True = factual)."""
        caller = ctx.get(identity_key(ctx.caller))
        ctx.require(caller is not None, "only registered identities may vote")
        ctx.require(0.0 < weight <= 1.0, "weight must be in (0, 1]")
        key = vote_key(article_id, ctx.caller)
        ctx.require(ctx.get(key) is None, "identity already voted on this article")
        record = {
            "article_id": article_id,
            "voter": ctx.caller,
            "verdict": verdict,
            "weight": weight,
            "cast_at": ctx.timestamp,
        }
        ctx.put(key, record)
        ctx.emit("vote-cast", article_id=article_id, verdict=verdict, weight=weight)
        return record

    @contract_method
    def tally(self, ctx: ContractContext, article_id: str):
        """Weighted tally: (weighted factual share, vote count).

        The key range ``vote:<id>:`` also holds the votes on an article
        ``<id>:...``; only the records that name *article_id* count — the
        rule the platform's fold of ``vote-cast`` events keys by."""
        records = (ctx.get(key) for key in ctx.keys_with_prefix(f"vote:{article_id}:"))
        votes = [vote for vote in records if vote["article_id"] == article_id]
        return {"factual_share": factual_share(votes), "votes": len(votes)}


@dataclass
class Validator:
    """A crowd validator with skill, bias, reputation, and stake."""

    validator_id: str
    accuracy: float  # chance of voting correctly when unbiased
    biased: bool = False
    community: int = 0  # polarized side (articles carry a slant)
    reputation: float = 1.0
    stake: float = 10.0
    address: str | None = None
    correct_votes: int = 0
    total_votes: int = 0

    def decide(self, ground_truth_factual: bool, article_slant: int | None, rng: random.Random) -> bool:
        """The validator's verdict for one article.

        Biased validators vote their side regardless of truth when the
        article carries their community's slant (and against it when it
        carries the other side's); unbiased validators are right with
        probability ``accuracy``.
        """
        if self.biased and article_slant is not None:
            return article_slant == self.community
        return ground_truth_factual if rng.random() < self.accuracy else not ground_truth_factual

    @property
    def weight(self) -> float:
        """Aggregation weight: reputation scaled by remaining stake."""
        return max(0.0, self.reputation) * (1.0 if self.stake > 0 else 0.0)


@dataclass(frozen=True)
class Vote:
    validator_id: str
    verdict: bool
    weight: float


@dataclass
class ValidatorPool:
    """A population of validators plus aggregation and accountability."""

    validators: list[Validator] = field(default_factory=list)
    reward: float = 0.2
    penalty: float = 0.35
    slash: float = 1.0

    @classmethod
    def generate(
        cls,
        n_validators: int,
        rng: random.Random,
        biased_fraction: float = 0.0,
        accuracy_range: tuple[float, float] = (0.7, 0.95),
        biased_community: int | None = None,
    ) -> "ValidatorPool":
        """A pool with a planted fraction of polarized validators.

        With ``biased_community`` set, all biased validators form one
        coordinated faction on that side (the majority-capture threat
        model); otherwise bias is split across both communities.
        """
        validators = []
        n_biased = round(n_validators * biased_fraction)
        for index in range(n_validators):
            biased = index < n_biased
            community = biased_community if (biased and biased_community is not None) else index % 2
            validators.append(
                Validator(
                    validator_id=f"validator-{index:04d}",
                    accuracy=rng.uniform(*accuracy_range),
                    biased=biased,
                    community=community,
                )
            )
        rng.shuffle(validators)
        return cls(validators=validators)

    def collect_votes(
        self,
        ground_truth_factual: bool,
        rng: random.Random,
        article_slant: int | None = None,
        turnout: float = 1.0,
    ) -> list[Vote]:
        """Sample one vote per (participating) validator."""
        votes = []
        for validator in self.validators:
            if turnout < 1.0 and rng.random() > turnout:
                continue
            verdict = validator.decide(ground_truth_factual, article_slant, rng)
            votes.append(Vote(validator.validator_id, verdict, validator.weight))
            validator.total_votes += 1
            if verdict == ground_truth_factual:
                validator.correct_votes += 1
        return votes

    @staticmethod
    def majority_share(votes: list[Vote]) -> float:
        """Unweighted factual share — the baseline aggregation."""
        if not votes:
            return 0.5
        return sum(1 for v in votes if v.verdict) / len(votes)

    @staticmethod
    def weighted_share(votes: list[Vote]) -> float:
        """Reputation/stake-weighted factual share."""
        total = sum(v.weight for v in votes)
        if total <= 0:
            return 0.5
        return sum(v.weight for v in votes if v.verdict) / total

    def settle(self, votes: list[Vote], outcome_factual: bool) -> None:
        """Accountability settlement after an article's verdict finalizes.

        Validators on the wrong side lose reputation and (repeatedly
        wrong) stake; correct validators earn reputation.  Because the
        on-chain vote history is immutable, a polarized validator's
        weight decays monotonically — the mechanism behind the paper's
        claim that accountability "can prevent bias concerns ... from
        traditional majority decided crowd sourcing".
        """
        by_id = {v.validator_id: v for v in self.validators}
        for vote in votes:
            validator = by_id.get(vote.validator_id)
            if validator is None:
                continue
            if vote.verdict == outcome_factual:
                validator.reputation = min(5.0, validator.reputation + self.reward)
            else:
                validator.reputation = max(0.0, validator.reputation - self.penalty)
                if validator.reputation == 0.0:
                    validator.stake = max(0.0, validator.stake - self.slash)
