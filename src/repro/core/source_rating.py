"""NewsGuard-style source ratings, computed from the ledger (§II).

The paper reviews NewsGuard's trained-journalist ratings (green/red by
criteria like "publishes false content", "discloses ownership").  On
this platform the equivalent judgments need no panel: every criterion
is *measurable* from committed state —

- false-content share: recorded rankings of the platform's articles,
- creator accountability: verified-identity share of its membership,
- editorial diligence: use of review/rejection versus rubber-stamping,
- provenance discipline: how much of its output traces to fact roots.

The composite maps to NewsGuard's color scheme (green/orange/red, grey
for not-yet-ratable).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.chain.ledger import Ledger
from repro.core.supplychain import trace_to_factual_root

if TYPE_CHECKING:
    import networkx as nx

    from repro.core.supplychain import SupplyChainGraph

__all__ = ["SourceRating", "rate_distribution_platform"]

# Composite score cutoffs, NewsGuard-style colors.
_GREEN = 0.75
_ORANGE = 0.5
# Minimum article count before a rating is meaningful.
_MIN_ARTICLES = 3


@dataclass(frozen=True)
class SourceRating:
    """One distribution platform's ledger-derived rating."""

    platform_name: str
    articles: int
    false_content_share: float  # recorded rankings below 0.5
    verified_member_share: float
    editorial_diligence: float  # rejections+reviews observed / articles
    provenance_discipline: float  # mean provenance of its output
    composite: float
    color: str  # green | orange | red | grey

    def as_row(self) -> str:
        return (
            f"{self.platform_name:<16} {self.color:<6} composite={self.composite:.2f} "
            f"false={self.false_content_share:.2f} verified={self.verified_member_share:.2f} "
            f"diligence={self.editorial_diligence:.2f} provenance={self.provenance_discipline:.2f}"
        )


def rate_distribution_platform(
    ledger: Ledger, graph: SupplyChainGraph | nx.DiGraph, platform_name: str
) -> SourceRating:
    """Compute a platform's rating from its on-ledger record."""
    # One walk of the chain: the events of valid transactions by (contract,
    # kind), in chain order, as committed (read, never changed).
    events: defaultdict[tuple, list[dict]] = defaultdict(list)
    for committed in ledger.transactions():
        tx = committed.transaction
        for event in tx.events:
            events[tx.contract, event.get("kind")].append(event)
    # Articles that went through this platform's rooms: a draft names its
    # (platform, room), so a same-named room elsewhere is somebody else's.
    article_ids = [
        event["article_id"]
        for event in events["newsroom", "draft-submitted"]
        if event["platform"] == platform_name
    ]
    drafted = set(article_ids)
    member_addresses = {
        event["address"]
        for event in events["newsroom", "journalist-authenticated"]
        if event["platform"] == platform_name
    }
    verified_addresses = {event["address"] for event in events["identity", "identity-verified"]}
    verified_share = (
        len(member_addresses & verified_addresses) / len(member_addresses)
        if member_addresses
        else 1.0  # owner-only platform: the owner had to be verified
    )
    # Editorial diligence: review + rejection events over drafts.
    reviews = sum(
        1 for event in events["newsroom", "review-started"] if event["article_id"] in drafted
    )
    rejections = sum(
        1 for event in events["newsroom", "article-rejected"] if event["article_id"] in drafted
    )
    diligence = min(1.0, (reviews + rejections) / len(article_ids)) if article_ids else 0.0
    # False-content share from recorded rankings.
    rankings = {
        event["article_id"]: event["final_score"]
        for event in events["supplychain", "article-ranked"]
    }
    ranked = [rankings[a] for a in article_ids if a in rankings]
    false_share = (
        sum(1 for score in ranked if score < 0.5) / len(ranked) if ranked else 0.0
    )
    # Provenance discipline over the platform's recorded articles.
    provenance_scores = [
        trace_to_factual_root(graph, article_id).provenance_score
        for article_id in article_ids
        if article_id in graph
    ]
    provenance = sum(provenance_scores) / len(provenance_scores) if provenance_scores else 0.0
    composite = (
        0.40 * (1.0 - false_share)
        + 0.20 * verified_share
        + 0.15 * diligence
        + 0.25 * provenance
    )
    if len(article_ids) < _MIN_ARTICLES:
        color = "grey"
    elif composite >= _GREEN:
        color = "green"
    elif composite >= _ORANGE:
        color = "orange"
    else:
        color = "red"
    return SourceRating(
        platform_name=platform_name,
        articles=len(article_ids),
        false_content_share=false_share,
        verified_member_share=verified_share,
        editorial_diligence=diligence,
        provenance_discipline=provenance,
        composite=composite,
        color=color,
    )

