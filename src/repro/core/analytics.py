"""Ledger analytics: the journalist-facing statistics layer (§II).

The platform promises journalists "pointers to the original data
sources, news propagation path, AI analyzed experts to consult on a
given topic" and "meaningful topic statistics".  Everything here is a
pure reconstruction from the committed ledger + supply-chain graph —
no privileged in-memory state — so any peer (or auditor) computes the
same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.chain.ledger import Ledger
from repro.core.supplychain import trace_to_factual_root

if TYPE_CHECKING:
    import networkx as nx

    from repro.core.supplychain import SupplyChainGraph

__all__ = [
    "TopicStatistics",
    "topic_statistics",
    "AccountReport",
    "account_report",
    "propagation_timeline",
    "ranking_history",
]


@dataclass(frozen=True)
class TopicStatistics:
    """One topic's health snapshot."""

    topic: str
    articles: int
    authors: int
    traceable: int
    mean_provenance: float
    mean_modification: float
    fact_roots: int

    @property
    def traceable_share(self) -> float:
        return self.traceable / self.articles if self.articles else 0.0

    def as_row(self) -> str:
        return (
            f"{self.topic:<12} articles={self.articles:<5} authors={self.authors:<5} "
            f"traceable={self.traceable_share:6.1%} mean_prov={self.mean_provenance:.2f} "
            f"mean_mod={self.mean_modification:.2f} roots={self.fact_roots}"
        )


def topic_statistics(graph: SupplyChainGraph | nx.DiGraph) -> list[TopicStatistics]:
    """Per-topic summaries over the whole supply-chain graph."""
    by_topic: dict[str, list[str]] = {}
    roots_by_topic: dict[str, int] = {}
    for node, attrs in graph.nodes(data=True):
        topic = attrs.get("topic", "?")
        if attrs.get("is_fact_root"):
            roots_by_topic[topic] = roots_by_topic.get(topic, 0) + 1
        else:
            by_topic.setdefault(topic, []).append(node)
    results = []
    for topic, nodes in sorted(by_topic.items()):
        traces = [trace_to_factual_root(graph, node) for node in nodes]
        traceable = sum(1 for t in traces if t.traceable)
        provenance = [t.provenance_score for t in traces]
        modification = [graph.nodes[n].get("modification_degree", 0.0) for n in nodes]
        authors = {graph.nodes[n].get("author") for n in nodes}
        results.append(
            TopicStatistics(
                topic=topic,
                articles=len(nodes),
                authors=len(authors),
                traceable=traceable,
                mean_provenance=sum(provenance) / len(provenance) if provenance else 0.0,
                mean_modification=sum(modification) / len(modification) if modification else 0.0,
                fact_roots=roots_by_topic.get(topic, 0),
            )
        )
    return results


@dataclass(frozen=True)
class AccountReport:
    """The public track record of one address — the accountability view."""

    address: str
    articles: int
    topics: tuple[str, ...]
    mean_modification: float
    traceable_share: float
    mean_provenance: float
    derived_from_others: int  # articles with at least one parent
    descendants: int  # how much downstream sharing the account's work drew


def account_report(graph: SupplyChainGraph | nx.DiGraph, address: str) -> AccountReport:
    """Everything the ledger says about one account's output."""
    own_nodes = [
        node
        for node, attrs in graph.nodes(data=True)
        if attrs.get("author") == address and not attrs.get("is_fact_root")
    ]
    traces = [trace_to_factual_root(graph, node) for node in own_nodes]
    traceable = sum(1 for t in traces if t.traceable)
    descendants = sum(graph.in_degree(node) for node in own_nodes)
    modification = [graph.nodes[n].get("modification_degree", 0.0) for n in own_nodes]
    return AccountReport(
        address=address,
        articles=len(own_nodes),
        topics=tuple(sorted({graph.nodes[n].get("topic", "?") for n in own_nodes})),
        mean_modification=sum(modification) / len(modification) if modification else 0.0,
        traceable_share=traceable / len(own_nodes) if own_nodes else 0.0,
        mean_provenance=(
            sum(t.provenance_score for t in traces) / len(traces) if traces else 0.0
        ),
        derived_from_others=sum(
            1 for node in own_nodes
            if any(not graph.nodes[p].get("is_fact_root") for p in graph.successors(node))
        ),
        descendants=descendants,
    )


def propagation_timeline(
    graph: SupplyChainGraph | nx.DiGraph, article_id: str
) -> list[tuple[int, int]]:
    """(block height, cumulative descendant count) for one article.

    The "continuously monitoring and recording the effectiveness of the
    fake news propagation" curve (§VI), reconstructed from recording
    heights on the ledger.
    """
    if article_id not in graph:
        return []
    # Descendants = nodes with a provenance path *to* the article: walk
    # the edges backwards (they point child -> parent).
    reachable: set[str] = set()
    frontier = [article_id]
    while frontier:
        for child in graph.predecessors(frontier.pop()):
            if child not in reachable:
                reachable.add(child)
                frontier.append(child)
    reachable.discard(article_id)
    heights = sorted(
        graph.nodes[node].get("recorded_at", 0) for node in reachable
    )
    timeline = []
    count = 0
    for height in heights:
        count += 1
        if timeline and timeline[-1][0] == height:
            timeline[-1] = (height, count)
        else:
            timeline.append((height, count))
    return timeline


def ranking_history(ledger: Ledger, article_id: str | None = None) -> list[dict]:
    """All on-chain ranking verdicts (optionally for one article)."""
    history = []
    for event in ledger.events(contract="supplychain", kind="article-ranked"):
        if article_id is not None and event["article_id"] != article_id:
            continue
        history.append(
            {
                "article_id": event["article_id"],
                "final_score": event["final_score"],
                "height": event["_height"],
                "ranked_by": event["_sender"],
            }
        )
    return history
