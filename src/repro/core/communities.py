"""Community identification from propagation structure (§VI).

"The construction of news blockchain supply chain graph as well as the
topic based news rooms is very useful in identifying the
groups/communities persons belong to" — and §VII's personalization
needs those groups to target interventions and "build bridges across
communities".

Inputs are share events (who re-published whose content); the
interaction graph they induce is clustered with greedy modularity, and
*bridge* accounts — those whose interactions span communities — are
surfaced as the natural carriers of cross-group corrections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.social.cascade import ShareEvent

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["interaction_graph", "detect_communities", "find_bridges", "BridgeAccount"]


def interaction_graph(events: list[ShareEvent]) -> nx.Graph:
    """Undirected weighted graph of who-shared-from-whom.

    Edge weight counts interactions; repeated sharing between the same
    pair strengthens their tie, which is what modularity clustering
    keys on.
    """
    import networkx as nx

    graph = nx.Graph()
    for event in events:
        a, b = event.source_agent_id, event.agent_id
        if a == b:
            continue
        if graph.has_edge(a, b):
            graph[a][b]["weight"] += 1
        else:
            graph.add_edge(a, b, weight=1)
    return graph


def detect_communities(graph: nx.Graph, max_communities: int | None = None) -> dict[str, int]:
    """Assign each account a community index by greedy modularity.

    Deterministic for a given graph.  Singletons (accounts with no
    interactions) are absent from the result — they belong to no group.
    """
    from networkx.algorithms import community as nx_community

    if graph.number_of_nodes() == 0:
        return {}
    kwargs = {"weight": "weight"}
    if max_communities is not None:
        kwargs["cutoff"] = kwargs["best_n"] = max_communities
    groups = nx_community.greedy_modularity_communities(graph, **kwargs)
    assignment: dict[str, int] = {}
    # Stable indexing: order communities by (size desc, smallest member).
    ordered = sorted(groups, key=lambda g: (-len(g), min(g)))
    for index, group in enumerate(ordered):
        for node in group:
            assignment[node] = index
    return assignment


@dataclass(frozen=True)
class BridgeAccount:
    """An account whose ties span communities."""

    agent_id: str
    community: int
    cross_ties: int
    total_ties: int

    @property
    def bridge_score(self) -> float:
        return self.cross_ties / self.total_ties if self.total_ties else 0.0


def find_bridges(
    graph: nx.Graph, assignment: dict[str, int], min_cross_ties: int = 1
) -> list[BridgeAccount]:
    """Accounts with ties into other communities, strongest bridges first.

    These are the paper's "bridges across communities/groups" — the
    accounts through which a correction can reach an echo chamber from
    a source it does not reflexively distrust.
    """
    bridges = []
    for node in graph.nodes():
        home = assignment.get(node)
        if home is None:
            continue
        cross = total = 0
        for neighbor in graph.neighbors(node):
            weight = graph[node][neighbor].get("weight", 1)
            total += weight
            if assignment.get(neighbor, home) != home:
                cross += weight
        if cross >= min_cross_ties:
            bridges.append(
                BridgeAccount(agent_id=node, community=home, cross_ties=cross, total_ties=total)
            )
    bridges.sort(key=lambda b: (-b.bridge_score, -b.cross_ties, b.agent_id))
    return bridges
