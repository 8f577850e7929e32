"""Follow-graph topologies for the social simulator.

All generators return a directed graph whose edge (u, v) means
"v follows u" — i.e. content posted by u flows to v.  Three families
cover the experiments' needs:

- scale-free (Barabási–Albert): realistic degree heavy tail; the
  default propagation substrate,
- small-world (Watts–Strogatz): high clustering control case,
- polarized SBM: two dense communities with sparse cross links, the
  "isolated social groups" of the paper's introduction (Benkler [1]),
  used by the bias and intervention experiments.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.social.agents import SocialAgent

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "scale_free_follow_graph",
    "small_world_follow_graph",
    "polarized_follow_graph",
    "bind_agents",
    "interconnect",
]


def _directed_from_undirected(graph: nx.Graph, rng: random.Random) -> nx.DiGraph:
    """Orient each undirected edge randomly, doubling ~30% to mutual."""
    import networkx as nx

    directed = nx.DiGraph()
    directed.add_nodes_from(graph.nodes())
    for u, v in graph.edges():
        if rng.random() < 0.5:
            u, v = v, u
        directed.add_edge(u, v)
        if rng.random() < 0.3:
            directed.add_edge(v, u)
    return directed


def scale_free_follow_graph(n_agents: int, attachment: int = 3, seed: int = 0) -> nx.DiGraph:
    """Barabási–Albert preferential attachment, randomly oriented."""
    import networkx as nx

    rng = random.Random(seed)
    base = nx.barabasi_albert_graph(n_agents, attachment, seed=seed)
    return _directed_from_undirected(base, rng)


def small_world_follow_graph(
    n_agents: int, k_neighbors: int = 6, rewire: float = 0.1, seed: int = 0
) -> nx.DiGraph:
    """Watts–Strogatz ring lattice with rewiring, randomly oriented."""
    import networkx as nx

    rng = random.Random(seed)
    base = nx.watts_strogatz_graph(n_agents, k_neighbors, rewire, seed=seed)
    return _directed_from_undirected(base, rng)


def polarized_follow_graph(
    n_agents: int,
    p_within: float = 0.02,
    p_across: float = 0.001,
    seed: int = 0,
) -> nx.DiGraph:
    """Two-community stochastic block model ("echo chambers").

    Node attribute ``community`` is 0 or 1; experiments read it to plant
    polarized validators and to measure cross-community reach.
    """
    import networkx as nx

    half = n_agents // 2
    sizes = [half, n_agents - half]
    base = nx.stochastic_block_model(sizes, [[p_within, p_across], [p_across, p_within]], seed=seed)
    rng = random.Random(seed)
    directed = _directed_from_undirected(base, rng)
    for node in directed.nodes():
        directed.nodes[node]["community"] = 0 if node < half else 1
    return directed


def bind_agents(graph: nx.DiGraph, agents: list[SocialAgent]) -> dict[int, SocialAgent]:
    """Attach one agent per node; copies community labels onto agents.

    Returns the node -> agent mapping and stores each agent under the
    node's ``agent`` attribute.
    """
    if len(agents) != graph.number_of_nodes():
        raise ValueError(
            f"{len(agents)} agents for {graph.number_of_nodes()} nodes — must match"
        )
    mapping: dict[int, SocialAgent] = {}
    for node, agent in zip(sorted(graph.nodes()), agents):
        community = graph.nodes[node].get("community", 0)
        agent.community = community
        graph.nodes[node]["agent"] = agent
        mapping[node] = agent
    return mapping


def interconnect(graph: nx.DiGraph, agents: list[SocialAgent]) -> None:
    """Add mutual follow edges between all of *agents* (already bound).

    Used to wire botnet rings: coordinated accounts follow each other so
    each member sees — and can amplify — every other member's posts.
    """
    wanted = {agent.agent_id for agent in agents}
    nodes = [
        node for node, attrs in graph.nodes(data=True)
        if attrs.get("agent") is not None and attrs["agent"].agent_id in wanted
    ]
    if len(nodes) != len(wanted):
        raise ValueError("some agents are not bound to graph nodes")
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            graph.add_edge(u, v)
            graph.add_edge(v, u)
