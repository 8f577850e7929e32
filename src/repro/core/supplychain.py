"""The news blockchain supply-chain graph — contribution (2), Fig. 4.

Every piece of news entering the platform becomes a node recorded by a
blockchain transaction whose second end point is its discovered parent
reference(s) (§VI).  The committed ledger then *is* the supply chain:
this module builds the graph from ledger events and answers the
paper's central queries —

- can this article be traced back to the factual database?
- along the best path, how far is it and how much modification
  accumulated?
- who created the first fake ancestor (accountability)?
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import networkx as nx

from repro.chain.contracts import Contract, ContractContext, contract_method
from repro.chain.ledger import Ledger
from repro.core.identity import identity_key

__all__ = [
    "SupplyChainContract",
    "add_supply_node",
    "build_supply_chain_graph",
    "TraceResult",
    "trace_to_factual_root",
    "find_original_author",
    "supply_node_key",
]


def supply_node_key(article_id: str) -> str:
    return f"scnode:{article_id}"


class SupplyChainContract(Contract):
    """Records news nodes and their parent end points on-chain."""

    name = "supplychain"

    @contract_method
    def record_node(
        self,
        ctx: ContractContext,
        article_id: str,
        content_hash: str,
        parents: list[str],
        modification_degree: float,
        topic: str,
        op: str,
        fact_roots: list[str] | None = None,
        parent_degrees: list[float] | None = None,
        fact_degrees: list[float] | None = None,
    ):
        """Record one news item and its propagation end points.

        ``parents`` are previously recorded article ids (the discovered
        parent references); ``fact_roots`` are factual-database ids the
        content was matched against.  Each provenance edge carries its
        own measured change (``parent_degrees`` / ``fact_degrees``,
        aligned with the id lists); ``modification_degree`` is the
        node-level summary (minimum over edges) used for quick ranking.
        Per-edge degrees matter: a faithful relay of a distortion is
        0 from its parent but far from the grandparent, and collapsing
        those into one number mis-attributes accountability.
        """
        caller = ctx.get(identity_key(ctx.caller))
        ctx.require(caller is not None, "unregistered identities cannot record news")
        ctx.require(0.0 <= modification_degree <= 1.0, "modification_degree must be in [0, 1]")
        fact_roots = list(fact_roots or [])
        parent_degrees = list(parent_degrees) if parent_degrees is not None else [
            modification_degree
        ] * len(parents)
        fact_degrees = list(fact_degrees) if fact_degrees is not None else [
            modification_degree
        ] * len(fact_roots)
        ctx.require(len(parent_degrees) == len(parents), "parent_degrees misaligned with parents")
        ctx.require(len(fact_degrees) == len(fact_roots), "fact_degrees misaligned with fact_roots")
        ctx.require(
            all(0.0 <= d <= 1.0 for d in parent_degrees + fact_degrees),
            "edge degrees must be in [0, 1]",
        )
        key = supply_node_key(article_id)
        ctx.require(ctx.get(key) is None, f"article {article_id} already recorded")
        for parent in parents:
            ctx.require(
                ctx.get(supply_node_key(parent)) is not None,
                f"parent {parent} is not recorded in the supply chain",
            )
        record = {
            "article_id": article_id,
            "author": ctx.caller,
            "content_hash": content_hash,
            "parents": list(parents),
            "parent_degrees": parent_degrees,
            "modification_degree": modification_degree,
            "topic": topic,
            "op": op,
            "fact_roots": fact_roots,
            "fact_degrees": fact_degrees,
            "recorded_at": ctx.timestamp,
        }
        ctx.put(key, record)
        ctx.emit(
            "supply-node-recorded",
            article_id=article_id,
            parents=list(parents),
            parent_degrees=parent_degrees,
            modification_degree=modification_degree,
            topic=topic,
            op=op,
            fact_roots=fact_roots,
            fact_degrees=fact_degrees,
        )
        return record

    @contract_method
    def get_node(self, ctx: ContractContext, article_id: str):
        return ctx.get(supply_node_key(article_id))

    @contract_method
    def record_ranking(
        self,
        ctx: ContractContext,
        article_id: str,
        provenance_score: float | None,
        ai_score: float | None,
        crowd_score: float | None,
        final_score: float,
    ):
        """Publish an article's ranking verdict to the ledger.

        The verdict (and each component signal) is auditable: readers
        can see *why* an article ranks where it does, the transparency
        mechanism refs [29] argue for.
        """
        ctx.require(
            ctx.get(supply_node_key(article_id)) is not None,
            f"article {article_id} is not recorded in the supply chain",
        )
        ctx.require(0.0 <= final_score <= 1.0, "final_score must be in [0, 1]")
        record = {
            "article_id": article_id,
            "provenance_score": provenance_score,
            "ai_score": ai_score,
            "crowd_score": crowd_score,
            "final_score": final_score,
            "ranked_by": ctx.caller,
            "ranked_at": ctx.timestamp,
        }
        ctx.put(f"scrank:{article_id}", record)
        ctx.emit("article-ranked", article_id=article_id, final_score=final_score)
        return record

    @contract_method
    def get_ranking(self, ctx: ContractContext, article_id: str):
        return ctx.get(f"scrank:{article_id}")


def add_supply_node(graph: nx.DiGraph, event: dict) -> None:
    """Add one ``supply-node-recorded`` event's node and provenance edges
    to *graph* — the only place that does.

    Insertion order is part of the result: Dijkstra's tie-break in
    :func:`trace_to_factual_root` and the ``min`` in
    :func:`find_original_author` walk successors in the order the edges
    went in, so events must be applied in chain order.
    """
    article_id = event["article_id"]
    graph.add_node(
        article_id,
        author=event["_sender"],
        op=event["op"],
        topic=event["topic"],
        modification_degree=event["modification_degree"],
        recorded_at=event["_height"],
        tx_id=event["_tx_id"],
        is_fact_root=False,
    )
    parent_degrees = event.get("parent_degrees") or [event["modification_degree"]] * len(
        event["parents"]
    )
    for parent, degree in zip(event["parents"], parent_degrees):
        graph.add_edge(article_id, parent, weight=degree)
    fact_degrees = event.get("fact_degrees") or [event["modification_degree"]] * len(
        event["fact_roots"]
    )
    for fact_id, degree in zip(event["fact_roots"], fact_degrees):
        fact_node = f"fact:{fact_id}"
        if fact_node not in graph:
            graph.add_node(fact_node, is_fact_root=True, op="fact", author="factualdb",
                           topic=event["topic"], modification_degree=0.0)
        graph.add_edge(article_id, fact_node, weight=degree)


def build_supply_chain_graph(ledger: Ledger) -> nx.DiGraph:
    """Reconstruct the Fig. 4 graph from committed ledger events.

    Nodes are article ids (plus ``fact:<id>`` nodes for factual-database
    roots); a directed edge child -> parent points *toward provenance*.
    Node attributes carry author, op, modification degree, topic,
    recording time, and the id of the recording transaction, so every
    downstream analysis (ranking, experts, accountability, inclusion
    proofs) works from the same reconstruction.

    This is the fold from genesis: :func:`add_supply_node` over every
    ``supply-node-recorded`` event into an empty graph.  The platform's
    :class:`~repro.core.platform.LedgerView` runs the same body over the
    events above the height it has already folded, so the graph a reader
    follows and the one an auditor builds from any honest peer's ledger
    are equal node for node, edge for edge, in the same order.
    """
    graph = nx.DiGraph()
    for event in ledger.events(contract="supplychain", kind="supply-node-recorded"):
        add_supply_node(graph, event)
    return graph


@dataclass
class TraceResult:
    """Outcome of tracing one article toward the factual database."""

    article_id: str
    traceable: bool
    root: str | None = None
    path: list[str] = field(default_factory=list)
    hops: int = 0
    cumulative_modification: float = 0.0

    @property
    def provenance_score(self) -> float:
        """[0, 1] score: 1 at a factual root, decaying with accumulated
        modification; untraceable articles get 0."""
        if not self.traceable:
            return 0.0
        return max(0.0, 1.0 - self.cumulative_modification)


def trace_to_factual_root(graph: nx.DiGraph, article_id: str) -> TraceResult:
    """Find the minimum-accumulated-modification path to any factual root.

    Dijkstra over provenance edges, each weighted by the measured change
    between child and that specific parent.  Among factual roots, the
    least-modified path wins — matching §VI's "rank the news based on
    the degrees of modifications along the news propagation path".
    """
    if article_id not in graph:
        return TraceResult(article_id=article_id, traceable=False)
    # (cost, tiebreak, node, path)
    queue: list[tuple[float, int, str, list[str]]] = [(0.0, 0, article_id, [article_id])]
    best: dict[str, float] = {article_id: 0.0}
    counter = 0
    while queue:
        cost, _, node, path = heapq.heappop(queue)
        if cost > best.get(node, float("inf")):
            continue
        if graph.nodes[node].get("is_fact_root"):
            return TraceResult(
                article_id=article_id,
                traceable=True,
                root=node,
                path=path,
                hops=len(path) - 1,
                cumulative_modification=min(1.0, cost),
            )
        for parent in graph.successors(node):
            step = graph.edges[node, parent].get("weight", 0.0)
            next_cost = cost + step
            if next_cost < best.get(parent, float("inf")):
                best[parent] = next_cost
                counter += 1
                heapq.heappush(queue, (next_cost, counter, parent, path + [parent]))
    return TraceResult(article_id=article_id, traceable=False)


def find_original_author(
    graph: nx.DiGraph, article_id: str, copy_epsilon: float = 0.05
) -> str | None:
    """Accountability query: who introduced the content this article carries?

    §IV: "People [who] create fake news can be easily identified and
    located for accountability."  The walk follows *faithful-copy* edges
    (weight <= ``copy_epsilon``): as long as the current node is a
    near-verbatim copy of some ancestor, the divergence was inherited,
    not introduced, so responsibility moves up the lineage.  The walk
    stops at the first node with no faithful-copy parent — the account
    that actually authored this content (whether a distortion of a
    factual story or a fabrication from whole cloth).
    """
    if article_id not in graph:
        return None
    current = article_id
    visited: set[str] = set()
    while True:
        visited.add(current)
        copy_parents = [
            parent
            for parent in graph.successors(current)
            if parent not in visited
            and not graph.nodes[parent].get("is_fact_root")
            and graph.edges[current, parent].get("weight", 1.0) <= copy_epsilon
        ]
        if not copy_parents:
            return graph.nodes[current].get("author")
        current = min(
            copy_parents, key=lambda p: (graph.edges[current, p].get("weight", 1.0), p)
        )
