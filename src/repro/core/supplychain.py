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

An edge onto the factual database is always discovered, by every
reader's fold against a seeded or promoted fact's text, never claimed by
a writer: a record can name only article parents, so no key can make
fabricated content look fact-rooted.

The graph is a :class:`SupplyChainGraph`: plain dicts that answer the
part of networkx's ``DiGraph`` interface these walks use, so a process
that reads the chain does not load networkx.  The queries still accept
an ``nx.DiGraph`` built by :func:`add_supply_node`, which is what the
tests compare against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.chain.contracts import Contract, ContractContext, contract_method
from repro.chain.ledger import Ledger
from repro.core.identity import identity_key

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "SupplyChainContract",
    "SupplyChainGraph",
    "add_supply_node",
    "build_supply_chain_graph",
    "TraceResult",
    "trace_to_factual_root",
    "find_original_author",
    "supply_node_key",
    "FACT_PREFIX",
    "MAX_TEXT_LENGTH",
    "COPY_EPSILON",
]

#: The namespace of factual-root nodes in the supply-chain graph:
#: ``fact:<fact id>``.  No recorded article may take an id in it.
FACT_PREFIX = "fact:"

#: The longest ``text`` a record or a seeded fact may carry, in characters
#: (the corpus's articles average 409–623): a text costs no gas, and every
#: reader's provenance fold sketches it.
MAX_TEXT_LENGTH = 16_384

#: The largest edge weight (measured change) :func:`find_original_author`
#: still reads as a faithful copy of the parent.
COPY_EPSILON = 0.05


def is_text(value: str | None) -> bool:
    """Whether a ``text`` argument is within :data:`MAX_TEXT_LENGTH`."""
    return value is None or len(value) <= MAX_TEXT_LENGTH


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
        topic: str,
        op: str,
        parents: list[str] | None = None,
        modification_degree: float | None = None,
        parent_degrees: list[float] | None = None,
        ai_score: float | None = None,
        text: str | None = None,
    ):
        """Record one news item and, for a record without ``text``, its
        claimed parents.

        ``text`` is the article's text, when the recorder shares it: the
        ledger is the content store, and every reader's fold
        (``LedgerView``) derives such a record's links from it against the
        texts committed before it — discovered parents and fact roots, or
        the indexed ids among the ``parents`` it declares.  So a record
        that carries its text claims no links: ``modification_degree`` and
        ``parent_degrees`` beside it are refused, ``parents`` is only a
        declaration (checked for its type and for repeats), and neither the
        text nor the declaration is written to state or emitted.

        A record without ``text`` claims its ``parents`` (previously
        recorded article ids), is not discoverable as a parent, and claims
        no fact root: a fact root is always derived, against a seeded or
        promoted fact's text, so no key can make fabricated content look
        fact-rooted.  Each parent edge carries its own measured change
        (``parent_degrees``, aligned with ``parents``, each defaulting to
        ``modification_degree``); ``modification_degree`` is the
        node-level summary used for quick ranking.  Per-edge degrees
        matter: a faithful relay of a distortion is 0 from its parent but
        far from the grandparent, and collapsing those into one number
        mis-attributes accountability.  The record and its event keep the
        empty ``fact_roots`` / ``fact_degrees`` every reader's record
        shape holds.

        ``ai_score`` is the AI component's verdict, P(fake), when the
        recorder had one (Fig. 1: the verdict becomes the transaction).
        It enters the record and the event only when given, so an
        unscored record keeps the bytes it has always had.

        Each id appears once in ``parents``: the graph keeps one edge per
        (child, parent) pair, so a repeated id with two degrees would keep
        whichever came last, and the same two claims would trace and
        attribute differently by their order.

        An ``article_id`` in the :data:`FACT_PREFIX` namespace is refused:
        the graph names factual roots that way, and a record there would
        take over the root every honest relay of that fact traces to.

        The annotations are the type check (``Contract.dispatch``); a
        ``text`` is at most :data:`MAX_TEXT_LENGTH` characters.
        """
        ctx.require(is_text(text), f"text must be at most {MAX_TEXT_LENGTH} characters")
        ctx.require(
            text is not None or parents is not None and modification_degree is not None,
            "a record without text claims its parents and modification_degree",
        )
        ctx.require(
            text is None or modification_degree is None and parent_degrees is None,
            "a record that carries its text claims no degrees: readers derive them",
        )
        caller = ctx.get(identity_key(ctx.caller))
        ctx.require(caller is not None, "unregistered identities cannot record news")
        ctx.require(
            not article_id.startswith(FACT_PREFIX),
            f"article id {article_id!r} is in the reserved {FACT_PREFIX!r} namespace",
        )
        ctx.require(
            parents is None or len(set(parents)) == len(parents),
            "parents name an article more than once",
        )
        ctx.require(ai_score is None or 0.0 <= ai_score <= 1.0, "ai_score must be in [0, 1]")
        key = supply_node_key(article_id)
        ctx.require(ctx.get(key) is None, f"article {article_id} already recorded")
        links = {}
        if text is None:  # the record claims its parents: check them
            ctx.require(0.0 <= modification_degree <= 1.0, "modification_degree must be in [0, 1]")
            if parent_degrees is None:
                parent_degrees = [modification_degree] * len(parents)
            ctx.require(len(parent_degrees) == len(parents), "parent_degrees misaligned with parents")
            ctx.require(all(0.0 <= d <= 1.0 for d in parent_degrees), "edge degrees must be in [0, 1]")
            for parent in parents:
                ctx.require(
                    ctx.get(supply_node_key(parent)) is not None,
                    f"parent {parent} is not recorded in the supply chain",
                )
            links = {"parents": list(parents), "parent_degrees": list(parent_degrees),
                     "modification_degree": modification_degree, "fact_roots": [],
                     "fact_degrees": []}
        scored = {} if ai_score is None else {"ai_score": ai_score}
        record = {
            "article_id": article_id,
            "author": ctx.caller,
            "content_hash": content_hash,
            **links,
            "topic": topic,
            "op": op,
            "recorded_at": ctx.timestamp,
            **scored,
        }
        ctx.put(key, record)
        ctx.emit("supply-node-recorded", article_id=article_id, **links, topic=topic, op=op,
                 **scored)
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
        mechanism refs [29] argue for.  Only a verified identity may rank:
        a ranking is what ``factualdb.promote`` reads.
        """
        ctx.require(
            ctx.get(supply_node_key(article_id)) is not None,
            f"article {article_id} is not recorded in the supply chain",
        )
        caller = ctx.get(identity_key(ctx.caller))
        ctx.require(caller is not None and caller["verified"], "only verified identities may rank")
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


class _Nodes(dict):
    """Node id -> attribute dict, in insertion order; called, it lists the
    ids, or ``(id, attributes)`` pairs with ``data=True``, as networkx's
    ``G.nodes`` does."""

    def __call__(self, data: bool = False):
        return self.items() if data else self.keys()


class _Edges:
    """``G.edges`` of a :class:`SupplyChainGraph`: ``[child, parent]`` is
    the edge's attributes (``{"weight": degree}``); called, it lists the
    ``(child, parent)`` pairs, or ``(child, parent, attributes)`` with
    ``data=True``, in networkx's order (by child, then by edge
    insertion)."""

    __slots__ = ("_parents",)

    def __init__(self, parents: dict[str, dict[str, float]]) -> None:
        self._parents = parents

    def __getitem__(self, edge: tuple[str, str]) -> dict[str, float]:
        child, parent = edge
        return {"weight": self._parents[child][parent]}

    def __call__(self, data: bool = False) -> list[tuple]:
        if data:
            return [(child, parent, {"weight": weight})
                    for child, parents in self._parents.items()
                    for parent, weight in parents.items()]
        return [(child, parent) for child, parents in self._parents.items() for parent in parents]


class SupplyChainGraph:
    """The Fig. 4 graph as plain dicts.

    One attribute dict per node, the child -> parent edges with their
    weights, and the reverse parent -> child map, all in insertion order
    (the walks below depend on it).  It answers the networkx ``DiGraph``
    names this repository calls on the supply chain — ``add_node``,
    ``add_edge``, ``in``, ``len``, iteration, ``nodes`` (``[n]``,
    ``.get``, ``(data=True)``), ``edges`` (``[u, v]``, ``(data=True)``),
    ``successors``, ``predecessors``, ``has_edge``, ``in_degree(n)``,
    ``out_degree(n)``, ``number_of_nodes`` and ``number_of_edges`` — with
    networkx's results and order, and nothing else.  An analysis that
    needs a graph algorithm builds a networkx graph from ``nodes`` and
    ``edges()`` where it runs it.
    """

    def __init__(self) -> None:
        self.nodes = _Nodes()
        self._parents: dict[str, dict[str, float]] = {}  # child -> {parent: weight}
        self._children: dict[str, dict[str, None]] = {}  # parent -> children, an ordered set
        self.edges = _Edges(self._parents)

    def add_node(self, node: str, **attrs: Any) -> None:
        """Add *node*, or update the attributes of the one already there."""
        if node not in self.nodes:
            self.nodes[node], self._parents[node], self._children[node] = {}, {}, {}
        self.nodes[node].update(attrs)

    def add_edge(self, child: str, parent: str, weight: float) -> None:
        """Add the edge child -> parent (a missing end becomes a node with
        no attributes); a second call for the pair replaces its weight."""
        for node in (child, parent):
            if node not in self.nodes:
                self.add_node(node)
        self._parents[child][parent] = weight
        self._children[parent][child] = None

    def __contains__(self, node: object) -> bool:
        return node in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[str]:
        return iter(self.nodes)

    def successors(self, node: str) -> Iterator[str]:
        """The parents of *node* (edges point toward provenance)."""
        return iter(self._parents[node])

    def predecessors(self, node: str) -> Iterator[str]:
        """The nodes recorded with *node* as a parent or factual root."""
        return iter(self._children[node])

    def has_edge(self, child: str, parent: str) -> bool:
        return parent in self._parents.get(child, ())

    def in_degree(self, node: str) -> int:
        return len(self._children[node])

    def out_degree(self, node: str) -> int:
        return len(self._parents[node])

    def number_of_nodes(self) -> int:
        return len(self.nodes)

    def number_of_edges(self) -> int:
        return sum(map(len, self._parents.values()))


def add_supply_node(graph: SupplyChainGraph | nx.DiGraph, event: dict) -> None:
    """Add one ``supply-node-recorded`` event's node and provenance edges
    to *graph* — the only place that does.  The event carries its links
    (``parents`` / ``parent_degrees``, ``fact_roots`` / ``fact_degrees``,
    ``modification_degree``): the contract emits the claimed parents, and
    empty fact lists, for a record without text, and the reader's fold
    derives and adds all of them for one with text.

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
        ai_score=event.get("ai_score"),
        is_fact_root=False,
    )
    for parent, degree in zip(event["parents"], event["parent_degrees"]):
        graph.add_edge(article_id, parent, weight=degree)
    for fact_id, degree in zip(event["fact_roots"], event["fact_degrees"]):
        fact_node = FACT_PREFIX + fact_id
        if fact_node not in graph:
            graph.add_node(fact_node, is_fact_root=True, op="fact", author="factualdb",
                           topic=event["topic"], modification_degree=0.0)
        graph.add_edge(article_id, fact_node, weight=degree)


def build_supply_chain_graph(ledger: Ledger) -> SupplyChainGraph:
    """Reconstruct the Fig. 4 graph from committed ledger events.

    Nodes are article ids (plus ``fact:<id>`` nodes for factual-database
    roots); a directed edge child -> parent points *toward provenance*.
    Node attributes carry author, op, modification degree, topic,
    recording time, the committed AI score (None when the record has
    none), and the id of the recording transaction, so every
    downstream analysis (ranking, experts, accountability, inclusion
    proofs) works from the same reconstruction.

    This is the fold from genesis, ``LedgerView().follow(ledger).graph``:
    a record that carries its text gets the links that fold derives at
    its chain position, so the graph a reader follows and the one an
    auditor builds from any honest peer's ledger are equal node for node,
    edge for edge, in the same order.
    """
    from repro.core.platform import LedgerView

    return LedgerView().follow(ledger).graph


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


def trace_to_factual_root(
    graph: SupplyChainGraph | nx.DiGraph, article_id: str
) -> TraceResult:
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


def find_original_author(graph: SupplyChainGraph | nx.DiGraph, article_id: str) -> str | None:
    """Accountability query: who introduced the content this article carries?

    §IV: "People [who] create fake news can be easily identified and
    located for accountability."  The walk follows *faithful-copy* edges
    (weight <= :data:`COPY_EPSILON`): as long as the current node is a
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
            and graph.edges[current, parent].get("weight", 1.0) <= COPY_EPSILON
        ]
        if not copy_parents:
            return graph.nodes[current].get("author")
        current = min(
            copy_parents, key=lambda p: (graph.edges[current, p].get("weight", 1.0), p)
        )
