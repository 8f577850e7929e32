"""Conventional *process* blockchain supply chain — the Fig. 3 baseline.

The paper contrasts its dynamic news supply chain (Fig. 4) with the
well-known workflow-type supply chains (Fig. 3): "pre-configured
limited number of processing steps ... the blockchain network
architecture is therefore can be pre-fixed".  This module implements
that baseline — a food-safety-style batch workflow with a fixed stage
sequence enforced on-chain — so E3/E4 can compare the two structurally
(linear, bounded depth, fixed participants vs. dynamic, heavy-tailed,
open-membership).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.chain.contracts import Contract, ContractContext, contract_method
from repro.chain.ledger import Ledger

if TYPE_CHECKING:
    import networkx as nx

    from repro.core.supplychain import SupplyChainGraph

__all__ = ["ProcessSupplyChainContract", "PROCESS_STAGES", "process_chain_graph", "GraphShape", "graph_shape"]

# The pre-configured workflow: every batch moves through these in order.
PROCESS_STAGES = ("farm", "processor", "distributor", "retailer", "consumer")


def batch_key(batch_id: str) -> str:
    return f"batch:{batch_id}"


class ProcessSupplyChainContract(Contract):
    """Fixed-workflow supply chain (enterprise/food-safety style)."""

    name = "process-chain"

    @contract_method
    def register_batch(self, ctx: ContractContext, batch_id: str, description: str):
        """Create a batch at the first stage."""
        key = batch_key(batch_id)
        ctx.require(ctx.get(key) is None, f"batch {batch_id} already registered")
        record = {
            "batch_id": batch_id,
            "description": description,
            "stage_index": 0,
            "history": [
                {"stage": PROCESS_STAGES[0], "actor": ctx.caller, "at": ctx.timestamp}
            ],
        }
        ctx.put(key, record)
        ctx.emit("batch-registered", batch_id=batch_id)
        return record

    @contract_method
    def advance(self, ctx: ContractContext, batch_id: str, data: str = ""):
        """Move a batch to its next stage — the order is fixed by the
        contract, which is exactly what makes this architecture easy to
        secure and impossible to apply to open news propagation."""
        key = batch_key(batch_id)
        record = ctx.get(key)
        ctx.require(record is not None, f"no batch {batch_id}")
        next_index = record["stage_index"] + 1
        ctx.require(
            next_index < len(PROCESS_STAGES),
            f"batch {batch_id} already completed the workflow",
        )
        record["stage_index"] = next_index
        record["history"].append(
            {"stage": PROCESS_STAGES[next_index], "actor": ctx.caller,
             "at": ctx.timestamp, "data": data}
        )
        ctx.put(key, record)
        ctx.emit("batch-advanced", batch_id=batch_id, stage=PROCESS_STAGES[next_index])
        return record

    @contract_method
    def get_batch(self, ctx: ContractContext, batch_id: str):
        return ctx.get(batch_key(batch_id))


def process_chain_graph(ledger: Ledger) -> nx.DiGraph:
    """Reconstruct the (linear) stage graph of every batch from events."""
    import networkx as nx

    graph = nx.DiGraph()
    stage_of: dict[str, int] = {}
    for event in ledger.events(contract="process-chain"):
        batch_id = event["batch_id"]
        if event["kind"] == "batch-registered":
            node = f"{batch_id}@{PROCESS_STAGES[0]}"
            graph.add_node(node, batch=batch_id, stage=PROCESS_STAGES[0])
            stage_of[batch_id] = 0
        elif event["kind"] == "batch-advanced":
            previous = f"{batch_id}@{PROCESS_STAGES[stage_of[batch_id]]}"
            stage_of[batch_id] += 1
            node = f"{batch_id}@{event['stage']}"
            graph.add_node(node, batch=batch_id, stage=event["stage"])
            graph.add_edge(node, previous)
    return graph


@dataclass(frozen=True)
class GraphShape:
    """Structural summary used to compare Fig. 3 vs Fig. 4 graphs.

    Edges point child -> parent (toward provenance), so *fan-out* — how
    many derived items one node spawned — is the **in**-degree, and
    *branching* — multi-parent nodes like mixes/merges — is out-degree
    greater than one.
    """

    nodes: int
    edges: int
    max_depth: int
    max_fanout: int
    mean_fanout: float
    branching_nodes: int  # nodes with >1 provenance parent (merges/mixes)

    def as_row(self, name: str) -> str:
        return (
            f"{name:<16} nodes={self.nodes:<6} edges={self.edges:<6} "
            f"max_depth={self.max_depth:<4} max_fanout={self.max_fanout:<4} "
            f"mean_fanout={self.mean_fanout:.2f} branching={self.branching_nodes}"
        )


def graph_shape(graph: SupplyChainGraph | nx.DiGraph) -> GraphShape:
    """Compute the structural summary of a provenance-style DAG.

    The depth is networkx's longest path, run on a networkx copy of
    *graph*'s nodes and edges, so the Fig. 4 graph and the Fig. 3 one are
    measured by the same code.
    """
    import networkx as nx

    dag = nx.DiGraph()
    dag.add_nodes_from(graph.nodes)
    dag.add_edges_from(graph.edges())
    if dag.number_of_nodes() == 0:
        return GraphShape(0, 0, 0, 0, 0.0, 0)
    in_degrees = [d for _, d in dag.in_degree()]
    out_degrees = [d for _, d in dag.out_degree()]
    # Depth in hops: ignore edge weight attrs (they carry modification
    # degrees, not lengths).
    depth = (
        int(nx.dag_longest_path_length(dag, weight=None))
        if nx.is_directed_acyclic_graph(dag)
        else -1
    )
    return GraphShape(
        nodes=dag.number_of_nodes(),
        edges=dag.number_of_edges(),
        max_depth=depth,
        max_fanout=max(in_degrees),
        mean_fanout=sum(in_degrees) / len(in_degrees),
        branching_nodes=sum(1 for d in out_degrees if d > 1),
    )
