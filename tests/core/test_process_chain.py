"""Fixed-workflow supply chain (Fig. 3 baseline)."""

import pytest

from repro.chain import LocalChain
from repro.core.process_chain import (
    PROCESS_STAGES,
    ProcessSupplyChainContract,
    graph_shape,
    process_chain_graph,
)
from repro.errors import ContractError


@pytest.fixture
def chain():
    c = LocalChain(seed=9)
    c.install_contract(ProcessSupplyChainContract())
    return c


def test_register_and_advance_full_workflow(chain):
    actor = chain.new_account()
    chain.invoke(actor, "process-chain", "register_batch",
                 {"batch_id": "b-1", "description": "lettuce"})
    for _ in range(len(PROCESS_STAGES) - 1):
        chain.invoke(actor, "process-chain", "advance", {"batch_id": "b-1"})
    record = chain.query("process-chain", "get_batch", {"batch_id": "b-1"})
    assert record["stage_index"] == len(PROCESS_STAGES) - 1
    assert [h["stage"] for h in record["history"]] == list(PROCESS_STAGES)


def test_cannot_advance_past_end(chain):
    actor = chain.new_account()
    chain.invoke(actor, "process-chain", "register_batch", {"batch_id": "b-1", "description": "x"})
    for _ in range(len(PROCESS_STAGES) - 1):
        chain.invoke(actor, "process-chain", "advance", {"batch_id": "b-1"})
    with pytest.raises(ContractError, match="completed"):
        chain.invoke(actor, "process-chain", "advance", {"batch_id": "b-1"})


def test_duplicate_batch_rejected(chain):
    actor = chain.new_account()
    chain.invoke(actor, "process-chain", "register_batch", {"batch_id": "b-1", "description": "x"})
    with pytest.raises(ContractError, match="already registered"):
        chain.invoke(actor, "process-chain", "register_batch", {"batch_id": "b-1", "description": "y"})


def test_unknown_batch(chain):
    actor = chain.new_account()
    with pytest.raises(ContractError, match="no batch"):
        chain.invoke(actor, "process-chain", "advance", {"batch_id": "ghost"})


def test_graph_is_linear_per_batch(chain):
    actor = chain.new_account()
    for batch in ("b-1", "b-2"):
        chain.invoke(actor, "process-chain", "register_batch",
                     {"batch_id": batch, "description": "x"})
        for _ in range(len(PROCESS_STAGES) - 1):
            chain.invoke(actor, "process-chain", "advance", {"batch_id": batch})
    graph = process_chain_graph(chain.ledger)
    shape = graph_shape(graph)
    assert shape.nodes == 2 * len(PROCESS_STAGES)
    assert shape.edges == 2 * (len(PROCESS_STAGES) - 1)
    assert shape.max_fanout == 1  # strictly linear: the Fig. 3 signature
    assert shape.branching_nodes == 0
    assert shape.max_depth == len(PROCESS_STAGES) - 1


def test_graph_shape_empty():
    import networkx as nx

    shape = graph_shape(nx.DiGraph())
    assert shape.nodes == 0 and shape.edges == 0


def test_graph_shape_of_the_supply_chain_equals_its_networkx_copy(platform):
    import networkx as nx

    from repro.corpus import CorpusGenerator
    from repro.corpus.mutations import relay

    fact = CorpusGenerator(seed=4).factual(topic="politics")
    platform.seed_fact("f-0", fact.text, "public-record", "politics")
    platform.register_participant("reporter", role="consumer")
    for index in range(4):
        platform.report_external("reporter", f"x-{index}", relay(fact, "r", float(index)).text,
                                 "politics", f"outlet-{index}")
    graph = platform.graph
    copy = nx.DiGraph()
    copy.add_nodes_from(graph.nodes(data=True))
    copy.add_edges_from(graph.edges(data=True))
    shape = graph_shape(graph)
    assert shape == graph_shape(copy)
    assert shape.nodes == 5 and shape.max_depth >= 2 and shape.branching_nodes >= 1
