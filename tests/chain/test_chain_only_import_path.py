"""Running only the chain loads neither numpy nor sqlite3.

numpy serves the AI component, provenance discovery and the cascade
engine, and loads on first use (``repro._numpy``); sqlite3 serves
nothing, since every transaction query answers from the ledger's
``ChainIndex``.  A fresh interpreter imports what the end-to-end harness
imports, runs a durable 4-peer PBFT network through text-less
supply-chain records and a follower crash and restart, reads the chain
back through the graph fold and the explorer, and numpy must never have
executed (no ``numpy.*`` submodule loaded) and sqlite3 must be absent.
The same holds for a ``storage="sqlite"`` network whose stores are
asked the harness's two store queries, before and after a restart.
``import repro.chain`` alone imports the chain and its substrates, not
the layers above it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SESSION = r"""
import sys

import repro.chain, repro.core.identity, repro.core.platform, repro.core.supplychain
import repro.corpus, repro.ml, repro.simnet, repro.social.cascade
from repro.chain import BlockchainNetwork, explorer
from repro.core.identity import IdentityContract
from repro.core.supplychain import SupplyChainContract, build_supply_chain_graph
from repro.simnet import FailureSchedule, UniformLatency

net = BlockchainNetwork(n_peers=4, consensus="pbft", latency=UniformLatency(0.01, 0.05), seed=3,
                        storage="durable", snapshot_interval=8, block_interval=0.25,
                        view_timeout=2.0)
net.install_contract(IdentityContract)
net.install_contract(SupplyChainContract)
schedule = FailureSchedule(net.sim, net.net)
client = net.client()
client.invoke("identity", "register", {"display_name": "fan", "role": "consumer"})
client.invoke("supplychain", "record_node", {
    "article_id": "root", "content_hash": "0" * 64, "parents": [],
    "modification_degree": 1.0, "topic": "politics", "op": "publish"})
schedule.crash_at(net.sim.now + 1.0, "peer-3")
schedule.restart_at(net.sim.now + 4.0, "peer-3")
for i in range(24):
    net.submit(net.endorse_transaction(client, "supplychain", "record_node", {
        "article_id": f"s-{i}", "content_hash": f"{i:064d}", "parents": ["root"],
        "parent_degrees": [0.0], "modification_degree": 0.0, "topic": "politics",
        "op": "share"}))
    net.run_for(0.25)
net.run_for(10.0)
net.assert_convergence()
assert net.obs.counter("store.recoveries", peer="peer-3").value == 1
for peer in net.peers:
    graph = build_supply_chain_graph(peer.ledger)
    assert all(graph.has_edge(f"s-{i}", "root") for i in range(24))
    assert len(explorer.find_transactions(peer.ledger, contract="supplychain", index=peer.index,
                                          limit=100)) == 25
    assert explorer.chain_summary(peer.ledger, index=peer.index)["height"] == peer.ledger.height
print(sorted(name for name in sys.modules
             if name.split(".")[0] in ("sqlite3", "_sqlite3") or name.startswith("numpy.")))
"""

SQLITE_STORAGE = r"""
import sys

from repro.chain import BlockchainNetwork
from repro.core.identity import IdentityContract
from repro.simnet import FailureSchedule, FixedLatency

net = BlockchainNetwork(n_peers=4, consensus="pbft", latency=FixedLatency(0.02), seed=3,
                        storage="sqlite", snapshot_interval=4, block_interval=0.25)
net.install_contract(IdentityContract)
schedule = FailureSchedule(net.sim, net.net)
schedule.crash_at(net.sim.now + 1.0, "peer-3")
schedule.restart_at(net.sim.now + 3.0, "peer-3")
for i in range(12):
    net.client().invoke("identity", "register", {"display_name": f"r-{i}", "role": "consumer"},
                        wait=False)
    net.run_for(0.25)
net.run_for(10.0)
net.assert_convergence()
assert net.obs.counter("store.recoveries", peer="peer-3").value == 1
for peer in net.peers:
    assert len(peer.store.query_transactions(contract="identity", limit=100)) == 12
    assert peer.store.sql_stats()["txs"] == len(peer.index) == 12
print(sorted(name for name in sys.modules if name.split(".")[0] in ("sqlite3", "_sqlite3")))
"""

CHAIN_ONLY = r"""
import sys

import repro.chain

above = (["repro", "core"], ["repro", "ml"], ["repro", "corpus"], ["repro", "social"])
print(sorted(name for name in sys.modules if name.split(".")[:2] in above))
"""


def _run(code):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_a_chain_only_session_never_loads_numpy_or_sqlite3():
    assert _run(SESSION) == "[]"


def test_a_sqlite_storage_session_never_loads_sqlite3():
    assert _run(SQLITE_STORAGE) == "[]"


def test_importing_the_chain_imports_no_layer_above_it():
    assert _run(CHAIN_ONLY) == "[]"
