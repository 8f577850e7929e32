"""A6 — the price of faults: consensus under crash and byzantine load.

The paper's platform "demands a high performance blockchain network"
(§VII) that must also survive misbehaving participants (§IV).  This
ablation quantifies what each fault class costs on the same workload
(40 txs, 4 validators):

- healthy PBFT (baseline),
- PBFT with one crashed replica (f = 1, inside the bound),
- PBFT with a crashed *primary* (forces view changes),
- PBFT with an equivocating byzantine primary,
- healthy PoA for scale.

Reported: committed tx count, mean commit latency, view changes, and
messages per committed tx.  Expected shape: replica crash ~free,
primary faults cost latency (timeout + view change) but never safety.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.chain import BlockchainNetwork
from repro.simnet import FixedLatency

N_TXS = 40


def _run(label: str, crash: str | None = None, byzantine: set[str] | None = None,
         consensus: str = "pbft"):
    from tests.conftest import CounterContract

    network = BlockchainNetwork(
        n_peers=4, consensus=consensus, block_interval=0.4,
        latency=FixedLatency(0.02), seed=1600,
        byzantine_peers=byzantine or set(), view_timeout=2.5,
    )
    network.install_contract(CounterContract)
    if crash is not None:
        network.net.node(crash).crashed = True
    client = network.client()
    submitted = []
    # Bursts of 4 so blocks carry several transactions — a byzantine
    # primary can only equivocate over multi-tx batches.
    for burst_start in range(0, N_TXS, 4):
        for index in range(burst_start, burst_start + 4):
            tx = network.endorse_transaction(client, "counter", "increment", {"amount": 1})
            entry = network.peers[(index % 3) + 1]  # avoid the (possibly dead) peer-0
            if not entry.submit(tx).accepted:
                # The entry peer refused (e.g. it is the crashed replica);
                # a real client's RPC would fail and retry elsewhere.
                network.submit(tx)
            submitted.append(tx.tx_id)
        network.run_for(2.4)
    network.run_for(25)
    network.assert_convergence()
    live = [p for p in network.peers if not p.crashed and not p.byzantine]
    reference = max(live, key=lambda p: p.ledger.height)
    committed = sum(1 for tx_id in submitted if tx_id in reference.receipts)
    latency = network.obs.histogram("phase.commit_latency", peer=reference.node_id).mean
    live_ids = {p.node_id for p in live}
    view_changes = int(max(
        (c.value for c in network.obs.counters("pbft.view_changes")
         if c.labels["peer"] in live_ids),
        default=0,
    ))
    valid = network.obs.counter("peer.txs_committed_valid", peer=reference.node_id).value
    messages = network.obs.total("net.sent") / max(1, valid)
    return label, committed, latency, view_changes, messages


def _sweep():
    return [
        _run("pbft healthy"),
        _run("pbft replica crash", crash="peer-3"),
        _run("pbft primary crash", crash="peer-0"),
        _run("pbft byzantine primary", byzantine={"peer-0"}),
        _run("poa healthy", consensus="poa"),
    ]


def test_a6_fault_cost(benchmark):
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    rows = [f"{'scenario':<24} {'committed':>9} {'latency(s)':>11} "
            f"{'view-changes':>13} {'msgs/tx':>8}"]
    for label, committed, latency, view_changes, messages in results:
        rows.append(
            f"{label:<24} {committed:>7}/{N_TXS} {latency:>11.2f} "
            f"{view_changes:>13} {messages:>8.1f}"
        )
    rows.append("shape: replica crash is ~free; primary faults pay view-change "
                "latency; safety holds in every scenario (assert_convergence)")
    emit(benchmark, "A6 — what each fault class costs", rows)
    by_label = {r[0]: r for r in results}
    healthy = by_label["pbft healthy"]
    assert healthy[1] == N_TXS
    assert by_label["pbft replica crash"][1] == N_TXS  # f=1 tolerated
    # Primary faults recover liveness through view changes.
    assert by_label["pbft primary crash"][3] >= 1
    assert by_label["pbft primary crash"][1] >= 0.9 * N_TXS
    assert by_label["pbft primary crash"][2] > healthy[2]  # latency cost
    assert by_label["pbft byzantine primary"][1] >= 0.9 * N_TXS
