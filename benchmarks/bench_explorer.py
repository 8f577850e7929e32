"""Explorer query latency: materialized index vs ledger scan at 100k blocks.

The paper's news-consumer reads dominate the platform's workload
("who published this, what did this account endorse"), and before
:mod:`repro.chain.index` every such read was an O(chain) ledger scan.
This benchmark builds a randomized 100k-block chain (1k under
``REPRO_BENCH_SMOKE=1``), runs the same explorer query battery through
both paths, and asserts the two contracts the index ships under:

- **byte-identical answers** — every query in the battery returns
  exactly the same rows through ``ChainIndex`` as through the scan
  fallback (and ``verify_against`` finds no drift), so the index may
  serve reads while the scan stays the oracle;
- **p95 at least 10x faster** — over the battery, the index path's p95
  latency beats the scan's by >= 10x at the full size.  The battery
  deliberately includes the scan's worst cases (a contract that only
  ever appears in the oldest 0.1% of the chain, an absent sender): the
  fixed newest-first scan stops at ``limit``, so *common* queries are
  cheap either way — it is the rare/absent ones where O(chain) still
  bites and the interned views change the complexity class.

The ``@``-suffixed battery names in the table mark the queries whose
scan must walk (nearly) the whole chain.
"""

from __future__ import annotations

import os
import random
import statistics
import time

from benchmarks.conftest import emit
from repro.chain.block import Block
from repro.chain.explorer import chain_summary, find_transactions
from repro.chain.index import ChainIndex
from repro.chain.ledger import Ledger
from repro.chain.transaction import Transaction
from repro.crypto.hashing import sha256_hex

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
N_BLOCKS = 1_000 if _SMOKE else 100_000
#: The "registry" contract only ever appears in the oldest RARE_BLOCKS
#: blocks — a newest-first scan for it walks essentially the whole chain.
RARE_BLOCKS = max(10, N_BLOCKS // 1000)
INDEX_REPEATS = 5
SPEEDUP_FLOOR = 10.0

_CONTRACTS = (
    ("news", ("publish", "retract")),
    ("endorse", ("sign",)),
    ("votes", ("cast", "tally")),
)
_RARE = ("registry", ("charter",))


def _bench_tx(nonce: int, sender: str, contract: str, method: str) -> Transaction:
    """Structurally complete, dummy-signed (storage cost, not Ed25519)."""
    tx_id = sha256_hex(f"explorer-tx-{nonce}".encode("utf-8"))
    return Transaction(
        sender=sender, public_key_hex="00", contract=contract, method=method,
        args={"n": nonce}, nonce=nonce, timestamp=0.0, signature_hex="00",
        tx_id=tx_id, write_set={f"{contract}/{nonce % 97}": nonce},
        events=({"kind": f"{method}d", "n": nonce},),
    )


def _build_chain(seed: int) -> tuple[Ledger, ChainIndex, dict]:
    """A randomized chain: 20 senders, 3 common contracts, one contract
    and one sender confined to the oldest blocks, ~10% invalid txs.  The
    index is the ledger's own, fed by ``Ledger.append``."""
    rng = random.Random(seed)
    senders = [f"acct:{sha256_hex(f'sender-{i}'.encode())[:40]}" for i in range(20)]
    rare_sender = f"acct:{sha256_hex(b'rare-sender')[:40]}"
    ledger = Ledger()
    for height in range(1, N_BLOCKS + 1):
        nonce = height - 1
        if height <= RARE_BLOCKS and height % 2 == 0:
            contract, methods = _RARE
            sender = rare_sender
        else:
            contract, methods = rng.choice(_CONTRACTS)
            sender = rng.choice(senders)
        tx = _bench_tx(nonce, sender, contract, rng.choice(methods))
        block = Block.build(height, ledger.head.block_hash, float(height), "p", [tx])
        validity = [rng.random() > 0.1]
        ledger.append(block, validity)
    population = {"senders": senders, "rare_sender": rare_sender}
    return ledger, ledger.index, population


def _battery(population: dict) -> list[tuple[str, dict]]:
    """Named query mix; ``@`` marks the scan path's O(chain) worst cases."""
    senders = population["senders"]
    return [
        ("rare-contract@", {"contract": _RARE[0]}),
        ("rare-pair@", {"contract": _RARE[0], "method": _RARE[1][0]}),
        ("rare-sender@", {"sender": population["rare_sender"]}),
        ("absent-contract@", {"contract": "nonesuch"}),
        ("absent-sender@", {"sender": "acct:" + "0" * 40}),
        ("common-contract", {"contract": "news", "limit": 20}),
        ("common-sender", {"sender": senders[0], "limit": 20}),
        ("sender+contract", {"sender": senders[1], "contract": "votes"}),
        ("method-only", {"method": "publish", "limit": 20}),
        ("unfiltered", {"limit": 50}),
    ]


def _timed(fn) -> tuple[float, object]:
    started = time.perf_counter()
    out = fn()
    return time.perf_counter() - started, out


def _p95(samples: list[float]) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * 0.95))]


def _run() -> dict:
    build_s, (ledger, index, population) = _timed(lambda: _build_chain(seed=1789))
    battery = _battery(population)

    per_query: dict[str, dict] = {}
    scan_times: list[float] = []
    index_times: list[float] = []
    for name, kwargs in battery:
        scan_s, scan_rows = _timed(lambda k=kwargs: find_transactions(ledger, **k))
        samples = []
        for _ in range(INDEX_REPEATS):
            index_s, index_rows = _timed(
                lambda k=kwargs: find_transactions(ledger, index=index, **k)
            )
            samples.append(index_s)
        assert index_rows == scan_rows, f"paths diverge on {name}: {kwargs}"
        scan_times.append(scan_s)
        index_times.extend(samples)
        per_query[name] = {
            "scan_s": scan_s,
            "index_s": statistics.median(samples),
            "rows": len(scan_rows),
        }

    summary_scan_s, scan_summary = _timed(lambda: chain_summary(ledger))
    summary_index_s, index_summary = _timed(lambda: chain_summary(ledger, index=index))
    assert index_summary == scan_summary, "chain_summary paths diverge"
    assert index.verify_against(ledger) == [], "index drifted from the chain"

    return {
        "n_blocks": N_BLOCKS,
        "build_s": build_s,
        "per_query": per_query,
        "scan_p95_s": _p95(scan_times),
        "index_p95_s": _p95(index_times),
        "summary_scan_s": summary_scan_s,
        "summary_index_s": summary_index_s,
        "summary": scan_summary,
    }


def test_explorer_index_vs_scan(benchmark):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    per_query = result["per_query"]
    rows = [f"{'query':>16} {'rows':>5} {'scan(ms)':>9} {'index(ms)':>9} {'x':>8}"]
    for name, q in per_query.items():
        ratio = q["scan_s"] / q["index_s"] if q["index_s"] else float("inf")
        rows.append(
            f"{name:>16} {q['rows']:>5} {q['scan_s'] * 1e3:>9.3f} "
            f"{q['index_s'] * 1e3:>9.3f} {ratio:>8.1f}"
        )
    speedup = result["scan_p95_s"] / result["index_p95_s"]
    summary_speedup = result["summary_scan_s"] / result["summary_index_s"]
    rows.append(
        f"{result['n_blocks']} blocks "
        f"({result['summary']['transactions']} txs, built in {result['build_s']:.1f}s): "
        f"battery p95 scan {result['scan_p95_s'] * 1e3:.2f}ms vs index "
        f"{result['index_p95_s'] * 1e3:.3f}ms -> {speedup:.0f}x"
    )
    rows.append(
        f"chain_summary: scan {result['summary_scan_s'] * 1e3:.2f}ms vs index "
        f"{result['summary_index_s'] * 1e3:.3f}ms -> {summary_speedup:.0f}x"
    )
    rows.append("shape: every battery query byte-identical across paths; "
                "@-queries are the scan's O(chain) worst cases the index "
                "answers from its views")
    emit(benchmark, "Explorer — indexed queries vs ledger scan", rows, metrics={
        "n_blocks": result["n_blocks"],
        "scan_p95_ms": round(result["scan_p95_s"] * 1e3, 4),
        "index_p95_ms": round(result["index_p95_s"] * 1e3, 4),
        "p95_speedup": round(speedup, 1),
        "summary_speedup": round(summary_speedup, 1),
    })

    # Equivalence asserted per query inside _run; the perf gate only
    # binds at full size (smoke chains are too small for stable ratios).
    if not _SMOKE:
        assert speedup >= SPEEDUP_FLOOR, (
            f"index p95 speedup {speedup:.1f}x below the {SPEEDUP_FLOOR:.0f}x floor"
        )
