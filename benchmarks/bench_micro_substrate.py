"""Micro-benchmarks of the substrate hot paths.

Not a paper experiment — the engineering baseline: what one signature,
one endorsement round-trip, one LocalChain transaction, and one
provenance query cost.  pytest-benchmark runs these with real repetition
statistics (unlike the one-shot experiment benches).
"""

from __future__ import annotations

import os
import random
import time

from benchmarks.conftest import emit
from repro.chain import LocalChain
from repro.chain.state import WorldState
from repro.core import ProvenanceIndex
from repro.corpus import CorpusGenerator
from repro.crypto import KeyPair, ed25519
from repro.obs import MetricsRegistry
from tests.conftest import CounterContract

# REPRO_BENCH_SMOKE=1 shrinks the slow crypto benches to a CI-sized
# sanity pass (exercise the code paths, skip the statistical claims).
_SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"


def test_micro_ed25519_sign(benchmark):
    keypair = KeyPair.generate(random.Random(1))
    benchmark(keypair.sign, b"the quick brown fox")


def test_micro_ed25519_verify(benchmark):
    keypair = KeyPair.generate(random.Random(2))
    message = b"the quick brown fox"
    signature = keypair.sign(message)

    def verify_uncached():
        # Vary the message so the verification cache cannot short-circuit.
        verify_uncached.counter += 1
        payload = message + str(verify_uncached.counter).encode()
        return keypair.verify(payload, keypair.sign(payload))

    verify_uncached.counter = 0
    benchmark(verify_uncached)


def test_micro_ed25519_batch_verify(benchmark):
    """What one signature costs on each path, over the same honest items.

    - ``sign``: ``ed25519.sign`` under a seed that has signed before, as
      every ``KeyPair`` has (one fixed-base table product);
    - ``reference``: ``_verify_reference``, the textbook check by naive
      double-and-add with no table and no cache;
    - ``wnaf``: ``verify`` on a key seen for the first time (decompress
      ``A``, its odd multiples, a 253-doubling wNAF ladder);
    - ``wnaf-warm``: ``verify`` on a key whose split tables are cached —
      what the chain pays, where a fixed validator set and recurring
      clients sign repeatedly (32-doubling ladder);
    - ``batch-N``: ``verify_batch`` at batch sizes 1/8/32/128, which is
      ``verify`` item by item: cold (every key seen for the first time,
      the ``wnaf`` row's cost at every size) and warm (the split ladder
      per signature).

    The verify cache is cleared between measurements so every number is
    curve math, not memoized verdicts.  The gates are per signature
    against the reference.  A first-seen key costs ~1.4 ms against the
    reference's 3.3-3.7 (2.4-2.6x), so the cold gate is 2x: a batch of
    first-seen keys must cost no more than they do one by one.
    """
    sizes = (1, 8) if _SMOKE else (1, 8, 32, 128)
    reps = 1 if _SMOKE else 3
    n_items = max(sizes)
    seeds = [bytes([i % 251]) + bytes(31) for i in range(n_items)]
    items = []
    for i, seed in enumerate(seeds):
        pk = ed25519.generate_public_key(seed)
        msg = f"article-{i}".encode()
        items.append((pk, msg, ed25519.sign(seed, msg)))

    def _time_per_sig(fn, count, warm_points=False):
        best = float("inf")
        for _ in range(reps):
            ed25519.verify_cache_clear()
            if not warm_points:
                ed25519.point_cache_clear()
            start = time.perf_counter()
            fn()
            best = min(best, (time.perf_counter() - start) / count)
        return best * 1e3  # ms per signature

    ref_n = min(8, n_items) if _SMOKE else 32
    sign_ms = _time_per_sig(
        lambda: [ed25519.sign(seed, msg)
                 for seed, (_, msg, _) in zip(seeds[:ref_n], items)], ref_n
    )
    ref_ms = _time_per_sig(
        lambda: [ed25519._verify_reference(*item) for item in items[:ref_n]], ref_n
    )
    wnaf_ms = _time_per_sig(
        lambda: [ed25519.verify(*item) for item in items[:ref_n]], ref_n
    )
    batch_cold = {
        size: _time_per_sig(lambda s=size: ed25519.verify_batch(items[:s]), size)
        for size in sizes
    }
    for _ in range(2):  # steady state: a key's split tables come with its second lookup
        ed25519.verify_cache_clear()
        ed25519.verify_batch(items)
    warm_ms = _time_per_sig(
        lambda: [ed25519.verify(*item) for item in items[:ref_n]], ref_n,
        warm_points=True,
    )
    batch_warm = {
        size: _time_per_sig(lambda s=size: ed25519.verify_batch(items[:s]), size,
                            warm_points=True)
        for size in sizes
    }

    rows = [f"{'impl':<16} {'ms/sig':>8} {'speedup':>8}",
            f"{'sign':<16} {sign_ms:>8.3f} {'':>8}",
            f"{'reference':<16} {ref_ms:>8.3f} {'1.00x':>8}",
            f"{'wnaf':<16} {wnaf_ms:>8.3f} {ref_ms / wnaf_ms:>7.2f}x",
            f"{'wnaf-warm':<16} {warm_ms:>8.3f} {ref_ms / warm_ms:>7.2f}x"]
    metrics = {"sign_ms_per_sig": sign_ms, "reference_ms_per_sig": ref_ms,
               "wnaf_ms_per_sig": wnaf_ms, "wnaf_speedup": ref_ms / wnaf_ms,
               "wnaf_warm_ms_per_sig": warm_ms, "wnaf_warm_speedup": ref_ms / warm_ms}
    for label, table, suffix in (("cold", batch_cold, "_cold"),
                                 ("warm", batch_warm, "")):
        for size in sizes:
            speedup = ref_ms / table[size]
            rows.append(f"{f'batch-{size}-{label}':<16} {table[size]:>8.3f} "
                        f"{speedup:>7.2f}x")
            metrics[f"batch{size}{suffix}_ms_per_sig"] = table[size]
            metrics[f"batch{size}{suffix}_speedup"] = speedup
    emit(benchmark, "micro — ed25519: sign, and verify reference vs wNAF vs batched",
         rows, metrics=metrics)

    assert ref_ms / wnaf_ms > 1.0  # even a first-seen key must beat the textbook
    if not _SMOKE:
        assert ref_ms / warm_ms >= 4.0  # the chain's case: a cached signer
        assert ref_ms / batch_warm[32] >= 2.5  # PR 4's acceptance bar, kept
        assert ref_ms / batch_cold[32] >= 2.0  # first-seen keys, one by one
    ed25519.verify_cache_clear()
    ed25519.point_cache_clear()
    benchmark(lambda: (ed25519.verify_cache_clear(), ed25519.verify_batch(items[:8])))


def test_micro_localchain_invoke(benchmark):
    chain = LocalChain(seed=3)
    chain.install_contract(CounterContract())
    account = chain.new_account()

    def one_tx():
        chain.invoke(account, "counter", "increment")

    benchmark(one_tx)
    assert chain.ledger.height > 0


def test_micro_provenance_query(benchmark):
    gen = CorpusGenerator(seed=4)
    index = ProvenanceIndex()  # the platform's default (minhash), sketch + discovery
    for _ in range(200):
        article = gen.factual()
        index.add(article.article_id, article.text)
    query = gen.relay_derivation(gen.factual(), "q", 0.0)
    benchmark(index.discover_parents, query.text)


def test_micro_corpus_article(benchmark):
    gen = CorpusGenerator(seed=5)
    benchmark(gen.factual)


def test_micro_prefix_scan(benchmark):
    """Regression guard for the sorted-key prefix index.

    The seed implementation sorted every key on every scan —
    O(n log n) per query.  The index answers in O(log n + k); this
    measures both on the same 20k-key state and records the
    distributions in an obs registry so the speedup is part of the
    perf record, not just an eyeballed number.
    """
    state = WorldState()
    state.apply_write_set(
        {f"bucket{i % 40}/item-{i:06d}": {"i": i} for i in range(20_000)}
    )
    prefix = "bucket7/"

    def indexed_scan():
        return list(state.keys_with_prefix(prefix))

    def seed_scan():  # what keys_with_prefix did before the index
        return sorted(k for k in state._store if k.startswith(prefix))

    assert indexed_scan() == seed_scan()

    registry = MetricsRegistry()
    for name, scan in (("indexed", indexed_scan), ("full_sort", seed_scan)):
        hist = registry.histogram("micro.prefix_scan_us", impl=name)
        for _ in range(50):
            start = time.perf_counter()
            scan()
            hist.observe((time.perf_counter() - start) * 1e6)

    indexed = registry.histogram("micro.prefix_scan_us", impl="indexed").summary()
    full = registry.histogram("micro.prefix_scan_us", impl="full_sort").summary()
    speedup = full["p50"] / max(indexed["p50"], 1e-9)
    emit(
        None,
        "micro — prefix-scan index vs full-sort scan (20k keys)",
        [f"{'impl':<10} {'p50(us)':>9} {'p95(us)':>9}",
         f"{'indexed':<10} {indexed['p50']:>9.1f} {indexed['p95']:>9.1f}",
         f"{'full_sort':<10} {full['p50']:>9.1f} {full['p95']:>9.1f}",
         f"speedup (p50): {speedup:.1f}x"],
        metrics={"indexed_p50_us": indexed["p50"], "full_sort_p50_us": full["p50"],
                 "speedup_p50": speedup},
    )
    assert speedup > 2  # the index must beat re-sorting decisively
    benchmark(indexed_scan)
