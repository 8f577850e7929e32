"""A1 — ablation: parent-reference discovery method.

Workload: 300 indexed articles; 150 queries that are derivations
(relays, quotes, malicious mutations) of known parents.  For each
strategy (exact shingle Jaccard, MinHash sketch, term cosine) reports
recall@1 / recall@2 of the true parent plus per-query latency — the
cost/recall trade a production deployment would choose from.

Scale row: the platform's default index (MinHash signatures as columns
of one matrix) at 50 000 indexed articles (5 000 under
``REPRO_BENCH_SMOKE=1``) against the loop it replaced — one
``estimated_jaccard`` per indexed article over the same signatures —
with identical answers asserted for every query.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import emit
from repro.core import ProvenanceIndex
from repro.corpus import CorpusGenerator
from repro.corpus.similarity import estimated_jaccard

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

N_INDEXED = 300
N_QUERIES = 150
N_SCALE = 5_000 if _SMOKE else 50_000
N_SCALE_QUERIES = 12
_SCAN_CHUNK = 5_000  # signatures turned into Python tuples at a time (2.6 kB each)


def _dataset():
    gen = CorpusGenerator(seed=1300)
    originals = [gen.factual() for _ in range(N_INDEXED)]
    queries = []
    for index in range(N_QUERIES):
        parent = originals[index % N_INDEXED]
        roll = index % 3
        if roll == 0:
            child = gen.relay_derivation(parent, "q", 1.0)
        elif roll == 1:
            child = gen.benign_derivation(parent, "q", 1.0)
        else:
            child = gen.malicious_derivation(parent, "q", 1.0)
        queries.append((child.text, parent.article_id))
    return originals, queries


def _evaluate(originals, queries):
    results = {}
    for method in ("exact", "minhash", "cosine"):
        index = ProvenanceIndex(method=method)
        for article in originals:
            index.add(article.article_id, article.text)
        hit_at_1 = hit_at_2 = 0
        start = time.perf_counter()
        for text, true_parent in queries:
            candidates = index.discover_parents(text, threshold=0.05, max_parents=2)
            found = [c.article_id for c in candidates]
            if found and found[0] == true_parent:
                hit_at_1 += 1
            if true_parent in found:
                hit_at_2 += 1
        per_query_ms = 1000 * (time.perf_counter() - start) / len(queries)
        results[method] = (hit_at_1 / len(queries), hit_at_2 / len(queries), per_query_ms)
    return results


def test_a1_provenance_methods(benchmark):
    originals, queries = _dataset()
    results = benchmark.pedantic(_evaluate, args=(originals, queries), rounds=1, iterations=1)
    rows = [f"{'method':<8} {'recall@1':>9} {'recall@2':>9} {'ms/query':>9}"]
    for method, (recall1, recall2, latency) in results.items():
        rows.append(f"{method:<8} {recall1:>9.2f} {recall2:>9.2f} {latency:>9.2f}")
    rows.append(f"(index size {N_INDEXED}; queries are 1/3 relays, 1/3 benign "
                f"derivations, 1/3 malicious mutations)")
    emit(benchmark, "A1 — parent discovery: exact vs MinHash vs cosine", rows)
    assert results["exact"][1] >= 0.9
    assert results["minhash"][1] >= 0.85  # sketch trades a little recall


def _scale_index():
    """Families of a fact, a relay, a malicious derivation and one fabricated article."""
    gen = CorpusGenerator(seed=1301)
    index = ProvenanceIndex()
    facts = []
    while len(index) < N_SCALE:
        fact = gen.factual()
        facts.append(fact)
        for article in (fact, gen.relay_derivation(fact, "r", 1.0),
                        gen.malicious_derivation(fact, "t", 2.0), gen.fabricated()):
            index.add(f"s-{len(index):06d}", article.text)
    step = len(facts) // N_SCALE_QUERIES
    queries = [gen.benign_derivation(fact, "q", 3.0).text
               for fact in facts[::step][:N_SCALE_QUERIES]]
    return index, queries + [gen.fabricated().text]


def _scan(index, query, threshold=0.15, max_parents=2):
    """``discover_parents`` as the per-article loop it was; returns (answer, seconds in the loop)."""
    signature = index.sketch(query).representation
    scored, elapsed = [], 0.0
    for start in range(0, len(index), _SCAN_CHUNK):
        ids = index._ids[start:start + _SCAN_CHUNK]
        stored = [tuple(column) for column in
                  index._signatures[:, start:start + len(ids)].T.tolist()]
        begin = time.perf_counter()
        for article_id, indexed in zip(ids, stored):
            similarity = estimated_jaccard(signature, indexed)
            if similarity >= threshold:
                scored.append((article_id, similarity))
        elapsed += time.perf_counter() - begin
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:max_parents], elapsed


def test_a1_matrix_vs_scan_at_scale(benchmark):
    index, queries = _scale_index()

    def run():
        sketches = [index.sketch(query) for query in queries]
        begin = time.perf_counter()
        found = [index.discover_parents(sketch) for sketch in sketches]
        matrix_s = time.perf_counter() - begin
        assert any(found)
        scan_s = 0.0
        for query, candidates in zip(queries, found):
            expected, seconds = _scan(index, query)
            scan_s += seconds
            assert [(c.article_id, c.similarity) for c in candidates] == expected
        return 1000 * matrix_s / len(queries), 1000 * scan_s / len(queries)

    matrix_ms, scan_ms = benchmark.pedantic(run, rounds=1, iterations=1)
    stored = index._signatures[:, : len(index)].nbytes / len(index)
    allocated = index._signatures.nbytes / len(index)
    rows = [
        f"{'indexed':>8} {'matrix ms/query':>16} {'scan ms/query':>14} {'speedup':>8} "
        f"{'B/article':>10} {'allocated':>10}",
        f"{len(index):>8} {matrix_ms:>16.2f} {scan_ms:>14.2f} {scan_ms / matrix_ms:>7.1f}x "
        f"{stored:>10.0f} {allocated:>10.0f}",
        f"({len(queries)} queries, identical answers; both sides exclude the sketch; "
        f"B/article is the signature column, allocated includes spare capacity)",
    ]
    emit(benchmark, "A1 — MinHash discovery at scale: matrix compare vs per-article scan", rows,
         metrics={"indexed": len(index), "matrix_ms_per_query": matrix_ms,
                  "scan_ms_per_query": scan_ms, "signature_bytes_per_article": stored})
    if not _SMOKE:
        assert scan_ms >= 10 * matrix_ms
