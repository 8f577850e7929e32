"""E1 — Fig. 1: the integrated platform pipeline, end to end.

Workload: 60 articles (mix of faithful reports and mutations) pushed
through the full publish -> provenance -> AI score -> crowd vote ->
rank -> commit pipeline on one platform, and the ledger it leaves
behind — the four components of the architecture figure operating as
one pipeline.  What the path costs and where is measured by the
end-to-end harness, not here: ``python benchmarks/e2e/run.py --workload
newsroom_publish --trace 1`` attributes the same publish / vote / rank
path per layer over real consensus (``core.*``, ``provenance.*``,
``ml.*``, ``crypto.*`` in ``BENCH_<pr>.json``); the only clock in this
file is pytest-benchmark's own wall time for the run.
"""

from __future__ import annotations

import random

from benchmarks.conftest import emit
from repro.core import TrustingNewsPlatform, ValidatorPool
from repro.corpus import CorpusGenerator
from repro.corpus.mutations import relay

N_ARTICLES = 60
N_VALIDATORS = 8


def _build_world(scorer):
    platform = TrustingNewsPlatform(seed=300, scorer=scorer)
    gen = CorpusGenerator(seed=300)
    platform.register_participant("wire", role="publisher")
    platform.create_distribution_platform("wire", "wire-svc")
    platform.create_news_room("wire", "wire-svc", "desk", "politics")
    platform.register_participant("author", role="journalist")
    platform.authenticate_journalist("wire-svc", "author")
    facts = [gen.factual(topic="politics") for _ in range(10)]
    for index, fact in enumerate(facts):
        platform.seed_fact(f"f-{index}", fact.text, "public-record", "politics")
    rng = random.Random(301)
    pool = ValidatorPool.generate(N_VALIDATORS, rng)
    for index in range(N_VALIDATORS):
        platform.register_participant(f"val-{index}", role="checker")
    return platform, gen, facts, pool, rng


def _run_pipeline(platform, gen, facts, pool, rng):
    for index in range(N_ARTICLES):
        fact = facts[index % len(facts)]
        if index % 3 == 2:
            article = gen.malicious_derivation(relay(fact, "author", 0.0), "author", float(index))
        else:
            article = relay(fact, "author", float(index))
        article_id = f"e1-{index}"
        platform.publish_article("author", "wire-svc", "desk", article_id,
                                 article.text, "politics")
        platform.ai_score(article.text)
        votes = pool.collect_votes(not article.label_fake, rng, turnout=0.6)
        for vote_index, vote in enumerate(votes):
            platform.cast_vote(f"val-{vote_index}", article_id, vote.verdict)
        platform.rank_article(article_id)


def test_e1_platform_pipeline(benchmark, session_scorer):
    platform, gen, facts, pool, rng = _build_world(session_scorer)
    benchmark.pedantic(
        _run_pipeline, args=(platform, gen, facts, pool, rng), rounds=1, iterations=1
    )
    stats = platform.stats()
    rows = [
        f"articles processed: {N_ARTICLES}, validators per article: ~{int(N_VALIDATORS*0.6)}",
        f"ledger: {stats['blocks']} blocks, {stats['transactions']} txs, "
        f"{stats['supply_chain_edges']} supply-chain edges",
    ]
    emit(benchmark, "E1 Fig.1 — integrated pipeline", rows)
    assert stats["articles"] == N_ARTICLES
