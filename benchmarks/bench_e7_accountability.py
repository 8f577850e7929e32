"""E7 — §IV traceability & accountability.

Workload: 60 fake-news lineages.  Each lineage: a factual root, a
malicious mutation by a planted culprit, then 3-6 laundering relays
through other accounts.  The fact is seeded with its text, and every
other article goes on the chain through ``report_external`` with its
text and no claimed link, so the graph is the one every reader's fold
discovers; only the ground truth (who is the culprit) is the
generator's.  The question: who created the fake?

- **blockchain trace-back** (this platform): walk the supply-chain
  graph's faithful-copy edges to the content's true author;
- **last-hop baseline** (the status quo the paper criticizes — IP
  churn, foreign servers): all you can see is the account that handed
  you the article.

Reports identification accuracy for both; the gap is the paper's
accountability claim, quantified.
"""

from __future__ import annotations

import random

from benchmarks.conftest import emit
from repro.core import TrustingNewsPlatform, build_supply_chain_graph, find_original_author
from repro.corpus import CorpusGenerator

N_LINEAGES = 60


def _build():
    platform = TrustingNewsPlatform(seed=700)
    gen = CorpusGenerator(seed=700)
    rng = random.Random(701)

    def report(name, article):
        if name not in platform.accounts:
            platform.register_participant(name, role="consumer", verified=False)
        platform.report_external(name, article.article_id, article.text, article.topic,
                                 source="social-media")

    cases = []
    for lineage in range(N_LINEAGES):
        root = gen.factual()
        platform.seed_fact(f"fact-{lineage}", root.text, "public-record", root.topic)
        reporter = f"reporter-{lineage}"
        story = gen.relay_derivation(root, reporter, 0.0)
        report(reporter, story)
        culprit = f"culprit-{lineage}"
        fake = gen.malicious_derivation(story, culprit, 1.0)
        report(culprit, fake)
        current = fake
        last_sharer = culprit
        for hop in range(rng.randint(3, 6)):
            last_sharer = f"relayer-{lineage}-{hop}"
            current = gen.relay_derivation(current, last_sharer, 2.0 + hop)
            report(last_sharer, current)
        cases.append((current.article_id, culprit, last_sharer))
    return platform, cases


def _evaluate(platform, cases):
    graph = build_supply_chain_graph(platform.chain.ledger)
    chain_correct = 0
    baseline_correct = 0
    for leaf_id, culprit, last_sharer in cases:
        identified = find_original_author(graph, leaf_id)
        if identified == platform.address_of(culprit):
            chain_correct += 1
        if last_sharer == culprit:  # the last hop is only right if no laundering
            baseline_correct += 1
    return chain_correct, baseline_correct


def test_e7_accountability(benchmark):
    platform, cases = _build()
    chain_correct, baseline_correct = benchmark.pedantic(
        _evaluate, args=(platform, cases), rounds=1, iterations=1
    )
    rows = [
        f"lineages: {N_LINEAGES} (mutation + 3-6 laundering relays each)",
        f"blockchain trace-back identified the culprit: {chain_correct}/{N_LINEAGES} "
        f"({100 * chain_correct / N_LINEAGES:.0f}%)",
        f"last-hop baseline (IP-churn world):          {baseline_correct}/{N_LINEAGES} "
        f"({100 * baseline_correct / N_LINEAGES:.0f}%)",
    ]
    emit(benchmark, "E7 — fake-news originator identification", rows)
    assert chain_correct >= 0.95 * N_LINEAGES
    assert baseline_correct == 0
