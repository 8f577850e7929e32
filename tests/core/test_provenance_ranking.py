"""Parent discovery across methods; ranking fusion and modes."""

import pytest

from repro.core import ArticleSignals, FactualnessRanker, ProvenanceIndex, RankingWeights
from repro.corpus import CorpusGenerator
from repro.errors import ReproError


@pytest.fixture
def gen():
    return CorpusGenerator(seed=31)


@pytest.mark.parametrize("method", ["exact", "minhash", "cosine"])
def test_discovers_true_parent(gen, method):
    index = ProvenanceIndex(method=method)
    originals = [gen.factual() for _ in range(10)]
    for article in originals:
        index.add(article.article_id, article.text)
    child = gen.relay_derivation(originals[3], "sharer", 1.0)
    candidates = index.discover_parents(child.text)
    assert candidates
    assert candidates[0].article_id == originals[3].article_id


@pytest.mark.parametrize("method", ["exact", "minhash", "cosine"])
def test_unrelated_text_finds_nothing(gen, method):
    index = ProvenanceIndex(method=method, shingle_k=3)
    for _ in range(5):
        article = gen.factual(topic="sports")
        index.add(article.article_id, article.text)
    assert index.discover_parents("completely unrelated quantum blockchain gardening") == []


def test_mutated_child_still_resolves(gen):
    index = ProvenanceIndex(method="exact")
    originals = [gen.factual() for _ in range(8)]
    for article in originals:
        index.add(article.article_id, article.text)
    fake = gen.malicious_derivation(originals[2], "troll", 1.0, pool=originals)
    candidates = index.discover_parents(fake.text, threshold=0.1)
    assert any(c.article_id == originals[2].article_id for c in candidates)


def test_max_parents_respected(gen):
    index = ProvenanceIndex(method="exact")
    base = gen.factual()
    index.add(base.article_id, base.text)
    for i in range(4):
        relay = gen.relay_derivation(base, f"s{i}", 1.0)
        index.add(relay.article_id, relay.text)
    candidates = index.discover_parents(base.text, max_parents=2, exclude=base.article_id)
    assert len(candidates) == 2


def test_exclude_self(gen):
    index = ProvenanceIndex(method="exact")
    article = gen.factual()
    index.add(article.article_id, article.text)
    candidates = index.discover_parents(article.text, exclude=article.article_id)
    assert all(c.article_id != article.article_id for c in candidates)


def test_duplicate_add_rejected(gen):
    index = ProvenanceIndex()
    article = gen.factual()
    index.add(article.article_id, article.text)
    with pytest.raises(ReproError):
        index.add(article.article_id, article.text)


def test_unknown_method_rejected():
    with pytest.raises(ReproError):
        ProvenanceIndex(method="vibes")


def test_degree_between_measured(gen):
    index = ProvenanceIndex()
    parent = gen.factual()
    index.add(parent.article_id, parent.text)
    assert index.degree_between(parent.text, parent.article_id) == pytest.approx(0.0)
    assert index.degree_between("totally different words", parent.article_id) > 0.8
    assert index.degree_between("anything", "never-indexed") == 1.0


# -- ranking fusion ------------------------------------------------------------


def test_hybrid_weighted_mean():
    ranker = FactualnessRanker(RankingWeights(provenance=0.5, ai=0.3, crowd=0.2))
    signals = ArticleSignals("a", provenance_score=1.0, ai_score=0.5, crowd_score=0.0)
    assert ranker.score(signals) == pytest.approx(0.5 * 1.0 + 0.3 * 0.5)


def test_missing_signals_renormalize():
    ranker = FactualnessRanker(RankingWeights(provenance=0.5, ai=0.3, crowd=0.2))
    signals = ArticleSignals("a", provenance_score=0.8, ai_score=None, crowd_score=None)
    assert ranker.score(signals) == pytest.approx(0.8)


def test_all_missing_neutral():
    assert FactualnessRanker().score(ArticleSignals("a")) == 0.5


def test_single_signal_modes():
    ranker = FactualnessRanker()
    signals = ArticleSignals("a", provenance_score=0.9, ai_score=0.1, crowd_score=0.4)
    assert ranker.score(signals, mode="provenance") == 0.9
    assert ranker.score(signals, mode="ai") == 0.1
    assert ranker.score(signals, mode="crowd") == 0.4


def test_unknown_mode_rejected():
    with pytest.raises(ReproError):
        FactualnessRanker().score(ArticleSignals("a"), mode="oracle")


def test_rank_orders_descending():
    ranker = FactualnessRanker()
    ranked = ranker.rank(
        [
            ArticleSignals("low", provenance_score=0.1),
            ArticleSignals("high", provenance_score=0.9),
            ArticleSignals("mid", provenance_score=0.5),
        ]
    )
    assert [r.article_id for r in ranked] == ["high", "mid", "low"]


def test_weight_validation():
    with pytest.raises(ReproError):
        RankingWeights(provenance=-1)
    with pytest.raises(ReproError):
        RankingWeights(provenance=0, ai=0, crowd=0)
