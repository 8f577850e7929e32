"""The minhash index's signature matrix against the scalar scan it replaced.

Under ``minhash`` :class:`ProvenanceIndex` compares the query against
every indexed signature in one array pass.  The reference here is the
loop that pass replaced — ``estimated_jaccard`` per indexed article —
with the same threshold test, sort key and cut.
"""

import math

import pytest

from repro.core import ProvenanceIndex
from repro.corpus import CorpusGenerator
from repro.corpus.similarity import estimated_jaccard, minhash_signature, shingles
from repro.errors import ReproError


def _signature(text):
    return minhash_signature(shingles(text, 3), 64)


def _scan(signatures, query, threshold=0.15, max_parents=2):
    """What ``discover_parents`` returned when it was a Python loop."""
    query_signature = _signature(query)
    scored = [(article_id, estimated_jaccard(query_signature, signature))
              for article_id, signature in signatures.items()]
    scored = [(article_id, s) for article_id, s in scored if s >= threshold]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:max_parents]


def _found(index, query, **kwargs):
    return [(c.article_id, c.similarity) for c in index.discover_parents(query, **kwargs)]


@pytest.fixture(scope="module")
def corpus():
    """Families of a fact plus derivations, so most queries have several hits."""
    gen = CorpusGenerator(seed=23)
    texts, facts = {}, []
    while len(texts) < 4 * 64 + 1:
        fact = gen.factual()
        facts.append(fact)
        family = [fact, gen.relay_derivation(fact, "r", 1.0),
                  gen.malicious_derivation(fact, "t", 2.0),
                  gen.insertion_fake(fact, "t", 3.0, n_insertions=2)]
        for article in family:
            texts[f"c-{len(texts):03d}"] = article.text
    queries = [gen.fabricated().text] + [
        gen.insertion_fake(fact, "q", 4.0, n_insertions=3).text
        for fact in (facts[0], facts[31], facts[-1])]
    return texts, queries


def test_discovery_equals_the_scan_across_every_capacity_doubling(corpus):
    texts, queries = corpus
    index = ProvenanceIndex()
    signatures = {}
    capacities = set()
    for article_id, text in texts.items():
        index.add(article_id, text)
        capacities.add(index._signatures.shape[1])
        signatures[article_id] = _signature(text)
        if min(abs(len(index) - capacity) for capacity in capacities) <= 1:
            for query in queries:
                for kwargs in ({}, {"threshold": 0.05, "max_parents": 6}):
                    assert _found(index, query, **kwargs) == _scan(signatures, query, **kwargs)
    assert capacities == {64, 128, 256, 512}
    assert len(index) == len(index._ids) == len(texts)
    assert index._ids == list(texts)
    assert not index._representations


@pytest.fixture(scope="module")
def indexed(corpus):
    texts, queries = corpus
    index = ProvenanceIndex()
    for article_id, text in list(texts.items())[:100]:
        index.add(article_id, text)
    signatures = {article_id: _signature(texts[article_id]) for article_id in index._ids}
    return index, signatures, queries[1]


def test_exclude_naming_the_best_hit_promotes_the_next(indexed):
    """An index built without the best hit answers the next three."""
    index, signatures, query = indexed
    ranked = _found(index, query, threshold=0.05, max_parents=4)
    assert len(ranked) == 4
    best = ranked[0][0]
    without = ProvenanceIndex()
    for article_id in index._ids:
        if article_id != best:
            without.add(article_id, index.text_of(article_id))
    without_best = _found(without, query, threshold=0.05, max_parents=3)
    assert without_best == ranked[1:]
    assert without_best == _scan({a: s for a, s in signatures.items() if a != best},
                                 query, 0.05, 3)


def test_threshold_at_a_similarity_keeps_it_and_just_above_drops_it(indexed):
    index, signatures, query = indexed
    ranked = _found(index, query, threshold=0.0, max_parents=len(index))
    assert len(ranked) == len(index)
    weakest_positive = min(s for _, s in ranked if s > 0)
    lanes = round(weakest_positive * 64)
    assert weakest_positive == lanes / 64
    kept = []
    for threshold in (lanes / 64, math.nextafter(lanes / 64, 1.0)):
        found = _found(index, query, threshold=threshold, max_parents=len(index))
        assert found == _scan(signatures, query, threshold, len(index))
        assert found == [(a, s) for a, s in ranked if s >= threshold]
        kept.append(len(found))
    assert kept[0] > kept[1] > 0


def test_empty_text_matches_only_another_empty_text():
    gen = CorpusGenerator(seed=23)
    index = ProvenanceIndex()
    assert index.discover_parents("") == []
    index.add("full", gen.factual().text)
    assert index.discover_parents("") == []
    index.add("blank", "")
    assert _found(index, "") == [("blank", 1.0)]
    assert [a for a, _ in _found(index, index.text_of("full"))] == ["full"]


def test_the_matrix_is_allocated_with_the_first_text():
    index = ProvenanceIndex()
    assert index._signatures is None
    assert index.discover_parents("a query against nothing") == []
    index.add("first", "the first indexed text")
    assert index._signatures.shape == (64, 64)


def test_duplicate_id_leaves_matrix_ids_and_length_unchanged(indexed):
    index, _, query = indexed
    before = (index._signatures.copy(), list(index._ids), len(index),
              _found(index, query, threshold=0.05, max_parents=5))
    with pytest.raises(ReproError, match="already indexed"):
        index.add(index._ids[7], "a different text under a taken id")
    assert (index._signatures == before[0]).all()
    assert (list(index._ids), len(index)) == before[1:3]
    assert index.text_of(index._ids[7]) != "a different text under a taken id"
    assert _found(index, query, threshold=0.05, max_parents=5) == before[3]
