"""FakeNewsScorer reads each text once and scores as its three members did.

The scorer tokenizes a text once and fits one vocabulary; its TF-IDF,
Naive-Bayes and stylometric members read that one featurization.  The
reference below is the composition it replaced — each member fitting
its own vectorizer on the raw texts — assembled from the public pieces;
the scores must be equal bit for bit.
"""

import numpy as np
import pytest

import repro.ml.features as features_module
import repro.ml.vectorize as vectorize_module
from repro.corpus import CorpusGenerator
from repro.errors import MLError
from repro.ml import (
    FEATURE_NAMES,
    CountVectorizer,
    FakeNewsScorer,
    LogisticRegression,
    MultinomialNaiveBayes,
    StylometricExtractor,
    TfidfVectorizer,
)
from repro.ml.vectorize import ScaledVectorizer


def reference_scores(texts, labels, held_out):
    """Each member with its own vectorizer, fused by the weighted mean."""
    y = np.asarray(labels)
    members = [
        (TfidfVectorizer(max_features=4000), LogisticRegression(), 2.0),
        (CountVectorizer(max_features=4000), MultinomialNaiveBayes(), 1.0),
        (ScaledVectorizer(StylometricExtractor()), LogisticRegression(learning_rate=0.3), 2.0),
    ]
    combined = np.zeros(len(held_out))
    for vectorizer, model, weight in members:
        model.fit(vectorizer.fit_transform(texts), y)
        combined += weight * model.score_fake(vectorizer.transform(held_out))
    return combined / sum(weight for _, _, weight in members)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scores_equal_the_member_composition_bit_for_bit(seed):
    texts, labels = CorpusGenerator(seed=seed).labeled_corpus(250, 250).texts_and_labels()
    held_out, _ = CorpusGenerator(seed=100 + seed).labeled_corpus(30, 30).texts_and_labels()
    scorer = FakeNewsScorer(seed=1).fit(texts, labels)
    scores = scorer.score(held_out)
    assert np.array_equal(scores, reference_scores(texts, labels, held_out))
    for text in held_out[:5]:
        assert scorer.score_one(text) == float(scorer.score([text])[0])
    assert np.array_equal(scorer.predict(held_out), (scores >= 0.5).astype(np.int64))


def test_tfidf_fit_transform_equals_fit_then_transform():
    texts, _ = CorpusGenerator(seed=3).labeled_corpus(40, 40).texts_and_labels()
    once = TfidfVectorizer(max_features=300).fit_transform(texts)
    twice = TfidfVectorizer(max_features=300).fit(texts).transform(texts)
    assert once.tobytes() == twice.tobytes()


@pytest.fixture
def tokenizations(monkeypatch):
    """Every whole-text tokenization the ML layer makes, by text."""
    seen: list[str] = []
    for module in (vectorize_module, features_module):
        original = module.tokenize

        def spy(text, original=original):
            seen.append(text)
            return original(text)

        monkeypatch.setattr(module, "tokenize", spy)
    return seen


def test_fit_and_score_one_tokenize_each_text_once(tokenizations, monkeypatch):
    texts, labels = CorpusGenerator(seed=4).labeled_corpus(40, 40).texts_and_labels()
    vocabulary_fits = []
    fit_counted = CountVectorizer.fit_counted

    def counting_fit(vectorizer, counted):
        vocabulary_fits.append(len(counted))
        return fit_counted(vectorizer, counted)

    monkeypatch.setattr(CountVectorizer, "fit_counted", counting_fit)
    scorer = FakeNewsScorer().fit(texts, labels)
    whole = set(texts)
    assert sorted(t for t in tokenizations if t in whole) == sorted(texts)
    assert vocabulary_fits == [len(texts)]
    tokenizations.clear()
    scorer.score_one(texts[0])
    assert [t for t in tokenizations if t in whole] == [texts[0]]


def test_score_one_goes_through_score(trained_scorer, monkeypatch):
    calls = []
    score = FakeNewsScorer.score

    def counting_score(scorer, texts):
        calls.append(list(texts))
        return score(scorer, texts)

    monkeypatch.setattr(FakeNewsScorer, "score", counting_score)
    trained_scorer.score_one("officials said the budget passed.")
    assert calls == [["officials said the budget passed."]]


def test_stylometric_transform_of_no_texts_has_every_column():
    assert StylometricExtractor().transform([]).shape == (0, len(FEATURE_NAMES))


def test_scoring_no_texts_gives_an_empty_array(trained_scorer):
    scores = trained_scorer.score([])
    assert scores.shape == (0,)
    assert trained_scorer.predict([]).shape == (0,)


@pytest.mark.parametrize("texts", [[], ["", "... !!"]])
def test_fitting_a_termless_corpus_says_so(texts):
    with pytest.raises(MLError, match="no term"):
        FakeNewsScorer().fit(texts, [0, 1][: len(texts)])
