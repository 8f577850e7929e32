"""Parent-reference discovery: finding an article's provenance end points.

§VI: "The system will then analyze the news content searching and
discovering the parent references which the news is created [from]".
The :class:`ProvenanceIndex` holds every article the platform has seen
and, for a new text, proposes the most similar prior articles as parent
candidates.  Three strategies (ablation A1):

- ``exact``   — exact k-shingle Jaccard against every indexed article,
- ``minhash`` — MinHash sketch comparison (what a production system
  would index; trades a little recall for a fixed-size sketch per doc),
- ``cosine``  — term-frequency cosine (order-blind).

The measured modification degree between child and discovered parents
is what gets recorded on-chain and later drives ranking.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.corpus.mutations import measured_change
from repro.corpus.similarity import (
    MinHashSignature,
    cosine_similarity,
    estimated_jaccard,
    jaccard,
    minhash_signature,
    shingles,
)
from repro.errors import ReproError

__all__ = ["ParentCandidate", "ProvenanceIndex", "TextSketch"]


@dataclass(frozen=True)
class ParentCandidate:
    """A discovered potential parent and its similarity to the child."""

    article_id: str
    similarity: float


@dataclass(frozen=True)
class TextSketch:
    """A text and the one representation of it an index's method compares:
    its shingle set (``exact``), its MinHash signature (``minhash``) or the
    text itself (``cosine``).  Built by :meth:`ProvenanceIndex.sketch`."""

    text: str
    representation: set[str] | MinHashSignature | str


class ProvenanceIndex:
    """Similarity index over all content the platform has ingested.

    Per article it keeps the text (edge degrees are measured on it) and
    the method's representation of it, nothing else — under ``minhash``
    that is ``n_hashes`` integers whatever the article's length.
    """

    def __init__(self, method: str = "minhash", shingle_k: int = 3, n_hashes: int = 64):
        measures = {"exact": jaccard, "minhash": estimated_jaccard, "cosine": cosine_similarity}
        if method not in measures:
            raise ReproError(f"unknown provenance method {method!r}")
        self.method = method
        self._measure = measures[method]
        self.shingle_k = shingle_k
        self.n_hashes = n_hashes
        self._texts: dict[str, str] = {}
        self._representations: dict[str, set[str] | MinHashSignature | str] = {}

    def __len__(self) -> int:
        return len(self._texts)

    def __contains__(self, article_id: str) -> bool:
        return article_id in self._texts

    def sketch(self, text: str | TextSketch) -> TextSketch:
        """Tokenise, shingle and hash *text* once; a sketch passes through."""
        if isinstance(text, TextSketch):
            return text
        representation = text
        if self.method != "cosine":
            representation = shingles(text, self.shingle_k)
            if self.method == "minhash":
                representation = minhash_signature(representation, self.n_hashes)
        return TextSketch(text, representation)

    def add(self, article_id: str, text: str | TextSketch) -> None:
        """Index an article (id must be new)."""
        if article_id in self._texts:
            raise ReproError(f"article {article_id} already indexed")
        sketch = self.sketch(text)
        self._texts[article_id] = sketch.text
        self._representations[article_id] = sketch.representation

    def discover_parents(
        self,
        text: str | TextSketch,
        threshold: float = 0.15,
        max_parents: int = 2,
        exclude: str | None = None,
    ) -> list[ParentCandidate]:
        """Most similar indexed articles above *threshold*, best first."""
        query = self.sketch(text).representation
        candidates = []
        for article_id, representation in self._representations.items():
            if article_id == exclude:
                continue
            similarity = self._measure(query, representation)
            if similarity >= threshold:
                candidates.append(ParentCandidate(article_id=article_id, similarity=similarity))
        candidates.sort(key=lambda c: (-c.similarity, c.article_id))
        return candidates[:max_parents]

    def degree_between(self, text: str, article_id: str) -> float:
        """Measured change of *text* versus one specific indexed article.

        This is the per-edge weight recorded on-chain: each provenance
        edge carries the child's distance to *that* parent, so tracing
        and accountability reason about individual lineages instead of a
        blurred parent union.
        """
        if article_id not in self._texts:
            return 1.0
        return measured_change([self._texts[article_id]], text)

    def text_of(self, article_id: str) -> str:
        return self._texts[article_id]
