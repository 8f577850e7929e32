"""Parent-reference discovery: finding an article's provenance end points.

§VI: "The system will then analyze the news content searching and
discovering the parent references which the news is created [from]".
The :class:`ProvenanceIndex` holds every article text the ledger carries
and, for a new text, proposes the most similar prior articles as parent
candidates.  Three strategies (ablation A1):

- ``exact``   — exact k-shingle Jaccard against every indexed article,
- ``minhash`` — MinHash sketch comparison (what a production system
  would index; trades a little recall for a fixed-size sketch per doc),
- ``cosine``  — term-frequency cosine (order-blind).

The measured modification degree between child and discovered parents
is what every reader's ledger fold derives for a recorded text, and later
drives ranking.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._numpy import np
from repro.corpus.mutations import measured_change
from repro.corpus.similarity import (
    MinHashSignature,
    cosine_similarity,
    jaccard,
    minhash_signature,
    shingles,
)
from repro.errors import ReproError

__all__ = ["ParentCandidate", "ProvenanceIndex", "TextSketch"]

_INITIAL_COLUMNS = 64
# The reference measures, applied per indexed article in a Python scan.
_SCAN_MEASURES = {"exact": jaccard, "cosine": cosine_similarity}


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
    """Similarity index over article and fact texts.

    The platform's index is a fold of the ledger
    (:attr:`repro.core.platform.LedgerView.provenance`): a text rides in
    its ``record_node`` / ``seed_fact`` transaction, so every peer's
    ledger gives the same index back.  Per article it keeps the text
    (edge degrees are measured on it) and the method's representation of
    it, nothing else.  Under ``minhash``
    that is one column of ``n_hashes`` integers in a ``uint64`` matrix,
    whatever the article's length, and discovery compares the query
    against every column in a single array pass; ``exact`` and ``cosine``
    scan with the reference measures A1 cross-checks against.
    """

    def __init__(self, method: str = "minhash", shingle_k: int = 3, n_hashes: int = 64):
        if method != "minhash" and method not in _SCAN_MEASURES:
            raise ReproError(f"unknown provenance method {method!r}")
        self.method = method
        self._measure = _SCAN_MEASURES.get(method)
        self.shingle_k = shingle_k
        self.n_hashes = n_hashes
        self._texts: dict[str, str] = {}
        # exact / cosine: article id -> shingle set / text.
        self._representations: dict[str, set[str] | str] = {}
        # minhash: column i is the signature of _ids[i]; columns from len(_ids) on are spare.
        # Allocated with the first text, so an index that never sees one never loads numpy.
        self._ids: list[str] = []
        self._signatures: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._texts)

    def __contains__(self, article_id: str) -> bool:
        return article_id in self._texts

    def sketch(self, text: str | TextSketch) -> TextSketch:
        """Tokenise, shingle and hash *text* once; a sketch passes through,
        so a caller that queries and then adds the same text passes the
        one sketch to both."""
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
        if self.method == "minhash":
            if self._signatures is None:
                self._signatures = np.empty((self.n_hashes, _INITIAL_COLUMNS), dtype=np.uint64)
            elif len(self._ids) == self._signatures.shape[1]:
                self._signatures = np.concatenate(
                    [self._signatures, np.empty_like(self._signatures)], axis=1)
            self._signatures[:, len(self._ids)] = np.array(sketch.representation, dtype=np.uint64)
            self._ids.append(article_id)
        else:
            self._representations[article_id] = sketch.representation
        self._texts[article_id] = sketch.text

    def discover_parents(
        self,
        text: str | TextSketch,
        threshold: float = 0.15,
        max_parents: int = 2,
    ) -> list[ParentCandidate]:
        """Most similar indexed articles above *threshold*, best first."""
        query = self.sketch(text).representation
        if self.method == "minhash" and not self._ids:
            scored = []
        elif self.method == "minhash":
            # estimated_jaccard against every column at once: equal lanes / n_hashes.
            # Articles lie along the long axis so the lane sum is one vector add per lane.
            lanes = np.array(query, dtype=np.uint64)[:, None]
            equal = self._signatures[:, : len(self._ids)] == lanes
            estimates = equal.sum(axis=0, dtype=np.int32) / self.n_hashes
            scored = [(self._ids[column], float(estimates[column]))
                      for column in np.flatnonzero(estimates >= threshold)]
        else:
            scored = [(article_id, self._measure(query, representation))
                      for article_id, representation in self._representations.items()]
        candidates = [ParentCandidate(article_id=article_id, similarity=similarity)
                      for article_id, similarity in scored
                      if similarity >= threshold]
        candidates.sort(key=lambda c: (-c.similarity, c.article_id))
        return candidates[:max_parents]

    def degree_between(self, text: str, article_id: str) -> float:
        """Measured change of *text* versus one specific indexed article.

        This is the per-edge weight of the supply-chain graph: each provenance
        edge carries the child's distance to *that* parent, so tracing
        and accountability reason about individual lineages instead of a
        blurred parent union.
        """
        if article_id not in self._texts:
            return 1.0
        return measured_change([self._texts[article_id]], text)

    def text_of(self, article_id: str) -> str:
        return self._texts[article_id]
