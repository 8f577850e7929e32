"""TrustingNewsPlatform: the integrated system of Fig. 1.

The facade that wires every component together over one blockchain:

- identity registration & verification (accountability root),
- distribution platforms / news rooms / editing workflow,
- the factual database (seed + promotion),
- provenance discovery -> supply-chain recording for every article
  and every social share,
- AI scoring (text ensemble; media fingerprints via repro.ml.deepfake),
- on-chain crowd votes and the hybrid factualness ranking,
- expert mining and accountability tracing off the reconstructed
  supply-chain graph.

Examples and experiments program against this class; everything it does
lands on the chain, so *all* platform analytics are reconstructions
from the ledger rather than trusted in-memory state: reads are answered
from a :class:`LedgerView`, the fold of the ledger's events, brought up
to the ledger's head at every read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Sequence

import networkx as nx

from repro.chain.ledger import Ledger
from repro.chain.local import LocalChain
from repro.chain.transaction import TxReceipt
from repro.corpus.articles import Article
from repro.crypto.hashing import sha256_hex
from repro.crypto.keys import KeyPair
from repro.core.conduct import ConductContract
from repro.core.crowdsourcing import VoteContract
from repro.core.ecosystem import TokenContract
from repro.core.experts import ExpertFinder
from repro.core.factualdb import PROMOTION_THRESHOLD, FactualDatabaseContract
from repro.core.governance import PlatformGovernanceContract
from repro.core.identity import IdentityContract
from repro.core.media import MediaRegistryContract, MediaVerifier
from repro.core.newsroom import NewsRoomContract
from repro.core.toolmarket import ToolMarketContract
from repro.core.provenance import ProvenanceIndex
from repro.core.ranking import ArticleSignals, FactualnessRanker, RankedArticle, RankingWeights
from repro.core.supplychain import (
    SupplyChainContract,
    TraceResult,
    add_supply_node,
    find_original_author,
    trace_to_factual_root,
)
from repro.errors import IdentityError, PlatformError
from repro.ml.ensemble import FakeNewsScorer
from repro.social.cascade import ShareEvent

__all__ = ["TrustingNewsPlatform", "PublishedArticle", "LedgerView"]

_FACT_PREFIX = "fact:"


@dataclass(frozen=True)
class PublishedArticle:
    """What the publish pipeline returns for one article."""

    article_id: str
    author_address: str
    room: str
    parents: tuple[str, ...]
    fact_roots: tuple[str, ...]
    modification_degree: float
    ai_score: float | None
    receipt: TxReceipt


class LedgerView:
    """What the platform's reads are answered from: a fold of
    ``Ledger.events`` that follows the ledger.

    The view remembers the height it has folded through and that block's
    hash; :meth:`follow` resolves only the events above it.  Three
    structures come out of the fold — the supply-chain :attr:`graph`
    (the same nodes and edges, in the same order, as
    :func:`~repro.core.supplychain.build_supply_chain_graph` of the same
    ledger), :attr:`votes` by article and published article ids by
    ``(platform, room)`` in :attr:`rooms`.  They hold committed facts
    only; answers (a trace, a ranking, an audit) are computed from them
    per call.  Nothing is told to the view at commit time: it is a pure
    function of the ledger it is shown, so any honest peer's ledger will
    do, and a ledger that does not extend what was folded — shorter, or
    another block at the remembered height — makes it start over from
    genesis.
    """

    def __init__(self) -> None:
        self._forget()

    def _forget(self) -> None:
        self.height = 0
        self.head_hash: str | None = None  # None: nothing folded yet
        self.graph = nx.DiGraph()
        self.votes: dict[str, list[dict[str, Any]]] = {}
        self.rooms: dict[tuple[str, str], list[str]] = {}
        self._draft_rooms: dict[str, tuple[str, str]] = {}  # drafts not yet published

    def follow(self, ledger: Ledger) -> "LedgerView":
        """Fold the blocks *ledger* holds above the remembered height."""
        head = ledger.head
        if head.height == self.height and head.block_hash == self.head_hash:
            return self
        if self.head_hash is not None and (
            head.height < self.height
            or ledger.block(self.height).block_hash != self.head_hash
        ):
            self._forget()
        above = self.height
        for event in ledger.events("supplychain", "supply-node-recorded", above):
            add_supply_node(self.graph, event)
        for event in ledger.events("votes", "vote-cast", above):
            self.votes.setdefault(event["article_id"], []).append(
                {"voter": event["_sender"], "verdict": event["verdict"], "weight": event["weight"]}
            )
        # An article-published event names its room only; the draft it
        # publishes (always earlier on the chain) names platform and room.
        for event in ledger.events("newsroom", "draft-submitted", above):
            self._draft_rooms[event["article_id"]] = (event["platform"], event["room"])
        for event in ledger.events("newsroom", "article-published", above):
            room = self._draft_rooms.pop(event["article_id"])
            self.rooms.setdefault(room, []).append(event["article_id"])
        self.height, self.head_hash = head.height, head.block_hash
        return self


class TrustingNewsPlatform:
    """The AI blockchain platform for trusting news, end to end."""

    def __init__(
        self,
        seed: int = 0,
        chain: "LocalChain | Any" = None,
        provenance_method: str = "minhash",
        ranking_weights: RankingWeights | None = None,
        scorer: FakeNewsScorer | None = None,
    ):
        # Any LocalChain-compatible backend works; pass a
        # repro.chain.NetworkedChain to run over real consensus.
        self.chain = chain or LocalChain(seed=seed)
        self.rng = random.Random(seed + 1000)
        for contract in (
            IdentityContract(),
            FactualDatabaseContract(),
            NewsRoomContract(),
            SupplyChainContract(),
            VoteContract(),
            TokenContract(),
            PlatformGovernanceContract(),
            MediaRegistryContract(),
            ToolMarketContract(),
            ConductContract(),
        ):
            self.chain.install_contract(contract)
        self.index = ProvenanceIndex(method=provenance_method)
        self.media_verifier = MediaVerifier()
        self.ranker = FactualnessRanker(ranking_weights)
        self.scorer = scorer
        self.accounts: dict[str, KeyPair] = {}
        self._platform_owner: dict[str, str] = {}  # platform name -> owner account name
        self._ai_scores: dict[str, float] = {}
        self._view = LedgerView()
        # Governance bootstrap: the platform operator's own account.
        self.governance = self._new_account("governance", role="checker")
        self.chain.invoke(
            self.governance, "identity", "verify", {"address": self.governance.address}
        )

    # -- accounts ----------------------------------------------------------

    def _new_account(self, name: str, role: str) -> KeyPair:
        """Create a keypair and register its identity on-chain.

        The name is taken only once the register tx has committed, so a
        rejected registration can be retried under the same name.
        """
        if name in self.accounts:
            raise IdentityError(f"account name {name!r} already exists")
        keypair = self.chain.new_account()
        self.chain.invoke(
            keypair, "identity", "register", {"display_name": name, "role": role}
        )
        self.accounts[name] = keypair
        return keypair

    def account(self, name: str) -> KeyPair:
        keypair = self.accounts.get(name)
        if keypair is None:
            raise IdentityError(f"no account named {name!r}")
        return keypair

    def address_of(self, name: str) -> str:
        return self.account(name).address

    def register_participant(self, name: str, role: str, verified: bool = True) -> str:
        """Create + register an identity; optionally verify via governance.

        Returns the new ledger address.
        """
        keypair = self._new_account(name, role)
        if verified:
            self.chain.invoke(
                self.governance, "identity", "verify", {"address": keypair.address}
            )
        return keypair.address

    # -- factual database -------------------------------------------------------

    def seed_fact(self, fact_id: str, text: str, source: str, topic: str) -> TxReceipt:
        """Bootstrap a ground-truth fact (official public record)."""
        receipt = self.chain.invoke(
            self.governance,
            "factualdb",
            "seed_fact",
            {
                "fact_id": fact_id,
                "content_hash": sha256_hex(text.encode("utf-8")),
                "source": source,
                "topic": topic,
            },
        )
        self._index_fact(fact_id, text)
        return receipt

    def _index_fact(self, fact_id: str, text: str) -> None:
        """Facts share the provenance index with articles, under a reserved prefix."""
        self.index.add(_FACT_PREFIX + fact_id, text)

    def facts(self, topic: str | None = None) -> list[str]:
        return self.chain.query("factualdb", "list_facts", {"topic": topic})

    # -- platforms & rooms ---------------------------------------------------------

    def create_distribution_platform(self, owner_name: str, platform_name: str) -> TxReceipt:
        receipt = self.chain.invoke(
            self.account(owner_name), "newsroom", "create_platform",
            {"platform_name": platform_name},
        )
        self._platform_owner[platform_name] = owner_name
        return receipt

    def create_news_room(
        self, owner_name: str, platform_name: str, room_name: str, topic: str
    ) -> TxReceipt:
        return self.chain.invoke(
            self.account(owner_name), "newsroom", "create_room",
            {"platform_name": platform_name, "room_name": room_name, "topic": topic},
        )

    def authenticate_journalist(self, platform_name: str, journalist_name: str) -> TxReceipt:
        owner = self._platform_owner.get(platform_name)
        if owner is None:
            raise PlatformError(f"unknown platform {platform_name!r}")
        return self.chain.invoke(
            self.account(owner), "newsroom", "authenticate_journalist",
            {"platform_name": platform_name, "address": self.address_of(journalist_name)},
        )

    # -- AI ---------------------------------------------------------------------------

    def train_ai(self, texts: list[str], labels: Sequence[int]) -> None:
        """Fit the platform's text scorer on a labeled corpus."""
        self.scorer = self.scorer or FakeNewsScorer()
        self.scorer.fit(texts, labels)

    def ai_score(self, text: str) -> float | None:
        """P(fake) for a text, or None if no scorer is trained yet."""
        if self.scorer is None:
            return None
        return self.scorer.score_one(text)

    # -- media provenance --------------------------------------------------------

    def register_media(self, owner_name: str, media_id: str, signal, description: str = "") -> TxReceipt:
        """Commit a captured media asset's fingerprint on-chain."""
        fingerprint = MediaVerifier.fingerprint_record(signal)
        return self.chain.invoke(
            self.account(owner_name), "media", "register",
            {"media_id": media_id, "fingerprint": fingerprint, "description": description},
        )

    def assess_media(self, media_id: str, suspect_signal, article_id: str | None = None) -> float:
        """Tamper-score a suspect signal against its registration.

        With *article_id* set, the assessment is also recorded on-chain
        (governance-signed) so the ranking verdict is auditable.
        """
        registered = self.chain.query("media", "get_media", {"media_id": media_id})
        assessment = self.media_verifier.assess(registered, suspect_signal, media_id)
        if article_id is not None and assessment.registered:
            self.chain.invoke(
                self.governance, "media", "record_assessment",
                {"media_id": media_id, "article_id": article_id,
                 "tamper_score": assessment.tamper_score},
            )
        return assessment.tamper_score

    # -- platform governance (crowd-reviewed charters) ------------------------------

    def petition_platform(self, owner_name: str, platform_name: str,
                          charter: str, quorum: int = 3) -> TxReceipt:
        return self.chain.invoke(
            self.account(owner_name), "governance", "petition",
            {"platform_name": platform_name, "charter": charter, "quorum": quorum},
        )

    def review_petition(self, checker_name: str, platform_name: str, approve: bool) -> TxReceipt:
        return self.chain.invoke(
            self.account(checker_name), "governance", "review",
            {"platform_name": platform_name, "approve": approve},
        )

    def finalize_petition(self, platform_name: str) -> str:
        receipt = self.chain.invoke(
            self.governance, "governance", "finalize", {"platform_name": platform_name}
        )
        return receipt.return_value["status"]

    def is_chartered(self, platform_name: str) -> bool:
        return self.chain.query("governance", "is_chartered", {"platform_name": platform_name})

    # -- publishing pipeline --------------------------------------------------------------

    def _ingest(
        self,
        signer: KeyPair,
        article_id: str,
        text: str,
        topic: str,
        *,
        op: str,
        content_hash: str,
        room: str,
        declared_parents: Sequence[str] | None = None,
        editorial: Sequence[tuple[KeyPair, str, str, dict[str, Any]]] = (),
    ) -> PublishedArticle:
        """The content path every entry channel goes through (§VI, Fig. 1).

        Sketch the text once, find its provenance links (discovered, or
        the indexed ones among *declared_parents* when the channel names
        them), measure one degree per edge, commit the *editorial* steps
        and the supply-chain record as one unit (``invoke_group``: all of
        them in one block, or none of them anywhere), and only when that
        has committed index and score the text.
        """
        if article_id.startswith(_FACT_PREFIX):
            raise PlatformError(f"article id {article_id!r} uses the reserved {_FACT_PREFIX!r} prefix")
        sketch = self.index.sketch(text)
        if declared_parents is None:
            links = [c.article_id for c in self.index.discover_parents(sketch, exclude=article_id)]
        else:
            links = [p for p in declared_parents if p in self.index]
        parents = tuple(p for p in links if not p.startswith(_FACT_PREFIX))
        fact_roots = tuple(p[len(_FACT_PREFIX):] for p in links if p.startswith(_FACT_PREFIX))
        parent_degrees = [self.index.degree_between(text, p) for p in parents]
        fact_degrees = [self.index.degree_between(text, _FACT_PREFIX + f) for f in fact_roots]
        degree = min(parent_degrees + fact_degrees, default=1.0)
        record = {
            "article_id": article_id,
            "content_hash": content_hash,
            "parents": list(parents),
            "parent_degrees": parent_degrees,
            "modification_degree": degree,
            "topic": topic,
            "op": op,
            "fact_roots": list(fact_roots),
            "fact_degrees": fact_degrees,
        }
        receipt = self.chain.invoke_group(
            [*editorial, (signer, "supplychain", "record_node", record)]
        )[-1]
        self.index.add(article_id, sketch)
        ai = self.ai_score(text)
        if ai is not None:
            self._ai_scores[article_id] = ai
        return PublishedArticle(
            article_id=article_id,
            author_address=signer.address,
            room=room,
            parents=parents,
            fact_roots=fact_roots,
            modification_degree=degree,
            ai_score=ai,
            receipt=receipt,
        )

    def publish_article(
        self,
        author_name: str,
        platform_name: str,
        room_name: str,
        article_id: str,
        text: str,
        topic: str,
        media: list[tuple[str, Any]] | None = None,
    ) -> PublishedArticle:
        """Full editorial pipeline: draft -> review -> publish -> record.

        Adds to :meth:`_ingest` the three newsroom steps that commit
        with the supply-chain record and, after them, media fusion.
        """
        author = self.account(author_name)
        owner = self._platform_owner.get(platform_name)
        if owner is None:
            raise PlatformError(f"unknown platform {platform_name!r}")
        content_hash = sha256_hex(text.encode("utf-8"))
        draft = {
            "article_id": article_id,
            "platform_name": platform_name,
            "room_name": room_name,
            "content_hash": content_hash,
        }
        published = self._ingest(
            author, article_id, text, topic,
            op="publish", content_hash=content_hash, room=room_name,
            editorial=[
                (author, "newsroom", "submit_draft", draft),
                (author, "newsroom", "start_review", {"article_id": article_id}),
                (self.account(owner), "newsroom", "publish", {"article_id": article_id}),
            ],
        )
        if not media:
            return published
        # Media fusion (Fig. 1 component 2): any attached asset that fails
        # fingerprint verification drags P(fake) up — a deepfaked clip
        # condemns the article even when its text reads neutrally.
        worst = max(
            self.assess_media(media_id, signal, article_id=article_id)
            for media_id, signal in media
        )
        ai = worst if published.ai_score is None else max(published.ai_score, worst)
        self._ai_scores[article_id] = ai
        return replace(published, ai_score=ai)

    def report_external(
        self,
        reporter_name: str,
        article_id: str,
        text: str,
        topic: str,
        source: str,
    ) -> PublishedArticle:
        """Refer news published in *other* media into the platform (§VI).

        "The system will also provide mechanisms for person to refer
        and/or report news published in other media sources into the
        news rooms for the discussion."  External referrals skip the
        editorial workflow (they are not this platform's publications)
        but go through full provenance discovery and land on the supply
        chain with ``op="external-report"``, so they can be ranked and
        discussed like anything else.  The claimed *source* is not stored
        as a field: it salts ``content_hash``, so the same text referred
        from two sources commits two distinct hashes.
        """
        return self._ingest(
            self.account(reporter_name), article_id, text, topic,
            op="external-report", room="(external)",
            content_hash=sha256_hex(f"{source}:{text}".encode("utf-8")),
        )

    def ingest_share(self, event: ShareEvent, article: Article, topic: str | None = None) -> None:
        """Record a social-media share as a supply-chain transaction.

        The sharer's account is auto-registered (unverified) on first
        sight — the platform admits the public, but every share is
        signed and attributable from then on.  A share names its parent,
        so nothing is discovered: the link is the event's parent when the
        index knows it, and none otherwise.
        """
        name = event.agent_id
        sharer = self.accounts.get(name) or self._new_account(name, role="consumer")
        self._ingest(
            sharer, article.article_id, article.text, topic or article.topic,
            op=event.op, room="(share)",
            content_hash=sha256_hex(article.text.encode("utf-8")),
            declared_parents=[event.parent_article_id],
        )

    # -- crowd votes -----------------------------------------------------------------------

    def cast_vote(self, voter_name: str, article_id: str, verdict: bool, weight: float = 1.0) -> TxReceipt:
        return self.chain.invoke(
            self.account(voter_name), "votes", "cast",
            {"article_id": article_id, "verdict": verdict, "weight": weight},
        )

    def crowd_score(self, article_id: str) -> float | None:
        tally = self.chain.query("votes", "tally", {"article_id": article_id})
        return tally["factual_share"] if tally["votes"] > 0 else None

    # -- supply-chain analytics ---------------------------------------------------------------

    @property
    def graph(self) -> nx.DiGraph:
        """The supply-chain graph as of the ledger's head.

        The same object from read to read while the ledger only grows
        (newly committed nodes are added to it); a new one when the view
        had to start over.
        """
        return self._view.follow(self.chain.ledger).graph

    def trace(self, article_id: str) -> TraceResult:
        return trace_to_factual_root(self.graph, article_id)

    def accountable_author(self, article_id: str) -> str | None:
        """The address answerable for this article's content (§IV)."""
        return find_original_author(self.graph, article_id)

    def expert_panel(self, topic: str, k: int = 5) -> list[str]:
        return ExpertFinder(self.graph).suggest_panel(topic, k=k)

    # -- ranking -----------------------------------------------------------------------------------

    def article_signals(self, article_id: str, crowd_score: float | None = None) -> ArticleSignals:
        trace = self.trace(article_id)
        return ArticleSignals(
            article_id=article_id,
            provenance_score=trace.provenance_score,
            ai_score=(1.0 - self._ai_scores[article_id]) if article_id in self._ai_scores else None,
            crowd_score=crowd_score if crowd_score is not None else self.crowd_score(article_id),
        )

    def rank_article(
        self,
        article_id: str,
        crowd_score: float | None = None,
        mode: str = "hybrid",
        record: bool = True,
    ) -> RankedArticle:
        """Compute (and by default, commit) the article's ranking verdict."""
        signals = self.article_signals(article_id, crowd_score)
        score = self.ranker.score(signals, mode=mode)
        if record:
            self.chain.invoke(
                self.governance, "supplychain", "record_ranking",
                {
                    "article_id": article_id,
                    "provenance_score": signals.provenance_score,
                    "ai_score": signals.ai_score,
                    "crowd_score": signals.crowd_score,
                    "final_score": score,
                },
            )
        return RankedArticle(
            article_id=article_id,
            score=score,
            provenance_score=signals.provenance_score,
            ai_score=signals.ai_score,
            crowd_score=signals.crowd_score,
        )

    def rank_room(self, platform_name: str, room_name: str, mode: str = "hybrid") -> list[RankedArticle]:
        """The reader view: every article in a room, most trustworthy first.

        §V: "All articles in the newsroom will be evaluated and ranked by
        crowd sourcing trust check mechanisms within the AI blockchain
        platform."  The room is the articles whose committed draft named
        *platform_name* and *room_name* and whose publication committed,
        in chain order — found from ledger events, so the view is an
        audit-grade reconstruction, not a cached feed: the list is the
        fold of those events up to the ledger's head (only the blocks
        since the last read are looked at), and every article's trace,
        tally and score are computed now, from committed state.
        """
        view = self._view.follow(self.chain.ledger)
        article_ids = view.rooms.get((platform_name, room_name), ())
        signals = [self.article_signals(article_id) for article_id in article_ids]
        return self.ranker.rank(signals, mode=mode)

    def promote_to_factual(self, article_id: str, fact_id: str | None = None) -> TxReceipt:
        """Promote a highly ranked article into the factual database.

        The promotion threshold is enforced on-chain; this helper reads
        the recorded ranking, so an article must have been ranked first.
        """
        ranking = self.chain.query("supplychain", "get_ranking", {"article_id": article_id})
        if ranking is None:
            raise PlatformError(f"article {article_id} has no recorded ranking")
        if ranking["final_score"] < PROMOTION_THRESHOLD:
            raise PlatformError(
                f"score {ranking['final_score']:.3f} below promotion threshold {PROMOTION_THRESHOLD}"
            )
        node = self.chain.query("supplychain", "get_node", {"article_id": article_id})
        fact_id = fact_id or f"promoted-{article_id}"
        receipt = self.chain.invoke(
            self.governance, "factualdb", "promote",
            {
                "fact_id": fact_id,
                "content_hash": node["content_hash"],
                "topic": node["topic"],
                "article_id": article_id,
                "score": ranking["final_score"],
            },
        )
        if article_id in self.index:
            self._index_fact(fact_id, self.index.text_of(article_id))
        return receipt

    # -- topic routing ----------------------------------------------------------------------------------

    def train_topic_model(self, texts: list[str], topics: Sequence[str]) -> None:
        """Fit the room-routing topic classifier."""
        from repro.ml.topic_model import TopicClassifier

        self.topic_model = TopicClassifier().fit(texts, topics)

    def suggest_topic(self, text: str) -> tuple[str, float]:
        """(topic, confidence) for routing content to a news room."""
        model = getattr(self, "topic_model", None)
        if model is None:
            raise PlatformError("train_topic_model must be called first")
        return model.confidence(text)

    # -- cryptographic proofs ------------------------------------------------------------------------

    def prove_article(self, article_id: str) -> dict[str, Any]:
        """Merkle inclusion proof that an article's recording transaction
        is committed — checkable by anyone holding only block headers.

        Returns the block height/hash, the transaction id, the proof
        object, and its verification result against the block's root.
        """
        ledger = self.chain.ledger
        tx_id = self._view.follow(ledger).graph.nodes.get(article_id, {}).get("tx_id")
        committed = ledger.get_transaction(tx_id) if tx_id else None
        if committed is None:
            raise PlatformError(f"no supply-chain record for {article_id}")
        block = ledger.block(committed.block_height)
        proof = block.prove_inclusion(tx_id)
        return {
            "article_id": article_id,
            "tx_id": tx_id,
            "block_height": block.height,
            "block_hash": block.block_hash,
            "merkle_root": block.merkle_root,
            "proof": proof,
            "verified": proof.verify(block.merkle_root),
        }

    # -- audit ----------------------------------------------------------------------------------------

    def export_audit(self, article_id: str) -> dict[str, Any]:
        """Everything the ledger says about one article, in one bundle.

        The transparency artifact a reader (or regulator) gets: the
        supply-chain record, trace to the factual root, recorded ranking
        with component signals, every vote, every comment, and the
        accountable author.  All fields are reconstructions from
        committed state — nothing here is platform say-so.
        """
        node = self.chain.query("supplychain", "get_node", {"article_id": article_id})
        if node is None:
            raise PlatformError(f"article {article_id} is not on the ledger")
        trace = self.trace(article_id)
        view = self._view.follow(self.chain.ledger)
        votes = [dict(vote) for vote in view.votes.get(article_id, ())]
        comments = self.chain.query("newsroom", "list_comments", {"article_id": article_id})
        return {
            "article_id": article_id,
            "node": node,
            "trace": {
                "traceable": trace.traceable,
                "root": trace.root,
                "path": trace.path,
                "hops": trace.hops,
                "cumulative_modification": trace.cumulative_modification,
                "provenance_score": trace.provenance_score,
            },
            "ranking": self.chain.query("supplychain", "get_ranking", {"article_id": article_id}),
            "votes": votes,
            "comments": comments,
            "accountable_author": self.accountable_author(article_id),
        }

    # -- stats ---------------------------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Headline platform counters, reconstructed from the ledger."""
        ledger = self.chain.ledger
        graph = self._view.follow(ledger).graph
        return {
            "blocks": ledger.height,
            "transactions": ledger.total_transactions(),
            "accounts": len(self.accounts),
            "articles": sum(1 for _, a in graph.nodes(data=True) if not a.get("is_fact_root")),
            "facts": len(self.facts()),
            "supply_chain_edges": graph.number_of_edges(),
        }
