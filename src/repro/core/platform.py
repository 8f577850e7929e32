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
to the ledger's head at every read.  A room's ranking is a function of
one ledger — provenance, the committed AI score and the crowd share all
come out of the fold — so any honest peer's ledger ranks it the same.
So is an article's audit bundle: the record, ranking and comments are
the values the recording transactions' write sets committed, folded
beside the graph and the votes, and the Merkle proof of the record is
built when it is asked for — no read about a recorded article runs a
contract.

The graph is a :class:`~repro.core.supplychain.SupplyChainGraph`,
plain dicts rather than a networkx ``DiGraph``: nothing on the read
path runs a graph algorithm, so running the platform does not load
networkx (the analyses that do run one import it where they run it).

The ledger is also the content store: a publish, report or share
carries its text in its ``record_node`` transaction and a seeded fact in
its ``seed_fact``, so the provenance index parents are discovered
against is folded out of the ledger too (:attr:`LedgerView.provenance`),
and a platform over another peer's ledger, or after a restart, discovers
the same parents.  What the process keeps that no ledger gives back: the
private keys in :attr:`~TrustingNewsPlatform.accounts` and the models —
text scorer, ranker, media verifier, topic classifier.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, replace
from itertools import compress
from operator import itemgetter
from typing import Any, Sequence

from repro.chain.ledger import Ledger
from repro.chain.local import LocalChain
from repro.chain.state import _isolate
from repro.chain.transaction import Transaction, TxReceipt
from repro.corpus.articles import Article
from repro.crypto.hashing import sha256_hex
from repro.crypto.keys import KeyPair
from repro.core.conduct import ConductContract
from repro.core.crowdsourcing import VoteContract, factual_share
from repro.core.ecosystem import TokenContract
from repro.core.factualdb import FactualDatabaseContract
from repro.core.governance import PlatformGovernanceContract
from repro.core.identity import IdentityContract
from repro.core.media import MediaAssessment, MediaRegistryContract, MediaVerifier
from repro.core.newsroom import NewsRoomContract
from repro.core.toolmarket import ToolMarketContract
from repro.core.provenance import ProvenanceIndex, TextSketch
from repro.core.ranking import ArticleSignals, FactualnessRanker, RankedArticle
from repro.core.supplychain import (
    FACT_PREFIX,
    SupplyChainContract,
    SupplyChainGraph,
    TraceResult,
    add_supply_node,
    find_original_author,
    supply_node_key,
    trace_to_factual_root,
)
from repro.errors import ContractError, IdentityError, PlatformError
from repro.ml.ensemble import FakeNewsScorer
from repro.social.cascade import ShareEvent

__all__ = ["TrustingNewsPlatform", "PublishedArticle", "LedgerView"]


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


#: Event kind -> the contract whose events of that kind :class:`LedgerView` folds.
_FOLDED = {
    "supply-node-recorded": "supplychain", "article-ranked": "supplychain",
    "fact-seeded": "factualdb", "fact-promoted": "factualdb", "vote-cast": "votes",
    "comment-posted": "newsroom", "draft-submitted": "newsroom",
    "article-published": "newsroom", "platform-created": "newsroom",
}


class LedgerView:
    """What the platform's reads are answered from: a fold of the
    committed events that follows the ledger.

    The view remembers the height it has folded through and that block's
    hash; :meth:`follow` folds only the blocks above it.  Out of the
    fold come the supply-chain :attr:`graph` (the same nodes and edges, in
    the same order, as
    :func:`~repro.core.supplychain.build_supply_chain_graph` of the same
    ledger; a node carries its committed ``ai_score``), :attr:`votes` by
    article, published article ids by ``(platform, room)`` in
    :attr:`rooms`, each platform's owner address in :attr:`owners`, and
    by article the committed values the contract queries read back:
    :attr:`records` (``scnode:<id>``), :attr:`rankings` (the latest
    ``scrank:<id>``) and :attr:`comments` (the ``comment:<id>:<cid>``
    values in key order), each taken from the write set of the
    transaction that emitted the event.  They hold committed facts only,
    and what the fold derives from them: a record that carries its text
    commits no links, so before the text is indexed the fold derives them
    against the index as it stands at the record's chain position
    (:meth:`_links`) and adds them to the record and to the graph.
    The :attr:`provenance` index is folded from the same walk: each record
    whose transaction carries a ``text`` under its article id, each seeded
    fact with a text under ``fact:<id>``, and each promoted fact under
    ``fact:<id>`` with its article's text, if that was indexed.
    One walk over the valid transactions above the remembered height
    folds every event in chain order, dispatched by kind; an event of a
    folded kind that another contract emitted is ignored.
    Nothing is told to the view at commit time: it is a pure function of
    the ledger it is shown, so any honest peer's ledger will do, and a
    ledger that does not extend what was folded — shorter, or another
    block at the remembered height — makes it start over from genesis.

    A recorded node's :meth:`trace` and :meth:`author` are computed once
    and kept for the life of the fold: an event adds edges out of its own
    new node only, and the contract refuses an article id in the
    factual-root namespace, so nothing folded later can change a
    recorded node's ancestry.  Starting over is the one thing that drops
    them.  What the view hands out is the caller's own copy.
    """

    def __init__(self) -> None:
        self._forget()

    def _forget(self) -> None:
        self.height = 0
        self.head_hash: str | None = None  # None: nothing folded yet
        self.graph = SupplyChainGraph()
        self.votes: dict[str, list[dict[str, Any]]] = {}
        self.rooms: dict[tuple[str, str], list[str]] = {}
        self.owners: dict[str, str] = {}  # platform name -> owner address
        self.records: dict[str, dict[str, Any]] = {}
        self.rankings: dict[str, dict[str, Any]] = {}
        self.comments: dict[str, list[dict[str, Any]]] = {}
        self.provenance = ProvenanceIndex()
        self._draft_rooms: dict[str, tuple[str, str]] = {}  # drafts not yet published
        # Answers about nodes already in ``graph``, by node id.
        self._traces: dict[str, TraceResult] = {}
        self._authors: dict[str, str | None] = {}

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
        for height in range(self.height + 1, head.height + 1):
            for tx in compress(ledger.block(height).transactions, ledger.block_validity(height)):
                for event in tx.events:
                    if _FOLDED.get(event.get("kind")) == tx.contract:
                        self._fold(event, tx, height)
        self.height, self.head_hash = head.height, head.block_hash
        return self

    def _fold(self, event: dict[str, Any], tx: Transaction, height: int) -> None:
        """Fold one event of a folded kind, as committed (it is read, never
        changed); *tx* is the valid transaction at *height* that emitted
        it, whose write set holds the values it committed."""
        kind, article_id = event["kind"], event.get("article_id")
        if kind == "supply-node-recorded":
            node = {**event, "_tx_id": tx.tx_id, "_sender": tx.sender, "_height": height}
            record = tx.write_set[supply_node_key(article_id)]
            text = tx.args.get("text")
            if text is not None:
                sketch = self.provenance.sketch(text)
                links = self._links(sketch, tx.args.get("parents"))
                node.update(links)
                record = {**record, **links}
                self.provenance.add(article_id, sketch)
            add_supply_node(self.graph, node)
            self.records[article_id] = record
        elif kind == "fact-seeded":
            if tx.args.get("text") is not None:
                self.provenance.add(FACT_PREFIX + event["fact_id"], tx.args["text"])
        elif kind == "fact-promoted":
            if article_id in self.provenance:
                self.provenance.add(FACT_PREFIX + event["fact_id"],
                                    self.provenance.text_of(article_id))
        elif kind == "article-ranked":
            self.rankings[article_id] = tx.write_set[f"scrank:{article_id}"]
        elif kind == "comment-posted":
            insort(self.comments.setdefault(article_id, []),
                   tx.write_set[f"comment:{article_id}:{event['comment_id']}"],
                   key=itemgetter("comment_id"))
        elif kind == "vote-cast":
            self.votes.setdefault(article_id, []).append(
                {"voter": tx.sender, "verdict": event["verdict"], "weight": event["weight"]}
            )
        # An article-published event names its room only; the draft it
        # publishes (always earlier on the chain) names platform and room.
        elif kind == "draft-submitted":
            self._draft_rooms[article_id] = (event["platform"], event["room"])
        elif kind == "article-published":
            self.rooms.setdefault(self._draft_rooms.pop(article_id), []).append(article_id)
        else:  # platform-created
            self.owners[event["platform"]] = event["owner"]

    def _links(self, sketch: TextSketch, declared: list[str] | None) -> dict[str, Any]:
        """The links of a record that carries its text, against the index as
        it stands at the record's chain position: its discovered parents,
        or the indexed ids among those it *declared*; ``fact:`` ids become
        fact roots, every edge gets its own measured degree, and the
        record's ``modification_degree`` is the least of them (1.0 with no
        edge)."""
        index = self.provenance
        if declared is None:
            linked = [candidate.article_id for candidate in index.discover_parents(sketch)]
        else:
            linked = [article_id for article_id in declared if article_id in index]
        parents = [p for p in linked if not p.startswith(FACT_PREFIX)]
        facts = [p for p in linked if p.startswith(FACT_PREFIX)]
        parent_degrees = [index.degree_between(sketch.text, p) for p in parents]
        fact_degrees = [index.degree_between(sketch.text, f) for f in facts]
        return {
            "parents": parents,
            "parent_degrees": parent_degrees,
            "modification_degree": min(parent_degrees + fact_degrees, default=1.0),
            "fact_roots": [f[len(FACT_PREFIX):] for f in facts],
            "fact_degrees": fact_degrees,
        }

    def trace(self, article_id: str) -> TraceResult:
        """:func:`~repro.core.supplychain.trace_to_factual_root` of
        :attr:`graph`, computed once per recorded node (an id not in the
        graph yet is answered, not kept); every call returns its own
        :class:`TraceResult` and ``path`` list."""
        kept = self._traces.get(article_id)
        if kept is None:
            kept = trace_to_factual_root(self.graph, article_id)
            if article_id in self.graph:
                self._traces[article_id] = kept
        return TraceResult(kept.article_id, kept.traceable, kept.root, list(kept.path),
                           kept.hops, kept.cumulative_modification)

    def author(self, article_id: str) -> str | None:
        """:func:`~repro.core.supplychain.find_original_author` of
        :attr:`graph`, computed once per recorded node, as :meth:`trace`."""
        if article_id in self._authors:
            return self._authors[article_id]
        author = find_original_author(self.graph, article_id)
        if article_id in self.graph:
            self._authors[article_id] = author
        return author

    def crowd_score(self, article_id: str) -> float | None:
        """The article's weighted factual share, None before its first vote
        (the value ``votes.tally`` gives on the same ledger's state)."""
        votes = self.votes.get(article_id)
        return factual_share(votes) if votes else None

    def signals(self, article_id: str) -> ArticleSignals:
        """An article's three ranking signals, out of the fold alone: the
        provenance score of its :meth:`trace`, 1 − the committed P(fake),
        and the crowd share."""
        p_fake = self.graph.nodes.get(article_id, {}).get("ai_score")
        return ArticleSignals(
            article_id=article_id,
            provenance_score=self.trace(article_id).provenance_score,
            ai_score=None if p_fake is None else 1.0 - p_fake,
            crowd_score=self.crowd_score(article_id),
        )

    def audit(self, article_id: str) -> dict[str, Any]:
        """Everything the fold says about one recorded article: the record,
        the trace to a factual root, the latest ranking, the votes, the
        comments and the accountable author — what the ``get_node``
        (plus the derived links of a record that carries its text),
        ``get_ranking`` and ``list_comments`` queries and the trace and
        author oracles answer on the same ledger.  Every value is a fresh
        copy; an id with no record raises :class:`PlatformError`."""
        record = self.records.get(article_id)
        if record is None:
            raise PlatformError(f"article {article_id} is not on the ledger")
        trace = self.trace(article_id)
        return {
            "article_id": article_id,
            "node": _isolate(record),
            "trace": {
                "traceable": trace.traceable,
                "root": trace.root,
                "path": trace.path,
                "hops": trace.hops,
                "cumulative_modification": trace.cumulative_modification,
                "provenance_score": trace.provenance_score,
            },
            "ranking": _isolate(self.rankings.get(article_id)),
            # The view builds each vote from event scalars: one level to copy.
            "votes": [dict(vote) for vote in self.votes.get(article_id, ())],
            "comments": _isolate(self.comments.get(article_id, [])),
            "accountable_author": self.author(article_id),
        }


class TrustingNewsPlatform:
    """The AI blockchain platform for trusting news, end to end."""

    def __init__(
        self,
        seed: int = 0,
        chain: "LocalChain | Any" = None,
        scorer: FakeNewsScorer | None = None,
    ):
        # Any LocalChain-compatible backend works; pass a
        # repro.chain.NetworkedChain to run over real consensus.
        self.chain = chain or LocalChain(seed=seed)
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
        self.media_verifier = MediaVerifier()
        self.ranker = FactualnessRanker()
        self.scorer = scorer
        self.accounts: dict[str, KeyPair] = {}
        self._view = LedgerView()
        # Governance bootstrap: the platform operator's own account.
        self.governance = self._new_account("governance", role="checker")
        self.chain.invoke(
            self.governance, "identity", "verify", {"address": self.governance.address}
        )

    # -- accounts ----------------------------------------------------------

    def _new_account(self, name: str, role: str, verified: bool = False) -> KeyPair:
        """Create a keypair and register its identity on-chain; with
        *verified*, governance's attestation commits in the same unit.

        The name is taken only once that unit has committed, so a rejected
        registration — or an aborted attestation, which takes the
        registration down with it — can be retried under the same name.
        """
        if name in self.accounts:
            raise IdentityError(f"account name {name!r} already exists")
        keypair = self.chain.new_account()
        register = (keypair, "identity", "register", {"display_name": name, "role": role})
        if verified:
            self.chain.invoke_group([
                register, (self.governance, "identity", "verify", {"address": keypair.address})
            ])
        else:
            self.chain.invoke(*register)
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
        """Create + register an identity; optionally verify via governance,
        in one unit with the registration (all of it commits or none).

        Returns the new ledger address.
        """
        return self._new_account(name, role, verified).address

    # -- factual database -------------------------------------------------------

    def seed_fact(self, fact_id: str, text: str, source: str, topic: str) -> TxReceipt:
        """Bootstrap a ground-truth fact (official public record); its text
        rides in the transaction, for the provenance fold."""
        receipt = self.chain.invoke(
            self.governance,
            "factualdb",
            "seed_fact",
            {
                "fact_id": fact_id,
                "content_hash": sha256_hex(text.encode("utf-8")),
                "source": source,
                "topic": topic,
                "text": text,
            },
        )
        self._view.follow(self.chain.ledger)  # sketch the fact now, not at the next publish
        return receipt

    def facts(self, topic: str | None = None) -> list[str]:
        return self.chain.query("factualdb", "list_facts", {"topic": topic})

    # -- platforms & rooms ---------------------------------------------------------

    def create_distribution_platform(self, owner_name: str, platform_name: str) -> TxReceipt:
        return self.chain.invoke(
            self.account(owner_name), "newsroom", "create_platform",
            {"platform_name": platform_name},
        )

    def _owner_key(self, platform_name: str) -> KeyPair:
        """The key, among :attr:`accounts`, of the address the ledger names
        as *platform_name*'s owner; a platform the ledger does not know, or
        whose owner's key is not held here, is unknown."""
        owner = self._view.follow(self.chain.ledger).owners.get(platform_name)
        keypair = next((k for k in self.accounts.values() if k.address == owner), None)
        if keypair is None:
            raise PlatformError(f"unknown platform {platform_name!r}")
        return keypair

    def create_news_room(
        self, owner_name: str, platform_name: str, room_name: str, topic: str
    ) -> TxReceipt:
        return self.chain.invoke(
            self.account(owner_name), "newsroom", "create_room",
            {"platform_name": platform_name, "room_name": room_name, "topic": topic},
        )

    def authenticate_journalist(self, platform_name: str, journalist_name: str) -> TxReceipt:
        return self.chain.invoke(
            self._owner_key(platform_name), "newsroom", "authenticate_journalist",
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
        return self.chain.invoke(
            self.account(owner_name), "media", "register",
            {"media_id": media_id, **MediaVerifier.fingerprint_record(signal),
             "description": description},
        )

    def assess_media(self, media_id: str, suspect_signal) -> float:
        """Tamper-score a suspect signal against its registration — a read:
        :meth:`publish_article` commits its assets' assessments with the
        article."""
        return self._assess(media_id, suspect_signal).tamper_score

    def _assess(self, media_id: str, suspect_signal) -> MediaAssessment:
        registered = self.chain.query("media", "get_media", {"media_id": media_id})
        return self.media_verifier.assess(registered, suspect_signal, media_id)

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
        tamper_scores: Sequence[float] = (),
    ) -> PublishedArticle:
        """The content path every entry channel goes through (§VI, Fig. 1).

        Score the text — P(fake), or the worst of *tamper_scores* if that
        is higher — and commit the *editorial* steps and the supply-chain
        record carrying that score and the text (and *declared_parents*,
        when the channel names them) as one unit (``invoke_group``: all of
        them in one block, or none of them anywhere).  The record claims no
        links: following the ledger then derives them, as every reader's
        fold does (:class:`LedgerView`), and indexes the text; the returned
        :class:`PublishedArticle` is read from that fold.
        """
        if article_id.startswith(FACT_PREFIX):
            raise PlatformError(f"article id {article_id!r} uses the reserved {FACT_PREFIX!r} prefix")
        record = {"article_id": article_id, "content_hash": content_hash, "topic": topic,
                  "op": op, "text": text}
        if declared_parents is not None:
            record["parents"] = list(declared_parents)
        ai = max((s for s in (self.ai_score(text), *tamper_scores) if s is not None), default=None)
        if ai is not None:
            record["ai_score"] = ai
        receipt = self.chain.invoke_group(
            [*editorial, (signer, "supplychain", "record_node", record)]
        )[-1]
        folded = self._view.follow(self.chain.ledger).records[article_id]
        return PublishedArticle(article_id, signer.address, room, tuple(folded["parents"]),
                                tuple(folded["fact_roots"]), folded["modification_degree"],
                                ai, receipt)

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

        Adds to :meth:`_ingest` the three newsroom steps and media fusion
        (Fig. 1 component 2): each attached asset is assessed first (a
        read), each registered one's assessment is a governance-signed
        step of the same unit, and the worst tamper score — 1.0 for an
        unregistered asset — drags the committed P(fake) up, so a
        deepfaked clip condemns the article even when its text reads
        neutrally.
        """
        author = self.account(author_name)
        owner = self._owner_key(platform_name)
        assessments = [self._assess(media_id, signal) for media_id, signal in media or ()]
        content_hash = sha256_hex(text.encode("utf-8"))
        draft = {
            "article_id": article_id,
            "platform_name": platform_name,
            "room_name": room_name,
            "content_hash": content_hash,
        }
        return self._ingest(
            author, article_id, text, topic,
            op="publish", content_hash=content_hash, room=room_name,
            editorial=[
                (author, "newsroom", "submit_draft", draft),
                (author, "newsroom", "start_review", {"article_id": article_id}),
                (owner, "newsroom", "publish", {"article_id": article_id}),
                *[(self.governance, "media", "record_assessment",
                   {"media_id": a.media_id, "article_id": article_id,
                    "tamper_score": a.tamper_score})
                  for a in assessments if a.registered],
            ],
            tamper_scores=[a.tamper_score for a in assessments],
        )

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
        so nothing is discovered: the record declares the event's parent,
        and every reader's fold keeps it as the link when the index knows
        it at the share's chain position, and none otherwise.  The share's
        text rides in its record like any other, so a later relay can
        discover it.
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
        return self._view.follow(self.chain.ledger).crowd_score(article_id)

    # -- supply-chain analytics ---------------------------------------------------------------

    @property
    def graph(self) -> SupplyChainGraph:
        """The supply-chain graph as of the ledger's head.

        The same object from read to read while the ledger only grows
        (newly committed nodes are added to it); a new one when the view
        had to start over.
        """
        return self._view.follow(self.chain.ledger).graph

    @property
    def index(self) -> ProvenanceIndex:
        """The provenance index as of the ledger's head
        (:attr:`LedgerView.provenance`): read it, do not add to it."""
        return self._view.follow(self.chain.ledger).provenance

    def trace(self, article_id: str) -> TraceResult:
        return self._view.follow(self.chain.ledger).trace(article_id)

    def accountable_author(self, article_id: str) -> str | None:
        """The address answerable for this article's content (§IV)."""
        return self._view.follow(self.chain.ledger).author(article_id)

    # -- ranking -----------------------------------------------------------------------------------

    def article_signals(self, article_id: str, crowd_score: float | None = None) -> ArticleSignals:
        """:meth:`LedgerView.signals` at the ledger's head, with the crowd
        share replaced by *crowd_score* when one is given."""
        signals = self._view.follow(self.chain.ledger).signals(article_id)
        return signals if crowd_score is None else replace(signals, crowd_score=crowd_score)

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
        crowd share and committed AI score are read out of that fold now.
        Nothing else is read, so ``LedgerView().follow(peer.ledger)`` of
        any honest peer ranks the room the same.
        """
        view = self._view.follow(self.chain.ledger)
        article_ids = view.rooms.get((platform_name, room_name), ())
        return self.ranker.rank([view.signals(article_id) for article_id in article_ids], mode=mode)

    def promote_to_factual(self, article_id: str, fact_id: str | None = None) -> TxReceipt:
        """Promote a highly ranked article into the factual database.

        The contract reads the record and the ranking and enforces the
        threshold; its refusal (no recorded ranking, a score below the
        bar) is raised as a :class:`PlatformError` with the contract's
        message.  The fact joins :attr:`index` with the article's text when
        the ledger is next followed.
        """
        try:
            return self.chain.invoke(
                self.governance, "factualdb", "promote",
                {"fact_id": fact_id or f"promoted-{article_id}", "article_id": article_id},
            )
        except ContractError as error:
            raise PlatformError(str(error)) from error

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
        The record's node names its transaction; the proof is built and
        verified on every call, so a reader that never asks builds none.
        """
        ledger = self.chain.ledger
        view = self._view.follow(ledger)
        if article_id not in view.records:
            raise PlatformError(f"no supply-chain record for {article_id}")
        tx_id = view.graph.nodes[article_id]["tx_id"]
        height, index = ledger.index.locate(tx_id)
        block = ledger.block(height)
        proof = block.prove_inclusion(tx_id, index)
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
        committed state — nothing here is platform say-so: the view is
        followed once and :meth:`LedgerView.audit` answers, with no
        contract run.
        """
        return self._view.follow(self.chain.ledger).audit(article_id)

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
