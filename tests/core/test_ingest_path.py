"""The one content path behind publish_article / report_external / ingest_share.

A scripted scenario pins what the path commits (chain head, per-article
provenance, platform counters) to constants computed on the commit
before the three copies were merged; the rest checks that a text is
sketched once, that discovery equals a brute-force ranking written with
the reference similarity functions, and the two bugs fixed on the way.
"""

import numpy as np
import pytest

from repro.chain import BlockchainNetwork, LocalChain, NetworkedChain
from repro.core import ProvenanceIndex, TrustingNewsPlatform, build_supply_chain_graph
from repro.core import provenance as provenance_module
from repro.core.identity import identity_key
from repro.corpus import CorpusGenerator
from repro.corpus.mutations import relay
from repro.corpus.similarity import (
    cosine_similarity,
    estimated_jaccard,
    jaccard,
    minhash_signature,
    shingles,
)
from repro.errors import ContractError, PlatformError
from repro.ml import capture_signal, tamper_signal
from repro.simnet import FixedLatency
from repro.social.cascade import ShareEvent
from tests.conftest import LengthScorer, RewriteContract


def _share(agent: str, article, parent_id: str, op: str) -> ShareEvent:
    return ShareEvent(time=0.0, round_index=0, agent_id=agent, source_agent_id="",
                      article_id=article.article_id, parent_article_id=parent_id, op=op)


def run_scenario(chain):
    """Two facts, two publishes (one with media), a rank + promotion, two
    external reports, three shares (one naming an unknown parent)."""
    platform = TrustingNewsPlatform(seed=0, chain=chain, scorer=LengthScorer())
    gen = CorpusGenerator(seed=5)
    rng = np.random.default_rng(5)
    facts = [gen.factual(topic="politics"), gen.factual(topic="climate")]
    platform.seed_fact("f-0", facts[0].text, "public-record", "politics")
    platform.seed_fact("f-1", facts[1].text, "climate-panel", "climate")
    platform.register_participant("acme", role="publisher")
    platform.create_distribution_platform("acme", "acme-news")
    platform.create_news_room("acme", "acme-news", "desk", "politics")
    for name in ("jane", "troll"):
        platform.register_participant(name, role="journalist")
        platform.authenticate_journalist("acme-news", name)
    platform.register_participant("reader", role="consumer")

    returned = {}
    report = relay(facts[0], "jane", 1.0)
    returned["a-1"] = platform.publish_article(
        "jane", "acme-news", "desk", "a-1", report.text, "politics")
    platform.rank_article("a-1", crowd_score=1.0)
    platform.promote_to_factual("a-1", fact_id="a-1-fact")

    signal = capture_signal(rng)
    platform.register_media("troll", "clip-1", signal)
    tampered, _ = tamper_signal(signal, rng, n_segments=6)
    fake = gen.malicious_derivation(report, "troll", 2.0)
    returned["a-2"] = platform.publish_article(
        "troll", "acme-news", "desk", "a-2", fake.text, "politics",
        media=[("clip-1", tampered)])

    returned["ext-1"] = platform.report_external(
        "reader", "ext-1", relay(facts[1], "outlet", 3.0).text, "climate",
        source="https://outlet.example/story")
    returned["ext-2"] = platform.report_external(
        "reader", "ext-2", gen.fabricated(topic="climate").text, "climate",
        source="https://sus.example")

    first = relay(report, "agent-1", 4.0).with_id("s-1")
    platform.ingest_share(_share("agent-1", first, "a-1", "relay"), first)
    second = gen.insertion_fake(first, "agent-2", 5.0, n_insertions=2).with_id("s-2")
    platform.ingest_share(_share("agent-2", second, "s-1", "insert"), second, topic="politics")
    orphan = relay(facts[1], "agent-1", 6.0).with_id("s-3")
    platform.ingest_share(_share("agent-1", orphan, "never-recorded", "relay"), orphan)
    return platform, returned


def article_tuples(platform):
    """Each article's links and score as the platform's fold holds its
    record (a record that carries its text commits none: readers derive
    them)."""
    out = {}
    for article_id in ("a-1", "a-2", "ext-1", "ext-2", "s-1", "s-2", "s-3"):
        node = platform.export_audit(article_id)["node"]
        out[article_id] = (tuple(node["parents"]), tuple(node["fact_roots"]),
                          node["modification_degree"], node["ai_score"])
    return out


# Per-article tuples and counters computed on commit 68a3b7a, where the path
# existed three times.  The ai_score column was process memory there; it is
# read from the supply-chain record now and holds the same values.  The head
# hash and the block count were re-pinned three times, and the head hash
# alone twice more:
# - a publish became one group: two publishes, 2 x 3 fewer blocks, and the
#   members sign a group tag, so their tx ids moved;
# - the score went on the chain: every scored record carries ``ai_score``,
#   so its bytes moved, and a-2's media assessment joined its publish unit,
#   one block fewer;
# - a block's Merkle leaf became the whole endorsed transaction, so every
#   block hash moved;
# - the texts went on the chain (``record_node`` / ``seed_fact`` carry them),
#   ``record_ranking`` reads its caller's identity and ``promote`` takes only
#   the fact and article ids, so those transactions' bytes, and every block
#   hash from the first fact on, moved;
# - a group's signer signs the group's root once, so every group member's
#   signature moved, and a verified registration became one group (register,
#   verify): four registrations, four fewer blocks;
# - an endorsement stopped carrying its peer's key (the committing peer's
#   directory names it), so every Merkle leaf, and every block hash, moved;
# - a record that carries its text stopped claiming its links (every
#   reader's fold derives them), so each such record's arguments, write set
#   and event, and every block hash from the first one on, moved;
# - ``media.register`` takes the fingerprint as four typed arguments, not
#   one ``dict``, so the media registration's arguments, and every block
#   hash from its block (16 of 24) on, moved; its write set did not.
HEAD_HASH = "2e50bddd80ddc6f8916f4a7740ecf697e17889cbd79fcae032c52d695263194c"
ARTICLES = {  # article id -> (parents, fact_roots, modification_degree, ai_score)
    "a-1": ((), ("f-0",), 0.0, 0.24),
    "a-2": (("a-1",), ("a-1-fact",), 0.1282051282051282, 0.40625),
    "ext-1": ((), ("f-1",), 0.0, 0.16),
    "ext-2": ((), (), 1.0, 0.7),
    "s-1": (("a-1",), (), 0.0, 0.24),
    "s-2": (("s-1",), (), 0.19780219780219777, 0.66),
    "s-3": ((), (), 1.0, 0.16),
}
STATS = {"blocks": 24, "transactions": 35, "accounts": 7, "articles": 7, "facts": 3,
         "supply_chain_edges": 6}


def test_scenario_commits_the_pinned_chain():
    platform, returned = run_scenario(LocalChain(seed=0))
    assert platform.chain.ledger.head.block_hash == HEAD_HASH
    tuples = article_tuples(platform)
    assert tuples == ARTICLES
    assert platform.stats() == STATS
    for article_id, published in returned.items():
        assert (published.parents, published.fact_roots, published.modification_degree,
                published.ai_score) == tuples[article_id]
        assert published.receipt.success


def test_scenario_over_consensus_matches_on_every_peer():
    network = BlockchainNetwork(n_peers=4, consensus="pbft", block_interval=0.2,
                                latency=FixedLatency(0.01), seed=0)
    platform, _ = run_scenario(NetworkedChain(network))
    assert article_tuples(platform) == ARTICLES
    network.run_for(5)
    network.assert_convergence()
    graphs = [build_supply_chain_graph(peer.ledger) for peer in network.peers]
    reference = graphs[0]
    assert reference.number_of_edges() == STATS["supply_chain_edges"]
    for graph in graphs[1:]:
        assert dict(graph.nodes(data=True)) == dict(reference.nodes(data=True))
        assert sorted(graph.edges(data=True)) == sorted(reference.edges(data=True))


@pytest.fixture
def sketch_calls(monkeypatch):
    """Count the calls the provenance module makes into the similarity toolbox."""
    calls = {"shingles": 0, "minhash_signature": 0}
    for name in calls:
        original = getattr(provenance_module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(provenance_module, name, counted)
    return calls


def test_each_entry_point_sketches_its_text_once(platform, sketch_calls):
    gen = CorpusGenerator(seed=5)
    fact = gen.factual(topic="politics")
    platform.seed_fact("f-0", fact.text, "public-record", "politics")
    platform.register_participant("acme", role="publisher")
    platform.create_distribution_platform("acme", "acme-news")
    platform.create_news_room("acme", "acme-news", "desk", "politics")
    share = relay(fact, "agent-1", 2.0).with_id("s-1")
    entry_points = [
        lambda: platform.publish_article("acme", "acme-news", "desk", "a-1",
                                         relay(fact, "acme", 1.0).text, "politics"),
        lambda: platform.report_external("acme", "ext-1", gen.fabricated().text, "politics",
                                         source="https://o.example"),
        lambda: platform.ingest_share(_share("agent-1", share, "a-1", "relay"), share),
    ]
    for ingest in entry_points:
        before = dict(sketch_calls)
        ingest()
        assert sketch_calls == {name: count + 1 for name, count in before.items()}
    assert platform.index.method == "minhash"
    stored = [value for store in vars(platform.index).values() if isinstance(store, dict)
              for value in store.values()]
    assert stored and not any(isinstance(value, (set, frozenset)) for value in stored)


def _brute_force(method, corpus, query, threshold, max_parents):
    def similarity(text):
        if method == "exact":
            return jaccard(shingles(query, 3), shingles(text, 3))
        if method == "minhash":
            return estimated_jaccard(minhash_signature(shingles(query, 3), 64),
                                     minhash_signature(shingles(text, 3), 64))
        return cosine_similarity(query, text)

    scored = [(article_id, similarity(text)) for article_id, text in corpus.items()]
    scored = [(article_id, s) for article_id, s in scored if s >= threshold]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:max_parents]


@pytest.mark.parametrize("method", ["exact", "minhash", "cosine"])
def test_discovery_equals_brute_force_ranking(method):
    gen = CorpusGenerator(seed=17)
    originals = [gen.factual() for _ in range(20)]
    derived = [gen.malicious_derivation(a, "troll", 1.0) for a in originals]
    relays = [gen.insertion_fake(a, "troll", 2.0, n_insertions=2) for a in originals]
    corpus = {f"c-{i:02d}": a.text for i, a in enumerate(originals + derived + relays)}
    assert len(corpus) == 60
    index = ProvenanceIndex(method=method)
    for article_id, text in corpus.items():
        index.add(article_id, text)
    queries = [relay(originals[3], "x", 3.0).text, derived[7].text,
               gen.insertion_fake(relays[11], "x", 3.0, n_insertions=3).text,
               gen.fabricated().text]
    for query in queries:
        found = index.discover_parents(query, threshold=0.05, max_parents=5)
        assert [(c.article_id, c.similarity) for c in found] == \
            _brute_force(method, corpus, query, 0.05, 5)
    assert index.discover_parents(queries[0], threshold=0.05, max_parents=5)


def test_aborted_record_leaves_index_and_scores_untouched(platform):
    platform.scorer = LengthScorer()
    platform.register_participant("reader", role="consumer")
    platform.report_external("reader", "ext-1", "the council approved the budget on monday",
                             "politics", source="https://o.example")
    indexed, signals = len(platform.index), platform.article_signals("ext-1")
    with pytest.raises(ContractError, match="already recorded"):
        platform.report_external("reader", "ext-1", "an entirely different text about weather",
                                 "climate", source="https://p.example")
    assert len(platform.index) == indexed
    assert platform.article_signals("ext-1") == signals
    assert signals.ai_score == 1.0 - LengthScorer().score_one(
        "the council approved the budget on monday")
    assert platform.index.text_of("ext-1") == "the council approved the budget on monday"


# -- a publish is one unit: all of its steps commit, or none is visible anywhere --


@pytest.fixture(params=["local", "networked"])
def newsroom(request):
    """A platform with one room, a journalist and a reader — on a
    LocalChain, and on a 4-peer PBFT network."""
    chain = LocalChain(seed=0)
    if request.param == "networked":
        chain = NetworkedChain(BlockchainNetwork(
            n_peers=4, consensus="pbft", block_interval=0.2, latency=FixedLatency(0.01), seed=0))
    platform = TrustingNewsPlatform(seed=0, chain=chain, scorer=LengthScorer())
    platform.register_participant("acme", role="publisher")
    platform.create_distribution_platform("acme", "acme-news")
    platform.create_news_room("acme", "acme-news", "desk", "politics")
    platform.register_participant("jane", role="journalist")
    platform.authenticate_journalist("acme-news", "jane")
    platform.register_participant("reader", role="consumer")
    return platform


def _ledgers(chain):
    network = getattr(chain, "network", None)
    if network is None:
        return [chain.ledger]
    network.run_for(2.0)
    return [peer.ledger for peer in network.peers]


def _visible(platform, article_id):
    """Everything a reader, an auditor or the next publish can see."""
    ledgers = _ledgers(platform.chain)
    return {
        "heights": [ledger.height for ledger in ledgers],
        "newsroom events": [list(ledger.events(contract="newsroom")) for ledger in ledgers],
        "supply-chain events": [
            list(ledger.events(contract="supplychain", kind="supply-node-recorded"))
            for ledger in ledgers],
        "room": [r.article_id for r in platform.rank_room("acme-news", "desk")],
        "author": platform.accountable_author(article_id),
        "indexed": len(platform.index),
        "signals": platform.article_signals(article_id),
    }


def test_publish_over_a_reported_id_is_refused_whole(newsroom):
    """ROADMAP item 3's reproduction: the duplicate ``record_node`` used to
    abort *after* the three editorial transactions had committed, leaving
    an article the room lists under the journalist and the supply chain
    under the reporter."""
    platform = newsroom
    platform.report_external("reader", "a1", "the council approved the budget on monday",
                             "politics", source="https://o.example")
    before = _visible(platform, "a1")
    with pytest.raises(ContractError, match="article a1 already recorded"):
        platform.publish_article("jane", "acme-news", "desk", "a1",
                                 "an entirely different text about the weather", "politics")
    assert _visible(platform, "a1") == before
    assert before["room"] == [] and before["author"] == platform.address_of("reader")
    assert platform.index.text_of("a1") == "the council approved the budget on monday"


def test_commit_time_abort_takes_every_member_with_it(newsroom, monkeypatch):
    """A conflicting write ordered between the group's endorsement and its
    block: every member is invalid on every peer, nothing of the publish
    is visible, the call raises as ``invoke`` does, and a retry commits."""
    platform, chain = newsroom, newsroom.chain
    chain.install_contract(RewriteContract())
    stale_read = identity_key(platform.address_of("jane"))  # record_node reads its caller
    conflicts = iter([lambda: chain.invoke(
        platform.governance, "rewrite", "touch", {"key": stale_read})])
    # The hop between endorsement and ordering: LocalChain commits what it
    # endorsed at once, a network hands the endorsed group to a peer.
    owner, hop = (chain, "_commit") if isinstance(chain, LocalChain) else (
        chain.network, "submit")
    after_endorsement = getattr(owner, hop)

    def conflict_first(*txs):
        for conflict in conflicts:
            conflict()
        return after_endorsement(*txs)

    monkeypatch.setattr(owner, hop, conflict_first)
    before = _visible(platform, "a1")
    with pytest.raises(ContractError, match="member 3: MVCC conflict"):
        platform.publish_article("jane", "acme-news", "desk", "a1",
                                 "the council approved the budget on monday", "politics")
    after = _visible(platform, "a1")
    for ledger in _ledgers(chain):
        # A verified registration is a group of its own (register, verify).
        members = [c for c in ledger.transactions(valid_only=False)
                   if c.transaction.group is not None and c.transaction.contract != "identity"]
        assert [c.transaction.method for c in members] == [
            "submit_draft", "start_review", "publish", "record_node"]
        assert not any(c.valid for c in members)
        assert len({c.block_height for c in members}) == 1
        assert all("member 3" in ledger.receipt(c.transaction.tx_id).error for c in members)
    # Two blocks went by (the conflict, the aborted group); nothing else moved.
    assert after["heights"] == [height + 2 for height in before["heights"]]
    assert {key: after[key] for key in after if key != "heights"} == {
        key: before[key] for key in before if key != "heights"}
    assert after["room"] == [] and after["author"] is None and "a1" not in platform.index
    published = platform.publish_article("jane", "acme-news", "desk", "a1",
                                         "the council approved the budget on monday", "politics")
    assert published.receipt.success
    assert _visible(platform, "a1")["room"] == ["a1"]
    assert platform.accountable_author("a1") == platform.address_of("jane")


# -- bugs fixed with the merge --------------------------------------------------


def test_failed_registration_does_not_burn_the_name(platform):
    with pytest.raises(ContractError, match="unknown role"):
        platform.register_participant("bob", role="bogus")
    assert "bob" not in platform.accounts
    platform.register_participant("bob", role="consumer")
    assert platform.chain.query("identity", "get_identity", {"address": platform.address_of("bob")})


@pytest.mark.parametrize("networked", [False, True], ids=["local", "networked"])
def test_an_aborted_verification_takes_the_registration_with_it(networked, monkeypatch):
    """``register_participant`` commits the registration and governance's
    verification as one unit.  They used to commit one after the other, so
    a verification that aborted left the name registered, unverified and
    taken."""
    chain = LocalChain(seed=0)
    if networked:
        chain = NetworkedChain(BlockchainNetwork(
            n_peers=4, consensus="pbft", block_interval=0.2, latency=FixedLatency(0.01), seed=0))
    platform = TrustingNewsPlatform(seed=0, chain=chain, scorer=LengthScorer())
    governance, impostor = platform.governance, chain.new_account()
    minted = []
    new_account = chain.new_account

    def minting():
        minted.append(new_account())
        return minted[-1]

    monkeypatch.setattr(chain, "new_account", minting)
    platform.governance = impostor  # no verified identity: its attestation aborts
    height = chain.ledger.height
    with pytest.raises(ContractError, match="only verified identities may attest"):
        platform.register_participant("bob", role="journalist")
    assert "bob" not in platform.accounts
    assert chain.ledger.height == height
    assert chain.query("identity", "get_identity", {"address": minted[-1].address}) is None

    platform.governance = governance
    address = platform.register_participant("bob", role="journalist")
    record = chain.query("identity", "get_identity", {"address": address})
    assert record["verified"] and record["verified_by"] == governance.address
    assert chain.ledger.height == height + 1
    if networked:
        chain.network.stop()


def test_failed_auto_registration_leaves_the_sharer_unknown(platform, monkeypatch):
    invoke = platform.chain.invoke
    failures = iter([ContractError("transient: mempool full")])

    def flaky_invoke(keypair, contract, method, args):
        if method == "register":
            for failure in failures:
                raise failure
        return invoke(keypair, contract, method, args)

    monkeypatch.setattr(platform.chain, "invoke", flaky_invoke)
    share = CorpusGenerator(seed=5).factual().with_id("s-1")
    with pytest.raises(ContractError, match="transient"):
        platform.ingest_share(_share("agent-1", share, "", "relay"), share)
    assert "agent-1" not in platform.accounts
    platform.ingest_share(_share("agent-1", share, "", "relay"), share)
    assert platform.chain.query("supplychain", "get_node", {"article_id": "s-1"})["op"] == "relay"


def test_reserved_fact_prefix_is_rejected_on_every_entry_point(platform):
    gen = CorpusGenerator(seed=5)
    fact = gen.factual(topic="climate")
    platform.seed_fact("f-c", fact.text, "climate-panel", "climate")
    platform.register_participant("acme", role="publisher")
    platform.create_distribution_platform("acme", "acme-news")
    platform.create_news_room("acme", "acme-news", "desk", "climate")
    text = relay(fact, "o", 0.0).text
    spoof = relay(fact, "agent-1", 1.0).with_id("fact:spoof")
    platform.register_participant("agent-1", role="consumer")
    height = platform.chain.ledger.height
    for ingest in (
        lambda: platform.publish_article("acme", "acme-news", "desk", "fact:spoof", text, "climate"),
        lambda: platform.report_external("acme", "fact:spoof", text, "climate", source="s"),
        lambda: platform.ingest_share(_share("agent-1", spoof, "", "relay"), spoof),
    ):
        with pytest.raises(PlatformError, match="reserved"):
            ingest()
    assert platform.chain.ledger.height == height
    assert "fact:spoof" not in platform.index
    echoed = platform.report_external("acme", "ext-1", text, "climate", source="s")
    assert echoed.fact_roots == ("f-c",)


def test_share_naming_an_indexed_fact_records_a_fact_root_not_a_parent(platform):
    gen = CorpusGenerator(seed=5)
    fact = gen.factual(topic="climate")
    platform.seed_fact("f-c", fact.text, "climate-panel", "climate")
    altered = gen.insertion_fake(fact, "agent-1", 1.0, n_insertions=2).with_id("s-1")
    platform.ingest_share(_share("agent-1", altered, "fact:f-c", "insert"), altered)
    node = platform.export_audit("s-1")["node"]
    degree = platform.index.degree_between(altered.text, "fact:f-c")
    assert 0.0 < degree < 1.0
    assert (node["parents"], node["parent_degrees"]) == ([], [])
    assert (node["fact_roots"], node["fact_degrees"]) == (["f-c"], [degree])
    assert node["modification_degree"] == degree
    trace = platform.trace("s-1")
    assert trace.traceable and trace.cumulative_modification == degree
