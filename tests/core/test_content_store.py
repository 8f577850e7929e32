"""The ledger is the content store: an article's text rides in its
``record_node`` transaction (a seeded fact's in its ``seed_fact``), and the
provenance index parents are discovered against is a fold of the ledger."""

import pytest

from repro.chain import LocalChain
from repro.core import IdentityContract, SupplyChainContract
from repro.core import provenance as provenance_module
from repro.core.platform import LedgerView
from repro.corpus import CorpusGenerator
from repro.corpus.mutations import relay
from repro.errors import ContractError


def _node(article_id, text=None):
    args = {"article_id": article_id, "content_hash": "h-" + article_id, "parents": [],
            "modification_degree": 1.0, "topic": "politics", "op": "publish"}
    return args if text is None else {**args, "text": text}


def _outsider(chain):
    """A registered account the platform holds no key for."""
    account = chain.new_account()
    chain.invoke(account, "identity", "register", {"display_name": "outsider", "role": "creator"})
    return account


def test_a_node_another_client_records_with_text_is_a_parent_of_its_relay(platform):
    original = CorpusGenerator(seed=5).factual(topic="politics")
    outsider = _outsider(platform.chain)
    platform.chain.invoke(outsider, "supplychain", "record_node", _node("o-1", original.text))
    platform.chain.invoke(outsider, "supplychain", "record_node", _node("o-2"))
    assert "o-1" in platform.index and "o-2" not in platform.index
    platform.register_participant("reader", role="consumer")
    echoed = platform.report_external("reader", "ext-1", relay(original, "r", 1.0).text,
                                      "politics", source="https://o.example")
    assert echoed.parents == ("o-1",)
    assert platform.graph.has_edge("ext-1", "o-1")
    assert platform.accountable_author("ext-1") == outsider.address  # a faithful relay


def test_text_is_optional_and_changes_no_state_event_or_gas():
    """The text is checked and folded, never written or emitted: the same
    record with and without it commits the same state, events and gas."""
    runs = []
    for text in (None, "the council approved the budget on monday"):
        chain = LocalChain(seed=3)
        chain.install_contract(IdentityContract())
        chain.install_contract(SupplyChainContract())
        receipt = chain.invoke(_outsider(chain), "supplychain", "record_node", _node("a-1", text))
        events = [{k: v for k, v in e.items() if k != "_tx_id"} for e in chain.ledger.events()]
        runs.append((receipt.gas_used, chain.state.state_digest(), events,
                     len(LedgerView().follow(chain.ledger).provenance)))
    (gas, digest, events, indexed), (gas_text, digest_text, events_text, indexed_text) = runs
    assert (gas, digest, events) == (gas_text, digest_text, events_text)
    assert (indexed, indexed_text) == (0, 1)


def test_a_text_must_be_a_string(platform):
    outsider = _outsider(platform.chain)
    height = platform.chain.ledger.height
    with pytest.raises(ContractError, match="text must be a string"):
        platform.chain.invoke(outsider, "supplychain", "record_node", _node("a-1", 7))
    with pytest.raises(ContractError, match="text must be a string"):
        platform.chain.invoke(platform.governance, "factualdb", "seed_fact", {
            "fact_id": "f-1", "content_hash": "h", "source": "s", "topic": "politics",
            "text": ["not", "a", "string"]})
    assert platform.chain.ledger.height == height


def test_a_fresh_fold_of_the_ledger_is_the_platforms_index(platform):
    """Seeded facts, records and a promoted fact: a view that never saw the
    platform's calls folds the same entries from genesis and discovers the
    same parents, with the same degrees by ``float.hex``."""
    gen = CorpusGenerator(seed=9)
    fact = gen.factual(topic="politics")
    platform.seed_fact("f-0", fact.text, "public-record", "politics")
    platform.register_participant("acme", role="publisher")
    platform.create_distribution_platform("acme", "acme-news")
    platform.create_news_room("acme", "acme-news", "desk", "politics")
    platform.publish_article("acme", "acme-news", "desk", "a-1",
                             relay(fact, "acme", 1.0).text, "politics")
    platform.rank_article("a-1", crowd_score=1.0)
    platform.promote_to_factual("a-1", fact_id="a-1-fact")
    probe = gen.insertion_fake(fact, "x", 2.0, n_insertions=2).text

    def discovery(index):
        return [(c.article_id, c.similarity.hex(), index.degree_between(probe, c.article_id).hex())
                for c in index.discover_parents(probe, max_parents=5)]

    folded = LedgerView().follow(platform.chain.ledger).provenance
    assert sorted(folded._texts) == sorted(platform.index._texts) == [
        "a-1", "fact:a-1-fact", "fact:f-0"]
    assert folded.text_of("fact:a-1-fact") == folded.text_of("a-1")
    assert discovery(folded) == discovery(platform.index) and discovery(folded)


def test_the_platform_folds_its_own_commits_at_once(platform, monkeypatch):
    """A seeded fact is sketched inside ``seed_fact`` (set-up), not by the
    first publish after it, and a publish's one sketch is the one the fold
    adds."""
    calls = []
    original = provenance_module.minhash_signature
    monkeypatch.setattr(provenance_module, "minhash_signature",
                        lambda *args: calls.append(1) or original(*args))
    fact = CorpusGenerator(seed=5).factual(topic="politics")
    platform.seed_fact("f-0", fact.text, "public-record", "politics")
    assert len(calls) == 1 and "fact:f-0" in platform._view.provenance
    platform.register_participant("reader", role="consumer")
    platform.report_external("reader", "ext-1", relay(fact, "r", 1.0).text, "politics",
                             source="https://o.example")
    assert len(calls) == 2 and "ext-1" in platform._view.provenance
    assert platform._view.height == platform.chain.ledger.height


def test_two_copies_of_a_fact_text_displace_its_root(platform):
    """A known gap, pinned as it stands (ROADMAP item 6 (c)): any registered
    key may record a seeded fact's text under ids that sort before
    ``fact:``, and discovery keeps two parents and breaks ties by id, so an
    honest relay of the fact links to the two copies instead of its factual
    root.  When recording or discovery closes the gap this test fails, and
    is to be turned round to assert the relay keeps ``fact:f-0``."""
    fact = CorpusGenerator(seed=5).factual(topic="politics")
    platform.seed_fact("f-0", fact.text, "public-record", "politics")
    forger = _outsider(platform.chain)
    for article_id in ("0-a", "0-b"):
        platform.chain.invoke(forger, "supplychain", "record_node", _node(article_id, fact.text))
    platform.register_participant("reader", role="consumer")
    echoed = platform.report_external("reader", "ext-1", relay(fact, "r", 1.0).text, "politics",
                                      source="https://o.example")
    assert (echoed.parents, echoed.fact_roots) == (("0-a", "0-b"), ())
    assert not platform.trace("ext-1").traceable
    assert platform.accountable_author("ext-1") == forger.address
