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
from repro.social.cascade import ShareEvent


def _node(article_id, text=None):
    """``record_node`` args: a record that claims no links, or one that
    carries *text* and leaves its links to the readers' fold."""
    args = {"article_id": article_id, "content_hash": "h-" + article_id, "topic": "politics",
            "op": "publish"}
    if text is None:
        return {**args, "parents": [], "modification_degree": 1.0}
    return {**args, "text": text}


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


#: What a record that carries its text leaves to the readers' fold.
LINKS = ("parents", "parent_degrees", "modification_degree", "fact_roots", "fact_degrees")


def test_a_record_that_carries_its_text_commits_neither_text_nor_links():
    """The text and a declared parent are checked and folded, never written
    or emitted: the same record with and without a declaration commits the
    same state, events and gas, none of it holds the text or a link, and
    the fold derives the links (none here: nothing is indexed before it)
    and indexes the text."""
    runs = []
    for declared in (None, ["o-0"]):
        chain = LocalChain(seed=3)
        chain.install_contract(IdentityContract())
        chain.install_contract(SupplyChainContract())
        args = _node("a-1", "the council approved the budget on monday")
        if declared is not None:
            args["parents"] = declared
        receipt = chain.invoke(_outsider(chain), "supplychain", "record_node", args)
        events = [{k: v for k, v in e.items() if k != "_tx_id"} for e in chain.ledger.events()]
        record = chain.query("supplychain", "get_node", {"article_id": "a-1"})
        assert not {"text", *LINKS} & (set(record) | set(events[-1]))
        view = LedgerView().follow(chain.ledger)
        assert view.records["a-1"] == {**record, "parents": [], "parent_degrees": [],
                                       "modification_degree": 1.0, "fact_roots": [],
                                       "fact_degrees": []}
        assert len(view.provenance) == 1
        runs.append((receipt.gas_used, chain.state.state_digest(), events))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("claim,refusal", [
    ({"modification_degree": 0.0}, "claims no degrees"),
    ({"parent_degrees": [0.0]}, "claims no degrees"),
    ({"fact_roots": ["f-0"]}, r"unknown \['fact_roots'\]"),
    ({"fact_degrees": [0.0]}, r"unknown \['fact_degrees'\]"),
    ({"parents": ["o-1", "o-1"]}, "more than once"),
], ids=["modification_degree", "parent_degrees", "fact_roots", "fact_degrees", "repeated"])
def test_a_record_that_carries_its_text_claims_no_link(platform, claim, refusal):
    """Beside a text, a claimed degree is refused, and no record names a
    fact root at all: the readers' fold measures every edge itself, so a
    writer cannot forge one."""
    gen = CorpusGenerator(seed=5)
    fact = gen.factual(topic="politics")
    platform.seed_fact("f-0", fact.text, "public-record", "politics")
    forger = _outsider(platform.chain)
    platform.chain.invoke(forger, "supplychain", "record_node", _node("o-1", gen.fabricated().text))
    height = platform.chain.ledger.height
    args = {**_node("a-1", relay(fact, "r", 1.0).text), "parents": ["o-1"], **claim}
    with pytest.raises(ContractError, match=refusal):
        platform.chain.invoke(forger, "supplychain", "record_node", args)
    assert platform.chain.ledger.height == height and "a-1" not in platform.index


def _hex(value):
    """*value* with every float spelled by ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hex(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hex(item) for item in value]
    return value


def _folded(view):
    return _hex({"records": view.records, "nodes": list(view.graph.nodes(data=True)),
                 "edges": view.graph.edges(data=True), "indexed": sorted(view.provenance._texts)})


def test_a_cold_fold_equals_the_platforms_warm_view(platform):
    """A view that never saw the platform's calls folds, from genesis and in
    one follow, what the platform's view folded commit by commit — records,
    graph and index, every degree equal by ``float.hex`` — on a history
    where chain order decides the links: a record whose text copies a fact
    seeded *after* it (it must not link to that fact), a promotion (a later
    relay of the promoted article finds the promoted fact), and a share
    whose declared parent is unknown (it keeps no link)."""
    gen = CorpusGenerator(seed=11)
    early, later = gen.factual(topic="politics"), gen.factual(topic="politics")
    platform.seed_fact("f-0", early.text, "public-record", "politics")
    platform.chain.invoke(_outsider(platform.chain), "supplychain", "record_node",
                          _node("o-1", later.text))
    assert platform.graph.out_degree("o-1") == 0
    platform.seed_fact("f-1", later.text, "public-record", "politics")
    platform.register_participant("acme", role="publisher")
    platform.create_distribution_platform("acme", "acme-news")
    platform.create_news_room("acme", "acme-news", "desk", "politics")
    platform.publish_article("acme", "acme-news", "desk", "a-1",
                             relay(early, "acme", 1.0).text, "politics")
    platform.rank_article("a-1", crowd_score=1.0)
    platform.promote_to_factual("a-1", fact_id="a-1-fact")
    platform.register_participant("reader", role="consumer")
    echo = platform.report_external("reader", "ext-1", relay(later, "r", 2.0).text, "politics",
                                    source="https://o.example")
    promoted = platform.report_external("reader", "ext-2", relay(early, "r", 3.0).text,
                                        "politics", source="https://o.example")
    orphan = relay(later, "agent-1", 4.0).with_id("s-1")
    platform.ingest_share(ShareEvent(time=0.0, round_index=0, agent_id="agent-1",
                                     source_agent_id="", article_id="s-1",
                                     parent_article_id="never-recorded", op="relay"), orphan)

    cold = LedgerView().follow(platform.chain.ledger)
    assert _folded(cold) == _folded(platform._view) and cold.height == platform._view.height
    assert cold.records["o-1"]["fact_roots"] == [] and cold.records["o-1"]["parents"] == []
    assert set(echo.parents + echo.fact_roots) == {"o-1", "f-1"}
    assert "a-1-fact" in promoted.fact_roots
    assert cold.records["s-1"]["parents"] == [] and cold.records["s-1"]["fact_roots"] == []
    assert cold.records["s-1"]["modification_degree"] == 1.0


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
    """Any registered key may record a seeded fact's text under ids that sort
    before ``fact:``, and discovery keeps two parents and breaks ties by id,
    so an honest relay of the fact links to the two copies, not to its root.
    It stays traceable: every reader's fold derives each copy's links at
    its chain position, so the first copy links to ``fact:f-0`` (and the
    second to the first and the fact), and the relay traces to
    ``fact:f-0`` through them with no modification.  (When the writer
    claimed the links, the copies claimed none and the relay was
    untraceable.)"""
    fact = CorpusGenerator(seed=5).factual(topic="politics")
    platform.seed_fact("f-0", fact.text, "public-record", "politics")
    forger = _outsider(platform.chain)
    for article_id in ("0-a", "0-b"):
        platform.chain.invoke(forger, "supplychain", "record_node", _node(article_id, fact.text))
    platform.register_participant("reader", role="consumer")
    echoed = platform.report_external("reader", "ext-1", relay(fact, "r", 1.0).text, "politics",
                                      source="https://o.example")
    assert (echoed.parents, echoed.fact_roots) == (("0-a", "0-b"), ())
    assert platform.export_audit("0-a")["node"]["fact_roots"] == ["f-0"]
    trace = platform.trace("ext-1")
    assert (trace.traceable, trace.root, trace.path) == (True, "fact:f-0",
                                                          ["ext-1", "0-a", "fact:f-0"])
    assert trace.provenance_score == 1.0
