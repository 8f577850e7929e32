"""Running the platform does not load networkx.

The supply chain is a :class:`~repro.core.supplychain.SupplyChainGraph`
of plain dicts, and the modules that run a networkx algorithm import it
inside that function.  A fresh interpreter imports the packages, drives a
``LocalChain`` platform through every call the end-to-end workloads make,
rebuilds the graph from the ledger and queries it, and networkx must
still be absent from ``sys.modules``.  numpy, which loads on first use,
must be loaded once the scorer is trained.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SESSION = r"""
import sys
from dataclasses import replace

import repro, repro.chain, repro.core, repro.social.cascade
from repro.core import (
    TrustingNewsPlatform, build_supply_chain_graph, find_original_author, trace_to_factual_root,
)
from repro.corpus import CorpusGenerator
from repro.corpus.mutations import relay
from repro.ml import FakeNewsScorer
from repro.social.cascade import ShareEvent

gen = CorpusGenerator(seed=5)
texts, labels = gen.labeled_corpus(n_factual=20, n_fake=20).texts_and_labels()
plat = TrustingNewsPlatform(seed=5, scorer=FakeNewsScorer(seed=1).fit(texts, labels))
# numpy loads on first use (repro._numpy): the fit used it, so the handle is the real module.
from repro._numpy import np
assert type(np) is type(sys) and sys.modules["numpy"] is np
plat.register_participant("wire", "publisher")
plat.register_participant("author", "journalist")
plat.register_participant("checker", "checker")
plat.create_distribution_platform("wire", "wire-platform")
plat.create_news_room("wire", "wire-platform", "room", "politics")
plat.authenticate_journalist("wire-platform", "author")
fact = gen.factual(topic="politics")
plat.seed_fact("f-0", fact.text, "public-record", "politics")
plat.publish_article("author", "wire-platform", "room", "a-1", relay(fact, "author", 1.0).text,
                     "politics")
plat.report_external("checker", "x-1", relay(fact, "checker", 2.0).text, "politics", "elsewhere")
share = replace(relay(fact, "fan", 3.0), article_id="s-1")
plat.ingest_share(ShareEvent(time=0.0, round_index=0, agent_id="fan", source_agent_id="author",
                             article_id="s-1", parent_article_id="a-1", op="share"), share)
plat.cast_vote("checker", "a-1", True)
plat.rank_article("a-1", record=True)
assert [r.article_id for r in plat.rank_room("wire-platform", "room")] == ["a-1"]
assert plat.trace("s-1").root == "fact:f-0"
assert plat.accountable_author("a-1") is not None
assert plat.export_audit("a-1")["votes"]
assert plat.prove_article("s-1")["verified"]
graph = build_supply_chain_graph(plat.chain.ledger)
assert trace_to_factual_root(graph, "s-1").root == "fact:f-0"
assert find_original_author(graph, "s-1") is not None
print(sorted(name for name in sys.modules if name.split(".")[0] == "networkx"))
"""


def test_a_platform_session_never_imports_networkx():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", SESSION], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
