"""Shared fixtures for the test suite.

Everything is seeded, so any test can be re-run in isolation and see the
identical world.  Session-scoped fixtures hold expensive artifacts
(trained scorer, large corpus) that tests treat as read-only; anything a
test mutates is function-scoped.
"""

from __future__ import annotations

import random

import pytest

from repro.chain import Contract, LocalChain, contract_method
from repro.chain.contracts import ContractRegistry
from repro.chain.peer import Peer
from repro.chain.store import DurableStore
from repro.corpus import CorpusGenerator
from repro.crypto import KeyPair
from repro.crypto import ed25519
from repro.core import TrustingNewsPlatform
from repro.ml import FakeNewsScorer
from repro.simnet.disk import SimDisk


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


@pytest.fixture
def corpus_gen() -> CorpusGenerator:
    return CorpusGenerator(seed=99)


@pytest.fixture
def local_chain() -> LocalChain:
    return LocalChain(seed=11)


def peer_count(peer, name: str) -> float:
    """*peer*'s value of the registry counter *name*."""
    return peer.obs.counter(name, peer=peer.node_id).value


def attach_to_peer(engine, directory: dict[str, bytes]):
    """Attach a network-less *engine* to a peer of its own whose
    ``directory`` also holds *directory* (node id -> public key): the keys
    it checks a synced tip's certificate against.  Returns *engine*."""
    peer = Peer("observer", KeyPair.generate(random.Random("observer")), ContractRegistry(),
                engine, DurableStore(disk=SimDisk("observer"), node_id="observer"))
    peer.directory.update(directory)
    return engine


class CounterContract(Contract):
    """Tiny contract used across chain-layer tests."""

    name = "counter"

    @contract_method
    def increment(self, ctx, amount: int = 1):
        value = (ctx.get("count") or 0) + amount
        ctx.put("count", value)
        ctx.emit("incremented", amount=amount, new=value)
        return value

    @contract_method
    def read(self, ctx):
        return ctx.get("count") or 0

    @contract_method
    def fail(self, ctx):
        ctx.require(False, "deliberate failure")

    @contract_method
    def burn_gas(self, ctx, keys: int = 100000):
        for index in range(keys):
            ctx.put(f"k{index}", "x" * 100)


class RewriteContract(Contract):
    """Writes a key back unchanged: a new version, the same value — the
    smallest transaction that makes somebody's read of that key stale."""

    name = "rewrite"

    @contract_method
    def touch(self, ctx, key: str):
        ctx.put(key, ctx.get(key))


class OrderTwoKeyPair(KeyPair):
    """A signer that shifts ``R`` by the point of order 2: ``R' = r*G +
    (0, -1)``, ``s = r + H(R' | A | m) * a``.  Each such signature fails
    ``s*G == R' + h*A`` by exactly that point, so ``verify`` rejects it; two
    of them cancel in a random-linear-combination check with odd
    coefficients, which is why a batch is ``verify`` item by item."""

    def sign(self, message: bytes) -> bytes:
        a, prefix, public = ed25519._secret_expand(self.seed)
        r = int.from_bytes(ed25519._sha512(prefix + message), "little") % ed25519._L
        shifted = ed25519._point_add(
            ed25519._point_mul(r, ed25519._G), (0, ed25519._P - 1, 1, 0))
        r_bytes = ed25519._point_compress(shifted)
        h = int.from_bytes(ed25519._sha512(r_bytes + public + message), "little") % ed25519._L
        return r_bytes + int.to_bytes((r + h * a) % ed25519._L, 32, "little")


class LengthScorer:
    """P(fake) from the text length: exact on every machine, no training."""

    def score_one(self, text: str) -> float:
        return (len(text) % 89) / 100


def graph_links(graph, article_id: str) -> dict:
    """A recorded node's links as a record holds them, read off *graph*:
    its parents and fact roots in edge order, each edge's degree, and the
    node's ``modification_degree``."""
    from repro.core.supplychain import FACT_PREFIX

    linked = list(graph.successors(article_id))
    parents = [p for p in linked if not p.startswith(FACT_PREFIX)]
    facts = [p for p in linked if p.startswith(FACT_PREFIX)]
    return {
        "parents": parents,
        "parent_degrees": [graph.edges[article_id, p]["weight"] for p in parents],
        "modification_degree": graph.nodes[article_id]["modification_degree"],
        "fact_roots": [f[len(FACT_PREFIX):] for f in facts],
        "fact_degrees": [graph.edges[article_id, f]["weight"] for f in facts],
    }


def audit_oracle(query, ledger, article_id: str) -> dict:
    """``export_audit``'s bundle as the contract queries answer it —
    ``get_node``, ``get_ranking`` and ``list_comments`` through
    ``query(contract, method, args)`` — with the trace and author of the
    from-genesis graph of *ledger* and its ``vote-cast`` events in chain
    order.  A record that carries its text commits no links; its node
    gets the ones that graph holds for it."""
    from repro.core import build_supply_chain_graph, find_original_author, trace_to_factual_root

    args = {"article_id": article_id}
    graph = build_supply_chain_graph(ledger)
    trace = trace_to_factual_root(graph, article_id)
    node = query("supplychain", "get_node", args)
    if node is not None and "parents" not in node:
        node = {**node, **graph_links(graph, article_id)}
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
        "ranking": query("supplychain", "get_ranking", args),
        "votes": [
            {"voter": event["_sender"], "verdict": event["verdict"], "weight": event["weight"]}
            for event in ledger.events(contract="votes", kind="vote-cast")
            if event["article_id"] == article_id
        ],
        "comments": query("newsroom", "list_comments", args),
        "accountable_author": find_original_author(graph, article_id),
    }


@pytest.fixture
def counter_contract_cls():
    return CounterContract


@pytest.fixture
def platform() -> TrustingNewsPlatform:
    return TrustingNewsPlatform(seed=7)


@pytest.fixture(scope="session")
def trained_scorer() -> FakeNewsScorer:
    """A scorer trained once on a small labeled corpus (read-only)."""
    gen = CorpusGenerator(seed=2024)
    corpus = gen.labeled_corpus(n_factual=150, n_fake=150)
    texts, labels = corpus.texts_and_labels()
    return FakeNewsScorer(seed=1).fit(texts, labels)


@pytest.fixture(scope="session")
def eval_corpus():
    """Held-out labeled corpus (read-only)."""
    return CorpusGenerator(seed=2025).labeled_corpus(n_factual=80, n_fake=80)
