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
from repro.corpus import CorpusGenerator
from repro.crypto import KeyPair
from repro.crypto import ed25519
from repro.core import TrustingNewsPlatform
from repro.ml import FakeNewsScorer


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
