"""repro — reproduction of "AI Blockchain Platform for Trusting News"
(Shae & Tsai, IEEE ICDCS 2019).

A from-scratch implementation of the paper's platform and every
substrate it depends on:

- :mod:`repro.crypto`  — hashing, Merkle trees, Ed25519 (RFC 8032)
- :mod:`repro.simnet`  — deterministic discrete-event network simulator
- :mod:`repro.chain`   — permissioned blockchain (Fabric-style
  execute-order-validate, PBFT / PoA consensus, smart contracts)
- :mod:`repro.corpus`  — synthetic news corpus with provenance ground
  truth and the paper's mutation taxonomy
- :mod:`repro.ml`      — NumPy text classifiers, stylometric features,
  ensembles, simulated deepfake detection
- :mod:`repro.social`  — agent-based propagation simulator (users,
  bots, cyborgs, journalists)
- :mod:`repro.core`    — the paper's contribution: factual database,
  news supply-chain graph, crowd-sourced ranking, expert mining,
  intervention, prediction, and the TrustingNewsPlatform facade

Quickstart::

    from repro import TrustingNewsPlatform

    platform = TrustingNewsPlatform(seed=7)
    platform.register_participant("reuters", role="publisher")
    platform.create_distribution_platform("reuters", "reuters-wire")
    platform.create_news_room("reuters", "reuters-wire", "politics-desk", "politics")
    article = platform.publish_article(
        "reuters", "reuters-wire", "politics-desk",
        article_id="a-1", text="...", topic="politics",
    )
    print(platform.rank_article("a-1"))
"""

__version__ = "1.0.0"

__all__ = ["TrustingNewsPlatform", "PublishedArticle", "__version__"]


def __getattr__(name: str):
    # The facade loads on first use (PEP 562), so ``import repro.chain``
    # imports the chain and its substrates, not the platform above them.
    if name in ("TrustingNewsPlatform", "PublishedArticle"):
        from repro.core import platform

        return getattr(platform, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
