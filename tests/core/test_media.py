"""Media fingerprint registry and the deepfake path through publishing."""

import numpy as np
import pytest

from repro.chain import BlockchainNetwork, LocalChain, NetworkedChain
from repro.core import MediaVerifier, TrustingNewsPlatform
from repro.corpus import CorpusGenerator
from repro.corpus.mutations import relay
from repro.errors import ContractError, MLError
from repro.ml import capture_signal, tamper_signal
from repro.simnet import FixedLatency


@pytest.fixture
def rng():
    return np.random.default_rng(21)


def open_newsroom(platform):
    gen = CorpusGenerator(seed=90)
    fact = gen.factual(topic="politics")
    platform.seed_fact("f-1", fact.text, "record", "politics")
    platform.register_participant("acme", role="publisher")
    platform.create_distribution_platform("acme", "acme-news")
    platform.create_news_room("acme", "acme-news", "desk", "politics")
    platform.register_participant("cam", role="journalist")
    platform.authenticate_journalist("acme-news", "cam")
    return platform, fact


@pytest.fixture
def newsroom_platform(platform):
    return open_newsroom(platform)


def test_register_and_assess_authentic(newsroom_platform, rng):
    platform, fact = newsroom_platform
    signal = capture_signal(rng)
    platform.register_media("cam", "clip-1", signal, "press conference")
    assert platform.assess_media("clip-1", signal) == 0.0


def test_assess_tampered(newsroom_platform, rng):
    platform, fact = newsroom_platform
    signal = capture_signal(rng)
    platform.register_media("cam", "clip-1", signal)
    tampered, _ = tamper_signal(signal, rng)
    assert platform.assess_media("clip-1", tampered) > 0.05


def test_unregistered_media_scores_unverifiable(newsroom_platform, rng):
    platform, fact = newsroom_platform
    assert platform.assess_media("ghost-clip", capture_signal(rng)) == 1.0


def test_duplicate_media_id_rejected(newsroom_platform, rng):
    platform, fact = newsroom_platform
    signal = capture_signal(rng)
    platform.register_media("cam", "clip-1", signal)
    with pytest.raises(ContractError, match="already registered"):
        platform.register_media("cam", "clip-1", signal)


def test_a_fingerprint_a_reader_cannot_rebuild_is_refused(newsroom_platform, rng):
    """``{"block_hashes": ["x"]}`` used to commit as a fingerprint, and from
    then on ``assess_media`` and every publish attaching the clip raised
    ``KeyError: 'block_size'`` on every peer, and NaN statistics made a
    tampered copy score as authentic.  The fingerprint is four typed
    arguments now, and the body checks their values."""
    platform, fact = newsroom_platform
    chain, cam = platform.chain, platform.account("cam")
    signal = capture_signal(rng)
    honest = {"media_id": "clip-1", **MediaVerifier.fingerprint_record(signal), "description": ""}
    height, digest = chain.ledger.height, chain.state.state_digest()
    for bad, refusal in [
        ({"media_id": "clip-1", "fingerprint": {"block_hashes": ["x"]}, "description": ""},
         r"unknown \['fingerprint'\]"),
        ({**honest, "block_hashes": {"block_hashes": ["x"]}}, "block_hashes must be a list"),
        ({**honest, "block_size": 0}, "block_size must be at least 1"),
        ({**honest, "block_hashes": [], "block_means": [], "block_stds": []}, "block hashes"),
        ({**honest, "block_stds": honest["block_stds"][:-1]}, "as long as block_hashes"),
        ({**honest, "block_means": [float("nan")] * len(honest["block_means"])}, "finite"),
    ]:
        with pytest.raises(ContractError, match=refusal):
            chain.invoke(cam, "media", "register", bad)
    assert (chain.ledger.height, chain.state.state_digest()) == (height, digest)
    assert platform.assess_media("clip-1", signal) == 1.0  # nothing registered
    platform.register_media("cam", "clip-1", signal)
    assert platform.assess_media("clip-1", signal) == 0.0
    published = platform.publish_article("cam", "acme-news", "desk", "a-1",
                                         relay(fact, "cam", 1.0).text, "politics",
                                         media=[("clip-1", signal)])
    assert published.receipt.success


def test_a_suspect_shorter_than_one_registered_block_scores_one(newsroom_platform, rng):
    """A registration may name a block larger than any capture; a suspect
    without one whole block of it is unverifiable (1.0), not an error, so
    the assessment and a publish attaching the clip both answer."""
    platform, fact = newsroom_platform
    signal = capture_signal(rng)
    platform.chain.invoke(platform.account("cam"), "media", "register", {
        "media_id": "clip-1", **MediaVerifier.fingerprint_record(signal),
        "block_size": 10**9, "description": "",
    })
    assert platform.assess_media("clip-1", signal) == 1.0
    with pytest.raises(MLError, match="1-D"):
        platform.assess_media("clip-1", np.stack([signal, signal]))
    published = platform.publish_article("cam", "acme-news", "desk", "a-1",
                                         relay(fact, "cam", 1.0).text, "politics",
                                         media=[("clip-1", signal)])
    assert published.receipt.success


def test_publish_with_authentic_media_keeps_score(newsroom_platform, rng, trained_scorer):
    platform, fact = newsroom_platform
    platform.scorer = trained_scorer
    signal = capture_signal(rng)
    platform.register_media("cam", "clip-1", signal)
    report = relay(fact, "cam", 1.0)
    published = platform.publish_article(
        "cam", "acme-news", "desk", "a-1", report.text, "politics",
        media=[("clip-1", signal)],
    )
    assert published.ai_score is not None and published.ai_score < 0.5


def test_publish_with_deepfaked_media_condemns_article(newsroom_platform, rng, trained_scorer):
    """Neutral text + tampered clip -> high P(fake): the fusion path."""
    platform, fact = newsroom_platform
    platform.scorer = trained_scorer
    signal = capture_signal(rng)
    platform.register_media("cam", "clip-1", signal)
    tampered, _ = tamper_signal(signal, rng, n_segments=6)
    report = relay(fact, "cam", 1.0)
    published = platform.publish_article(
        "cam", "acme-news", "desk", "a-2", report.text, "politics",
        media=[("clip-1", tampered)],
    )
    assert published.ai_score > 0.2
    # The assessment and the fused score landed on the ledger, in the
    # publish's block.
    events = list(platform.chain.ledger.events(contract="media", kind="media-assessed"))
    assert events and events[-1]["article_id"] == "a-2"
    assert events[-1]["_height"] == published.receipt.block_height
    node = platform.chain.query("supplychain", "get_node", {"article_id": "a-2"})
    assert node["ai_score"] == published.ai_score == max(
        trained_scorer.score_one(report.text), events[-1]["tamper_score"])
    # And the ranking feels it.
    clean = platform.publish_article(
        "cam", "acme-news", "desk", "a-3", relay(fact, "cam", 2.0).text, "politics",
        media=[("clip-1", signal)],
    )
    fake_rank = platform.rank_article("a-2")
    clean_rank = platform.rank_article("a-3")
    assert fake_rank.score < clean_rank.score


def test_unregistered_clip_score_is_committed_with_the_article(newsroom_platform, rng):
    """An unverifiable clip has no registration to check against, so no
    assessment is recorded, but its 1.0 is the committed P(fake)."""
    platform, fact = newsroom_platform
    published = platform.publish_article(
        "cam", "acme-news", "desk", "a-1", relay(fact, "cam", 1.0).text, "politics",
        media=[("ghost-clip", capture_signal(rng))],
    )
    assert published.ai_score == 1.0
    assert platform.chain.query("supplychain", "get_node", {"article_id": "a-1"})["ai_score"] == 1.0
    assert not list(platform.chain.ledger.events(contract="media", kind="media-assessed"))
    assert platform.rank_article("a-1", record=False).ai_score == 0.0


@pytest.mark.parametrize("networked", [False, True], ids=["local", "networked"])
def test_publish_whose_media_assessment_aborts_is_refused_whole(networked, rng):
    """The same clip attached twice: its second assessment aborts.  That
    used to happen after the article had committed, so the call raised
    over a published, listed article and one committed assessment."""
    chain = LocalChain(seed=0)
    if networked:
        chain = NetworkedChain(BlockchainNetwork(
            n_peers=4, consensus="pbft", block_interval=0.2, latency=FixedLatency(0.01), seed=0))
    platform, fact = open_newsroom(TrustingNewsPlatform(seed=0, chain=chain))
    signal = capture_signal(rng)
    platform.register_media("cam", "clip-1", signal)

    def visible():
        network = getattr(chain, "network", None)
        if network is not None:
            network.run_for(2.0)
        ledgers = [peer.ledger for peer in network.peers] if network else [chain.ledger]
        return {
            "heights": [ledger.height for ledger in ledgers],
            "media events": [list(ledger.events(contract="media")) for ledger in ledgers],
            "newsroom events": [list(ledger.events(contract="newsroom")) for ledger in ledgers],
            "room": platform.rank_room("acme-news", "desk"),
            "node": platform.chain.query("supplychain", "get_node", {"article_id": "a-1"}),
        }

    before = visible()
    with pytest.raises(ContractError, match="assessment already recorded"):
        platform.publish_article(
            "cam", "acme-news", "desk", "a-1", relay(fact, "cam", 1.0).text, "politics",
            media=[("clip-1", signal), ("clip-1", signal)],
        )
    assert visible() == before
    assert before["room"] == [] and before["node"] is None
    published = platform.publish_article(
        "cam", "acme-news", "desk", "a-1", relay(fact, "cam", 1.0).text, "politics",
        media=[("clip-1", signal)],
    )
    assert [r.article_id for r in platform.rank_room("acme-news", "desk")] == ["a-1"]
    assert published.ai_score == 0.0


def test_assessment_requires_registered_media(newsroom_platform, rng):
    platform, fact = newsroom_platform
    with pytest.raises(ContractError, match="no media"):
        platform.chain.invoke(
            platform.governance, "media", "record_assessment",
            {"media_id": "ghost", "article_id": "a-1", "tamper_score": 0.5},
        )
